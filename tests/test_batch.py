import numpy as np
import pytest
import straightline as ora

from inru.batch import BatchCipher, bits_to_blocks, blocks_to_bits
from inru.cipher import Block, Diversifier, MasterKey, encrypt_block, expand_key
from inru.quasigroup import Quasigroup


@pytest.fixture(scope="module")
def engine():
    return BatchCipher()


def test_engine_rejects_wrong_order():
    with pytest.raises(ValueError):
        BatchCipher(Quasigroup([[0, 1], [1, 0]]))


def test_expand_keys_matches_scalar(engine):
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 16, size=(40, 32), dtype=np.uint8)
    ivs = rng.integers(0, 16, size=(40, 16), dtype=np.uint8)
    rks = engine.expand_keys(keys, ivs)
    assert rks.shape == (40, 17, 16)
    for j in range(40):
        ref = expand_key(
            MasterKey(tuple(int(v) for v in keys[j])),
            Diversifier(tuple(int(v) for v in ivs[j])),
        )
        assert [list(k.nibbles) for k in ref.keys] == rks[j].tolist()


def test_expand_keys_default_iv(engine):
    rng = np.random.default_rng(2)
    keys = rng.integers(0, 16, size=(5, 32), dtype=np.uint8)
    rks = engine.expand_keys(keys)
    for j in range(5):
        ref = expand_key(MasterKey(tuple(int(v) for v in keys[j])))
        assert [list(k.nibbles) for k in ref.keys] == rks[j].tolist()


def test_expand_keys_shape_validation(engine):
    with pytest.raises(ValueError):
        engine.expand_keys(np.zeros((3, 31), dtype=np.uint8))
    with pytest.raises(ValueError):
        engine.round_keys_from_states(np.zeros((3, 63), dtype=np.uint8))


def test_round_keys_from_states_matches_scalar(engine):
    from inru.cipher import MixedKeyState, round_key_generation

    rng = np.random.default_rng(21)
    states = rng.integers(0, 16, size=(10, 64), dtype=np.uint8)
    rks = engine.round_keys_from_states(states)
    for j in range(10):
        ref = round_key_generation(MixedKeyState(tuple(int(v) for v in states[j])))
        assert [list(k.nibbles) for k in ref.keys] == rks[j].tolist()


def test_mix_keys_matches_scalar(engine):
    from inru.cipher import Diversifier, MasterKey, key_mixing

    rng = np.random.default_rng(22)
    keys = rng.integers(0, 16, size=(10, 32), dtype=np.uint8)
    ivs = rng.integers(0, 16, size=(10, 16), dtype=np.uint8)
    mixed = engine.mix_keys(keys, ivs)
    for j in range(10):
        ref = key_mixing(
            MasterKey(tuple(int(v) for v in keys[j])),
            Diversifier(tuple(int(v) for v in ivs[j])),
        )
        assert list(ref.nibbles) == mixed[j].tolist()


@pytest.mark.parametrize("rounds", [1, 2, 3, 8, 15, 16])
def test_encrypt_decrypt_match_scalar(engine, rounds):
    rng = np.random.default_rng(rounds)
    keys = rng.integers(0, 16, size=(24, 32), dtype=np.uint8)
    blocks = rng.integers(0, 16, size=(24, 16), dtype=np.uint8)
    rks = engine.expand_keys(keys)
    ct = engine.encrypt(blocks, rks, rounds=rounds)
    for j in range(24):
        ref = encrypt_block(
            Block(tuple(int(v) for v in blocks[j])),
            expand_key(MasterKey(tuple(int(v) for v in keys[j]))),
            rounds=rounds,
        )
        assert list(ref.nibbles) == ct[j].tolist()
    assert np.array_equal(engine.decrypt(ct, rks, rounds=rounds), blocks)


def test_shared_schedule_broadcast(engine):
    rng = np.random.default_rng(9)
    blocks = rng.integers(0, 16, size=(500, 16), dtype=np.uint8)
    rks = engine.expand_keys(rng.integers(0, 16, size=(1, 32), dtype=np.uint8))[0]
    ct = engine.encrypt(blocks, rks)
    assert np.array_equal(engine.decrypt(ct, rks), blocks)
    # spot check one row against the scalar path under the same schedule
    ref = encrypt_block(Block(tuple(int(v) for v in blocks[0])), _to_roundkeys(rks))
    assert list(ref.nibbles) == ct[0].tolist()


def _to_roundkeys(rks_array):
    from inru.cipher import RoundKeys

    return RoundKeys(tuple(Block(tuple(int(v) for v in rk)) for rk in rks_array))


def test_bits_round_trip(engine):
    rng = np.random.default_rng(5)
    blocks = rng.integers(0, 16, size=(100, 16), dtype=np.uint8)
    bits = blocks_to_bits(blocks)
    assert bits.shape == (100, 64)
    assert np.array_equal(bits_to_blocks(bits), blocks)
    # bit order: string bit 0 is the msb of nibble 0
    one = np.zeros((1, 16), dtype=np.uint8)
    one[0, 0] = 0x8
    assert blocks_to_bits(one)[0, 0] == 1
    assert blocks_to_bits(one)[0, 1:].sum() == 0


def test_rounds_validation(engine):
    blocks = np.zeros((1, 16), dtype=np.uint8)
    rks = np.zeros((17, 16), dtype=np.uint8)
    for bad in (0, 17):
        with pytest.raises(ValueError):
            engine.encrypt(blocks, rks, rounds=bad)
        with pytest.raises(ValueError):
            engine.decrypt(blocks, rks, rounds=bad)


_DIFFUSIONS = [
    (BatchCipher._diffuse_left, BatchCipher._undiffuse_left, ora.ora_diffuse_left),
    (BatchCipher._diffuse_right, BatchCipher._undiffuse_right, ora.ora_diffuse_right),
]


@pytest.mark.parametrize("diffuse, undiffuse, oracle", _DIFFUSIONS)
@pytest.mark.parametrize("width", [1, 3, 8, 13, 1000])
def test_diffusion_matches_oracle_column_by_column(diffuse, undiffuse, oracle, width):
    rng = np.random.default_rng(width)
    w = rng.integers(0, 16, size=(16, width), dtype=np.uint8)
    w[:, 0] = 15  # every parity carry set
    if width > 1:
        w[:, 1] = 0
    before = w.copy()
    out = diffuse(w)
    assert np.array_equal(w, before)
    assert out.shape == (16, width) and out.dtype == np.uint8
    for j in range(width):
        assert out[:, j].tolist() == oracle(w[:, j].tolist())
    assert np.array_equal(undiffuse(out), w)


@pytest.mark.parametrize("rounds", [3, 16])
def test_traced_sbox_outputs_survive_later_rounds(engine, rounds):
    rng = np.random.default_rng(30 + rounds)
    blocks = rng.integers(0, 16, size=(13, 16), dtype=np.uint8)
    rks = engine.expand_keys(rng.integers(0, 16, size=(13, 32), dtype=np.uint8))
    kept, copies = [], []
    for _, _, after_sbox, _ in engine.trace_rounds(blocks, rks, rounds):
        kept.append(after_sbox)
        copies.append(after_sbox.copy())
    assert len(kept) == rounds
    for a, b in zip(kept, copies):
        assert np.array_equal(a, b)
