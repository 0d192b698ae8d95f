import re
import tracemalloc

import numpy as np
import pytest
import straightline as ora

from inru.batch import SLICE_BLOCKS, BatchCipher, Tables, _byte_rows, _prefix_xors, _suffix_xors, tables
from inru.cipher import (
    Block,
    Diversifier,
    MasterKey,
    RoundKeys,
    encrypt_block,
    expand_key,
)
from inru.quasigroup import INRU, Quasigroup, conjugate


@pytest.fixture(scope="module")
def engine():
    return BatchCipher()


def _int64_tables(q):
    """The seven tables built over the whole index space in int64, then cast."""
    mul = np.array(q.mul_table, dtype=np.int64)
    high, low = np.indices((256, 256)).reshape(2, -1)  # index high << 8 | low
    first = mul[high & 15, low >> 4]
    left = first << 4 | mul[first, low & 15]
    first = mul[low >> 4, high & 15]
    right = mul[first, high >> 4] << 4 | first

    s, byte = np.indices((32, 256)).reshape(2, -1)
    chain, parity = s >> 1, s & 1
    flip = 255 * parity
    z = left[chain << 8 | byte]
    p = _prefix_xors(z)
    odd = ((z & 15) << 1 | parity ^ (p & 1)) << 8 | (p >> 1) ^ flip
    z = right[byte << 8 | chain << 4]
    p = _suffix_xors(z)
    even = ((z >> 4) << 1 | parity ^ (p >> 7)) << 8 | ((p << 1) & 255) ^ 255 ^ flip
    last = (z >> 4) << 9 | z

    div = np.array(q.ldiv_table, dtype=np.int64)
    dleft = div[high & 15, low >> 4] << 4 | div[low >> 4, low & 15]
    dright = div[high & 15, high >> 4] << 4 | div[low >> 4, high & 15]
    u16 = [t.astype(np.uint16) for t in (odd, even, last, left << 8, right)]
    return Tables(*u16, dleft.astype(np.uint8), dright.astype(np.uint8))


@pytest.mark.parametrize("q", [INRU, conjugate(INRU, "left")], ids=["inru", "left conjugate"])
def test_tables_equal_the_int64_construction(q):
    for name, got, want in zip(Tables._fields, tables(q), _int64_tables(q), strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
        assert not got.flags.writeable, name


def test_table_build_holds_little_beyond_the_tables():
    # The seven tables take 0.42 MiB; an int64 build over the whole index
    # space traced 3.51 MiB, and its freed scratch stayed resident.
    tables.__wrapped__(INRU)
    tracemalloc.start()
    try:
        tables.__wrapped__(INRU)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


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


def test_expand_key_bytes_matches_scalar_key_bytes(engine):
    # Two slices of keys: the columns at the slice edge and a few inside.
    n = SLICE_BLOCKS + 1
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 16, size=(n, 32), dtype=np.uint8)
    ivs = rng.integers(0, 16, size=(n, 16), dtype=np.uint8)
    kb = engine.expand_key_bytes(keys, ivs)
    assert kb.shape == (n, 17, 8) and kb.dtype == np.uint8
    for j in [0, 1, 5, *rng.integers(0, n, 3), SLICE_BLOCKS - 1, SLICE_BLOCKS]:
        ref = expand_key(
            MasterKey(tuple(int(v) for v in keys[j])),
            Diversifier(tuple(int(v) for v in ivs[j])),
        )
        assert np.array_equal(kb[j], ref.key_bytes)
        assert not ref.key_bytes.flags.writeable


def test_expand_key_bytes_of_no_keys(engine):
    no_keys = np.zeros((0, 32), dtype=np.uint8)
    assert engine.expand_key_bytes(no_keys).shape == (0, 17, 8)
    assert engine.expand_keys(no_keys, np.zeros((0, 16), dtype=np.uint8)).shape == (0, 17, 16)


def test_expand_key_bytes_memory_grows_by_the_round_keys_only(engine):
    # One slice's working strings (over 600 bytes a key) whatever n is;
    # beyond them each key adds its 136 bytes of round keys and its
    # 16 bytes of zero diversifier.
    def peak(n):
        keys = np.zeros((n, 32), dtype=np.uint8)
        tracemalloc.start()
        try:
            engine.expand_key_bytes(keys)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2 * SLICE_BLOCKS) - peak(SLICE_BLOCKS) < 200 * SLICE_BLOCKS


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
    assert rks.shape == (10, 17, 8) and rks.dtype == np.uint8
    for j in range(10):
        ref = round_key_generation(MixedKeyState(tuple(int(v) for v in states[j])))
        assert np.array_equal(rks[j], ref.key_bytes)


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
    ref = encrypt_block(Block(tuple(int(v) for v in blocks[0])), _round_keys(rks))
    assert list(ref.nibbles) == ct[0].tolist()


def test_rounds_validation(engine):
    blocks = np.zeros((1, 16), dtype=np.uint8)
    rks = np.zeros((17, 16), dtype=np.uint8)
    for bad in (0, 17):
        with pytest.raises(ValueError):
            engine.encrypt(blocks, rks, rounds=bad)
        with pytest.raises(ValueError):
            engine.decrypt(blocks, rks, rounds=bad)


_DIFFUSIONS = [
    (ora.ora_diffuse_left, BatchCipher._undiffuse_left, ora.ora_undiffuse_left),
    (ora.ora_diffuse_right, BatchCipher._undiffuse_right, ora.ora_undiffuse_right),
]


def _columns_diffused(diffuse, rows):
    """An oracle diffusion layer applied to each column of (8, n) byte rows."""
    nibbles = np.stack([rows >> 4, rows & 15], axis=1).reshape(16, -1)
    out = np.array([diffuse(column) for column in nibbles.T.tolist()], dtype=np.uint8).T
    return out[0::2] << 4 | out[1::2]


@pytest.mark.parametrize("diffuse, undiffuse, oracle", _DIFFUSIONS)
@pytest.mark.parametrize("width", [1, 3, 8, 13, 1000])
def test_diffusion_matches_oracle_column_by_column(diffuse, undiffuse, oracle, width):
    # The round tables fuse forward diffusion, so the oracle's layer is the
    # forward reference for the engine's inverse layers.
    rng = np.random.default_rng(width)
    w = rng.integers(0, 16, size=(16, width), dtype=np.uint8)
    w[:, 0] = 15  # every parity carry set
    if width > 1:
        w[:, 1] = 0
    rows = w[0::2] << 4 | w[1::2]  # the layers take (8, n) byte rows
    before = rows.copy()
    out = undiffuse(rows)
    assert np.array_equal(rows, before)
    assert out.shape == (8, width) and out.dtype == np.uint8
    nibbles = np.stack([out >> 4, out & 15], axis=1).reshape(16, width)
    for j in range(width):
        assert nibbles[:, j].tolist() == oracle(w[:, j].tolist())
    assert np.array_equal(undiffuse(_columns_diffused(diffuse, rows)), rows)
    assert np.array_equal(_columns_diffused(diffuse, out), rows)


@pytest.mark.parametrize("rounds", [3, 16])
def test_traced_sbox_outputs_survive_later_rounds(engine, rounds):
    rng = np.random.default_rng(30 + rounds)
    blocks = rng.integers(0, 256, size=(13, 8), dtype=np.uint8)
    rks = engine.expand_key_bytes(rng.integers(0, 16, size=(13, 32), dtype=np.uint8))
    kept, copies = [], []
    for _, _, after_sbox, _ in engine.trace_rounds(blocks, rks, rounds):
        kept.append(after_sbox)
        copies.append(after_sbox.copy())
    assert len(kept) == rounds
    for a, b in zip(kept, copies):
        assert np.array_equal(a, b)


def _block_ints(blocks):
    """(n, 16) nibble blocks as their ``Block.to_int`` values."""
    packed = blocks[:, 0::2] << 4 | blocks[:, 1::2]
    return [int(v) for v in packed.view(">u8")[:, 0]]


def _round_keys(rks):
    """(17, 16) nibble round keys as ``RoundKeys``."""
    return RoundKeys(_byte_rows(rks.T).T)


@pytest.fixture(scope="module")
def second_quasigroup():
    q = conjugate(INRU, "left")
    return q, BatchCipher(q)


def test_expand_keys_under_a_second_quasigroup(second_quasigroup):
    q, eng = second_quasigroup
    rng = np.random.default_rng(40)
    keys = rng.integers(0, 16, size=(12, 32), dtype=np.uint8)
    ivs = rng.integers(1, 16, size=(12, 16), dtype=np.uint8)  # nonzero diversifiers
    rks = eng.expand_keys(keys, ivs)
    assert not np.array_equal(rks, BatchCipher().expand_keys(keys, ivs))
    for j in range(12):
        ref = expand_key(
            MasterKey(tuple(int(v) for v in keys[j])),
            Diversifier(tuple(int(v) for v in ivs[j])),
            q,
        )
        assert [list(k.nibbles) for k in ref.keys] == rks[j].tolist()


@pytest.fixture(scope="module")
def second_quasigroup_batches(second_quasigroup):
    """Per width: blocks, per-block round keys and their RoundKeys under q."""
    q, eng = second_quasigroup
    rng = np.random.default_rng(41)
    batches = {}
    for width in (1, 2, 63, 1000):
        blocks = rng.integers(0, 16, size=(width, 16), dtype=np.uint8)
        rks = eng.expand_keys(rng.integers(0, 16, size=(width, 32), dtype=np.uint8))
        batches[width] = blocks, rks, [_round_keys(r) for r in rks]
    return batches


@pytest.mark.parametrize("width", [1, 2, 63, 1000])
@pytest.mark.parametrize("rounds", range(1, 17))
def test_encrypt_under_a_second_quasigroup(second_quasigroup, second_quasigroup_batches, width, rounds):
    q, eng = second_quasigroup
    blocks, rks, round_keys = second_quasigroup_batches[width]
    xs = _block_ints(blocks)
    shared = eng.encrypt(blocks, rks[0], rounds)
    walk = eng.int_encryptor(round_keys[0].key_bytes, rounds)
    assert _block_ints(shared) == [walk(x) for x in xs]
    assert np.array_equal(eng.decrypt(shared, rks[0], rounds), blocks)
    per_block = eng.encrypt(blocks, rks, rounds)
    assert _block_ints(per_block) == [eng.int_encryptor(r.key_bytes, rounds)(x) for x, r in zip(xs, round_keys)]
    assert np.array_equal(eng.decrypt(per_block, rks, rounds), blocks)


@pytest.mark.parametrize("width, shared", [(1, False), (7, False), (7, True), (1000, False)])
def test_trace_rounds_matches_oracle(engine, width, shared):
    rng = np.random.default_rng(50 + width)
    blocks = rng.integers(0, 16, size=(width, 16), dtype=np.uint8)
    rks = rng.integers(0, 16, size=(17, 16) if shared else (width, 17, 16), dtype=np.uint8)
    states = [list(m) for m in blocks.tolist()]
    steps = engine.trace_rounds(_byte_rows(blocks.T).T, _byte_rows(rks.T).T, 16)
    while True:
        try:
            i, after_kxor, after_sbox, after_diffusion = next(steps)
        except StopIteration as done:
            final = done.value
            break
        for j in range(width):
            k = (rks if shared else rks[j])[i - 1].tolist()
            c = ora.ora_kxor(k, states[j])
            assert after_kxor[:, j].tolist() == c
            if i & 1:
                c = ora.ora_e_left(k[0], c)
                assert after_sbox[:, j].tolist() == c
                c = ora.ora_diffuse_right(c)
            else:
                c = ora.ora_e_right(k[15], c)
                assert after_sbox[:, j].tolist() == c
                if i != 16:
                    c = ora.ora_diffuse_left(c)
            if i == 16:
                assert after_diffusion is None
            else:
                assert after_diffusion[:, j].tolist() == c
            states[j] = c
    assert i == 16
    assert final.T.tolist() == states
    whitened = [ora.ora_kxor((rks if shared else rks[j])[16].tolist(), c) for j, c in enumerate(states)]
    assert engine.encrypt(blocks, rks).tolist() == whitened


@pytest.mark.parametrize("shared", [True, False])
def test_encrypt_bytes_is_encrypt_on_packed_bytes(engine, shared):
    rng = np.random.default_rng(60)
    blocks = rng.integers(0, 16, size=(257, 16), dtype=np.uint8)
    rks = rng.integers(0, 16, size=(17, 16) if shared else (257, 17, 16), dtype=np.uint8)
    packed = blocks[:, 0::2] << 4 | blocks[:, 1::2]
    packed_rks = rks[..., 0::2] << 4 | rks[..., 1::2]
    for rounds in (1, 2, 15, 16):
        got = engine.encrypt_bytes(packed, packed_rks, rounds)
        want = engine.encrypt(blocks, rks, rounds)
        assert got.shape == (257, 8)
        assert np.array_equal(got, want[:, 0::2] << 4 | want[:, 1::2])
        got = engine.decrypt_bytes(packed, packed_rks, rounds)
        want = engine.decrypt(blocks, rks, rounds)
        assert got.shape == (257, 8)
        assert np.array_equal(got, want[:, 0::2] << 4 | want[:, 1::2])
        encrypted = engine.encrypt_bytes(packed, packed_rks, rounds)
        assert np.array_equal(engine.decrypt_bytes(encrypted, packed_rks, rounds), packed)
    assert np.array_equal(packed, blocks[:, 0::2] << 4 | blocks[:, 1::2])  # input untouched


def test_encrypt_bytes_rejects_nibble_blocks(engine):
    with pytest.raises(ValueError):
        engine.encrypt_bytes(np.zeros((3, 16), dtype=np.uint8), np.zeros((17, 8), dtype=np.uint8))
    with pytest.raises(ValueError):
        engine.decrypt_bytes(np.zeros((3, 16), dtype=np.uint8), np.zeros((17, 8), dtype=np.uint8))


_NIBBLE_VIEWS = ("encrypt", "decrypt")
_NIBBLE_BLOCKS = "blocks must have shape (n, 16), got "
_NIBBLE_RKS = "round keys must have shape (17, 16) or (3, 17, 16), got "
_BYTE_RKS = "round keys must have shape (17, 8) or (3, 17, 8), got "
_SHAPE_CASES = [  # (method, argument shapes, the error's message)
    *[(method, [(3, 15), (17, 16)], _NIBBLE_BLOCKS + "(3, 15)") for method in _NIBBLE_VIEWS],
    ("trace_rounds", [(3, 16), (17, 8)], "blocks must have shape (n, 8), got (3, 16)"),
    *[(method, [(3, 16), (16, 16)], _NIBBLE_RKS + "(16, 16)") for method in _NIBBLE_VIEWS],
    ("trace_rounds", [(3, 8), (16, 8)], _BYTE_RKS + "(16, 8)"),
    *[(method, [(3, 16), (4, 17, 16)], _NIBBLE_RKS + "(4, 17, 16)") for method in _NIBBLE_VIEWS],
    ("trace_rounds", [(3, 8), (4, 17, 8)], _BYTE_RKS + "(4, 17, 8)"),
    ("encrypt_bytes", [(3, 8), (17, 16)], _BYTE_RKS + "(17, 16)"),
    ("decrypt_bytes", [(3, 8), (17, 16)], _BYTE_RKS + "(17, 16)"),
    ("decrypt_bytes", [(3, 8), (2, 17, 8)], _BYTE_RKS + "(2, 17, 8)"),
    ("encrypt_bytes", [(3, 7), (17, 8)], "blocks must have shape (n, 8), got (3, 7)"),
    ("expand_keys", [(2, 32), (2, 15)], "ivs must have shape (2, 16), got (2, 15)"),
    ("expand_keys", [(2, 32), (3, 16)], "ivs must have shape (2, 16), got (3, 16)"),
    ("expand_key_bytes", [(2, 31)], "keys must have shape (n, 32), got (2, 31)"),
    ("trace_rounds", [(3, 8), (17, 16)], _BYTE_RKS + "(17, 16)"),
    ("int_encryptor", [(17, 16)], "round keys must have shape (17, 8), got (17, 16)"),
]


@pytest.mark.parametrize("method, shapes, expected", _SHAPE_CASES)
def test_entry_points_name_the_shape_they_expect(engine, method, shapes, expected):
    args = [np.zeros(shape, dtype=np.uint8) for shape in shapes]
    with pytest.raises(ValueError, match=re.escape(expected)):
        list(getattr(engine, method)(*args))  # list() runs the trace_rounds generator


def _nibbles_of(data) -> list[int]:
    return [v for b in bytes(data) for v in (b >> 4, b & 15)]


@pytest.mark.parametrize("n", [SLICE_BLOCKS - 1, SLICE_BLOCKS, SLICE_BLOCKS + 1, 2 * SLICE_BLOCKS + 7])
@pytest.mark.parametrize("shared", [True, False])
def test_sliced_engine_matches_scalar_and_oracle_across_slice_boundaries(engine, n, shared):
    # Columns on both sides of every slice boundary, and a few inside, are
    # checked against the scalar walk and the straight-line oracle.
    rng = np.random.default_rng(n + shared)
    blocks = rng.integers(0, 256, size=(n, 8), dtype=np.uint8)
    rks = rng.integers(0, 256, size=(17, 8) if shared else (n, 17, 8), dtype=np.uint8)
    ct = engine.encrypt_bytes(blocks, rks)
    pt = engine.decrypt_bytes(blocks, rks)
    assert ct.shape == pt.shape == (n, 8)
    edges = {lo + d for lo in range(0, n + 1, SLICE_BLOCKS) for d in (-1, 0)}
    picks = {0, n - 1, *rng.choice(n, 3, replace=False).tolist(), *(c for c in edges if 0 <= c < n)}
    for c in sorted(picks):
        rk_rows = rks if shared else rks[c]
        oracle_rks = [_nibbles_of(row) for row in rk_rows]
        x = int.from_bytes(bytes(blocks[c]), "big")
        assert int.from_bytes(bytes(ct[c]), "big") == engine.int_encryptor(rk_rows)(x)
        assert _nibbles_of(ct[c]) == ora.ora_encrypt(_nibbles_of(blocks[c]), oracle_rks)
        assert _nibbles_of(pt[c]) == ora.ora_decrypt(_nibbles_of(blocks[c]), oracle_rks)
    assert np.array_equal(engine.decrypt_bytes(ct, rks), blocks)
    assert np.array_equal(engine.encrypt_bytes(pt, rks), blocks)


def test_decrypt_bytes_leaves_a_transposed_row_view_untouched(engine):
    # encrypt_bytes returns a transposed view of contiguous rows; a single
    # slice of it is those rows themselves, which decryption must only read.
    rng = np.random.default_rng(61)
    rks = rng.integers(0, 256, size=(17, 8), dtype=np.uint8)
    ct = engine.encrypt_bytes(rng.integers(0, 256, size=(100, 8), dtype=np.uint8), rks)
    before = ct.copy()
    engine.decrypt_bytes(ct, rks)
    assert np.array_equal(ct, before)
