import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import straightline as ora
from inru.batch import BatchCipher, _round_table_rows, tables
from inru.cipher import (
    Block,
    Diversifier,
    MasterKey,
    MixedKeyState,
    RoundKeys,
    builtin_vectors,
    decrypt_block,
    encrypt_block,
    encrypt_block_traced,
    expand_key,
    key_mixing,
    parse_vector_line,
    read_vectors,
    round_key_generation,
)
from inru.quasigroup import INRU, conjugate

# frozen from the straight-line transcription oracle
ZERO_MIXED = "fbdd08377aa8304a027ef3dc3a8fe09d64cf05fa1c391bea9ec701363aa49117"
ZERO_CT = "e3e42aa883e2d043"
ZERO_ROUND_KEYS = (
    "a3f94d18fd9a0b37", "9b0e0a983b444716", "b9e3dbb3d7dc8f51", "1c373fbe0bc941e9",
    "03b9c7c51cd487ec", "aa4800dfb75e4ea6", "2d3d00a9fc896aa7", "3ef973f4eea5c6e9",
    "7b3911aeb1447af6", "7891e5d6a19d7d79", "c190f9797ed04c87", "ac153f1b2f0abbe8",
    "4fd4f7c3536cd056", "00f735c4f480f2d9", "97e78d6f4af9b081", "6b0f066d7878cd59",
    "78b364fa69e42d63",
)
ZERO_STATE_ROUND_KEYS = (
    "c55ddb83af294953", "c16a26ce9c741362", "17afc5227a18c5d9", "28ab6882d672b93d",
    "09a1f3eecdc325ea", "2a94ffa33236195f", "87f35541a79ba8a8", "72701d5cf4b5b7c1",
    "f7162df4b2da69a8", "c49e1d1b92a7ee3b", "fbb858c5986d064f", "f59daac0ba603297",
    "463884621ef0e4cc", "635d2e6f7c383263", "be92c734877b3ee9", "4e0ca22b0a6c1436",
    "95829c5b7cdda82c",
)


def random_block(r):
    return Block(tuple(r.randrange(16) for _ in range(16)))


def random_key(r):
    return MasterKey(tuple(r.randrange(16) for _ in range(32)))


def random_iv(r):
    return Diversifier(tuple(r.randrange(16) for _ in range(16)))


# -- packing -----------------------------------------------------------------


def test_byte_round_trip_single_byte_probes():
    for pos in range(8):
        for value in range(256):
            data = bytes(value if j == pos else 0 for j in range(8))
            assert Block.from_bytes(data).to_bytes() == data


@given(st.binary(min_size=8, max_size=8))
def test_packing_round_trips(data):
    b = Block.from_bytes(data)
    assert b.to_bytes() == data
    assert Block.from_int(b.to_int()) == b
    assert Block.from_hex(b.to_hex()) == b


def test_bit_indexing_msb_first():
    b = Block.from_hex("8000000000000001")
    assert b.bit(0) == 1 and b.bit(1) == 0
    assert b.bit(63) == 1 and b.bit(62) == 0
    assert b.flip_bit(0) == Block.from_hex("0000000000000001")


def test_block_validation():
    with pytest.raises(ValueError):
        Block((0,) * 15)
    with pytest.raises(ValueError):
        Block((16,) + (0,) * 15)
    with pytest.raises(ValueError):
        Block.from_hex("00")
    with pytest.raises(ValueError):
        Block.from_bytes(b"\x00" * 7)
    with pytest.raises(ValueError):
        MasterKey.from_hex("00")
    with pytest.raises(ValueError):
        MixedKeyState((0,) * 63)
    with pytest.raises(ValueError):
        RoundKeys(bytes(8 * 16))


@pytest.mark.parametrize("cls, size, hex_name", [
    (Block, 16, "Block"),
    (MasterKey, 32, "key"),
    (Diversifier, 16, "iv"),
    (MixedKeyState, 64, None),  # never read from hex
])
def test_nibble_string_types_share_checks_and_hex(cls, size, hex_name):
    name = cls.__name__
    with pytest.raises(ValueError, match=f"^{name} needs exactly {size} nibbles, got {size - 1}$"):
        cls((0,) * (size - 1))
    with pytest.raises(ValueError, match=f"^{name} contains 16, not a nibble$"):
        cls((0,) * (size - 1) + (16,))
    with pytest.raises(ValueError, match=f"^{name} contains -1, not a nibble$"):
        cls((-1,) + (0,) * (size - 1))
    counting = cls(tuple(i % 16 for i in range(size)))
    assert counting.to_hex() == "0123456789abcdef" * (size // 16)
    assert cls(list(counting.nibbles)) == counting
    if hex_name is None:
        return
    for digits in (size - 1, size + 1, 0):
        with pytest.raises(ValueError, match=f"^{hex_name} hex needs {size} digits, got {digits}$"):
            cls.from_hex("0" * digits)
    assert cls.zero() == cls((0,) * size)
    assert cls.from_hex(cls.zero().to_hex()) == cls.zero()
    assert cls.from_hex(counting.to_hex().upper()) == counting


def test_master_key_flip_bit_follows_the_block_bit_order():
    key = MasterKey.zero()
    for i, want in ((0, "8" + "0" * 31), (5, "04" + "0" * 30), (127, "0" * 31 + "1")):
        assert key.flip_bit(i).to_hex() == want
    for i in range(64):
        flipped = key.flip_bit(i).to_hex()
        assert flipped[16:] == "0" * 16
        assert Block.from_hex(flipped[:16]).bit(i) == 1
        assert Block.from_hex(flipped[:16]) == Block.zero().flip_bit(i)


# -- round primitives ----------------------------------------------------------


def test_kxor_identities(rng):
    a = random_block(rng)
    zero = Block.zero()
    ones = Block.from_hex("f" * 16)
    assert zero ^ a == a
    assert a ^ a == zero
    assert ones ^ a == Block(tuple(v ^ 0xF for v in a.nibbles))


# -- encryption ---------------------------------------------------------------


def test_zero_known_answer():
    rks = expand_key(MasterKey.zero(), Diversifier.zero())
    assert [k.to_hex() for k in rks.keys] == list(ZERO_ROUND_KEYS)
    ct = encrypt_block(Block.zero(), rks)
    assert ct.to_hex() == ZERO_CT
    assert decrypt_block(ct, rks) == Block.zero()


def test_key_mixing_zero_vector():
    assert key_mixing(MasterKey.zero(), Diversifier.zero()).to_hex() == ZERO_MIXED


def test_round_key_generation_from_zero_state():
    rks = round_key_generation(MixedKeyState((0,) * 64))
    assert [k.to_hex() for k in rks.keys] == list(ZERO_STATE_ROUND_KEYS)


def _mixing_string(key, iv):
    """The 64-nibble seed string: key, diversifier, then the constant 15..0."""
    return key.nibbles + iv.nibbles + tuple(range(15, -1, -1))


def test_mixing_string_layout():
    # Key mixing chains the seed string with its own nibbles s63 (the
    # constant 0), s62, ..., s0 as leaders, e_left first.
    key = MasterKey(tuple(range(16)) + tuple(range(16)))
    iv = Diversifier(tuple(15 - i for i in range(16)))
    s = _mixing_string(key, iv)
    a = s
    for i, leader in enumerate(reversed(s)):
        a = (INRU.e_right if i & 1 else INRU.e_left)(leader, a)
    assert key_mixing(key, iv).nibbles == a
    assert list(a) == ora.ora_key_mixing(list(key.nibbles), list(iv.nibbles))


def test_library_matches_straightline_oracle(rng, monkeypatch):
    keys, ivs, ora_schedules = [], [], []
    for _ in range(25):
        key, iv, m = random_key(rng), random_iv(rng), random_block(rng)
        rks = expand_key(key, iv)
        ora_rks = ora.ora_expand_key(list(key.nibbles), list(iv.nibbles))
        assert [list(k.nibbles) for k in rks.keys] == ora_rks
        assert list(encrypt_block(m, rks).nibbles) == ora.ora_encrypt(list(m.nibbles), ora_rks)
        ct = [rng.randrange(16) for _ in range(16)]
        assert list(decrypt_block(Block(tuple(ct)), rks).nibbles) == ora.ora_decrypt(ct, ora_rks)
        keys.append(key.nibbles)
        ivs.append(iv.nibbles)
        ora_schedules.append(ora_rks)

    # The many-key schedule (one key runs a separate walk), under INRU and
    # under the left conjugate, whose table is the oracle's left division.
    def schedules(q):
        kb = BatchCipher(q).expand_key_bytes(np.array(keys, np.uint8), np.array(ivs, np.uint8))
        return np.stack([kb >> 4, kb & 15], axis=-1).reshape(len(keys), 17, 16).tolist()

    assert schedules(INRU) == ora_schedules
    monkeypatch.setattr(ora, "ORACLE_SQUARE", ora.ORACLE_LDIV)
    assert schedules(conjugate(INRU, "left")) == [ora.ora_expand_key(list(k), list(v)) for k, v in zip(keys, ivs)]


def test_encrypt_decrypt_round_trip(rng):
    for _ in range(200):
        key, iv, m = random_key(rng), random_iv(rng), random_block(rng)
        rks = expand_key(key, iv)
        assert decrypt_block(encrypt_block(m, rks), rks) == m


@pytest.mark.parametrize("rounds", range(1, 17))
def test_reduced_round_variants_invert(rounds, rng):
    for _ in range(25):
        key, m = random_key(rng), random_block(rng)
        rks = expand_key(key)
        ct = encrypt_block(m, rks, rounds=rounds)
        assert decrypt_block(ct, rks, rounds=rounds) == m


def _reference_encrypt(m, rks, rounds, q):
    """The round loop written out from the public round primitives."""
    c = m
    for i in range(1, rounds + 1):
        k = rks[i - 1]
        c = k ^ c
        if i & 1:
            c = Block(tuple(ora.ora_diffuse_right(q.e_left(k.nibbles[0], c.nibbles))))
        else:
            c = Block(q.e_right(k.nibbles[15], c.nibbles))
            if i != 16:
                c = Block(tuple(ora.ora_diffuse_left(c.nibbles)))
    return rks[rounds] ^ c


@pytest.mark.parametrize("rounds", range(1, 17))
def test_int_engine_matches_oracle_and_batch_engine(rounds, rng):
    keys = [random_key(rng) for _ in range(8)]
    blocks = [random_block(rng) for _ in range(8)]
    rks = [expand_key(k) for k in keys]
    batch = BatchCipher().encrypt(
        np.array([m.nibbles for m in blocks]),
        np.array([[k.nibbles for k in r.keys] for r in rks]),
        rounds=rounds,
    )
    for key, m, r, want in zip(keys, blocks, rks, batch.tolist()):
        ora_rks = ora.ora_expand_key(list(key.nibbles), [0] * 16)
        assert ora.ora_encrypt(list(m.nibbles), ora_rks, rounds) == want
        assert BatchCipher().int_encryptor(r.key_bytes, rounds)(m.to_int()) == Block(tuple(want)).to_int()
        assert encrypt_block(m, r, rounds) == Block(tuple(want))


@pytest.mark.parametrize("rounds", [1, 2, 3, 15, 16])
def test_bound_walk_is_reusable_across_blocks(rounds, rng):
    # One walk bound to a key schedule serves a whole stream; it keeps no
    # state between blocks, so it agrees with the batch engine on every one.
    rks = expand_key(random_key(rng), random_iv(rng))
    blocks = [random_block(rng) for _ in range(64)]
    walk = BatchCipher().int_encryptor(rks.key_bytes, rounds)
    batch = BatchCipher().encrypt(np.array([m.nibbles for m in blocks]), np.array([k.nibbles for k in rks.keys], np.uint8), rounds)
    assert [walk(m.to_int()) for m in blocks] == [Block(tuple(row)).to_int() for row in batch.tolist()]
    with pytest.raises(ValueError):
        BatchCipher().int_encryptor(rks.key_bytes, 0)


@pytest.mark.parametrize("rounds", range(1, 17))
@pytest.mark.parametrize("which", ["inru", "left conjugate"])
def test_bound_walk_matches_oracle_with_both_round_parities(which, rounds, rng, monkeypatch):
    # A round whose chain output has odd parity owes an all-ones complement,
    # which the walk folds into the next round's key bytes (or, after the
    # last round, into the whitening key).  The left conjugate's table is
    # the oracle's own left division of its square.
    q = INRU
    if which == "left conjugate":
        q = conjugate(INRU, "left")
        assert q.mul_table == tuple(map(tuple, ora.ORACLE_LDIV))
        monkeypatch.setattr(ora, "ORACLE_SQUARE", ora.ORACLE_LDIV)
    key, iv = random_key(rng), random_iv(rng)
    rks = expand_key(key, iv, q)
    ora_rks = ora.ora_expand_key(list(key.nibbles), list(iv.nibbles))
    assert [list(k.nibbles) for k in rks.keys] == ora_rks
    blocks = [random_block(rng) for _ in range(32)]
    walk = BatchCipher(q).int_encryptor(rks.key_bytes, rounds)
    for m in blocks:
        want = ora.ora_encrypt(list(m.nibbles), ora_rks, rounds)
        assert walk(m.to_int()) == Block(tuple(want)).to_int()

    parities = {}  # (final round?, parity of the round's chain output)
    inputs = np.array([list(m.to_bytes()) for m in blocks], dtype=np.uint8)
    for i, _, z, _ in BatchCipher(q).trace_rounds(inputs, rks.key_bytes, rounds):
        if i != 16:  # the literal 16th round owes no complement
            for v in np.bitwise_xor.reduce(z, axis=0).tolist():
                parities.setdefault(i == rounds, set()).add(bin(v).count("1") & 1)
    if rounds > 1:
        assert parities[False] == {0, 1}
    if rounds < 16:
        assert parities[True] == {0, 1}


@pytest.mark.parametrize("which", ["inru", "left conjugate"])
def test_walk_rows_link_the_round_tables(which):
    # Row s of a round table holds, for each byte b, the row of the next
    # walk state and the output byte of table entry s << 8 | b, then the
    # row's own parity.
    q, other = INRU, conjugate(INRU, "left")
    if which == "left conjugate":
        q, other = other, q
    rows = _round_table_rows(q)
    assert _round_table_rows(q) is rows  # cached per quasigroup
    assert _round_table_rows(other) is not rows
    t = tables(q)
    for table, table_rows in zip((t.odd, t.even, t.last), rows, strict=True):
        entries = table.tolist()
        assert len(table_rows) == 32
        for s, row in enumerate(table_rows):
            assert len(row) == 257
            assert row[256] == s & 1
            for b in range(256):
                v = entries[s << 8 | b]
                link, out = row[b]
                assert link is table_rows[v >> 8]
                assert out == v & 255


@pytest.mark.parametrize("rounds", [15, 16])
def test_bound_walk_orbit_matches_batch_engine(rounds, rng):
    # An OFB-style orbit x -> E(x) of one bound walk, checked step by step.
    rks = expand_key(random_key(rng), random_iv(rng))
    walk = BatchCipher().int_encryptor(rks.key_bytes, rounds)
    orbit = [random_block(rng).to_int()]
    for _ in range(1000):
        orbit.append(walk(orbit[-1]))
    inputs = np.array([list(x.to_bytes(8, "big")) for x in orbit[:-1]], dtype=np.uint8)
    steps = BatchCipher().encrypt_bytes(inputs, rks.key_bytes, rounds)
    assert [int.from_bytes(row.tobytes(), "big") for row in steps] == orbit[1:]


@pytest.mark.parametrize("rounds", range(1, 17))
def test_int_engine_under_a_second_quasigroup(rounds, rng):
    q = conjugate(INRU, "left")
    engine = BatchCipher(q)
    for _ in range(4):
        key, iv, m = random_key(rng), random_iv(rng), random_block(rng)
        rks = expand_key(key, iv, q)
        want = _reference_encrypt(m, rks, rounds, q)
        assert want != _reference_encrypt(m, rks, rounds, INRU)
        assert encrypt_block(m, rks, rounds, q) == want
        assert engine.int_encryptor(rks.key_bytes, rounds)(m.to_int()) == want.to_int()
        rk_array = np.array([k.nibbles for k in rks.keys])
        assert engine.encrypt(np.array([m.nibbles]), rk_array, rounds).tolist() == [list(want.nibbles)]
        assert decrypt_block(want, rks, rounds, q) == m


def test_two_round_inverse_exhaustive_last_nibble(rng):
    rks = expand_key(random_key(rng))
    for v in range(16):
        m = Block((0,) * 15 + (v,))
        assert decrypt_block(encrypt_block(m, rks, rounds=2), rks, rounds=2) == m


def test_one_round_structure_with_zero_keys():
    zero_rks = RoundKeys(bytes(8 * 17))
    got = encrypt_block(Block.zero(), zero_rks, rounds=1)
    expected = Block(tuple(ora.ora_diffuse_right(INRU.e_left(0, (0,) * 16))))
    assert got == expected


def test_rounds_out_of_range():
    rks = expand_key(MasterKey.zero())
    for bad in (0, 17):
        with pytest.raises(ValueError):
            encrypt_block(Block.zero(), rks, rounds=bad)
        with pytest.raises(ValueError):
            decrypt_block(Block.zero(), rks, rounds=bad)


@pytest.mark.parametrize("rounds", [1, 2, 15, 16])
def test_traced_encryption_matches_and_extracts_leaders(rng, rounds):
    key, iv, m = random_key(rng), random_iv(rng), random_block(rng)
    rks = expand_key(key, iv)
    ct, traces = encrypt_block_traced(m, rks, rounds=rounds)
    assert ct == encrypt_block(m, rks, rounds=rounds)
    assert len(traces) == rounds
    state = m
    for tr in traces:
        rk = rks[tr.index - 1].nibbles
        assert tr.after_kxor == (state ^ rks[tr.index - 1]).nibbles
        if tr.index % 2 == 1:  # odd rounds chain left to right from nibble 0
            chain = (rk[0],) + tr.after_sbox[:15]
            diffuse = ora.ora_diffuse_right
        else:  # even rounds right to left from nibble 15
            chain = tr.after_sbox[1:] + (rk[15],)
            diffuse = ora.ora_diffuse_left
        assert (tr.after_diffusion is None) == (tr.index == 16)
        state = Block(tr.after_sbox)
        if tr.after_diffusion is not None:
            state = Block(tuple(diffuse(state.nibbles)))
            assert tr.after_diffusion == state.nibbles
        # chain consistency: each position's output feeds the next lookup
        for t in range(16):
            assert tr.after_sbox[t] == INRU.mul(chain[t], tr.after_kxor[t])
    assert ct == state ^ rks[rounds]


def test_expand_key_deterministic():
    key = MasterKey.from_hex("0123456789abcdef0123456789abcdef")
    iv = Diversifier.from_hex("fedcba9876543210")
    a = expand_key(key, iv)
    b = expand_key(key, iv)
    assert [k.to_hex() for k in a.keys] == [k.to_hex() for k in b.keys]


def test_diversifier_avalanche_through_key_mixing():
    # flipping one diversifier nibble flips about half the mixed-state bits
    eng = BatchCipher()
    rng_np = np.random.default_rng(23)
    n = 1000
    keys = rng_np.integers(0, 16, size=(n, 32), dtype=np.uint8)
    ivs = rng_np.integers(0, 16, size=(n, 16), dtype=np.uint8)
    flipped = ivs.copy()
    pos = rng_np.integers(0, 16, size=n)
    flipped[np.arange(n), pos] ^= rng_np.integers(1, 16, size=n, dtype=np.uint8)
    base = eng.mix_keys(keys, ivs)
    other = eng.mix_keys(keys, flipped)
    shifts = np.array([3, 2, 1, 0], dtype=np.uint8)
    diff_bits = (((base ^ other)[:, :, None] >> shifts) & 1).sum()
    frac = diff_bits / (n * 256)
    assert 0.40 < frac < 0.60


def test_single_mixing_pass_changes_at_difference_position():
    # after one left chain pass, a difference at seed position p first shows
    # up at output position p (everything before is untouched)
    key = MasterKey.zero()
    iv_a = Diversifier.zero()
    iv_b = Diversifier((0,) * 7 + (5,) + (0,) * 8)  # differs at s position 39
    sa, sb = _mixing_string(key, iv_a), _mixing_string(key, iv_b)
    out_a = INRU.e_left(sa[63], sa)
    out_b = INRU.e_left(sb[63], sb)
    assert out_a[:39] == out_b[:39]
    assert out_a[39] != out_b[39]


def test_round_key_generation_avalanche_on_last_state_nibble():
    eng = BatchCipher()
    rng_np = np.random.default_rng(29)
    n = 1000
    states = rng_np.integers(0, 16, size=(n, 64), dtype=np.uint8)
    flipped = states.copy()
    flipped[:, 63] ^= rng_np.integers(1, 16, size=n, dtype=np.uint8)
    rk_a = eng.round_keys_from_states(states)
    rk_b = eng.round_keys_from_states(flipped)
    diff_bits = np.bitwise_count(rk_a ^ rk_b).sum()
    frac = diff_bits / (n * 17 * 64)
    assert 0.40 < frac < 0.60


def test_round_key_slicing_shape():
    # 17 keys of 16 even-offset nibbles; the deepest index touched is 542
    offsets = [32 * i + 2 * j for i in range(17) for j in range(16)]
    assert len(offsets) == 17 * 16
    assert max(offsets) == 542 < 544
    rks = round_key_generation(MixedKeyState(tuple(range(16)) * 4))
    assert len(rks.keys) == 17
    assert all(len(k.nibbles) == 16 for k in rks.keys)


def test_distinct_ivs_give_distinct_first_round_keys():
    rng_np = np.random.default_rng(17)
    n = 1000
    keys = np.zeros((n, 32), dtype=np.uint8)
    keys[:] = rng_np.integers(0, 16, 32, dtype=np.uint8)  # one key for all rows
    ivs = rng_np.integers(0, 16, size=(n, 16), dtype=np.uint8)
    ivs = np.unique(ivs, axis=0)
    rks = BatchCipher().expand_keys(keys[: len(ivs)], ivs)
    rk0 = {bytes(rks[j, 0]) for j in range(len(ivs))}
    assert len(rk0) == len(ivs)


# -- vector files ---------------------------------------------------------------


def test_builtin_vectors_verify():
    vectors = builtin_vectors()
    assert len(vectors) >= 20
    for vec in vectors:
        rks = expand_key(vec.key, vec.iv)
        assert encrypt_block(vec.plaintext, rks) == vec.ciphertext
        assert decrypt_block(vec.ciphertext, rks) == vec.plaintext


def test_vector_line_round_trip():
    vec = builtin_vectors()[0]
    assert parse_vector_line(vec.to_line()) == vec


def test_vector_parsing_errors():
    with pytest.raises(ValueError, match="missing"):
        parse_vector_line("key=00 iv=00")
    text = "# comment only\n\n"
    assert read_vectors(text) == []
