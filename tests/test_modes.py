import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import straightline as ora
from inru.cipher import Block, MasterKey, encrypt_block, expand_key
from inru.modes import (
    ModeConfig,
    PaddingError,
    cipher_stream,
    keystream,
    mode_decrypt,
    mode_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
)

KEY = "000102030405060708090a0b0c0d0e0f"
RK = expand_key(MasterKey.from_hex(KEY))
ORACLE_RKS = ora.ora_expand_key([int(ch, 16) for ch in KEY], [0] * 16)


def _oracle_encrypt(block: bytes) -> bytes:
    out = ora.ora_encrypt([v for b in block for v in (b >> 4, b & 15)], ORACLE_RKS)
    return bytes(out[2 * j] << 4 | out[2 * j + 1] for j in range(8))


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def test_mode_config_validation():
    with pytest.raises(ValueError):
        ModeConfig("ecb")
    with pytest.raises(ValueError):
        ModeConfig("cbc", mode_iv=1 << 64)
    with pytest.raises(ValueError):
        ModeConfig("ctr", nonce=1 << 32)
    with pytest.raises(ValueError):
        ModeConfig("cbc", padding="zeros")


def test_pkcs7():
    assert pkcs7_pad(b"") == b"\x08" * 8
    assert pkcs7_pad(b"abc") == b"abc" + b"\x05" * 5
    assert pkcs7_unpad(pkcs7_pad(b"abcdefgh")) == b"abcdefgh"
    with pytest.raises(PaddingError):
        pkcs7_unpad(b"abcdefg\x09")
    with pytest.raises(PaddingError):
        pkcs7_unpad(b"abcdef\x02\x03")
    with pytest.raises(PaddingError):
        pkcs7_unpad(b"abc")


@pytest.mark.parametrize("mode", ["cbc", "cfb", "ofb", "ctr"])
@pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1024])
def test_round_trip_all_modes_and_lengths(mode, length):
    cfg = ModeConfig(mode, mode_iv=0x0123456789ABCDEF, nonce=0xDEADBEEF)
    msg = bytes((7 * i + 3) % 256 for i in range(length))
    ct = mode_encrypt(cfg, RK, msg)
    if mode == "cbc":
        assert len(ct) % 8 == 0 and len(ct) > length
    else:
        assert len(ct) == length
    assert mode_decrypt(cfg, RK, ct) == msg


@pytest.mark.parametrize("mode", ["cbc", "cfb", "ofb", "ctr"])
@pytest.mark.parametrize("length", [8, 8 * 41 + 5, 1024])
def test_sampled_blocks_match_straightline_oracle(mode, length):
    # Each sampled block is recomputed from the mode's definition with the
    # oracle cipher; the last block of an 8k+5-byte stream is a partial tail.
    cfg = ModeConfig(mode, mode_iv=0x0123456789ABCDEF, nonce=0xDEADBEEF)
    msg = bytes((11 * i + 5) % 256 for i in range(length))
    ct = mode_encrypt(cfg, RK, msg)
    pt = pkcs7_pad(msg) if mode == "cbc" else msg
    assert len(ct) == len(pt)
    iv = cfg.mode_iv.to_bytes(8, "big")
    nblocks = (len(pt) + 7) // 8
    picks = random.Random(length).sample(range(nblocks), min(6, nblocks))
    for i in sorted({0, nblocks - 1, *picks}):
        p, c = pt[8 * i : 8 * i + 8], ct[8 * i : 8 * i + 8]
        prev_c = ct[8 * i - 8 : 8 * i] if i else iv
        if mode == "cbc":
            assert c == _oracle_encrypt(_xor(p, prev_c))
            continue
        if mode == "cfb":
            block_in = prev_c
        elif mode == "ofb":  # the keystream feeds back on itself
            block_in = _xor(pt[8 * i - 8 : 8 * i], prev_c) if i else iv
        else:
            block_in = cfg.nonce.to_bytes(4, "big") + i.to_bytes(4, "big")
        assert _xor(p, c) == _oracle_encrypt(block_in)[: len(p)]


@settings(max_examples=25)
@given(st.binary(min_size=0, max_size=200), st.sampled_from(["cbc", "cfb", "ofb", "ctr"]))
def test_round_trip_random_messages(msg, mode):
    cfg = ModeConfig(mode, mode_iv=42, nonce=7)
    assert mode_decrypt(cfg, RK, mode_encrypt(cfg, RK, msg)) == msg


def test_cbc_unpadded_requires_alignment():
    cfg = ModeConfig("cbc", padding="none")
    with pytest.raises(ValueError):
        mode_encrypt(cfg, RK, b"123")
    msg = b"0123456789abcdef"
    assert mode_decrypt(cfg, RK, mode_encrypt(cfg, RK, msg)) == msg


def test_single_block_cbc_equals_raw_block_encryption():
    cfg = ModeConfig("cbc", mode_iv=0, padding="none")
    msg = bytes(range(8))
    expected = encrypt_block(Block.from_bytes(msg), RK).to_bytes()
    assert mode_encrypt(cfg, RK, msg) == expected


def test_ctr_zero_message_equals_keystream():
    cfg = ModeConfig("ctr", nonce=0x01020304)
    ct = mode_encrypt(cfg, RK, b"\x00" * 64)
    ks = keystream(cfg, RK, 64 * 8)
    assert np.array_equal(np.unpackbits(np.frombuffer(ct, np.uint8)), ks)


def test_ctr_first_block_is_encrypted_counter_zero():
    cfg = ModeConfig("ctr", nonce=0xCAFEBABE)
    ct = mode_encrypt(cfg, RK, b"\x00" * 8)
    counter0 = Block.from_int(0xCAFEBABE << 32)
    assert ct == encrypt_block(counter0, RK).to_bytes()


def test_ctr_block_independence():
    cfg = ModeConfig("ctr", nonce=5)
    msg = bytes(range(40))
    ct = bytearray(mode_encrypt(cfg, RK, msg))
    ct[12] ^= 0x40  # inside block 1
    pt = mode_decrypt(cfg, RK, bytes(ct))
    assert pt[:8] == msg[:8] and pt[16:] == msg[16:]
    assert pt[8:16] != msg[8:16]


def test_cbc_bit_flip_garbles_block_and_flips_one_bit():
    cfg = ModeConfig("cbc", mode_iv=99)
    msg = bytes(range(32))
    ct = bytearray(mode_encrypt(cfg, RK, msg))
    ct[2] ^= 0x10  # block 0, bit 21
    pt = mode_decrypt(cfg, RK, bytes(ct))
    assert pt[8:16] == bytes(a ^ b for a, b in zip(msg[8:16], b"\x00\x00\x10\x00\x00\x00\x00\x00"))
    assert pt[:8] != msg[:8]
    assert pt[16:] == msg[16:]


def test_ofb_bit_flip_flips_same_plaintext_bit():
    cfg = ModeConfig("ofb", mode_iv=7)
    msg = bytes(range(24))
    ct = bytearray(mode_encrypt(cfg, RK, msg))
    ct[13] ^= 0x02
    pt = mode_decrypt(cfg, RK, bytes(ct))
    expected = bytearray(msg)
    expected[13] ^= 0x02
    assert pt == bytes(expected)


def test_keystream_deterministic_and_distinct_across_keys():
    rng = np.random.default_rng(31)
    streams = set()
    for _ in range(64):
        key = MasterKey(tuple(int(v) for v in rng.integers(0, 16, 32)))
        rk = expand_key(key)
        cfg = ModeConfig("ofb", mode_iv=1)
        first = keystream(cfg, rk, 128)
        again = keystream(cfg, rk, 128)
        assert np.array_equal(first, again)
        streams.add(np.packbits(first).tobytes())
    assert len(streams) == 64


@pytest.mark.parametrize("mode", ["cbc", "cfb", "ofb", "ctr"])
def test_cipher_stream_matches_mode_encrypt(mode):
    cfg = ModeConfig(mode, mode_iv=3, nonce=9, padding="none")
    nbits = 1024
    got = cipher_stream(cfg, RK, 0xFF, nbits)
    ct = mode_encrypt(cfg, RK, b"\xff" * (nbits // 8))
    assert np.array_equal(got, np.unpackbits(np.frombuffer(ct, np.uint8))[:nbits])


def test_chained_mode_streams_are_tied():
    iv, ones, nbits = 0x0123456789ABCDEF, (1 << 64) - 1, 1024

    def stream(mode, fill, mode_iv=iv):
        return cipher_stream(ModeConfig(mode, mode_iv=mode_iv), RK, fill, nbits)

    zeros = stream("cbc", 0x00)
    assert np.array_equal(stream("cfb", 0x00), zeros)
    assert np.array_equal(stream("ofb", 0x00), zeros)
    assert np.array_equal(stream("ofb", 0xFF), 1 - zeros)
    assert np.array_equal(stream("cfb", 0xFF), 1 - stream("cbc", 0xFF, iv ^ ones))


def test_keystream_truncates_to_nbits():
    cfg = ModeConfig("ctr", nonce=1)
    assert keystream(cfg, RK, 10).size == 10


def test_keystream_rejects_nonpositive():
    cfg = ModeConfig("ofb")
    with pytest.raises(ValueError):
        keystream(cfg, RK, 0)


def test_ctr_counter_space_limit():
    cfg = ModeConfig("ctr")
    from inru.modes import _ctr_keystream_bytes

    with pytest.raises(ValueError, match="2\\^32"):
        _ctr_keystream_bytes(cfg, RK, (1 << 32) + 1)
