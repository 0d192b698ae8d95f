import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inru.modes

import straightline as ora
from inru.cipher import Block, MasterKey, encrypt_block, expand_key
from inru.modes import (
    ModeConfig,
    ModeStream,
    PaddingError,
    _ctr_keystream_bytes,
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
    ctr = ModeConfig("ctr", nonce=0x0A0B0C0D)
    assert np.array_equal(cipher_stream(ctr, RK, 0xFF, nbits), 1 - cipher_stream(ctr, RK, 0x00, nbits))


def test_keystream_truncates_to_nbits():
    cfg = ModeConfig("ctr", nonce=1)
    assert keystream(cfg, RK, 10).size == 10


def test_keystream_rejects_nonpositive():
    cfg = ModeConfig("ofb")
    with pytest.raises(ValueError):
        keystream(cfg, RK, 0)


def test_ctr_counter_space_limit():
    cfg = ModeConfig("ctr")

    with pytest.raises(ValueError, match="2\\^32"):
        _ctr_keystream_bytes(cfg, RK, (1 << 32) + 1)


def _pieces(data: bytes, sizes: list[int]) -> list[bytes]:
    """``data`` cut into pieces of ``sizes`` (empty once it runs out), then the rest."""
    cuts = np.cumsum([0, *sizes]).clip(max=len(data)).tolist() + [len(data)]
    return [data[a:b] for a, b in zip(cuts, cuts[1:])]


def _streamed(stream: ModeStream, pieces: list[bytes], holds_last: bool) -> bytes:
    out, fed = b"", 0
    for piece in pieces:
        out += stream.update(piece)
        fed += len(piece)
        # What waits is a partial block, or CBC decryption's last block.
        assert fed - len(out) < 8 or (holds_last and fed - len(out) == 8)
    return out + stream.finalize()


# Piece sizes from 0 to 17 bytes: empty and 1-byte updates, cuts inside a
# block and updates longer than a block.
_SPLITS = st.lists(st.integers(0, 17), max_size=12)
_CONFIGS = [("cbc", "pkcs7"), ("cbc", "none"), ("cfb", "pkcs7"), ("ofb", "pkcs7"), ("ctr", "pkcs7")]


@pytest.mark.parametrize("mode, padding", _CONFIGS)
@settings(max_examples=40, deadline=None)
@given(msg=st.binary(max_size=70), sizes=_SPLITS)
def test_streamed_pieces_equal_the_one_shot_result(mode, padding, msg, sizes):
    if padding == "none":
        msg = msg[: len(msg) // 8 * 8]
    cfg = ModeConfig(mode, mode_iv=0x0123456789ABCDEF, nonce=0xDEADBEEF, padding=padding)
    ct = mode_encrypt(cfg, RK, msg)
    assert _streamed(ModeStream(cfg, RK), _pieces(msg, sizes), False) == ct
    holds_last = mode == "cbc" and padding == "pkcs7"
    assert _streamed(ModeStream(cfg, RK, decrypt=True), _pieces(ct, sizes), holds_last) == msg


@pytest.mark.parametrize("data, padding, message", [
    (b"", "pkcs7", "ciphertext is empty; PKCS#7 needs at least one block"),
    (bytes(13), "pkcs7", "CBC ciphertext length not a multiple of 8"),
    (bytes(13), "none", "CBC ciphertext length not a multiple of 8"),
])
def test_cbc_decryption_checks_length_and_padding_at_finalize(data, padding, message):
    stream = ModeStream(ModeConfig("cbc", padding=padding), RK, decrypt=True)
    for byte in data:
        stream.update(bytes([byte]))
    with pytest.raises(PaddingError, match=re.escape(message)):
        stream.finalize()


def test_cbc_decryption_holds_back_its_last_block_until_finalize():
    cfg = ModeConfig("cbc", mode_iv=5)
    msg = bytes(range(20))
    ct = mode_encrypt(cfg, RK, msg)  # 24 bytes
    bad = ct[:-1] + bytes([ct[-1] ^ 1])  # the padding no longer checks
    stream = ModeStream(cfg, RK, decrypt=True)
    assert stream.update(bad) == msg[:16]
    with pytest.raises(PaddingError, match="bad padding bytes"):
        stream.finalize()


def test_stream_is_single_use():
    stream = ModeStream(ModeConfig("ctr"), RK)
    stream.finalize()
    with pytest.raises(ValueError, match="after finalize"):
        stream.update(b"x")
    with pytest.raises(ValueError, match="twice"):
        stream.finalize()


def test_ctr_keystream_continues_from_a_start_counter():
    cfg = ModeConfig("ctr", nonce=0xCAFEBABE)
    whole = _ctr_keystream_bytes(cfg, RK, 5)
    assert _ctr_keystream_bytes(cfg, RK, 3, start=2) == whole[16:]
    top = (1 << 32) - 1  # the last counter value fits the 32-bit field
    block = Block.from_int(0xCAFEBABE << 32 | top)
    assert _ctr_keystream_bytes(cfg, RK, 1, start=top) == encrypt_block(block, RK).to_bytes()
    with pytest.raises(ValueError, match="CTR stream of 4294967297 blocks exceeds the 2\\^32"):
        _ctr_keystream_bytes(cfg, RK, 2, start=top)


def test_ctr_counter_exhaustion_mid_stream_raises_before_output(monkeypatch):
    # A 20-block counter space stands in for 2^32 blocks.
    monkeypatch.setattr(inru.modes, "_CTR_LIMIT", 20)
    stream = ModeStream(ModeConfig("ctr"), RK)
    assert len(stream.update(bytes(8 * 16 + 3))) == 8 * 16
    with pytest.raises(ValueError, match="CTR stream of 21 blocks exceeds the 2\\^32"):
        stream.update(bytes(8 * 5))
    stream = ModeStream(ModeConfig("ctr"), RK)
    assert len(stream.update(bytes(8 * 20 + 1))) == 8 * 20
    with pytest.raises(ValueError, match="CTR stream of 21 blocks"):
        stream.finalize()  # the partial block would need a 21st counter
