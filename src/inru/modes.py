"""Modes of operation over arbitrary-length byte messages: CBC, CFB, OFB, CTR.

These are the standard constructions with full 64-bit feedback.  CBC is the
only mode that needs padding (PKCS#7 with 8-byte blocks by default; with
padding "none" the message length must be a multiple of 8).  CFB, OFB and
CTR are stream-like and preserve message length.

The CTR counter block is nonce (bits 0..31) followed by a 32-bit big-endian
block counter starting at 0 (bits 32..63).

Mode state (chaining value, counter position) lives on the stack of one
call; distinct streams are independent and may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import BatchCipher
# encrypt_block is re-exported: ``inru.modes.encrypt_block`` stays importable.
from .cipher import RoundKeys, encrypt_block, int_encryptor  # noqa: F401

MODES = ("cbc", "cfb", "ofb", "ctr")
BLOCK_BYTES = 8
_CTR_LIMIT = 1 << 32


class PaddingError(ValueError):
    """Malformed or missing PKCS#7 padding."""


@dataclass(frozen=True)
class ModeConfig:
    """Mode selection plus its IV material.

    ``mode_iv`` seeds the CBC/CFB/OFB chain (a 64-bit value); ``nonce`` is
    the 32-bit CTR nonce.  ``padding`` applies to CBC only.
    """

    mode: str
    mode_iv: int = 0
    nonce: int = 0
    padding: str = "pkcs7"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0 <= self.mode_iv < 1 << 64:
            raise ValueError("mode_iv outside 64 bits")
        if not 0 <= self.nonce < 1 << 32:
            raise ValueError("nonce outside 32 bits")
        if self.padding not in ("pkcs7", "none"):
            raise ValueError(f"padding must be 'pkcs7' or 'none', got {self.padding!r}")


def pkcs7_pad(data: bytes, block: int = BLOCK_BYTES) -> bytes:
    n = block - len(data) % block
    return data + bytes([n]) * n


def pkcs7_unpad(data: bytes, block: int = BLOCK_BYTES) -> bytes:
    if not data:
        raise PaddingError("ciphertext is empty; PKCS#7 needs at least one block")
    if len(data) % block:
        raise PaddingError("ciphertext length not a whole number of blocks")
    n = data[-1]
    if not 1 <= n <= block or data[-n:] != bytes([n]) * n:
        raise PaddingError("bad padding bytes")
    return data[:-n]


# Block values travel as 64-bit big-endian integers (``Block.to_int``) in
# the sequential modes, and in the batch engine as (n, 8) byte arrays.


def _block_ints(data: bytes) -> list[int]:
    """The whole 8-byte blocks of ``data`` as integers."""
    return np.frombuffer(data, dtype=">u8", count=len(data) // BLOCK_BYTES).tolist()


def _ints_to_bytes(values: list[int]) -> bytes:
    return np.array(values, dtype=">u8").tobytes()


def _xor_bytes(data: bytes, stream: bytes) -> bytes:
    """``data`` xored with the first ``len(data)`` bytes of ``stream``."""
    a = np.frombuffer(data, dtype=np.uint8)
    return (a ^ np.frombuffer(stream, dtype=np.uint8, count=a.size)).tobytes()


def _ctr_keystream_bytes(cfg: ModeConfig, rk: RoundKeys, nblocks: int) -> bytes:
    if nblocks > _CTR_LIMIT:
        raise ValueError(f"CTR stream of {nblocks} blocks exceeds the 2^32 counter space")
    counters = np.empty((nblocks, 2), dtype=">u4")
    counters[:, 0] = cfg.nonce
    counters[:, 1] = np.arange(nblocks, dtype=np.uint32)
    return BatchCipher().encrypt_bytes(counters.view(np.uint8), rk.key_bytes).tobytes()


def mode_encrypt(cfg: ModeConfig, rk: RoundKeys, msg: bytes) -> bytes:
    """Encrypt a byte message under the configured mode.

    The chained modes bind the scalar walk once per message; CTR runs on
    the batch engine and binds none.
    """
    if cfg.mode == "cbc":
        if cfg.padding == "pkcs7":
            msg = pkcs7_pad(msg)
        elif len(msg) % BLOCK_BYTES:
            raise ValueError("CBC without padding needs a multiple of 8 bytes")
        encrypt = int_encryptor(rk)
        chain = cfg.mode_iv
        out = []
        for p in _block_ints(msg):
            chain = encrypt(p ^ chain)
            out.append(chain)
        return _ints_to_bytes(out)

    if cfg.mode == "cfb":
        encrypt = int_encryptor(rk)
        chain = cfg.mode_iv
        out = []
        for p in _block_ints(msg):
            chain = p ^ encrypt(chain)
            out.append(chain)
        tail = msg[len(out) * BLOCK_BYTES :]
        if tail:
            tail = _xor_bytes(tail, encrypt(chain).to_bytes(BLOCK_BYTES, "big"))
        return _ints_to_bytes(out) + tail

    nblocks = (len(msg) + 7) // BLOCK_BYTES
    if cfg.mode == "ofb":
        encrypt = int_encryptor(rk)
        feedback = cfg.mode_iv
        ks = []
        for _ in range(nblocks):
            feedback = encrypt(feedback)
            ks.append(feedback)
        return _xor_bytes(msg, _ints_to_bytes(ks))

    # ctr
    return _xor_bytes(msg, _ctr_keystream_bytes(cfg, rk, nblocks))


def mode_decrypt(cfg: ModeConfig, rk: RoundKeys, ct: bytes) -> bytes:
    """Invert mode_encrypt, validating CBC padding.

    CBC and CFB decryption need no chaining (NIST SP 800-38A), so both run
    on the batch engine: CBC as P_i = D(C_i) ^ C_(i-1), CFB as
    P_i = C_i ^ E(C_(i-1)), with C_(-1) the mode IV.
    """
    iv = cfg.mode_iv.to_bytes(BLOCK_BYTES, "big")
    if cfg.mode == "cbc":
        if len(ct) % BLOCK_BYTES:
            raise PaddingError("CBC ciphertext length not a multiple of 8")
        blocks = np.frombuffer(ct, dtype=np.uint8).reshape(-1, BLOCK_BYTES)
        plain = BatchCipher().decrypt_bytes(blocks, rk.key_bytes)
        out = _xor_bytes(plain.tobytes(), iv + ct)
        if cfg.padding == "pkcs7":
            return pkcs7_unpad(out)
        return out

    if cfg.mode == "cfb":
        nblocks = (len(ct) + 7) // BLOCK_BYTES
        prev = np.frombuffer(iv + ct, dtype=np.uint8, count=nblocks * BLOCK_BYTES)
        stream = BatchCipher().encrypt_bytes(prev.reshape(nblocks, BLOCK_BYTES), rk.key_bytes)
        return _xor_bytes(ct, stream.tobytes())

    # OFB and CTR are their own inverses.
    return mode_encrypt(cfg, rk, ct)


def cipher_stream(cfg: ModeConfig, rk: RoundKeys, fill: int, nbits: int) -> np.ndarray:
    """First ``nbits`` bits of the ciphertext of a constant ``fill``-byte message.

    This is the sequence-forming convention for the statistical battery:
    the randomness of a mode is judged on what it outputs for the constant
    all-zeros (or all-ones) plaintext stream.

    Under one key, with E the block encryption and ~ the all-ones
    complement, the chained modes' streams are tied to each other:

    - zero fill: CBC, CFB and OFB from the same IV all output the orbit
      E(IV), E(E(IV)), ..., so their streams are equal;
    - OFB with ones fill is the complement of OFB with zero fill;
    - CFB with ones fill from IV is the complement of CBC with ones fill
      from ~IV: their first blocks are ~E(IV) and E(IV), and their next
      blocks ~E(C) and E(~D) keep C = ~D.
    """
    if nbits <= 0:
        raise ValueError("nbits must be positive")
    nbytes = (nbits + 7) // 8
    msg = bytes([fill]) * (((nbytes + 7) // 8) * 8)
    cbc = cfg.padding != "none" and cfg.mode == "cbc"
    if cbc:
        cfg = ModeConfig(cfg.mode, cfg.mode_iv, cfg.nonce, "none")
    ct = mode_encrypt(cfg, rk, msg)
    bits = np.unpackbits(np.frombuffer(ct, dtype=np.uint8))
    return bits[:nbits]


def keystream(cfg: ModeConfig, rk: RoundKeys, nbits: int) -> np.ndarray:
    """Deterministic bit sequence of length ``nbits`` for the battery.

    For OFB and CTR this is the raw keystream; for CBC and CFB it is the
    ciphertext of the all-zero message, which coincides with the keystream
    convention (xor with zeros is the identity).
    """
    return cipher_stream(cfg, rk, 0x00, nbits)
