"""Modes of operation over arbitrary-length byte messages: CBC, CFB, OFB, CTR.

These are the standard constructions with full 64-bit feedback.  CBC is the
only mode that needs padding (PKCS#7 over 8-byte blocks; with padding
"none" the message length must be a multiple of 8).  CFB, OFB and CTR are
stream-like and preserve message length.

The CTR counter block is nonce (bits 0..31) followed by a 32-bit big-endian
block counter starting at 0 (bits 32..63).

:class:`ModeStream` is the one implementation of every mode: it takes a
message in pieces of any size and keeps one block of mode state (chaining
value, OFB feedback, counter position) between them, so its memory follows the
size of a piece, not of the message.  :func:`mode_encrypt` and
:func:`mode_decrypt` are one-shot views over it.  Distinct streams are
independent and may run concurrently.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .batch import BatchCipher
# encrypt_block is re-exported: ``inru.modes.encrypt_block`` stays importable.
from .cipher import RoundKeys, encrypt_block  # noqa: F401
from .nist_tests import BitSequence

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


def pkcs7_pad(data: bytes) -> bytes:
    n = BLOCK_BYTES - len(data) % BLOCK_BYTES
    return data + bytes([n]) * n


def pkcs7_unpad(data: bytes) -> bytes:
    if not data:
        raise PaddingError("ciphertext is empty; PKCS#7 needs at least one block")
    if len(data) % BLOCK_BYTES:
        raise PaddingError("ciphertext length not a whole number of blocks")
    n = data[-1]
    if not 1 <= n <= BLOCK_BYTES or data[-n:] != bytes([n]) * n:
        raise PaddingError("bad padding bytes")
    return data[:-n]


def _xor_bytes(data: bytes, stream: bytes) -> bytes:
    """``data`` xored with the first ``len(data)`` bytes of ``stream``."""
    a = np.frombuffer(data, dtype=np.uint8)
    return (a ^ np.frombuffer(stream, dtype=np.uint8, count=a.size)).tobytes()


def _ctr_keystream_bytes(cfg: ModeConfig, rk: RoundKeys, nblocks: int, start: int = 0) -> bytes:
    """The encrypted counter blocks ``start`` .. ``start + nblocks - 1``."""
    if start + nblocks > _CTR_LIMIT:
        raise ValueError(f"CTR stream of {start + nblocks} blocks exceeds the 2^32 counter space")
    counters = np.empty((nblocks, 2), dtype=">u4")
    counters[:, 0] = cfg.nonce
    counters[:, 1] = np.arange(start, start + nblocks, dtype=np.uint64)
    return BatchCipher().encrypt_bytes(counters.view(np.uint8), rk.key_bytes).tobytes()


class ModeStream:
    """One message encrypted or decrypted under a mode, fed in pieces.

    :meth:`update` returns the output of every block it can finish now and
    :meth:`finalize` the rest; their concatenation does not depend on how
    the message was split.  A partial block waits for the next update or
    for finalize, and so does CBC decryption's last block under PKCS#7,
    whose padding is checked only at finalize.  The stream carries one
    block of state between updates (NIST SP 800-38A): the chaining value,
    the OFB feedback or the CTR block counter.

    Every mode and direction runs on one of two steps, each taking whole
    blocks, or at finalize the partial block of a stream mode:

    - the chained step, for CBC, CFB and OFB encryption and for OFB
      decryption, is one recurrence on the scalar walk bound once per
      stream.  With chain x_(-1) the mode IV, block i computes
      e_i = E(x_(i-1) ^ a_i) and x_i = e_i ^ b_i, where a_i is P_i under
      CBC and 0 otherwise, and b_i is P_i under CFB and 0 otherwise.  The
      output is e_i under CBC and e_i ^ P_i (the keystream applied to the
      data) under CFB and OFB.  A partial tail is zero-padded and its
      output truncated.
    - the batch step, for CTR and for CBC and CFB decryption, has no
      chaining, so each update is one batch-engine call and one xor: CTR
      xors the data with the encrypted counters, CFB decryption computes
      P_i = C_i ^ E(C_(i-1)) and CBC decryption P_i = D(C_i) ^ C_(i-1),
      with C_(-1) the mode IV and the chain the last ciphertext block.
    """

    def __init__(self, cfg: ModeConfig, rk: RoundKeys, decrypt: bool = False):
        self.cfg, self.rk, self.decrypt = cfg, rk, decrypt
        self._chain = 0 if cfg.mode == "ctr" else cfg.mode_iv
        self._pending = b""
        self._finished = False
        self._holds_last = decrypt and cfg.mode == "cbc" and cfg.padding == "pkcs7"
        if cfg.mode == "ctr" or (decrypt and cfg.mode != "ofb"):
            self._step = self._batch
        else:
            self._encrypt = BatchCipher().int_encryptor(rk.key_bytes)
            self._step = self._chained

    def update(self, data: bytes) -> bytes:
        if self._finished:
            raise ValueError("update after finalize")
        buf = self._pending + data
        cut = len(buf) - len(buf) % BLOCK_BYTES
        if self._holds_last and cut == len(buf):
            cut = max(cut - BLOCK_BYTES, 0)
        self._pending = buf[cut:]
        return self._step(buf[:cut]) if cut else b""

    def finalize(self) -> bytes:
        if self._finished:
            raise ValueError("finalize called twice")
        self._finished = True
        tail = self._pending
        if self.cfg.mode == "cbc" and self.decrypt and len(tail) % BLOCK_BYTES:
            raise PaddingError("CBC ciphertext length not a multiple of 8")
        if self.cfg.mode == "cbc" and not self.decrypt:
            if self.cfg.padding == "pkcs7":
                tail = pkcs7_pad(tail)
            elif tail:
                raise ValueError("CBC without padding needs a multiple of 8 bytes")
        out = self._step(tail) if tail else b""
        return pkcs7_unpad(out) if self._holds_last else out

    def _chained(self, data: bytes) -> bytes:
        mode = self.cfg.mode
        nblocks = (len(data) + 7) // BLOCK_BYTES
        words = np.frombuffer(data.ljust(nblocks * BLOCK_BYTES, b"\0"), dtype=">u8")
        encrypt, chain = self._encrypt, self._chain
        enc = array("Q")  # the e_i as machine words, not one int object each
        # The masks a_i and b_i: two iterators, as zip draws one value from
        # each per block, freed with the loop.
        for a, b in zip(words.tolist() if mode == "cbc" else repeat(0, nblocks),
                        words.tolist() if mode == "cfb" else repeat(0, nblocks)):
            e = encrypt(chain ^ a)
            enc.append(e)
            chain = e ^ b
        self._chain = chain
        out = np.frombuffer(enc, dtype=np.uint64).astype(">u8")
        if mode != "cbc":
            out ^= words
        return out.tobytes()[: len(data)]

    def _batch(self, data: bytes) -> bytes:
        nblocks = (len(data) + 7) // BLOCK_BYTES
        if self.cfg.mode == "ctr":
            stream = _ctr_keystream_bytes(self.cfg, self.rk, nblocks, self._chain)
            self._chain += nblocks
            return _xor_bytes(data, stream)
        prev = self._chain.to_bytes(BLOCK_BYTES, "big") + data
        self._chain = int.from_bytes(prev[-BLOCK_BYTES:], "big")
        if self.cfg.mode == "cfb":
            blocks = np.frombuffer(prev, dtype=np.uint8, count=nblocks * BLOCK_BYTES)
            stream = BatchCipher().encrypt_bytes(blocks.reshape(nblocks, BLOCK_BYTES), self.rk.key_bytes)
            return _xor_bytes(data, stream.tobytes())
        blocks = np.frombuffer(data, dtype=np.uint8).reshape(nblocks, BLOCK_BYTES)
        plain = BatchCipher().decrypt_bytes(blocks, self.rk.key_bytes)
        return _xor_bytes(plain.tobytes(), prev)


def mode_encrypt(cfg: ModeConfig, rk: RoundKeys, msg: bytes) -> bytes:
    """Encrypt a byte message under the configured mode: one :class:`ModeStream`."""
    stream = ModeStream(cfg, rk)
    return stream.update(msg) + stream.finalize()


def mode_decrypt(cfg: ModeConfig, rk: RoundKeys, ct: bytes) -> bytes:
    """Invert :func:`mode_encrypt`, validating CBC padding: one decrypting :class:`ModeStream`."""
    stream = ModeStream(cfg, rk, decrypt=True)
    return stream.update(ct) + stream.finalize()


def cipher_stream(cfg: ModeConfig, rk: RoundKeys, fill: int, nbits: int) -> BitSequence:
    """First ``nbits`` bits of the ciphertext of a constant ``fill``-byte message, packed.

    This is the sequence-forming convention for the statistical battery:
    the randomness of a mode is judged on what it outputs for the constant
    all-zeros (or all-ones) plaintext stream.  The message is whole
    blocks, so a CBC PKCS#7 padding block follows it and is cut off.  The
    sequence keeps the ciphertext's first ``ceil(nbits / 8)`` bytes as
    they are, msb first, with the bits past ``nbits`` cleared: 128 KiB
    for the battery's 2^20 bits, which the tests read without unpacking.

    Under one key, with E the block encryption and ~ the all-ones
    complement, the chained modes' streams are tied to each other:

    - zero fill: CBC, CFB and OFB from the same IV all output the orbit
      E(IV), E(E(IV)), ..., so their streams are equal;
    - OFB with ones fill is the complement of OFB with zero fill;
    - CFB with ones fill from IV is the complement of CBC with ones fill
      from ~IV: their first blocks are ~E(IV) and E(IV), and their next
      blocks ~E(C) and E(~D) keep C = ~D.

    CTR is tied the same way: under one key and nonce, CTR with ones fill
    is the complement of CTR with zero fill, as both xor the fill with one
    keystream.
    """
    if nbits <= 0:
        raise ValueError("nbits must be positive")
    nbytes = (nbits + 7) // 8
    msg = bytes([fill]) * (((nbytes + 7) // 8) * 8)
    return BitSequence(mode_encrypt(cfg, rk, msg)[:nbytes], nbits)
