"""Vectorized cipher engine: key schedule, encryption, decryption, diffusion.

The cipher's algorithms run here batched across independent inputs.
Working arrays are kept transposed (position, batch) so each row step
touches contiguous memory; a quasigroup chain is sequential along the
positions, so vectorization runs across the batch axis only.

Encryption and the key schedule run on byte rows.  A chain is a 16-state
transducer, so one lookup in a byte-wide table per byte row advances it by
two nibbles, the table-driven technique of Sarwate ("Computation of
cyclic redundancy checks via table look-up", CACM 1988).  Each row step
is at most one mask, one ``|`` and one ``take``.
:meth:`BatchCipher.encrypt_bytes` takes and returns byte blocks, and
:meth:`BatchCipher.encrypt` is its nibble view.  :func:`tables` builds
the tables once per quasigroup:

* three round tables that fuse a round's chain with its diffusion scan;
  the scalar engine :func:`inru.cipher.int_encryptor` walks linked rows
  derived from them, so both engines get the round from one definition;
* a left and a right chain table for the key schedule.

Decryption and the diffusion primitives run on nibble rows: the
diffusion layers are shift-xors on the whole state plus one 15-step row
scan.

This engine is the library's only implementation of decryption, of the
diffusion layers and of the round trace: :mod:`inru.cipher` runs them as
one-block views over it.  :mod:`inru.cipher` keeps a scalar encryption
loop over the same round tables and a scalar key schedule for the
sequential modes.  The test suite pins both engines to the independent
transcription in ``tests/straightline.py``.  Per-round intermediates for
the analyses come from :meth:`BatchCipher.trace_rounds`, a nibble view of
the engine's only encryption round loop.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .quasigroup import INRU, LEFT, RIGHT, Quasigroup

NUM_ROUNDS = 16


class Tables(NamedTuple):
    """The lookup tables of one quasigroup (see :func:`tables`)."""

    odd: np.ndarray  # uint16[8192], odd rounds
    even: np.ndarray  # uint16[8192], even rounds 2..14
    last: np.ndarray  # uint16[8192], the literal round 16
    left: np.ndarray  # uint16[65536], e_left over one byte
    right: np.ndarray  # uint16[65536], e_right over one byte
    ldiv: np.ndarray  # uint8[256], left division for decryption


def _prefix_xors(z):
    """Bit k of the result is z0 ^ ... ^ zk over z's 8 bits, msb first."""
    p = z ^ (z >> 1)
    p ^= p >> 2
    return p ^ (p >> 4)


def _suffix_xors(z):
    """Bit k of the result is zk ^ ... ^ z7 over z's 8 bits, msb first."""
    s = z ^ (z << 1)
    s ^= s << 2
    return (s ^ (s << 4)) & 255


@lru_cache(maxsize=8)
def tables(q: Quasigroup) -> Tables:
    """The byte tables of both engines for the order-16 quasigroup q.

    The chain tables give the chain's output byte for an input byte and
    ``prev``, the chain's previous output byte (or, for the first byte, the
    leader in the half the chain reads).  e_left reads prev's low nibble
    and consumes the byte high nibble first; e_right reads prev's high
    nibble and consumes the byte low nibble first.  The two tables keep
    their bytes in opposite halves of a 16-bit word: ``left`` maps
    ``prev << 8 | byte`` to ``output << 8``, and ``right`` maps
    ``byte << 8 | prev`` to ``output``.  The key schedule alternates the
    two, so each of its index words is one ``|`` of two stored words.

    The round tables fuse the chain with the round's diffusion scan.  With
    z the round's chain output and P = z0 ^ ... ^ z63 its parity, the two
    diffusion layers satisfy the scan identity

        suffix xor (odd rounds):   u_j = P ^ z0 ^ ... ^ z(j-1)
        prefix xor (even rounds):  u_j = 1 ^ P ^ z(j+1) ^ ... ^ z63

    so both scans run in the direction of their round's chain.  A walk
    carries the state s = chain nibble << 1 | parity of the bits already
    passed; entry ``s << 8 | byte`` holds ``s' << 8 | output byte``.  The
    unknown P enters every bit alike, so it is applied at the end of the
    walk as one all-ones complement when the final parity is 1.  The
    round-16 table outputs the right chain itself and keeps parity 0.
    """
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

    built = Tables(
        odd.astype(np.uint16),
        even.astype(np.uint16),
        last.astype(np.uint16),
        (left << 8).astype(np.uint16),
        right.astype(np.uint16),
        np.array(q.ldiv_table, dtype=np.uint8).reshape(256),
    )
    for table in built:  # shared by every engine over q
        table.flags.writeable = False
    return built


def _byte_rows(w):
    """(2m, ...) nibble rows -> (m, ...) byte rows, the even row in the high half."""
    return w[0::2] << 4 | w[1::2]


def _nibble_rows(b):
    """(m, n) byte rows -> fresh (2m, n) nibble rows, the high half first."""
    return np.stack([b >> 4, b & 15], axis=1).reshape(2 * b.shape[0], b.shape[1])


class BatchCipher:
    """Batched key schedule, encryption and decryption over one quasigroup."""

    def __init__(self, q: Quasigroup = INRU):
        if q.order != 16:
            raise ValueError("batch engine expects an order-16 quasigroup")
        self.tables = tables(q)

    # -- chained string transformations --------------------------------------

    def _chain_passes(self, leaders, w):
        """Alternating e_left/e_right passes over uint16 byte rows ``w``, in place.

        ``leaders`` holds one row of nibbles per pass, e_left first, and
        their count is even.  e_left passes leave their bytes in the high
        half of ``w`` and e_right passes in the low half, so a row step
        indexes its table with the row (the previous pass's byte) ``|`` the
        pass's previous byte, one in each half; ``w`` holds plain bytes
        before and after.
        """
        left, right = self.tables.left, self.tables.right
        idx = np.empty(w.shape[1], dtype=np.uint16)
        for i, leader in enumerate(leaders):
            if i & 1:
                table, rows, prev = right, w[::-1], leader << 4
            else:
                table, rows, prev = left, w, leader.astype(np.uint16) << 8
            for row in rows:
                np.bitwise_or(row, prev, out=idx)
                table.take(idx, out=row)
                prev = row

    def _unchain(self, leaders, w, direction):
        """d_left or d_right of every column of ``w``, in place."""
        n = w.shape[0]
        order = range(n) if direction == LEFT else range(n - 1, -1, -1)
        prev = np.broadcast_to(np.asarray(leaders, dtype=np.uint8), w.shape[1:])
        for t in order:
            cur = w[t].copy()
            w[t] = np.take(self.tables.ldiv, (prev << 4) | cur)
            prev = cur

    # -- diffusion, state shape (16, n) -------------------------------------

    # Diffusion is an xor scan over the 64 state bits (v0 the msb of
    # nibble 0).  Inside each nibble it is two shift-xors over the whole
    # array; the parity carried in from the other nibbles and the leader
    # bit (1 from the left, 0 from the right) is a 15-step row scan whose
    # result flips all four bits of a nibble.

    @staticmethod
    def _diffuse_left(w):
        y = w >> 1
        y ^= w
        y ^= y >> 2  # prefix xors; the low bit is the nibble's parity
        flip = np.empty_like(w)
        flip[0] = 1
        np.bitwise_and(y[:-1], 1, out=flip[1:])
        for t in range(1, 16):
            flip[t] ^= flip[t - 1]
        flip *= 15
        y ^= flip
        return y

    @staticmethod
    def _diffuse_right(w):
        y = w << 1
        y ^= w
        y ^= y << 2
        y &= 15  # suffix xors; the top bit is the nibble's parity
        flip = np.empty_like(w)
        flip[-1] = 0
        np.right_shift(y[1:], 3, out=flip[:-1])
        for t in range(14, -1, -1):
            flip[t] ^= flip[t + 1]
        flip *= 15
        y ^= flip
        return y

    @staticmethod
    def _undiffuse_left(w):
        prev_low = np.empty_like(w)
        prev_low[0] = 1
        prev_low[1:] = w[:-1] & 1
        return w ^ (prev_low << 3) ^ (w >> 1)

    @staticmethod
    def _undiffuse_right(w):
        next_top = np.empty_like(w)
        next_top[-1] = 0
        next_top[:-1] = w[1:] >> 3
        return w ^ ((w << 1) & np.uint8(15)) ^ next_top

    # -- key schedule --------------------------------------------------------

    def _mixed_state_columns(self, keys, ivs) -> np.ndarray:
        """Key mixing of (n, 32) keys and (n, 16) diversifiers, as (64, n) columns.

        The 64 passes take the seed string's nibbles s63, s62, ..., s0 as
        leaders, always from the unmodified seed.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint8)
        if keys.ndim != 2 or keys.shape[1] != 32:
            raise ValueError("keys must have shape (n, 32)")
        n = keys.shape[0]
        if ivs is None:
            ivs = np.zeros((n, 16), dtype=np.uint8)
        ivs = np.ascontiguousarray(ivs, dtype=np.uint8)
        tail = np.broadcast_to(np.arange(15, -1, -1, dtype=np.uint8), (n, 16))
        s = np.concatenate([keys, ivs, tail], axis=1).T.copy()  # (64, n)
        a = _byte_rows(s).astype(np.uint16)
        self._chain_passes(s[::-1], a)
        return _nibble_rows(a.astype(np.uint8))

    def expand_keys(self, keys: np.ndarray, ivs: np.ndarray | None = None) -> np.ndarray:
        """Run the key schedule for n keys at once.

        ``keys`` is (n, 32) nibbles, ``ivs`` (n, 16) or None for all-zero
        diversifiers; returns round keys of shape (n, 17, 16).
        """
        return self._round_keys_from_state_columns(self._mixed_state_columns(keys, ivs))

    def mix_keys(self, keys: np.ndarray, ivs: np.ndarray | None = None) -> np.ndarray:
        """Key mixing only, returning the (n, 64) mixed states."""
        return self._mixed_state_columns(keys, ivs).T.copy()

    def round_keys_from_states(self, states: np.ndarray) -> np.ndarray:
        """Round-key generation alone, from (n, 64) mixed-key states."""
        states = np.ascontiguousarray(states, dtype=np.uint8)
        if states.ndim != 2 or states.shape[1] != 64:
            raise ValueError("states must have shape (n, 64)")
        return self._round_keys_from_state_columns(states.T.copy())

    def _round_keys_from_state_columns(self, a: np.ndarray) -> np.ndarray:
        """Round keys from (64, n) mixed states.

        The working string is 0..15 34 times; round key i is the high
        nibbles of its bytes 16i..16i+15 (the even nibbles 32i..32i+30).
        """
        n = a.shape[1]
        l = _byte_rows(np.tile(np.arange(16, dtype=np.uint16), 34))
        l = np.repeat(l[:, None], n, axis=1)
        self._chain_passes(a, l)
        return (l.reshape(17, 16, n) >> 4).transpose(2, 0, 1).astype(np.uint8)

    # -- block encryption ----------------------------------------------------

    @staticmethod
    def _round_key(rks, i):
        """Round key i as (16, n)-broadcastable column plus its leader nibbles."""
        if rks.ndim == 2:  # one schedule shared by the whole batch
            rk = rks[i][:, None]
            return rk, rks[i][0], rks[i][15]
        rk = rks[:, i, :].T
        return rk, rk[0], rk[15]

    @staticmethod
    def _round_key_rows(rks):
        """(17, 16) or (n, 17, 16) round keys as (17, 8, 1) or (17, 8, n) byte rows."""
        rks = np.asarray(rks, dtype=np.uint8)
        kb = rks[..., 0::2] << 4 | rks[..., 1::2]
        if kb.ndim == 2:  # one schedule shared by the whole batch
            return kb[:, :, None]
        return np.ascontiguousarray(kb.transpose(1, 2, 0))

    def _rounds(self, state, kb, rounds):
        """The round loop on (8, n) byte rows, yielding (round, after_kxor, output).

        Each round walks its table over the byte rows in chain order and
        ends with the conditional complement.  ``state`` is only read;
        every yielded array is fresh and never modified later.
        """
        if not 1 <= rounds <= NUM_ROUNDS:
            raise ValueError(f"rounds must be in 1..{NUM_ROUNDS}")
        t = self.tables
        idx = np.empty(state.shape[1], dtype=np.uint16)
        for i in range(1, rounds + 1):
            k = kb[i - 1]
            x = state ^ k
            walk = np.empty(x.shape, dtype=np.uint16)
            if i & 1:  # leader: first nibble of the odd round's key
                table, rows, e = t.odd, range(8), (k[0] & 0xF0).astype(np.uint16) << 5
            else:  # leader: last nibble of the even round's key
                # Only the literal 16th round drops its diffusion step.
                table = t.even if i != 16 else t.last
                rows, e = range(7, -1, -1), (k[7] & 15).astype(np.uint16) << 9
            for j in rows:
                np.bitwise_and(e, 0x1F00, out=idx)
                idx |= x[j]
                e = walk[j]
                table.take(idx, out=e)
            state = walk.astype(np.uint8)
            state ^= ((e >> 8) & 1).astype(np.uint8) * np.uint8(255)
            yield i, x, state

    def trace_rounds(self, blocks: np.ndarray, rks: np.ndarray, rounds: int = NUM_ROUNDS):
        """Encrypt (n, 16) nibble blocks round by round, yielding the intermediates.

        Yields ``(round, after_kxor, after_sbox, after_diffusion)`` per round,
        each a fresh (16, n) array (position, block) that later rounds never
        modify; ``after_diffusion`` is None for the literal round 16.  The
        generator returns the state that the final whitening with round key
        ``rounds`` applies to, as :meth:`encrypt` does.  ``rks`` is (17, 16)
        or (n, 17, 16).
        """
        rows = _byte_rows(np.asarray(blocks, dtype=np.uint8).T)
        for i, x, out in self._rounds(rows, self._round_key_rows(rks), rounds):
            state = _nibble_rows(out)
            if i == 16:
                yield i, _nibble_rows(x), state, None
            else:
                undiffuse = self._undiffuse_right if i & 1 else self._undiffuse_left
                yield i, _nibble_rows(x), undiffuse(state), state
        return state

    def encrypt_bytes(self, blocks: np.ndarray, rks: np.ndarray, rounds: int = NUM_ROUNDS) -> np.ndarray:
        """Encrypt (n, 8) byte blocks (``Block.to_bytes``); ``rks`` is (17, 16) or (n, 17, 16).

        Returns the (n, 8) ciphertext bytes as a transposed view of fresh
        memory.
        """
        blocks = np.asarray(blocks, dtype=np.uint8)
        if blocks.ndim != 2 or blocks.shape[1] != 8:
            raise ValueError("blocks must have shape (n, 8)")
        kb = self._round_key_rows(rks)
        # Keep only the last round's arrays while draining the loop.
        rows = np.ascontiguousarray(blocks.T)
        _, _, state = deque(self._rounds(rows, kb, rounds), maxlen=1)[0]
        state ^= kb[rounds]
        return state.T

    def encrypt(self, blocks: np.ndarray, rks: np.ndarray, rounds: int = NUM_ROUNDS) -> np.ndarray:
        """Encrypt (n, 16) nibble blocks; ``rks`` is (17, 16) or (n, 17, 16)."""
        rows = _byte_rows(np.asarray(blocks, dtype=np.uint8).T)  # (8, n)
        out = self.encrypt_bytes(rows.T, rks, rounds)  # (n, 8)
        return _nibble_rows(out.T).T.copy()

    def decrypt(self, blocks: np.ndarray, rks: np.ndarray, rounds: int = NUM_ROUNDS) -> np.ndarray:
        if not 1 <= rounds <= NUM_ROUNDS:
            raise ValueError(f"rounds must be in 1..{NUM_ROUNDS}")
        blocks = np.asarray(blocks, dtype=np.uint8)
        rks = np.asarray(rks, dtype=np.uint8)
        w = blocks.T.copy()
        rk, _, _ = self._round_key(rks, rounds)
        w ^= rk
        for i in range(rounds, 0, -1):
            rk, first, last = self._round_key(rks, i - 1)
            if i & 1:
                if i != 16:
                    w = self._undiffuse_right(w)
                self._unchain(first, w, LEFT)
            else:
                if i != 16:
                    w = self._undiffuse_left(w)
                self._unchain(last, w, RIGHT)
            w ^= rk
        return w.T.copy()


def blocks_to_bits(blocks: np.ndarray) -> np.ndarray:
    """(n, 16) nibbles -> (n, 64) bits in string order (msb of nibble first)."""
    blocks = np.asarray(blocks, dtype=np.uint8)
    return np.unpackbits(blocks[:, 0::2] << 4 | blocks[:, 1::2], axis=1)


def bits_to_blocks(bits: np.ndarray) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint8).reshape(-1, 16, 4)
    weights = np.array([8, 4, 2, 1], dtype=np.uint8)
    return (bits * weights).sum(axis=2, dtype=np.uint8)
