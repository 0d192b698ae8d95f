"""Vectorized cipher engine: key schedule, encryption, decryption, diffusion.

The cipher's algorithms run here batched across independent inputs.  The
quasigroup chains are numpy gathers; their chain structure is inherently
sequential per position, so vectorization runs across the batch axis
only.  The diffusion layers are linear, so they run as shift-xors on the
whole state plus one 15-step row scan, with no table lookups.  Working
arrays are kept transposed (position, batch) so each row step touches
contiguous memory.

This engine is the library's only implementation of decryption, of the
diffusion layers and of the round trace: :mod:`inru.cipher` runs them as
one-block views over it, and keeps its own scalar encryption loop and key
schedule for the sequential modes.  The test suite pins both engines to
the independent transcription in ``tests/straightline.py``.  Per-round
intermediates for the analyses come from :meth:`BatchCipher.trace_rounds`,
the engine's only encryption round loop.
"""

from __future__ import annotations

import numpy as np

from .quasigroup import INRU, LEFT, RIGHT, Quasigroup

NUM_ROUNDS = 16

# Per-nibble scans of the xor-quasigroup diffusion layer (nibble bits
# counted most significant first), for the scalar engine's fused round
# tables: PREFIX_NIB[v] has bit k = v0^...^vk, SUFFIX_NIB[v] has bit
# k = vk^...^v3, PARITY_NIB[v] is the full parity.


def _build_scan_tables():
    prefix, suffix, parity = [], [], []
    for v in range(16):
        bits = [(v >> (3 - k)) & 1 for k in range(4)]
        p = [bits[0]]
        for k in range(1, 4):
            p.append(p[-1] ^ bits[k])
        s = [bits[3]]
        for k in range(2, -1, -1):
            s.append(s[-1] ^ bits[k])
        s.reverse()
        prefix.append(sum(b << (3 - k) for k, b in enumerate(p)))
        suffix.append(sum(b << (3 - k) for k, b in enumerate(s)))
        parity.append(p[-1])
    return tuple(prefix), tuple(suffix), tuple(parity)


PREFIX_NIB, SUFFIX_NIB, PARITY_NIB = _build_scan_tables()


def _drain(steps):
    """Run a generator to its end, keeping nothing it yields; return its value."""
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return done.value


class BatchCipher:
    """Batched key schedule, encryption and decryption over one quasigroup."""

    def __init__(self, q: Quasigroup = INRU):
        if q.order != 16:
            raise ValueError("batch engine expects an order-16 quasigroup")
        self.mul_flat = np.array(q.mul_table, dtype=np.uint8).reshape(256)
        self.ldiv_flat = np.array(q.ldiv_table, dtype=np.uint8).reshape(256)

    # -- chained string transformations, state shape (length, n) -----------

    def _chain(self, leaders, src, out, direction):
        """e_left or e_right of every column of ``src``, written to ``out``.

        ``out`` may be ``src`` itself; a fresh ``out`` leaves ``src`` intact.
        """
        n = src.shape[0]
        order = range(n) if direction == LEFT else range(n - 1, -1, -1)
        b = np.asarray(leaders, dtype=np.uint8)
        for t in order:
            row = out[t]
            np.take(self.mul_flat, (b << 4) | src[t], out=row)
            b = row

    def _unchain(self, leaders, w, direction):
        """d_left or d_right of every column of ``w``, in place."""
        n = w.shape[0]
        order = range(n) if direction == LEFT else range(n - 1, -1, -1)
        prev = np.broadcast_to(np.asarray(leaders, dtype=np.uint8), w.shape[1:])
        for t in order:
            cur = w[t].copy()
            w[t] = np.take(self.ldiv_flat, (prev << 4) | cur)
            prev = cur

    def _chain_passes(self, leaders, w):
        """Alternating e_left/e_right passes over ``w``, one per leader row."""
        for i, leader in enumerate(leaders):
            self._chain(leader, w, w, RIGHT if i & 1 else LEFT)

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
        a = s.copy()
        self._chain_passes(s[::-1], a)
        return a

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
        n = a.shape[1]
        l = np.tile(np.arange(16, dtype=np.uint8), 34)[:, None].repeat(n, axis=1)
        self._chain_passes(a, l)
        rows = (32 * np.arange(17)[:, None] + 2 * np.arange(16)[None, :]).reshape(-1)
        return l[rows].reshape(17, 16, n).transpose(2, 0, 1).copy()

    # -- block encryption ----------------------------------------------------

    @staticmethod
    def _round_key(rks, i):
        """Round key i as (16, n)-broadcastable column plus its leader nibbles."""
        if rks.ndim == 2:  # one schedule shared by the whole batch
            rk = rks[i][:, None]
            return rk, rks[i][0], rks[i][15]
        rk = rks[:, i, :].T
        return rk, rk[0], rk[15]

    def trace_rounds(self, blocks: np.ndarray, rks: np.ndarray, rounds: int = NUM_ROUNDS):
        """Encrypt (n, 16) nibble blocks round by round, yielding the intermediates.

        Yields ``(round, after_kxor, after_sbox, after_diffusion)`` per round,
        each a fresh (16, n) array (position, block) that later rounds never
        modify; ``after_diffusion`` is None for the literal round 16.  The
        generator returns the state that the final whitening with round key
        ``rounds`` applies to, as :meth:`encrypt` does.  ``rks`` is (17, 16)
        or (n, 17, 16).
        """
        if not 1 <= rounds <= NUM_ROUNDS:
            raise ValueError(f"rounds must be in 1..{NUM_ROUNDS}")
        rks = np.asarray(rks, dtype=np.uint8)
        state = np.asarray(blocks, dtype=np.uint8).T.copy()  # (16, n)
        for i in range(1, rounds + 1):
            rk, first, last = self._round_key(rks, i - 1)
            if i & 1:
                leader, direction, diffuse = first, LEFT, self._diffuse_right
            else:
                leader, direction, diffuse = last, RIGHT, self._diffuse_left
            # Rebinding every name before the next array is made keeps only
            # the arrays this round still needs alive.
            after_kxor = state ^ rk
            state = after_sbox = np.empty_like(after_kxor)
            self._chain(leader, after_kxor, after_sbox, direction)
            after_diffusion = None
            if i != 16:
                state = after_diffusion = diffuse(after_sbox)
            yield i, after_kxor, after_sbox, after_diffusion
        return state

    def encrypt(self, blocks: np.ndarray, rks: np.ndarray, rounds: int = NUM_ROUNDS) -> np.ndarray:
        """Encrypt (n, 16) nibble blocks; ``rks`` is (17, 16) or (n, 17, 16)."""
        rks = np.asarray(rks, dtype=np.uint8)
        w = _drain(self.trace_rounds(blocks, rks, rounds))
        rk, _, _ = self._round_key(rks, rounds)
        w ^= rk
        return w.T.copy()

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
    shifts = np.array([3, 2, 1, 0], dtype=np.uint8)
    return ((blocks[:, :, None] >> shifts) & 1).reshape(blocks.shape[0], 64)


def bits_to_blocks(bits: np.ndarray) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint8).reshape(-1, 16, 4)
    weights = np.array([8, 4, 2, 1], dtype=np.uint8)
    return (bits * weights).sum(axis=2, dtype=np.uint8)
