"""The cipher engine: key schedule, encryption, decryption, diffusion.

The cipher's algorithms run here batched across independent inputs.
Working arrays are kept transposed (position, batch) so each row step
touches contiguous memory; a quasigroup chain is sequential along the
positions, so vectorization runs across the batch axis only.

Every batched kernel runs on (8, n) byte rows under (17, 8) byte round keys.
A chain is a 16-state transducer, so one lookup in a byte-wide table
per byte row advances it by two nibbles, the table-driven technique of
Sarwate ("Computation of cyclic redundancy checks via table look-up",
CACM 1988).  Each row step is at most one mask, one ``|`` and one
``take``.  Blocks and round keys go in and come out as bytes; nibbles
enter only as the key schedule's keys and diversifiers, and leave only
as the intermediates of :meth:`BatchCipher.trace_rounds`, which the
analyses count per nibble.  The nibble views ``expand_keys``,
``encrypt`` and ``decrypt`` have no library caller; they stay while the
benchmark traces them.  Every entry point rejects a wrong shape with a
ValueError naming the shape it expects.
:meth:`BatchCipher.encrypt_bytes`, :meth:`BatchCipher.decrypt_bytes` and
the key schedule :meth:`BatchCipher.expand_key_bytes` run on column
slices of :data:`SLICE_BLOCKS` blocks or keys, so beyond their input and
output they hold one slice's temporaries whatever n is.
:func:`tables` builds the tables once per quasigroup:

* three round tables that fuse a round's chain with its diffusion scan;
* a left and a right chain table for the key schedule;
* a left and a right division table for decryption; a division chain
  reads only its input, so a round is one ``take`` over the whole state.

The diffusion layers are the byte scans of :func:`_prefix_xors` and
:func:`_suffix_xors`, which the round tables fuse; decryption inverts
them with ``_undiffuse_left`` and ``_undiffuse_right``.

This engine is the library's only implementation of the key schedule,
of encryption, of decryption, of the diffusion layers and of the round
trace: :mod:`inru.cipher` runs each as a one-key or one-block view over
it.  The key schedule and encryption each have two kernels over the
same tables: numpy row steps across a batch, and a plain walk for one
key or one block.  The key schedule picks its kernel by batch size.
Encryption walks the round tables as row steps in
:meth:`BatchCipher.encrypt_bytes` and :meth:`BatchCipher.trace_rounds`,
and as linked rows (:func:`_round_table_rows`) in
:meth:`BatchCipher.int_encryptor`, which the chained modes bind once
per stream.  Both read :func:`round_shape`, the round rule, through
:func:`_round_plan`, and decryption, the round trace, difference propagation
and the algebraic system read it directly; ``tests/straightline.py``
pins both kernels to an independent transcription.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .quasigroup import INRU, Quasigroup

NUM_ROUNDS = 16


def check_rounds(rounds: int) -> None:
    """Raise ValueError unless ``rounds`` is a round count of the cipher."""
    if not 1 <= rounds <= NUM_ROUNDS:
        raise ValueError(f"rounds must be in 1..{NUM_ROUNDS}")


#: Blocks (or keys) per column slice of :meth:`BatchCipher.encrypt_bytes`,
#: :meth:`BatchCipher.decrypt_bytes` and :meth:`BatchCipher.expand_key_bytes`,
#: which bounds their temporaries; the command line reads its input in
#: pieces of one slice.
SLICE_BLOCKS = 16_384


class Tables(NamedTuple):
    """The lookup tables of one quasigroup (see :func:`tables`)."""

    odd: np.ndarray  # uint16[8192], odd rounds
    even: np.ndarray  # uint16[8192], even rounds 2..14
    last: np.ndarray  # uint16[8192], the literal round 16
    left: np.ndarray  # uint16[65536], e_left over one byte
    right: np.ndarray  # uint16[65536], e_right over one byte
    dleft: np.ndarray  # uint8[65536], d_left over one byte
    dright: np.ndarray  # uint8[65536], d_right over one byte


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

    A division chain reads only its input, so in the division tables
    ``prev`` is the previous input byte (or the leader).  ``dleft`` maps
    ``prev << 8 | byte`` to d_left's output byte via prev's low nibble, and
    ``dright`` maps ``byte << 8 | prev`` to d_right's via prev's high
    nibble; either index word is two adjacent state rows, in order.

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

    Every table is built in its stored dtype on broadcast axes.  A chain
    reads one nibble of prev, so each chain and division table is 16
    copies of a (nibble, byte) block of 4096 entries, copied out once;
    the round tables read the chain blocks at nibble = chain.  Beyond
    the ~0.4 MiB of tables the build holds a few KiB, so no process or
    worker keeps freed scratch resident.
    """
    mul = np.array(q.mul_table, dtype=np.uint16)
    div = np.array(q.ldiv_table, dtype=np.uint8)
    nib = np.arange(16, dtype=np.uint16)[:, None]  # the nibble of prev a chain reads
    byte = np.arange(256, dtype=np.uint16)
    first = mul[nib, byte >> 4]
    e_left = first << 4 | mul[first, byte & 15]
    first = mul[nib, byte & 15]
    e_right = mul[first, byte >> 4] << 4 | first
    d_left = div[nib, byte >> 4] << 4 | div[byte >> 4, byte & 15]
    d_right = div[byte & 15, byte >> 4] << 4 | div[nib, byte & 15]

    s = np.arange(32, dtype=np.uint16)[:, None]
    chain, parity = s >> 1, s & 1
    flip = 255 * parity
    z = e_left[chain, byte]
    p = _prefix_xors(z)
    odd = ((z & 15) << 1 | parity ^ (p & 1)) << 8 | (p >> 1) ^ flip
    z = e_right[chain, byte]
    p = _suffix_xors(z)
    even = ((z >> 4) << 1 | parity ^ (p >> 7)) << 8 | ((p << 1) & 255) ^ 255 ^ flip
    last = (z >> 4) << 9 | z

    def by_low_nibble(block):  # [prev & 15, byte] -> entry prev << 8 | byte
        return np.tile(block, (16, 1)).ravel()

    def by_high_nibble(block):  # [prev >> 4, byte] -> entry byte << 8 | prev
        return np.repeat(block.T, 16, axis=1).ravel()

    built = Tables(
        odd.ravel(),
        even.ravel(),
        last.ravel(),
        by_low_nibble(e_left << 8),
        by_high_nibble(e_right),
        by_low_nibble(d_left),
        by_high_nibble(d_right),
    )
    for table in built:  # shared by every engine over q
        table.flags.writeable = False
    return built


def round_shape(i: int) -> tuple[bool, bool]:
    """Round i's ``(forward, diffused)``, the one statement of the cipher's round rule.

    Odd rounds chain left to right, even ones right to left, each led as
    :func:`_leader` says; only the literal round 16 drops diffusion.
    """
    return i % 2 == 1, i != 16


def _leader(k, forward):
    """The round leader: key ``k``'s first nibble in chain order, for 8 ints or 8 byte rows."""
    return k[0] >> 4 if forward else k[7] & 15


def _round_plan(i, k, round_tables):
    """Encryption round i's table, its leader's walk state (parity 0) and its direction.

    ``round_tables`` is the odd (forward), even and last (undiffused) round
    table in either kernel's form.
    """
    forward, diffused = round_shape(i)
    odd, even, last = round_tables
    return (odd if forward else even if diffused else last), _leader(k, forward) << 1, forward


@lru_cache(maxsize=8)
def _round_table_rows(q: Quasigroup) -> tuple[list[list], list[list], list[list]]:
    """The round tables of :func:`tables` as linked rows.

    Each table becomes 32 rows, one per walk state s.  Entry b of row s is
    ``(rows[s'], output byte)`` for the table's entry ``s << 8 | b`` =
    ``s' << 8 | output byte``, and entry 256 is the row's parity ``s & 1``.
    A table holds only a few hundred distinct entries, so the rows share
    one link tuple per distinct entry.
    """
    t = tables(q)
    built = []
    for table in (t.odd, t.even, t.last):
        entries = table.tolist()
        rows = [[] for _ in range(32)]
        links = {v: (rows[v >> 8], v & 255) for v in set(entries)}
        for s, row in enumerate(rows):
            row.extend(map(links.__getitem__, entries[s << 8 : (s + 1) << 8]))
            row.append(s & 1)
        built.append(rows)
    return tuple(built)


def _byte_rows(w):
    """(2m, ...) nibble rows -> (m, ...) byte rows, the even row in the high half."""
    return w[0::2] << 4 | w[1::2]


def _nibble_rows(b):
    """(m, ...) byte rows -> fresh (2m, ...) nibble rows, the high half first."""
    return np.stack([b >> 4, b & 15], axis=1).reshape(2 * len(b), *b.shape[1:])


def _shaped(a, what, *shapes):
    """``a`` as a uint8 array of one of ``shapes`` (None: any length), else ValueError."""
    a = np.asarray(a, dtype=np.uint8)
    for shape in shapes:
        if a.ndim == len(shape) and all(s in (None, d) for s, d in zip(shape, a.shape)):
            return a
    expected = " or ".join(str(s).replace("None", "n") for s in shapes)
    raise ValueError(f"{what} must have shape {expected}, got {a.shape}")


def _round_key_rows(rks, n):
    """(17, 8) or (n, 17, 8) byte round keys as (17, 8, 1) or (17, 8, n) byte rows."""
    rks = _shaped(rks, "round keys", (17, 8), (n, 17, 8))
    if rks.ndim == 2:  # one schedule shared by the whole batch
        return rks[:, :, None]
    return np.ascontiguousarray(rks.transpose(1, 2, 0))


def _slices(blocks, rks):
    """(columns, (8, m) byte rows, round-key rows) per slice of (n, 8) uint8 blocks.

    No blocks make one empty slice.  The rows are the caller's memory when
    one slice covers a transposed view of contiguous rows, so they are
    only read.
    """
    n = len(blocks)
    rks = _shaped(rks, "round keys", (17, 8), (n, 17, 8))
    for lo in range(0, max(n, 1), SLICE_BLOCKS):
        cols = slice(lo, lo + SLICE_BLOCKS)
        rows = np.ascontiguousarray(blocks[cols].T)
        yield cols, rows, _round_key_rows(rks if rks.ndim == 2 else rks[cols], rows.shape[1])


def _keys_and_ivs(keys, ivs):
    """(n, 32) nibble keys and their (n, 16) diversifiers, all zero for None."""
    keys = _shaped(keys, "keys", (None, 32))
    n = len(keys)
    ivs = np.zeros((n, 16), dtype=np.uint8) if ivs is None else _shaped(ivs, "ivs", (n, 16))
    return keys, ivs


def _packed(blocks, rks):
    """(n, 16) nibble blocks and their nibble round keys, packed into bytes."""
    blocks = _shaped(blocks, "blocks", (None, 16))
    rks = _shaped(rks, "round keys", (17, 16), (len(blocks), 17, 16))
    return _byte_rows(blocks.T).T, _byte_rows(rks.T).T


class BatchCipher:
    """Key schedule, encryption and decryption over one quasigroup, batched or walked."""

    def __init__(self, q: Quasigroup = INRU):
        if q.order != 16:
            raise ValueError("batch engine expects an order-16 quasigroup")
        self.q = q
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

        A single column (one key) runs the same steps as a plain walk over
        the tables read through ``memoryview``: numpy's per-call cost would
        make its ~20k row steps some 20 times slower.
        """
        if w.shape[1] == 1:
            left, right = memoryview(self.tables.left), memoryview(self.tables.right)
            col = w[::-1, 0].tolist()  # each pass reverses the list's order
            for i, leader in enumerate(leaders[:, 0].tolist()):
                table, prev = (right, leader << 4) if i & 1 else (left, leader << 8)
                col = [prev := table[b | prev] for b in reversed(col)]
            w[::-1, 0] = col  # the pass count is even
            return
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

    # -- inverse diffusion, state shape (8, n) -------------------------------

    @staticmethod
    def _undiffuse_left(w):
        y = w >> 1
        y ^= w
        y[0] ^= 128  # the leader bit
        y[1:] ^= w[:-1] << 7
        return y

    @staticmethod
    def _undiffuse_right(w):
        y = w << 1
        y ^= w
        y[:-1] ^= w[1:] >> 7
        return y

    # -- key schedule --------------------------------------------------------

    def _mixed_state_columns(self, keys, ivs) -> np.ndarray:
        """Key mixing of checked (n, 32) keys and (n, 16) diversifiers, as (64, n) columns.

        The 64-nibble seed string s is the key, the diversifier, then the
        constant 15..0.  The 64 passes take its nibbles s63, s62, ..., s0 as
        leaders, always from the unmodified seed, so the first leader is the
        constant 0.
        """
        tail = np.broadcast_to(np.arange(15, -1, -1, dtype=np.uint8), (len(keys), 16))
        s = np.concatenate([keys, ivs, tail], axis=1).T.copy()  # (64, n)
        a = _byte_rows(s).astype(np.uint16)
        self._chain_passes(s[::-1], a)
        return _nibble_rows(a.astype(np.uint8))

    def expand_key_bytes(self, keys: np.ndarray, ivs: np.ndarray | None = None) -> np.ndarray:
        """Run the key schedule for n keys at once, returning (n, 17, 8) byte round keys.

        ``keys`` is (n, 32) nibbles, ``ivs`` (n, 16) or None for all-zero
        diversifiers.  Key mixing and round-key generation run on slices
        of :data:`SLICE_BLOCKS` keys, so beyond the result they hold one
        slice's working strings whatever n is.  The result is a transposed
        view of the (17, 8, n) rows that :meth:`encrypt_bytes` and
        :meth:`decrypt_bytes` read.
        """
        keys, ivs = _keys_and_ivs(keys, ivs)
        out = np.empty((17, 8, len(keys)), dtype=np.uint8)
        for lo in range(0, max(len(keys), 1), SLICE_BLOCKS):
            cols = slice(lo, lo + SLICE_BLOCKS)
            mixed = self._mixed_state_columns(keys[cols], ivs[cols])
            self._round_key_columns(mixed, out[:, :, cols])
        return out.transpose(2, 0, 1)

    def expand_keys(self, keys: np.ndarray, ivs: np.ndarray | None = None) -> np.ndarray:
        """Nibble view of :meth:`expand_key_bytes`: round keys of shape (n, 17, 16).

        No library caller: kept while the benchmark traces it.
        """
        return _nibble_rows(self.expand_key_bytes(keys, ivs).T).T

    def mix_keys(self, keys: np.ndarray, ivs: np.ndarray | None = None) -> np.ndarray:
        """Key mixing only, returning the (n, 64) mixed states."""
        return self._mixed_state_columns(*_keys_and_ivs(keys, ivs)).T.copy()

    def round_keys_from_states(self, states: np.ndarray) -> np.ndarray:
        """Round-key generation alone: (n, 64) mixed-key states to (n, 17, 8) byte round keys.

        The result is a transposed view, as in :meth:`expand_key_bytes`.
        """
        states = _shaped(states, "states", (None, 64))
        out = np.empty((17, 8, len(states)), dtype=np.uint8)
        self._round_key_columns(states.T.copy(), out)
        return out.transpose(2, 0, 1)

    def _round_key_columns(self, a: np.ndarray, out: np.ndarray) -> None:
        """Write the (17, 8, n) byte round keys of (64, n) mixed states into ``out``.

        The 544-nibble working string is 0..15 34 times, chained by 64
        passes with leaders a0..a63 from the unmodified mixed state; round
        key i is the high nibbles of its bytes 16i..16i+15 (the even nibbles
        32i..32i+30), so the last chunk's odd nibbles are never used.
        """
        n = a.shape[1]
        l = _byte_rows(np.tile(np.arange(16, dtype=np.uint16), 34))
        l = np.repeat(l[:, None], n, axis=1)
        self._chain_passes(a, l)
        high, low = l[0::2], l[1::2]  # in place: l is thrown away
        high &= 0xF0
        low >>= 4
        high |= low
        out[...] = high.reshape(17, 8, n)

    # -- block encryption ----------------------------------------------------

    def _rounds(self, state, kb, rounds):
        """The round loop on (8, n) byte rows.

        Yields ``(round, after_kxor, output)`` per round.  Each round walks
        the table of :func:`_round_plan` over the byte rows in chain order
        and ends with the conditional complement.  ``state`` is only read;
        every yielded array is fresh and never modified later.
        """
        check_rounds(rounds)
        round_tables = self.tables[:3]
        idx = np.empty(state.shape[1], dtype=np.uint16)
        for i in range(1, rounds + 1):
            k = kb[i - 1]
            x = state ^ k
            walk = np.empty(x.shape, dtype=np.uint16)
            table, e, forward = _round_plan(i, k, round_tables)
            e = e.astype(np.uint16) << 8
            for j in range(8) if forward else range(7, -1, -1):
                np.bitwise_and(e, 0x1F00, out=idx)
                idx |= x[j]
                e = walk[j]
                table.take(idx, out=e)
            state = walk.astype(np.uint8)
            state ^= ((e >> 8) & 1).astype(np.uint8) * np.uint8(255)
            yield i, x, state

    def int_encryptor(self, rks, rounds: int = NUM_ROUNDS) -> Callable[[int], int]:
        """Encryption of one block under (17, 8) byte round keys, on its 64-bit integer.

        The block is the ``Block.to_int`` integer.  The per-round plan
        (the round's key bytes and their complement, the start row of
        the round's walk, walk direction) is bound once, so a chained
        mode pays for it once per message.  The walk runs over the
        linked rows of :func:`_round_table_rows`: a step ``s, o_j =
        s[o_j ^ k_j]`` reads keyed byte j and moves to the next row in
        one subscript.  The block is unpacked into its eight output
        bytes ``o0..o7`` on entry and stays there between rounds; the
        eight steps of a round are written out in its direction.  The
        all-ones complement that a round owes when its final row's
        parity ``c = s[256]`` is 1 is folded into the next round's key
        bytes (``ks[c]``), and after the last round into the whitening
        key; the block is packed back into an int only on exit.
        """
        rks = _shaped(rks, "round keys", (17, 8))
        check_rounds(rounds)
        round_rows = _round_table_rows(self.q)
        keys, comps = rks.tolist(), (rks ^ 255).tolist()
        plan = []
        for i in range(1, rounds + 1):
            k = keys[i - 1]
            rows, s, forward = _round_plan(i, k, round_rows)
            plan.append(((tuple(k), tuple(comps[i - 1])), rows[s], forward))
        plan = tuple(plan)
        from_bytes = int.from_bytes
        whitening = (from_bytes(bytes(keys[rounds]), "big"), from_bytes(bytes(comps[rounds]), "big"))

        def encrypt(x: int) -> int:
            o0, o1, o2, o3, o4, o5, o6, o7 = x.to_bytes(8, "big")
            c = 0
            for ks, s, forward in plan:
                k0, k1, k2, k3, k4, k5, k6, k7 = ks[c]
                if forward:
                    s, o0 = s[o0 ^ k0]
                    s, o1 = s[o1 ^ k1]
                    s, o2 = s[o2 ^ k2]
                    s, o3 = s[o3 ^ k3]
                    s, o4 = s[o4 ^ k4]
                    s, o5 = s[o5 ^ k5]
                    s, o6 = s[o6 ^ k6]
                    s, o7 = s[o7 ^ k7]
                else:
                    s, o7 = s[o7 ^ k7]
                    s, o6 = s[o6 ^ k6]
                    s, o5 = s[o5 ^ k5]
                    s, o4 = s[o4 ^ k4]
                    s, o3 = s[o3 ^ k3]
                    s, o2 = s[o2 ^ k2]
                    s, o1 = s[o1 ^ k1]
                    s, o0 = s[o0 ^ k0]
                c = s[256]  # the round's parity: it owes a complement
            return from_bytes(bytes((o0, o1, o2, o3, o4, o5, o6, o7)), "big") ^ whitening[c]

        return encrypt

    def trace_rounds(self, blocks: np.ndarray, rks: np.ndarray, rounds: int = NUM_ROUNDS):
        """Encrypt (n, 8) byte blocks round by round, yielding nibble intermediates.

        Yields ``(round, after_kxor, after_sbox, after_diffusion)`` per round,
        each a fresh (16, n) nibble array (position, block) that later
        rounds never modify; ``after_diffusion`` is None for the literal
        round 16.  The generator returns the nibble state that the final
        whitening with round key ``rounds`` applies to.  ``rks`` is (17, 8)
        or (n, 17, 8) bytes.  The whole batch runs as one slice.
        """
        blocks = _shaped(blocks, "blocks", (None, 8))
        rows = np.ascontiguousarray(blocks.T)
        for i, x, out in self._rounds(rows, _round_key_rows(rks, len(blocks)), rounds):
            forward, diffused = round_shape(i)
            state = after_sbox = _nibble_rows(out)
            if diffused:
                after_sbox = _nibble_rows(self._undiffuse_right(out) if forward else self._undiffuse_left(out))
            yield i, _nibble_rows(x), after_sbox, state if diffused else None
        return state

    def encrypt_bytes(self, blocks: np.ndarray, rks: np.ndarray, rounds: int = NUM_ROUNDS) -> np.ndarray:
        """Encrypt (n, 8) byte blocks (``Block.to_bytes``); ``rks`` is (17, 8) or (n, 17, 8) bytes.

        Runs the round loop on slices of :data:`SLICE_BLOCKS` blocks and
        returns the (n, 8) ciphertext bytes as a transposed view of fresh
        memory.
        """
        blocks = _shaped(blocks, "blocks", (None, 8))
        out = np.empty((8, len(blocks)), dtype=np.uint8)
        for cols, rows, kb in _slices(blocks, rks):
            # Keep only the last round's arrays while draining the loop.
            state = deque(self._rounds(rows, kb, rounds), maxlen=1)[0][-1]
            np.bitwise_xor(state, kb[rounds], out=out[:, cols])
        return out.T

    def decrypt_bytes(self, blocks: np.ndarray, rks: np.ndarray, rounds: int = NUM_ROUNDS) -> np.ndarray:
        """Invert :meth:`encrypt_bytes` on (n, 8) byte blocks, sliced and returned as it does.

        Round i undiffuses if it diffused (:func:`round_shape`), looks every
        adjacent pair of rows up in its division table (the leader in a ninth
        row), then xors its key.
        """
        check_rounds(rounds)
        blocks = _shaped(blocks, "blocks", (None, 8))
        t = self.tables
        out = np.empty((8, len(blocks)), dtype=np.uint8)
        for cols, rows, kb in _slices(blocks, rks):
            w = rows ^ kb[rounds]  # rows may be the caller's memory
            pairs = np.empty((9, w.shape[1]), dtype=np.uint16)
            for i in range(rounds, 0, -1):
                k = kb[i - 1]
                forward, diffused = round_shape(i)
                if diffused:
                    w = self._undiffuse_right(w) if forward else self._undiffuse_left(w)
                if forward:  # d_left reads the leader's low nibble from a first row
                    table, pairs[0], pairs[1:] = t.dleft, _leader(k, forward), w
                else:  # d_right reads the leader's high nibble from a ninth row
                    table, pairs[:8], pairs[8] = t.dright, w, _leader(k, forward) << 4
                idx = pairs[:-1] << 8
                idx |= pairs[1:]
                w = table.take(idx)
                w ^= k
            out[:, cols] = w
        return out.T

    def encrypt(self, blocks: np.ndarray, rks: np.ndarray, rounds: int = NUM_ROUNDS) -> np.ndarray:
        """Encrypt (n, 16) nibble blocks; ``rks`` is (17, 16) or (n, 17, 16) nibbles.

        No library caller: a view of :meth:`encrypt_bytes` kept while the benchmark traces it.
        """
        return _nibble_rows(self.encrypt_bytes(*_packed(blocks, rks), rounds).T).T.copy()

    def decrypt(self, blocks: np.ndarray, rks: np.ndarray, rounds: int = NUM_ROUNDS) -> np.ndarray:
        """Decrypt (n, 16) nibble blocks; ``rks`` is (17, 16) or (n, 17, 16) nibbles.

        No library caller: a view of :meth:`decrypt_bytes` kept while the benchmark traces it.
        """
        return _nibble_rows(self.decrypt_bytes(*_packed(blocks, rks), rounds).T).T.copy()
