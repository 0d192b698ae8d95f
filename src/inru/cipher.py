"""The 16-round 64-bit block cipher: packing, round functions, key schedule.

Packing convention, the single source of truth shared with the ANF and
analysis modules: a block is 16 nibbles m0..m15; byte j packs m(2j) in its
high half and m(2j+1) in its low half; bit i of the 64-bit string is bit
(i mod 4) from the top of nibble i//4 (so bit 0 is the most significant bit
of m0 and bit 63 the least significant bit of m15).

The four value types (:class:`Block`, :class:`MasterKey`,
:class:`Diversifier`, :class:`MixedKeyState`) are nibble strings of fixed
length on one base, which owns their validation, hex form and bit
indexing.  A hex form takes ASCII hex digits only
(:func:`inru.quasigroup.is_hex`).  ``Block`` adds the nibble/byte
packing, and its 64-bit integer form goes through that packing.

The key-schedule diversifier (``iv``) is a public 64-bit tweak, not a mode
IV; it defaults to all-zero.

Reduced-round variants (``rounds`` < 16) run the encryption loop unchanged,
so they keep the diffusion step in their final round; only the literal
round 16 drops it.  Decryption of a reduced variant inverts the rounds it
actually ran.

The scalar encryption engine (:func:`int_encryptor`) takes the block as
its 64-bit integer (the ``Block.to_int`` convention) and runs each round
as one walk over the state's 8 bytes.  The walk steps through linked
rows built from the round tables of :func:`inru.batch.tables`, which
fuse the confusion chain with the diffusion scan and which the batch
engine walks directly: a row stands for one walk state, and its entry
for a keyed byte holds the next row and the output byte.  The block is
unpacked into its eight output bytes once on entry and packed back once
on exit: between rounds the state stays in those bytes, and the
complement a round owes is folded into the next round's key bytes.  It
binds the round plan of one key schedule (its :attr:`RoundKeys.key_bytes`)
once and returns the block function, so a chained mode pays for the plan
once per message; :func:`encrypt_block` is a one-block view over it.

The key schedule (:func:`key_mixing`, :func:`round_key_generation`,
:func:`expand_key`) is a one-key view, and decryption, the four diffusion
primitives and the traced encryption are one-block views, over
:class:`inru.batch.BatchCipher`, the library's only implementation of
each: decryption and the diffusion primitives pass it
the block's 8 bytes as byte rows, the engine's only state format, and
decryption passes :attr:`RoundKeys.key_bytes`, the engine's (17, 8) byte
round keys and the one round-key form besides the ``Block`` tuple.

All value types here are immutable and every function is pure, so blocks,
keys and round keys can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, ClassVar

import numpy as np

from .batch import NUM_ROUNDS, BatchCipher, check_rounds, tables
from .quasigroup import INRU, Quasigroup, is_hex

BLOCK_NIBBLES = 16
KEY_NIBBLES = 32
NUM_ROUND_KEYS = 17


@dataclass(frozen=True)
class _Nibbles:
    """A string of ``SIZE`` nibbles; subclasses set ``SIZE`` and ``HEX_NAME``.

    ``HEX_NAME`` names the type in :meth:`from_hex` errors.  Bit i of the
    string is bit ``3 - i % 4`` of nibble ``i // 4``, as in the module docs.
    """

    SIZE: ClassVar[int]
    HEX_NAME: ClassVar[str]

    nibbles: tuple[int, ...]

    def __post_init__(self):
        t = tuple(self.nibbles)
        if len(t) != self.SIZE:
            raise ValueError(f"{type(self).__name__} needs exactly {self.SIZE} nibbles, got {len(t)}")
        for v in t:
            if not 0 <= v <= 15:
                raise ValueError(f"{type(self).__name__} contains {v}, not a nibble")
        object.__setattr__(self, "nibbles", t)

    @classmethod
    def from_hex(cls, text: str):
        if len(text) != cls.SIZE:
            raise ValueError(f"{cls.HEX_NAME} hex needs {cls.SIZE} digits, got {len(text)}")
        if not is_hex(text):
            raise ValueError(f"{cls.HEX_NAME} hex takes ASCII hex digits only, got {text!r}")
        return cls(tuple(int(ch, 16) for ch in text))

    @classmethod
    def zero(cls):
        return cls((0,) * cls.SIZE)

    def to_hex(self) -> str:
        return "".join(f"{v:x}" for v in self.nibbles)

    def bit(self, i: int) -> int:
        """Bit i of the string (bit 0 = most significant bit of the first nibble)."""
        return (self.nibbles[i >> 2] >> (3 - (i & 3))) & 1

    def flip_bit(self, i: int):
        nibs = list(self.nibbles)
        nibs[i >> 2] ^= 1 << (3 - (i & 3))
        return type(self)(tuple(nibs))


class Block(_Nibbles):
    """A 64-bit cipher block as a tuple of 16 nibbles m0..m15."""

    SIZE = BLOCK_NIBBLES
    HEX_NAME = "Block"

    @classmethod
    def from_bytes(cls, data: bytes) -> "Block":
        if len(data) != 8:
            raise ValueError(f"Block needs 8 bytes, got {len(data)}")
        nibs = []
        for byte in data:
            nibs.append(byte >> 4)
            nibs.append(byte & 0xF)
        return cls(tuple(nibs))

    @classmethod
    def from_int(cls, value: int) -> "Block":
        if not 0 <= value < 1 << 64:
            raise ValueError("Block value outside 64 bits")
        return cls.from_bytes(value.to_bytes(8, "big"))

    def to_bytes(self) -> bytes:
        n = self.nibbles
        return bytes((n[2 * j] << 4) | n[2 * j + 1] for j in range(8))

    def to_int(self) -> int:
        return int.from_bytes(self.to_bytes(), "big")

    def __xor__(self, other: "Block") -> "Block":
        return Block(tuple(a ^ b for a, b in zip(self.nibbles, other.nibbles)))


class MasterKey(_Nibbles):
    """128-bit master key, 32 nibbles k0..k31."""

    SIZE = KEY_NIBBLES
    HEX_NAME = "key"


class Diversifier(_Nibbles):
    """64-bit public key-schedule tweak v0..v15 (the key-mixing ``iv``)."""

    SIZE = 16
    HEX_NAME = "iv"


class MixedKeyState(_Nibbles):
    """Output of key mixing: 64 nibbles a0..a63."""

    SIZE = 64
    HEX_NAME = "MixedKeyState"


@dataclass(frozen=True)
class RoundKeys:
    """The 17 64-bit round keys rk0..rk16."""

    keys: tuple[Block, ...]

    def __post_init__(self):
        if len(self.keys) != NUM_ROUND_KEYS:
            raise ValueError(f"need {NUM_ROUND_KEYS} round keys, got {len(self.keys)}")

    def __getitem__(self, i: int) -> Block:
        return self.keys[i]

    @cached_property
    def key_bytes(self) -> np.ndarray:
        """A read-only (17, 8) uint8 array, computed once: the ``rks`` of the byte engine."""
        nibbles = np.array([k.nibbles for k in self.keys], dtype=np.uint8)
        rks = (nibbles[:, 0::2] << 4) | nibbles[:, 1::2]
        rks.flags.writeable = False
        return rks


# -- round primitives --------------------------------------------------------


def _column_view(layer, b: Block) -> Block:
    """A batch diffusion layer applied to one block's 8 bytes as an (8, 1) column."""
    column = np.frombuffer(b.to_bytes(), dtype=np.uint8)[:, None]
    return Block.from_bytes(layer(column)[:, 0].tobytes())


def diffuse_left(b: Block) -> Block:
    """eLeft over (F2, xor) with leader 1: output bit j = 1 ^ (y0 ^ ... ^ yj)."""
    return _column_view(BatchCipher._diffuse_left, b)


def diffuse_right(b: Block) -> Block:
    """eRight over (F2, xor) with leader 0: output bit j = yj ^ ... ^ y63."""
    return _column_view(BatchCipher._diffuse_right, b)


def undiffuse_left(b: Block) -> Block:
    return _column_view(BatchCipher._undiffuse_left, b)


def undiffuse_right(b: Block) -> Block:
    return _column_view(BatchCipher._undiffuse_right, b)


# -- Algorithms 1 and 2 ------------------------------------------------------


@lru_cache(maxsize=8)
def _round_table_rows(q: Quasigroup) -> tuple[list[list], list[list], list[list]]:
    """The round tables of :func:`inru.batch.tables` as linked rows.

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


def int_encryptor(
    rk: RoundKeys, rounds: int = NUM_ROUNDS, q: Quasigroup = INRU
) -> Callable[[int], int]:
    """:func:`encrypt_block` under fixed round keys, on the block's 64-bit integer.

    The per-round plan (the round key's row of :attr:`RoundKeys.key_bytes`
    and its complement, the start row of the round's walk, walk
    direction) is bound once.  The walk runs over the linked rows of
    :func:`_round_table_rows`: a step ``s, o_j = s[o_j ^ k_j]`` reads
    keyed byte j and moves to the next row in one subscript.  The block is unpacked into its eight output bytes
    ``o0..o7`` on entry and stays there between rounds; the eight steps of
    a round are written out in its direction.  The all-ones complement
    that a round owes when its final row's parity ``c = s[256]`` is 1 is
    folded into the next round's key bytes (``ks[c]``), and after the last
    round into the whitening key; the block is packed back into an int
    only on exit.
    """
    check_rounds(rounds)
    odd, even, last = _round_table_rows(q)
    keys, comps = rk.key_bytes.tolist(), (rk.key_bytes ^ 255).tolist()
    plan = []
    for i in range(1, rounds + 1):
        k = keys[i - 1]
        ks = (tuple(k), tuple(comps[i - 1]))
        if i & 1:  # leader: first nibble of the odd round's key
            plan.append((ks, odd[(k[0] >> 4) << 1], True))
        else:  # leader: last nibble of the even round's key
            # Only the literal 16th round drops its diffusion step.
            plan.append((ks, (even if i != 16 else last)[(k[7] & 15) << 1], False))
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


def encrypt_block(
    m: Block, rk: RoundKeys, rounds: int = NUM_ROUNDS, q: Quasigroup = INRU
) -> Block:
    """Encrypt one block (Algorithm: xor round key, confusion layer, diffusion).

    Odd rounds chain the quasigroup layer from the left with leader = first
    nibble of the round key, then apply the suffix-xor diffusion; even
    rounds mirror this (leader = last nibble, prefix-xor diffusion), and
    round 16 skips diffusion.  A final xor with rk[rounds] whitens the
    output.
    """
    return Block.from_int(int_encryptor(rk, rounds, q)(m.to_int()))


def decrypt_block(
    c: Block, rk: RoundKeys, rounds: int = NUM_ROUNDS, q: Quasigroup = INRU
) -> Block:
    """Invert encrypt_block.

    Decryption round i undoes encryption round (rounds+1-i), so it reads
    its leader from the opposite end of that round's key: the inverse of an
    even (right-chained) encryption round is a right-to-left division chain
    seeded with the key's first nibble, and vice versa.  A view over
    :meth:`inru.batch.BatchCipher.decrypt_bytes` at batch size 1.
    """
    block = np.frombuffer(c.to_bytes(), dtype=np.uint8)[None]
    return Block.from_bytes(BatchCipher(q).decrypt_bytes(block, rk.key_bytes, rounds).tobytes())


@dataclass(frozen=True)
class RoundTrace:
    """Intermediate values of one encryption round, for analysis harnesses.

    ``sbox_inputs[t]`` is the (chain, message) nibble pair entering the
    confusion-layer lookup at position t; for odd rounds the chain input of
    position 0 is the leader, for even rounds that of position 15.
    """

    index: int
    round_key: tuple[int, ...]
    after_kxor: tuple[int, ...]
    sbox_inputs: tuple[tuple[int, int], ...]
    after_sbox: tuple[int, ...]
    after_diffusion: tuple[int, ...] | None


def encrypt_block_traced(
    m: Block, rk: RoundKeys, rounds: int = NUM_ROUNDS, q: Quasigroup = INRU
) -> tuple[Block, tuple[RoundTrace, ...]]:
    """encrypt_block plus the full list of per-round intermediates.

    A view over :meth:`inru.batch.BatchCipher.trace_rounds` at batch size 1.
    """
    traces = []
    rks = np.array([k.nibbles for k in rk.keys], dtype=np.uint8)  # the engine's nibble keys
    for i, y, z, u in BatchCipher(q).trace_rounds([m.nibbles], rks, rounds):
        after_kxor = tuple(y[:, 0].tolist())
        after_sbox = tuple(z[:, 0].tolist())
        after_diffusion = None if u is None else tuple(u[:, 0].tolist())
        key = rk[i - 1].nibbles
        if i & 1:  # chained left to right from the key's first nibble
            chain = (key[0],) + after_sbox[:15]
        else:  # right to left from its last nibble
            chain = after_sbox[1:] + (key[15],)
        sbox_inputs = tuple(zip(chain, after_kxor))
        traces.append(
            RoundTrace(i, key, after_kxor, sbox_inputs, after_sbox, after_diffusion)
        )
    state = traces[-1].after_diffusion or traces[-1].after_sbox
    return Block(state) ^ rk[rounds], tuple(traces)


# -- Algorithms 3 and 4: key schedule ----------------------------------------


def key_mixing(
    key: MasterKey, iv: Diversifier | None = None, q: Quasigroup = INRU
) -> MixedKeyState:
    """Mix key and diversifier by 64 alternating chain passes.

    A view over :meth:`inru.batch.BatchCipher.mix_keys` at one key.
    """
    ivs = None if iv is None else [iv.nibbles]
    return MixedKeyState(tuple(BatchCipher(q).mix_keys([key.nibbles], ivs)[0].tolist()))


def round_key_generation(a: MixedKeyState, q: Quasigroup = INRU) -> RoundKeys:
    """Derive the 17 round keys from the mixed state by 64 more chain passes.

    A view over :meth:`inru.batch.BatchCipher.round_keys_from_states` at
    one state.
    """
    rks = BatchCipher(q).round_keys_from_states([a.nibbles])[0]
    return RoundKeys(tuple(Block(tuple(k)) for k in rks.tolist()))


def expand_key(
    key: MasterKey, iv: Diversifier | None = None, q: Quasigroup = INRU
) -> RoundKeys:
    """Full key schedule: key mixing followed by round-key generation.

    A view over :meth:`inru.batch.BatchCipher.expand_key_bytes` at one key.
    """
    ivs = None if iv is None else [iv.nibbles]
    rks = BatchCipher(q).expand_key_bytes([key.nibbles], ivs)[0]
    return RoundKeys(tuple(Block.from_bytes(bytes(k)) for k in rks))


# -- known-answer vector files ------------------------------------------------


@dataclass(frozen=True)
class KnownAnswerVector:
    key: MasterKey
    iv: Diversifier
    plaintext: Block
    ciphertext: Block

    def to_line(self) -> str:
        return (
            f"key={self.key.to_hex()} iv={self.iv.to_hex()} "
            f"pt={self.plaintext.to_hex()} ct={self.ciphertext.to_hex()}"
        )


def parse_vector_line(line: str) -> KnownAnswerVector:
    fields = dict(part.split("=", 1) for part in line.split())
    missing = {"key", "iv", "pt", "ct"} - fields.keys()
    if missing:
        raise ValueError(f"vector line missing {sorted(missing)}: {line!r}")
    return KnownAnswerVector(
        MasterKey.from_hex(fields["key"]),
        Diversifier.from_hex(fields["iv"]),
        Block.from_hex(fields["pt"]),
        Block.from_hex(fields["ct"]),
    )


def read_vectors(text: str) -> list[KnownAnswerVector]:
    vectors = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            vectors.append(parse_vector_line(line))
    return vectors


def builtin_vectors() -> list[KnownAnswerVector]:
    """The frozen vectors shipped with the package."""
    from importlib.resources import files

    text = files("inru.data").joinpath("known_answer_vectors.txt").read_text()
    return read_vectors(text)
