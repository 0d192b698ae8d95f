"""Sbox views of the quasigroup layer and their DDT / LAT tables.

Two views of the confusion layer exist: each table row is a 4-to-4
permutation S_l(x) = l*x (one per leader), and the whole binary operation
is an 8-to-4 map S(l, x) = l*x whose input packs the leader in the high
nibble.  LAT entries are stored as signed bias counts,

    lat[a][b] = #{ inputs x : parity(a & x) == parity(b & S(x)) } - 2^(m-1)

for an m-bit input space, so the zero-mask entry is +2^(m-1) and a
uniformly balanced approximation scores 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quasigroup import Quasigroup

ROW = "row"
WIDE = "wide"


@dataclass(frozen=True)
class SboxView:
    kind: str
    input_bits: int
    output_bits: int
    table: tuple[int, ...]
    leader: int | None = None

    def __post_init__(self):
        if len(self.table) != 1 << self.input_bits:
            raise ValueError("table length does not match input_bits")


def _check_order(q: Quasigroup) -> None:
    """Both views are of 4-bit elements, so the quasigroup must have order 16."""
    if q.order != 16:
        raise ValueError(f"sbox views need a quasigroup of order 16, got order {q.order}")


def row_sbox(q: Quasigroup, leader: int) -> SboxView:
    """The 4x4 Sbox S_l: x -> l*x (a row of the Latin square)."""
    _check_order(q)
    if not 0 <= leader < q.order:
        raise ValueError(f"leader must be in 0..{q.order - 1}, got {leader}")
    return SboxView(ROW, 4, 4, q.row(leader), leader)


def wide_sbox(q: Quasigroup) -> SboxView:
    """The 8x4 Sbox S: (l, x) -> l*x with input (l << 4) | x."""
    _check_order(q)
    table = tuple(q.mul_table[l][x] for l in range(16) for x in range(16))
    return SboxView(WIDE, 8, 4, table)


@dataclass(frozen=True)
class Ddt:
    """Difference distribution: counts[din][dout] over the full input space."""

    counts: np.ndarray

    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def max_nonzero(self) -> int:
        """Largest entry over nonzero input differences."""
        return int(self.counts[1:].max())


@dataclass(frozen=True)
class Lat:
    """Linear approximation biases; see module docs for the sign convention."""

    bias: np.ndarray

    def max_abs_nonzero(self) -> int:
        """Largest |bias| over pairs of masks that are not both zero."""
        b = np.abs(self.bias).copy()
        b[0, 0] = 0
        return int(b.max())


# Parity of every byte: sbox inputs and outputs have at most 8 bits.
_PARITY = np.array([bin(v).count("1") & 1 for v in range(256)], dtype=np.int64)


def build_ddt(s: SboxView) -> Ddt:
    size, osize = 1 << s.input_bits, 1 << s.output_bits
    table = np.array(s.table, dtype=np.int64)
    din = np.arange(size)[:, None]
    x = np.arange(size)[None, :]
    dout = table[x] ^ table[x ^ din]
    counts = np.bincount((din * osize + dout).ravel(), minlength=size * osize)
    return Ddt(counts.reshape(size, osize))


def build_lat(s: SboxView) -> Lat:
    """Each entry is half the correlation sum of two +-1 parity matrices."""
    x = np.arange(1 << s.input_bits)
    sx = np.array(s.table, dtype=np.int64)
    signs_in = 1 - 2 * _PARITY[np.bitwise_and.outer(x, x)]  # [a, x]
    signs_out = 1 - 2 * _PARITY[np.bitwise_and.outer(np.arange(1 << s.output_bits), sx)]  # [b, x]
    return Lat((signs_in @ signs_out.T) // 2)


def render_ddt(s: SboxView, ddt: Ddt) -> str:
    header = [
        f"# difference distribution table, {s.input_bits}x{s.output_bits} sbox"
        + (f" (leader {s.leader:x})" if s.leader is not None else ""),
        f"# rows: input difference; columns: output difference; row sum {1 << s.input_bits}",
        f"# max entry over nonzero input differences: {ddt.max_nonzero()}",
    ]
    body = [" ".join(f"{v:4d}" for v in row) for row in ddt.counts]
    return "\n".join(header + body) + "\n"


def render_lat(s: SboxView, lat: Lat) -> str:
    header = [
        f"# linear approximation table, {s.input_bits}x{s.output_bits} sbox"
        + (f" (leader {s.leader:x})" if s.leader is not None else ""),
        "# entries are signed bias counts: matches(a,b) - half the input space",
        f"# max |bias| over nonzero mask pairs: {lat.max_abs_nonzero()}",
    ]
    body = [" ".join(f"{v:5d}" for v in row) for row in lat.bias]
    return "\n".join(header + body) + "\n"
