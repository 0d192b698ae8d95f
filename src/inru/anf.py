"""Algebraic normal forms of Boolean functions and quasigroup coordinate maps.

Variable and bit conventions (shared with the cipher's block packing):

* inside an element of an order-2^d quasigroup, bit 0 is the most
  significant bit;
* the product map (x, x') -> x*x' is viewed as a vector Boolean function of
  2d variables, numbered 0..d-1 for the bits of the left operand and
  d..2d-1 for the right operand, most significant first;
* ``coordinate_anf(q, i)`` gives output bit i in the same
  most-significant-first order, so for the cipher's order-16 quasigroup,
  coordinate i of position t is string bit 4t+i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .quasigroup import Quasigroup


def moebius_transform(values: Sequence[int]) -> list[int]:
    """Map a truth table to ANF coefficients (the transform is an involution).

    ``values`` has length 2^k and is indexed by the input point; the result
    is indexed by monomial bitmask.  Both sides use the same index
    convention, whatever it is: the transform is applied per index bit.
    """
    f = list(values)
    n = len(f)
    if n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    step = 1
    while step < n:
        for base in range(0, n, 2 * step):
            for j in range(base, base + step):
                f[j + step] ^= f[j]
        step *= 2
    return f


@dataclass(frozen=True)
class Anf:
    """A Boolean function in algebraic normal form.

    ``monomials`` holds one bitmask per monomial present, bit k set meaning
    variable k occurs.  The empty mask 0 is the constant term.
    """

    num_vars: int
    monomials: frozenset[int]

    def degree(self) -> int:
        """Largest number of variables in any monomial (0 for constants, -1 for the zero function)."""
        if not self.monomials:
            return -1
        return max(m.bit_count() for m in self.monomials)

    def evaluate(self, point: int) -> int:
        """Evaluate at a point given as a bitmask (bit k = variable k)."""
        acc = 0
        for m in self.monomials:
            if m & point == m:
                acc ^= 1
        return acc

    def __xor__(self, other: "Anf") -> "Anf":
        if self.num_vars != other.num_vars:
            raise ValueError("mixed variable counts")
        return Anf(self.num_vars, self.monomials ^ other.monomials)

    @classmethod
    def from_str(cls, text: str, names: Sequence[str]) -> "Anf":
        index = {n: k for k, n in enumerate(names)}
        monomials = set()
        text = text.strip()
        if text == "0":
            return cls(len(names), frozenset())
        for term in text.split("+"):
            term = term.strip()
            if term == "1":
                mask = 0
            else:
                mask = 0
                for v in term.split("*"):
                    mask |= 1 << index[v.strip()]
            if mask in monomials:
                monomials.discard(mask)
            else:
                monomials.add(mask)
        return cls(len(names), frozenset(monomials))

    @classmethod
    def from_truth_table(cls, values: Sequence[int], num_vars: int) -> "Anf":
        """ANF of a truth table indexed with variable k at index bit (num_vars-1-k).

        That index convention makes variable 0 the most significant index
        bit, matching how operand bits are packed into table indices.
        """
        if len(values) != 1 << num_vars:
            raise ValueError("truth table length does not match variable count")
        coeffs = moebius_transform(values)
        top = num_vars - 1
        monomials = frozenset(
            _reverse_bits(m, top) for m, c in enumerate(coeffs) if c & 1
        )
        return cls(num_vars, monomials)


def _reverse_bits(mask: int, top: int) -> int:
    out = 0
    for k in range(top + 1):
        if (mask >> k) & 1:
            out |= 1 << (top - k)
    return out


def product_truth_table(q: Quasigroup, i: int) -> list[int]:
    """Truth table of output bit i (most significant first) of (a, b) -> a*b."""
    d = (q.order - 1).bit_length()
    if q.order != 1 << d:
        raise ValueError("coordinate functions need a power-of-two order")
    if not 0 <= i < d:
        raise ValueError(f"coordinate index {i} outside 0..{d - 1}")
    shift = d - 1 - i
    mul = q.mul_table
    tt = []
    for a in range(q.order):
        row = mul[a]
        for b in range(q.order):
            tt.append((row[b] >> shift) & 1)
    return tt


def coordinate_anf(q: Quasigroup, i: int) -> Anf:
    """ANF of output bit i of the product map, as described in the module docs."""
    d = (q.order - 1).bit_length()
    return Anf.from_truth_table(product_truth_table(q, i), 2 * d)


def algebraic_degree(q: Quasigroup, mask: int) -> int:
    """Degree of the xor of the coordinate functions selected by ``mask``.

    ``mask`` is a nonzero output-bit selector read like an element: bit
    (d-1-i) of the mask selects coordinate i, so the mask aligns with the
    output bits it combines.
    """
    d = (q.order - 1).bit_length()
    if not 1 <= mask < q.order:
        raise ValueError(f"mask must be in 1..{q.order - 1}")
    combined: Anf | None = None
    for i in range(d):
        if (mask >> (d - 1 - i)) & 1:
            c = coordinate_anf(q, i)
            combined = c if combined is None else combined ^ c
    assert combined is not None
    return combined.degree()


#: Canonical variable names for order-16 coordinate functions: left operand
#: bits x0..x3, right operand bits y0..y3, most significant first.
PRODUCT_VAR_NAMES = ("x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3")
