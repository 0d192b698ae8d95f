"""Quasigroup algebra on Latin squares: divisions, string transformations, checkers.

A quasigroup of order n is stored as its n x n multiplication table together
with precomputed left- and right-division tables, so every operation is an
O(1) lookup.  Bit conventions for order-16 elements: bit 0 of a nibble is the
most significant bit (value 8).

:data:`INRU`, the cipher's square, is read at import from its one copy,
``inru/data/inru_square.txt``; :class:`inru.batch.BatchCipher` also runs
the cipher over any other order-16 quasigroup.

Hex text anywhere in the package (square files here, and the key, block
and command-line values of :mod:`inru.cipher` and :mod:`inru.cli`) takes
ASCII hex digits only, checked by :func:`is_hex`.
"""

from __future__ import annotations

from importlib.resources import files
from typing import Sequence

NibbleString = tuple[int, ...]

LEFT = "left"
RIGHT = "right"

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def is_hex(text: str) -> bool:
    """True iff ``text`` is one or more ASCII hex digits.

    ``int(text, 16)`` also reads a ``0x`` prefix, ``_`` separators, a sign,
    surrounding whitespace and non-ASCII digits, so hex text is checked
    here before it is parsed.
    """
    return bool(text) and _HEX_DIGITS.issuperset(text)


class LatinSquareError(ValueError):
    """Raised when a table is not a Latin square."""


def latin_violation(rows: Sequence[Sequence[int]]) -> str | None:
    """Return a description of the first Latin-square violation, or None."""
    n = len(rows)
    if n == 0:
        return "the table has no rows"
    for i, row in enumerate(rows):
        if len(row) != n:
            return f"row {i} has length {len(row)}, expected {n}"
        for v in row:
            if not 0 <= v < n:
                return f"row {i} contains {v}, outside 0..{n - 1}"
        if len(set(row)) != n:
            return f"duplicate entry in row {i}"
    for j in range(n):
        col = [rows[i][j] for i in range(n)]
        if len(set(col)) != n:
            return f"duplicate entry in column {j}"
    return None


def check_latin(rows: Sequence[Sequence[int]]) -> bool:
    """True iff every row and every column of the table is a permutation."""
    return latin_violation(rows) is None


class Quasigroup:
    """A finite quasigroup (Q, *) with Q = {0, ..., n-1}.

    ``mul_table[a][b]`` is a*b.  ``ldiv_table[a][v]`` is the unique c with
    a*c = v, and ``rdiv_table[v][b]`` the unique r with r*b = v, so that

        ldiv(a, mul(a, b)) == b      rdiv(mul(a, b), b) == a

    hold for all a, b.  Instances are immutable and safe to share between
    threads; all methods are pure functions of their arguments.
    """

    __slots__ = ("mul_table", "ldiv_table", "rdiv_table", "order")

    def __init__(self, rows: Sequence[Sequence[int]]):
        problem = latin_violation(rows)
        if problem is not None:
            raise LatinSquareError(problem)
        n = len(rows)
        self.order = n
        self.mul_table = tuple(tuple(row) for row in rows)
        ldiv = [[0] * n for _ in range(n)]
        rdiv = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                v = self.mul_table[a][b]
                ldiv[a][v] = b
                rdiv[v][b] = a
        self.ldiv_table = tuple(tuple(r) for r in ldiv)
        self.rdiv_table = tuple(tuple(r) for r in rdiv)

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def ldiv(self, a: int, v: int) -> int:
        """Left division: the unique c with a*c = v."""
        return self.ldiv_table[a][v]

    def rdiv(self, v: int, b: int) -> int:
        """Right division: the unique r with r*b = v."""
        return self.rdiv_table[v][b]

    def row(self, l: int) -> tuple[int, ...]:
        """Row l of the table, i.e. the permutation x -> l*x."""
        return self.mul_table[l]

    # -- elementary string transformations ---------------------------------

    def e_left(self, leader: int, s: Sequence[int]) -> NibbleString:
        """Chain multiplication from the left: b0 = l*a0, bi = b(i-1)*ai."""
        if not s:
            raise ValueError("transformation input must be nonempty")
        mul = self.mul_table
        b = leader
        out = []
        for a in s:
            b = mul[b][a]
            out.append(b)
        return tuple(out)

    def e_right(self, leader: int, s: Sequence[int]) -> NibbleString:
        """Mirror of e_left, run from the last element leftwards."""
        return self.e_left(leader, s[::-1])[::-1]

    def d_left(self, leader: int, s: Sequence[int]) -> NibbleString:
        """Inverse of e_left: b0 = l \\ a0, bi = a(i-1) \\ ai."""
        if not s:
            raise ValueError("transformation input must be nonempty")
        ldiv = self.ldiv_table
        prev = leader
        out = []
        for a in s:
            out.append(ldiv[prev][a])
            prev = a
        return tuple(out)

    def d_right(self, leader: int, s: Sequence[int]) -> NibbleString:
        """Inverse of e_right: b_last = l \\ a_last, bi = a(i+1) \\ ai."""
        return self.d_left(leader, s[::-1])[::-1]


def conjugate(q: Quasigroup, which: str) -> Quasigroup:
    """The parastrophe whose multiplication is a division of q.

    ``which`` is "left" for x \\ y or "right" for x / y.  Divisions of a
    quasigroup are themselves quasigroup operations, so the result is again
    a valid Quasigroup (its own divisions are re-derived).
    """
    if which == LEFT:
        return Quasigroup(q.ldiv_table)
    if which == RIGHT:
        return Quasigroup(q.rdiv_table)
    raise ValueError(f"which must be 'left' or 'right', got {which!r}")


def has_proper_subquasigroup(q: Quasigroup) -> bool:
    """True iff q contains a proper subquasigroup.

    In a finite quasigroup a *-closed subset is automatically closed under
    both divisions (the translations x -> a*x and x -> x*b are injective,
    hence permutations of the closed subset), so it is a subquasigroup.
    Any proper subquasigroup contains the closure of each of its elements,
    so checking the closure of every singleton is a complete test.
    """
    n = q.order
    mul = q.mul_table
    for a in range(n):
        seen = {a}
        frontier = [a]
        while frontier and len(seen) < n:
            nxt = []
            for x in frontier:
                for y in list(seen):
                    for v in (mul[x][y], mul[y][x]):
                        if v not in seen:
                            seen.add(v)
                            nxt.append(v)
            frontier = nxt
        if len(seen) < n:
            return True
    return False


def is_medial(q: Quasigroup) -> tuple[bool, tuple[int, int, int, int] | None]:
    """Exhaustively test (x*y)*(u*v) == (x*u)*(y*v) over all quadruples.

    Returns (True, None) or (False, witness).  By Toyoda's theorem a
    quasigroup is medial exactly when it decomposes as x*y = a(x)+b(y)+c
    over an abelian group with COMMUTING automorphisms a, b, so a False
    result certifies that no such decomposition exists.  (Dropping the
    commuting requirement gives a strictly larger affine class.)
    """
    n = q.order
    mul = q.mul_table
    for x in range(n):
        for y in range(n):
            xy = mul[x][y]
            for u in range(n):
                xu = mul[x][u]
                row_xy = mul[xy]
                row_xu = mul[xu]
                mu = mul[u]
                my = mul[y]
                for v in range(n):
                    if row_xy[mu[v]] != row_xu[my[v]]:
                        return False, (x, y, u, v)
    return True, None


def is_simple(q: Quasigroup) -> bool:
    """True iff the only congruences are the trivial ones.

    A quasigroup is simple iff every principal congruence (the smallest
    congruence identifying one pair a != b) is the full relation.  Each
    principal congruence is computed by closing the pair under left and
    right translations of *, \\ and / and under transitivity, using a
    union-find partition.
    """
    n = q.order
    if n <= 2:
        return True
    tables = (q.mul_table, q.ldiv_table, q.rdiv_table)
    for a0 in range(n):
        for b0 in range(a0 + 1, n):
            if not _principal_congruence_is_full(tables, n, a0, b0):
                return False
    return True


def _principal_congruence_is_full(tables, n, a0, b0) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    classes = n
    work = [(a0, b0)]
    parent[find(a0)] = find(b0)
    classes -= 1
    while work:
        a, b = work.pop()
        for t in tables:
            ta, tb = t[a], t[b]
            for c in range(n):
                for pa, pb in ((ta[c], tb[c]), (t[c][a], t[c][b])):
                    ra, rb = find(pa), find(pb)
                    if ra != rb:
                        parent[ra] = rb
                        classes -= 1
                        if classes == 1:
                            return True
                        work.append((pa, pb))
    return classes == 1


# -- table serialization ----------------------------------------------------


def parse_square(text: str) -> list[list[int]]:
    """Parse the 16-lines-of-16-hex-digits table format (# comments allowed)."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        for tok in tokens:
            if not is_hex(tok):
                raise LatinSquareError(f"line {lineno}: not hex digits: {tok!r}")
        rows.append([int(tok, 16) for tok in tokens])
    return rows


def format_square(rows: Sequence[Sequence[int]]) -> str:
    return "\n".join(" ".join(f"{v:x}" for v in row) for row in rows) + "\n"


def load_square(path) -> Quasigroup:
    with open(path, "r", encoding="ascii") as fh:
        return Quasigroup(parse_square(fh.read()))


#: The cipher's built-in order-16 quasigroup.
INRU = Quasigroup(parse_square(files("inru.data").joinpath("inru_square.txt").read_text()))
