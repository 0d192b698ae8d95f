"""Boolean polynomial system of the cipher, for algebraic cryptanalysis.

For r rounds the system introduces, per round, the key-xor outputs y, the
confusion-layer outputs z and the diffusion outputs u (the literal round 16
has no diffusion layer), plus plaintext bits x, ciphertext bits c and round
key bits k.  One polynomial is emitted per introduced variable, equated to
zero, e.g. ``y1_5 + k1_5 + x5``.  The confusion layer contributes the only
nonlinear equations: 64 per round, each the degree-6 coordinate ANF of the
built-in quasigroup's product (:data:`inru.quasigroup.INRU`, the only one
the system is emitted for) applied to the chaining nibble and the layer
input.

Variable naming: x0..x63, k{r}_0..k{r}_63 (k1 = first round key), y{r}_i,
z{r}_i, u{r}_i, c0..c63.  Emission only; solving is out of scope.  The
rendering is plain ANF, one polynomial per line, suitable as input to a
computer-algebra system (variables are ordered as listed in the header).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .anf import coordinate_anf
from .batch import check_rounds, round_shape
from .cipher import Block, RoundKeys, encrypt_block_traced
from .quasigroup import INRU

Monomial = tuple[str, ...]  # sorted variable names; () is the constant 1


@dataclass(frozen=True)
class Equation:
    """A polynomial equated to zero; ``defined_var`` is the variable it introduces."""

    defined_var: str
    monomials: frozenset[Monomial]

    def degree(self) -> int:
        return max((len(m) for m in self.monomials), default=0)

    def is_linear(self) -> bool:
        return self.degree() <= 1

    def render(self) -> str:
        def key(m: Monomial):
            if m == (self.defined_var,):
                return (0, 0, m)
            return (1, -len(m), m)

        parts = []
        for m in sorted(self.monomials, key=key):
            parts.append("1" if not m else "*".join(m))
        return " + ".join(parts)


@dataclass(frozen=True)
class AlgebraicSystem:
    rounds: int
    equations: tuple[Equation, ...]
    variables: tuple[str, ...]  # all variables, knowns (x, c) included
    knowns: frozenset[str]

    def nonlinear_equations(self) -> list[Equation]:
        return [e for e in self.equations if not e.is_linear()]

    def count_after_linear_elimination(self) -> int:
        """Unknowns left after each linear equation eliminates its defined variable.

        Every linear equation in the system defines either a fresh y/u
        variable or, for the final whitening layer, pins one last-round-key
        bit to known ciphertext bits, so the greedy count is exact.
        """
        unknowns = set(self.variables) - self.knowns
        for e in self.equations:
            if e.is_linear():
                unknowns.discard(e.defined_var)
        return len(unknowns)

    def render(self) -> str:
        nonlin = self.nonlinear_equations()
        head = [
            f"# algebraic system over GF(2) for {self.rounds} round(s)",
            f"# equations: {len(self.equations)} total, {len(nonlin)} nonlinear"
            f" (degree {max((e.degree() for e in nonlin), default=0)})",
            f"# variables: {len(self.variables)} named, of which"
            f" {len(self.knowns)} known (plaintext x*, ciphertext c*);"
            f" {self.count_after_linear_elimination()} unknowns remain after"
            " eliminating linearly defined variables",
            "# variable order: " + ", ".join(_order_note(self.rounds)),
            "# one polynomial per line, each equated to zero",
        ]
        return "\n".join(head + [e.render() for e in self.equations]) + "\n"


def _order_note(rounds: int) -> list[str]:
    parts = ["x0..x63"]
    for r in range(1, rounds + 1):  # k, y, z and, if the round diffuses, u
        parts += [f"{v}{r}_*" for v in ("kyzu" if round_shape(r)[1] else "kyz")]
    return parts + [f"k{rounds + 1}_*", "c0..c63"]


def _substituted_sbox_equation(
    anf_monomials: frozenset[int], leader: Sequence[str], inputs: Sequence[str], out: str
) -> Equation:
    names = list(leader) + list(inputs)
    monos = {(out,)}
    for mask in anf_monomials:
        m = tuple(sorted(names[k] for k in range(8) if (mask >> k) & 1))
        monos.symmetric_difference_update({m})
    return Equation(out, frozenset(monos))


def emit_algebraic_system(rounds: int) -> AlgebraicSystem:
    """Build the polynomial system of a ``rounds``-round encryption."""
    check_rounds(rounds)
    coord = [coordinate_anf(INRU, i).monomials for i in range(4)]
    variables: list[str] = [f"x{i}" for i in range(64)]
    equations: list[Equation] = []
    prev = [f"x{i}" for i in range(64)]

    for r in range(1, rounds + 1):
        kv = [f"k{r}_{i}" for i in range(64)]
        yv = [f"y{r}_{i}" for i in range(64)]
        zv = [f"z{r}_{i}" for i in range(64)]
        variables += kv + yv + zv
        for i in range(64):
            equations.append(
                Equation(yv[i], frozenset({(yv[i],), (kv[i],), (prev[i],)}))
            )
        # the chain runs in the round's direction, led by the key's first nibble in that order
        forward, diffused = round_shape(r)
        nibbles = range(16) if forward else range(15, -1, -1)
        leader = kv[4 * nibbles[0] : 4 * nibbles[0] + 4]
        for t in nibbles:
            ins = yv[4 * t : 4 * t + 4]
            for i in range(4):
                equations.append(_substituted_sbox_equation(coord[i], leader, ins, zv[4 * t + i]))
            leader = zv[4 * t : 4 * t + 4]
        prev = zv
        if diffused:
            uv = [f"u{r}_{i}" for i in range(64)]
            variables += uv
            # forward rounds: suffix xor, leader 0: u63 = z63, ui = zi + u(i+1);
            # backward rounds: prefix xor, leader 1: u0 = z0 + 1, ui = zi + u(i-1)
            carry = () if forward else ((),)
            for i in (range(63, -1, -1) if forward else range(64)):
                equations.append(
                    Equation(uv[i], frozenset({(uv[i],), (zv[i],), *carry}))
                )
                carry = ((uv[i],),)
            prev = uv

    last_key = [f"k{rounds + 1}_{i}" for i in range(64)]
    cv = [f"c{i}" for i in range(64)]
    variables += last_key + cv
    for i in range(64):
        equations.append(
            Equation(last_key[i], frozenset({(cv[i],), (prev[i],), (last_key[i],)}))
        )
    knowns = frozenset(f"x{i}" for i in range(64)) | frozenset(cv)
    return AlgebraicSystem(rounds, tuple(equations), tuple(variables), knowns)


def count_system_size(rounds: int) -> tuple[int, int]:
    """(nonlinear equation count, unknowns left after linear elimination).

    ``rounds`` 0 is the empty system: no equations, and the only unknowns
    are the 128 master-key bits.
    """
    if rounds == 0:
        return 0, 128
    system = emit_algebraic_system(rounds)
    return len(system.nonlinear_equations()), system.count_after_linear_elimination()


# -- trace substitution --------------------------------------------------------


def assignment_from_trace(m: Block, rk: RoundKeys, rounds: int) -> dict[str, int]:
    """Bit assignment of every system variable from an instrumented encryption."""
    ct, traces = encrypt_block_traced(m, rk, rounds=rounds)
    assign: dict[str, int] = {}

    def put(prefix: str, nibbles: Sequence[int]):
        for i in range(64):
            assign[f"{prefix}{i}"] = (nibbles[i >> 2] >> (3 - (i & 3))) & 1

    put("x", m.nibbles)
    put("c", ct.nibbles)
    for r in range(1, rounds + 2):
        put(f"k{r}_", rk.keys[r - 1].nibbles)
    for tr in traces:
        put(f"y{tr.index}_", tr.after_kxor)
        put(f"z{tr.index}_", tr.after_sbox)
        if tr.after_diffusion is not None:
            put(f"u{tr.index}_", tr.after_diffusion)
    return assign


def system_satisfied(
    system: AlgebraicSystem, assignments: Sequence[Mapping[str, int]]
) -> bool:
    """Check every equation against every assignment (bit-parallel across traces)."""
    packed: dict[str, int] = {}
    for var in system.variables:
        bits = 0
        for t, a in enumerate(assignments):
            bits |= (a[var] & 1) << t
        packed[var] = bits
    all_ones = (1 << len(assignments)) - 1
    for eq in system.equations:
        acc = 0
        for mono in eq.monomials:
            term = all_ones
            for v in mono:
                term &= packed[v]
            acc ^= term
        if acc:
            return False
    return True
