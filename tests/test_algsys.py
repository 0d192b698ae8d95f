import hashlib
import random

import pytest

from inru.algsys import (
    assignment_from_trace,
    count_system_size,
    emit_algebraic_system,
    system_satisfied,
)
from inru.cipher import Block, Diversifier, MasterKey, expand_key


def equations_by_var(system):
    return {e.defined_var: e for e in system.equations}


def test_key_xor_equations_round_one():
    system = emit_algebraic_system(1)
    by_var = equations_by_var(system)
    for i in range(64):
        eq = by_var[f"y1_{i}"]
        assert eq.monomials == frozenset({(f"y1_{i}",), (f"k1_{i}",), (f"x{i}",)})
        assert eq.render() == f"y1_{i} + k1_{i} + x{i}"


def test_rendered_systems_of_every_round_count_are_pinned():
    text = "".join(emit_algebraic_system(r).render() for r in range(1, 17))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "baee83c2f337cfde53f64ad5b764c926480542895d701c221a54d8518bacde4b"
    )


def test_odd_round_diffusion_equations():
    by_var = equations_by_var(emit_algebraic_system(1))
    assert by_var["u1_63"].monomials == frozenset({("u1_63",), ("z1_63",)})
    assert by_var["u1_62"].monomials == frozenset({("u1_62",), ("z1_62",), ("u1_63",)})


def test_even_round_diffusion_has_leader_constant():
    by_var = equations_by_var(emit_algebraic_system(2))
    assert by_var["u2_0"].monomials == frozenset({("u2_0",), ("z2_0",), ()})
    assert by_var["u2_1"].monomials == frozenset({("u2_1",), ("z2_1",), ("u2_0",)})


def test_sbox_equations_have_degree_six():
    system = emit_algebraic_system(2)
    degrees = {e.degree() for e in system.nonlinear_equations()}
    assert degrees == {6}


def test_final_round_16_has_no_diffusion_layer():
    system = emit_algebraic_system(16)
    names = {e.defined_var for e in system.equations}
    assert "u15_0" in names and "u16_0" not in names
    by_var = equations_by_var(system)
    assert by_var["k17_0"].monomials == frozenset({("c0",), ("z16_0",), ("k17_0",)})


def test_reduced_final_round_keeps_diffusion():
    by_var = equations_by_var(emit_algebraic_system(2))
    assert by_var["k3_0"].monomials == frozenset({("c0",), ("u2_0",), ("k3_0",)})


@pytest.mark.parametrize(
    "rounds,nonlinear,variables",
    [(0, 0, 128), (1, 64, 128), (2, 128, 256), (16, 1024, 2048)],
)
def test_system_sizes(rounds, nonlinear, variables):
    assert count_system_size(rounds) == (nonlinear, variables)


def test_emit_validates_rounds():
    for bad in (0, 17):
        with pytest.raises(ValueError):
            emit_algebraic_system(bad)


def test_render_header_and_shape():
    text = emit_algebraic_system(2).render()
    lines = text.splitlines()
    assert lines[0].startswith("# algebraic system over GF(2) for 2 round")
    assert "128 nonlinear" in lines[1]
    assert "256 unknowns remain" in lines[2]
    polys = [l for l in lines if not l.startswith("#")]
    # 2 rounds: 128 key-xor + 128 sbox + 128 diffusion + 64 output equations
    assert len(polys) == 448


@pytest.mark.parametrize("rounds", [1, 2, 3, 4])
def test_system_satisfied_by_instrumented_traces(rounds):
    rnd = random.Random(rounds)
    system = emit_algebraic_system(rounds)
    assigns = []
    for _ in range(100):
        key = MasterKey(tuple(rnd.randrange(16) for _ in range(32)))
        iv = Diversifier(tuple(rnd.randrange(16) for _ in range(16)))
        m = Block(tuple(rnd.randrange(16) for _ in range(16)))
        assigns.append(assignment_from_trace(m, expand_key(key, iv), rounds))
    assert system_satisfied(system, assigns)


def test_corrupted_trace_fails():
    system = emit_algebraic_system(2)
    rks = expand_key(MasterKey.zero())
    assign = assignment_from_trace(Block.zero(), rks, 2)
    assert system_satisfied(system, [assign])
    assign["z2_11"] ^= 1
    assert not system_satisfied(system, [assign])
