from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from inru.anf import (
    PRODUCT_VAR_NAMES,
    Anf,
    algebraic_degree,
    coordinate_anf,
    moebius_transform,
)
from inru.quasigroup import INRU, conjugate

EXPECTED_FILE = Path(__file__).parent / "data" / "coordinate_anf_expected.txt"


def load_expected():
    expected = {}
    for line in EXPECTED_FILE.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        coord, poly = line.split(":", 1)
        expected[int(coord.removeprefix("coord"))] = Anf.from_str(
            poly, PRODUCT_VAR_NAMES
        )
    return expected


@given(st.lists(st.integers(0, 1), min_size=8, max_size=8))
def test_moebius_transform_is_an_involution(tt):
    assert moebius_transform(moebius_transform(tt)) == tt


def test_moebius_rejects_bad_length():
    with pytest.raises(ValueError):
        moebius_transform([0, 1, 1])


def test_coordinate_anf_exactly_matches_frozen_polynomials():
    expected = load_expected()
    for i in range(4):
        assert coordinate_anf(INRU, i).monomials == expected[i].monomials, f"coord {i}"


def test_coordinate3_contains_documented_monomials():
    # the least-significant output coordinate carries the x0*x1*x2*y0*y1*y2
    # monomial and a constant term
    c3 = coordinate_anf(INRU, 3)
    mono = sum(1 << k for k in (0, 1, 2, 4, 5, 6))
    assert mono in c3.monomials
    assert 0 in c3.monomials  # constant term


def _anf_reproduces_table(q):
    for i in range(4):
        anf = coordinate_anf(q, i)
        for a in range(16):
            for b in range(16):
                point = 0
                for k in range(4):
                    point |= ((a >> (3 - k)) & 1) << k
                    point |= ((b >> (3 - k)) & 1) << (k + 4)
                assert anf.evaluate(point) == (q.mul(a, b) >> (3 - i)) & 1
    return True


def test_anf_fidelity_against_multiplication_tables(xor_quasigroup):
    assert _anf_reproduces_table(INRU)
    assert _anf_reproduces_table(conjugate(INRU, "left"))
    assert _anf_reproduces_table(xor_quasigroup)


def test_xor_quasigroup_coordinates_are_linear(xor_quasigroup):
    for i in range(4):
        anf = coordinate_anf(xor_quasigroup, i)
        assert anf.monomials == frozenset({1 << i, 1 << (i + 4)})
        assert anf.degree() == 1


@pytest.mark.parametrize("mask", range(1, 16))
def test_degree_six_for_all_nonzero_masks(mask):
    assert algebraic_degree(INRU, mask) == 6


@pytest.mark.parametrize("mask", range(1, 16))
def test_degree_six_for_left_conjugate(mask):
    assert algebraic_degree(conjugate(INRU, "left"), mask) == 6


def test_degree_one_for_xor(xor_quasigroup):
    for mask in range(1, 16):
        assert algebraic_degree(xor_quasigroup, mask) == 1


def test_degree_rejects_bad_mask():
    with pytest.raises(ValueError):
        algebraic_degree(INRU, 0)
    with pytest.raises(ValueError):
        algebraic_degree(INRU, 16)


def test_anf_xor_and_degree():
    a = Anf(4, frozenset({0b0011, 0b0001}))
    b = Anf(4, frozenset({0b0011}))
    assert (a ^ b).monomials == frozenset({0b0001})
    assert a.degree() == 2
    assert Anf(4, frozenset()).degree() == -1
    assert Anf(4, frozenset({0})).degree() == 0
