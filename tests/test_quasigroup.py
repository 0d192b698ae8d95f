import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from inru.quasigroup import (
    INRU,
    LatinSquareError,
    Quasigroup,
    check_latin,
    conjugate,
    format_square,
    has_proper_subquasigroup,
    is_medial,
    is_simple,
    load_square,
    parse_square,
)

from straightline import ORACLE_SQUARE


def test_embedded_square_matches_oracle_transcription():
    assert [list(r) for r in INRU.mul_table] == ORACLE_SQUARE


def test_known_products():
    assert INRU.mul(0x0, 0x0) == 0x5
    assert INRU.mul(0xB, 0x0) == 0x0
    assert INRU.mul(0xF, 0xE) == 0xF
    assert INRU.mul(0xB, 0x7) == 0x9


def test_known_divisions():
    assert INRU.ldiv(0x0, 0x5) == 0x0
    assert INRU.ldiv(0x5, 0x9) == 0x0
    assert INRU.rdiv(0x5, 0x0) == 0x0
    assert INRU.rdiv(0x0, 0x0) == 0xB


def test_division_identities_exhaustive():
    for a in range(16):
        for b in range(16):
            v = INRU.mul(a, b)
            assert INRU.ldiv(a, v) == b
            assert INRU.mul(a, INRU.ldiv(a, v)) == v
            assert INRU.rdiv(v, b) == a


def test_tables_are_bijective_per_row_and_column():
    for table in (INRU.mul_table, INRU.ldiv_table, INRU.rdiv_table):
        for i in range(16):
            assert sorted(table[i]) == list(range(16))
            assert sorted(table[r][i] for r in range(16)) == list(range(16))


def test_constructor_rejects_duplicate_column():
    identity = list(range(16))
    rows = [identity, identity] + [list(r) for r in INRU.mul_table[2:]]
    with pytest.raises(LatinSquareError, match="column"):
        Quasigroup(rows)


def test_constructor_rejects_duplicate_in_row():
    rows = [list(r) for r in INRU.mul_table]
    rows[3][0] = rows[3][1]
    with pytest.raises(LatinSquareError, match="row 3"):
        Quasigroup(rows)


def test_constructor_rejects_out_of_range():
    rows = [list(r) for r in INRU.mul_table]
    rows[0][0] = 16
    with pytest.raises(LatinSquareError, match="outside"):
        Quasigroup(rows)


def test_constructor_rejects_empty_table():
    with pytest.raises(LatinSquareError, match="no rows"):
        Quasigroup([])


def test_check_latin():
    assert check_latin(INRU.mul_table)
    transpose = [[INRU.mul_table[r][c] for r in range(16)] for c in range(16)]
    assert check_latin(transpose)
    bad = [list(r) for r in INRU.mul_table]
    bad[0][1] = bad[0][0]
    assert not check_latin(bad)


# -- string transformations -----------------------------------------------


def test_e_left_worked_example():
    assert INRU.e_left(0, (0, 0, 0)) == (5, 9, 2)


def test_e_left_chain_frozen_vector():
    # chained lookups b*0=0, 0*1=c, c*2=f, f*3=3 in the embedded square
    assert INRU.e_left(0xB, (0, 1, 2, 3)) == (0x0, 0xC, 0xF, 0x3)


def test_e_right_worked_example():
    assert INRU.e_right(0, (0, 0)) == (9, 5)


def test_d_left_worked_examples():
    assert INRU.d_left(0, (5, 9, 2)) == (0, 0, 0)
    assert INRU.d_left(0, (5,)) == (0,)


def test_d_right_inverts_e_right_example():
    assert INRU.d_right(0, (9, 5)) == (0, 0)


def test_empty_string_rejected():
    for fn in (INRU.e_left, INRU.e_right, INRU.d_left, INRU.d_right):
        with pytest.raises(ValueError):
            fn(0, ())


def test_round_trip_exhaustive_short_strings():
    for l in range(16):
        for length in (1, 2):
            for s in itertools.product(range(16), repeat=length):
                assert INRU.d_left(l, INRU.e_left(l, s)) == s
                assert INRU.e_left(l, INRU.d_left(l, s)) == s
                assert INRU.d_right(l, INRU.e_right(l, s)) == s
                assert INRU.e_right(l, INRU.d_right(l, s)) == s


@given(
    l=st.integers(0, 15),
    s=st.lists(st.integers(0, 15), min_size=1, max_size=64).map(tuple),
)
def test_round_trip_random_strings(l, s):
    assert INRU.d_left(l, INRU.e_left(l, s)) == s
    assert INRU.d_right(l, INRU.e_right(l, s)) == s


def test_round_trip_ten_thousand_trials():
    rnd = random.Random(1234)
    for _ in range(10_000):
        l = rnd.randrange(16)
        s = tuple(rnd.randrange(16) for _ in range(rnd.randint(1, 64)))
        assert INRU.d_left(l, INRU.e_left(l, s)) == s
        assert INRU.d_right(l, INRU.e_right(l, s)) == s


@given(
    l=st.integers(0, 15),
    s=st.lists(st.integers(0, 15), min_size=1, max_size=64).map(tuple),
)
def test_mirror_law(l, s):
    rev = tuple(reversed(s))
    assert INRU.e_right(l, s) == tuple(reversed(INRU.e_left(l, rev)))
    assert INRU.d_right(l, s) == tuple(reversed(INRU.d_left(l, rev)))


# -- structural checkers ----------------------------------------------------


def test_subquasigroup_scan(xor_quasigroup, z16_quasigroup):
    assert not has_proper_subquasigroup(INRU)
    assert has_proper_subquasigroup(xor_quasigroup)  # {0} is closed
    assert has_proper_subquasigroup(z16_quasigroup)


def test_mediality(xor_quasigroup, z16_quasigroup):
    medial, witness = is_medial(INRU)
    assert not medial
    x, y, u, v = witness
    assert INRU.mul(INRU.mul(x, y), INRU.mul(u, v)) != INRU.mul(
        INRU.mul(x, u), INRU.mul(y, v)
    )
    assert is_medial(xor_quasigroup) == (True, None)
    assert is_medial(z16_quasigroup) == (True, None)


def test_simplicity(z16_quasigroup):
    assert is_simple(INRU)
    assert not is_simple(z16_quasigroup)  # residues mod 8 form a proper congruence
    assert is_simple(Quasigroup([[0, 1], [1, 0]]))


def test_conjugates():
    left = conjugate(INRU, "left")
    assert check_latin(left.mul_table)
    # the left conjugate of the left conjugate is the original operation
    assert conjugate(left, "left").mul_table == INRU.mul_table
    right = conjugate(INRU, "right")
    assert check_latin(right.mul_table)
    xor = Quasigroup([[a ^ b for b in range(16)] for a in range(16)])
    assert conjugate(xor, "left").mul_table == xor.mul_table
    with pytest.raises(ValueError):
        conjugate(INRU, "up")


# -- mediality oracle agreement at order 4 ----------------------------------


def _abelian_group_tables_order4():
    z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    k4 = [[a ^ b for b in range(4)] for a in range(4)]
    tables = set()
    for base in (z4, k4):
        for sigma in itertools.permutations(range(4)):
            inv = [0] * 4
            for i, v in enumerate(sigma):
                inv[v] = i
            relabeled = tuple(
                tuple(inv[base[sigma[x]][sigma[y]]] for y in range(4)) for x in range(4)
            )
            tables.add(relabeled)
    return [list(map(list, t)) for t in tables]


def _automorphisms(group):
    autos = []
    for alpha in itertools.permutations(range(4)):
        if all(
            alpha[group[x][y]] == group[alpha[x]][alpha[y]]
            for x in range(4)
            for y in range(4)
        ):
            autos.append(alpha)
    return autos


def _is_toyoda_affine_brute_force(q):
    """Search all abelian structures, commuting automorphism pairs, constants.

    The commuting restriction is what Toyoda's theorem actually states;
    with non-commuting pairs the affine class is strictly larger than the
    medial one (order 4 already has such squares).
    """
    for g in _abelian_group_tables_order4():
        autos = _automorphisms(g)
        for alpha in autos:
            for beta in autos:
                if any(alpha[beta[x]] != beta[alpha[x]] for x in range(4)):
                    continue
                for c in range(4):
                    if all(
                        q.mul(x, y) == g[g[alpha[x]][beta[y]]][c]
                        for x in range(4)
                        for y in range(4)
                    ):
                        return True
    return False


def _random_latin_square(order, rnd):
    while True:
        rows = []
        ok = True
        for r in range(order):
            cols_used = [set(row[c] for row in rows) for c in range(order)]
            row = _fill_row(order, cols_used, rnd)
            if row is None:
                ok = False
                break
            rows.append(row)
        if ok:
            return rows


def _fill_row(order, cols_used, rnd, col=0, row=None):
    if row is None:
        row = []
    if col == order:
        return row
    options = [v for v in range(order) if v not in row and v not in cols_used[col]]
    rnd.shuffle(options)
    for v in options:
        result = _fill_row(order, cols_used, rnd, col + 1, row + [v])
        if result is not None:
            return result
    return None


def test_mediality_matches_toyoda_affine_search_at_order_4():
    rnd = random.Random(99)
    squares = [_random_latin_square(4, rnd) for _ in range(20)]
    # add known-medial squares so both branches are exercised
    for g in _abelian_group_tables_order4()[:4]:
        autos = _automorphisms(g)
        alpha, beta = autos[0], autos[-1]
        squares.append(
            [[g[g[alpha[x]][beta[y]]][2] for y in range(4)] for x in range(4)]
        )
    exercised = set()
    for rows in squares:
        q = Quasigroup(rows)
        medial, _ = is_medial(q)
        affine = _is_toyoda_affine_brute_force(q)
        assert medial == affine
        exercised.add(medial)
    assert exercised == {True, False}


# -- serialization -----------------------------------------------------------


def test_square_text_round_trip():
    text = format_square(INRU.mul_table)
    assert parse_square(text) == [list(r) for r in INRU.mul_table]


def test_parse_square_rejects_garbage():
    with pytest.raises(LatinSquareError, match="line 1"):
        parse_square("5 c 1 zz\n")


def test_packaged_square_file_matches_oracle_transcription():
    # INRU is read from this file, so it is checked against the oracle's
    # independent copy, not against INRU itself.
    from importlib.resources import as_file, files

    square = files("inru.data").joinpath("inru_square.txt")
    assert parse_square(square.read_text()) == ORACLE_SQUARE
    with as_file(square) as path:
        assert [list(r) for r in load_square(path).mul_table] == ORACLE_SQUARE
