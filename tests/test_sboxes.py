import numpy as np
import pytest

from inru.quasigroup import INRU, Quasigroup
from inru.sboxes import build_ddt, build_lat, render_ddt, render_lat, row_sbox, wide_sbox

# maxima frozen from an independent broadcasting-based recount (see oracles below)
WIDE_DDT_MAX = 42
WIDE_LAT_MAX = 32
ROW_DDT_MAX = 12
ROW_LAT_MAX = 8


def _independent_ddt_max(table, input_bits):
    size = 1 << input_bits
    t = np.array(table, dtype=np.int64)
    x = np.arange(size)
    best = 0
    for din in range(1, size):
        best = max(best, int(np.bincount(t[x] ^ t[x ^ din], minlength=16).max()))
    return best


def _independent_lat_max(table, input_bits):
    size = 1 << input_bits
    t = np.array(table, dtype=np.uint32)
    x = np.arange(size, dtype=np.uint32)
    best = 0
    for a in range(size):
        pa = np.bitwise_count(x & a) & 1
        for b in range(16):
            if a == 0 and b == 0:
                continue
            pb = np.bitwise_count(t & np.uint32(b)) & 1
            best = max(best, abs(int((pa == pb).sum()) - size // 2))
    return best


def test_row_sboxes_are_table_rows():
    for l in range(16):
        assert row_sbox(INRU, l).table == INRU.row(l)
        assert sorted(row_sbox(INRU, l).table) == list(range(16))


@pytest.mark.parametrize("leader", [-1, 16, 31])
def test_row_sbox_rejects_leaders_outside_the_square(leader):
    with pytest.raises(ValueError, match=f"leader must be in 0..15, got {leader}"):
        row_sbox(INRU, leader)


CYCLIC_3 = Quasigroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
KLEIN_4 = Quasigroup([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])


@pytest.mark.parametrize("q", [CYCLIC_3, KLEIN_4], ids=["order3", "order4"])
@pytest.mark.parametrize("view", [wide_sbox, lambda q: row_sbox(q, 0)], ids=["wide", "row"])
def test_views_name_a_quasigroup_order_other_than_16(view, q):
    with pytest.raises(ValueError, match=f"need a quasigroup of order 16, got order {q.order}$"):
        view(q)


def test_wide_sbox_packs_leader_high():
    wide = wide_sbox(INRU)
    for l in range(16):
        for x in range(16):
            assert wide.table[(l << 4) | x] == INRU.mul(l, x)


def test_views_are_consistent():
    wide = wide_sbox(INRU)
    for l in range(16):
        row = row_sbox(INRU, l)
        assert tuple(wide.table[(l << 4) | x] for x in range(16)) == row.table


def test_ddt_structure_row_sboxes():
    for l in range(16):
        ddt = build_ddt(row_sbox(INRU, l))
        assert np.all(ddt.row_sums() == 16)
        assert ddt.counts[0, 0] == 16
        assert np.all(ddt.counts[0, 1:] == 0)


def test_ddt_structure_wide():
    ddt = build_ddt(wide_sbox(INRU))
    assert np.all(ddt.row_sums() == 256)
    assert ddt.counts[0, 0] == 256
    assert np.all(ddt.counts[0, 1:] == 0)


def test_lat_structure():
    for view in [wide_sbox(INRU)] + [row_sbox(INRU, l) for l in range(16)]:
        lat = build_lat(view)
        half = (1 << view.input_bits) // 2
        assert lat.bias[0, 0] == half
        # nonzero input masks of a balanced map are unbiased against output mask 0
        assert np.all(lat.bias[1:, 0] == 0)


def test_wide_maxima_match_independent_recount():
    wide = wide_sbox(INRU)
    ddt, lat = build_ddt(wide), build_lat(wide)
    assert ddt.max_nonzero() == _independent_ddt_max(wide.table, 8) == WIDE_DDT_MAX
    assert lat.max_abs_nonzero() == _independent_lat_max(wide.table, 8) == WIDE_LAT_MAX


def test_row_maxima_match_independent_recount():
    got_ddt = max(build_ddt(row_sbox(INRU, l)).max_nonzero() for l in range(16))
    got_lat = max(build_lat(row_sbox(INRU, l)).max_abs_nonzero() for l in range(16))
    ind_ddt = max(_independent_ddt_max(INRU.row(l), 4) for l in range(16))
    ind_lat = max(_independent_lat_max(INRU.row(l), 4) for l in range(16))
    assert got_ddt == ind_ddt == ROW_DDT_MAX
    assert got_lat == ind_lat == ROW_LAT_MAX


def test_renderers_include_convention_notes():
    wide = wide_sbox(INRU)
    ddt_text = render_ddt(wide, build_ddt(wide))
    assert "input difference" in ddt_text and "42" in ddt_text
    lat_text = render_lat(wide, build_lat(wide))
    assert "signed bias" in lat_text and "half the input space" in lat_text


def test_view_validation():
    from inru.sboxes import SboxView

    with pytest.raises(ValueError):
        SboxView("row", 4, 4, (0, 1, 2))
