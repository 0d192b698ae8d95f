import math

import numpy as np
import pytest
from scipy import special as sp

from inru.special_functions import erfc, igamc, normal_cdf

REL_TOL = 1e-10


def test_erfc_against_stdlib_and_scipy():
    xs = np.concatenate([np.linspace(-6, 6, 241), [1e-9, -1e-9, 8.0, 12.0, 20.0]])
    for x in xs:
        mine = erfc(float(x))
        assert mine == pytest.approx(math.erfc(x), rel=REL_TOL, abs=1e-300)
        assert mine == pytest.approx(float(sp.erfc(x)), rel=REL_TOL, abs=1e-300)


def test_erfc_edge_values():
    assert erfc(0.0) == 1.0
    assert erfc(-3.0) == pytest.approx(2.0 - erfc(3.0), rel=1e-14)


def test_igamc_against_scipy_over_grid():
    for a in (0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 64.0, 512.0, 2048.0, 16384.0):
        for frac in (1e-3, 0.1, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 5.0):
            x = a * frac
            ref = float(sp.gammaincc(a, x))
            if ref < 1e-290:
                continue
            assert igamc(a, x) == pytest.approx(ref, rel=REL_TOL)


def test_igamc_special_cases():
    assert igamc(1.0, 0.0) == 1.0
    # Q(1, x) is exactly exp(-x)
    for x in (0.1, 1.0, 5.0, 30.0):
        assert igamc(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)


def test_igamc_rejects_bad_arguments():
    with pytest.raises(ValueError):
        igamc(0.0, 1.0)
    with pytest.raises(ValueError):
        igamc(1.0, -0.5)


def test_normal_cdf():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.96) == pytest.approx(0.9750021048517796, rel=1e-12)
    assert normal_cdf(-1.96) == pytest.approx(1 - 0.9750021048517796, rel=1e-9)


def test_normal_cdf_is_exactly_0_or_1_from_40_on():
    # The shortcut past +-40 returns what the erfc formula gives there, so
    # the cumulative sums p-values that read Phi far out are unchanged.
    xs = np.concatenate([[40.0, np.nextafter(40.0, 41.0)], np.geomspace(40.0, 1e7, 400)])
    for x in map(float, xs):
        assert normal_cdf(x) == 0.5 * erfc(-x / math.sqrt(2.0)) == 1.0
        assert normal_cdf(-x) == 0.5 * erfc(x / math.sqrt(2.0)) == 0.0
    # just inside the band it still reads the formula
    assert normal_cdf(-38.0) == 0.5 * erfc(38.0 / math.sqrt(2.0)) > 0.0
