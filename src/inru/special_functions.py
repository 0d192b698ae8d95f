"""Self-contained erfc / incomplete-gamma used for p-values.

The battery's p-values all reduce to the regularized upper incomplete
gamma function Q(a, x) and the complementary error function.  Both are
implemented here with the classical pair of expansions so results are
bit-for-bit reproducible across platforms and libm builds:

* for x < a + 1 the power series of the lower function P(a, x),
* for x >= a + 1 the continued fraction of Q(a, x), evaluated with the
  modified Lentz algorithm,

scaled by exp(a*ln x - x - lgamma(a)).  erfc comes from the identity
erfc(x) = Q(1/2, x^2) for x >= 0 plus the reflection erfc(-x) = 2 - erfc(x).
Target accuracy is 1e-10 relative, checked against independent
implementations in the test suite.
"""

from __future__ import annotations

import math

_EPS = 1e-16
_TINY = 1e-300
_MAX_ITER = 20000


def _scale(a: float, x: float) -> float:
    # x^a e^-x / Gamma(a), computed in log space to dodge overflow
    return math.exp(a * math.log(x) - x - math.lgamma(a))


def _lower_series(a: float, x: float) -> float:
    """P(a, x) by its power series (for x < a + 1)."""
    term = 1.0 / a
    total = term
    k = a
    for _ in range(_MAX_ITER):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * _scale(a, x)
    raise ArithmeticError(f"incomplete gamma series failed to converge for a={a}, x={x}")


def _upper_continued_fraction(a: float, x: float) -> float:
    """Q(a, x) by continued fraction with modified Lentz (for x >= a + 1)."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return _scale(a, x) * h
    raise ArithmeticError(f"igamc continued fraction failed for a={a}, x={x}")


def igamc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a)."""
    if a <= 0:
        raise ValueError("igamc needs a > 0")
    if x < 0:
        raise ValueError("igamc needs x >= 0")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _lower_series(a, x)
    return _upper_continued_fraction(a, x)


def erfc(x: float) -> float:
    """Complementary error function via the incomplete gamma identity."""
    if x == 0.0:
        return 1.0
    if x < 0:
        return 2.0 - erfc(-x)
    return igamc(0.5, x * x)


# From |x| = 40 on, the scale factor of erfc(|x| / sqrt(2)) underflows to
# exactly 0, so Phi(x) is exactly 1 or 0.
PHI_SATURATED = 40.0


def normal_cdf(x: float) -> float:
    """Standard normal distribution function Phi(x); exactly 0 or 1 past +-40."""
    if abs(x) >= PHI_SATURATED:
        return 1.0 if x > 0 else 0.0
    return 0.5 * erfc(-x / math.sqrt(2.0))
