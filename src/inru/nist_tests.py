"""Ten statistical randomness tests with the standard suite's statistics.

Each test maps a numpy array of 0/1 bits to one or two p-values.  Test ids
follow the usual abbreviations: Freq, BF, Run, LRO, CSF, CSB, Srl, AE,
DFT, Rank.  Default parameters are chosen from the sequence length by the
suite's recommendations and are recorded in every result.

Conventions pinned here because more than one variant circulates:

* the spectral test uses the 0.95 threshold sqrt(n * ln(1/0.05)) over the
  first n/2 DFT moduli (DC included) and the corrected variance constant
  n * 0.95 * 0.05 / 4 in the denominator of its normal statistic;
* the rank test derives its three category probabilities from the exact
  GF(2) rank distribution formula rather than hardcoding them;
* a sequence shorter than a test's minimum length (NIST SP 800-22 Rev. 1a,
  per test) gets a result with ``applicable=False``, no p-value and a note
  naming the minimum, never an error.  Invalid parameters still raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .special_functions import erfc, igamc, normal_cdf


@dataclass(frozen=True)
class TestResult:
    test: str
    p_values: tuple[float, ...]
    params: dict = field(default_factory=dict)
    applicable: bool = True
    note: str = ""

    def passed(self, alpha: float = 0.01) -> bool:
        return self.applicable and all(p >= alpha for p in self.p_values)


def _as_bits(seq) -> np.ndarray:
    bits = np.asarray(seq, dtype=np.uint8)
    if bits.ndim != 1 or bits.size == 0:
        raise ValueError("bit sequence must be a nonempty 1-d array")
    return bits


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _too_short(test: str, n: int, need: int, **params) -> TestResult:
    """The result of a test whose minimum length ``need`` exceeds ``n``."""
    return TestResult(
        test, (), {"n": n, **params}, applicable=False,
        note=f"needs at least {need} bits, got {n}",
    )


# -- individual tests ----------------------------------------------------------


def frequency(seq) -> TestResult:
    """Monobit test: excess of ones over zeros."""
    bits = _as_bits(seq)
    n = bits.size
    s = 2 * int(bits.sum()) - n
    p = erfc(abs(s) / math.sqrt(2.0 * n))
    return TestResult("Freq", (p,), {"n": n})


def default_block_size(n: int) -> int:
    return max(20, n // 64)


def block_frequency(seq, block_size: int | None = None) -> TestResult:
    bits = _as_bits(seq)
    n = bits.size
    m = default_block_size(n) if block_size is None else block_size
    _require(m >= 2, f"block size {m} too small")
    nblocks = n // m
    if nblocks < 1:
        return _too_short("BF", n, m, M=m)
    pi = bits[: nblocks * m].reshape(nblocks, m).mean(axis=1)
    chi2 = 4.0 * m * float(((pi - 0.5) ** 2).sum())
    p = igamc(nblocks / 2.0, chi2 / 2.0)
    return TestResult("BF", (p,), {"n": n, "M": m, "N": nblocks})


def runs(seq) -> TestResult:
    bits = _as_bits(seq)
    n = bits.size
    if n < 2:
        return _too_short("Run", n, 2)
    pi = float(bits.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return TestResult(
            "Run", (), {"n": n}, applicable=False,
            note="frequency prerequisite failed, runs test not applicable",
        )
    v = 1 + int((bits[1:] != bits[:-1]).sum())
    num = abs(v - 2.0 * n * pi * (1 - pi))
    p = erfc(num / (2.0 * math.sqrt(2.0 * n) * pi * (1 - pi)))
    return TestResult("Run", (p,), {"n": n})


# (block size, degrees of freedom, category lower edges, category probabilities)
_LRO_REGIMES = (
    (128, 8, 3, (1, 2, 3, 4), (0.2148, 0.3672, 0.2305, 0.1875)),
    (6272, 128, 5, (4, 5, 6, 7, 8, 9),
     (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (750000, 10**4, 6, (10, 11, 12, 13, 14, 15, 16),
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
)


def longest_run_of_ones(seq) -> TestResult:
    bits = _as_bits(seq)
    n = bits.size
    if n < 128:
        return _too_short("LRO", n, 128)
    for min_n, m, k, edges, probs in reversed(_LRO_REGIMES):
        if n >= min_n:
            break
    nblocks = n // m
    blocks = bits[: nblocks * m].reshape(nblocks, m)

    # run lengths of ones, attributed to their block via a separator column
    padded = np.concatenate([blocks, np.zeros((nblocks, 1), np.uint8)], axis=1).ravel()
    d = np.diff(np.concatenate([[0], padded]).astype(np.int8))
    starts = np.flatnonzero(d == 1)
    ends = np.flatnonzero(d == -1)  # every run ends: each row gets a separator
    longest = np.zeros(nblocks, dtype=np.int64)
    np.maximum.at(longest, starts // (m + 1), ends - starts)

    counts = np.zeros(len(edges), dtype=np.int64)
    clipped = np.clip(longest, edges[0], edges[-1])
    for i, edge in enumerate(edges):
        counts[i] = int((clipped == edge).sum())
    expected = nblocks * np.array(probs)
    chi2 = float((((counts - expected) ** 2) / expected).sum())
    p = igamc(k / 2.0, chi2 / 2.0)
    return TestResult("LRO", (p,), {"n": n, "M": m, "N": nblocks, "K": k})


def cumulative_sums(seq, direction: str = "forward") -> TestResult:
    bits = _as_bits(seq)
    n = bits.size
    _require(direction in ("forward", "backward"), f"bad direction {direction!r}")
    x = (2 * bits.astype(np.int64) - 1)
    if direction == "backward":
        x = x[::-1]
    z = int(np.abs(np.cumsum(x)).max())
    if z == 0:
        return TestResult("CSF" if direction == "forward" else "CSB", (0.0,), {"n": n})
    sqn = math.sqrt(n)
    total = 1.0
    for k in range(int(math.floor((-n / z + 1) / 4)), int(math.floor((n / z - 1) / 4)) + 1):
        total -= normal_cdf((4 * k + 1) * z / sqn) - normal_cdf((4 * k - 1) * z / sqn)
    for k in range(int(math.floor((-n / z - 3) / 4)), int(math.floor((n / z - 1) / 4)) + 1):
        total += normal_cdf((4 * k + 3) * z / sqn) - normal_cdf((4 * k + 1) * z / sqn)
    p = min(max(total, 0.0), 1.0)
    return TestResult("CSF" if direction == "forward" else "CSB", (p,), {"n": n, "z": z})


def _pattern_counts(bits: np.ndarray, m: int) -> np.ndarray:
    """Counts of all overlapping m-bit patterns of the circularly extended sequence."""
    n = bits.size
    ext = np.concatenate([bits, bits[: m - 1]]) if m > 1 else bits
    vals = np.zeros(n, dtype=np.uint32)
    for k in range(m):
        vals = (vals << np.uint32(1)) | ext[k : k + n]
    return np.bincount(vals, minlength=1 << m)


def _psi_sq(bits: np.ndarray, m: int) -> float:
    if m == 0:
        return 0.0
    n = bits.size
    c = _pattern_counts(bits, m).astype(np.float64)
    return float((1 << m) / n * (c * c).sum() - n)


def default_serial_length(n: int) -> int:
    return max(3, min(16, int(math.floor(math.log2(n))) - 3))


def serial(seq, pattern_length: int | None = None) -> TestResult:
    """Serial test; yields two p-values (first and second generalized difference)."""
    bits = _as_bits(seq)
    n = bits.size
    m = default_serial_length(n) if pattern_length is None else pattern_length
    _require(3 <= m <= 24, f"pattern length {m} out of range")
    if n < 1 << (m + 2):
        return _too_short("Srl", n, 1 << (m + 2), m=m)
    psi_m = _psi_sq(bits, m)
    psi_m1 = _psi_sq(bits, m - 1)
    psi_m2 = _psi_sq(bits, m - 2)
    d1 = psi_m - psi_m1
    d2 = psi_m - 2.0 * psi_m1 + psi_m2
    p1 = igamc(2 ** (m - 2), d1 / 2.0)
    p2 = igamc(2 ** (m - 3), d2 / 2.0)
    return TestResult("Srl", (p1, p2), {"n": n, "m": m})


def default_apen_length(n: int) -> int:
    return max(2, min(10, int(math.floor(math.log2(n))) - 6))


def approximate_entropy(seq, pattern_length: int | None = None) -> TestResult:
    bits = _as_bits(seq)
    n = bits.size
    m = default_apen_length(n) if pattern_length is None else pattern_length
    _require(1 <= m <= 20, f"pattern length {m} out of range")
    if n < 1 << (m + 2):
        return _too_short("AE", n, 1 << (m + 2), m=m)

    def phi(mm: int) -> float:
        c = _pattern_counts(bits, mm).astype(np.float64) / n
        nz = c[c > 0]
        return float((nz * np.log(nz)).sum())

    apen = phi(m) - phi(m + 1)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    p = igamc(2 ** (m - 1), chi2 / 2.0)
    return TestResult("AE", (p,), {"n": n, "m": m})


def dft_spectral(seq) -> TestResult:
    bits = _as_bits(seq)
    n = bits.size
    if n < 1000:
        return _too_short("DFT", n, 1000)
    x = 2.0 * bits.astype(np.float64) - 1.0
    moduli = np.abs(np.fft.rfft(x))[: n // 2]
    threshold = math.sqrt(n * math.log(1 / 0.05))
    n0 = 0.95 * n / 2.0
    n1 = int((moduli < threshold).sum())
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    p = erfc(abs(d) / math.sqrt(2.0))
    return TestResult("DFT", (p,), {"n": n, "N1": n1})


def gf2_rank(rows: list[int], ncols: int) -> int:
    """Rank of a binary matrix whose rows are packed into integers."""
    basis: dict[int, int] = {}  # leading bit -> reduced row
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
        if len(basis) == ncols:
            break
    return len(basis)


def _rank_probability(m: int, q: int, r: int) -> float:
    log2p = float(r * (m + q - r) - m * q)
    prod = 1.0
    for i in range(r):
        prod *= (1 - 2.0 ** (i - m)) * (1 - 2.0 ** (i - q)) / (1 - 2.0 ** (i - r))
    return (2.0**log2p) * prod


def matrix_rank(seq, rows: int = 32, cols: int = 32) -> TestResult:
    bits = _as_bits(seq)
    n = bits.size
    nmat = n // (rows * cols)
    if nmat < 38:
        return _too_short("Rank", n, 38 * rows * cols)
    mats = bits[: nmat * rows * cols].reshape(nmat, rows, cols)
    weights = (1 << np.arange(cols - 1, -1, -1, dtype=np.uint64))
    packed = (mats.astype(np.uint64) * weights).sum(axis=2)
    full, fm1, lower = 0, 0, 0
    for j in range(nmat):
        r = gf2_rank([int(v) for v in packed[j]], cols)
        if r == rows:
            full += 1
        elif r == rows - 1:
            fm1 += 1
        else:
            lower += 1
    p_full = _rank_probability(rows, cols, rows)
    p_fm1 = _rank_probability(rows, cols, rows - 1)
    p_low = 1.0 - p_full - p_fm1
    chi2 = (
        (full - nmat * p_full) ** 2 / (nmat * p_full)
        + (fm1 - nmat * p_fm1) ** 2 / (nmat * p_fm1)
        + (lower - nmat * p_low) ** 2 / (nmat * p_low)
    )
    p = igamc(1.0, chi2 / 2.0)
    return TestResult("Rank", (p,), {"n": n, "matrices": nmat})


# Battery order mirrors the report tables.
ALL_TESTS = {
    "AE": approximate_entropy,
    "BF": block_frequency,
    "CSF": lambda s: cumulative_sums(s, "forward"),
    "CSB": lambda s: cumulative_sums(s, "backward"),
    "DFT": dft_spectral,
    "Freq": frequency,
    "LRO": longest_run_of_ones,
    "Rank": matrix_rank,
    "Run": runs,
    "Srl": serial,
}

TEST_NAMES = {
    "AE": "Approximate Entropy",
    "BF": "Block Frequency",
    "CSF": "Cumulative Sums Forward",
    "CSB": "Cumulative Sums Backward",
    "DFT": "Discrete Fourier Transform",
    "Freq": "Frequency",
    "LRO": "Longest Run of Ones",
    "Rank": "Binary Matrix Rank",
    "Run": "Runs",
    "Srl": "Serial",
}
