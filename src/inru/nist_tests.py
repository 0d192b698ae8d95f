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

Every test runs as a few numpy passes; none loops in Python over bits,
windows or matrices.  Beyond its input, no kernel but DFT holds more
than about one byte per bit of the sequence, so the battery can run DFT,
whose FFT needs ~32 bytes a bit, beside the other nine:

* Serial and approximate entropy count m-bit windows of the circularly
  extended sequence from its packed bytes (:func:`_pattern_counts`): one
  big-endian 32-bit word per byte offset, then one shift, mask and
  count per bit offset inside the byte.  Each test counts once, at
  its longest length, and folds the counts down.  Every position's
  (m-1)-bit window is the prefix of its m-bit window, so
  c_(m-1)[v] = c_m[2v] + c_m[2v+1] holds exactly (:func:`_fold`).
* The longest-run test needs each block's longest run only up to its last
  category (16 at most), so it and-shifts one copy of the blocks once per
  run length instead of locating every run.
* Rank eliminates over GF(2) on all matrices at once, one step per
  column on a (matrices, rows) array of 64-bit row words
  (:func:`_gf2_ranks`); :func:`gf2_rank` is the one-matrix reference.
* The cumulative sums tests scan the random walk S_0 = 0, S_1, ..., S_n
  in chunks of ``int32`` cumsums, carrying S and its extremes.  Forward,
  z = max(max S, -min S); backward, the partial sums from the end are
  S_n - S_k for k < n, so z needs no reversed copy.

These kernels give the same counts, and so bit-identical p-values, as the
direct loops they replaced; the tests hold each to such a loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .special_functions import erfc, igamc, normal_cdf


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # a result record, not a pytest test class

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
    # Below 16 bits 2/sqrt(n) > 1/2, so a constant sequence passes the
    # frequency bound; pi(1 - pi) = 0 fails the prerequisite all the same.
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n) or pi * (1 - pi) == 0:
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

    # Each block's longest run, clipped above at the last category: after
    # pass j, ones[:, i] says whether a run of at least j + 1 ones starts
    # at bit i of the block, so the passes count the run lengths present.
    ones = blocks.copy()
    longest = ones.any(axis=1).astype(np.int64)
    for j in range(1, edges[-1]):
        ones[:, : m - j] &= blocks[:, j:]
        ones[:, m - j] = 0
        longest += ones.any(axis=1)

    counts = np.zeros(len(edges), dtype=np.int64)
    clipped = np.clip(longest, edges[0], edges[-1])
    for i, edge in enumerate(edges):
        counts[i] = int((clipped == edge).sum())
    expected = nblocks * np.array(probs)
    chi2 = float((((counts - expected) ** 2) / expected).sum())
    p = igamc(k / 2.0, chi2 / 2.0)
    return TestResult("LRO", (p,), {"n": n, "M": m, "N": nblocks, "K": k})


# Bits per step of the cumulative sums' scan: its int32 partial sums stay in cache.
_CHUNK_BITS = 1 << 16


def cumulative_sums(seq, direction: str = "forward") -> TestResult:
    bits = _as_bits(seq)
    n = bits.size
    _require(direction in ("forward", "backward"), f"bad direction {direction!r}")
    # S_k is the sum of the first k steps 2 * bit - 1, with S_0 = 0; scan
    # them a chunk at a time, carrying S at the chunk start and the extremes
    lo = hi = s_n = 0
    for start in range(0, n, _CHUNK_BITS):
        steps = bits[start : start + _CHUNK_BITS].view(np.int8) * np.int8(2)
        steps -= 1
        s = np.cumsum(steps, dtype=np.int32)
        lo = min(lo, s_n + int(s.min()))
        hi = max(hi, s_n + int(s.max()))
        s_n += int(s[-1])
    if direction == "forward":
        z = max(hi, -lo)
    else:  # the backward sums are S_n - S_k for k = n-1, ..., 0; k = n adds 0
        z = max(s_n - lo, hi - s_n)
    if z == 0:
        return TestResult("CSF" if direction == "forward" else "CSB", (0.0,), {"n": n})
    sqn = math.sqrt(n)
    first = range(int(math.floor((-n / z + 1) / 4)), int(math.floor((n / z - 1) / 4)) + 1)
    second = range(int(math.floor((-n / z - 3) / 4)), first.stop)
    # Both sums read Phi(j * z / sqrt(n)) only at the odd j from
    # 4 * second.start + 1 to 4 * first.stop - 1; evaluate each once.
    phi = {j: normal_cdf(j * z / sqn) for j in range(4 * second.start + 1, 4 * first.stop, 2)}
    total = 1.0
    for k in first:
        total -= phi[4 * k + 1] - phi[4 * k - 1]
    for k in second:
        total += phi[4 * k + 3] - phi[4 * k + 1]
    p = min(max(total, 0.0), 1.0)
    return TestResult("CSF" if direction == "forward" else "CSB", (p,), {"n": n, "z": z})


# Longest pattern _pattern_counts can read from one 32-bit word at any bit offset.
_MAX_WINDOW = 25


def _pattern_counts(bits: np.ndarray, m: int) -> np.ndarray:
    """Counts of all overlapping m-bit patterns of the circularly extended sequence.

    Entry v counts the positions whose m-bit window, read msb first, is v.
    The windows come from the packed bytes: word i is the big-endian 32-bit
    word at byte offset i, and the window at bit 8i + r is that word shifted
    right by 32 - r - m and masked.  Each bit offset r = 0..7 is counted on
    its own, so only n/8 windows exist at a time.
    """
    _require(1 <= m <= _MAX_WINDOW, f"pattern length {m} out of range")
    n = bits.size
    nbytes = (n + m + 6) // 8
    packed = np.zeros(nbytes + 3, dtype=np.uint8)
    packed[:nbytes] = np.packbits(np.resize(bits, n + m - 1))
    words = np.ndarray((nbytes,), ">u4", packed, strides=(1,)).astype(np.uint32)
    counts = np.zeros(1 << m, dtype=np.int64)
    windows = np.empty((n + 7) // 8, dtype=np.uint32)
    for r in range(8):
        out = windows[: (n - r + 7) // 8]
        np.right_shift(words[: out.size], 32 - r - m, out=out)
        out &= np.uint32((1 << m) - 1)
        np.add.at(counts, out, 1)
    return counts


def _fold(counts: np.ndarray) -> np.ndarray:
    """The (m-1)-bit pattern counts from the m-bit ones: c[v] = c[2v] + c[2v+1].

    Exact under the circular extension: every position's (m-1)-bit window
    is the prefix of its m-bit window.
    """
    return counts[0::2] + counts[1::2]


def _psi_sq(counts: np.ndarray, n: int) -> float:
    c = counts.astype(np.float64)
    return float(c.size / n * (c * c).sum() - n)


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
    counts = _pattern_counts(bits, m)
    psi_m = _psi_sq(counts, n)
    counts = _fold(counts)
    psi_m1 = _psi_sq(counts, n)
    psi_m2 = _psi_sq(_fold(counts), n)
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

    def phi(counts: np.ndarray) -> float:
        c = counts.astype(np.float64) / n
        nz = c[c > 0]
        return float((nz * np.log(nz)).sum())

    counts = _pattern_counts(bits, m + 1)
    apen = phi(_fold(counts)) - phi(counts)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    p = igamc(2 ** (m - 1), chi2 / 2.0)
    return TestResult("AE", (p,), {"n": n, "m": m})


def dft_spectral(seq) -> TestResult:
    bits = _as_bits(seq)
    n = bits.size
    if n < 1000:
        return _too_short("DFT", n, 1000)
    x = np.multiply(bits, 2.0, dtype=np.float64)  # one float64 array; exact +-1 for 0/1 bits
    x -= 1.0
    moduli = np.abs(np.fft.rfft(x))[: n // 2]
    threshold = math.sqrt(n * math.log(1 / 0.05))
    n0 = 0.95 * n / 2.0
    n1 = int((moduli < threshold).sum())
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    p = erfc(abs(d) / math.sqrt(2.0))
    return TestResult("DFT", (p,), {"n": n, "N1": n1})


def gf2_rank(rows: list[int], ncols: int) -> int:
    """Rank of a binary matrix whose rows are packed into integers.

    The one-matrix reference that the tests hold the batched kernel of
    :func:`matrix_rank` to.
    """
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


def _gf2_ranks(mats: np.ndarray) -> np.ndarray:
    """GF(2) ranks of a stack of 0/1 matrices with at most 64 columns, all at once.

    Each row is packed msb first into one 64-bit word.  Column by column,
    every matrix picks as pivot its first row holding that column's bit and
    xors the pivot into every row holding the bit, the pivot included: the
    column is cleared and the pivot row, now zero, drops out.  The rank is
    the number of columns that found a pivot (SP 800-22 Appendix F.1 by
    elimination over the whole stack).
    """
    nmat, nrows, ncols = mats.shape
    words = np.zeros((nmat, nrows, 8), dtype=np.uint8)
    words[:, :, : (ncols + 7) // 8] = np.packbits(mats, axis=2)
    w = words.view(">u8")[:, :, 0].astype(np.uint64)
    pick = np.arange(nmat)
    ranks = np.zeros(nmat, dtype=np.int64)
    for b in range(63, 63 - ncols, -1):
        holds = (w & np.uint64(1 << b)) != 0
        pivot = w[pick, holds.argmax(axis=1)]
        w ^= holds * pivot[:, None]
        ranks += holds.any(axis=1)
    return ranks


def matrix_rank(seq, rows: int = 32, cols: int = 32) -> TestResult:
    bits = _as_bits(seq)
    n = bits.size
    _require(1 <= cols <= 64, f"Rank packs a matrix row into 64 bits; cols {cols} not in 1..64")
    # Full rank means rank == rows, which needs rows <= cols.
    _require(1 <= rows <= cols, f"Rank needs 1 <= rows <= cols, got rows {rows}, cols {cols}")
    nmat = n // (rows * cols)
    if nmat < 38:
        return _too_short("Rank", n, 38 * rows * cols)
    ranks = _gf2_ranks(bits[: nmat * rows * cols].reshape(nmat, rows, cols))
    full = int((ranks == rows).sum())
    fm1 = int((ranks == rows - 1).sum())
    lower = nmat - full - fm1
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
