"""The unpacked test kernels, used only as a reference for the packed ones.

Each function is the library's kernel as it was before the tests read
packed bytes: it takes a 0/1 array, one byte per bit, and walks, shifts
or transforms those bytes.  The statistics, parameters and p-value
formulas are shared with :mod:`inru.nist_tests`; only the counting
differs, so every packed kernel must give a ``TestResult`` equal to the
one here, p-values included, bit for bit.
"""

import math

import numpy as np

from inru.nist_tests import (
    _DFT_BLOCK_BYTES,
    _DFT_GUARD,
    _LRO_REGIMES,
    _MAX_WINDOW,
    TestResult,
    _dft_split,
    _fold,
    _psi_sq,
    _rank_probability,
    _require,
    _too_short,
    default_apen_length,
    default_block_size,
    default_serial_length,
)
from inru.special_functions import erfc, igamc, normal_cdf

# Bits per step of the cumulative sums' scan.
_CHUNK_BITS = 1 << 16


def _as_bits(seq) -> np.ndarray:
    bits = np.asarray(seq, dtype=np.uint8)
    if bits.ndim != 1 or bits.size == 0:
        raise ValueError("bit sequence must be a nonempty 1-d array")
    return bits


def frequency(seq) -> TestResult:
    """Monobit test: excess of ones over zeros."""
    bits = _as_bits(seq)
    n = bits.size
    s = 2 * int(bits.sum()) - n
    p = erfc(abs(s) / math.sqrt(2.0 * n))
    return TestResult("Freq", (p,), {"n": n})


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


def cumulative_sums(seq, direction: str = "forward") -> TestResult:
    bits = _as_bits(seq)
    n = bits.size
    _require(direction in ("forward", "backward"), f"bad direction {direction!r}")
    # S_k is the sum of the first k steps 2 * bit - 1, with S_0 = 0; scan
    # them a chunk at a time, carrying S at the chunk start and the extremes
    lo = hi = s_n = 0
    for start in range(0, n, _CHUNK_BITS):
        s = bits[start : start + _CHUNK_BITS].astype(np.int32)
        s <<= 1
        s -= 1
        np.cumsum(s, out=s)
        lo = min(lo, s_n + int(s.min()))
        hi = max(hi, s_n + int(s.max()))
        s_n += int(s[-1])
    if direction == "forward":
        z = max(hi, -lo)
    else:  # the backward sums are S_n - S_k for k = n-1, ..., 0; k = n adds 0
        z = max(s_n - lo, hi - s_n)
    # z >= 1 for every nonempty sequence: |S_1| = 1 forward, |S_n - S_(n-1)| = 1 backward.
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


def _pattern_counts(bits: np.ndarray, m: int) -> np.ndarray:
    """Counts of all overlapping m-bit patterns of the circularly extended sequence.

    Entry v counts the positions whose m-bit window, read msb first, is v.
    The windows come from the packed bytes: word i is the big-endian 32-bit
    word at byte offset i, and the window at bit 8i + r is that word shifted
    right by 32 - r - m and masked.  Each bit offset r = 0..7 is counted on
    its own, so only n/8 windows exist at a time.  The extension is never
    copied: the whole bytes of ``bits`` are packed straight from it, and
    only the last partial byte and the m - 1 wrap bits apart (a sequence
    shorter than m - 1 wraps more than once).
    """
    _require(1 <= m <= _MAX_WINDOW, f"pattern length {m} out of range")
    n = bits.size
    whole = n // 8
    nbytes = (n + m + 6) // 8
    packed = np.zeros(nbytes + 3, dtype=np.uint8)
    packed[:whole] = np.packbits(bits[: 8 * whole])
    packed[whole:nbytes] = np.packbits(np.concatenate([bits[8 * whole :], np.resize(bits, m - 1)]))
    words = np.ndarray((nbytes,), ">u4", packed, strides=(1,)).astype(np.uint32)
    counts = np.zeros(1 << m, dtype=np.int64)
    windows = np.empty((n + 7) // 8, dtype=np.uint32)
    for r in range(8):
        out = windows[: (n - r + 7) // 8]
        np.right_shift(words[: out.size], 32 - r - m, out=out)
        out &= np.uint32((1 << m) - 1)
        np.add.at(counts, out, 1)
    return counts


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


def _direct_count(bits: np.ndarray, threshold: float) -> int:
    """How many of the first n/2 moduli of the +-1 sequence's DFT are below ``threshold``."""
    x = np.multiply(bits, 2.0, dtype=np.float64)  # one float64 array; exact +-1 for 0/1 bits
    x -= 1.0
    return int((np.abs(np.fft.rfft(x))[: bits.size // 2] < threshold).sum())


def _four_step_count(bits: np.ndarray, threshold: float, n1: int, n2: int) -> int | None:
    """:func:`_direct_count` through a four-step FFT of length n = n1 * n2; None if too close.

    With x[r, c] = x_(r n2 + c), coefficient k1 + n1 k2 is the length-n2
    DFT over c of W_n^(k1 c) Y[k1, c], where Y[:, c] is the length-n1 DFT
    of column c (Bailey 1990).  Stage 1 runs real FFTs down blocks of
    columns, built from the bits, into the (n1/2 + 1, n2) array Y; stage 2
    twiddles blocks of rows of Y and runs their FFTs.  A row k1 > n1/2 is
    not stored: x is real, so X_(k1 + n1 k2) is the conjugate of
    X_((n1 - k1) + n1 (n2 - 1 - k2)).  Each stored row k1 thus holds
    direct coefficients k1 + n1 k2 < n/2 for k2 < a and mirrored ones for
    k2 >= n2 - b, and every other entry of the row is set aside.  Only Y
    and one block outlive a step.  The count is None when a counted
    modulus lies within ``_DFT_GUARD`` of the threshold, where rounding
    could move it across.
    """
    n = n1 * n2
    half = n // 2
    rows = n1 // 2 + 1
    grid = bits.reshape(n1, n2)
    y = np.empty((rows, n2), dtype=np.complex128)
    step = max(1, _DFT_BLOCK_BYTES // (8 * n1))
    for c0 in range(0, n2, step):
        x = np.multiply(grid[:, c0 : c0 + step], 2.0, dtype=np.float64)
        x -= 1.0
        y[:, c0 : c0 + step] = np.fft.rfft(x, axis=0)
    del x

    # Entries k2 in [a, n2 - b) of row k1 are neither direct nor mirrored
    # coefficients below n/2; only the first and last rows have any.
    k1 = np.arange(rows)
    a = (half - k1 + n1 - 1) // n1
    mirror = n1 - k1
    b = np.where((k1 > 0) & (mirror > k1), (half - mirror + n1 - 1) // n1, 0)
    aside = {int(r): (int(a[r]), n2 - int(b[r])) for r in np.flatnonzero(a + b < n2)}

    def twiddles(k, c):  # W_n^(k c), reduced mod n while exact
        return np.exp(-2j * np.pi / n * (k * c % n))

    col = np.arange(n2)
    step = max(1, _DFT_BLOCK_BYTES // (16 * n2))
    base = twiddles(np.arange(step)[:, None], col)  # W_n^(k1 c) = W_n^(r0 c) W_n^((k1 - r0) c)
    lo, hi = threshold * (1 - _DFT_GUARD), threshold * (1 + _DFT_GUARD)
    below = near = 0
    for r0 in range(0, rows, step):
        block = y[r0 : r0 + step]
        block *= base[: block.shape[0]]
        block *= twiddles(r0, col)
        moduli = np.abs(np.fft.fft(block, axis=1))
        for r, (start, stop) in aside.items():
            if r0 <= r < r0 + len(moduli):
                moduli[r - r0, start:stop] = np.inf
        below += int(np.count_nonzero(moduli < lo))
        near += int(np.count_nonzero(moduli < hi))
    return below if below == near else None


def dft_spectral(seq) -> TestResult:
    """Spectral test; N1 counts the first n/2 DFT moduli below the threshold.

    The four-step count when n splits and no modulus is too close to
    call, else the direct one; both give the same N1.
    """
    bits = _as_bits(seq)
    n = bits.size
    if n < 1000:
        return _too_short("DFT", n, 1000)
    threshold = math.sqrt(n * math.log(1 / 0.05))
    split = _dft_split(n)
    n1 = None if split is None else _four_step_count(bits, threshold, *split)
    if n1 is None:
        n1 = _direct_count(bits, threshold)
    n0 = 0.95 * n / 2.0
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    p = erfc(abs(d) / math.sqrt(2.0))
    return TestResult("DFT", (p,), {"n": n, "N1": n1})


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


def matrix_rank(seq) -> TestResult:
    """SP 800-22's rank test on 32x32 matrices."""
    bits = _as_bits(seq)
    n = bits.size
    nmat = n // (32 * 32)
    if nmat < 38:
        return _too_short("Rank", n, 38 * 32 * 32)
    ranks = _gf2_ranks(bits[: nmat * 32 * 32].reshape(nmat, 32, 32))
    full = int((ranks == 32).sum())
    fm1 = int((ranks == 31).sum())
    lower = nmat - full - fm1
    p_full = _rank_probability(32, 32, 32)
    p_fm1 = _rank_probability(32, 32, 31)
    p_low = 1.0 - p_full - p_fm1
    chi2 = (
        (full - nmat * p_full) ** 2 / (nmat * p_full)
        + (fm1 - nmat * p_fm1) ** 2 / (nmat * p_fm1)
        + (lower - nmat * p_low) ** 2 / (nmat * p_low)
    )
    p = igamc(1.0, chi2 / 2.0)
    return TestResult("Rank", (p,), {"n": n, "matrices": nmat})


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
