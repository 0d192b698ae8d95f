"""Ten statistical randomness tests with the standard suite's statistics.

Each test maps a bit sequence to one or two p-values: a
:class:`BitSequence` of packed bytes, or a 0/1 array, which is checked
and packed once on entry.  Test ids follow the usual abbreviations: Freq,
BF, Run, LRO, CSF, CSB, Srl, AE, DFT, Rank.  Default parameters are
chosen from the sequence length by the suite's recommendations and are
recorded in every result.

Conventions pinned here because more than one variant circulates:

* the spectral test uses the 0.95 threshold sqrt(n * ln(1/0.05)) over the
  first n/2 DFT moduli (DC included) and the corrected variance constant
  n * 0.95 * 0.05 / 4 in the denominator of its normal statistic;
* the rank test derives its three category probabilities from the exact
  GF(2) rank distribution formula rather than hardcoding them;
* a sequence shorter than a test's minimum length (NIST SP 800-22 Rev. 1a,
  per test) gets a result with ``applicable=False``, no p-value and a note
  naming the minimum, never an error.  Invalid parameters still raise.

Every kernel reads the packed bytes, msb first, in a few numpy passes,
after M. Sýs and Z. Říha, "Faster randomness testing with the NIST
Statistical Test Suite" (SPACE 2014); none loops in Python over bits,
windows or matrices, and none unpacks the sequence.  Per-byte tables,
built once from the 256 byte values on first use, stand in for the
bits.  In brackets, the memory each traces beyond its input at 2^20 bits
(128 KiB packed); a table lookup over all bytes briefly holds the bytes
as 8-byte indices (1 MiB):

* Freq, BF and Runs count ones with ``np.bitwise_count``: Freq over all
  bytes (0.2 MiB); BF over the bytes between block edges, plus the
  partial bytes at each edge (1.3 MiB: its block sums cast the byte
  counts to int64); Runs counts the changes between neighbouring bits as
  the popcount of x ^ (x >> 1), each byte's first bit compared with the
  last bit of the byte before (0.4 MiB).
* LRO's blocks (8, 128 or 10^4 bits) are whole bytes.  A block's longest
  run, up to its last category (16 at most), is the longest run inside a
  byte or the leading ones of a byte plus the run of ones carried in from
  the bytes before it, which tables of each byte's leading, trailing and
  longest ones give (1.4 MiB).
* The cumulative sums tests scan the random walk S_0 = 0, S_1, ..., S_n a
  chunk of bytes at a time from tables of each byte's net step and its
  highest and lowest partial sum, carrying S and the extremes (0.2 MiB:
  int32 arrays of ``_CHUNK_BITS / 8`` entries).  Forward,
  z = max(max S, -min S); backward, the partial sums from the end are
  S_n - S_k for k < n, so z needs no reversed copy.
* Serial and approximate entropy count m-bit windows of the circularly
  extended sequence (:func:`_pattern_counts`): one big-endian 32-bit
  word per byte offset, shifted and masked to the windows at its eight
  bit offsets and counted a chunk of bytes at a time (1.5 MiB and
  0.5 MiB, with the 2^m counts).  Only the
  last partial byte and m - 1 wrap bits are packed apart from the
  sequence's whole bytes.  Each test counts once, at its longest length,
  and folds the counts down.  Every position's (m-1)-bit window is the
  prefix of its m-bit window, so c_(m-1)[v] = c_m[2v] + c_m[2v+1] holds
  exactly (:func:`_fold`).
* Rank reads each 32-bit matrix row as one big-endian word and eliminates
  over GF(2) on all matrices at once, one step per column, the largest
  row of each matrix its pivot (:func:`_gf2_ranks`; 0.5 MiB);
  :func:`gf2_rank` is the one-matrix reference.
* DFT counts the moduli below its threshold with a blocked four-step FFT
  (D. H. Bailey, "FFTs in external or hierarchical memory",
  J. Supercomputing 4, 1990; :func:`_four_step_count`): the bits as an
  (n1, n2) grid with n1, n2 near sqrt(n), real FFTs down blocks of
  columns, each built as +-1 float64 values straight from the bytes, into
  an (n1/2 + 1, n2) complex array, twiddles, then FFTs along blocks of
  rows, each block counted and dropped.  At 2^20 bits it traces 9.5 MiB
  and grows the RSS by 10 MiB (~10 bytes a bit), against 20 MiB and
  32 MiB for one full-length ``rfft`` of the float64 sequence.  A length
  with no split into two factors of at least 32 (a prime, a short
  sequence), and a count with any modulus within a relative 1e-9 of the
  threshold, uses that full-length ``rfft`` (:func:`_direct_count`), so
  N1 is the same either way.

The battery runs DFT beside the other nine, one at a time, so at 2^20
bits the nine add at most 1.4 MiB to DFT's 9.5 MiB.  These kernels give
the same counts, and so bit-identical p-values, as the unpacked kernels
they replaced (kept in ``tests/nist_reference.py``); the tests hold each
to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .special_functions import PHI_SATURATED, erfc, igamc, normal_cdf

#: The significance level: a sequence passes a test when every p-value is at least this.
ALPHA = 0.01


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # a result record, not a pytest test class

    test: str
    p_values: tuple[float, ...]
    params: dict = field(default_factory=dict)
    applicable: bool = True
    note: str = ""

    def passed(self) -> bool:
        return self.applicable and all(p >= ALPHA for p in self.p_values)


@dataclass(frozen=True)
class BitSequence:
    """A packed bit string: bit i is bit 7 - i % 8 of byte i // 8 (msb first).

    The bits of the last byte past ``nbits`` are cleared on construction,
    so a kernel may read whole bytes.
    """

    data: bytes
    nbits: int

    def __post_init__(self):
        if self.nbits <= 0:
            raise ValueError("BitSequence needs a positive bit count")
        if len(self.data) != (self.nbits + 7) // 8:
            raise ValueError("packed data length does not match nbits")
        spare = -self.nbits % 8
        if self.data[-1] & ((1 << spare) - 1):
            object.__setattr__(self, "data", self.data[:-1] + bytes([self.data[-1] >> spare << spare]))

    @classmethod
    def from_bits(cls, bits) -> BitSequence:
        """Pack a nonempty 1-d array of 0/1 values; any other value raises ValueError."""
        bits = np.asarray(bits)
        if bits.ndim != 1 or bits.size == 0:
            raise ValueError("bit sequence must be a nonempty 1-d array")
        # min and max read an integer array without a temporary array
        if bits.dtype.kind not in "bui" or (bits.dtype.kind != "b" and (bits.min() < 0 or bits.max() > 1)):
            bad = (bits != 0) & (bits != 1)
            if bad.any():
                i = int(bad.argmax())
                raise ValueError(f"bits must be 0 or 1, got {bits[i].item()!r} at index {i}")
        return cls(np.packbits(bits.astype(np.uint8, copy=False)).tobytes(), bits.size)

    def bits(self) -> np.ndarray:
        return np.unpackbits(np.frombuffer(self.data, np.uint8), count=self.nbits)


def as_bit_sequence(seq) -> BitSequence:
    """``seq`` itself if it is a :class:`BitSequence`, else the 0/1 array ``seq`` packed."""
    return seq if isinstance(seq, BitSequence) else BitSequence.from_bits(seq)


def _bytes(seq: BitSequence) -> np.ndarray:
    return np.frombuffer(seq.data, dtype=np.uint8)


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _too_short(test: str, n: int, need: int, **params) -> TestResult:
    """The result of a test whose minimum length ``need`` exceeds ``n``."""
    return TestResult(
        test, (), {"n": n, **params}, applicable=False,
        note=f"needs at least {need} bits, got {n}",
    )


# -- per-byte tables -------------------------------------------------------------


class _ByteTables(NamedTuple):
    """Per-byte tables, indexed by the byte's value; its bits are read msb first."""

    signs: np.ndarray  # (256, 8) float64: each bit as -1.0 or +1.0, the DFT's input
    walk: np.ndarray  # (256, 8) int8: the partial sums of the steps 2 * bit - 1
    net: np.ndarray  # the walk's net step
    high: np.ndarray  # its highest partial sum, less the net step
    low: np.ndarray  # its lowest partial sum, less the net step
    lead: np.ndarray  # the leading ones
    trail: np.ndarray  # the trailing ones
    inner: np.ndarray  # the longest run of ones


@lru_cache(maxsize=1)
def _byte_tables() -> _ByteTables:
    """The per-byte tables, built on first use: a program that runs no test
    touches none of the numpy code that builds them (~0.8 MiB of RSS).
    The kernels read them with np.take, about twice as fast as table[indices].
    """
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    walk = np.cumsum(2 * bits.astype(np.int8) - 1, axis=1, dtype=np.int8)
    net = walk[:, -1].copy()
    # The run of ones ending at bit j is j less the position of the last zero up to j.
    run_ending = np.arange(8) - np.maximum.accumulate(np.where(bits == 0, np.arange(8), -1), axis=1)
    return _ByteTables(
        signs=2.0 * bits - 1.0,
        walk=walk,
        net=net,
        high=walk.max(axis=1) - net,
        low=walk.min(axis=1) - net,
        lead=bits.cumprod(axis=1).sum(axis=1, dtype=np.uint8),
        trail=run_ending[:, -1].astype(np.uint8),
        inner=run_ending.max(axis=1).astype(np.uint8),
    )


def _ones(seq: BitSequence) -> int:
    return int(np.bitwise_count(_bytes(seq)).sum())


# -- individual tests ----------------------------------------------------------


def frequency(seq) -> TestResult:
    """Monobit test: excess of ones over zeros."""
    seq = as_bit_sequence(seq)
    n = seq.nbits
    s = 2 * _ones(seq) - n
    p = erfc(abs(s) / math.sqrt(2.0 * n))
    return TestResult("Freq", (p,), {"n": n})


def default_block_size(n: int) -> int:
    return max(20, n // 64)


def block_frequency(seq, block_size: int | None = None) -> TestResult:
    seq = as_bit_sequence(seq)
    n = seq.nbits
    m = default_block_size(n) if block_size is None else block_size
    _require(m >= 2, f"block size {m} too small")
    nblocks = n // m
    if nblocks < 1:
        return _too_short("BF", n, m, M=m)
    # Block k's ones: those of the bytes from byte[k] up to byte[k + 1]
    # (none if they are equal), plus those of the first part[k + 1] bits
    # of byte[k + 1], less those of the first part[k] bits of byte[k].
    u = np.append(_bytes(seq), np.uint8(0))  # the last edge may fall one byte past the end
    edges = np.arange(0, nblocks * m + 1, m)
    byte, part = edges >> 3, edges & 7
    spans = np.add.reduceat(np.bitwise_count(u), byte, dtype=np.int64)[:-1]
    spans[byte[1:] == byte[:-1]] = 0
    heads = np.bitwise_count(u[byte] >> (8 - part)).astype(np.int64)
    ones = spans + np.diff(heads)
    pi = ones / m
    chi2 = 4.0 * m * float(((pi - 0.5) ** 2).sum())
    p = igamc(nblocks / 2.0, chi2 / 2.0)
    return TestResult("BF", (p,), {"n": n, "M": m, "N": nblocks})


def runs(seq) -> TestResult:
    seq = as_bit_sequence(seq)
    n = seq.nbits
    if n < 2:
        return _too_short("Run", n, 2)
    pi = _ones(seq) / n
    # Below 16 bits 2/sqrt(n) > 1/2, so a constant sequence passes the
    # frequency bound; pi(1 - pi) = 0 fails the prerequisite all the same.
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n) or pi * (1 - pi) == 0:
        return TestResult(
            "Run", (), {"n": n}, applicable=False,
            note="frequency prerequisite failed, runs test not applicable",
        )
    # Each bit under its predecessor: the byte shifted right by one, its
    # top bit carried from the byte before; the first bit is its own.
    u = _bytes(seq)
    prev = u >> 1
    prev[1:] |= u[:-1] << 7
    prev[0] |= u[0] & 0x80
    changes = int(np.bitwise_count(u ^ prev).sum())
    if n % 8:  # bit n - 1 against the first zero bit past the end
        changes -= int(u[-1] >> (8 - n % 8)) & 1
    v = 1 + changes
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
    seq = as_bit_sequence(seq)
    n = seq.nbits
    if n < 128:
        return _too_short("LRO", n, 128)
    for min_n, m, k, edges, probs in reversed(_LRO_REGIMES):
        if n >= min_n:
            break
    nblocks = n // m
    blocks = _bytes(seq)[: nblocks * m // 8].reshape(nblocks, m // 8)

    # Each block's longest run, exact up to 16 >= the last category: the
    # run of ones carried into byte j is byte j - 1's trailing ones, plus
    # byte j - 2's when byte j - 1 is all ones (16 if both are).
    tables = _byte_tables()
    trail = np.take(tables.trail, blocks)
    carried = np.zeros_like(trail)
    carried[:, 1:] = trail[:, :-1]
    carried[:, 2:] += (blocks[:, 1:-1] == 0xFF) * trail[:, :-2]
    carried += np.take(tables.lead, blocks)
    longest = np.maximum(carried, np.take(tables.inner, blocks)).max(axis=1)

    counts = np.zeros(len(edges), dtype=np.int64)
    clipped = np.clip(longest, edges[0], edges[-1])
    for i, edge in enumerate(edges):
        counts[i] = int((clipped == edge).sum())
    expected = nblocks * np.array(probs)
    chi2 = float((((counts - expected) ** 2) / expected).sum())
    p = igamc(k / 2.0, chi2 / 2.0)
    return TestResult("LRO", (p,), {"n": n, "M": m, "N": nblocks, "K": k})


# Bits per step of the cumulative sums' scan: its int32 partial sums stay in cache.
_CHUNK_BITS = 1 << 17


def _unsaturated(ks, j, sat):
    """The k of ``ks`` with -sat < 4k + j + 2 and 4k + j < sat, in order.

    These are the terms Phi(4k + j + 2) - Phi(4k + j) of a cumulative-sums
    p-value that are not 0.0 by saturation at |j| >= sat.
    """
    return range(max(ks.start, (-sat - j - 2) // 4 + 1), min(ks.stop, -((j - sat) // 4)))


def cumulative_sums(seq, direction: str = "forward") -> TestResult:
    seq = as_bit_sequence(seq)
    n = seq.nbits
    _require(direction in ("forward", "backward"), f"bad direction {direction!r}")
    # S_k is the sum of the first k steps 2 * bit - 1, with S_0 = 0; scan
    # the whole bytes a chunk at a time, carrying S at the chunk start and
    # the extremes, then the first n % 8 steps of the last byte.
    u = _bytes(seq)
    tables = _byte_tables()
    whole = n // 8
    lo = hi = s_n = 0
    for start in range(0, whole, _CHUNK_BITS // 8):
        x = u[start : min(start + _CHUNK_BITS // 8, whole)]
        # S at each byte's end, less S at the chunk start
        s = np.cumsum(np.take(tables.net, x), dtype=np.int32)
        hi = max(hi, s_n + int((s + np.take(tables.high, x)).max()))
        lo = min(lo, s_n + int((s + np.take(tables.low, x)).min()))
        s_n += int(s[-1])
    if n % 8:
        walk = tables.walk[u[whole], : n % 8]
        hi = max(hi, s_n + int(walk.max()))
        lo = min(lo, s_n + int(walk.min()))
        s_n += int(walk[-1])
    if direction == "forward":
        z = max(hi, -lo)
    else:  # the backward sums are S_n - S_k for k = n-1, ..., 0; k = n adds 0
        z = max(s_n - lo, hi - s_n)
    # z >= 1 for every nonempty sequence: |S_1| = 1 forward, |S_n - S_(n-1)| = 1 backward.
    sqn = math.sqrt(n)
    first = range(int(math.floor((-n / z + 1) / 4)), int(math.floor((n / z - 1) / 4)) + 1)
    second = range(int(math.floor((-n / z - 3) / 4)), first.stop)
    # Both sums read Phi(j * z / sqrt(n)) only at the odd j from
    # 4 * second.start + 1 to 4 * first.stop - 1.  Phi is exactly 0.0 at
    # j <= -sat and 1.0 at j >= sat, sat the first odd j >= 1 whose
    # argument reaches PHI_SATURATED, so a term whose two j lie on one of
    # those sides is exactly 0.0.  Both sums skip those terms and keep
    # the others in order, which read Phi at odd |j| <= sat only.
    sat = 1
    while sat * z / sqn < PHI_SATURATED:
        sat += 2
    keys = range(max(4 * second.start + 1, -sat), min(4 * first.stop, sat + 1), 2)
    phi = {j: normal_cdf(j * z / sqn) for j in keys}
    total = 1.0
    for k in _unsaturated(first, -1, sat):
        total -= phi[4 * k + 1] - phi[4 * k - 1]
    for k in _unsaturated(second, 1, sat):
        total += phi[4 * k + 3] - phi[4 * k + 1]
    p = min(max(total, 0.0), 1.0)
    return TestResult("CSF" if direction == "forward" else "CSB", (p,), {"n": n, "z": z})


# Longest pattern _pattern_counts can read from one 32-bit word at any bit offset.
_MAX_WINDOW = 25
# Byte offsets per count in _pattern_counts: their 8 windows each, cast to
# 8-byte indices by np.bincount, take 256 KiB.
_COUNT_BYTES = 1 << 12


def _pattern_counts(seq: BitSequence, m: int) -> np.ndarray:
    """Counts of all overlapping m-bit patterns of the circularly extended sequence.

    Entry v counts the positions whose m-bit window, read msb first, is v.
    Word i is the big-endian 32-bit word at byte offset i of the extension,
    and the window at bit 8i + r is that word shifted right by 32 - r - m
    and masked.  A chunk of byte offsets at a time, the windows at all
    eight bit offsets are counted by one ``np.bincount``, which, unlike
    ``np.add.at``, releases the interpreter lock while it counts, so the
    battery's DFT thread runs on.  The last byte starts only n % 8
    windows.  The extension is never unpacked: the sequence's whole bytes
    are copied as they are, and only the last partial byte and the m - 1
    wrap bits are packed apart (a sequence shorter than m - 1 wraps more
    than once).
    """
    _require(1 <= m <= _MAX_WINDOW, f"pattern length {m} out of range")
    n = seq.nbits
    u = _bytes(seq)
    whole = n // 8
    nbytes = (n + m + 6) // 8
    packed = np.zeros(nbytes + 3, dtype=np.uint8)
    packed[:whole] = u[:whole]
    head = np.unpackbits(u[: (m + 6) // 8], count=min(n, m - 1))
    rest = np.concatenate([np.unpackbits(u[whole:], count=n % 8), np.resize(head, m - 1)])
    packed[whole:nbytes] = np.packbits(rest)
    words = np.ndarray((nbytes,), ">u4", packed, strides=(1,))
    shifts = (32 - m - np.arange(8, dtype=np.uint32))[:, None]
    counts = np.zeros(1 << m, dtype=np.int64)
    starts = (n + 7) // 8
    for i in range(0, starts, _COUNT_BYTES):
        windows = words[i : min(i + _COUNT_BYTES, starts)].astype(np.uint32) >> shifts
        windows &= np.uint32((1 << m) - 1)
        if i + windows.shape[1] > whole:  # no window starts past bit n - 1
            windows[n % 8 :, whole - i] = 0
            counts[0] -= 8 - n % 8
        counts += np.bincount(windows.reshape(-1), minlength=1 << m)
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
    seq = as_bit_sequence(seq)
    n = seq.nbits
    m = default_serial_length(n) if pattern_length is None else pattern_length
    _require(3 <= m <= 24, f"pattern length {m} out of range")
    if n < 1 << (m + 2):
        return _too_short("Srl", n, 1 << (m + 2), m=m)
    counts = _pattern_counts(seq, m)
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
    seq = as_bit_sequence(seq)
    n = seq.nbits
    m = default_apen_length(n) if pattern_length is None else pattern_length
    _require(1 <= m <= 20, f"pattern length {m} out of range")
    if n < 1 << (m + 2):
        return _too_short("AE", n, 1 << (m + 2), m=m)

    def phi(counts: np.ndarray) -> float:
        c = counts.astype(np.float64) / n
        nz = c[c > 0]
        return float((nz * np.log(nz)).sum())

    counts = _pattern_counts(seq, m + 1)
    apen = phi(_fold(counts)) - phi(counts)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    p = igamc(2 ** (m - 1), chi2 / 2.0)
    return TestResult("AE", (p,), {"n": n, "m": m})


# Relative band around the DFT threshold within which a four-step modulus
# is too close to call; the count then comes from the direct transform.
_DFT_GUARD = 1e-9
# Smallest factor of a useful four-step split, and the bytes of float64 or
# complex128 values one column or row block of it holds.
_DFT_MIN_FACTOR = 32
_DFT_BLOCK_BYTES = 1 << 19


def _dft_split(n: int) -> tuple[int, int] | None:
    """n = n1 * n2 with n2 the largest divisor of n up to sqrt(n); None if n2 < 32."""
    for n2 in range(math.isqrt(n), _DFT_MIN_FACTOR - 1, -1):
        if n % n2 == 0:
            return n // n2, n2
    return None


def _direct_count(seq: BitSequence, threshold: float) -> int:
    """How many of the first n/2 moduli of the +-1 sequence's DFT are below ``threshold``."""
    # one float64 array of exact +-1
    x = np.take(_byte_tables().signs, _bytes(seq), axis=0).reshape(-1)[: seq.nbits]
    return int((np.abs(np.fft.rfft(x))[: seq.nbits // 2] < threshold).sum())


def _four_step_count(seq: BitSequence, threshold: float, n1: int, n2: int) -> int | None:
    """:func:`_direct_count` through a four-step FFT of length n = n1 * n2; None if too close.

    With x[r, c] = x_(r n2 + c), coefficient k1 + n1 k2 is the length-n2
    DFT over c of W_n^(k1 c) Y[k1, c], where Y[:, c] is the length-n1 DFT
    of column c (Bailey 1990).  Stage 1 runs real FFTs down blocks of
    columns into the (n1/2 + 1, n2) array Y, each block of whole bytes
    of every row looked up as +-1 values (rows that do not start at a
    whole byte are realigned first, one 16-bit shift a byte).  Stage 2
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
    u = _bytes(seq)
    if n2 % 8 == 0:  # every row starts at a whole byte
        grid = u.reshape(n1, n2 // 8)
    else:  # each row's bytes realigned by one 16-bit shift
        wide = np.append(u, np.uint8(0)).astype(np.uint16)
        first = np.arange(n1) * n2
        at = (first >> 3)[:, None] + np.arange((n2 + 7) // 8)
        grid = ((wide[at] << 8 | wide[at + 1]) >> (8 - (first & 7))[:, None]).astype(np.uint8)
        del wide, at
    signs = _byte_tables().signs
    y = np.empty((rows, n2), dtype=np.complex128)
    step = max(8, _DFT_BLOCK_BYTES // (64 * n1) * 8)  # whole bytes of columns
    for c0 in range(0, n2, step):
        x = np.take(signs, grid[:, c0 // 8 : (c0 + step) // 8], axis=0).reshape(n1, -1)[:, : n2 - c0]
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
    seq = as_bit_sequence(seq)
    n = seq.nbits
    if n < 1000:
        return _too_short("DFT", n, 1000)
    threshold = math.sqrt(n * math.log(1 / 0.05))
    split = _dft_split(n)
    n1 = None if split is None else _four_step_count(seq, threshold, *split)
    if n1 is None:
        n1 = _direct_count(seq, threshold)
    n0 = 0.95 * n / 2.0
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


def _gf2_ranks(rows: np.ndarray, ncols: int) -> np.ndarray:
    """GF(2) ranks of a stack of binary matrices with at most 64 columns, all at once.

    ``rows`` is a (matrices, rows) array of unsigned words, the first
    column in bit ``ncols - 1`` of each.  Column by column from the first,
    every row's bits of the columns before are clear, so a row holds
    column b's bit exactly when it is at least 2^b, and a matrix's largest
    row is a pivot if any row holds the bit.  Xoring the pivot into a row
    clears the bit exactly when that makes the row smaller, so
    min(row, row ^ pivot) eliminates the column from every row at once;
    the pivot row becomes zero and drops out.  The rank is the number of
    columns that found a pivot (SP 800-22 Appendix F.1 by elimination over
    the whole stack).  The rows are held transposed, (rows, matrices), so
    each step is a few passes over whole rows of the stack.
    """
    w = np.ascontiguousarray(rows.T, dtype=rows.dtype.newbyteorder("="))
    xored = np.empty_like(w)
    pivots = np.empty((ncols, w.shape[1]), dtype=w.dtype)
    for pivot, b in zip(pivots, range(ncols - 1, -1, -1)):
        w.max(axis=0, out=pivot)
        pivot[pivot < w.dtype.type(1 << b)] = 0
        np.bitwise_xor(w, pivot, out=xored)
        np.minimum(w, xored, out=w)
    return np.count_nonzero(pivots, axis=0)


def matrix_rank(seq) -> TestResult:
    """SP 800-22's rank test on 32x32 matrices."""
    seq = as_bit_sequence(seq)
    n = seq.nbits
    nmat = n // (32 * 32)
    if nmat < 38:
        return _too_short("Rank", n, 38 * 32 * 32)
    rows = np.frombuffer(seq.data, dtype=">u4", count=nmat * 32).reshape(nmat, 32)
    ranks = _gf2_ranks(rows, 32)
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
