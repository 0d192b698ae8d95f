import math
import tracemalloc
from itertools import groupby

import numpy as np
import pytest
from scipy import special as sp

from inru import nist_tests
from inru.nist_tests import (
    _CHUNK_BITS,
    _LRO_REGIMES,
    _MAX_WINDOW,
    ALL_TESTS,
    BitSequence,
    TestResult,
    _fold,
    _dft_split,
    _gf2_ranks,
    _pattern_counts,
    approximate_entropy,
    block_frequency,
    cumulative_sums,
    dft_spectral,
    frequency,
    gf2_rank,
    longest_run_of_ones,
    matrix_rank,
    runs,
    serial,
)
from inru.special_functions import erfc

import nist_reference

# 100-bit reference sequence of SP 800-22's examples; expected p-values were
# computed with an independent implementation of the same statistics on top
# of scipy.special (erfc / gammaincc) and frozen here.  Those of BF, CSF and
# CSB come from the references below, which their tests also run.
REF_BITS = np.array(
    [int(c) for c in
     "1100100100001111110110101010001000100001011010001100"
     "001000110100110001001100011001100010100010111000"],
    dtype=np.uint8,
)
REF_P = {
    "freq": 0.109598583399116,
    "runs": 0.5007979178870903,
    "srl_m3": (0.3084410411840028, 0.3534546819587805),
    "ae_m2": 0.23530074585897948,
    "bf_m10": 0.7064384496412808,
    "csf": 0.21919399348562665,
    "csb": 0.1148662153025217,
}


def test_frequency_alternating_is_perfect():
    alt = np.tile([0, 1], 1 << 16).astype(np.uint8)
    assert frequency(alt).p_values == (1.0,)


def test_frequency_biased_sequence_fails_hard():
    rng = np.random.default_rng(0)
    biased = (rng.random(1 << 20) < 0.75).astype(np.uint8)
    assert frequency(biased).p_values[0] < 1e-6


def test_runs_not_applicable_on_constant_input():
    res = runs(np.zeros(10_000, np.uint8))
    assert not res.applicable
    assert res.p_values == ()
    assert not res.passed()


@pytest.mark.parametrize("n", range(2, 18))
@pytest.mark.parametrize("fill", [0, 1])
def test_runs_not_applicable_on_short_constant_input(n, fill):
    # Below 16 bits the frequency bound 2/sqrt(n) exceeds 1/2, so a
    # constant sequence must fail the prerequisite through pi(1 - pi) = 0.
    res = runs(np.full(n, fill, np.uint8))
    assert res == TestResult(
        "Run", (), {"n": n}, applicable=False,
        note="frequency prerequisite failed, runs test not applicable",
    )


def test_runs_unchanged_at_16_and_17_bits():
    # Frozen from the implementation before the pi(1 - pi) = 0 guard.
    bits = np.array([int(c) for c in "01101001100101101"], np.uint8)
    assert runs(bits[:16]).p_values == (0.1336144025377164,)
    assert runs(bits).p_values == (0.08580378797002675,)


def test_reference_sequence_frequency():
    assert frequency(REF_BITS).p_values[0] == pytest.approx(REF_P["freq"], rel=1e-10)


def test_reference_sequence_runs():
    assert runs(REF_BITS).p_values[0] == pytest.approx(REF_P["runs"], rel=1e-10)


def test_reference_sequence_serial():
    p1, p2 = serial(REF_BITS, pattern_length=3).p_values
    assert p1 == pytest.approx(REF_P["srl_m3"][0], rel=1e-10)
    assert p2 == pytest.approx(REF_P["srl_m3"][1], rel=1e-10)


def test_reference_sequence_approximate_entropy():
    res = approximate_entropy(REF_BITS, pattern_length=2)
    assert res.p_values[0] == pytest.approx(REF_P["ae_m2"], rel=1e-10)


# SP 800-22 Rev. 1a's statistics written out on scipy.special, independent
# of the module's kernels: the references the pins below are frozen from.


def _sp_block_frequency(bits, m):
    """Section 2.2: chi^2 = 4M sum (pi_i - 1/2)^2 over N = n // M blocks."""
    nblocks = bits.size // m
    pi = [bits[i * m : (i + 1) * m].sum() / m for i in range(nblocks)]
    chi2 = 4.0 * m * sum((p - 0.5) ** 2 for p in pi)
    return float(sp.gammaincc(nblocks / 2, chi2 / 2))


def _sp_cusum(bits, direction):
    """Section 2.13: z = max |S_k| of the +-1 walk, from the start or from the end."""
    steps = 2 * bits.astype(np.int64) - 1
    z = int(np.abs(np.cumsum(steps if direction == "forward" else steps[::-1])).max())
    n = bits.size
    phi = lambda k: float(sp.ndtr(k * z / math.sqrt(n)))  # noqa: E731
    first = sum(phi(4 * k + 1) - phi(4 * k - 1)
                for k in range(int((-n / z + 1) / 4), int((n / z - 1) / 4) + 1))
    second = sum(phi(4 * k + 3) - phi(4 * k + 1)
                 for k in range(int((-n / z - 3) / 4), int((n / z - 1) / 4) + 1))
    return 1.0 - first + second


# Section 2.4.4's categories and probabilities for M = 128: longest run <= 4, 5, ..., >= 9.
_SP_LRO_128 = ((4, 5, 6, 7, 8, 9), (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124))


def _sp_longest_run(bits):
    """Section 2.4 with M = 128: chi^2 over the blocks' longest runs of ones, K = 5."""
    edges, probs = _SP_LRO_128
    nblocks = bits.size // 128
    counts = [0] * len(edges)
    for b in range(nblocks):
        block = bits[b * 128 : (b + 1) * 128].tolist()
        longest = max((len(list(g)) for v, g in groupby(block) if v), default=0)
        counts[min(max(longest, edges[0]), edges[-1]) - edges[0]] += 1
    chi2 = sum((c - nblocks * p) ** 2 / (nblocks * p) for c, p in zip(counts, probs))
    return float(sp.gammaincc(5 / 2, chi2 / 2))


def _sp_dft(bits):
    """Section 2.6 with the module's variance n * 0.95 * 0.05 / 4, on the full complex FFT."""
    n = bits.size
    moduli = np.abs(np.fft.fft(2.0 * bits - 1.0))[: n // 2]
    n1 = int((moduli < math.sqrt(math.log(1 / 0.05) * n)).sum())
    d = (n1 - 0.95 * n / 2) / math.sqrt(n * 0.95 * 0.05 / 4)
    return float(sp.erfc(abs(d) / math.sqrt(2)))


def _sp_rank_probability(r, m=32, q=32):
    """Section 3.5: the probability that a random M x Q binary matrix has rank r."""
    prod = math.prod((1 - 2.0 ** (i - q)) * (1 - 2.0 ** (i - m)) / (1 - 2.0 ** (i - r))
                     for i in range(r))
    return 2.0 ** (r * (q + m - r) - m * q) * prod


def _sp_gf2_rank(matrix):
    """Rank over GF(2) by forward elimination on a 0/1 array."""
    a = matrix.copy()
    rank = 0
    for col in range(a.shape[1]):
        pivots = np.flatnonzero(a[rank:, col])
        if pivots.size:
            a[[rank, rank + pivots[0]]] = a[[rank + pivots[0], rank]]
            a[rank + 1 :][a[rank + 1 :, col] == 1] ^= a[rank]
            rank += 1
    return rank


def _sp_rank(bits):
    """Section 2.5 with 32 x 32 matrices: chi^2 over full, full - 1 and lower rank."""
    nmat = bits.size // 1024
    ranks = [_sp_gf2_rank(bits[i * 1024 : (i + 1) * 1024].reshape(32, 32)) for i in range(nmat)]
    full, fm1 = ranks.count(32), ranks.count(31)
    observed = (full, fm1, nmat - full - fm1)
    p_full, p_fm1 = _sp_rank_probability(32), _sp_rank_probability(31)
    expected = [nmat * p for p in (p_full, p_fm1, 1 - p_full - p_fm1)]
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    return float(sp.gammaincc(1, chi2 / 2))


def test_reference_sequence_block_frequency():
    ref = _sp_block_frequency(REF_BITS, 10)
    assert ref == pytest.approx(REF_P["bf_m10"], rel=1e-10)
    assert block_frequency(REF_BITS, block_size=10).p_values[0] == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("direction, test", [("forward", "csf"), ("backward", "csb")])
def test_reference_sequence_cumulative_sums(direction, test):
    ref = _sp_cusum(REF_BITS, direction)
    assert ref == pytest.approx(REF_P[test], rel=1e-10)
    assert cumulative_sums(REF_BITS, direction).p_values[0] == pytest.approx(ref, rel=1e-10)


# p-values of seeded sequences long enough for each test, frozen from the
# references above: (test, length, seed) -> p.  The DFT lengths take the
# four-step count (2^16) and the direct one (the prime 10007).
SEEDED_P = {
    ("LRO", 1 << 14, 12): 0.7585786431424223,
    ("DFT", 1 << 16, 13): 0.8973209731819122,
    ("DFT", 10007, 14): 0.6026513434974587,
    ("Rank", 1 << 16, 15): 0.038548994486453665,
}
_SP_REFERENCES = {"LRO": _sp_longest_run, "DFT": _sp_dft, "Rank": _sp_rank}


@pytest.mark.parametrize("test, n, seed", SEEDED_P)
def test_seeded_sequences_match_the_standard(test, n, seed):
    bits = np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)
    ref = _SP_REFERENCES[test](bits)
    assert ref == pytest.approx(SEEDED_P[test, n, seed], rel=1e-10)
    assert ALL_TESTS[test](bits).p_values[0] == pytest.approx(ref, rel=1e-10)


def test_determinism():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, 1 << 17, dtype=np.uint8)
    for fn in ALL_TESTS.values():
        assert fn(bits).p_values == fn(bits).p_values


def test_parameters_recorded():
    rng = np.random.default_rng(4)
    bits = rng.integers(0, 2, 1 << 17, dtype=np.uint8)
    assert serial(bits).params["m"] == 14
    assert approximate_entropy(bits).params["m"] == 10
    assert block_frequency(bits).params["M"] == (1 << 17) // 64
    assert longest_run_of_ones(bits).params["M"] == 128


def test_longest_run_regime_selection():
    rng = np.random.default_rng(5)
    assert longest_run_of_ones(rng.integers(0, 2, 200, dtype=np.uint8)).params["M"] == 8
    assert longest_run_of_ones(rng.integers(0, 2, 1 << 20, dtype=np.uint8)).params["M"] == 10**4


def _lro_inputs(n, m, top):
    """Random bits, constant bits, and runs of ones that end at, cross or
    start at block edges, up to one past the last category ``top``."""
    rng = np.random.default_rng(n)
    straddling = rng.integers(0, 2, n, dtype=np.uint8)
    for b, edge in enumerate(range(m, n, m)):
        length = b % (top + 2) + 1
        lo = edge - (length if b % 3 == 0 else length // 2 if b % 3 == 1 else 0)
        straddling[max(lo - 1, 0)] = 0
        straddling[lo : lo + length] = 1
        straddling[lo + length : lo + length + 1] = 0
    return [rng.integers(0, 2, n, dtype=np.uint8), np.ones(n, np.uint8),
            np.zeros(n, np.uint8), straddling]


def test_longest_run_counts_match_direct_scan():
    # cross-check the per-block longest runs against a direct scan, in
    # each of the three block-size regimes and at their edges
    from inru.special_functions import igamc

    for n in (128, 6271, 6272, 20000, 750000, 750000 + 9999):
        min_n, m, k, edges, probs = max(r for r in _LRO_REGIMES if r[0] <= n)
        for bits in _lro_inputs(n, m, edges[-1]):
            res = longest_run_of_ones(bits)
            assert res.params["M"] == m
            longs = [max((len(list(g)) for v, g in groupby(row) if v), default=0)
                     for row in bits[: (n // m) * m].reshape(-1, m).tolist()]
            counts = [0] * len(edges)
            for v in longs:
                counts[min(max(v, edges[0]), edges[-1]) - edges[0]] += 1
            chi2 = sum((c - len(longs) * p) ** 2 / (len(longs) * p) for c, p in zip(counts, probs))
            assert res.p_values[0] == pytest.approx(igamc(k / 2, chi2 / 2), rel=1e-12), n


def test_cumulative_sums_directions_differ():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, 4096, dtype=np.uint8)
    f = cumulative_sums(bits, "forward").p_values[0]
    b = cumulative_sums(bits, "backward").p_values[0]
    assert f != b  # generically distinct
    assert cumulative_sums(bits[::-1], "forward").p_values[0] == pytest.approx(b)
    with pytest.raises(ValueError):
        cumulative_sums(bits, "sideways")


def test_dft_counts_low_magnitudes():
    rng = np.random.default_rng(8)
    bits = rng.integers(0, 2, 1 << 14, dtype=np.uint8)
    res = dft_spectral(bits)
    assert 0 <= res.p_values[0] <= 1
    assert res.params["N1"] <= bits.size // 2


def _direct_dft(bits) -> TestResult:
    """The spectral test through one full-length rfft: the reference for every length."""
    n = bits.size
    moduli = np.abs(np.fft.rfft(2.0 * bits - 1.0))[: n // 2]
    n1 = int((moduli < math.sqrt(n * math.log(1 / 0.05))).sum())
    d = (n1 - 0.95 * n / 2.0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return TestResult("DFT", (erfc(abs(d) / math.sqrt(2.0)),), {"n": n, "N1": n1})


# Lengths and their four-step splits n = n1 * n2: none for a short length
# whose factors near sqrt(n) are below 32 or for the prime 2^16 + 1; odd n;
# n2 far below sqrt(n) under a prime n1; an odd n2 under an even n1.
DFT_LENGTHS = {
    1000: None,
    1001: None,
    4097: None,
    (1 << 16) - 1: (257, 255),
    (1 << 16) + 1: None,
    37 * 2003: (2003, 37),
    10**6: (1000, 1000),
    1023 * 1024: (1024, 1023),
    1 << 20: (1024, 1024),
}


def _dft_inputs(n: int):
    """Random and biased bits under several seeds, all ones and alternating bits."""
    for seed in range(3):
        rng = np.random.default_rng([n, seed])
        yield rng.integers(0, 2, n, dtype=np.uint8)
        yield (rng.random(n) < 0.52).astype(np.uint8)
    yield np.ones(n, np.uint8)
    yield (np.arange(n) & 1).astype(np.uint8)


@pytest.mark.parametrize("n", DFT_LENGTHS)
def test_dft_matches_direct_transform(n):
    assert _dft_split(n) == DFT_LENGTHS[n]
    for bits in _dft_inputs(n):  # repr tells an np.float64 p from a float
        assert repr(dft_spectral(bits)) == repr(_direct_dft(bits))


@pytest.mark.parametrize("n", [(1 << 16) - 1, 1023 * 1024])
def test_dft_guard_band_refers_counts_to_direct_transform(n, monkeypatch):
    # A band as wide as the threshold holds some modulus of every input,
    # so every four-step count is refused and redone directly.
    calls = []
    direct = nist_tests._direct_count
    monkeypatch.setattr(nist_tests, "_DFT_GUARD", 1.0)
    monkeypatch.setattr(nist_tests, "_direct_count", lambda *a: calls.append(1) or direct(*a))
    inputs = list(_dft_inputs(n))
    for bits in inputs:
        assert repr(dft_spectral(bits)) == repr(_direct_dft(bits))
    assert len(calls) == len(inputs)


def test_dft_memory_is_bounded():
    # One full-length rfft of the float64 sequence traced 20 MiB at 2^20
    # bits; the four-step FFT holds its (513, 1024) complex array and a block.
    bits = np.random.default_rng(17).integers(0, 2, 1 << 20, dtype=np.uint8)
    dft_spectral(bits)
    tracemalloc.start()
    try:
        dft_spectral(bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_gf2_rank_known_matrices():
    assert gf2_rank([0b100, 0b010, 0b001], 3) == 3
    assert gf2_rank([0b110, 0b011, 0b101], 3) == 2  # third row = xor of first two
    assert gf2_rank([0, 0, 0], 3) == 0
    assert gf2_rank([0b11, 0b11], 2) == 1


def test_gf2_rank_matches_elimination_oracle():
    rng = np.random.default_rng(9)
    for _ in range(50):
        m = rng.integers(0, 2, (8, 8), dtype=np.uint8)
        packed = [int("".join(map(str, row)), 2) if row.any() else 0 for row in m]
        # independent rank via fraction-free elimination over GF(2)
        a = m.copy()
        rank = 0
        for col in range(8):
            rows = np.flatnonzero(a[rank:, col]) + rank
            if rows.size == 0:
                continue
            a[[rank, rows[0]]] = a[[rows[0], rank]]
            for r in range(8):
                if r != rank and a[r, col]:
                    a[r] ^= a[rank]
            rank += 1
        assert gf2_rank(packed, 8) == rank


def test_matrix_rank_p_value_sane():
    rng = np.random.default_rng(10)
    bits = rng.integers(0, 2, 38 * 1024, dtype=np.uint8)
    res = matrix_rank(bits)
    assert res.params["matrices"] == 38
    assert 0 <= res.p_values[0] <= 1


def test_minimum_length_requirements():
    # Below a test's minimum length the result is not applicable, not an error.
    too_short = [
        (longest_run_of_ones(np.ones(64, np.uint8)), "LRO", 128),
        (matrix_rank(np.ones(1024, np.uint8)), "Rank", 38 * 1024),
        (matrix_rank(np.ones(38 * 1024 - 1, np.uint8)), "Rank", 38 * 1024),
        (dft_spectral(np.ones(128, np.uint8)), "DFT", 1000),
        (serial(np.ones(16, np.uint8), pattern_length=3), "Srl", 32),
        (approximate_entropy(np.ones(31, np.uint8), pattern_length=3), "AE", 32),
        (block_frequency(np.ones(19, np.uint8)), "BF", 20),
        (runs(np.ones(1, np.uint8)), "Run", 2),
    ]
    for res, test, need in too_short:
        assert res.test == test
        assert not res.applicable and not res.passed() and res.p_values == ()
        assert res.note == f"needs at least {need} bits, got {res.params['n']}"
    with pytest.raises(ValueError):
        frequency(np.array([], np.uint8))


def test_invalid_block_sizes():
    bits = np.ones(4096, np.uint8)
    with pytest.raises(ValueError):
        block_frequency(bits, block_size=1)
    with pytest.raises(ValueError):
        serial(bits, pattern_length=1)
    with pytest.raises(ValueError):
        approximate_entropy(bits, pattern_length=0)


# -- kernels against their references -------------------------------------------


def _shift_or_counts(bits, m):
    """Reference pattern counter: m shift-or passes over the circular extension."""
    n = bits.size
    ext = np.resize(bits, n + m - 1).astype(np.uint64)
    vals = np.zeros(n, dtype=np.uint64)
    for k in range(m):
        vals = (vals << np.uint64(1)) | ext[k : k + n]
    return vals


def _counts(bits, m):
    """The kernel's pattern counts of a 0/1 array, packed first."""
    return _pattern_counts(BitSequence.from_bits(bits), m)


def _nonzero_counts(counts):
    idx = np.flatnonzero(counts)
    return dict(zip(idx.tolist(), counts[idx].tolist()))


@pytest.mark.parametrize(
    "n", [1, 2, 5, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 100, 1001, 4099, 65535, 65536, 65537]
)
def test_pattern_counts_match_shift_or_counter(n):
    # The last byte starts only n % 8 of its 8 windows; sparse ones leave
    # some bit offsets with only small windows.
    rng = np.random.default_rng(n)
    for bits in (rng.integers(0, 2, n, dtype=np.uint8), (rng.random(n) < 0.02).astype(np.uint8)):
        for m in range(1, 17):
            want = np.bincount(_shift_or_counts(bits, m), minlength=1 << m)
            assert np.array_equal(_counts(bits, m), want), m


def test_pattern_counts_at_the_longest_windows():
    # Srl allows m up to 24; AE counts at m + 1 <= 21.
    rng = np.random.default_rng(12)
    for n in (3, 30, 509):
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        for m in (20, 21, 24):
            counts = _counts(bits, m)
            assert counts.size == 1 << m and counts.sum() == n
            vals, freq = np.unique(_shift_or_counts(bits, m), return_counts=True)
            assert _nonzero_counts(counts) == dict(zip(vals.tolist(), freq.tolist()))
    assert _MAX_WINDOW >= 24
    with pytest.raises(ValueError):
        _counts(bits, _MAX_WINDOW + 1)


@pytest.mark.parametrize("n", [1, 7, 8, 9, (1 << 16) - 1, (1 << 16) + 1, (1 << 20) + 3])
def test_pattern_counts_equal_the_resized_extension(n):
    # The kernel copies the whole bytes directly and packs the partial
    # byte and wrap bits apart; the reference reads every window of
    # np.resize's copy.  From m = 11 on, lengths 1 to 9 are shorter than
    # m - 1, so their extension wraps more than once.  Compared on the
    # nonzero entries: the reference holds no 2^m array.
    bits = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
    for m in range(1, _MAX_WINDOW + 1):
        counts = _counts(bits, m)
        vals, freq = np.unique(_shift_or_counts(bits, m), return_counts=True)
        seen = np.flatnonzero(counts)
        assert np.array_equal(seen, vals) and np.array_equal(counts[seen], freq), m


@pytest.mark.parametrize("n", [1, 3, 9, 100, 4096, 4099])
def test_fold_equals_a_direct_count(n):
    bits = np.random.default_rng(n + 1).integers(0, 2, n, dtype=np.uint8)
    for m in range(2, 17):
        assert np.array_equal(_fold(_counts(bits, m)), _counts(bits, m - 1)), m


def _packed_rows(mat):
    return [int("".join(map(str, row)), 2) for row in mat.tolist()]


def _row_words(mats):
    """Each row of a stack of 0/1 matrices as one uint64, its first column in bit cols - 1."""
    cols = mats.shape[2]
    return (mats.astype(np.uint64) << np.arange(cols - 1, -1, -1, dtype=np.uint64)).sum(axis=2, dtype=np.uint64)


def _matrix_of_rank(rng, rows, cols, rank):
    """A random 0/1 matrix of exactly ``rank``: rank independent rows, the rest their sums."""
    while True:
        basis = rng.integers(0, 2, (rank, cols), dtype=np.uint8)
        if gf2_rank(_packed_rows(basis), cols) == rank:
            break
    mix = rng.integers(0, 2, (rows - rank, rank), dtype=np.uint8)
    mat = np.concatenate([basis, (mix.astype(np.int64) @ basis) % 2]).astype(np.uint8)
    return mat[rng.permutation(rows)]


def test_batched_rank_matches_gf2_rank_on_random_matrices():
    rng = np.random.default_rng(13)
    for rows, cols, count in ((32, 32, 300), (8, 8, 200), (3, 5, 50), (16, 40, 50), (6, 64, 50)):
        mats = rng.integers(0, 2, (count, rows, cols), dtype=np.uint8)
        want = [gf2_rank(_packed_rows(m), cols) for m in mats]
        assert _gf2_ranks(_row_words(mats), cols).tolist() == want


def test_batched_rank_on_constructed_ranks():
    rng = np.random.default_rng(14)
    ranks = [32, 31, 30, 29, 20, 5, 1, 0] * 3
    mats = np.stack([_matrix_of_rank(rng, 32, 32, r) for r in ranks])
    assert [gf2_rank(_packed_rows(m), 32) for m in mats] == ranks
    assert _gf2_ranks(_row_words(mats), 32).tolist() == ranks


def _int64_excursion(bits, direction):
    """The maximal partial-sum excursion z, by the plain int64 formula."""
    x = 2 * bits.astype(np.int64) - 1
    if direction == "backward":
        x = x[::-1]
    return int(np.abs(np.cumsum(x)).max())


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_cumulative_sums_excursion_matches_int64_formula(direction):
    rng = np.random.default_rng(16)
    seqs = [
        np.zeros(1, np.uint8),
        np.ones(1, np.uint8),
        np.zeros(1000, np.uint8),
        np.ones(1001, np.uint8),
        np.tile([0, 1], 500).astype(np.uint8),
        np.tile([1, 0], 501).astype(np.uint8)[:-1],
        rng.integers(0, 2, 12345, dtype=np.uint8),
        (rng.random(1 << 16) < 0.52).astype(np.uint8),
    ]
    # the scan's chunk edges: walks peaking on the last bit of a chunk
    # (S_c), on the first bit of the next (S_(c+1)) and on the last bit
    c = _CHUNK_BITS
    for n in (c - 1, c, c + 1, 2 * c, 2 * c + 1):
        for ones in (c, c + 1):
            ones = min(ones, n)
            seqs.append(np.repeat(np.array([1, 0], np.uint8), [ones, n - ones]))
            seqs.append(1 - seqs[-1])
        seqs.append(np.concatenate([rng.integers(0, 2, n - 3000, dtype=np.uint8), np.ones(3000, np.uint8)]))
    for bits in seqs:
        res = cumulative_sums(bits, direction)
        assert res.params["z"] == _int64_excursion(bits, direction), bits.size


@pytest.mark.parametrize("test", ["AE", "Srl", "LRO", "CSF", "CSB"])
def test_kernel_memory_is_bounded(test):
    # These kernels run while the battery's DFT holds ~10 MiB of FFT
    # arrays, so at 2^20 bits each stays within a few MiB of its input.
    bits = np.random.default_rng(17).integers(0, 2, 1 << 20, dtype=np.uint8)
    ALL_TESTS[test](bits)
    tracemalloc.start()
    try:
        ALL_TESTS[test](bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@pytest.mark.parametrize("test", ["CSF", "CSB"])
def test_cumulative_sums_scan_sums_its_steps_in_place(test):
    # Two int32 chunks of steps (256 KiB each) at most; letting cumsum cast
    # an int8 chunk to int32 traced 0.81 MiB.
    bits = np.random.default_rng(17).integers(0, 2, 1 << 20, dtype=np.uint8)
    ALL_TESTS[test](bits)
    tracemalloc.start()
    try:
        ALL_TESTS[test](bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * 2**20


@pytest.mark.parametrize("test", ["Srl", "AE"])
def test_pattern_kernels_copy_no_sequence(test):
    # Beside its 1 MiB input, a copy of the circularly extended sequence
    # took Srl to 2.26 MiB; the packed bytes, words, windows and counts
    # stay below 2 MiB.
    bits = np.random.default_rng(17).integers(0, 2, 1 << 20, dtype=np.uint8)
    ALL_TESTS[test](bits)
    tracemalloc.start()
    try:
        ALL_TESTS[test](bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# -- input checks ------------------------------------------------------------------


@pytest.mark.parametrize("test", ALL_TESTS)
@pytest.mark.parametrize("bad, shown", [(2, "2"), (-1, "-1"), (0.5, "0.5"), (np.nan, "nan")])
def test_values_other_than_0_and_1_are_rejected(test, bad, shown):
    # Packing on entry would read a 2 as a 1 and a 0.5 as a 0.
    bits = np.random.default_rng(18).integers(0, 2, 40 * 1024).astype(np.float64 if isinstance(bad, float) else np.int64)
    bits[1234] = bad
    with pytest.raises(ValueError, match=f"got {shown} at index 1234"):
        ALL_TESTS[test](bits)


def test_frequency_of_twos_and_halves_raises():
    with pytest.raises(ValueError, match="got 2 at index 0"):
        frequency(np.full(1000, 2, np.uint8))
    with pytest.raises(ValueError, match="got 0.5 at index 0"):
        frequency(np.tile([0.5, 1.0], 500))


def test_from_bits_rejects_a_value_it_would_pack_as_one():
    with pytest.raises(ValueError, match="got 2 at index 1"):
        BitSequence.from_bits([0, 2, 1])
    with pytest.raises(ValueError, match="got '1' at index 0"):
        BitSequence.from_bits(np.array(["1", "0"]))


def test_bits_of_any_numeric_type_give_the_same_result():
    bits = np.random.default_rng(19).integers(0, 2, 40 * 1024, dtype=np.uint8)
    want = [repr(fn(bits)) for fn in ALL_TESTS.values()]
    for same in (bits.astype(bool), bits.astype(np.int64), bits.astype(np.float64), bits.tolist()):
        assert [repr(fn(same)) for fn in ALL_TESTS.values()] == want


# -- packed kernels against the unpacked reference -----------------------------------


# At n = 100 every Phi argument j * z / sqrt(n) of the cumulative sums
# lies inside +-40 for all four kinds, so those sums drop no term.
REFERENCE_LENGTHS = [100, 1000, 1001, (1 << 16) - 1, (1 << 16) + 1, (1 << 20) - 3, 1 << 20]


def _reference_input(n, kind):
    rng = np.random.default_rng([n, len(kind)])
    if kind == "random":
        return rng.integers(0, 2, n, dtype=np.uint8)
    if kind == "biased":
        return (rng.random(n) < 0.52).astype(np.uint8)
    if kind == "constant":
        return np.ones(n, np.uint8)
    return (np.arange(n) & 1).astype(np.uint8)  # alternating


@pytest.mark.parametrize("kind", ["random", "biased", "constant", "alternating"])
@pytest.mark.parametrize("n", REFERENCE_LENGTHS)
@pytest.mark.parametrize("test", ALL_TESTS)
def test_packed_kernels_equal_the_unpacked_reference(test, n, kind):
    # repr tells an np.float64 p from a float and compares every param.
    bits = _reference_input(n, kind)
    assert repr(ALL_TESTS[test](BitSequence.from_bits(bits))) == repr(nist_reference.ALL_TESTS[test](bits))


@pytest.mark.parametrize("n", [n for n in REFERENCE_LENGTHS if n % 8])
def test_packed_kernels_ignore_the_bits_past_the_end(n):
    # Ones past nbits in the last byte are cleared, so no kernel counts them.
    bits = _reference_input(n, "random")
    data = bytearray(np.packbits(bits).tobytes())
    data[-1] |= (1 << (-n % 8)) - 1
    seq = BitSequence(bytes(data), n)
    assert seq.data == np.packbits(bits).tobytes()
    for test, fn in ALL_TESTS.items():
        assert repr(fn(seq)) == repr(nist_reference.ALL_TESTS[test](bits)), test
