import tracemalloc
from itertools import groupby

import numpy as np
import pytest

from inru.nist_tests import (
    _CHUNK_BITS,
    _LRO_REGIMES,
    _MAX_WINDOW,
    ALL_TESTS,
    TestResult,
    _fold,
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

# 100-bit reference sequence; expected p-values were computed with an
# independent implementation of the same statistics on top of
# scipy.special (erfc / gammaincc) and frozen here.
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


def _nonzero_counts(counts):
    idx = np.flatnonzero(counts)
    return dict(zip(idx.tolist(), counts[idx].tolist()))


@pytest.mark.parametrize(
    "n", [1, 2, 5, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 100, 1001, 4099, 65535, 65536, 65537]
)
def test_pattern_counts_match_shift_or_counter(n):
    # Each of the 8 bit offsets is counted apart, over (n - r + 7) // 8
    # windows; sparse ones leave some offsets with only small windows.
    rng = np.random.default_rng(n)
    for bits in (rng.integers(0, 2, n, dtype=np.uint8), (rng.random(n) < 0.02).astype(np.uint8)):
        for m in range(1, 17):
            want = np.bincount(_shift_or_counts(bits, m), minlength=1 << m)
            assert np.array_equal(_pattern_counts(bits, m), want), m


def test_pattern_counts_at_the_longest_windows():
    # Srl allows m up to 24; AE counts at m + 1 <= 21.
    rng = np.random.default_rng(12)
    for n in (3, 30, 509):
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        for m in (20, 21, 24):
            counts = _pattern_counts(bits, m)
            assert counts.size == 1 << m and counts.sum() == n
            vals, freq = np.unique(_shift_or_counts(bits, m), return_counts=True)
            assert _nonzero_counts(counts) == dict(zip(vals.tolist(), freq.tolist()))
    assert _MAX_WINDOW >= 24
    with pytest.raises(ValueError):
        _pattern_counts(bits, _MAX_WINDOW + 1)


@pytest.mark.parametrize("n", [1, 3, 9, 100, 4096, 4099])
def test_fold_equals_a_direct_count(n):
    bits = np.random.default_rng(n + 1).integers(0, 2, n, dtype=np.uint8)
    for m in range(2, 17):
        assert np.array_equal(_fold(_pattern_counts(bits, m)), _pattern_counts(bits, m - 1)), m


def _packed_rows(mat):
    return [int("".join(map(str, row)), 2) for row in mat.tolist()]


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
        assert _gf2_ranks(mats).tolist() == want


def test_batched_rank_on_constructed_ranks():
    rng = np.random.default_rng(14)
    ranks = [32, 31, 30, 29, 20, 5, 1, 0] * 3
    mats = np.stack([_matrix_of_rank(rng, 32, 32, r) for r in ranks])
    assert [gf2_rank(_packed_rows(m), 32) for m in mats] == ranks
    assert _gf2_ranks(mats).tolist() == ranks


def test_matrix_rank_sizes():
    rng = np.random.default_rng(15)
    assert matrix_rank(rng.integers(0, 2, 40 * 16 * 64, dtype=np.uint8), 16, 64).params["matrices"] == 40
    with pytest.raises(ValueError, match="64"):
        matrix_rank(np.ones(40 * 8 * 65, np.uint8), 8, 65)
    with pytest.raises(ValueError):
        matrix_rank(np.ones(4096, np.uint8), 0, 32)
    with pytest.raises(ValueError, match="rows <= cols"):
        matrix_rank(np.ones(40 * 40 * 16, np.uint8), 40, 16)


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
    # These kernels run while the battery's DFT holds ~32 MiB of FFT
    # buffers, so at 2^20 bits each stays within a few MiB of its input.
    bits = np.random.default_rng(17).integers(0, 2, 1 << 20, dtype=np.uint8)
    ALL_TESTS[test](bits)
    tracemalloc.start()
    try:
        ALL_TESTS[test](bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
