import multiprocessing.process
import operator
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from inru.batch import SLICE_BLOCKS, BatchCipher
from inru.cipher import Block, MasterKey, encrypt_block, expand_key
from inru.experiments import (
    _flip_unit,
    avalanche_key,
    avalanche_plaintext,
    diff_propagation_experiment,
    run_units,
    sac_matrix,
)

LAST_NIBBLE = Block.from_hex("000000000000000f")
KEY_CHUNK = SLICE_BLOCKS // 129  # avalanche_key trials per batch of flipped keys
GOLDEN_FILE = Path(__file__).parent / "data" / "diff_prop_activation.txt"


def _golden_activations():
    """{(rounds, trials, seed): activation counts} from the frozen file."""
    tables, rows = {}, None
    for line in GOLDEN_FILE.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        values = [int(v) for v in line.split()]
        if len(values) == 3:
            rows = tables.setdefault(tuple(values), [])
        else:
            rows.append(values)
    return tables


GOLDEN = _golden_activations()


def test_zero_difference_rejected():
    with pytest.raises(ValueError):
        diff_propagation_experiment(2, Block.zero(), trials=10)


def test_rounds_validated():
    with pytest.raises(ValueError):
        diff_propagation_experiment(0, LAST_NIBBLE, trials=10)


def diff_propagation(trials, rounds):
    return diff_propagation_experiment(rounds, LAST_NIBBLE, trials)


@pytest.mark.parametrize("rounds", [0, 17])
@pytest.mark.parametrize("experiment", [avalanche_plaintext, sac_matrix, avalanche_key, diff_propagation])
def test_rounds_validated_before_any_key_schedule(experiment, rounds, monkeypatch):
    calls = []

    def spy(original):
        def called(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)

        return called

    monkeypatch.setattr(BatchCipher, "expand_key_bytes", spy(BatchCipher.expand_key_bytes))
    with pytest.raises(ValueError, match="rounds must be in 1..16"):
        experiment(4, rounds=rounds)
    assert calls == []


def test_two_round_full_activation():
    res = diff_propagation_experiment(2, LAST_NIBBLE, trials=300, seed=1)
    assert res.activation.shape == (2, 16)
    # round 1: the difference enters only the last position
    assert np.all(res.activation[0, :15] == 0.0)
    assert res.activation[0, 15] == 1.0
    # round 2: every Sbox goes active, every time
    assert np.all(res.activation[1] == 1.0)


@pytest.mark.parametrize("rounds,trials,seed", sorted(GOLDEN))
def test_diff_propagation_matches_frozen_activations(rounds, trials, seed):
    res = diff_propagation_experiment(rounds, LAST_NIBBLE, trials, seed=seed)
    expected = np.array(GOLDEN[rounds, trials, seed]) / trials
    assert res.activation.shape == (rounds, 16)
    assert np.array_equal(res.activation, expected)


def _traced(fn):
    """(fn's result, the traced peak of memory while it ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_diff_propagation_memory_does_not_grow_with_trials():
    # Pairs are traced one slice of trials at a time; beyond the slice only
    # the up-front draws (48 bytes a trial) grow with the trial count.
    def run(trials):
        return diff_propagation_experiment(2, LAST_NIBBLE, trials, seed=4)

    run(1)  # build the cached tables first
    _, one = _traced(lambda: run(SLICE_BLOCKS))
    res, three = _traced(lambda: run(2 * SLICE_BLOCKS + 1))
    assert three - one < 1.5 * 2**20
    assert np.all(res.activation[1] == 1.0)  # every slice's pairs counted


@pytest.mark.parametrize("nibble", [0, 5, 11])
def test_one_round_causality(nibble):
    delta = Block(tuple(0x3 if i == nibble else 0 for i in range(16)))
    res = diff_propagation_experiment(1, delta, trials=100, seed=2)
    assert np.all(res.activation[0, :nibble] == 0.0)
    assert np.all(res.activation[0, nibble:] == 1.0)


def test_avalanche_ranges_and_per_bit(rng):
    res = avalanche_plaintext(trials=900, keys=3, seed=5)
    assert res.per_bit_mean.shape == (64,)
    assert res.unit_values.shape == (900,)
    lo, hi = res.ranges.r95
    assert 46.0 < lo < 50.0 < hi < 54.0
    assert np.all(res.per_bit_mean > 47) and np.all(res.per_bit_mean < 53)
    # 98% and 99% ranges nest around the 95% one
    assert res.ranges.r98[0] <= lo and res.ranges.r98[1] >= hi
    assert res.ranges.r99[0] <= res.ranges.r98[0]


def test_avalanche_validates_trials():
    with pytest.raises(ValueError):
        avalanche_plaintext(trials=0)


@pytest.mark.parametrize("experiment", [avalanche_plaintext, sac_matrix])
@pytest.mark.parametrize("trials, keys, ran", [(4, 6, 4), (6, 6, 6), (7, 3, 3)])
def test_results_count_the_keys_that_ran(experiment, trials, keys, ran):
    res = experiment(trials=trials, keys=keys, seed=4)
    assert res.trials == trials and res.keys == ran


def test_sac_matrix_statistics():
    res = sac_matrix(trials=900, keys=3, seed=6)
    assert res.matrix.shape == (64, 64)
    assert res.matrix.min() >= 0.0 and res.matrix.max() <= 1.0
    assert abs(res.matrix.mean() - 0.5) < 0.01


def test_weak_one_round_diffusion_versus_full_rounds():
    # one round leaves much higher variance across units and much larger
    # worst-case dependence deviations than the full cipher
    full = avalanche_plaintext(trials=600, keys=2, rounds=16, seed=7)
    one = avalanche_plaintext(trials=600, keys=2, rounds=1, seed=7)
    assert one.unit_values.std() > 2 * full.unit_values.std()
    sac_full = sac_matrix(trials=600, keys=2, rounds=16, seed=8)
    sac_one = sac_matrix(trials=600, keys=2, rounds=1, seed=8)
    dev_full = np.abs(sac_full.matrix - 0.5).max()
    dev_one = np.abs(sac_one.matrix - 0.5).max()
    assert dev_one > dev_full
    assert dev_one > 0.08


def test_jobs_do_not_change_results():
    a = avalanche_plaintext(trials=300, keys=3, seed=9, jobs=1)
    b = avalanche_plaintext(trials=300, keys=3, seed=9, jobs=2)
    assert np.array_equal(a.unit_values, b.unit_values)
    assert np.array_equal(a.per_bit_mean, b.per_bit_mean)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_units_keeps_unit_order(jobs):
    assert run_units(operator.neg, [3, 1, 4, 1, 5], jobs) == [-3, -1, -4, -1, -5]


def test_run_units_starts_a_process_per_unit_at_most(monkeypatch):
    starts = []
    start = multiprocessing.process.BaseProcess.start

    def counted_start(process):
        starts.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted_start)
    one_unit = avalanche_plaintext(trials=4, keys=1, seed=9, jobs=3)
    assert starts == []  # one unit runs in the calling process
    assert np.array_equal(one_unit.unit_values, avalanche_plaintext(trials=4, keys=1, seed=9).unit_values)
    assert run_units(operator.neg, [7, 8], 3) == run_units(operator.neg, [7, 8], 1)
    assert 1 <= len(starts) <= 2


def test_run_units_rejects_no_jobs():
    with pytest.raises(ValueError, match="jobs must be positive"):
        run_units(operator.neg, [1], 0)


def test_import_loads_no_process_pool():
    # run_units imports the pool only when it starts workers, so the
    # import time of every entry point stays free of it.
    code = ("import sys, inru, inru.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_key_avalanche_small_run():
    res = avalanche_key(trials=40, seed=10)
    assert res.min_roundkey_flips >= 1  # no key-bit flip ever leaves round keys unchanged
    assert 0.45 < res.roundkey_flip_mean < 0.55
    assert 0.45 < res.ct_flip_mean < 0.55
    assert res.per_bit_ct_mean.shape == (128,)
    assert np.all(res.per_bit_ct_mean > 0.40) and np.all(res.per_bit_ct_mean < 0.60)


@pytest.mark.parametrize("rounds", [1, 16])
def test_flip_counts_follow_the_scalar_bit_order(rounds):
    # String bit b is Block.bit(b); one round leaves the flip pattern of
    # each input bit visible, so a permuted bit order changes the counts.
    key, count, sub_seed = list(range(16)) * 2, 3, 17
    flip_counts, unit_means = _flip_unit((key, count, sub_seed, rounds))
    rk = expand_key(MasterKey(tuple(key)))
    nibbles = np.random.default_rng(sub_seed).integers(0, 16, size=(count, 16), dtype=np.uint8)
    want = np.zeros((64, 64), dtype=np.int64)
    per_trial = []
    for row in nibbles:
        m = Block(tuple(int(v) for v in row))
        c = encrypt_block(m, rk, rounds)
        flips = np.array([[c.bit(j) != encrypt_block(m.flip_bit(b), rk, rounds).bit(j) for j in range(64)]
                          for b in range(64)])
        want += flips
        per_trial.append(flips.sum())
    assert np.array_equal(flip_counts, want)
    assert np.array_equal(unit_means, np.array(per_trial) / (64 * 64) * 100.0)


@pytest.mark.parametrize("rounds", [1, 16])
def test_key_avalanche_follows_the_scalar_definitions(rounds):
    trials, seed = 2, 8
    res = avalanche_key(trials, rounds, seed)
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 16, size=(trials, 32), dtype=np.uint8)
    pts = rng.integers(0, 16, size=(trials, 16), dtype=np.uint8)
    rk_diffs = np.zeros((trials, 128), dtype=np.int64)
    ct_diffs = np.zeros((trials, 128), dtype=np.int64)
    for t in range(trials):
        key, m = MasterKey(tuple(int(v) for v in keys[t])), Block(tuple(int(v) for v in pts[t]))
        rk = expand_key(key)
        c = encrypt_block(m, rk, rounds)
        for b in range(128):
            flipped = expand_key(key.flip_bit(b))
            rk_diffs[t, b] = np.unpackbits(rk.key_bytes ^ flipped.key_bytes).sum()
            d = encrypt_block(m, flipped, rounds)
            ct_diffs[t, b] = sum(c.bit(j) != d.bit(j) for j in range(64))
    assert res.min_roundkey_flips == rk_diffs.min()
    assert res.roundkey_flip_mean == rk_diffs.mean() / (17 * 64)
    assert res.ct_flip_mean == ct_diffs.mean() / 64
    assert np.array_equal(res.per_bit_ct_mean, ct_diffs.mean(axis=0) / 64)


def test_key_avalanche_memory_does_not_grow_with_trials():
    # Each chunk of trials schedules and encrypts its 129 keys per trial
    # and is dropped; only the (trials, 128) flip counts grow.
    avalanche_key(1)  # build the cached tables first
    _, one = _traced(lambda: avalanche_key(KEY_CHUNK, rounds=1))
    res, three = _traced(lambda: avalanche_key(2 * KEY_CHUNK + 1, rounds=1))
    assert three - one < 2**20
    # Frozen from an unchunked run: every chunk reads its own keys and plaintexts.
    assert (res.min_roundkey_flips, res.roundkey_flip_mean, res.ct_flip_mean) == (
        470, 0.5001289411674597, 0.4997702205882353)


def test_key_avalanche_validates_trials():
    with pytest.raises(ValueError):
        avalanche_key(trials=0)


@pytest.mark.slow
def test_key_avalanche_thousand_trials_never_misses():
    res = avalanche_key(trials=1000, seed=11)
    assert res.min_roundkey_flips >= 1
    assert 0.48 < res.ct_flip_mean < 0.52
