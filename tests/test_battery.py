import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from inru.battery import (
    BitSequence,
    _test_sequence,
    ks_critical_value,
    ks_uniformity_statistic,
    nist_experiment,
    run_battery,
)
from inru.nist_tests import ALL_TESTS


def test_bit_sequence_round_trips():
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], np.uint8)
    seq = BitSequence.from_bits(bits)
    assert seq.nbits == 9
    assert np.array_equal(seq.bits(), bits)
    assert seq.to01() == "101100101"
    assert BitSequence.from01(seq.to01()) == seq


def test_bit_sequence_validation():
    with pytest.raises(ValueError):
        BitSequence(b"", 0)
    with pytest.raises(ValueError):
        BitSequence(b"\x00", 9)


def test_run_battery_rejects_empty():
    with pytest.raises(ValueError):
        run_battery([])


def test_run_battery_shapes_and_determinism():
    rng = np.random.default_rng(0)
    seqs = [BitSequence.from_bits(rng.integers(0, 2, 1 << 17, dtype=np.uint8))
            for _ in range(3)]
    report = run_battery(seqs)
    assert report.n_sequences == 3
    assert len(report.records) == len(ALL_TESTS) == 10
    again = run_battery(seqs)
    for r1, r2 in zip(report.records, again.records):
        assert [x.p_values for x in r1.results] == [x.p_values for x in r2.results]
    # identical sequences give identical p-values
    dup = run_battery([seqs[0], seqs[0]])
    for rec in dup.records:
        assert rec.results[0].p_values == rec.results[1].p_values


def test_report_aggregation_and_rendering():
    rng = np.random.default_rng(1)
    seqs = [BitSequence.from_bits(rng.integers(0, 2, 1 << 17, dtype=np.uint8))
            for _ in range(4)]
    report = run_battery(seqs)
    freq = report.record("Freq")
    assert freq.mean_p() == pytest.approx(np.mean(freq.p_values()))
    assert 0 <= report.pass_proportion("Freq") <= 1
    table = report.render_table()
    assert "Frequency" in table and "mean p" in table
    machine = report.machine_lines()
    assert len(machine.strip().splitlines()) == 10
    assert machine.startswith("-,-,AE,")
    with pytest.raises(KeyError):
        report.record("XX")


def test_not_applicable_results_stay_out_of_the_aggregates():
    rng = np.random.default_rng(4)
    long, short = (rng.integers(0, 2, n, dtype=np.uint8) for n in (1 << 16, 1 << 14))
    report = run_battery([long, short])
    rank = report.record("Rank")
    assert [r.applicable for r in rank.results] == [True, False]
    assert rank.applicable_count() == 1
    assert rank.mean_p() == rank.results[0].p_values[0]
    assert report.pass_proportion("Rank") == rank.pass_count()
    note = "not applicable to 1 of 2: needs at least 38912 bits, got 16384"
    assert rank.inapplicable_note() == note
    assert f"{rank.pass_count()}/1  matrices=64, {note}" in report.render_table()
    assert report.record("Freq").inapplicable_note() == ""

    only_short = run_battery([short])
    rank = only_short.record("Rank")
    assert np.isnan(rank.mean_p()) and np.isnan(only_short.pass_proportion("Rank"))
    assert "-,-,Rank,n/a,0/0\n" in only_short.machine_lines()
    assert "   n/a     0/0  not applicable to 1 of 1" in only_short.render_table()


def test_nist_experiment_smoke_single_key():
    report = nist_experiment("ctr", keys=1, bits_per_seq=1 << 16, seed=3)
    assert report.n_sequences == 1
    assert len(report.records) == 10
    assert report.mode == "ctr" and report.input_fill == "zeros"
    # 10 tests produce at least one p-value each
    for rec in report.records:
        assert len(rec.p_values()) >= 1
    text = report.render_table()
    assert "(ctr, zeros input)" in text


def test_nist_experiment_deterministic_and_seed_sensitive():
    a = nist_experiment("ofb", keys=2, bits_per_seq=1 << 16, seed=5)
    b = nist_experiment("ofb", keys=2, bits_per_seq=1 << 16, seed=5)
    c = nist_experiment("ofb", keys=2, bits_per_seq=1 << 16, seed=6)
    for r1, r2 in zip(a.records, b.records):
        assert [x.p_values for x in r1.results] == [x.p_values for x in r2.results]
    assert any(
        [x.p_values for x in r1.results] != [x.p_values for x in r3.results]
        for r1, r3 in zip(a.records, c.records)
    )


def test_nist_experiment_jobs_deterministic():
    for mode in ("cbc", "cfb", "ofb", "ctr"):
        for fill in ("zeros", "ones"):
            a = nist_experiment(mode, input_fill=fill, keys=2, bits_per_seq=1 << 16, seed=7, jobs=1)
            b = nist_experiment(mode, input_fill=fill, keys=2, bits_per_seq=1 << 16, seed=7, jobs=2)
            assert a.machine_lines() == b.machine_lines(), (mode, fill)
            for r1, r2 in zip(a.records, b.records):
                assert [x.p_values for x in r1.results] == [x.p_values for x in r2.results]


def test_nist_experiment_memory_does_not_grow_with_keys():
    # Each key's stream is tested and dropped inside its work unit, so
    # the peak is one unit's, however many keys there are.
    def peak(keys):
        tracemalloc.start()
        try:
            nist_experiment("cbc", keys=keys, bits_per_seq=1 << 18, jobs=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    nist_experiment("cbc", keys=1, bits_per_seq=1 << 18)  # build the cached tables first
    assert peak(8) - peak(2) < 0.5 * 2**20


def _bits(n, kind):
    rng = np.random.default_rng(n)
    if kind == "constant":
        return np.ones(n, np.uint8)
    return (rng.random(n) < (0.5 if kind == "random" else 0.6)).astype(np.uint8)


@pytest.mark.parametrize("kind", ["random", "biased", "constant"])
@pytest.mark.parametrize("n", [1, 127, 1000, (1 << 16) - 1, (1 << 16) + 1, 1 << 20])
def test_threaded_sequence_tests_equal_the_ten_in_turn(n, kind):
    # Same p-values, params, applicability and notes, in ALL_TESTS order.
    bits = _bits(n, kind)
    assert _test_sequence(bits) == tuple(fn(bits) for fn in ALL_TESTS.values())


def test_dft_runs_on_a_helper_thread_beside_the_other_tests(monkeypatch):
    threads = {}
    nine_started = threading.Event()
    overlapped = []

    def recording(tid, fn):
        def run(bits):
            threads[tid] = threading.current_thread()
            if tid == "DFT":  # runs while the other nine do, not before them
                overlapped.append(nine_started.wait(timeout=10))
            else:
                nine_started.set()
            return fn(bits)
        return run

    for tid, fn in list(ALL_TESTS.items()):
        monkeypatch.setitem(ALL_TESTS, tid, recording(tid, fn))
    before = threading.active_count()
    results = _test_sequence(_bits(1 << 12, "random"))
    assert [r.test for r in results] == list(ALL_TESTS)
    assert threading.active_count() == before
    assert overlapped == [True]
    main = threading.current_thread()
    assert threads.pop("DFT") is not main
    assert set(threads.values()) == {main}


@pytest.mark.parametrize("lane", ["DFT", "AE"])
def test_an_exception_in_either_lane_reaches_the_caller(monkeypatch, lane):
    def boom(bits):
        raise ArithmeticError(f"{lane} failed")

    monkeypatch.setitem(ALL_TESTS, lane, boom)
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match=f"{lane} failed"):
        _test_sequence(_bits(1 << 12, "random"))
    with pytest.raises(ArithmeticError, match=f"{lane} failed"):
        nist_experiment("ctr", keys=1, bits_per_seq=1 << 12)
    assert threading.active_count() == before


@pytest.mark.parametrize("jobs", [1, 2])
def test_nist_experiment_leaves_no_thread_behind(jobs):
    before = threading.active_count()
    nist_experiment("ofb", keys=2, bits_per_seq=1 << 12, seed=5, jobs=jobs)
    assert threading.active_count() == before


def test_run_battery_takes_bit_sequences_and_arrays_alike():
    rng = np.random.default_rng(2)
    arrays = [rng.integers(0, 2, n, dtype=np.uint8) for n in (1 << 16, 1 << 14, 1000)]
    packed, plain = run_battery([BitSequence.from_bits(a) for a in arrays]), run_battery(arrays)
    assert packed == plain
    assert packed.machine_lines() == plain.machine_lines()


def test_nist_experiment_validates_fill():
    with pytest.raises(ValueError):
        nist_experiment("ctr", input_fill="mixed", keys=1, bits_per_seq=1 << 16)


def test_ks_helpers():
    ps = np.linspace(0.001, 0.999, 200)
    assert ks_uniformity_statistic(ps) < 0.02
    assert ks_critical_value(200, 0.01) == pytest.approx(1.628 / np.sqrt(200))
    with pytest.raises(ValueError):
        ks_uniformity_statistic([])
    with pytest.raises(ValueError):
        ks_critical_value(100, 0.02)
    # a blatantly non-uniform sample trips the statistic
    assert ks_uniformity_statistic(np.full(200, 0.4)) > 0.3


FROZEN = Path(__file__).parent / "data" / "battery_frozen.txt"


def test_seeded_battery_reproduces_frozen_output():
    # One scalar (CBC) and one batch (CTR) stream at the published length:
    # machine lines and every p-value must stay bit for bit the same.
    want = [line for line in FROZEN.read_text().splitlines() if not line.startswith("#")]
    got = []
    for mode, fill in (("cbc", "ones"), ("ctr", "zeros")):
        rep = nist_experiment(mode, input_fill=fill, keys=2, bits_per_seq=1 << 20, seed=11)
        got += rep.machine_lines().splitlines()
        got += [f"p-values {mode},{fill},{r.test}: " + " ".join(map(repr, r.p_values()))
                for r in rep.records]
    assert got == want
