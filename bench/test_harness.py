"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench/test_harness.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inru  # noqa: E402
from inru import cipher, modes, nist_tests  # noqa: E402
from inru.batch import BatchCipher  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    trace = [
        ("job", 0.0, 10.0, -1, 0),
        ("a", 1.0, 5.0, 0, 0),
        ("b", 2.0, 3.0, 1, 0),
        ("b", 3.5, 4.0, 1, 0),
        ("c", 6.0, 9.0, 0, 3),
    ]
    assert spans.self_times(trace) == [3.0, 2.5, 1.0, 0.5, 3.0]
    totals = spans.layer_totals(trace)
    assert totals["b"] == {"self_s": 1.5, "calls": 2, "work": 0}
    assert totals["c"] == {"self_s": 3.0, "calls": 1, "work": 3}
    assert spans.attributed_share(trace) == pytest.approx(0.7)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    trace = [
        ("p", 0.0, 10.0, -1, 0),
        ("x", 1.0, 4.0, 0, 0),
        ("y", 3.0, 6.0, 0, 0),
        ("z", 9.0, 12.0, 0, 0),
    ]
    assert spans.self_times(trace)[0] == pytest.approx(4.0)


def test_tracer_records_parents_and_work_with_its_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda xs: len(xs), work=lambda args, kwargs: len(args[0]))
    outer = tracer.wrap("outer", lambda: inner([1, 2, 3]) + inner([4]))
    with tracer.span(spans.JOB):
        assert outer() == 4
    assert tracer.spans == [
        ("job", 0.0, 7.0, -1, 0),
        ("outer", 1.0, 6.0, 0, 0),
        ("inner", 2.0, 3.0, 1, 3),
        ("inner", 4.0, 5.0, 1, 1),
    ]


def _entry_points():
    seen = {}
    for name, mod in sys.modules.items():
        if name == "inru" or name.startswith("inru."):
            seen.update({(name, a): v for a, v in vars(mod).items() if callable(v)})
    seen.update({("BatchCipher", m): BatchCipher.__dict__[m] for m in ("encrypt", "decrypt", "expand_keys")})
    seen.update({("ALL_TESTS", t): f for t, f in nist_tests.ALL_TESTS.items()})
    return seen


def test_wrappers_are_restored_after_tracing():
    before = _entry_points()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert modes.encrypt_block is not before[("inru.modes", "encrypt_block")]
        assert inru.battery.expand_key is cipher.expand_key is not before[("inru.cipher", "expand_key")]
        rks = BatchCipher().expand_keys(np.zeros((2, 32), dtype=np.uint8))
        nist_tests.ALL_TESTS["Freq"](np.ones(128, dtype=np.uint8))
    finally:
        tracer.restore()
    after = _entry_points()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert [(s[0], s[4]) for s in tracer.spans] == [("batch.expand_keys", 2), ("nist_tests.Freq", 0)]
    assert rks.shape == (2, 17, 16)


def test_seeded_inputs_are_deterministic():
    a, b, c = (workloads.ModesWorkload.make_inputs(s) for s in (7, 7, 8))
    assert a == b
    assert a["key"] != c["key"] and a["plaintexts"]["ctr"] != c["plaintexts"]["ctr"]
    assert {m: len(p) for m, p in a["plaintexts"].items()} == workloads.MODE_BYTES
    assert any(n % 8 for n in workloads.MODE_BYTES.values())
    assert workloads.AnalysisWorkload.make_inputs(7) == workloads.AnalysisWorkload.make_inputs(7)
    assert workloads.AnalysisWorkload.make_inputs(7) != workloads.AnalysisWorkload.make_inputs(8)


def test_workload_names_agree_with_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS)
