"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines;
the slow full-scale battery reproduction is opt-in via ``-m slow``.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from inru.anf import PRODUCT_VAR_NAMES, Anf, algebraic_degree, coordinate_anf
from inru.algsys import (
    assignment_from_trace,
    count_system_size,
    emit_algebraic_system,
    system_satisfied,
)
from inru.batch import BatchCipher
from inru.battery import ks_critical_value, ks_uniformity_statistic, nist_experiment
from inru.cipher import Block, Diversifier, MasterKey, decrypt_block, encrypt_block, expand_key
from inru.experiments import avalanche_plaintext, diff_propagation_experiment, sac_matrix
from inru.nist_tests import ALL_TESTS
from inru.quasigroup import INRU, check_latin, conjugate, has_proper_subquasigroup, is_medial, is_simple

DATA = Path(__file__).parent / "data"


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_inverse_property():
    t0 = time.perf_counter()
    eng = BatchCipher()
    rng = np.random.default_rng(101)

    n = 10_000
    keys = rng.integers(0, 16, size=(n, 32), dtype=np.uint8)
    ivs = rng.integers(0, 16, size=(n, 16), dtype=np.uint8)
    pts = rng.integers(0, 16, size=(n, 16), dtype=np.uint8)
    rks = eng.expand_keys(keys, ivs)
    full_ok = np.array_equal(eng.decrypt(eng.encrypt(pts, rks), rks), pts)

    reduced_ok = True
    m = 1000
    for rounds in range(1, 17):
        keys = rng.integers(0, 16, size=(m, 32), dtype=np.uint8)
        ivs = rng.integers(0, 16, size=(m, 16), dtype=np.uint8)
        pts = rng.integers(0, 16, size=(m, 16), dtype=np.uint8)
        rks = eng.expand_keys(keys, ivs)
        ct = eng.encrypt(pts, rks, rounds=rounds)
        reduced_ok &= np.array_equal(eng.decrypt(ct, rks, rounds=rounds), pts)

    # a scalar-path sample on top of the batched bulk
    r = np.random.default_rng(102)
    for _ in range(20):
        key = MasterKey(tuple(int(v) for v in r.integers(0, 16, 32)))
        iv = Diversifier(tuple(int(v) for v in r.integers(0, 16, 16)))
        pt = Block(tuple(int(v) for v in r.integers(0, 16, 16)))
        rk = expand_key(key, iv)
        full_ok &= decrypt_block(encrypt_block(pt, rk), rk) == pt

    elapsed = time.perf_counter() - t0
    report(
        1,
        full_ok and reduced_ok and elapsed < 30,
        f"decrypt(encrypt)=id for 10^4 triples and 16x10^3 reduced-round triples"
        f" in {elapsed:.1f}s (< 30 s)",
    )


def test_criterion_02_coordinate_anf_exact():
    expected = {}
    for line in (DATA / "coordinate_anf_expected.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        coord, poly = line.split(":", 1)
        expected[int(coord.removeprefix("coord"))] = Anf.from_str(poly, PRODUCT_VAR_NAMES)
    exact = all(coordinate_anf(INRU, i).monomials == expected[i].monomials for i in range(4))
    report(2, exact, "all four coordinate ANFs equal the frozen polynomials, zero tolerance")


def test_criterion_03_degree_six_everywhere():
    left = conjugate(INRU, "left")
    ok = all(algebraic_degree(INRU, m) == 6 for m in range(1, 16)) and all(
        algebraic_degree(left, m) == 6 for m in range(1, 16)
    )
    report(3, ok, "algebraic degree 6 for all 15 masks of the product and its left conjugate")


def test_criterion_04_structure_claims():
    t0 = time.perf_counter()
    latin = check_latin(INRU.mul_table)
    sub = has_proper_subquasigroup(INRU)
    medial, _ = is_medial(INRU)
    simple = is_simple(INRU)
    elapsed = time.perf_counter() - t0
    ok = latin and not sub and not medial and simple and elapsed < 5
    report(
        4,
        ok,
        f"latin={latin} subquasigroup={sub} medial={medial} simple={simple}"
        f" in {elapsed:.2f}s (< 5 s)",
    )


def test_criterion_05_avalanche_ranges():
    t0 = time.perf_counter()
    av = avalanche_plaintext(trials=10_000, keys=6, seed=105)
    sac = sac_matrix(trials=10_000, keys=6, seed=106)
    elapsed = time.perf_counter() - t0

    def inside(rng95):
        lo, hi = rng95
        return 48.0 < lo < 50.0 < hi < 52.0

    ok = inside(av.ranges.r95) and inside(sac.ranges.r95) and elapsed < 300
    report(
        5,
        ok,
        f"avalanche 95% range {tuple(round(v, 2) for v in av.ranges.r95)} and strict"
        f" avalanche {tuple(round(v, 2) for v in sac.ranges.r95)} inside (48, 52)"
        f" and containing 50, in {elapsed:.1f}s (< 5 min)",
    )


def test_criterion_06_algebraic_system():
    nl16, _ = count_system_size(16)
    _, vars2 = count_system_size(2)
    system = emit_algebraic_system(2)
    rng = np.random.default_rng(107)
    assigns = []
    for _ in range(100):
        key = MasterKey(tuple(int(v) for v in rng.integers(0, 16, 32)))
        iv = Diversifier(tuple(int(v) for v in rng.integers(0, 16, 16)))
        m = Block(tuple(int(v) for v in rng.integers(0, 16, 16)))
        assigns.append(assignment_from_trace(m, expand_key(key, iv), 2))
    satisfied = system_satisfied(system, assigns)
    ok = nl16 == 1024 and vars2 == 256 and satisfied
    report(
        6,
        ok,
        f"16-round system has {nl16} nonlinear equations (=2^10), 2-round system"
        f" has {vars2} variables after elimination (=256), 100 traces satisfy it",
    )


def test_criterion_07_statistical_battery_desk_scale():
    t0 = time.perf_counter()
    failures = []
    for mode in ("cbc", "cfb", "ofb", "ctr"):
        for fill in ("zeros", "ones"):
            rep = nist_experiment(mode, input_fill=fill, keys=16,
                                  bits_per_seq=1 << 18, seed=110)
            for rec in rep.records:
                mean_p = rec.mean_p()
                passed = rec.pass_count()
                if not (0.30 < mean_p < 0.70) or passed < 13:
                    failures.append(f"{mode}/{fill}/{rec.test}: mean={mean_p:.3f} pass={passed}/16")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600
    report(
        7,
        ok,
        f"all 8 mode/input batteries: mean p in (0.30, 0.70), pass >= 13/16 per test,"
        f" in {elapsed:.0f}s (< 10 min)" + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_08_second_round_fully_active():
    res = diff_propagation_experiment(2, Block.from_hex("000000000000000f"),
                                      trials=1000, seed=109)
    ok = bool(np.all(res.activation[1] == 1.0))
    report(8, ok, "last-nibble difference activates all 16 positions in round 2, 1000/1000 trials")


def test_criterion_09_ks_calibration():
    rng = np.random.default_rng(110)
    n_seq, nbits = 200, 1 << 17
    seqs = rng.integers(0, 2, size=(n_seq, nbits), dtype=np.uint8)
    crit = ks_critical_value(n_seq)
    worst = {}
    for tid, fn in ALL_TESTS.items():
        ps = [p for j in range(n_seq) for p in fn(seqs[j]).p_values]
        worst[tid] = ks_uniformity_statistic(ps)
    # serial produces two p-values per sequence; its KS uses all of them
    ok = all(d < crit for d in worst.values())
    worst_test = max(worst, key=worst.get)
    report(
        9,
        ok,
        f"KS uniformity on 200 reference sequences below the 1% critical value"
        f" {crit:.4f} for all ten tests (worst {worst_test}={worst[worst_test]:.4f})",
    )


def test_criterion_10_throughput_sanity():
    eng = BatchCipher()
    rng = np.random.default_rng(111)
    rks = eng.expand_keys(rng.integers(0, 16, size=(1, 32), dtype=np.uint8))[0]
    blocks = rng.integers(0, 16, size=(200_000, 16), dtype=np.uint8)
    eng.encrypt(blocks[:1000], rks)  # warm-up
    t0 = time.perf_counter()
    eng.encrypt(blocks, rks)
    rate = blocks.shape[0] / (time.perf_counter() - t0)
    report(10, rate >= 1e5, f"bulk single-thread encryption at {rate:,.0f} blocks/s (>= 1e5)")


@pytest.mark.slow
def test_full_scale_battery_reproduction():
    """The published-scale experiment: 64 keys, 2^20 bits, band (0.40, 0.62)."""
    failures = []
    for mode in ("cbc", "cfb", "ofb", "ctr"):
        for fill in ("zeros", "ones"):
            rep = nist_experiment(mode, input_fill=fill, keys=64,
                                  bits_per_seq=1 << 20, seed=113, jobs=2)
            for rec in rep.records:
                mean_p = rec.mean_p()
                if not (0.40 < mean_p < 0.62):
                    failures.append(f"{mode}/{fill}/{rec.test}: mean={mean_p:.3f}")
    assert not failures, failures
