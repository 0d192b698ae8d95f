"""Battery driver: run the ten tests over many sequences and aggregate.

The aggregate statistic per test is the arithmetic mean of all its
p-values across sequences (the serial test contributes two per sequence),
which is what a one-number-per-test summary of many sequences reports.
A sequence passes a test when every p-value is at least the significance
level (default 0.01).

A result marked not applicable (a sequence below the test's minimum
length, or the runs test's failed frequency prerequisite) has no p-value.
It enters neither the mean p-value nor the pass proportion, whose
denominator is the number of sequences the test applies to.  The reports
print that count and the reason, and print ``n/a`` as the mean of a test
that applies to no sequence.

A sequence's ten tests run on two threads: DFT on a helper thread, the
other nine on the calling thread (:func:`_test_sequence`).  Results are
the same as the ten run in turn, in ``ALL_TESTS`` order.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .cipher import MasterKey, expand_key
from .experiments import run_units
from .modes import ModeConfig, cipher_stream
from .nist_tests import ALL_TESTS, TEST_NAMES, TestResult

DEFAULT_ALPHA = 0.01


@dataclass(frozen=True)
class BitSequence:
    """A packed bit string (big-endian bit order inside each byte)."""

    data: bytes
    nbits: int

    def __post_init__(self):
        if self.nbits <= 0:
            raise ValueError("BitSequence needs a positive bit count")
        if len(self.data) != (self.nbits + 7) // 8:
            raise ValueError("packed data length does not match nbits")

    @classmethod
    def from_bits(cls, bits) -> "BitSequence":
        bits = np.asarray(bits, dtype=np.uint8)
        return cls(np.packbits(bits).tobytes(), bits.size)

    @classmethod
    def from01(cls, text: str) -> "BitSequence":
        return cls.from_bits(np.frombuffer(text.encode(), np.uint8) - ord("0"))

    def bits(self) -> np.ndarray:
        return np.unpackbits(np.frombuffer(self.data, np.uint8))[: self.nbits]

    def to01(self) -> str:
        return "".join("01"[b] for b in self.bits())


@dataclass(frozen=True)
class TestRecord:
    """All sequences' results for a single test."""

    test: str
    params: dict
    results: tuple[TestResult, ...]

    def p_values(self) -> list[float]:
        return [p for r in self.results for p in r.p_values]

    def mean_p(self) -> float:
        """Mean p-value over the sequences the test applies to; nan if none."""
        ps = self.p_values()
        return float(np.mean(ps)) if ps else math.nan

    def pass_count(self, alpha: float = DEFAULT_ALPHA) -> int:
        return sum(1 for r in self.results if r.passed(alpha))

    def applicable_count(self) -> int:
        return sum(1 for r in self.results if r.applicable)

    def summary(self, alpha: float, digits: int) -> tuple[str, str]:
        """The rendered mean p-value and ``passes/applicable`` of this test."""
        applicable = self.applicable_count()
        mean = f"{self.mean_p():.{digits}f}" if applicable else "n/a"
        return mean, f"{self.pass_count(alpha)}/{applicable}"

    def inapplicable_note(self) -> str:
        """How many sequences the test does not apply to, and why; or ''."""
        skipped = [r for r in self.results if not r.applicable]
        if not skipped:
            return ""
        return f"not applicable to {len(skipped)} of {len(self.results)}: {skipped[0].note}"


@dataclass(frozen=True)
class TestReport:
    records: tuple[TestRecord, ...]
    n_sequences: int
    alpha: float = DEFAULT_ALPHA
    mode: str = ""
    input_fill: str = ""
    meta: dict = field(default_factory=dict)

    def record(self, test: str) -> TestRecord:
        for r in self.records:
            if r.test == test:
                return r
        raise KeyError(test)

    def mean_p(self, test: str) -> float:
        return self.record(test).mean_p()

    def pass_proportion(self, test: str) -> float:
        """Passing share of the sequences the test applies to; nan if none."""
        rec = self.record(test)
        applicable = rec.applicable_count()
        return rec.pass_count(self.alpha) / applicable if applicable else math.nan

    def render_table(self) -> str:
        label = f" ({self.mode}, {self.input_fill} input)" if self.mode else ""
        lines = [
            f"randomness battery over {self.n_sequences} sequence(s){label},"
            f" significance {self.alpha}",
        ]
        if self.meta:
            lines.append("parameters: " + ", ".join(f"{k}={v}" for k, v in self.meta.items()))
        lines.append(f"{'test':6s} {'name':28s} {'mean p':>8s} {'pass':>7s}  params")
        for r in self.records:
            mean, passes = r.summary(self.alpha, 4)
            params = [f"{k}={v}" for k, v in r.params.items() if k != "n"]
            note = r.inapplicable_note()
            if note:
                params.append(note)
            lines.append(
                f"{r.test:6s} {TEST_NAMES[r.test]:28s} {mean:>8s} {passes:>7s}  {', '.join(params)}"
            )
        return "\n".join(lines) + "\n"

    def machine_lines(self) -> str:
        mode = self.mode or "-"
        fill = self.input_fill or "-"
        out = []
        for r in self.records:
            mean, passes = r.summary(self.alpha, 6)
            out.append(f"{mode},{fill},{r.test},{mean},{passes}")
        return "\n".join(out) + "\n"


def _test_sequence(bits: np.ndarray) -> tuple[TestResult, ...]:
    """The ten tests on one sequence, in ``ALL_TESTS`` order.

    DFT, about half of the tests' time and mostly an FFT that releases the
    GIL, runs on a helper thread while this thread runs the other nine.
    The helper is joined before this returns or raises, so no thread
    outlives the call (``run_units`` forks its workers), and an exception
    raised in it is raised here.
    """
    dft = []  # the helper's result or exception

    def run_dft():
        try:
            dft.append(ALL_TESTS["DFT"](bits))
        except BaseException as exc:  # handed to the calling thread
            dft.append(exc)

    helper = threading.Thread(target=run_dft, name="inru-dft")
    helper.start()
    try:
        results = {t: fn(bits) for t, fn in ALL_TESTS.items() if t != "DFT"}
    finally:
        helper.join()
    if isinstance(dft[0], BaseException):
        raise dft[0]
    results["DFT"] = dft[0]
    return tuple(results[t] for t in ALL_TESTS)


def _report(rows: list[tuple[TestResult, ...]], alpha: float, **labels) -> TestReport:
    """Fold per-sequence result tuples, in sequence order, into one record per test."""
    records = tuple(TestRecord(t, dict(rs[0].params), rs) for t, rs in zip(ALL_TESTS, zip(*rows)))
    return TestReport(records, len(rows), alpha, **labels)


def run_battery(
    sequences: list[BitSequence] | list[np.ndarray], alpha: float = DEFAULT_ALPHA
) -> TestReport:
    """Run every test on every sequence."""
    if not sequences:
        raise ValueError("run_battery needs at least one sequence")
    arrays = (s.bits() if isinstance(s, BitSequence) else s for s in sequences)
    return _report([_test_sequence(np.asarray(a, np.uint8)) for a in arrays], alpha)


def _one_key_results(args) -> tuple[TestResult, ...]:
    """One work unit: a key's ciphertext stream and the ten tests on it."""
    mode, mode_iv, nonce, key_hex, fill, nbits = args
    cfg = ModeConfig(mode, mode_iv=mode_iv, nonce=nonce, padding="none")
    rk = expand_key(MasterKey.from_hex(key_hex))
    return _test_sequence(cipher_stream(cfg, rk, fill, nbits))


def nist_experiment(
    mode: str,
    input_fill: str = "zeros",
    keys: int = 64,
    bits_per_seq: int = 1 << 20,
    seed: int = 0,
    alpha: float = DEFAULT_ALPHA,
    jobs: int = 1,
) -> TestReport:
    """Battery over ciphertext streams of ``keys`` random master keys in one mode.

    Sequences are the ciphertexts of the constant all-zeros or all-ones
    message.  ``mode`` is a mode name; each key's mode IV and nonce are
    drawn from the same seeded generator as the keys, so a (seed, mode,
    fill) triple fully determines the report.  A key's stream and its ten
    tests are one work unit, folded in key order whatever ``jobs`` is.
    """
    if input_fill not in ("zeros", "ones"):
        raise ValueError("input_fill must be 'zeros' or 'ones'")
    if keys < 1:
        raise ValueError("keys must be positive")
    fill = 0x00 if input_fill == "zeros" else 0xFF
    rng = np.random.default_rng(seed)
    units = []
    for _ in range(keys):
        key_hex = "".join(f"{v:x}" for v in rng.integers(0, 16, 32))
        mode_iv = int(rng.integers(0, 1 << 63)) * 2 + int(rng.integers(0, 2))
        nonce = int(rng.integers(0, 1 << 32))
        units.append((mode, mode_iv, nonce, key_hex, fill, bits_per_seq))
    return _report(
        run_units(_one_key_results, units, jobs),
        alpha,
        mode=mode,
        input_fill=input_fill,
        meta={"keys": keys, "bits_per_seq": bits_per_seq, "seed": seed},
    )


def ks_uniformity_statistic(p_values) -> float:
    """Kolmogorov-Smirnov distance between the p-values and U(0,1)."""
    ps = np.sort(np.asarray(p_values, dtype=np.float64))
    if ps.size == 0:
        raise ValueError("no p-values")
    n = ps.size
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max(np.max(hi - ps), np.max(ps - lo)))


def ks_critical_value(n: int, alpha: float = 0.01) -> float:
    """Asymptotic KS critical value; 1.628/sqrt(n) at the 1% level."""
    coeff = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628}
    if alpha not in coeff:
        raise ValueError(f"no tabulated coefficient for alpha={alpha}")
    return coeff[alpha] / np.sqrt(n)
