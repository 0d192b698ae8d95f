"""Outside-in span tracing of the inru layers.

A traced run rebinds, from here, the public functions each inru module
imports (for example ``inru.modes.encrypt_block`` or
``inru.battery.expand_key``), the ``BatchCipher`` methods and the entries
of ``nist_tests.ALL_TESTS``.  Every call through a rebound name records
one span ``(name, start, end, parent, work)`` in memory; ``Tracer.restore``
puts the originals back.  Untraced runs never call ``Tracer.install`` and
so never see a wrapper.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _rows(args, kwargs, key):
    """Leading dimension of a batch argument: blocks or keys processed."""
    arr = kwargs[key] if key in kwargs else args[1]
    return int(np.shape(arr)[0])


# (span name, module, attribute) of every module-level function traced.
FUNCTIONS = (
    ("cipher.encrypt_block", "inru.cipher", "encrypt_block"),
    ("cipher.decrypt_block", "inru.cipher", "decrypt_block"),
    ("cipher.expand_key", "inru.cipher", "expand_key"),
    ("cipher.encrypt_block_traced", "inru.cipher", "encrypt_block_traced"),
    ("modes.mode_encrypt", "inru.modes", "mode_encrypt"),
    ("modes.mode_decrypt", "inru.modes", "mode_decrypt"),
    ("modes.cipher_stream", "inru.modes", "cipher_stream"),
    ("battery.nist_experiment", "inru.battery", "nist_experiment"),
    ("battery.run_battery", "inru.battery", "run_battery"),
    ("experiments.avalanche_plaintext", "inru.experiments", "avalanche_plaintext"),
    ("experiments.sac_matrix", "inru.experiments", "sac_matrix"),
    ("experiments.avalanche_key", "inru.experiments", "avalanche_key"),
    ("experiments.diff_propagation_experiment", "inru.experiments", "diff_propagation_experiment"),
    ("cli.main", "inru.cli", "main"),
)

# (span name, method, argument holding the batch); the argument's row
# count is the span's work count, reported under the argument's name.
BATCH_METHODS = (
    ("batch.encrypt", "encrypt", "blocks"),
    ("batch.decrypt", "decrypt", "blocks"),
    ("batch.expand_keys", "expand_keys", "keys"),
)

JOB = "job"


class Tracer:
    """Records spans in memory and rebinds the traced entry points."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def _open(self) -> tuple[int, int, float]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent, self.clock()

    def _close(self, name: str, opened: tuple[int, int, float], work: int) -> None:
        end = self.clock()
        self._stack.pop()
        idx, parent, start = opened
        self.spans[idx] = (name, start, end, parent, work)

    def wrap(self, name: str, fn, work=None):
        """``fn`` recording one span per call; ``work(args, kwargs)`` counts its work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, opened, work(args, kwargs) if work else 0)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one whole job."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, opened, 0)

    def _rebind_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "inru" and not mod_name.startswith("inru."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((setattr, mod, attr, original))

    def install(self) -> None:
        """Rebind every traced entry point; call ``restore`` to undo."""
        for name, mod_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr)
            self._rebind_everywhere(original, self.wrap(name, original))
        cls = importlib.import_module("inru.batch").BatchCipher
        for name, method, arg in BATCH_METHODS:
            original = cls.__dict__[method]
            setattr(cls, method, self.wrap(name, original, functools.partial(_rows, key=arg)))
            self._undo.append((setattr, cls, method, original))
        tests = importlib.import_module("inru.nist_tests").ALL_TESTS
        for tid, original in list(tests.items()):
            tests[tid] = self.wrap(f"nist_tests.{tid}", original)
            self._undo.append((dict.__setitem__, tests, tid, original))

    def restore(self) -> None:
        while self._undo:
            setter, target, key, original = self._undo.pop()
            setter(target, key, original)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus what its children cover."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i], start, end)
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: summed self time, call count and work count."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "work": 0})
    for (name, _, _, _, work), own in zip(spans, self_times(spans)):
        t = totals[name]
        t["self_s"] += own
        t["calls"] += 1
        t["work"] += work
    return dict(totals)


def attributed_share(spans) -> float:
    """Share of the job spans' time covered by their direct child spans."""
    jobs = [i for i, s in enumerate(spans) if s[0] == JOB]
    job_time = sum(spans[i][2] - spans[i][1] for i in jobs)
    if job_time <= 0:
        return 0.0
    covered = 0.0
    for i in jobs:
        kids = [(s[1], s[2]) for s in spans if s[3] == i]
        covered += _covered(kids, spans[i][1], spans[i][2])
    return covered / job_time
