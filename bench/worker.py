"""One benchmark process: set up, run jobs for a while, check every output.

    python3 bench/worker.py --workload modes --seed 1 --seconds 15 [--trace]

Set-up is the time from before ``inru`` and numpy are imported until the
workload's warm-up has finished; seeded input files are made outside it.
Jobs then run back to back in a closed loop, one at a time, and a new job
starts only while it is expected to end within ``--seconds`` (so
``--seconds 0`` measures set-up alone).  With ``--trace`` the traced entry
points are rebound after warm-up, every job is one ``job`` span, and the
spans are written once, after the last job.  The last line of stdout is
one JSON object with the results.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import JOB, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def run_jobs(workload, seconds: float, tracer=None):
    """Run whole jobs until the next one would end past ``seconds``."""
    walls, op_times, failures, attempted = [], {}, [], 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with tracer.span(JOB) if tracer else nullcontext():
            for op, call in workload.operations():
                attempted += 1
                o0 = time.perf_counter()
                try:
                    result = call()
                except Exception:  # reported as a failed operation, the run goes on
                    traceback.print_exc()
                    failures.append(f"{op}: raised")
                    continue
                op_times.setdefault(op, []).append(time.perf_counter() - o0)
                if (problem := workload.check(op, result)) is not None:
                    failures.append(f"{op}: {problem}")
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        if (t1 - start) + (t1 - t0) > seconds:
            return walls, op_times, failures, attempted


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import inru
    import workloads

    if Path(inru.__file__).resolve().parent != ROOT / "src" / "inru":
        raise SystemExit(f"inru imported from {inru.__file__}, not from this checkout")
    imported = time.perf_counter() - T0

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        w0 = time.perf_counter()
        workload.warm_up()
        setup_s = imported + time.perf_counter() - w0
        result = {"setup_s": setup_s, "sizes": workload.sizes()}
        if args.seconds <= 0:
            print(json.dumps(result))
            return 0

        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            walls, op_times, failures, attempted = run_jobs(workload, args.seconds, tracer)
        finally:
            if tracer:
                tracer.restore()
        op_median = {op: statistics.median(ts) for op, ts in op_times.items()}
        phases = {} if failures else workload.phase_metrics(op_median)

    if tracer:
        spans_file = OUT / f"spans-{args.workload}.json"
        spans_file.write_text(json.dumps(tracer.spans))
        result["spans_file"] = str(spans_file)
    result.update(
        walls=walls,
        phases=phases,
        attempted=attempted,
        failures=failures,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
