"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload modes --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  Every measurement happens in a fresh
worker process (``bench/worker.py``), one job at a time, so load is a
closed loop with one client and peak RSS belongs to one workload.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median
over six set-up-only processes plus the measuring one, ``wall_s`` the
median job time, ``peak_rss_mib`` the measuring process's peak RSS.
``--trace 1`` prints the per-layer metrics: half the time runs untraced
(phase metrics, the reference for the tracing overhead), half in a
separate traced process whose spans give per-job self times and counts.

Metric names and units come from ``BENCHMARK.json``.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without the program's sources next to the benchmark it
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import BATCH_METHODS, attributed_share, layer_totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 6
# Every run must end within 180 s, the worker processes included.
DEADLINE_S = 170


def run_worker(workload: str, seed: int, seconds: float, deadline: float, trace: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)] + (["--trace"] if trace else [])
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise SystemExit(f"worker for {workload} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(args, deadline: float) -> tuple[dict, list[dict]]:
    # Set-up probes run before and after the measuring worker, so the
    # set-up samples span the whole run like the job samples do.
    def probe() -> float:
        return run_worker(args.workload, args.seed, 0, deadline)["setup_s"]

    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    main = run_worker(args.workload, args.seed, args.seconds, deadline)
    setups += [main["setup_s"]] + [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(main["walls"]),
        "peak_rss_mib": main["peak_rss_mib"],
    }
    values.update(main["phases"])
    print(f"setup_s samples: {[round(s, 4) for s in setups]}")
    print(f"wall_s samples (jobs): {[round(w, 4) for w in main['walls']]}")
    return values, [main]


def per_layer(args, deadline: float) -> tuple[dict, list[dict]]:
    half = args.seconds / 2
    plain = run_worker(args.workload, args.seed, half, deadline)
    traced = run_worker(args.workload, args.seed, half, deadline, trace=True)
    spans = json.loads(Path(traced["spans_file"]).read_text())
    jobs = len(traced["walls"])
    totals = layer_totals(spans)
    values = dict(plain["phases"])
    for name, t in totals.items():
        values[f"{name}.self_s"] = t["self_s"] / jobs
        values[f"{name}.calls"] = t["calls"] / jobs
    for name, _, count in BATCH_METHODS:
        values[f"{name}.{count}"] = totals.get(name, {"work": 0})["work"] / jobs
    values["trace.overhead_s"] = statistics.median(traced["walls"]) - statistics.median(plain["walls"])
    values["trace.attributed_pct"] = 100 * attributed_share(spans)
    print(f"traced jobs: {jobs}, untraced jobs: {len(plain['walls'])}")
    return values, [plain, traced]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    needed = [ROOT / "src" / "inru" / "__init__.py", ROOT / "tests" / "straightline.py"]
    if missing := [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]:
        print(f"error: program sources missing from the checkout: {', '.join(missing)}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    values, workers = (per_layer if args.trace else end_to_end)(args, deadline)
    attempted = sum(w["attempted"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    values["error_rate"] = len(failures) / attempted
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if unknown := sorted(set(workers[0]["phases"]) - set(units)):
        raise SystemExit(f"phase metrics missing from BENCHMARK.json: {unknown}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "git": git_revision(), "sizes": workers[0]["sizes"],
    }
    print("record " + json.dumps(record))
    for failure in failures:
        print(f"failed {failure}")
    print(f"{len(failures)} of {attempted} operations failed")
    for name, value in values.items():
        if name in units:
            print(f"{name} = {value} {units[name]}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
