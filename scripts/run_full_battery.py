#!/usr/bin/env python3
"""Published-scale randomness battery: 64 keys, 2^20-bit sequences.

Runs the ten tests over CBC, CFB, OFB and CTR keystreams for both the
all-zeros and all-ones constant plaintext, printing one table per
mode/input combination plus the machine-readable summary lines, whose
last column is ``passed/applicable``: the sequences that passed a test
over those it applies to.  --jobs spreads the keys over worker processes;
each worker encrypts a key's stream and runs the ten tests on it, and the
results fold in key order, so stdout is the same for every --jobs.  A
sequence's DFT test runs on a second thread beside the other nine, so a
single job uses both cores during the tests; with --jobs 2 both cores
already run a worker.  On a 2-core Intel Xeon VM (Python 3.11, numpy 2.4)
with a drifting load, --seed 0 took 38.5 s single-job (6 s per
CBC/CFB/OFB table, 1 s per CTR table) at a peak RSS of 51 MiB, and
22.4 s with --jobs 2, the script at 38 MiB and its largest worker at
44 MiB.  With the tests reading the sequence unpacked, one byte a bit,
instead of as packed bytes, the same runs a minute later took 45.5 s
(7 s and 2 s per table) at 52 MiB, and 27.0 s with --jobs 2.  Per-table
wall times and peak RSS go to stderr, so the seeded stdout is
byte-identical.
"""

import argparse
import resource
import sys
import time

from arg_types import positive_int
from inru.battery import nist_experiment
from inru.modes import MODES


def peak_rss(jobs):
    """This process's peak RSS so far and, with worker processes, the largest ended worker's."""
    mib = [resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux
           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    text = f"peak RSS {mib[0]:.0f} MiB"
    return text + f", workers {mib[1]:.0f} MiB" if jobs > 1 else text


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--keys", type=positive_int, default=64)
    ap.add_argument("--bits", type=positive_int, default=1 << 20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=positive_int, default=1)
    ap.add_argument("--modes", nargs="+", choices=MODES, default=list(MODES))
    args = ap.parse_args()
    if len(set(args.modes)) < len(args.modes):
        ap.error(f"argument --modes: a mode is repeated: {' '.join(args.modes)}")

    machine = []
    for mode in args.modes:
        for fill in ("zeros", "ones"):
            t0 = time.perf_counter()
            rep = nist_experiment(mode, input_fill=fill, keys=args.keys,
                                  bits_per_seq=args.bits, seed=args.seed,
                                  jobs=args.jobs)
            print(rep.render_table() + "\n")
            print(f"[{mode}/{fill}: {time.perf_counter() - t0:.0f}s, {peak_rss(args.jobs)}]", file=sys.stderr)
            machine.append(rep.machine_lines())
    print("mode,input,test,mean_p,passed/applicable")
    print("".join(machine), end="")


if __name__ == "__main__":
    main()
