#!/usr/bin/env python3
"""Published-scale randomness battery: 64 keys, 2^20-bit sequences.

Runs the ten tests over CBC, CFB, OFB and CTR keystreams for both the
all-zeros and all-ones constant plaintext, printing one table per
mode/input combination plus the machine-readable summary lines, whose
last column is ``passed/applicable``: the sequences that passed a test
over those it applies to.  --jobs spreads the keys over worker processes;
each worker encrypts a key's stream and runs the ten tests on it, and the
results fold in key order, so stdout is the same for every --jobs.  On a
2-core Intel Xeon VM (Python 3.11, numpy 2.4) with a drifting load, two
single-job runs took 1 min 37 s and 2 min 16 s (13-22 s per CBC/CFB/OFB
table, 7-11 s per CTR table) and two --jobs 2 runs 1 min 1 s and 1 min
5 s (6-11 s and 5-6 s).  Per-table wall times go to stderr, so the seeded
stdout is byte-identical.
"""

import argparse
import sys
import time

from arg_types import positive_int
from inru.battery import nist_experiment
from inru.modes import MODES


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--keys", type=positive_int, default=64)
    ap.add_argument("--bits", type=positive_int, default=1 << 20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=positive_int, default=1)
    ap.add_argument("--modes", nargs="*", choices=MODES, default=list(MODES))
    args = ap.parse_args()

    machine = []
    for mode in args.modes:
        for fill in ("zeros", "ones"):
            t0 = time.perf_counter()
            rep = nist_experiment(mode, input_fill=fill, keys=args.keys,
                                  bits_per_seq=args.bits, seed=args.seed,
                                  jobs=args.jobs)
            print(rep.render_table() + "\n")
            print(f"[{mode}/{fill}: {time.perf_counter() - t0:.0f}s]", file=sys.stderr)
            machine.append(rep.machine_lines())
    print("mode,input,test,mean_p,passed/applicable")
    print("".join(machine), end="")


if __name__ == "__main__":
    main()
