#!/usr/bin/env python3
"""Full-scale avalanche and strict-avalanche experiment.

Flips every plaintext bit of 10000 random inputs under 6 random keys and
prints the 95/98/99 percent ranges of the per-unit avalanche percentages,
plus the same summary for the pooled 64x64 dependence matrix.
"""

import argparse
import time

from arg_types import positive_int, round_count
from inru.experiments import avalanche_plaintext, render_ranges, sac_matrix


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=positive_int, default=10_000)
    ap.add_argument("--keys", type=positive_int, default=6)
    ap.add_argument("--rounds", type=round_count, default=16)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=positive_int, default=1)
    args = ap.parse_args()

    t0 = time.perf_counter()
    av = avalanche_plaintext(args.trials, keys=args.keys, rounds=args.rounds,
                             seed=args.seed, jobs=args.jobs)
    print(render_ranges("plaintext avalanche", av.ranges))
    print(f"per-bit means span ({av.per_bit_mean.min():.2f}, {av.per_bit_mean.max():.2f})")

    sac = sac_matrix(args.trials, keys=args.keys, rounds=args.rounds,
                     seed=args.seed + 1, jobs=args.jobs)
    print(render_ranges("strict avalanche", sac.ranges))
    print(f"dependence matrix mean {sac.matrix.mean() * 100:.3f}%")
    print(f"elapsed {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
