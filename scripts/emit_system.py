#!/usr/bin/env python3
"""Emit the GF(2) polynomial system of a reduced-round encryption to a file."""

import argparse

from arg_types import round_count
from inru.algsys import emit_algebraic_system


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("rounds", type=round_count)
    ap.add_argument("out", help="output file, one polynomial per line")
    args = ap.parse_args()

    system = emit_algebraic_system(args.rounds)
    nonlinear = len(system.nonlinear_equations())
    unknowns = system.count_after_linear_elimination()
    with open(args.out, "w") as fh:
        fh.write(system.render())
    print(f"{args.rounds} round(s): {nonlinear} nonlinear equations,"
          f" {unknowns} unknowns after linear elimination -> {args.out}")


if __name__ == "__main__":
    main()
