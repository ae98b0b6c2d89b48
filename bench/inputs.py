"""Measure the input properties the workloads are built to have.

Usage (from the root of a source checkout): python3 bench/inputs.py [--seed 1] [--n 20000]

Draws ``n`` inputs of motion-chain and point-tracking from the seed, exactly
as a run does, and prints the shares that decide which code paths run:
half-turn records and files, chain lengths, and the kinds of point sets,
with the share of point-tracking draws that were drawn again because their
fit turns within 3.2e-5 rad of a half turn (the known defect, measured apart
by near_pi_fail_frac).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--n", type=int, default=20000)
    args = parser.parse_args()

    chain = run.load("motion-chain", args.seed)
    lengths, half_turns = [], []
    for _ in range(args.n):
        _text, _affine, _probes, n, halves = chain.make()
        lengths.append(n)
        half_turns.append(halves)
    q = statistics.quantiles(lengths, n=4)
    motion = {
        "records_per_file": {"min": min(lengths), "q1": q[0], "median": q[1], "q3": q[2],
                             "max": max(lengths), "mean": statistics.fmean(lengths)},
        "half_turn_record_share": sum(half_turns) / sum(lengths),
        "files_with_a_half_turn": sum(h > 0 for h in half_turns) / args.n,
    }

    points = run.load("point-tracking", args.seed)
    from workloads import near_pi_fail_frac  # importable once run.load has found the library

    kinds = Counter(points.make()[0] for _ in range(args.n))
    tracking = {kind: count / args.n for kind, count in sorted(kinds.items())}
    tracking["drawn_again"] = points.drawn_again / (args.n + points.drawn_again)
    tracking["near_pi_fail_frac"] = near_pi_fail_frac(args.seed)

    print(json.dumps({"seed": args.seed, "n": args.n, "motion-chain": motion,
                      "point-tracking": tracking}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
