#!/usr/bin/env python3
"""Trace how fast constructed approximants reach random window targets.

Builds the canonical doubling/tripling pair, draws unit-norm targets from a
seeded generator, and prints the per-step distances as CSV so the decay can
be plotted or diffed between runs.
"""

import argparse
import random
import sys

from opdyn import NSeq, op_norm
from opdyn.constructor import TargetTuple, default_bundle, verify_approximant_convergence
from opdyn.criteria import CriterionInstance, write_reports_csv
from opdyn.lattice import PermutationUnitary, WeightedShift, WeightRule


def unit_norm(rng: random.Random, m: int):
    from opdyn import FiniteMatrix

    entries = {
        (i, j): rng.uniform(-1.0, 1.0)
        for i in range(-m, m + 1)
        for j in range(-m, m + 1)
    }
    a = FiniteMatrix(entries)
    return a * (1.0 / op_norm(a))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=1, help="window half-width")
    ap.add_argument("--r1", type=int, default=1, help="first exponent multiplier")
    ap.add_argument("--kmax", type=int, default=40)
    ap.add_argument("--tol", type=float, default=1e-6)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    inst = CriterionInstance(
        shifts=(
            WeightedShift(WeightRule.piecewise(2.0, 0.5)),
            WeightedShift(WeightRule.piecewise(3.0, 1.0 / 3.0)),
        ),
        unitary=PermutationUnitary.translation(1),
        r_list=(args.r1, 2 * args.r1),
        n_seq=NSeq.all_k(),
        m=args.m,
        k_max=args.kmax,
    )
    rng = random.Random(args.seed)
    targets = TargetTuple(
        unit_norm(rng, args.m),
        (unit_norm(rng, args.m), unit_norm(rng, args.m)),
        args.m,
    )
    reports, _ = verify_approximant_convergence(
        default_bundle(inst), targets, inst, args.tol
    )
    write_reports_csv(reports, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
