#!/usr/bin/env python3
"""Cost of the pair table and of its two stages, the solve and the pair reading.

    python3 bench/pair_solve_cost.py [--src SRC] [--K 256 512 1024] [--support 128]
                                     [--radius 1.0] [--reps 3]

Imports hillgap from SRC (default: the src/ next to this script), builds a
complex rough potential of support |k| <= SUPPORT and weighted norm RADIUS
at order m = 1 (decay (1+2k)^-0.3, as in the asym-k256 workload; seed 11)
and, per K with n = K/4, times

    table  compute_pair_table(v, 1, K, n_max=n), build_T included
    solve  the solve the pairs are read from: the certified cut and the
           decoupling of the modes above it (low_block(op, n)), or, for an
           older SRC, eigensolver._cut(op, n) or eigenvalues(op, n)
    pair   pair_eigenvalues on that solve: the batched per-pair reduction
           and the grown band, or the older pairing and refinement

Run it once with --src at each tree to compare two versions.  Prints one
JSON object: the median seconds per K and stage over the repetitions, the
rows and the unrefined (grown-band) rows of the table, and the K slope
log2(t(K2) / t(K1)) / log2(K2 / K1) of each stage between neighbouring K.
A large RADIUS (100, say) overwhelms the low gaps, so most pairs refuse
their own reduction and are read from the grown band.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
STAGES = ("table", "solve", "pair")


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(REPO / "src"))
    parser.add_argument("--K", type=int, nargs="+", default=[256, 512, 1024])
    parser.add_argument("--support", type=int, default=128)
    parser.add_argument("--radius", type=float, default=1.0)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from hillgap import (
        PotentialFamily, PotentialSpec, SobolevParams, build_T, compute_pair_table,
        make_potential, normalize_zero_mode, pair_eigenvalues,
    )
    from hillgap import eigensolver

    if hasattr(eigensolver, "low_block"):
        solve = eigensolver.low_block
    elif hasattr(eigensolver, "_cut"):
        def solve(op, n):
            return eigensolver._cut(op, n)[0]
    else:
        solve = eigensolver.eigenvalues

    spec = PotentialSpec(
        PotentialFamily.RANDOM_ROUGH, {"window": args.support}, radius=args.radius, seed=11
    )
    v, _ = normalize_zero_mode(make_potential(spec, SobolevParams(m=1, alpha=0.25)))
    seconds, rows, unrefined = {}, {}, {}
    for K in args.K:
        n = K // 4
        op = build_T(v, 1, K)
        t_table, table = _median_time(lambda: compute_pair_table(v, 1, K, n_max=n), args.reps)
        t_solve, solved = _median_time(lambda: solve(op, n), args.reps)
        t_pair, _ = _median_time(lambda: pair_eigenvalues(solved, n_max=n), args.reps)
        seconds[K] = {"table": t_table, "solve": t_solve, "pair": t_pair}
        rows[K], unrefined[K] = len(table.rows), list(table.unrefined)
    ks = sorted(seconds)
    slopes = {
        stage: {
            f"{k1}-{k2}": math.log2(seconds[k2][stage] / seconds[k1][stage]) / math.log2(k2 / k1)
            for k1, k2 in zip(ks, ks[1:])
        }
        for stage in STAGES
    }
    print(json.dumps({"src": args.src, "m": 1, "support": args.support, "radius": args.radius,
                      "reps": args.reps, "seconds": seconds, "rows": rows, "unrefined": unrefined,
                      "k_slope": slopes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
