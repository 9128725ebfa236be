#!/usr/bin/env python3
"""Cost of the pair table from the whole window against the cut solve, and
of its refinement stage per pair against the batch.

    python3 bench/pair_solve_cost.py [--src SRC] [--K 128 256 512] [--support 128] [--reps 3]

Imports hillgap from SRC (default: the src/ next to this script), builds a
complex rough potential of support |k| <= SUPPORT at order m = 1 (decay
(1+2k)^-0.3, as in the asym-k256 workload; seed 11) and, per K with
n = K/4, times two routes to the same pair table:

    whole  pair_eigenvalues(eigenvalues(op), n)      all 2K modes
    cut    pair_eigenvalues(eigenvalues(op, n), n)   the modes up to the cut

and, on the cut solve's pairs, the refinement stage on its own:

    per_pair  tests/refine_oracle.py, one Rayleigh-Ritz and one pass over T per pair
    batch     eigensolver._pair_offsets, every pair from one product T W

(SRC must provide the batched hillgap.eigensolver._pair_offsets.)

Prints one JSON object: the median seconds per K and route over the
repetitions, the number of eigenvalues each route solved for, the largest
difference of the pair offsets between the routes, and the K slope
log2(t(K2) / t(K1)) / log2(K2 / K1) of each route between neighbouring K;
under "refine" the same for the refinement stage, with the number of pairs.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def _slopes(seconds, labels):
    ks = sorted(seconds)
    return {
        label: {
            f"{k1}-{k2}": math.log2(seconds[k2][label] / seconds[k1][label]) / math.log2(k2 / k1)
            for k1, k2 in zip(ks, ks[1:])
        }
        for label in labels
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(REPO / "src"))
    parser.add_argument("--K", type=int, nargs="+", default=[128, 256, 512])
    parser.add_argument("--support", type=int, default=128)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    sys.path[:0] = [args.src, str(REPO / "tests")]
    from hillgap import (
        PotentialFamily, PotentialSpec, SobolevParams, build_T, eigenvalues, make_potential,
        normalize_zero_mode, pair_eigenvalues,
    )
    from hillgap.eigensolver import _pair_offsets
    from refine_oracle import reference_offsets

    spec = PotentialSpec(PotentialFamily.RANDOM_ROUGH, {"window": args.support}, radius=1.0, seed=11)
    v, _ = normalize_zero_mode(make_potential(spec, SobolevParams(m=1, alpha=0.25)))
    routes = {"whole": lambda op, n: eigenvalues(op), "cut": lambda op, n: eigenvalues(op, n)}
    seconds, solved, max_diff = {}, {}, {}
    refine_s, refine_diff, pairs = {}, {}, {}
    for K in args.K:
        n = K // 4
        op = build_T(v, 1, K)
        seconds[K], solved[K], tables = {}, {}, {}
        for label, solve in routes.items():
            times = []
            for _ in range(args.reps):
                t0 = time.perf_counter()
                eigs = solve(op, n)
                tables[label] = pair_eigenvalues(eigs, n_max=n)
                times.append(time.perf_counter() - t0)
            seconds[K][label] = statistics.median(times)
            solved[K][label] = len(eigs.values)
        max_diff[K] = max(
            max(abs(a.d_lo - b.d_lo), abs(a.d_hi - b.d_hi))
            for a, b in zip(tables["whole"].rows, tables["cut"].rows)
        )
        # the refinement stage on the paired discs of the cut solve, the last route
        rows = tables["cut"].rows
        ns, radii = [r.n for r in rows], [r.disc_radius_used for r in rows]
        idx = [np.flatnonzero(np.abs(eigs.values - r.center) < r.disc_radius_used) for r in rows]
        t_ref, ref = _median_time(
            lambda: [reference_offsets(eigs, *a)[0] for a in zip(ns, idx, radii)], args.reps
        )
        t_batch, (batch, _) = _median_time(lambda: _pair_offsets(eigs, ns, idx, radii), args.reps)
        refine_s[K] = {"per_pair": t_ref, "batch": t_batch}
        refine_diff[K] = float(np.max(np.abs(np.array(ref).reshape(-1, 2) - batch), initial=0.0))
        pairs[K] = len(ns)
    print(json.dumps({"src": args.src, "m": 1, "support": args.support, "reps": args.reps,
                      "seconds": seconds, "eigenvalues_solved": solved,
                      "max_offset_diff": max_diff, "k_slope": _slopes(seconds, routes),
                      "refine": {"pairs": pairs, "seconds": refine_s,
                                 "max_offset_diff": refine_diff,
                                 "k_slope": _slopes(refine_s, ("per_pair", "batch"))}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
