#!/usr/bin/env python3
"""Per-contour cost of riesz_projector against the window size K, on both routes.

    python3 bench/riesz_contour_cost.py [--src SRC] [--K 128 256 512] [--m 1] [--reps 3]

Imports hillgap from SRC (default: the src/ next to this script, so pointing
SRC at another checkout measures that checkout's route), builds the operator
of each potential at order m for each K, certifies its spectrum once
(untimed), and times riesz_projector on the n = 4 contour with 64 nodes.
The weak trig potential leaves the contour's resonant pair certified
(route "pair": a Riccati decoupling of the pair's two modes and a 2 x 2
shift-invert; checkouts before it read the pair by the pair table's own
reduction, with no inverse); the strong one overwhelms the gaps at m = 1,
so the pair certificate refuses its contour, whose poles come from one
shift-invert of the smallest certified band of the low block (route "band";
checkouts before it took a shift-invert of the whole window there).  Prints one JSON object: for trig at the top level and for the
strong potential under "strong", the median seconds per K over the
repetitions, the K slope log2(t(K2) / t(K1)) / log2(K2 / K1) between
neighbouring K, and per K the route and the number of eigenvalues the
traces were summed over (null where SRC's ProjectorPair carries no such
field).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

TRIG = {2: 1.0, -2: 0.5, 4: 0.3, -4: 0.2j, 6: 0.1}
STRONG = {2: 60.0, -2: 45j, 4: 30.0}


def _route(pair):
    dense = getattr(pair, "dense", None)
    return None if dense is None else ("band" if dense else "pair")


def measure(hillgap, coeffs, ks, m, reps) -> dict:
    v = hillgap.FourierSequence.make("even", coeffs)
    contour = hillgap.ContourSpec(n=4, m=m, nodes=64)
    seconds, blocks, routes = {}, {}, {}
    for K in ks:
        eigs = hillgap.eigenvalues(hillgap.build_T(v, m, K))
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            pair = hillgap.riesz_projector(eigs, contour)
            times.append(time.perf_counter() - t0)
        seconds[K] = statistics.median(times)
        blocks[K] = getattr(pair, "block", None)
        routes[K] = _route(pair)
    ks = sorted(seconds)
    slopes = {
        f"{k1}-{k2}": math.log2(seconds[k2] / seconds[k1]) / math.log2(k2 / k1)
        for k1, k2 in zip(ks, ks[1:])
    }
    return {"seconds": seconds, "k_slope": slopes, "block": blocks, "route": routes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--K", type=int, nargs="+", default=[128, 256, 512])
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import hillgap

    trig = measure(hillgap, TRIG, args.K, args.m, args.reps)
    strong = measure(hillgap, STRONG, args.K, args.m, args.reps)
    print(json.dumps({"src": args.src, "contour": {"m": args.m, "n": 4, "nodes": 64},
                      "reps": args.reps, **trig, "strong": strong}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
