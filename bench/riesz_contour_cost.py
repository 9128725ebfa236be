#!/usr/bin/env python3
"""Per-contour cost of riesz_projector against the window size K.

    python3 bench/riesz_contour_cost.py [--src SRC] [--K 128 256 512] [--m 1] [--reps 3]

Imports hillgap from SRC (default: the src/ next to this script, so pointing
SRC at another checkout measures that checkout's route), builds the trig
potential's operator at order m for each K, certifies its spectrum once
(untimed), and times riesz_projector on the n = 4 contour with 64 nodes.
Prints one JSON object: the median seconds per K over the repetitions, the
K slope log2(t(K2) / t(K1)) / log2(K2 / K1) between neighbouring K, and per
K the size of the shift-inverse block the traces were read from (null where
SRC's ProjectorPair carries no block).
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--K", type=int, nargs="+", default=[128, 256, 512])
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from hillgap import ContourSpec, FourierSequence, build_T, eigenvalues, riesz_projector

    v = FourierSequence.make("even", TRIG)
    contour = ContourSpec(n=4, m=args.m, nodes=64)
    seconds, blocks = {}, {}
    for K in args.K:
        eigs = eigenvalues(build_T(v, args.m, K))
        times = []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            pair = riesz_projector(eigs, contour)
            times.append(time.perf_counter() - t0)
        seconds[K] = statistics.median(times)
        blocks[K] = getattr(pair, "block", None)
    ks = sorted(seconds)
    slopes = {
        f"{k1}-{k2}": math.log2(seconds[k2] / seconds[k1]) / math.log2(k2 / k1)
        for k1, k2 in zip(ks, ks[1:])
    }
    print(json.dumps({"src": args.src, "contour": {"m": args.m, "n": 4, "nodes": 64},
                      "reps": args.reps, "seconds": seconds, "k_slope": slopes,
                      "block": blocks}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
