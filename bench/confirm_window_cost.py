#!/usr/bin/env python3
"""Cost of the pair table that confirms a fixed --K, against the window size K.

    python3 bench/confirm_window_cost.py [--src SRC] [--K 128 256 512] [--support 128] [--reps 3]

Imports hillgap from SRC (default: the src/ next to this script), builds a
complex rough potential of support |k| <= SUPPORT at order m = 1 (decay
(1+2k)^-0.3, as in the asym-k256 workload; seed 11), and times
compute_pair_table with n_max = K/4 at three windows per K: K itself, the
confirming window confirm_window(v, K) that `spectrum` and `asymptotics`
solve for a fixed --K, and the doubled window 2K (SRC must provide
hillgap.eigensolver.confirm_window).  Prints one JSON object: the median
seconds per K and window over the repetitions, and the K slope
log2(t(K2) / t(K1)) / log2(K2 / K1) of each window between neighbouring K.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--K", type=int, nargs="+", default=[128, 256, 512])
    parser.add_argument("--support", type=int, default=128)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from hillgap import (
        PotentialFamily, PotentialSpec, SobolevParams, compute_pair_table, make_potential,
    )
    from hillgap.eigensolver import confirm_window

    spec = PotentialSpec(PotentialFamily.RANDOM_ROUGH, {"window": args.support}, radius=1.0, seed=11)
    v = make_potential(spec, SobolevParams(m=1, alpha=0.25))
    windows = {}
    seconds = {}
    for K in args.K:
        windows[K] = {"K": K, "confirm": confirm_window(v, K), "doubled": 2 * K}
        seconds[K] = {}
        for label, window in windows[K].items():
            times = []
            for _ in range(args.reps):
                t0 = time.perf_counter()
                compute_pair_table(v, 1, window, n_max=K // 4)
                times.append(time.perf_counter() - t0)
            seconds[K][label] = statistics.median(times)
    ks = sorted(seconds)
    slopes = {
        label: {
            f"{k1}-{k2}": math.log2(seconds[k2][label] / seconds[k1][label]) / math.log2(k2 / k1)
            for k1, k2 in zip(ks, ks[1:])
        }
        for label in ("K", "confirm", "doubled")
    }
    print(json.dumps({"src": args.src, "m": 1, "support": args.support, "reps": args.reps,
                      "windows": windows, "seconds": seconds, "k_slope": slopes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
