#!/usr/bin/env python3
"""Cost and verdict of the localization census against the window size K.

    python3 bench/localize_cost.py [--src SRC] [--K 256 512 1024] [--reps 3]

Imports hillgap from SRC (default: the src/ next to this script, so pointing
SRC at another checkout measures that checkout's census) and, per K and per
order m = 1, 2, 3, times localization_report on the trig potential
{2: 1, -2: 0.5, 4: 0.3, -4: 0.2i, 6: 0.1} at alpha = 0, R = 1, C = 1.1
(the `localize` defaults), build_T included.  Prints one JSON object: the
median seconds per K and m over the repetitions, the census's n0_empirical
and cone_count per K and m (K/4 in n0 is the failure verdict), and the K
slope log2(t(K2) / t(K1)) / log2(K2 / K1) of each m between neighbouring K.
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
ORDERS = (1, 2, 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--K", type=int, nargs="+", default=[256, 512, 1024])
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from hillgap import FourierSequence, localization_report
    from hillgap.seqspace import Parity

    v = FourierSequence.make(Parity.EVEN, TRIG)
    seconds, n0, cone = {}, {}, {}
    for K in args.K:
        seconds[K], n0[K], cone[K] = {}, {}, {}
        for m in ORDERS:
            times = []
            for _ in range(args.reps):
                t0 = time.perf_counter()
                report = localization_report(v, m, 0.0, 1.0, 1.1, K)
                times.append(time.perf_counter() - t0)
            seconds[K][m] = statistics.median(times)
            n0[K][m], cone[K][m] = report.n0_empirical, report.cone_count
    ks = sorted(seconds)
    slopes = {
        m: {
            f"{k1}-{k2}": math.log2(seconds[k2][m] / seconds[k1][m]) / math.log2(k2 / k1)
            for k1, k2 in zip(ks, ks[1:])
        }
        for m in ORDERS
    }
    print(json.dumps({"src": args.src, "alpha": 0.0, "R": 1.0, "C": 1.1, "reps": args.reps,
                      "seconds": seconds, "n0": n0, "cone_count": cone, "k_slope": slopes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
