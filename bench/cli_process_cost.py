#!/usr/bin/env python3
"""Wall time, CPU time and memory of CLI runs as fresh processes, against K.

    python3 bench/cli_process_cost.py [--src SRC] [--baseline SRC] [--K 128 256 512 1000] [--reps 3]

Per K, runs `python -m hillgap spectrum`, `asymptotics` and `riesz-check` with
`--K K --n-max K/4` on the trig potential {2: 1, -2: 0.5, 4: 0.3, -4: 0.2i,
6: 0.1}, and per repetition `lemmas` once at its defaults, each as a fresh
process importing hillgap from SRC (default: the src/ next to this script)
with this process's environment.  A run is timed from spawn to exit; its CPU
time (user + sys) and max RSS come from wait4.  With --baseline, every run is
also made on that tree, the two trees taking turns to go first per
repetition.  Prints one JSON object: machine facts (cores, numpy, BLAS, the
thread variables of this environment and as each tree's package leaves them
for OpenBLAS), and per tree the median wall and CPU seconds per K and
command, every run's wall, CPU, max RSS and exit code, and the same for
`lemmas`.  An exit code of 1 (a crash, not a CLI verdict) fails the script.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

TRIG = [[2, 1.0, 0.0], [-2, 0.5, 0.0], [4, 0.3, 0.0], [-4, 0.0, 0.2], [6, 0.1, 0.0]]
COMMANDS = ("spectrum", "asymptotics", "riesz-check")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# the thread variables a process sees once it has imported the package
PROBE = "import json, os, hillgap; print(json.dumps({k: os.environ.get(k) for k in %r}))"


def run(argv: list[str], src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "max_rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode}


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "env": {k: os.environ.get(k, "unset") for k in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--baseline", help="a second src/ tree, measured in turn with --src")
    parser.add_argument("--K", type=int, nargs="+", default=[128, 256, 512, 1000])
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    trees = [args.src] + ([args.baseline] if args.baseline else [])
    runs = {src: {K: {c: [] for c in COMMANDS} for K in args.K} for src in trees}
    lemmas = {src: [] for src in trees}
    made = []

    def measure(argv: list[str], src: str, into: list):
        into.append(run(argv, src))
        made.append(into[-1])

    with tempfile.TemporaryDirectory() as work:
        pot = Path(work) / "trig.json"
        pot.write_text(json.dumps({"parity": "even", "coeffs": TRIG}))
        out = str(Path(work) / "out.csv")
        hillgap = [sys.executable, "-m", "hillgap"]
        for rep in range(args.reps):
            for src in trees[rep % 2:] + trees[:rep % 2]:
                for K in args.K:
                    for cmd in COMMANDS:
                        measure(hillgap + [cmd, "--K", str(K), "--n-max", str(K // 4),
                                           "--potential", str(pot), "--out", out],
                                src, runs[src][K][cmd])
                measure(hillgap + ["lemmas", "--out", out], src, lemmas[src])

    def tree(src: str) -> dict:
        probe = subprocess.run([sys.executable, "-c", PROBE % (THREAD_VARS,)], check=True,
                               env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)

        def median(key: str) -> dict:
            return {K: {c: statistics.median(r[key] for r in rs) for c, rs in cs.items()}
                    for K, cs in runs[src].items()}

        return {"src": src, "threads_after_import": json.loads(probe.stdout),
                "seconds": median("wall_s"), "cpu_seconds": median("cpu_s"),
                "runs": runs[src], "lemmas": lemmas[src]}

    doc = {"reps": args.reps, "potential": TRIG, "n_max": "K/4", "machine": machine()}
    doc |= tree(args.src)
    if args.baseline:
        doc["baseline"] = tree(args.baseline)
    print(json.dumps(doc))
    return 1 if any(r["exit"] == 1 for r in made) else 0


if __name__ == "__main__":
    sys.exit(main())
