#!/usr/bin/env python3
"""Cost of every stage of hillgap, in process and end to end, against the window K.

    python3 bench/stage_cost.py [--src SRC] [--baseline SRC] [--K 256 512 1000] [--reps 3]

Every measurement is a fresh process importing hillgap from one tree: SRC
(default: the src/ next to this script) and, with --baseline, a second tree,
the two taking turns to go first per repetition.  Each tree must have the
truncation bars: eigensolver._truncation_bars, and _pair_table(low,
radius_rule, n_max) returning the table with its blocks and bases.  Per
tree, repetition and K, with n = K/4, one child times each library call
after the import:

    build_T, cut, pair    build_T, low_block(op, n) and pair_eigenvalues on the
                          rough input: complex, support |k| <= 128, m = 1,
                          decay (1+2k)^-0.3 as in the asym-k256 workload, seed 11
    table, table_2K       compute_pair_table on the rough input at K and 2K
    bar                   _truncation_bars, the fixed-K verdict alone, on the
                          rough input's pairs and bases at K from _pair_table
    table_support6        compute_pair_table at K on the rough input of support 6
    criterion09           compute_pair_table at K = 256 only (null at any other
                          K) with n_max = 64 and three times the contour radius,
                          as alpha1_experiment reads it, on the seeded potential
                          of tests/test_acceptance.py's criterion 09: support
                          |k| <= 510, modulus (2k)^0.4, phases from seed 0xA1
    contour_trig, contour_strong
                          riesz_projector on the n = 4 contour with 64 nodes,
                          read from low_block(op, n) as riesz-check reads it
    census_m1, _m2, _m3   localization_report on trig at the localize defaults

and `python -m hillgap spectrum`, `asymptotics` and `riesz-check` run at
`--K K --n-max K/4` on trig, each timed from spawn to exit; `lemmas` runs
once per repetition at its defaults, and so do the start-up cases, timed the
same way:

    interpreter           python -c "pass"
    import_floor          python -c "import numpy, argparse, json", with
                          OPENBLAS_NUM_THREADS=1 as hillgap sets it
    import                python -c "import hillgap.cli"
    spectrum_tiny         python -m hillgap spectrum --K 8 --n-max 2 on trig,
                          where start-up and the interpreter's exit dominate

Trig is {2: 1, -2: 0.5, 4: 0.3, -4: 0.2i, 6: 0.1}, STRONG {2: 60, -2: 45i,
4: 30}.  Every run's wall time, CPU time (user + sys) and max RSS come from
wait4.

Prints one JSON object: the machine facts, and per tree the median seconds of
every case and K (of a start-up case, one number), the K slope
log2(t(K2) / t(K1)) / log2(K2 / K1) between neighbouring K, hillgap's own
import cost hillgap_import_s (the median over repetitions of import less
import_floor, each pair timed back to back), the facts each case reports
(window, rows and unrefined rows or their count, converged rows and the
largest bar, route and block, n0 and cone count, exit code), every run, and
the thread variables the tree's import leaves set.
A window past MAX_HALF_WINDOW is null.  An exit code of 1 (a crash, not a CLI
verdict) fails the script.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TRIG = {2: 1.0, -2: 0.5, 4: 0.3, -4: 0.2j, 6: 0.1}
STRONG = {2: 60.0, -2: 45j, 4: 30.0}
COMMANDS = ("spectrum", "asymptotics", "riesz-check")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
STARTUP = {  # case: (arguments to the interpreter, variables set for it)
    "interpreter": (["-c", "pass"], {}),
    "import_floor": (["-c", "import numpy, argparse, json"], {"OPENBLAS_NUM_THREADS": "1"}),
    "import": (["-c", "import hillgap.cli"], {}),
    # a command so small that start-up and the interpreter's exit are most of it
    "spectrum_tiny": (["-m", "hillgap", "spectrum", "--K", "8", "--n-max", "2"], {}),
}
# the child imports hillgap before this file, and so before numpy, as the CLI does
CHILD = "import runpy, sys, hillgap; runpy.run_path(%r)['stages'](int(sys.argv[1]))"


def stages(K: int) -> None:
    """Time the in-process cases at window K; print the times, their facts
    and the thread variables as one JSON object."""
    import numpy as np

    from hillgap import (
        ContourSpec, FourierSequence, build_T, compute_pair_table, localization_report, low_block,
        normalize_zero_mode, pair_eigenvalues, riesz_projector, rough_potential,
    )
    from hillgap.eigensolver import _pair_table, _truncation_bars
    from hillgap.operator import MAX_HALF_WINDOW, contour_radius

    n, cases = K // 4, {}

    def timed(case, call, facts):
        t0 = time.perf_counter()
        out = call()
        cases[case] = [time.perf_counter() - t0, facts(out)]
        return out

    def rough(support):
        return normalize_zero_mode(rough_potential(1, 0.25, support, radius=1.0, seed=11))[0]

    def rows(table):
        return {"rows": len(table.rows), "unrefined": list(table.unrefined)}

    def table(case, v, window):
        if window > MAX_HALF_WINDOW:
            cases[case] = [None, {"window": window}]
        else:
            timed(case, lambda: compute_pair_table(v, 1, window, n_max=n),
                  lambda t: {"window": window} | rows(t))

    v = rough(128)
    op = timed("build_T", lambda: build_T(v, 1, K), lambda op: {"dim": len(op.matrix)})
    low = timed("cut", lambda: low_block(op, n), lambda low: {"block": len(low.matrix)})
    timed("pair", lambda: pair_eigenvalues(low, n_max=n), rows)
    table("table", v, K)
    based = _pair_table(low, contour_radius, n)
    timed("bar", lambda: _truncation_bars(based[0], v, low, *based[1:]), lambda t: rows(t) | {
        "converged": sum(r.converged for r in t.rows),
        "max_bar": max((r.bar for r in t.rows), default=0.0)})
    table("table_2K", v, 2 * K)
    table("table_support6", rough(6), K)
    if K == 256:
        rng, wild = np.random.default_rng(0xA1), {}
        for k in range(1, 256):
            wild[2 * k] = (2 * k) ** 0.4 * np.exp(2j * np.pi * rng.random())
            wild[-2 * k] = (2 * k) ** 0.4 * np.exp(2j * np.pi * rng.random())
        timed("criterion09", lambda: compute_pair_table(
            FourierSequence(wild), 1, K, radius_rule=lambda m, n: 3 * contour_radius(m, n), n_max=64),
            lambda t: {"rows": len(t.rows), "unrefined": len(t.unrefined)})
    else:
        cases["criterion09"] = [None, {}]
    for case, coeffs in (("contour_trig", TRIG), ("contour_strong", STRONG)):
        low = low_block(build_T(FourierSequence(coeffs), 1, K), n)
        timed(case, lambda: riesz_projector(low, ContourSpec(n=4, m=1, nodes=64)),
              lambda p: {"route": "band" if p.dense else "pair", "block": p.block})
    trig = FourierSequence(TRIG)
    for m in (1, 2, 3):
        timed(f"census_m{m}", lambda: localization_report(trig, m, 0.0, 1.0, 1.1, K),
              lambda r: {"n0": r.n0_empirical, "cone_count": r.cone_count})
    print(json.dumps({"threads": {k: os.environ.get(k) for k in THREAD_VARS}, "cases": cases}))


def run(argv: list[str], src: str, cwd: str, extra: dict | None = None) -> tuple[dict, bytes]:
    """One fresh process importing hillgap from src, with the variables extra
    on top of this process's: its wait4 record and stdout."""
    env = dict(os.environ, PYTHONPATH=src) | (extra or {})
    t0 = time.perf_counter()
    with subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "max_rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode}, out


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "env": {k: os.environ.get(k, "unset") for k in THREAD_VARS},
        # set, every import byte-compiles the package afresh
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", "unset"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--baseline", help="a second src/ tree, measured in turn with --src")
    parser.add_argument("--K", type=int, nargs="+", default=[256, 512, 1000])
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    trees = {name: str(Path(src).resolve()) for name, src in
             (("src", args.src), ("baseline", args.baseline)) if src}
    times = {t: {} for t in trees}  # tree -> case -> K -> seconds per repetition
    facts = {t: {} for t in trees}  # tree -> case -> K -> facts
    runs = {t: [] for t in trees}
    threads = {}

    with tempfile.TemporaryDirectory() as work:
        pot, out = Path(work) / "trig.json", str(Path(work) / "out.csv")
        pot.write_text(json.dumps({"parity": "even",
                                   "coeffs": [[k, c.real, c.imag] for k, c in TRIG.items()]}))
        hillgap = [sys.executable, "-m", "hillgap"]
        child = [sys.executable, "-c", CHILD % str(Path(__file__).resolve())]

        def measure(tree, rep, case, K, argv, extra=None) -> tuple[dict, bytes]:
            record, stdout = run(argv, trees[tree], work, extra)
            runs[tree].append({"case": case, "K": K, "rep": rep} | record)
            return record, stdout

        def note(tree, case, K, seconds, fact):
            times[tree].setdefault(case, {}).setdefault(K, []).append(seconds)
            facts[tree].setdefault(case, {})[K] = fact

        for rep in range(args.reps):
            for tree in list(trees)[rep % 2:] + list(trees)[:rep % 2]:
                for K in args.K:
                    record, stdout = measure(tree, rep, "stages", K, child + [str(K)])
                    if record["exit"] == 0:
                        doc = json.loads(stdout)
                        threads[tree] = doc["threads"]
                        for case, (seconds, fact) in doc["cases"].items():
                            note(tree, case, K, seconds, fact)
                    for cmd in COMMANDS:
                        record, _ = measure(tree, rep, cmd, K, hillgap + [
                            cmd, "--K", str(K), "--n-max", str(K // 4), "--potential", str(pot),
                            "--out", out])
                        note(tree, cmd, K, record["wall_s"], {"exit": record["exit"]})
                measure(tree, rep, "lemmas", None, hillgap + ["lemmas", "--out", out])
                for case, (flags, extra) in STARTUP.items():
                    io = ["--potential", str(pot), "--out", out] if flags[0] == "-m" else []
                    record, _ = measure(tree, rep, case, None, [sys.executable, *flags, *io], extra)
                    times[tree].setdefault(case, {}).setdefault(None, []).append(record["wall_s"])

    def slope(t1, t2, k1, k2):
        return None if t1 is None or t2 is None else math.log2(t2 / t1) / math.log2(k2 / k1)

    ks = sorted(args.K)

    def tree(name: str) -> dict:
        seconds = {case: {K: None if None in ts else statistics.median(ts)
                          for K, ts in by_k.items()}
                   for case, by_k in times[name].items()}
        seconds |= {case: seconds[case][None] for case in STARTUP}
        imports = zip(times[name]["import"][None], times[name]["import_floor"][None])
        return {
            "path": trees[name], "threads_after_import": threads.get(name),
            "seconds": seconds,
            "k_slope": {case: {f"{k1}-{k2}": slope(by_k.get(k1), by_k.get(k2), k1, k2)
                               for k1, k2 in zip(ks, ks[1:])}
                        for case, by_k in seconds.items() if case not in STARTUP},
            "hillgap_import_s": statistics.median(a - b for a, b in imports),
            "facts": facts[name],
            "lemmas_seconds": statistics.median(r["wall_s"] for r in runs[name]
                                                if r["case"] == "lemmas"),
            "runs": runs[name],
        }

    doc = {"reps": args.reps, "K": args.K, "n": "K/4", "machine": machine()}
    doc |= {name: tree(name) for name in trees}
    print(json.dumps(doc))
    return 1 if any(r["exit"] == 1 for rs in runs.values() for r in rs) else 0


if __name__ == "__main__":
    sys.exit(main())
