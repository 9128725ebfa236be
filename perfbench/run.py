"""hillgap benchmark: CLI invocations as fresh processes, checked outputs,
end-to-end metrics, and an outside-in per-layer trace.

    python3 perfbench/run.py --workload asym-k256 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One client runs `python -m hillgap` invocations back to back (a
closed loop) while the next one is expected to end within `--seconds`,
and at least twice, so every run can compare output bytes.  The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  The line before it holds the machine facts; the full result
is also written to `perfbench/_work/<workload>-<seed>-<trace>/result.json`.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import machine  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up probes run in groups between invocations, so they sample the same
# load conditions as the invocations they sit between.
SETUP_PROBES_PER_INVOCATION = 4
MIN_INVOCATIONS = 2
RUN_DEADLINE_S = 160.0  # every run must end well within 180 s
# Leaving these unset measures the defaults a user gets.
UNSET_ENV = ("OPENBLAS_NUM_THREADS", "HILLGAP_THREADS")


class Invocation:
    """One finished child process: wall time from spawn to exit, rusage."""

    def __init__(self, code: int, wall_s: float, cpu_s: float, rss_mb: float):
        self.code, self.wall_s, self.cpu_s, self.rss_mb = code, wall_s, cpu_s, rss_mb


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], env: dict, cwd: Path, deadline: float, log: Path) -> Invocation:
    """Run argv to completion and reap it with a blocking wait4, so wall
    time, CPU time and max-RSS belong to this child alone and the benchmark
    takes no CPU while it runs; a timer kills the child at the deadline."""
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: never leave the child running
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    return Invocation(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def cli_argv(wl, size, inputs: dict, out: Path, args=None) -> list[str]:
    argv = [wl.command, *(size.args if args is None else args)]
    if "potential" in inputs:
        argv += ["--potential", str(inputs["potential"])]
    if "seed" in inputs:
        argv += ["--seed", str(inputs["seed"])]
    return argv + ["--out", str(out)]


def quantile_summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


class Run:
    """State of one benchmark run: workload, inputs, reference, outputs."""

    def __init__(self, root: Path, name: str, seed: int, tiny: bool, trace: int):
        self.root = root
        self.wl = WORKLOADS[name]
        self.size = self.wl.size(tiny)
        self.work = root / "perfbench" / "_work" / f"{name}-{seed}-{trace}{'-tiny' if tiny else ''}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = child_env(root)
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.log = self.work / "stderr.log"
        self.inputs: dict = {}
        self.coeffs = None
        if self.size.potential is not None:
            path = self.work / "potential.json"
            self.coeffs = self.size.potential.write(seed, path)
            self.inputs["potential"] = path
        else:
            self.inputs["seed"] = seed
        hermitian = bool(self.size.potential and self.size.potential.hermitian)
        self.reference = checks.build_reference(
            self.wl.command, self.size.expect, self.coeffs, hermitian
        )
        self.errors: list[str] = []
        self.first_bytes: bytes | None = None
        self.attempted = 0
        self.failed = 0

    def invoke(self, argv_tail: list[str], program=None) -> Invocation:
        program = program or [sys.executable, "-m", "hillgap"]
        return spawn(program + argv_tail, self.env, self.work, self.deadline, self.log)

    def judge(self, inv: Invocation, out: Path) -> bool:
        """Count one invocation into attempted/failed: exit code, output
        check, and byte identity with the first output of this run."""
        self.attempted += 1
        try:
            if inv.code != 0:
                raise checks.CheckError(f"exit code {inv.code}")
            data = out.read_bytes()
            if self.first_bytes is None:
                checks.check_output(self.wl.command, out, self.size.expect,
                                    self.reference, self.coeffs)
                self.first_bytes = data
            elif data != self.first_bytes:
                raise checks.CheckError("output bytes differ from the first invocation")
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            self.errors.append(f"invocation {self.attempted}: {exc}")
            return False
        return True

    def measure_setup(self, times: list[float]):
        probe = [sys.executable, "-c", "import hillgap.cli"]
        for _ in range(SETUP_PROBES_PER_INVOCATION):
            inv = spawn(probe, self.env, self.work, self.deadline, self.log)
            if inv.code != 0:
                raise SystemExit(f"perfbench: `import hillgap.cli` failed (exit {inv.code})")
            times.append(inv.wall_s)

    def closed_loop(self, seconds: float) -> tuple[list[Invocation], list[float]]:
        invocations, setup = [], []
        start = time.perf_counter()
        out = self.work / "out.csv"
        while True:
            # start another invocation only if it should end within the run
            # (or within the deadline, for the minimum two)
            if invocations:
                next_end = time.perf_counter() + invocations[-1].wall_s
                limit = self.deadline if len(invocations) < MIN_INVOCATIONS else start + seconds
                if next_end > limit:
                    break
            self.measure_setup(setup)
            out.unlink(missing_ok=True)
            inv = self.invoke(cli_argv(self.wl, self.size, self.inputs, out))
            self.judge(inv, out)
            invocations.append(inv)
        return invocations, setup

    def traced(self, args, out: Path, tag: str) -> tuple[Invocation, list[dict]]:
        spans_path = self.work / f"spans-{tag}.jsonl"
        program = [sys.executable, str(HERE / "tracer.py"), str(spans_path)]
        out.unlink(missing_ok=True)
        inv = self.invoke(cli_argv(self.wl, self.size, self.inputs, out, args), program)
        spans = tracer.read_spans(spans_path) if inv.code == 0 else []
        return inv, spans


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    invs, setup = run.closed_loop(seconds)
    wall = [i.wall_s for i in invs]
    cpu = [i.cpu_s for i in invs]
    metrics = {
        "cmd_s": {"value": statistics.median(wall), "unit": "s"},
        "cpu_s": {"value": statistics.median(cpu), "unit": "s"},
        "peak_rss_mb": {"value": max(i.rss_mb for i in invs), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    detail = {"samples": {"cmd_s": quantile_summary(wall), "cpu_s": quantile_summary(cpu),
                          "setup_s": quantile_summary(setup),
                          "peak_rss_mb": quantile_summary([i.rss_mb for i in invs])}}
    return metrics, detail


def per_layer(run: Run) -> tuple[dict, dict]:
    """One untraced invocation (the baseline for trace.overhead_s), the
    traced invocation, and, where the workload has one, a traced run at half
    the window for the per-stage K slopes."""
    out = run.work / "out.csv"
    plain = run.invoke(cli_argv(run.wl, run.size, run.inputs, out))
    run.judge(plain, out)
    # the traced output must be byte-identical to the untraced one
    inv, spans = run.traced(None, out, "K")
    run.judge(inv, out)
    summary = tracer.summarize(spans) if spans else {}
    values = dict(summary)
    values["trace.overhead_s"] = inv.wall_s - plain.wall_s

    slopes = {"eigensolver.eigenvalues.k_slope": "eigensolver.eigenvalues_s",
              "eigensolver.pair_eigenvalues.k_slope": "eigensolver.pair_eigenvalues_s",
              "riesz.tau_from_traces.k_slope": "riesz.tau_from_traces_s"}
    half_summary = {}
    if run.size.half_args is not None:
        half_inv, half_spans = run.traced(run.size.half_args, run.work / "half.csv", "half")
        if half_inv.code != 0:
            run.failed += 1
            run.attempted += 1
            run.errors.append(f"half-window traced run exited {half_inv.code}")
        else:
            half_summary = tracer.summarize(half_spans)
    for slope, stage in slopes.items():
        full_t, half_t = values.get(stage, 0.0), half_summary.get(stage, 0.0)
        values[slope] = math.log2(full_t / half_t) if full_t > 0 and half_t > 0 else 0.0

    units = layer_units(run.root)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    detail = {"layers_seen": sorted({s["name"].split(".")[0] for s in spans}),
              "spans": len(spans), "all": values}
    return metrics, detail


def layer_units(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (perfbench/selftest.py); not a benchmark")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hillgap" / "cli.py").is_file():
        print(f"perfbench: no hillgap sources under {root / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    if not (root / "BENCHMARK.json").is_file():
        print("perfbench: BENCHMARK.json not found in the working directory", file=sys.stderr)
        return 2

    run = Run(root, args.workload, args.seed, args.tiny, args.trace)
    if args.trace:
        metrics, detail = per_layer(run)
    else:
        metrics, detail = end_to_end(run, args.seconds)

    facts = machine.facts(root)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    full = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, tiny=args.tiny, detail=detail, errors=run.errors,
                machine=facts)
    (run.work / "result.json").write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    for err in run.errors:
        print(f"perfbench: {err}", file=sys.stderr)
    for name, m in sorted(metrics.items()):
        samples = detail.get("samples", {}).get(name)
        print(f"{name} = {m['value']:.6g} {m['unit']}"
              + (f" (n = {samples['n']})" if samples else ""))
    print(f"failed_frac = {run.failed}/{run.attempted} = {run.failed / run.attempted:.4g} ratio")
    print(json.dumps({"machine": facts}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
