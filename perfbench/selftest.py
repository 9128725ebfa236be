"""Fast self-test of the benchmark at tiny sizes (about a minute on 2 cores).

    python3 perfbench/selftest.py

Run from the root of a source checkout.  For every workload it runs
`run.py --tiny` untraced and traced, and checks that the result line has
exactly the contract keys, that every metric BENCHMARK.json names is
printed with its unit and a finite value, that the outputs passed their
checks, that the span file parses, that each layer appears on the
workloads that run it (and not on those that do not), and that the
structural counts match the code at the tiny sizes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
# counts the tiny sizes must produce: certification is one solve per
# eigenvalue of the 2K = 192 window, refinement two solves per pair at K and
# at the confirming 2K, and the riesz check one inverse per node for n = 2..6
EXPECTED_COUNTS = {
    "asym-k256": {"eigensolver.certify_solves": 192, "eigensolver.refine_solves": 96,
                  "eigensolver.solves_per_eigenvalue": 1},
    "riesz-k128": {"riesz.resolvents": 5 * 32},
    "lemma-sweep": {"eigensolver.certify_solves": 0, "riesz.resolvents": 0},
}


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise AssertionError(f"run.py exited {done.returncode}: {done.stderr[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(result: dict, spec_metrics: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"outputs failed their checks ({result.get('failed')} failed)")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a positive integer")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in spec_metrics}
    if set(metrics) != set(want):
        problems.append(f"metric names differ: missing {sorted(set(want) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, expected {unit!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    failures = 0
    for name, wl in WORKLOADS.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems = check_result(run(name, trace), spec[key])
            if trace:
                work = root / "perfbench" / "_work" / f"{name}-{SEED}-1-tiny"
                spans = tracer.read_spans(work / "spans-K.jsonl")
                seen = {s["name"].split(".")[0] for s in spans}
                problems += [f"layer {x} has no spans" for x in wl.layers if x not in seen]
                problems += [f"layer {x} has spans" for x in wl.absent if x in seen]
                values = json.loads((work / "result.json").read_text())["detail"]["all"]
                for metric, count in EXPECTED_COUNTS.get(name, {}).items():
                    if values.get(metric, 0) != count:
                        problems.append(f"{metric} = {values.get(metric, 0)}, expected {count}")
            status = "FAIL" if problems else "PASS"
            failures += bool(problems)
            print(f"{status} {name} trace={trace}" + "".join(f"\n  {p}" for p in problems))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
