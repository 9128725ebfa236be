"""The package's BLAS thread default: one OpenBLAS thread unless the user
chose a count, and a chosen count changes no pair row."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
TRIG = [[2, 1.0, 0.0], [-2, 0.5, 0.0], [4, 0.3, 0.0], [-4, 0.0, 0.2], [6, 0.1, 0.0]]

# a meta-path finder that finds nothing and records the thread variables at
# the moment numpy is first imported, which is when OpenBLAS reads them
SPY = """
import json, os, sys

class Spy:
    seen = None

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and Spy.seen is None:
            Spy.seen = {k: os.environ.get(k) for k in %r}
        return None

sys.meta_path.insert(0, Spy())
import %s
print(json.dumps(Spy.seen))
"""


def _env(**threads):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    env.update(threads)
    return env


@pytest.mark.parametrize("module", ["hillgap", "hillgap.cli"])
@pytest.mark.parametrize("given", [{}] + [{k: "3"} for k in THREAD_VARS],
                         ids=["none"] + list(THREAD_VARS))
def test_thread_variables_when_numpy_loads(module, given):
    out = subprocess.run([sys.executable, "-c", SPY % (THREAD_VARS, module)],
                         env=_env(**given), capture_output=True, text=True, check=True)
    seen = json.loads(out.stdout)
    want = dict.fromkeys(THREAD_VARS)
    want.update(given or {"OPENBLAS_NUM_THREADS": "1"})
    assert seen == want


@pytest.mark.parametrize("m", [1, 2])
def test_thread_count_changes_no_pair_row(tmp_path, m):
    pot = tmp_path / "trig.json"
    pot.write_text(json.dumps({"parity": "even", "coeffs": TRIG}))
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / f"spec-{threads}.csv"
        subprocess.run([sys.executable, "-m", "hillgap", "spectrum", "--m", str(m), "--K", "64",
                        "--n-max", "16", "--potential", str(pot), "--out", str(out)],
                       env=_env(OPENBLAS_NUM_THREADS=threads), check=True)
        lines = out.read_bytes().splitlines(keepends=True)
        tables.append([ln for ln in lines if not ln.startswith(b"# config:")])
    assert len(tables[0]) == 16 + 4
    assert tables[0] == tables[1]
