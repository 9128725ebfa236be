"""bench/stage_cost.py runs at a small size and reports every case, K and run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
# the cases of stage_cost.py, grouped by the single-stage script each group
# replaced (the confirming window's group times the truncation bar that
# replaced that window); the start-up cases are timed once per repetition, with no K
STARTUP = {"interpreter", "import_floor", "import", "spectrum_tiny"}
GROUPS = {
    "startup": STARTUP,
    "pair_solve_cost.py": {"build_T", "cut", "pair", "table", "table_support6"},
    "confirm_window_cost.py": {"table", "bar", "table_2K"},
    "riesz_contour_cost.py": {"contour_trig", "contour_strong"},
    "localize_cost.py": {"census_m1", "census_m2", "census_m3"},
    "cli_process_cost.py": {"spectrum", "asymptotics", "riesz-check"},
}
# criterion 09's table runs at K = 256 only
CASES = set().union(*GROUPS.values()) | {"criterion09"}
TREES = ("src", "baseline")


@pytest.fixture(scope="module")
def doc():
    # K >= 48 gives asymptotics the rows its fit needs
    src = str(REPO / "src")
    out = subprocess.run(
        [sys.executable, str(REPO / "bench" / "stage_cost.py"), "--K", "48", "64", "--reps", "1",
         "--src", src, "--baseline", src],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout)


def test_stage_cost_at_small_size(doc):
    src = str(REPO / "src")
    assert {"cpu_count", "cpu_affinity", "python", "numpy", "blas", "env"} <= set(doc["machine"])
    for name in TREES:
        tree = doc[name]
        assert tree["path"] == src
        assert set(tree["threads_after_import"]) == set(doc["machine"]["env"])
        assert set(tree["seconds"]) == CASES
        assert {r["case"] for r in tree["runs"]} == {
            "stages", "spectrum", "asymptotics", "riesz-check", "lemmas", *STARTUP}
        for r in tree["runs"]:
            assert {"wall_s", "cpu_s", "max_rss_mb", "exit"} <= set(r)
            assert r["exit"] == 0


def test_criterion09_null_off_256(doc):
    for name in TREES:
        tree = doc[name]
        assert tree["seconds"]["criterion09"] == {"48": None, "64": None}
        assert tree["k_slope"]["criterion09"] == {"48-64": None}


@pytest.mark.parametrize("script", sorted(GROUPS))
def test_runs_at_tiny_size(doc, script):
    for name in TREES:
        tree = doc[name]
        for case in GROUPS[script] - STARTUP:
            assert all(tree["seconds"][case][K] > 0 for K in ("48", "64")), case
            assert set(tree["facts"][case]) == {"48", "64"}, case
            assert tree["k_slope"][case]["48-64"] is not None, case
        if script == "confirm_window_cost.py":
            assert tree["facts"]["table_2K"]["64"]["window"] == 128
            assert tree["facts"]["bar"]["64"]["rows"] == 16
            assert {"converged", "max_bar"} <= set(tree["facts"]["bar"]["64"])
        if script == "cli_process_cost.py":
            assert tree["lemmas_seconds"] > 0
        if script == "startup":
            assert all(tree["seconds"][case] > 0 for case in STARTUP)
            paired = [r["wall_s"] for r in tree["runs"] if r["case"] in ("import_floor", "import")]
            assert tree["hillgap_import_s"] == paired[1] - paired[0]  # one repetition
