"""Every script in bench/ runs at a tiny size and prints one JSON object."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", sorted((REPO / "bench").glob("*.py")), ids=lambda p: p.name)
def test_runs_at_tiny_size(script):
    out = subprocess.run(
        [sys.executable, str(script), "--K", "16", "32", "--reps", "1", "--src", str(REPO / "src")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    doc = json.loads(out.stdout)
    assert doc["src"] == str(REPO / "src")
    assert set(doc["seconds"]) == {"16", "32"}
