"""The package root resolves each name of its lazy export table, and only
those; and a potential's coefficients have one reader."""

import ast
import importlib
from pathlib import Path

import pytest

import hillgap


@pytest.mark.parametrize("name", sorted(hillgap._HOME))
def test_every_export_resolves(name):
    home = importlib.import_module(f"hillgap.{hillgap._HOME[name]}")
    assert getattr(hillgap, name) is getattr(home, name)


@pytest.mark.parametrize("name", ["PotentialFamily", "PotentialSpec", "SobolevParams",
                                  "make_potential", "convolve", "is_real_valued",
                                  "mark_converged"])
def test_unexported_name_raises(name):
    with pytest.raises(AttributeError):
        getattr(hillgap, name)


def test_only_seqspace_reads_coeffs():
    # every other module reads a potential through v(k), v.at, v.indices and v.reach
    readers = {path.name for path in Path(hillgap.__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "coeffs"}
    assert readers <= {"seqspace.py"}, sorted(readers)
