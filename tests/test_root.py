"""The package root resolves each name of its lazy export table, and only those."""

import importlib

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
