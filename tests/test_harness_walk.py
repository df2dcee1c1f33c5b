"""The benchmark harness keeps its own unit walk over the built module tree,
so it also runs on commits whose networks keep no ``units`` record; its
per-block metrics would read zero if that walk and ``model.units``
disagreed."""

import sys
from pathlib import Path

import pytest

import sanet
from sanet.models import build_model, named_spec

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402


@pytest.mark.parametrize("name", ["san10", "resnet26", "san-tiny"])
def test_harness_walk_matches_named_units(name):
    model = build_model(named_spec(name), seed=0)
    harness, package = run.named_units(sanet, model), model.units
    assert [n for n, _ in harness] == [n for n, _ in package]
    assert all(a is b for (_, a), (_, b) in zip(harness, package))
