"""The output-equivalence tool `tools/same_outputs.py`, run on this tree
against itself, and its numeric-difference helper."""

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_a_tree_matches_itself():
    src = str(ROOT / "src")
    commands = [
        ["converge", "duan-kimble", "--kind", "generator", "--csv", "gen.csv",
         "--report", "gen.json"],
        ["converge", "duan-kimble", "--kind", "generator", "--k", "2", "2", "2"],
    ]
    assert same_outputs.compare(src, src, commands) == (2, None, 0.0)


def test_max_rel_diff():
    diff = same_outputs.max_rel_diff
    assert diff("k=2 value=1.0e-01\nrate: -1.0003", "k=2 value=1.5e-01\nrate: -1.0003"
                ) == pytest.approx(0.5 / 1.5)
    assert diff("[1.0, 0.0, NaN]", "[1.0, 0.0, NaN]") == 0.0
    assert diff("value 2", "value inf") == math.inf
    assert diff("k=16 max -4e-3", "k=16 max -2e-3") == pytest.approx(0.5)
