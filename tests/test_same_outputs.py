"""The example commands of `tools/ci_models.py`, run in process, and the
output-equivalence tool `tools/same_outputs.py`, run on this tree against
itself, with its numeric-difference helper."""

import importlib.util
import math
import re
from pathlib import Path

import pytest

from qsdelim.cli import main

ROOT = Path(__file__).resolve().parents[1]


_spec = importlib.util.spec_from_file_location("same_outputs",
                                               ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)
ci_models = same_outputs._load(same_outputs.CI_MODELS)


def test_example_commands(tmp_path, monkeypatch, capsys):
    """Each example exits with its code and prints its line.  An exit-0
    command prints no FAIL, and a failing one no PASS verdict."""
    monkeypatch.chdir(tmp_path)
    ci_models.main(["models"])
    for argv, code, line in ci_models.examples("models"):
        got = main(argv)
        out = "".join(capsys.readouterr())
        command = " ".join(argv)
        assert got == code, command
        assert re.search(line, out, re.M), command
        if code == 0:
            assert "FAIL" not in out, command
        else:
            assert not re.search(r"^(verdict|overall|contraction): PASS", out,
                                 re.M), command


def test_a_tree_matches_itself(tmp_path):
    """The first example of each exit code, and the --verbose one, in fresh
    `python -m qsdelim.cli` processes: each exits with its code and prints
    its line, and the tree's outputs match its own."""
    ci_models.main([str(tmp_path)])
    examples = ci_models.examples(str(tmp_path))
    picked = [next(e for e in examples if e[1] == want) for want in (0, 1, 2)]
    picked += [e for e in examples if e[0][0] == "--verbose"]
    src = str(ROOT / "src")
    for argv, code, line in picked:
        outputs = dict(same_outputs._outputs(src, str(tmp_path), argv))
        command = " ".join(argv)
        assert outputs["exit code"] == str(code), command
        assert re.search(line, outputs["stdout"] + outputs["stderr"], re.M), command
    commands = [argv for argv, _, _ in picked[:3]]
    assert same_outputs.compare(src, src, commands) == (3, None, 0.0)


def test_max_rel_diff():
    diff = same_outputs.max_rel_diff
    assert diff("k=2 value=1.0e-01\nrate: -1.0003", "k=2 value=1.5e-01\nrate: -1.0003"
                ) == pytest.approx(0.5 / 1.5)
    assert diff("[1.0, 0.0, NaN]", "[1.0, 0.0, NaN]") == 0.0
    assert diff("value 2", "value inf") == math.inf
    assert diff("k=16 max -4e-3", "k=16 max -2e-3") == pytest.approx(0.5)
