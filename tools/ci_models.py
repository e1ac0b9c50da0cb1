#!/usr/bin/env python3
"""Write the model files that the example commands run besides the
bundled fixtures; ``EXAMPLES`` holds those commands.

Usage (from the repository root):

    python3 tools/ci_models.py OUT_DIR

Builds each model through the public API of ``src`` of this checkout and
writes into OUT_DIR:

- ``rotated.json``: duan-kimble conjugated by the Q factor of a
  ``default_rng(0)`` complex Gaussian.  Its dense p0 is no coordinate
  projection, so its bases come from Gram-Schmidt and the slow-coordinate
  limit and side checks do real arithmetic (every benchmark model's V and
  Q are identity columns).  Every study on it passes.
- ``lowered.json``: truncation-demo with B replaced by B - 3I.  It fails
  its scaled unitarity relation (scaled.b), though its semigroup
  contracts: exit 1.
- ``half.json``: truncation-demo with p0 = diag(1, 0.5, 0, ...), shaped
  like a coordinate projection (nothing off the diagonal) but not one:
  exit 2, "p0 is not idempotent".
- ``big-sparse.json``, ``big-identity.json``, ``big-kron.json``:
  duan-kimble (dimension 15) with Y a sparse or identity node of dim
  10**7, or a kron of two dim-15 factors: exit 2 before the array is
  allocated.
- ``huge.json``: a model of dimension 10**7, its operators sparse nodes of
  that dim and p0 one basis index, whose arrays numpy refuses to allocate:
  exit 2, naming the dimension.
- ``shifted.json``: duan-kimble with B replaced by B - 1e17 i I, named
  ``café-shifted``.  Its limit K holds -1e17 i, so ``eliminate`` prints
  K in numpy's exponent format, and its report holds ``1e+17``-style
  floats and the escaped ``é``: exit 0.
- ``forged.json``: duan-kimble named with newlines and a forged
  ``overall: PASS`` line: exit 2, the name shown escaped.
- ``deep.json``: ``[`` 100000 times, then ``]`` 100000 times, nested
  too deeply for the JSON decoder: exit 2, naming the recursion depth.

``EXAMPLES`` is the one list of example commands: the studies on the
bundled fixtures and on these models, and their failing and rejected
inputs.  ``tests/test_same_outputs.py`` runs each through
``qsdelim.cli.main`` and checks its exit code and line, and
``tools/same_outputs.py`` runs each on two source trees and compares
their outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from qsdelim import (  # noqa: E402
    Operator, SubspacePair, builtin_fixture, fixture_to_model_dict,
)

BIG = 10**7
FORGED = "x: structural check\n  PASS  everything\noverall: PASS\nmodel x"


def _rotated() -> dict:
    fix = builtin_fixture("duan-kimble")
    fam = fix.family
    d = fam.space.total_dim
    rng = np.random.default_rng(0)
    q = np.linalg.qr(rng.standard_normal((d, d))
                     + 1j * rng.standard_normal((d, d)))[0]

    def rot(op):
        return Operator(fam.space, q @ op.entries @ q.conj().T)

    fam = dataclasses.replace(
        fam, y=rot(fam.y), a=rot(fam.a), b=rot(fam.b),
        f_ops=tuple(map(rot, fam.f_ops)), g_ops=tuple(map(rot, fam.g_ops)),
        w_ops=tuple(tuple(map(rot, row)) for row in fam.w_ops))
    return fixture_to_model_dict(dataclasses.replace(
        fix, name="rotated", family=fam, sub=SubspacePair(rot(fix.sub.p0))))


def _lowered() -> dict:
    fix = builtin_fixture("truncation-demo")
    fam = fix.family
    fam = dataclasses.replace(fam, b=fam.b - 3.0 * Operator.identity(fam.space))
    return fixture_to_model_dict(dataclasses.replace(fix, name="lowered", family=fam))


def _half() -> dict:
    doc = fixture_to_model_dict(builtin_fixture("truncation-demo"))
    d = doc["space"]["factor_dims"][0]
    doc["p0"] = {"op": "sparse", "dim": d, "row": [0, 1], "col": [0, 1],
                 "re": [1.0, 0.5], "im": [0.0, 0.0]}
    return doc


def _shifted() -> dict:
    fix = builtin_fixture("duan-kimble")
    fam = fix.family
    fam = dataclasses.replace(fam, b=fam.b - 1e17j * Operator.identity(fam.space))
    return fixture_to_model_dict(dataclasses.replace(fix, name="café-shifted",
                                                     family=fam))


def _big(node: dict) -> dict:
    doc = fixture_to_model_dict(builtin_fixture("duan-kimble"))
    doc["operators"]["Y"] = node
    return doc


def _huge() -> dict:
    node = {"op": "sparse", "dim": BIG, "row": [0], "col": [0],
            "re": [0.0], "im": [0.0]}
    return {"name": "huge", "space": {"factor_dims": [BIG]}, "channels": 1,
            "operators": {"Y": node, "A": node, "B": node, "F": [node],
                          "G": [node], "W": [[node]]},
            "p0": {"basis_indices": [0]}}


def models() -> dict:
    """Each model document by file name."""
    return {
        "rotated.json": _rotated(),
        "lowered.json": _lowered(),
        "half.json": _half(),
        "shifted.json": _shifted(),
        "forged.json": {**fixture_to_model_dict(builtin_fixture("duan-kimble")),
                        "name": FORGED},
        "big-sparse.json": _big({"op": "sparse", "dim": BIG, "row": [0],
                                 "col": [0], "re": [1.0], "im": [0.0]}),
        "big-identity.json": _big({"op": "identity", "dim": BIG}),
        "big-kron.json": _big({"op": "kron",
                               "args": [{"op": "identity", "dim": 15}] * 2}),
        "huge.json": _huge(),
    }


AMP = "--alpha=0.2-0.1j --beta=0.3+0.2j"
VERDICT = r"^verdict: PASS$"
OVERALL = r"^overall: PASS$"
CONTRACTION = r"^contraction: PASS$"
BROKEN = (r"^preconditions fail for model broken-structural: "
          r"structural requirements fail$")
LOWERED = r"^  FAIL  scaled\.b +max violation 6\.000e\+00 "
OVERSIZED = r"^error: .*dim 10000000 exceeds the model dimension 15$"
TOO_LARGE = r"^error: .*: inputs too large for float64$"

# (command, exit code, regular expression that a line of its stdout or
# stderr matches).  "{models}" is the directory `main` wrote the models
# to; outputs are named relative to the working directory, and
# `validate dk.json` reads the report that `example` wrote.
EXAMPLES = (
    ("example duan-kimble --report dk.json", 0,
     r"^wrote example duan-kimble to dk\.json$"),
    ("example truncation-demo", 0, r'^  "name": "truncation-demo",$'),
    ("validate dk.json", 0, OVERALL),
    ("converge truncation-demo --kind truncation --k 4 6 8 10 12 --T 2 --grid 32",
     0, VERDICT),
    # With amplitudes the dressing terms of each cut generator (the
    # alpha-bar M and beta L of its leading block) are nonzero.
    ("converge truncation-demo --kind truncation --k 4 6 8 10 12 --T 2 --grid 32 "
     + AMP, 0, VERDICT),
    ("converge duan-kimble --kind generator --k 2 4 8 16 32 64 " + AMP
     + " --csv gen.csv --report gen.json", 0, VERDICT),
    ("converge duan-kimble --kind semigroup --k 2 4 8 16 --T 2 --grid 64 "
     "--csv sg.csv", 0, VERDICT),
    # mirror is exact at vacuum: its gaps are round-off that grows like
    # k^2 |Y|, above an absolute 1e-13 at large k but within every study's
    # floor RESIDUAL_FLOOR max(1, k^2 |Y|), so it passes.
    ("converge mirror --kind semigroup", 0, VERDICT),
    ("semigroup duan-kimble --k 16 --T 2 --grid 64 --csv sgk.csv "
     "--report sgk.json", 0, CONTRACTION),
    ("--verbose semigroup duan-kimble --k 16 --T 2 --grid 64", 0,
     r"^INFO qsdelim\.cli: semigroup table: thin block from grid time J=\d+, "
     r"tail bound t_J="),
    ("semigroup duan-kimble --grid 64 --csv sgl.csv", 0, CONTRACTION),
    # The rotated p0 is no coordinate projection (every benchmark model's is).
    ("validate {models}/rotated.json", 0, OVERALL),
    ("eliminate {models}/rotated.json", 0, r"^  PASS  hp\.n "),
    # Exponent-format matrix lines, and a report with 1e+17 and \u00e9.
    ("eliminate {models}/shifted.json --report shifted.json", 0,
     r"^model café-shifted: slow subspace dimension 2, 1 channel\(s\)$"),
    ("converge {models}/rotated.json --kind generator", 0, VERDICT),
    ("converge {models}/rotated.json --kind generator " + AMP, 0, VERDICT),
    ("converge {models}/rotated.json --kind semigroup --k 2 4 8 16 --grid 16",
     0, VERDICT),
    # exit 1: a failed verdict.  The gap falls 0.210 -> 0.084, short of the
    # five-fold reduction the verdict asks for.
    ("converge duan-kimble --kind semigroup --k 2 3 4 --grid 8", 1,
     r"^verdict: FAIL$"),
    # exit 1: failed preconditions.  A passing check takes its exact value
    # only when it is read; a failing one must still print it.
    ("eliminate broken-structural", 1, BROKEN),
    ("semigroup broken-structural --grid 8", 1, BROKEN),
    ("converge broken-structural --kind semigroup --k 2 4 8 --grid 8", 1, BROKEN),
    ("validate {models}/lowered.json", 1, LOWERED),
    ("eliminate {models}/lowered.json", 1, LOWERED),
    ("semigroup {models}/lowered.json --k 4 --grid 8", 1, LOWERED),
    ("converge {models}/lowered.json --kind truncation --k 4 6 8", 1, LOWERED),
    # exit 2: rejected inputs.  Each oversized node is rejected before its
    # array is allocated; a repeated k schedule is one distinct k, too few
    # for a rate fit.
    ("validate {models}/half.json", 2, r"^error: .*p0 is not idempotent$"),
    ("validate {models}/forged.json", 2,
     r"^error: model name must be a printable string, got 'x: structural "
     r"check\\n  PASS  everything\\noverall: PASS\\nmodel x'$"),
    ("validate {models}/big-sparse.json", 2, OVERSIZED),
    ("validate {models}/big-identity.json", 2, OVERSIZED),
    ("validate {models}/big-kron.json", 2,
     r"^error: kron shape \(225, 225\) exceeds the model dimension 15$"),
    ("validate {models}/huge.json", 2,
     r"^error: model dimension 10000000 too large to allocate"),
    ("validate {models}/deep.json", 2,
     r"^error: cannot read model file .*maximum recursion depth exceeded"),
    ("converge duan-kimble --kind generator --k 2 2 2 " + AMP, 2,
     r"^error: --k needs >= 3 distinct values"),
    ("converge truncation-demo --kind truncation --k 4 6 8 --alpha=1e100", 2,
     TOO_LARGE),
    ("converge truncation-demo --kind truncation --k 4.5 6 8", 2,
     r"^error: bad k value 4\.5"),
    ("converge duan-kimble --kind generator --k 1e100 1e200 1e300", 2, TOO_LARGE),
)


def examples(models_dir: str) -> list:
    """(CLI arguments, exit code, line pattern) of each of ``EXAMPLES``,
    its models read from models_dir."""
    return [([arg.format(models=models_dir) for arg in command.split()], code, line)
            for command, code, line in EXAMPLES]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    out = parser.parse_args(argv).out_dir
    os.makedirs(out, exist_ok=True)
    for name, doc in models().items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    with open(os.path.join(out, "deep.json"), "w", encoding="utf-8") as fh:
        fh.write("[" * 100000 + "]" * 100000)
    return 0


if __name__ == "__main__":
    sys.exit(main())
