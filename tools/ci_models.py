#!/usr/bin/env python3
"""Write the model files that the CI's example studies run besides the
bundled fixtures; `tools/same_outputs.py` runs them too.

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
        "big-sparse.json": _big({"op": "sparse", "dim": BIG, "row": [0],
                                 "col": [0], "re": [1.0], "im": [0.0]}),
        "big-identity.json": _big({"op": "identity", "dim": BIG}),
        "big-kron.json": _big({"op": "kron",
                               "args": [{"op": "identity", "dim": 15}] * 2}),
        "huge.json": _huge(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    out = parser.parse_args(argv).out_dir
    os.makedirs(out, exist_ok=True)
    for name, doc in models().items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
