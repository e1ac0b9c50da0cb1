"""Model-file parsing, expression trees, and the command-line interface,
with the CLI's bulk writers of reports and printed matrices checked byte
for byte against `json.dumps` and `np.array2string`."""

import contextlib
import csv
import dataclasses
import io
import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsdelim import (
    Fixture,
    ModelParseError,
    StudyParams,
    builtin_fixture,
    eliminate,
    eval_expression,
    fixture_to_model_dict,
    fock_toolbox,
    parse_model,
    random_structured_fixture,
    spectral_norm,
)
from qsdelim import cli
from qsdelim.cli import build_parser, main
from qsdelim.modelfile import matrix_from_json, matrix_to_json

from model_helpers import count_full_size_svds


class TestMatrixCodec:
    def test_round_trip(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_bad_entries_rejected(self):
        with pytest.raises(ModelParseError):
            matrix_from_json([[1.0, 2.0]])  # scalars, not [re, im] pairs
        with pytest.raises(ModelParseError):
            matrix_from_json([])


class TestExpressionTrees:
    def test_oscillator_primitives(self):
        fock = fock_toolbox(3)
        assert np.array_equal(
            eval_expression({"op": "annihilator", "dim": 4}, 4), fock.b.entries
        )
        assert np.array_equal(
            eval_expression({"op": "creator", "dim": 4}, 4), fock.b_dag.entries
        )
        assert np.array_equal(
            eval_expression({"op": "number", "dim": 4}, 4), fock.number.entries
        )
        assert np.array_equal(
            eval_expression({"op": "identity", "dim": 3}, 3), np.eye(3)
        )

    def test_basis_matrix(self):
        m = eval_expression({"op": "basis_matrix", "dim": 3, "row": 0, "col": 2}, 3)
        expect = np.zeros((3, 3))
        expect[0, 2] = 1.0
        assert np.array_equal(m, expect)

    def test_composite_expression(self):
        # 2i * (|0><1| (x) b) + adjoint
        node = {
            "op": "add",
            "args": [
                {
                    "op": "scale",
                    "factor": [0.0, 2.0],
                    "arg": {
                        "op": "kron",
                        "args": [
                            {"op": "basis_matrix", "dim": 2, "row": 0, "col": 1},
                            {"op": "annihilator", "dim": 3},
                        ],
                    },
                },
                {
                    "op": "adjoint",
                    "arg": {
                        "op": "scale",
                        "factor": [0.0, 2.0],
                        "arg": {
                            "op": "kron",
                            "args": [
                                {"op": "basis_matrix", "dim": 2, "row": 0, "col": 1},
                                {"op": "annihilator", "dim": 3},
                            ],
                        },
                    },
                },
            ],
        }
        got = eval_expression(node, 6)
        base = 2j * np.kron(
            np.array([[0, 1], [0, 0]]), fock_toolbox(2).b.entries
        )
        assert np.allclose(got, base + base.conj().T, atol=1e-15)

    def test_funcalc_rational_scattering(self):
        # (i theta x + gamma/2)(i theta x - gamma/2)^-1 on a Hermitian x
        x = fock_toolbox(4).b.entries + fock_toolbox(4).b_dag.entries
        node = {
            "op": "funcalc",
            "name": "damped_cayley",
            "params": {"theta": 0.5, "gamma": 1.0},
            "arg": matrix_to_json(x),
        }
        got = eval_expression(node, 5)
        oracle = (1j * 0.5 * x + 0.5 * np.eye(5)) @ np.linalg.inv(
            1j * 0.5 * x - 0.5 * np.eye(5)
        )
        assert np.allclose(got, oracle, atol=1e-12)
        # result is unitary
        assert np.allclose(got.conj().T @ got, np.eye(5), atol=1e-12)

    def test_funcalc_rejects_non_hermitian(self):
        node = {
            "op": "funcalc",
            "name": "damped_cayley",
            "arg": matrix_to_json(fock_toolbox(2).b.entries),
        }
        with pytest.raises(ModelParseError, match="funcalc operand must be Hermitian"):
            eval_expression(node, 3)

    def test_funcalc_on_a_hermitian_operand_takes_no_svd(self, monkeypatch):
        """The Hermitian defect of a Hermitian operand is exactly 0, so its
        bound settles the check: no 2-D norm and no SVD."""
        x = fock_toolbox(4).b.entries + fock_toolbox(4).b_dag.entries
        counts = count_full_size_svds(monkeypatch, 5)
        node = {"op": "funcalc", "name": "damped_cayley", "arg": matrix_to_json(x)}
        eval_expression(node, 5)
        assert counts == {"full": 0, "stacked": 0, "svd": 0}

    def test_unknown_ops_rejected(self):
        with pytest.raises(ModelParseError):
            eval_expression({"op": "matrix_power", "arg": [[[1.0, 0.0]]]}, 1)
        with pytest.raises(ModelParseError):
            eval_expression({"op": "funcalc", "name": "nope",
                             "arg": matrix_to_json(np.eye(2))}, 2)
        with pytest.raises(ModelParseError):
            eval_expression("not an expression", 1)

    def test_node_past_the_dimension_rejected_before_allocation(self):
        """Evaluated with no size bound, this node died in numpy's
        MemoryError ("Unable to allocate 1.42 PiB")."""
        with pytest.raises(ModelParseError,
                           match="dim 10000000 exceeds the model dimension 15"):
            eval_expression({"op": "identity", "dim": 10**7}, 15)


class TestModelRoundTrip:
    @pytest.mark.parametrize("name", ["duan-kimble", "cavity", "mirror"])
    def test_fixture_survives_serialization(self, name):
        fix = builtin_fixture(name)
        doc = json.loads(json.dumps(fixture_to_model_dict(fix)))
        model = parse_model(doc)
        assert model.family.n == fix.family.n
        assert np.allclose(model.family.y.entries, fix.family.y.entries)
        a = eliminate(model.family, model.sub).limit
        b = eliminate(fix.family, fix.sub).limit
        assert spectral_norm(a.k_op - b.k_op) < 1e-12

    def test_expression_model_parses(self):
        # lambda-atom fast generator written as an expression tree
        gamma, g = 1.0, 2.0
        doc = {
            "name": "expr-model",
            "space": {"factor_dims": [3, 4]},
            "channels": 1,
            "operators": {
                "Y": {
                    "op": "add",
                    "args": [
                        {
                            "op": "scale",
                            "factor": [-gamma / 2, 0.0],
                            "arg": {
                                "op": "kron",
                                "args": [
                                    {"op": "identity", "dim": 3},
                                    {"op": "number", "dim": 4},
                                ],
                            },
                        },
                        {
                            "op": "scale",
                            "factor": [g, 0.0],
                            "arg": {
                                "op": "kron",
                                "args": [
                                    {"op": "basis_matrix", "dim": 3,
                                     "row": 1, "col": 0},
                                    {"op": "creator", "dim": 4},
                                ],
                            },
                        },
                        {
                            "op": "scale",
                            "factor": [-g, 0.0],
                            "arg": {
                                "op": "kron",
                                "args": [
                                    {"op": "basis_matrix", "dim": 3,
                                     "row": 0, "col": 1},
                                    {"op": "annihilator", "dim": 4},
                                ],
                            },
                        },
                    ],
                },
                "A": matrix_to_json(np.zeros((12, 12))),
                "B": matrix_to_json(np.zeros((12, 12))),
                "F": [{
                    "op": "scale",
                    "factor": [math.sqrt(gamma), 0.0],
                    "arg": {
                        "op": "kron",
                        "args": [
                            {"op": "identity", "dim": 3},
                            {"op": "creator", "dim": 4},
                        ],
                    },
                }],
                "G": [matrix_to_json(np.zeros((12, 12)))],
                "W": [[{
                    "op": "kron",
                    "args": [
                        {"op": "identity", "dim": 3},
                        {"op": "identity", "dim": 4},
                    ],
                }]],
            },
            "p0": {"basis_indices": [4, 8]},
            "study": {"T": 1.5, "grid_points": 32, "alpha": [[0.1, 0.2]],
                      "beta": [[0.0, 0.0]]},
        }
        model = parse_model(doc)
        # same Y structure as the bundled fixture at cutoff 3 (without drive)
        from qsdelim import duan_kimble_fixture

        dk3 = duan_kimble_fixture(gamma=gamma, g=g, drive_alpha=0.0 + 0j,
                                  cutoff=3)
        assert np.allclose(model.family.y.entries, dk3.family.y.entries)
        assert model.study.t_max == 1.5
        assert model.study.alpha == (0.1 + 0.2j,)

    def test_malformed_documents_rejected(self):
        with pytest.raises(ModelParseError):
            parse_model([])
        with pytest.raises(ModelParseError):
            parse_model({"space": {"factor_dims": [2]}, "channels": 1})
        good = fixture_to_model_dict(builtin_fixture("cavity"))
        bad = json.loads(json.dumps(good))
        del bad["operators"]["Y"]
        with pytest.raises(ModelParseError):
            parse_model(bad)
        bad2 = json.loads(json.dumps(good))
        bad2["p0"] = None
        with pytest.raises(ModelParseError):
            parse_model(bad2)
        bad3 = json.loads(json.dumps(good))
        bad3["study"] = {"alpha": [[0.1, 0.0]], "grid_points": "many"}
        with pytest.raises(ModelParseError):
            parse_model(bad3)


class TestCli:
    def test_validate_builtin_passes(self, capsys):
        assert main(["validate", "duan-kimble"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_validate_structural_counterexample(self, capsys):
        assert main(["validate", "broken-structural"]) == 1
        out = capsys.readouterr().out
        assert "structural.e" in out
        assert "FAIL" in out

    def test_validate_with_assembled_k(self, capsys):
        assert main(["validate", "cavity", "--k", "2", "8"]) == 0
        out = capsys.readouterr().out
        assert "hp.k" in out

    @pytest.mark.parametrize("extra", [[], ["--k", "2"]])
    def test_validate_report_on_random_model(self, extra, tmp_path, rng, capsys):
        # A random model has a small nonzero W-unitarity defect, which once
        # reached the report as a numpy bool that json could not write.
        fix = random_structured_fixture(rng, hprime_dim=3, n=2, cutoff=3)
        model = tmp_path / "random.json"
        model.write_text(json.dumps(fixture_to_model_dict(fix)))
        report = tmp_path / "report.json"
        assert main(["validate", str(model), *extra, "--report", str(report)]) == 0
        assert "overall: PASS" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert doc["overall"] is True
        checks = [c for group in doc["checks"].values() for c in group]
        assert len(doc["checks"]) == (3 if extra else 2)
        for c in checks:
            assert type(c["max_violation"]) is float
            assert type(c["passed"]) is bool
        assert doc["checks"]["scaled"][3]["max_violation"] > 0.0

    def test_eliminate_writes_report(self, tmp_path, capsys):
        report = tmp_path / "limit.json"
        assert main(["eliminate", "duan-kimble", "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["channels"] == 1
        k = matrix_from_json(doc["K"])
        fix = builtin_fixture("duan-kimble")
        assert np.allclose(k, fix.expected_limit.k_op.entries, atol=1e-12)

    def test_eliminate_fails_on_broken_model(self, capsys):
        assert main(["eliminate", "broken-structural"]) == 1

    def test_semigroup_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "norms.csv"
        code = main([
            "semigroup", "duan-kimble", "--k", "4", "--grid", "8",
            "--alpha", "0.1+0.2j", "--beta", "0j", "--csv", str(out),
        ])
        assert code == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "fixture", "kind", "k", "t_max", "grid_points", "alpha", "beta",
            "value",
        ]
        assert len(rows) == 1 + 8
        assert rows[1][0] == "duan-kimble"
        assert rows[1][1] == "contraction_norm"
        assert float(rows[1][7]) <= 1.0 + 1e-9

    def test_converge_semigroup_csv_deterministic(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["converge", "duan-kimble", "--kind", "semigroup",
                "--k", "2", "4", "8", "--grid", "16"]
        assert main(args + ["--csv", str(out1)]) == 0
        assert main(args + ["--csv", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_converge_generator_passes(self, tmp_path, capsys):
        report = tmp_path / "gen.json"
        code = main([
            "converge", "duan-kimble", "--kind", "generator",
            "--k", "2", "4", "8", "16", "32", "64",
            "--alpha", "0.2-0.1j", "--beta", "0.3+0.2j",
            "--report", str(report),
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["verdict"] is True
        assert doc["fitted_rate"] == pytest.approx(-1.0, abs=0.15)

    def test_converge_truncation(self, capsys):
        code = main([
            "converge", "truncation-demo", "--kind", "truncation",
            "--k", "4", "6", "8", "--grid", "16",
        ])
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["converge", "truncation-demo", "--kind", "truncation",
         "--k", "4", "6", "8", "--grid", "0"],
        ["converge", "truncation-demo", "--kind", "truncation",
         "--k", "4", "6", "8", "--grid", "1"],
        ["converge", "duan-kimble", "--kind", "semigroup",
         "--k", "2", "4", "8", "--grid", "1"],
        ["converge", "duan-kimble", "--kind", "semigroup",
         "--k", "2", "4", "8", "--T", "-1"],
    ])
    def test_converge_rejects_bad_time_grid(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "verdict: PASS" not in captured.out
        assert "--grid >= 2" in captured.err

    @pytest.mark.parametrize("model", ["mirror", "duan-kimble"])
    def test_converge_truncation_rejects_scaled_model(self, model, capsys):
        assert main(["converge", model, "--kind", "truncation",
                     "--k", "1", "2", "3"]) == 2
        captured = capsys.readouterr()
        assert "verdict: PASS" not in captured.out
        assert "fixed-coefficient" in captured.err

    @pytest.mark.parametrize("name", [
        "duan-kimble", "cavity", "mirror", "truncation-demo", "broken-structural",
    ])
    def test_example_study_is_the_default(self, name, tmp_path, capsys):
        path = tmp_path / "model.json"
        assert main(["example", name, "--report", str(path)]) == 0
        study = parse_model(json.loads(path.read_text())).study
        assert study == StudyParams()
        assert main(["example", name]) == 0
        out = capsys.readouterr().out
        assert out.endswith(path.read_text())

    def test_example_round_trips_through_validate(self, tmp_path, capsys):
        model = tmp_path / "dk.json"
        assert main(["example", "duan-kimble", "--report", str(model)]) == 0
        assert main(["validate", str(model)]) == 0

    def test_example_broken_structural(self, tmp_path, capsys):
        model = tmp_path / "broken.json"
        assert main(["example", "broken-structural", "--report", str(model)]) == 0
        assert main(["validate", str(model)]) == 1
        out = capsys.readouterr().out
        assert "structural.e" in out

    def test_parse_errors_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["validate", str(missing)]) == 2
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert main(["validate", str(garbage)]) == 2
        assert main(["semigroup", "duan-kimble", "--alpha", "zzz"]) == 2

    def test_usage_errors_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2
        assert main([]) == 2
        assert main(["example", "no-such-example"]) == 2


def _strict_json(text: str):
    """Parse RFC 8259 JSON: NaN, Infinity and -Infinity raise."""
    def reject(token):
        raise ValueError(f"not a JSON number: {token}")
    return json.loads(text, parse_constant=reject)


class TestStrictJsonReports:
    """A --report file holds a non-finite number as null."""

    def test_undefined_rate_is_null(self, tmp_path, capsys):
        # Two gaps: too few for a log-log fit.
        report = tmp_path / "r.json"
        assert main(["converge", "truncation-demo", "--kind", "truncation",
                     "--k", "10", "12", "14", "--T", "2", "--grid", "8",
                     "--report", str(report)]) == 0
        doc = _strict_json(report.read_text())
        assert doc["fitted_rate"] is None
        assert len(doc["values"]) == 2

    def test_missing_inverse_is_null(self, tmp_path, capsys):
        # Y = 0: no restricted inverse, so check c and the side checks
        # have no finite violation.
        fix = builtin_fixture("duan-kimble")
        fam = fix.family
        fam = dataclasses.replace(fam, y=0.0 * fam.y)
        path = tmp_path / "y0.json"
        path.write_text(json.dumps(fixture_to_model_dict(
            dataclasses.replace(fix, family=fam))))
        report = tmp_path / "v.json"
        assert main(["validate", str(path), "--report", str(report)]) == 1
        checks = {c["name"]: c
                  for c in _strict_json(report.read_text())["checks"]["structural"]}
        for name in ("structural.c", "limit.l_side", "limit.n_side_right",
                     "limit.n_side_left"):
            assert checks[name]["max_violation"] is None, name
            assert checks[name]["passed"] is False, name
            assert math.isfinite(checks[name]["tolerance"]), name


class TestGeneratorDiagnostics:
    """`converge --kind generator --report` writes the norms of the
    residual's k^2, k^1 and k^0 coefficients under "diagnostics": the
    orders that the corrector and the limit formulas cancel."""

    def test_orders_cancel_and_reports_repeat(self, tmp_path, capsys):
        argv = ["converge", "duan-kimble", "--kind", "generator",
                "--k", "2", "4", "8", "16", "32", "64",
                "--alpha=0.2-0.1j", "--beta=0.3+0.2j"]
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            assert main([*argv, "--report", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        diagnostics = _strict_json(paths[0].read_text())["diagnostics"]
        assert sorted(diagnostics) == ["order_k0_norm", "order_k1_norm",
                                       "order_k2_norm"]
        # Acceptance test 4 holds the k^2 and k^1 cancellations to 1e-10.
        assert all(0.0 <= x < 1e-10 for x in diagnostics.values())


class TestRejectedInputsExit2:
    @pytest.mark.parametrize("argv", [
        ["validate", "duan-kimble", "--k", "0"],
        ["validate", "duan-kimble", "--k", "inf"],
        ["semigroup", "duan-kimble", "--k", "-2"],
        ["converge", "duan-kimble", "--kind", "generator", "--k", "0", "2", "4"],
        ["converge", "duan-kimble", "--kind", "semigroup", "--k", "1", "nan", "4"],
        ["converge", "truncation-demo", "--kind", "truncation", "--k", "-3", "5"],
        ["converge", "truncation-demo", "--kind", "truncation", "--k", "4", "inf"],
        ["converge", "truncation-demo", "--kind", "truncation",
         "--k", "4.5", "6.5", "8"],
    ])
    def test_bad_k_values(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "bad k value" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["converge", "duan-kimble", "--kind", "generator", "--k", "2", "4", "8",
          "--alpha=0.1,0.2"], "--alpha needs 1 comma-separated values, got 2"),
        (["semigroup", "duan-kimble", "--k", "4", "8"],
         "semigroup takes a single --k value"),
    ])
    def test_flag_values_the_model_cannot_take(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    # duan-kimble (one channel, dimension 15) with one section replaced.
    @pytest.mark.parametrize("keys, value, message", [
        (("channels",), 0, "channels must be >= 1"),
        (("operators", "F"), [], "F must be a list of 1 operators"),
        (("operators", "W"), [[]], "W must be an 1 x 1 grid of operators"),
        (("study",), [], "study section must be an object"),
        (("study",), {"alpha": [[0.1, 0.0], [0.2, 0.0]]},
         "study amplitudes must have one entry per channel"),
        (("operators", "Y"), {"op": "basis_matrix", "dim": 2, "row": 2, "col": 0},
         "basis_matrix entry (2, 0) outside dim 2"),
        (("operators", "Y"), {"op": "kron", "args": [{"op": "identity", "dim": 15}]},
         "kron needs >= 2 arguments"),
        (("operators", "Y"), {"op": "add", "args": [{"op": "identity", "dim": 15},
                                                    {"op": "identity", "dim": 3}]},
         "add arguments must share a shape"),
        (("operators", "Y"), [[[0, 0]]],
         "operator Y has shape (1, 1), expected square of dimension 15"),
        (("operators",), {}, "operators section must be a nonempty object"),
        (("study",), {"k_schedule": 5},
         "bad study section: 'int' object is not iterable"),
        (("operators", "Y"), {"op": "scale", "factor": [1],
                              "arg": {"op": "identity", "dim": 15}},
         "expected [re, im] pair, got [1]"),
    ], ids=["channels-0", "F-length", "W-shape", "study-list", "study-alpha",
            "basis-matrix", "kron-one-arg", "add-shapes", "Y-shape",
            "operators-empty", "study-k-schedule", "scale-factor"])
    def test_malformed_model_files(self, keys, value, message, tmp_path, capsys):
        doc = fixture_to_model_dict(builtin_fixture("duan-kimble"))
        *parents, last = keys
        section = doc
        for key in parents:
            section = section[key]
        section[last] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("depth", [None, 995],
                             ids=["deep-array", "deep-adjoints"])
    def test_nesting_too_deep(self, depth, tmp_path, capsys):
        if depth is None:
            text = "[" * 100000 + "]" * 100000
        else:  # duan-kimble with Y as `depth` nested adjoint nodes
            doc = fixture_to_model_dict(builtin_fixture("duan-kimble"))
            doc["operators"]["Y"] = "Y"
            text = json.dumps(doc).replace('"Y": "Y"', '"Y": ' + (
                '{"op": "adjoint", "arg": ' * depth + "[]" + "}" * depth))
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_nesting_too_deep_in_memory(self):
        doc = fixture_to_model_dict(builtin_fixture("duan-kimble"))
        for _ in range(5000):
            doc["operators"]["Y"] = {"op": "adjoint", "arg": doc["operators"]["Y"]}
        with pytest.raises(ModelParseError, match="nested too deeply"):
            parse_model(doc)

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    @pytest.mark.parametrize("argv", [
        ["validate", "duan-kimble", "--report"],
        ["eliminate", "duan-kimble", "--report"],
        ["semigroup", "duan-kimble", "--grid", "8", "--csv"],
        ["semigroup", "duan-kimble", "--k", "16", "--grid", "8", "--report"],
        ["converge", "duan-kimble", "--kind", "generator", "--k", "2", "4", "8",
         "--csv"],
        ["converge", "duan-kimble", "--kind", "generator", "--k", "2", "4", "8",
         "--report"],
        ["example", "duan-kimble", "--report"],
    ])
    def test_unwritable_output_path(self, argv, where, tmp_path, capsys):
        path = tmp_path / "no-such-dir" / "out" if where == "missing directory" \
            else tmp_path
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # in particular no PASS line
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["validate", "broken-structural"],
        ["eliminate", "broken-structural"],
        ["validate", "duan-kimble"],
        ["converge", "duan-kimble", "--kind", "generator", "--k", "2", "4", "8"],
    ])
    def test_bad_tol(self, argv, tol, capsys):
        assert main([*argv, f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err

    def test_zero_cutoff_accepted(self, capsys):
        assert main(["converge", "truncation-demo", "--kind", "truncation",
                     "--k", "0", "2", "--grid", "8"]) == 0
        # With three gaps a rate is fitted, and cutoff 0 has no logarithm.
        assert main(["converge", "truncation-demo", "--kind", "truncation",
                     "--k", "0", "2", "4", "6", "--grid", "8"]) == 0
        assert "fitted log-log rate: nan" in capsys.readouterr().out

    @staticmethod
    def _indexed_model():
        """duan-kimble (dims (3, 5), slow states 5 and 10) with p0 given
        by basis indices."""
        fix = builtin_fixture("duan-kimble")
        doc = fixture_to_model_dict(fix, study={"grid_points": 8})
        doc["p0"] = {"basis_indices": [5, 10]}
        return doc

    # Each edit once ran and printed PASS, because int() truncated or a
    # negative index wrapped onto the same slow states.
    @pytest.mark.parametrize("edit", [
        ("channels", 1.9),
        ("channels", True),
        ("factor_dims", [3.5, 5.5]),
        ("factor_dims", [True, 5]),
        ("grid_points", 8.9),
        ("basis_indices", [-10, -5]),
        ("basis_indices", [5, 10, 10]),
        ("basis_indices", [5.5, 10]),
        ("basis_indices", [5, 15]),
        ("basis_indices", "5"),
    ], ids=str)
    def test_non_integer_or_bad_index_fields(self, edit, tmp_path, capsys):
        field, value = edit
        doc = self._indexed_model()
        target = {
            "channels": doc,
            "factor_dims": doc["space"],
            "grid_points": doc["study"],
            "basis_indices": doc["p0"],
        }[field]
        target[field] = value
        with pytest.raises(ModelParseError):
            parse_model(json.loads(json.dumps(doc)))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "PASS" not in captured.out

    def test_integral_floats_accepted(self, tmp_path, capsys):
        doc = self._indexed_model()
        doc["channels"] = 1.0
        doc["space"]["factor_dims"] = [3.0, 5.0]
        doc["study"]["grid_points"] = 8.0
        doc["p0"]["basis_indices"] = [5.0, 10.0]
        model = parse_model(json.loads(json.dumps(doc)))
        assert model.family.n == 1
        assert model.family.space.factor_dims == (3, 5)
        assert model.study.grid_points == 8
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    @staticmethod
    def _assert_rejected(doc, tmp_path, capsys):
        with pytest.raises(ModelParseError):
            parse_model(json.loads(json.dumps(doc)))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # may write NaN, Infinity or null
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "overall" not in captured.out

    @pytest.mark.parametrize("where", ["B", "p0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, None])
    def test_non_finite_or_null_entries(self, where, value, tmp_path, capsys):
        fix = builtin_fixture("duan-kimble")
        doc = fixture_to_model_dict(fix)
        # The dense layout: the emitter writes these duan-kimble nodes sparse.
        if where == "B":
            rows = doc["operators"]["B"] = matrix_to_json(fix.family.b.entries)
        else:
            rows = doc["p0"] = matrix_to_json(fix.sub.p0.entries)
        rows[1][1][0] = value
        with pytest.raises(ModelParseError):
            parse_model(json.loads(json.dumps(doc)))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # writes NaN, Infinity or null
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "overall" not in captured.out

    @pytest.mark.parametrize("where", ["B", "p0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, None])
    def test_non_finite_or_null_sparse_entries(self, where, value, tmp_path,
                                               capsys):
        doc = fixture_to_model_dict(builtin_fixture("duan-kimble"))
        node = doc["operators"]["B"] if where == "B" else doc["p0"]
        self._set_sparse_entry(node, 1, 1, value)
        self._assert_rejected(doc, tmp_path, capsys)

    @staticmethod
    def _set_sparse_entry(node, i, j, re):
        """Store entry (i, j) = re + 0j in a sparse node that lacks it."""
        assert node["op"] == "sparse"
        assert (i, j) not in zip(node["row"], node["col"])
        for key, v in (("row", i), ("col", j), ("re", re), ("im", 0.0)):
            node[key].append(v)

    # Each value was once read as a number by the dense decoder: `true` as
    # 1.0 and "0.5" as 0.5.
    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("value", [True, False, "0.5", "0", [0.5], {}])
    def test_non_number_matrix_values(self, layout, value, tmp_path, capsys):
        fix = builtin_fixture("duan-kimble")
        doc = fixture_to_model_dict(fix)
        if layout == "dense":
            doc["operators"]["B"] = matrix_to_json(fix.family.b.entries)
            doc["operators"]["B"][0][0] = [value, 0.0]
        else:
            self._set_sparse_entry(doc["operators"]["B"], 0, 0, value)
        self._assert_rejected(doc, tmp_path, capsys)

    @staticmethod
    def _sparse_b(**edit):
        """duan-kimble with B replaced by a sparse node for 0.5 I + 0.25j E_01."""
        doc = fixture_to_model_dict(builtin_fixture("duan-kimble"))
        d = 15
        node = {"op": "sparse", "dim": d, "row": [*range(d), 0],
                "col": [*range(d), 1], "re": [0.5] * d + [0.0],
                "im": [0.0] * d + [0.25]}
        node.update(edit)
        doc["operators"]["B"] = node
        return doc

    def test_sparse_node_decodes(self):
        b = parse_model(self._sparse_b()).family.b.entries
        want = 0.5 * np.eye(15, dtype=complex)
        want[0, 1] = 0.25j
        assert np.array_equal(b, want)

    @pytest.mark.parametrize("edit", [
        {"row": [*range(15), 15]},  # index out of [0, d)
        {"col": [*range(15), -1]},  # negative index
        {"row": [*range(15), 0.5]},  # fractional index
        {"col": [*range(15), True]},  # boolean index
        {"row": [*range(15), "0"]},  # string index
        {"row": [*range(15), math.nan]},
        {"row": [*range(15), 10**400]},
        {"row": [*range(15), 1], "col": [*range(15), 1]},  # repeated pair
        {"row": [*range(15)]},  # unequal lengths
        {"im": [0.0] * 15 + [0.25, 1.0]},
        {"re": [0.5] * 15 + [True]},
        {"im": [0.0] * 15 + ["0.25"]},
        {"re": [0.5] * 15 + [math.nan]},
        {"im": [0.0] * 15 + [math.inf]},
        {"re": [0.5] * 15 + [10**400]},
        {"re": "0.5"},
        {"row": None},
        {"dim": 0, "row": [], "col": [], "re": [], "im": []},
        {"dim": -1},
        {"dim": 14},  # does not match the space
        {"dim": 16},
        {"dim": 15.5},
        {"dim": True},
    ], ids=str)
    def test_bad_sparse_nodes(self, edit, tmp_path, capsys):
        self._assert_rejected(self._sparse_b(**edit), tmp_path, capsys)

    def test_bad_sparse_node_without_a_field(self, tmp_path, capsys):
        doc = self._sparse_b()
        del doc["operators"]["B"]["im"]
        self._assert_rejected(doc, tmp_path, capsys)

    # Each sized node once died in numpy's _ArrayMemoryError (exit 1) at
    # dim 10**7, since its array was allocated before its shape met the
    # space's (dim 15); dim 2000 would allocate 64 MB.
    @pytest.mark.parametrize("node, message", [
        ({"op": "sparse", "dim": 10**7, "row": [0], "col": [0], "re": [1.0],
          "im": [0.0]}, "sparse dim 10000000 exceeds the model dimension 15"),
        ({"op": "sparse", "dim": 2000, "row": [0], "col": [0], "re": [1.0],
          "im": [0.0]}, "sparse dim 2000 exceeds the model dimension 15"),
        ({"op": "identity", "dim": 10**7}, "dim 10000000 exceeds"),
        ({"op": "identity", "dim": 2000}, "dim 2000 exceeds"),
        ({"op": "annihilator", "dim": 10**7}, "dim 10000000 exceeds"),
        ({"op": "creator", "dim": 2000}, "dim 2000 exceeds"),
        ({"op": "number", "dim": 2000}, "dim 2000 exceeds"),
        ({"op": "basis_matrix", "dim": 10**7, "row": 0, "col": 1},
         "dim 10000000 exceeds"),
        ({"op": "scale", "factor": [2.0, 0.0],
          "arg": {"op": "adjoint", "arg": {"op": "identity", "dim": 10**7}}},
         "dim 10000000 exceeds"),
        ({"op": "kron", "args": [{"op": "identity", "dim": 3},
                                 {"op": "identity", "dim": 10**7}]},
         "dim 10000000 exceeds"),
        ({"op": "kron", "args": [{"op": "identity", "dim": 15},
                                 {"op": "identity", "dim": 15}]},
         "kron shape (225, 225) exceeds the model dimension 15"),
        ({"op": "kron", "args": [{"op": "identity", "dim": 3},
                                 {"op": "identity", "dim": 5},
                                 {"op": "number", "dim": 2}]},
         "kron shape (30, 30) exceeds the model dimension 15"),
    ], ids=str)
    def test_oversized_dims(self, node, message, tmp_path, capsys, monkeypatch):
        """Rejected with exit 2 before the node's array, or a kron product
        past the model's dimension, is allocated."""
        np_kron = np.kron

        def kron(x, y):
            assert len(x) * len(y) <= 15, "kron formed past the space"
            return np_kron(x, y)

        monkeypatch.setattr(np, "kron", kron)
        doc = fixture_to_model_dict(builtin_fixture("duan-kimble"))
        doc["operators"]["Y"] = node
        tracemalloc.start()
        try:
            self._assert_rejected(doc, tmp_path, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**24  # the dim-15 model's arrays, not a dim-2000 one
        path = tmp_path / "bad.json"
        assert main(["validate", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_dimension_too_large_to_allocate(self, tmp_path, capsys):
        """A model of dimension 10**7, whose arrays numpy refuses at once,
        exits 2 naming the dimension; it once died in _sparse_from_json
        with numpy's _ArrayMemoryError, a traceback and exit 1."""
        node = {"op": "sparse", "dim": 10**7, "row": [0], "col": [0],
                "re": [0.0], "im": [0.0]}
        doc = {"space": {"factor_dims": [10**7]}, "channels": 1,
               "operators": {"Y": node, "A": node, "B": node, "F": [node],
                             "G": [node], "W": [[node]]},
               "p0": {"basis_indices": [0]}}
        self._assert_rejected(doc, tmp_path, capsys)
        assert main(["validate", str(tmp_path / "bad.json")]) == 2
        assert ("model dimension 10000000 too large to allocate"
                in capsys.readouterr().err)

    # Each edit once ran: a boolean or a numeric string was read as a
    # number (`true` as 1.0, `"1"` as 1), and a `params` list crashed.
    @pytest.mark.parametrize("edit", [
        ("T", True),
        ("T", "2"),
        ("k_schedule", [True, 2, 4]),
        ("k_schedule", [2, "4", 8]),
        ("alpha", [[True, False]]),
        ("beta", [["0.1", 0.0]]),
        ("B", {"op": "scale", "factor": ["1", "0"],
               "arg": {"op": "identity", "dim": 15}}),
        ("B", {"op": "scale", "factor": [1, False],
               "arg": {"op": "identity", "dim": 15}}),
        ("B", {"op": "funcalc", "name": "damped_cayley", "params": [1],
               "arg": {"op": "identity", "dim": 15}}),
        ("B", {"op": "funcalc", "name": "damped_cayley",
               "params": {"theta": True}, "arg": {"op": "identity", "dim": 15}}),
        ("B", {"op": "funcalc", "name": "damped_resolvent",
               "params": {"gamma": "1"}, "arg": {"op": "identity", "dim": 15}}),
        ("B", {"op": "funcalc", "name": "damped_resolvent",
               "params": {"gamma": 10**400}, "arg": {"op": "identity", "dim": 15}}),
    ], ids=str)
    def test_non_number_real_fields(self, edit, tmp_path, capsys):
        field, value = edit
        doc = fixture_to_model_dict(builtin_fixture("duan-kimble"), study={
            "T": 1.0, "grid_points": 8, "k_schedule": [2, 4, 8],
            "alpha": [[0.1, 0.0]], "beta": [[0.0, 0.2]],
        })
        (doc["operators"] if field == "B" else doc["study"])[field] = value
        with pytest.raises(ModelParseError):
            parse_model(json.loads(json.dumps(doc)))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["converge", str(path), "--kind", "semigroup"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("flag", [
        "--alpha=nan", "--alpha=inf", "--alpha=nan+1j", "--beta=1e308",
        "--beta=1e200j", "--alpha=1e155",
    ])
    @pytest.mark.parametrize("argv", [
        ["converge", "duan-kimble", "--kind", "generator", "--k", "2", "4", "8"],
        ["converge", "duan-kimble", "--kind", "semigroup", "--k", "2", "4", "8",
         "--grid", "8"],
        ["semigroup", "duan-kimble", "--grid", "8"],
    ])
    def test_non_finite_amplitudes(self, argv, flag, capsys):
        assert main([*argv, flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "amplitudes must be finite" in captured.err

    # Each once ended in a traceback or a NaN verdict (exit 1): the inputs
    # are finite, but their products leave float64.
    @pytest.mark.parametrize("argv", [
        ["converge", "duan-kimble", "--kind", "semigroup", "--k", "2", "4", "8",
         "--grid", "8", "--alpha=1e100"],
        ["converge", "duan-kimble", "--kind", "generator",
         "--k", "1e100", "1e200", "1e300"],
        ["converge", "duan-kimble", "--kind", "generator", "--k", "2", "4", "8",
         "--alpha=1e154"],
        ["semigroup", "duan-kimble", "--grid", "8", "--alpha=1e100"],
        ["semigroup", "duan-kimble", "--grid", "8", "--k", "1e200"],
        ["validate", "duan-kimble", "--k", "1e200"],
        ["eliminate", "{big-f}"],
    ])
    def test_overflowing_products(self, argv, tmp_path, capsys):
        # {big-f}: duan-kimble with F scaled by 1e160, so F F^* overflows.
        fix = builtin_fixture("duan-kimble")
        fam = fix.family
        big = Fixture(name="big-f", sub=fix.sub, family=dataclasses.replace(
            fam, f_ops=tuple(1e160 * f for f in fam.f_ops)))
        path = tmp_path / "big-f.json"
        path.write_text(json.dumps(fixture_to_model_dict(big)))
        argv = [str(path) if a == "{big-f}" else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_truncation_of_a_tensor_product(self, tmp_path, capsys,
                                            osc_qubit_fixture):
        """The oscillator of truncation-demo tensored with a qubit: the
        study would cut the flattened index, not the oscillator."""
        doc = fixture_to_model_dict(osc_qubit_fixture)
        path = tmp_path / "osc-qubit.json"
        path.write_text(json.dumps(doc))
        assert main(["converge", str(path), "--kind", "truncation",
                     "--k", "2", "3", "4", "--grid", "8"]) == 2
        captured = capsys.readouterr()
        assert "verdict" not in captured.out
        assert "one tensor factor" in captured.err

    def test_non_finite_study_amplitude(self, tmp_path, capsys):
        doc = fixture_to_model_dict(builtin_fixture("duan-kimble"), study={
            "grid_points": 8, "k_schedule": [2, 4, 8], "alpha": [[math.nan, 0.0]],
        })
        path = tmp_path / "nan-alpha.json"
        path.write_text(json.dumps(doc))  # writes NaN
        assert main(["converge", str(path), "--kind", "generator"]) == 2
        assert "amplitudes must be finite" in capsys.readouterr().err
        # A finite flag value replaces the file's NaN.
        assert main(["converge", str(path), "--kind", "generator",
                     "--alpha=0.1"]) == 0


class TestScheduleSortedAndDistinct:
    """converge sorts its k-schedule and drops repeats before the >= 3
    check, as it did for truncation cutoffs."""

    def test_repeated_k_exits_2_without_a_verdict(self, capsys):
        code = main(["converge", "duan-kimble", "--kind", "generator",
                     "--k", "2", "2", "2", "--alpha=0.2-0.1j", "--beta=0.3+0.2j"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert ">= 3 distinct values" in captured.err

    @pytest.mark.parametrize("kind, extra", [
        ("semigroup", ["--grid", "16"]), ("generator", []),
    ])
    def test_order_of_the_schedule_does_not_matter(self, kind, extra, capsys):
        runs = []
        for ks in (["2", "4", "8", "16"], ["16", "8", "4", "2"],
                   ["8", "2", "16", "4", "8"]):
            code = main(["converge", "duan-kimble", "--kind", kind, "--k", *ks,
                         *extra])
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][0] == 0 and "verdict: PASS" in runs[0][1]


    def test_validate_runs_each_distinct_k_once(self, tmp_path, capsys):
        runs = []
        for i, ks in enumerate((["2", "4"], ["2", "2", "4", "2"])):
            report = tmp_path / f"{i}.json"
            with mock.patch.object(cli, "assemble", wraps=cli.assemble) as asm, \
                    mock.patch.object(cli, "hp_validate",
                                      wraps=cli.hp_validate) as hp:
                code = main(["validate", "duan-kimble", "--k", *ks,
                             "--report", str(report)])
            runs.append((code, capsys.readouterr().out, report.read_text(),
                         [c.args[1] for c in asm.call_args_list],
                         hp.call_count))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][3:] == ([2.0, 4.0], 2)


_STARTUP = """
import contextlib, io, sys
import qsdelim, qsdelim.cli
runs = (["validate", "duan-kimble"], ["eliminate", "duan-kimble"],
        ["converge", "duan-kimble", "--kind", "generator"])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [qsdelim.cli.main(argv) for argv in runs]
loaded = ["orjson" in sys.modules, "scipy" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(qsdelim.cli.main(["semigroup", "duan-kimble", "--k", "16",
                                   "--grid", "8"]))
loaded.append("scipy.linalg" in sys.modules)
print(codes, loaded)
"""


class TestStartupImports:
    """scipy is imported on the first matrix exponential and orjson on the
    first model file, not with the package.  Checked in a fresh
    interpreter, since these test modules import both themselves."""

    def test_only_an_exponential_loads_scipy(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", _STARTUP], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[-2] == "[0, 0, 0, 0] [False, False, True]"


class TestTruncationPreconditions:
    """The truncation study validates its model and honours --tol."""

    @pytest.fixture
    def shifted_path(self, tmp_path, shifted_truncation_demo):
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps(fixture_to_model_dict(shifted_truncation_demo)))
        return str(path)

    TRUNCATION = ["--kind", "truncation", "--k", "4", "6", "8", "10"]

    def test_failing_model_prints_its_report_and_no_verdict(self, shifted_path,
                                                             capsys):
        # This model once printed gaps and "verdict: PASS" with exit 0.
        assert main(["converge", shifted_path, *self.TRUNCATION]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("preconditions fail for model shifted: "
                            "scaled unitarity relations fail")
        assert any(line.startswith("  FAIL  scaled.b ") for line in lines)
        assert not any(line.startswith("verdict:") for line in lines)

    def test_validate_still_reports_the_same_failure(self, shifted_path, capsys):
        assert main(["validate", shifted_path]) == 1
        out = capsys.readouterr().out
        assert "  FAIL  scaled.b " in out
        assert "overall: FAIL" in out

    def test_tol_reaches_the_study(self, shifted_path, capsys):
        code = main(["converge", shifted_path, *self.TRUNCATION, "--tol", "1"])
        lines = capsys.readouterr().out.splitlines()
        assert code in (0, 1)
        assert lines[0] == "model shifted: truncation study"
        assert any(line.startswith("verdict: ") for line in lines)


class TestSemigroupAtFixedK:
    """semigroup --k validates the scaled unitarity relations first."""

    def test_failing_model_prints_its_report_and_no_verdict(
            self, tmp_path, capsys, lowered_truncation_demo):
        # This model once printed "contraction: PASS" with exit 0.
        path = tmp_path / "lowered.json"
        path.write_text(json.dumps(fixture_to_model_dict(lowered_truncation_demo)))
        assert main(["semigroup", str(path), "--k", "4", "--grid", "8"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("preconditions fail for model lowered: "
                            "scaled unitarity relations fail")
        assert any(line.startswith("  FAIL  scaled.b ") for line in lines)
        assert not any(line.startswith("contraction:") for line in lines)

    def test_structural_checks_do_not_apply(self, capsys):
        assert main(["semigroup", "broken-structural", "--k", "4",
                     "--grid", "8"]) == 0
        assert "contraction: PASS" in capsys.readouterr().out


class TestSemigroupReport:
    """semigroup --report writes the table as strict JSON: the CSV's values,
    the printed max and the table's thin-phase diagnostics."""

    @pytest.mark.parametrize("amp", [["--alpha=0.2-0.1j"], []],
                             ids=["amplitude", "vacuum"])
    @pytest.mark.parametrize("k", [["--k", "16"], []])
    def test_report_matches_csv_and_stdout(self, k, amp, tmp_path, capsys):
        csv_path, report = tmp_path / "sg.csv", tmp_path / "sg.json"
        assert main(["semigroup", "duan-kimble", *k, "--T", "2", "--grid", "64",
                     *amp, "--csv", str(csv_path), "--report", str(report)]) == 0
        out = capsys.readouterr().out
        doc = json.loads(report.read_text(), parse_constant=pytest.fail)
        with csv_path.open() as fh:
            values = [float(row["value"]) for row in csv.DictReader(fh)]
        assert doc["values"] == values and len(values) == 64
        assert doc["values"][0] == 1.0
        assert f"max semigroup norm {doc['max_norm']:.12g} over" in out
        assert doc["max_norm"] == max(values)
        assert (doc["model"], doc["k"], doc["t_max"], doc["grid_points"],
                doc["verdict"]) == ("duan-kimble", 16.0 if k else None, 2.0, 64, True)
        diagnostics = doc["diagnostics"]
        assert sorted(diagnostics) == ["dense_steps", "tail_bound"]
        if diagnostics["tail_bound"] is None:
            assert diagnostics["dense_steps"] == 64
        else:
            assert 1 <= diagnostics["dense_steps"] < 64
            assert 0 < diagnostics["tail_bound"] < 1e-6


@pytest.mark.parametrize("argv, keys", [
    (["validate"], ["checks", "model", "overall"]),
    (["eliminate"], ["K", "L", "M", "N", "channels", "compression", "model",
                     "space", "unitarity_ok"]),
    (["semigroup", "--k", "16", "--grid", "8"],
     ["diagnostics", "grid_points", "k", "max_norm", "model", "t_max",
      "values", "verdict"]),
    (["converge", "--kind", "generator"],
     ["diagnostics", "fitted_rate", "grid_points", "k_schedule", "kind",
      "model", "t_max", "values", "verdict"]),
], ids=["validate", "eliminate", "semigroup", "converge"])
def test_report_keys(argv, keys, tmp_path, capsys):
    """Every model command's report carries "model" next to its own keys."""
    report = tmp_path / "report.json"
    command, *flags = argv
    assert main([command, "duan-kimble", *flags, "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert sorted(doc) == keys
    assert doc["model"] == "duan-kimble"


class TestVerbose:
    """--verbose logs the package's INFO lines to stderr for one call and
    changes no output."""

    ARGV = ["semigroup", "duan-kimble", "--k", "16", "--T", "2", "--grid", "64"]

    def _run(self, tmp_path, capsys, name, *flags):
        csv_path, report = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        assert main([*flags, *self.ARGV, "--csv", str(csv_path),
                     "--report", str(report)]) == 0
        captured = capsys.readouterr()
        return captured.out, captured.err, csv_path.read_bytes(), report.read_bytes()

    def test_outputs_identical_and_one_switch_line(self, tmp_path, capsys):
        quiet = self._run(tmp_path, capsys, "quiet")
        loud = self._run(tmp_path, capsys, "loud", "--verbose")
        assert loud[0] == quiet[0] and loud[2:] == quiet[2:]
        assert quiet[1] == ""
        lines = loud[1].splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "INFO qsdelim.cli: semigroup table: thin block from grid time J=")
        assert " tail bound t_J=" in lines[0]

    def test_handler_lasts_one_call(self, tmp_path, capsys):
        package = logging.getLogger("qsdelim")
        handlers, level = list(package.handlers), package.level
        self._run(tmp_path, capsys, "loud", "--verbose")
        assert (package.handlers, package.level) == (handlers, level)
        assert self._run(tmp_path, capsys, "quiet")[1] == ""

    def test_rate_fit_logs(self, capsys):
        argv = ["converge", "duan-kimble", "--kind", "generator",
                "--k", "2", "4", "8", "16", "32", "64"]
        assert main(["--verbose", *argv]) == 0
        assert "INFO qsdelim.convergence: rate_fit: excluded" in capsys.readouterr().err


class TestOnePreconditionPrinter:
    """eliminate, semigroup and converge report a failed precondition alike."""

    @pytest.mark.parametrize("argv", [
        ["eliminate", "broken-structural"],
        ["semigroup", "broken-structural", "--grid", "8"],
        ["converge", "broken-structural", "--kind", "semigroup",
         "--k", "2", "4", "8", "--grid", "8"],
        ["converge", "broken-structural", "--kind", "generator",
         "--k", "2", "4", "8"],
    ])
    def test_header_then_report_lines(self, argv, capsys):
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("preconditions fail for model broken-structural: "
                            "structural requirements fail")
        assert [line.split()[:2] for line in lines[1:]] == [
            ["PASS", "structural.b"], ["PASS", "structural.c"],
            ["PASS", "structural.d"], ["FAIL", "structural.e"],
            ["PASS", "limit.l_side"], ["PASS", "limit.n_side_right"],
            ["PASS", "limit.n_side_left"],
        ]


class TestModelCommandRunner:
    """validate, eliminate, semigroup and converge run through one runner:
    it loads the model once, raises on float64 overflow and prints a failed
    precondition's report."""

    COMMANDS = (
        ["validate"],
        ["eliminate"],
        ["semigroup", "--grid", "8"],
        ["converge", "--kind", "generator", "--k", "2", "4", "8"],
    )

    @staticmethod
    def _write(fix, path, scale=1.0):
        fam = dataclasses.replace(
            fix.family, f_ops=tuple(scale * f for f in fix.family.f_ops))
        path.write_text(json.dumps(fixture_to_model_dict(
            dataclasses.replace(fix, family=fam))))
        return str(path)

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_model_file_overflow_exits_2(self, argv, tmp_path, capsys):
        # duan-kimble with F scaled by 1e200: F F^* leaves float64.
        path = self._write(builtin_fixture("duan-kimble"),
                           tmp_path / "huge-f.json", scale=1e200)
        assert main([argv[0], path, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "inputs too large for float64" in captured.err

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    @pytest.mark.parametrize("model, scale, code", [
        ("duan-kimble", 1.0, None),
        ("duan-kimble", 1e200, 2),
        ("broken-structural", 1.0, None),
    ])
    def test_one_load_per_call(self, argv, model, scale, code, tmp_path, capsys):
        fix = cli._bundled_fixture(model)
        path = self._write(fix, tmp_path / f"{model}.json", scale=scale)
        with mock.patch.object(cli, "load_model", wraps=cli.load_model) as load:
            rc = main([argv[0], path, *argv[1:]])
        capsys.readouterr()
        assert load.call_count == 1
        if code is not None:
            assert rc == code

    def test_truncation_overflow_exits_2(self, capsys):
        # A finite amplitude with a finite shift whose dressed generator
        # leaves float64: the study's own ValueError once printed only
        # "operator entries must be finite".
        assert main(["converge", "truncation-demo", "--kind", "truncation",
                     "--k", "4", "6", "8", "--alpha=1e100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: operator entries must be finite: "
                                "inputs too large for float64\n")


class TestParserBuiltOnce:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_options_do_not_carry_over(self, tmp_path, capsys):
        argv = ["converge", "duan-kimble", "--kind", "generator",
                "--k", "2", "4", "8"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        out = tmp_path / "out"
        out.mkdir()
        assert main([*argv, "--csv", str(out / "a.csv"),
                     "--report", str(out / "a.json"), "--alpha=0.3-0.2j"]) == 0
        with_flags = capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == ["a.csv", "a.json"]
        for path in out.iterdir():
            path.unlink()
        assert main(argv) == 0
        assert list(out.iterdir()) == []  # no --csv or --report left over
        again = capsys.readouterr().out
        assert again == plain  # the model's (vacuum) amplitudes again
        assert with_flags != plain

    def test_usage_error_then_valid_call(self, capsys):
        assert main(["converge", "duan-kimble", "--kind", "bogus"]) == 2
        assert main(["converge", "duan-kimble", "--kind", "generator",
                     "--k", "2", "4", "8"]) == 0
        assert "verdict: PASS" in capsys.readouterr().out


# The model's name is echoed on stdout, in the report and in the CSV.
FORGED_NAME = "x: structural check\n  PASS  everything\noverall: PASS\nmodel x"


class TestModelName:
    """`parse_model` takes `name` only as a str for which `str.isprintable()`
    holds; any other exits 2 before any stdout line, the name shown through
    `ascii()`, so no name can add a line to the output."""

    @staticmethod
    def _run(tmp_path, base, name, *argv):
        """Exit code, stdout and stderr of `qsdelim CMD FILE` on the document
        of the bundled model `base` with `name`."""
        fix = cli._bundled_fixture(base)
        path = tmp_path / "named.json"
        path.write_text(json.dumps({**fixture_to_model_dict(fix), "name": name}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), *argv[1:]])
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("name", [FORGED_NAME, "\ud800", ["a", 1], None, 7,
                                      "bell\a", "esc\x1b[2J", "line\u2028sep"])
    @pytest.mark.parametrize("argv", [["validate"], ["eliminate"],
                                      ["semigroup", "--grid", "8"]])
    def test_rejected(self, name, argv, tmp_path):
        got = self._run(tmp_path, "broken-structural", name, *argv)
        assert got == (2, "", "error: model name must be a printable string, "
                              f"got {ascii(name)}\n")

    def test_lone_surrogate_in_a_fresh_process(self, tmp_path):
        """The surrogate once died in `print` with UnicodeEncodeError."""
        path = tmp_path / "named.json"
        path.write_text(json.dumps({**fixture_to_model_dict(
            builtin_fixture("duan-kimble")), "name": "\ud800"}))
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "qsdelim.cli", "validate",
                               str(path)], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("error: model name must be a printable string, "
                               "got '\\ud800'\n")

    @settings(max_examples=40, deadline=None)
    @given(name=st.text(st.characters(exclude_categories=()), max_size=12)
           | st.sampled_from(["café", "x\r", "\x85", "a\u2029"])
           | st.lists(st.integers() | st.text(max_size=3), max_size=3)
           | st.none() | st.booleans() | st.floats())
    @example(name=[-(2**63) - 1])  # orjson decodes it to a float
    def test_no_line_from_a_name(self, name, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("name")
        code, out, err = self._run(tmp_path, "duan-kimble", name, "validate")
        _, want, _ = self._run(tmp_path, "duan-kimble", "m", "validate")
        if isinstance(name, str) and name.isprintable():
            assert (code, err) == (0, "")
            assert out.split("\n") == [f"model {name}", *want.split("\n")[1:]]
            assert out.splitlines() == [f"model {name}", *want.splitlines()[1:]]
        else:
            assert (code, out) == (2, "")
            assert err == f"error: model name must be a printable string, got {ascii(name)}\n"


# -- the writers of reports and printed matrices ---------------------------
# Reports and example documents are json.dumps's; `cli._matrix_text` must
# give the bytes of `np.array2string`, which it replaced.

def _reference_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def _reference_matrix(m) -> str:
    with np.printoptions(precision=6, suppress=True, linewidth=120):
        return np.array2string(m)


@st.composite
def _printed_matrices(draw):
    """Complex r x r, r = 1 .. 12, with magnitudes from 1e-12 up to 10^top,
    zeros, -0.0 and entries rounded to 0 .. 6 places (integral ones too)."""
    r = draw(st.integers(1, 12))
    top = draw(st.sampled_from([-11, -3, 0, 2, 5, 7, 8, 9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((r, r, 2)) * 10.0 ** rng.uniform(-12, top, (r, r, 2))
    kind = rng.random((r, r, 2))
    x[kind < 0.1] = 0.0
    x[(kind >= 0.1) & (kind < 0.2)] = -0.0
    rounded = (kind >= 0.2) & (kind < 0.35)
    x[rounded] = np.round(x[rounded], draw(st.integers(0, 6)))
    return x.view(np.complex128).reshape(r, r)


class TestBulkWriters:
    @pytest.mark.parametrize("argv", [
        ["validate", "duan-kimble", "--k", "4"],
        ["eliminate", "duan-kimble"],
        ["semigroup", "duan-kimble", "--grid", "8"],
        ["converge", "duan-kimble", "--kind", "generator", "--k", "2", "4", "8"],
        ["converge", "duan-kimble", "--kind", "semigroup", "--k", "2", "4", "8",
         "--grid", "8"],
    ], ids=["validate", "eliminate", "semigroup", "generator", "converge"])
    def test_report_is_one_line_of_sorted_json(self, argv, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main([*argv, "--report", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, allow_nan=False) + "\n"

    @pytest.mark.parametrize("name", [*sorted(cli.BUILTIN_FIXTURES), "broken-structural"])
    def test_example_prints_and_writes_indented_json(self, name, tmp_path, capsys):
        study = StudyParams()
        doc = fixture_to_model_dict(cli._bundled_fixture(name), study={
            "T": study.t_max, "grid_points": study.grid_points,
            "k_schedule": list(study.k_schedule),
        })
        path = tmp_path / "model.json"
        assert main(["example", name]) == 0
        assert capsys.readouterr().out == _reference_json(doc) + "\n"
        assert main(["example", name, "--report", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == _reference_json(doc) + "\n"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_report_raises_json_message(self, bad, tmp_path):
        """json's C encoder raises, echoing no value."""
        with pytest.raises(ValueError, match="^Out of range float values are not "
                           "JSON compliant$"):
            cli._write_report(str(tmp_path / "r.json"), {"values": [[1.0, bad]]})

    @settings(max_examples=300, deadline=None)
    @given(_printed_matrices())
    @example(np.zeros((3, 3), complex))
    @example(np.full((2, 2), complex(-0.0, -0.0)))
    @example(np.array([[1 + 2j, -3.0], [4j, 1e7 - 1e-7j]]))
    @example(np.array([[5e-7 + 5e-7j, 1.0000005 - 0.1234565j]]))
    @example(np.full((10, 10), -1.25 + 2.125j))  # 9 words of 12 fill 117 columns
    def test_matrix_text_is_array2string(self, m):
        assert cli._matrix_text(m) == _reference_matrix(m)

    @pytest.mark.parametrize("m, numpy", [
        (np.array([[1e8, 0.0], [0.0, 1.0]], complex), True),
        (np.array([[1.0, -1e8j]]), True),
        (np.array([[1.0, complex(0.0, np.nan)]]), True),
        (np.array([[np.inf + 0j]]), True),
        (np.zeros((0, 0), complex), True),
        (np.ones((7, 143), complex), True),  # 1001 entries: numpy summarizes
        (np.ones((25, 40), complex), False),
        (np.array([[99999999.99 - 99999999.99j, 1e-300]]), False),
        (np.array([[-1e17j]]), True),
    ], ids=["re-1e8", "im-1e8", "nan", "inf", "empty", "summarized", "1000",
            "below-1e8", "im-1e17"])
    def test_which_matrices_numpy_prints(self, m, numpy):
        """A part of magnitude 1e8 or more (numpy's exponent format) or not
        finite, an empty array or one of more than 1000 entries goes to
        `np.array2string`; any other is formatted here."""
        with mock.patch.object(np, "array2string", wraps=np.array2string) as calls:
            got = cli._matrix_text(m)
        assert calls.call_count == numpy
        assert got == _reference_matrix(m)
