"""Model-file parsing, expression trees, and the command-line interface."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from qsdelim import (
    Fixture,
    HilbertSpace,
    ModelParseError,
    QsdeCoefficients,
    StudyParams,
    builtin_fixture,
    driven_oscillator_limit,
    eliminate,
    eval_expression,
    fixture_to_model_dict,
    fock_toolbox,
    parse_model,
    random_structured_fixture,
    spectral_norm,
    tensor_embed,
    trivial_family_from_limit,
)
from qsdelim.cli import main
from qsdelim.modelfile import matrix_from_json, matrix_to_json


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
            eval_expression({"op": "annihilator", "dim": 4}), fock.b.entries
        )
        assert np.array_equal(
            eval_expression({"op": "creator", "dim": 4}), fock.b_dag.entries
        )
        assert np.array_equal(
            eval_expression({"op": "number", "dim": 4}), fock.number.entries
        )
        assert np.array_equal(
            eval_expression({"op": "identity", "dim": 3}), np.eye(3)
        )

    def test_basis_matrix(self):
        m = eval_expression({"op": "basis_matrix", "dim": 3, "row": 0, "col": 2})
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
        got = eval_expression(node)
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
        got = eval_expression(node)
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
        with pytest.raises(ModelParseError):
            eval_expression(node)

    def test_unknown_ops_rejected(self):
        with pytest.raises(ModelParseError):
            eval_expression({"op": "matrix_power", "arg": [[[1.0, 0.0]]]})
        with pytest.raises(ModelParseError):
            eval_expression({"op": "funcalc", "name": "nope",
                             "arg": matrix_to_json(np.eye(2))})
        with pytest.raises(ModelParseError):
            eval_expression("not an expression")


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

    def test_truncation_of_a_tensor_product(self, tmp_path, capsys):
        """The oscillator of truncation-demo tensored with a qubit: the
        study would cut the flattened index, not the oscillator."""
        osc = driven_oscillator_limit(5)
        space = HilbertSpace((6, 2))

        def up(op):
            return tensor_embed(op, 0, space)

        limit = QsdeCoefficients(
            1, space, up(osc.k_op), (up(osc.l_ops[0]),), (up(osc.m_ops[0]),),
            ((up(osc.n_ops[0][0]),),),
        )
        fam, sub = trivial_family_from_limit(limit)
        doc = fixture_to_model_dict(Fixture(name="osc-qubit", family=fam, sub=sub))
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
