"""Command-line interface.

Subcommands:
  validate   check the unitarity and subspace requirements of a model
  eliminate  compute the slow-subspace limit coefficients
  semigroup  tabulate contraction norms of the dressed semigroup
  converge   run a generator / semigroup / truncation convergence study
  example    emit a bundled example model as a JSON document

Exit codes: 0 success, 1 domain failure (a check or verdict fails),
2 malformed input or usage error, including a time grid that is not
finite T > 0 with >= 2 points, a truncation study on a model whose
coefficients depend on k or whose space has more than one tensor factor,
a scaling parameter k (from --k or the model's k_schedule) that is not
finite and > 0, a truncation cutoff that is not an integer >= 0, a --tol
that is not finite and > 0, an amplitude (--alpha, --beta or the model's)
that is not finite or whose squared modulus overflows, finite model
entries, amplitudes or k values whose products in a validate, eliminate,
semigroup or converge run overflow float64, and a model file with a NaN,
Infinity or null entry or a boolean or string where a number belongs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .convergence import generator_study, semigroup_study, truncation_study
from .elimination import eliminate
from .errors import ModelParseError, NonFiniteEntries, PreconditionFailed, QsdelimError
from .modelfile import (
    ModelFile,
    StudyParams,
    fixture_to_model_dict,
    limit_to_json,
    load_model,
)
from .models import BUILTIN_FIXTURES, Fixture, builtin_fixture, duan_kimble_fixture
from .operator_core import Operator
from .qsde_model import (
    assemble,
    hp_validate,
    scaled_hp_validate,
    structural_validate,
)
from .semigroup import FieldAmplitudes, propagate_on_grid

CSV_HEADER = ("fixture", "kind", "k", "t_max", "grid_points", "alpha", "beta", "value")


def _fmt_float(x: float) -> str:
    return "%.17g" % float(x)


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    return "%.17g%+.17gj" % (z.real, z.imag)


def _fmt_amps(values) -> str:
    return ";".join(_fmt_complex(z) for z in values)


def _write_csv(path: str, name: str, kind: str, amp: FieldAmplitudes,
               rows) -> None:
    """Write (k, t_max, grid_points, value) rows under CSV_HEADER."""
    amps = (_fmt_amps(amp.alpha), _fmt_amps(amp.beta))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for k, t, grid, value in rows:
            writer.writerow((
                name, kind, _fmt_float(k), _fmt_float(t), grid, *amps,
                _fmt_float(value),
            ))


def _write_report(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_amplitude_list(text: str, n: int, flag: str):
    try:
        values = tuple(complex(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ModelParseError(f"bad {flag} value {text!r}: {exc}") from exc
    if len(values) != n:
        raise ModelParseError(
            f"{flag} needs {n} comma-separated values, got {len(values)}"
        )
    return values


def _bundled_fixture(name: str) -> Fixture | None:
    """A bundled fixture or the bundled counterexample, None for other names.

    The counterexample keeps a slow-block drive term, so the requirement
    that the slow compression of the drive vanish fails.
    """
    if name in BUILTIN_FIXTURES:
        return builtin_fixture(name)
    if name != "broken-structural":
        return None
    fix = duan_kimble_fixture(gamma=1.0, g=2.0, drive_alpha=0.3 + 0.4j, cutoff=3)
    family = replace(fix.family, a=fix.family.a + 0.25j * fix.sub.p0)
    return Fixture(name="broken-structural", family=family, sub=fix.sub)


def _resolve_model(ref: str) -> ModelFile:
    name = ref[len("fixtures/"):] if ref.startswith("fixtures/") else ref
    fix = _bundled_fixture(name)
    if fix is None:
        return load_model(ref)
    return ModelFile(name=fix.name, family=fix.family, sub=fix.sub)


def _amplitudes(args, model: ModelFile) -> FieldAmplitudes:
    n = model.family.n
    base = model.study.amplitudes(n)
    alpha, beta = base.alpha, base.beta
    if args.alpha is not None:
        alpha = _parse_amplitude_list(args.alpha, n, "--alpha")
    if args.beta is not None:
        beta = _parse_amplitude_list(args.beta, n, "--beta")
    # The dressing shift is (|alpha|^2 + |beta|^2) / 2 in float64; a NaN,
    # an infinity or a square past float64 makes it non-finite.
    power = sum(z.real * z.real + z.imag * z.imag for z in alpha + beta)
    if not math.isfinite(power):
        raise ModelParseError(
            "amplitudes must be finite with finite |alpha|^2 + |beta|^2"
        )
    return FieldAmplitudes(alpha, beta)


def _report_lines(report) -> list[str]:
    return [
        f"  {'PASS' if c.passed else 'FAIL'}  {c.name:<22} "
        f"max violation {c.max_violation:.3e}  (tol {c.tolerance:.1e})"
        for c in report.checks
    ]


def _finite_study(cmd):
    """Run a model-reading command with float64 overflow and invalid
    operations raising.  Inputs are checked finite, so a non-finite
    intermediate means their products left float64: ModelParseError
    (exit 2), before any verdict is printed.  scipy's expm returns inf
    without raising, which the operator built from it reports as
    NonFiniteEntries."""
    def run(args) -> int:
        try:
            with np.errstate(over="raise", invalid="raise"):
                return cmd(args)
        except (FloatingPointError, NonFiniteEntries) as exc:
            raise ModelParseError(f"{exc}: inputs too large for float64") from exc
    return run


@_finite_study
def cmd_validate(args) -> int:
    model = _resolve_model(args.model)
    tol = args.tol
    ks = _k_values(args.k) if args.k is not None else ()
    reports = {"scaled": scaled_hp_validate(model.family, tol=tol)}
    reports["structural"] = structural_validate(model.family, model.sub, tol=tol)
    for k in ks:
        reports[f"assembled(k={_fmt_float(k)})"] = hp_validate(
            assemble(model.family, k), tol=tol
        )
    overall = True
    print(f"model {model.name}")
    for label, report in reports.items():
        print(f"{label}:")
        for line in _report_lines(report):
            print(line)
        overall = overall and report.overall
    if args.report:
        _write_report(args.report, {
            "model": model.name,
            "overall": overall,
            "checks": {
                label: [
                    {
                        "name": c.name,
                        "max_violation": c.max_violation,
                        "tolerance": c.tolerance,
                        "passed": c.passed,
                    }
                    for c in report.checks
                ]
                for label, report in reports.items()
            },
        })
    print(f"overall: {'PASS' if overall else 'FAIL'}")
    return 0 if overall else 1


def _print_operator(label: str, op: Operator) -> None:
    print(f"{label} =")
    with np.printoptions(precision=6, suppress=True, linewidth=120):
        print(np.array2string(op.entries))


@_finite_study
def cmd_eliminate(args) -> int:
    model = _resolve_model(args.model)
    try:
        result = eliminate(model.family, model.sub, tol=args.tol)
    except PreconditionFailed as exc:
        print(f"elimination preconditions fail for model {model.name}:")
        if exc.report is not None:
            for line in _report_lines(exc.report):
                print(line)
        else:
            print(f"  {exc}")
        return 1
    limit = result.limit
    print(f"model {model.name}: slow subspace dimension {limit.space.total_dim}, "
          f"{limit.n} channel(s)")
    _print_operator("K", limit.k_op)
    for i, op in enumerate(limit.l_ops):
        _print_operator(f"L[{i}]", op)
    for i, op in enumerate(limit.m_ops):
        _print_operator(f"M[{i}]", op)
    for i, row in enumerate(limit.n_ops):
        for j, op in enumerate(row):
            _print_operator(f"N[{i}][{j}]", op)
    check = hp_validate(limit, tol=args.tol)
    for line in _report_lines(check):
        print(line)
    if args.report:
        doc = limit_to_json(result)
        doc["model"] = model.name
        doc["unitarity_ok"] = check.overall
        _write_report(args.report, doc)
    return 0 if check.overall else 1


def _time_grid(args, model: ModelFile) -> tuple[float, int]:
    t_final = args.T if args.T is not None else model.study.t_max
    grid = args.grid if args.grid is not None else model.study.grid_points
    if not (math.isfinite(t_final) and t_final > 0) or grid < 2:
        raise ModelParseError("need finite T > 0 and --grid >= 2")
    return t_final, grid


def _k_values(values, cutoffs: bool = False) -> tuple[float, ...]:
    """Reject scaling parameters that are not finite and > 0, or, for a
    truncation study, cutoffs that are not integers >= 0."""
    values = tuple(values)
    for k in values:
        ok = k >= 0 and float(k).is_integer() if cutoffs else k > 0
        if not (math.isfinite(k) and ok):
            need = "integer cutoffs >= 0" if cutoffs else "finite k > 0"
            raise ModelParseError(f"bad k value {k!r}: need {need}")
    return values


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite float > 0."""
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"need finite tol > 0, got {text!r}")
    return tol


@_finite_study
def cmd_semigroup(args) -> int:
    model = _resolve_model(args.model)
    amp = _amplitudes(args, model)
    t_final, grid = _time_grid(args, model)
    if args.k is not None:
        if len(args.k) != 1:
            raise ModelParseError("semigroup takes a single --k value")
        (k,) = _k_values(args.k)
        coeffs = assemble(model.family, k)
        label = k
    else:
        try:
            coeffs = eliminate(model.family, model.sub, tol=args.tol).limit
        except PreconditionFailed as exc:
            print(f"elimination preconditions fail for model {model.name}: {exc}")
            return 1
        label = 0.0
    rows = []
    worst = 0.0
    # The adjoint propagator has the same spectral norm as the propagator.
    propagators = propagate_on_grid(
        coeffs, amp, t_final, grid, np.eye(coeffs.space.total_dim)
    )
    for t, prop in zip(np.linspace(0.0, t_final, grid), propagators):
        norm = float(np.linalg.norm(prop, 2))
        worst = max(worst, norm)
        rows.append((label, t, grid, norm))
    print(f"model {model.name}: max semigroup norm {worst:.12g} over "
          f"{grid} times in [0, {t_final:g}]"
          + (f" at k={label:g}" if args.k is not None else " (limit model)"))
    if args.csv:
        _write_csv(args.csv, model.name, "contraction_norm", amp, rows)
    contraction_ok = worst <= 1.0 + 1e-9
    print(f"contraction: {'PASS' if contraction_ok else 'FAIL'}")
    return 0 if contraction_ok else 1


@_finite_study
def cmd_converge(args) -> int:
    model = _resolve_model(args.model)
    amp = _amplitudes(args, model)
    t_final, grid = _time_grid(args, model)
    schedule = _k_values(
        args.k if args.k is not None else model.study.k_schedule,
        cutoffs=args.kind == "truncation",
    )
    if args.kind in ("generator", "semigroup"):
        if len(schedule) < 3:
            raise ModelParseError("--k needs >= 3 values for a rate fit")
        try:
            result = eliminate(model.family, model.sub, tol=args.tol)
            if args.kind == "generator":
                report = generator_study(result, amp, schedule)
            else:
                report = semigroup_study(result, amp, schedule, t_final, grid)
        except PreconditionFailed as exc:
            print(f"elimination preconditions fail for model {model.name}: {exc}")
            return 1
    else:
        cutoffs = sorted({int(k) for k in schedule})
        if len(cutoffs) < 2:
            raise ModelParseError("truncation needs >= 2 distinct cutoffs")
        fam = model.family
        if any(np.any(op.entries) for op in (fam.y, fam.a, *fam.f_ops)):
            raise ModelParseError(
                f"truncation needs a fixed-coefficient model (Y = A = F = 0); "
                f"model {model.name} depends on k"
            )
        if len(fam.space.factor_dims) > 1:
            raise ModelParseError(
                f"truncation cuts the flattened index, so it needs a space "
                f"with one tensor factor; model {model.name} has "
                f"{len(fam.space.factor_dims)}"
            )
        try:
            reference = assemble(fam, 1.0)
            report = truncation_study(reference, cutoffs, amp, t_final, grid)
        except ValueError as exc:
            raise ModelParseError(str(exc)) from exc
    print(f"model {model.name}: {report.kind} study")
    for k, val in zip(report.k_schedule, report.values):
        print(f"  k={k:<8g} value={val:.6e}")
    print(f"fitted log-log rate: {report.fitted_rate:.4f}")
    print(f"verdict: {'PASS' if report.verdict else 'FAIL'}")
    if args.csv:
        _write_csv(args.csv, model.name, report.kind, amp, (
            (k, report.t_max, report.grid_points, val)
            for k, val in zip(report.k_schedule, report.values)
        ))
    if args.report:
        _write_report(args.report, {
            "model": model.name,
            "kind": report.kind,
            "k_schedule": list(report.k_schedule),
            "values": list(report.values),
            "fitted_rate": report.fitted_rate,
            "t_max": report.t_max,
            "grid_points": report.grid_points,
            "verdict": report.verdict,
        })
    return 0 if report.verdict else 1


def cmd_example(args) -> int:
    name = args.name
    fix = _bundled_fixture(name)
    if fix is None:
        known = sorted(BUILTIN_FIXTURES) + ["broken-structural"]
        raise ModelParseError(f"unknown example {name!r}; choose from {known}")
    study = StudyParams()
    doc = fixture_to_model_dict(fix, study={
        "T": study.t_max, "grid_points": study.grid_points,
        "k_schedule": list(study.k_schedule),
    })
    if args.report:
        _write_report(args.report, doc)
        print(f"wrote example {name} to {args.report}")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsdelim",
        description="Singular-perturbation limits of quantum stochastic models "
        "on truncated spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_model=True):
        if with_model:
            p.add_argument(
                "model",
                help="path to a JSON model file or a bundled fixture name "
                f"({', '.join(sorted(BUILTIN_FIXTURES))})",
            )
        p.add_argument("--tol", type=_tolerance, default=1e-9,
                       help="validation tolerance (default 1e-9)")
        p.add_argument("--report", help="write a JSON report to this path")

    p = sub.add_parser("validate", help="check unitarity and subspace requirements")
    add_common(p)
    p.add_argument("--k", type=float, nargs="+",
                   help="also validate the assembled model at these k values")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("eliminate", help="compute slow-subspace limit coefficients")
    add_common(p)
    p.set_defaults(func=cmd_eliminate)

    def add_study(p, k_help, csv_help):
        p.add_argument("--k", type=float, nargs="+", help=k_help)
        p.add_argument("--T", type=float, help="time horizon (default from model)")
        p.add_argument("--grid", type=int, help="number of grid times")
        p.add_argument("--alpha", help="comma-separated input amplitudes")
        p.add_argument("--beta", help="comma-separated output amplitudes")
        p.add_argument("--csv", help=csv_help)

    p = sub.add_parser("semigroup", help="tabulate dressed-semigroup norms")
    add_common(p)
    add_study(p, "assemble the prelimit model at this k (default: limit)",
              "write per-time norms to this CSV path")
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("converge", help="run a convergence study")
    add_common(p)
    p.add_argument("--kind", choices=("generator", "semigroup", "truncation"),
                   default="semigroup")
    add_study(p, "k schedule (cutoff list for --kind truncation)",
              "write per-k values to this CSV path")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("example", help="emit a bundled example model as JSON")
    p.add_argument("name", help="example name (bundled fixture or "
                   "'broken-structural')")
    p.add_argument("--report", help="write the JSON document to this path")
    p.set_defaults(func=cmd_example)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ModelParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QsdelimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
