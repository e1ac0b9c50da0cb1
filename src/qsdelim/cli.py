"""Command-line interface.

Subcommands:
  validate   check the unitarity and subspace requirements of a model
  eliminate  compute the slow-subspace limit coefficients
  semigroup  tabulate contraction norms of the dressed semigroup
  converge   run a generator / semigroup / truncation convergence study
  example    emit a bundled example model as a JSON document

All but `example` run through `_model_command`, which loads the model,
guards float64, prints failed preconditions and maps a ValueError to exit 2.
Each of these commands returns its verdict, stdout lines, report body and
CSV table; the runner alone writes --csv and --report (every report
carries "model") before it prints any line, and sets the exit code.

`qsdelim --verbose COMMAND ...` logs the package's INFO messages to
stderr for that call (the semigroup table's switch to a thin block, the
rate fit's excluded residuals); no other output changes.

Exit codes: 0 success; 1 domain failure: a check or verdict fails, or the
model fails the preconditions of eliminate, semigroup or converge, which
print the failing report lines and no verdict (semigroup --k needs only
the scaled unitarity relations); 2 malformed input or usage error: a
library ValueError, among them a k (from --k or the model's k_schedule,
which converge sorts and de-duplicates) that is not finite and > 0 or a
truncation cutoff that is not a finite integer >= 0 (`_k_values`), an
amplitude (--alpha, --beta or the model's) that is not finite or whose
squared modulus overflows (`FieldAmplitudes`) and a usage rule of
`truncation_study` (too few cutoffs, a cutoff outside the space,
k-dependent coefficients, more than one tensor factor, N not exactly I);
a time grid that is not finite T > 0 with >= 2 points, fewer than 3
distinct k for a generator or semigroup study, a --tol that is not finite
and > 0, finite inputs whose products in a run overflow float64, a model
file with a NaN, Infinity or null entry or a boolean or string where a
number belongs, a model file whose dimension is too large for its arrays
to be allocated, and a --report or --csv path that cannot be written (a
missing directory or a directory).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
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
from .operator_core import Operator, _propagator_norms
from .qsde_model import (
    _k_values,
    _require_scaled_hp,
    assemble,
    hp_validate,
    scaled_hp_validate,
    structural_validate,
)
from .semigroup import FieldAmplitudes, _grid_step, generator

log = logging.getLogger("qsdelim.cli")  # __main__ under python -m

CSV_HEADER = ("fixture", "kind", "k", "t_max", "grid_points", "alpha", "beta", "value")


def _fmt_float(x: float) -> str:
    return "%.17g" % float(x)


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    return "%.17g%+.17gj" % (z.real, z.imag)


def _fmt_amps(values) -> str:
    return ";".join(_fmt_complex(z) for z in values)


def _write_output(path: str, text: str) -> None:
    """Write a --csv or --report file.  A path that cannot be written is a
    usage error (exit 2); files are written before any stdout line, so no
    verdict line precedes the error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ModelParseError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path: str, name: str, kind: str, amp: FieldAmplitudes,
               rows) -> None:
    """Write (k, t_max, grid_points, value) rows under CSV_HEADER."""
    amps = (_fmt_amps(amp.alpha), _fmt_amps(amp.beta))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for k, t, grid, value in rows:
        writer.writerow((
            name, kind, _fmt_float(k), _fmt_float(t), grid, *amps,
            _fmt_float(value),
        ))
    _write_output(path, buf.getvalue())


def _write_report(path: str, doc: dict) -> None:
    """Write `doc` as one line of strict JSON (RFC 8259), keys sorted: a
    non-finite number raises.  `python -m json.tool FILE` pretty-prints it."""
    _write_output(path, json.dumps(doc, sort_keys=True, allow_nan=False) + "\n")


def _json_float(x: float) -> float | None:
    """x, or None (JSON null) where x is NaN or infinite."""
    return x if math.isfinite(x) else None


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
    fix = _bundled_fixture(ref)
    if fix is None:
        return load_model(ref)
    return ModelFile(name=fix.name, family=fix.family, sub=fix.sub)


def _amplitudes(args, model: ModelFile) -> FieldAmplitudes:
    n, vacuum = model.family.n, (0.0,) * model.family.n
    alpha, beta = model.study.alpha or vacuum, model.study.beta or vacuum
    if args.alpha is not None:
        alpha = _parse_amplitude_list(args.alpha, n, "--alpha")
    if args.beta is not None:
        beta = _parse_amplitude_list(args.beta, n, "--beta")
    return FieldAmplitudes(alpha, beta)


def _report_lines(report) -> list[str]:
    return [
        f"  {'PASS' if c.passed else 'FAIL'}  {c.name:<22} "
        f"max violation {c.max_violation:.3e}  (tol {c.tolerance:.1e})"
        for c in report.checks
    ]


def _model_command(cmd):
    """Run `cmd(args, model)` on the model `args.model` names, with float64
    overflow and invalid operations raising, and give its output.  Inputs
    are checked finite, so a non-finite intermediate (scipy's expm returns
    inf, which its operator reports as NonFiniteEntries) means their
    products left float64: ModelParseError (exit 2) before any verdict, as
    is a library ValueError.  A failed precondition prints its message and
    report lines: exit 1, no file written.

    `cmd` returns (ok, lines, report, table): its verdict, its stdout lines,
    its --report body without "model", and the (kind, amplitudes, rows) of
    its --csv or None.  The runner writes --csv, then --report with "model"
    added, then prints the lines, so an unwritable path or a non-finite
    report value (exit 2) comes before any verdict line; exit 0 if ok."""
    def run(args) -> int:
        try:
            with np.errstate(over="raise", invalid="raise"):
                model = _resolve_model(args.model)
                try:
                    ok, lines, report, table = cmd(args, model)
                except PreconditionFailed as exc:
                    print(f"preconditions fail for model {model.name}: {exc}")
                    for line in _report_lines(exc.report) if exc.report else ():
                        print(line)
                    return 1
                if table and args.csv:  # validate and eliminate have no --csv
                    _write_csv(args.csv, model.name, *table)
                if args.report:
                    _write_report(args.report, {"model": model.name, **report})
        except (FloatingPointError, NonFiniteEntries) as exc:
            raise ModelParseError(f"{exc}: inputs too large for float64") from exc
        except ValueError as exc:
            raise ModelParseError(str(exc)) from exc
        for line in lines:
            print(line)
        return 0 if ok else 1
    return run


@_model_command
def cmd_validate(args, model: ModelFile):
    tol = args.tol
    # A repeated k is one report: each distinct k runs once, first seen first.
    ks = tuple(dict.fromkeys(_k_values(args.k))) if args.k is not None else ()

    def validations():
        yield "scaled", scaled_hp_validate(model.family, tol=tol)
        yield "structural", structural_validate(model.family, model.sub, tol=tol)
        for k in ks:
            yield (f"assembled(k={_fmt_float(k)})",
                   hp_validate(assemble(model.family, k), tol=tol))

    lines, checks, overall = [f"model {model.name}"], {}, True
    for label, report in validations():
        # The lines read the report's exact values, which frees its defect
        # arrays, before the next report is made.
        lines += [f"{label}:", *_report_lines(report)]
        checks[label] = [
            {
                "name": c.name,
                "max_violation": _json_float(c.max_violation),
                "tolerance": _json_float(c.tolerance),
                "passed": c.passed,
            }
            for c in report.checks
        ]
        overall = overall and report.overall
    lines.append(f"overall: {'PASS' if overall else 'FAIL'}")
    return overall, lines, {"overall": overall, "checks": checks}, None


def _matrix_text(m: np.ndarray) -> str:
    """`np.array2string(m)` of a complex 2-D array under precision=6,
    suppress=True and linewidth=120.  Each part prints as
    np.format_float_positional(x, 6, trim=".") gives it, which is "%.6f"
    with its trailing zeros stripped, its integer digits right-aligned and
    its fraction left-aligned over the array, the imaginary part signed
    and its padding after the "j".  A row breaks before a word that would
    reach past column 118 of a line that holds one; the words are equally
    wide, at most 33 characters, so a line holds 117 // (width + 1).  An
    empty array, one of more than 1000 entries (which numpy summarizes) or
    one with a part of magnitude 1e8 or more or not finite (exponent
    format) is numpy's own."""
    parts = np.ascontiguousarray(m).view(np.float64)  # re, im, re, ...
    if not 0 < m.size <= 1000 or not abs(parts).max() < 1e8:  # NaN fails too
        return np.array2string(m, max_line_width=120, precision=6, suppress_small=True)
    values, cuts = parts.ravel().tolist(), []
    for fmt, part in (("%.6f", values[0::2]), ("%+.6f", values[1::2])):
        ints, fracs = zip(*((fmt % x).rstrip("0").split(".") for x in part))
        cuts += ints, fracs, max(map(len, ints)), max(map(len, fracs))
    ri, rf, a, b, ii, jf, c, e = cuts
    word = f"%{a}s.%-{b}s%{c}s.%-{e + 1}s"
    words = [word % (w, x, y, z + "j") for w, x, y, z in zip(ri, rf, ii, jf)]
    per_line, cols = 117 // (len(words[0]) + 1), m.shape[1]
    rows = []
    for start in range(0, len(words), cols):
        row = words[start:start + cols]
        lines = [" ".join(row[i:i + per_line]) for i in range(0, cols, per_line)]
        rows.append("[" + "\n  ".join([x.rstrip() for x in lines[:-1]] + lines[-1:]) + "]")
    return "[" + "\n ".join(rows) + "]"


def _operator_lines(label: str, op: Operator) -> list[str]:
    return [f"{label} =", _matrix_text(op.entries)]


@_model_command
def cmd_eliminate(args, model: ModelFile):
    result = eliminate(model.family, model.sub, tol=args.tol)
    limit = result.limit
    check = hp_validate(limit, tol=args.tol)
    lines = [f"model {model.name}: slow subspace dimension "
             f"{limit.space.total_dim}, {limit.n} channel(s)",
             *_operator_lines("K", limit.k_op)]
    for i, op in enumerate(limit.l_ops):
        lines += _operator_lines(f"L[{i}]", op)
    for i, op in enumerate(limit.m_ops):
        lines += _operator_lines(f"M[{i}]", op)
    for i, row in enumerate(limit.n_ops):
        for j, op in enumerate(row):
            lines += _operator_lines(f"N[{i}][{j}]", op)
    lines += _report_lines(check)
    report = {**limit_to_json(result), "unitarity_ok": check.overall}
    return check.overall, lines, report, None


def _time_grid(args, model: ModelFile) -> tuple[float, int]:
    t_final = args.T if args.T is not None else model.study.t_max
    grid = args.grid if args.grid is not None else model.study.grid_points
    if not (math.isfinite(t_final) and t_final > 0) or grid < 2:
        raise ModelParseError("need finite T > 0 and --grid >= 2")
    return t_final, grid


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite float > 0."""
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"need finite tol > 0, got {text!r}")
    return tol


@_model_command
def cmd_semigroup(args, model: ModelFile):
    amp = _amplitudes(args, model)
    t_final, grid = _time_grid(args, model)
    if args.k is not None and len(args.k) != 1:
        raise ModelParseError("semigroup takes a single --k value")
    if args.k is not None:
        (label,) = _k_values(args.k)
        _require_scaled_hp(model.family, args.tol)
        coeffs = assemble(model.family, label)
    else:
        coeffs = eliminate(model.family, model.sub, tol=args.tol).limit
        label = 0.0
    gen = generator(coeffs, amp)
    # The adjoint propagator has the same spectral norm as the propagator.
    switch = {}
    values = list(_propagator_norms(_grid_step(gen, t_final, grid), grid, switch))
    worst = max(values)
    if switch["tail_bound"] is None:
        log.info("semigroup table: ends on full propagators (%d grid times)", grid)
    else:
        log.info("semigroup table: thin block from grid time J=%d, tail bound "
                 "t_J=%.3e", switch["dense_steps"], switch["tail_bound"])
    contraction_ok = worst <= 1.0 + 1e-9
    lines = [f"model {model.name}: max semigroup norm {worst:.12g} over "
             f"{grid} times in [0, {t_final:g}]"
             + (f" at k={label:g}" if args.k is not None else " (limit model)"),
             f"contraction: {'PASS' if contraction_ok else 'FAIL'}"]
    report = {
        "k": label if args.k is not None else None,
        "diagnostics": switch,
        "t_max": t_final,
        "grid_points": grid,
        "values": values,
        "max_norm": worst,
        "verdict": contraction_ok,
    }
    rows = ((label, t, grid, norm)
            for t, norm in zip(np.linspace(0.0, t_final, grid), values))
    return contraction_ok, lines, report, ("contraction_norm", amp, rows)


@_model_command
def cmd_converge(args, model: ModelFile):
    amp = _amplitudes(args, model)
    t_final, grid = _time_grid(args, model)
    schedule = sorted(set(_k_values(
        args.k if args.k is not None else model.study.k_schedule,
        cutoffs=args.kind == "truncation",
    )))
    if args.kind != "truncation" and len(schedule) < 3:
        raise ModelParseError("--k needs >= 3 distinct values for a rate fit")
    if args.kind == "truncation":
        study = truncation_study(model.family, schedule, amp,
                                 t_final, grid, tol=args.tol)
    else:
        result = eliminate(model.family, model.sub, tol=args.tol)
        if args.kind == "generator":
            study = generator_study(result, amp, schedule)
        else:
            study = semigroup_study(result, amp, schedule, t_final, grid)
    lines = [f"model {model.name}: {study.kind} study",
             *(f"  k={k:<8g} value={val:.6e}"
               for k, val in zip(study.k_schedule, study.values)),
             f"fitted log-log rate: {study.fitted_rate:.4f}",
             f"verdict: {'PASS' if study.verdict else 'FAIL'}"]
    report = {
        "kind": study.kind,
        "diagnostics": {name: _json_float(x) for name, x in study.diagnostics},
        "k_schedule": list(study.k_schedule),
        "values": list(study.values),
        "fitted_rate": _json_float(study.fitted_rate),
        "t_max": study.t_max,
        "grid_points": study.grid_points,
        "verdict": study.verdict,
    }
    rows = ((k, study.t_max, study.grid_points, val)
            for k, val in zip(study.k_schedule, study.values))
    return study.verdict, lines, report, (study.kind, amp, rows)


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
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    if args.report:
        _write_output(args.report, text + "\n")
        print(f"wrote example {name} to {args.report}")
    else:
        print(text)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; `parse_args` returns a fresh namespace."""
    parser = _Parser(
        prog="qsdelim",
        description="Singular-perturbation limits of quantum stochastic models "
        "on truncated spaces.",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="log the package's INFO messages to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
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
              "write per-time norms to this CSV path (certified Ritz "
              "values within 1e-12 relative of LAPACK's sigma_max, not "
              "bit-equal; a time the certificate cannot decide takes the SVD; "
              "once a certified 4-column block Q carries the norm, later times "
              "report sigma_max(P Q) from d x 4 products, certified against "
              "the tail outside Q and Q's orthonormality)")
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
    # The handler lives for this call only: one process may call main often.
    package = logging.getLogger("qsdelim")
    handler, level = logging.StreamHandler(sys.stderr), package.level
    if args.verbose:
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        package.addHandler(handler)
        package.setLevel(logging.INFO)
    try:
        return args.func(args)
    except QsdelimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ModelParseError) else 1
    finally:
        package.removeHandler(handler)
        package.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
