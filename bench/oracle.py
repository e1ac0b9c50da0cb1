"""Output oracle: decides whether one CLI job's outputs are correct.

A job is correct only if

- its exit code and verdict match the model: exit 0 and a PASS line for a
  valid model; exit 1 for an invalid one, which must never print
  ``overall: PASS`` or ``verdict: PASS``;
- every ``eliminate --report`` limit (K, L, M, N) matches the fixture's
  closed-form expected limit, which holds for every seed;
- its study values (the ``value`` column of ``--csv``) match the values
  recorded in ``expected/<workload>.json`` for the default seed.

Only numeric fields of ``--report`` and ``--csv`` are read, so report
sections added later cannot break the oracle.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# ROADMAP tolerance for study values, and convergence.RESIDUAL_FLOOR.
REL_TOL = 1e-12
ABS_TOL = 1e-14
VERDICT_LINE = {
    "validate": "overall: PASS",
    "converge": "verdict: PASS",
    "semigroup": "contraction: PASS",
    "eliminate": None,
}
FORBIDDEN_ON_INVALID = ("overall: PASS", "verdict: PASS")


def job_key(job: dict) -> str:
    """Seed-stable identity of a job, used to match recorded values."""
    return " ".join([job["cmd"], job["model"], *job["args"]])


def read_csv_values(path: str) -> list[float]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [float(row["value"]) for row in csv.DictReader(fh)]


def _complex_array(nested) -> np.ndarray:
    a = np.asarray(nested, dtype=float)
    if a.shape[-1] != 2:
        raise ValueError(f"expected [re, im] pairs, got shape {a.shape}")
    return a[..., 0] + 1j * a[..., 1]


def limit_mismatch(report_path: str, expected: dict) -> str | None:
    """Compare the numeric K, L, M, N of an eliminate report to the oracle."""
    with open(report_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for role in ("K", "L", "M", "N"):
        got = _complex_array(doc[role])
        want = _complex_array(expected[role])
        if got.shape != want.shape:
            return f"limit {role} has shape {got.shape}, expected {want.shape}"
        err = float(np.max(np.abs(got - want))) if want.size else 0.0
        scale = max(1.0, float(np.max(np.abs(want))) if want.size else 0.0)
        if not err <= REL_TOL * scale:
            return f"limit {role} differs from closed form by {err:.3e}"
    return None


def values_mismatch(got: list[float], want: list[float]) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} study values, recorded {len(want)}"
    for i, (a, b) in enumerate(zip(got, want)):
        if not (math.isfinite(a) and abs(a - b) <= max(REL_TOL * abs(b), ABS_TOL)):
            return f"study value {i} is {a!r}, recorded {b!r}"
    return None


def check_job(job: dict, rc, stdout: str, csv_path: str | None,
              report_path: str | None, limits: dict,
              recorded: list[float] | None) -> str | None:
    """Return None if the job's outputs are correct, else the first problem."""
    lines = {line.strip() for line in stdout.splitlines()}
    if not job["valid"]:
        if rc != 1:
            return f"invalid model: exit {rc}, expected 1"
        bad = [s for s in FORBIDDEN_ON_INVALID if s in lines]
        return f"invalid model printed {bad[0]!r}" if bad else None
    if rc != 0:
        return f"exit {rc}, expected 0"
    verdict = VERDICT_LINE[job["cmd"]]
    if verdict is not None and verdict not in lines:
        return f"missing {verdict!r}"
    try:
        if job["limit"] is not None:
            problem = limit_mismatch(report_path, limits[job["limit"]])
            if problem:
                return problem
        if job["csv"]:
            values = read_csv_values(csv_path)
            if not values:
                return "no study values in CSV"
            if recorded is not None:
                return values_mismatch(values, recorded)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return None
