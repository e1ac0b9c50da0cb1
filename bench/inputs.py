"""Build one workload's model files and job list from a seed.

Usage: python3 bench/inputs.py --workload NAME --seed N --out DIR

Runs in a fresh process so that its wall time, measured by the caller from
spawn to exit, is the workload's set-up time: interpreter start,
``import qsdelim`` and building and writing the model files through the
public API. Writes into DIR:

- one dense JSON model file per model (the only input the program sees);
- ``oracle.json``: closed-form expected limits, keyed by model file;
- ``manifest.json``: the job list of one pass.

Prints one JSON line ``{"import_s": ...}`` on standard output.

Every workload's cost is independent of the seed: the seed draws matrix
entries and coherent amplitudes, never model sizes or job counts, so
different seeds measure the same amount of work.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("semigroup-dk40", "eliminate-sweep", "truncation-osc120")

# Shapes (hprime, channels, cutoff) of the random structured models in
# eliminate-sweep; total dimension hprime * (cutoff + 1) spans 15..136.
SWEEP_SHAPES = (
    (3, 1, 4), (5, 2, 4), (4, 1, 6), (3, 2, 9), (4, 2, 12), (6, 1, 8),
    (8, 2, 8), (7, 1, 10), (5, 1, 16), (6, 2, 14), (7, 2, 15), (8, 2, 16),
)
GENERATOR_KS = ("2", "4", "8", "16", "32", "64")
SEMIGROUP_KS = ("2", "4", "8", "16")
TRUNCATION_CUTOFFS = ("8", "10", "12", "14", "16", "18", "20")
MAX_AMPLITUDE = 0.5


def _matrix(op) -> list:
    m = op.entries
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _limit_doc(limit) -> dict:
    """Numeric K, L, M, N of a coefficient set, in the report's layout."""
    return {
        "K": _matrix(limit.k_op),
        "L": [_matrix(op) for op in limit.l_ops],
        "M": [_matrix(op) for op in limit.m_ops],
        "N": [[_matrix(op) for op in row] for row in limit.n_ops],
    }


def _amplitude(rng) -> str:
    """A complex amplitude with modulus <= MAX_AMPLITUDE, as CLI text."""
    r = MAX_AMPLITUDE * math.sqrt(rng.uniform())
    z = cmath.rect(r, 2.0 * math.pi * rng.uniform())
    return "%.17g%+.17gj" % (z.real, z.imag)


def _amplitudes(rng) -> list[str]:
    # "--flag=value" form: a value starting with "-" is not an option.
    return [f"--alpha={_amplitude(rng)}", f"--beta={_amplitude(rng)}"]


def _job(cmd, model, args=(), csv=False, report=False, valid=True,
         limit=None) -> dict:
    return {
        "cmd": cmd, "model": model, "args": list(args), "csv": csv,
        "report": report, "valid": valid, "limit": limit,
    }


def _write_model(out: str, fname: str, doc: dict) -> str:
    # json.dumps takes the C encoder; json.dump streams through the Python one.
    with open(os.path.join(out, fname), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    return fname


def build(qsdelim, workload: str, seed: int, out: str):
    """Write the model files; return (jobs, oracle)."""
    import numpy as np  # here, so that the timed ``import qsdelim`` loads it

    rng = np.random.default_rng(seed)
    jobs, oracle = [], {}

    def dk40():
        fix = qsdelim.duan_kimble_fixture(
            gamma=1.0, g=2.0, drive_alpha=0.3 + 0.4j, cutoff=40
        )
        fname = _write_model(out, "dk40.json", qsdelim.fixture_to_model_dict(fix))
        oracle[fname] = _limit_doc(fix.expected_limit)
        return fname

    if workload == "semigroup-dk40":
        model = dk40()
        jobs.append(_job("converge", model, [
            "--kind", "semigroup", "--k", *SEMIGROUP_KS, "--T", "2",
            "--grid", "64", *_amplitudes(rng),
        ], csv=True))
        jobs.append(_job("semigroup", model, [
            "--k", "16", "--T", "2", "--grid", "64", *_amplitudes(rng),
        ], csv=True))
    elif workload == "eliminate-sweep":
        models = []
        for i, (hprime, n, cutoff) in enumerate(SWEEP_SHAPES):
            fix = qsdelim.random_structured_fixture(
                rng, hprime_dim=hprime, n=n, cutoff=cutoff
            )
            fname = _write_model(
                out, f"random{i:02d}.json", qsdelim.fixture_to_model_dict(fix)
            )
            oracle[fname] = _limit_doc(fix.expected_limit)
            models.append((fname, True))
        models.append((dk40(), True))
        # The bundled counterexample is not public API; the CLI emits it.
        from qsdelim import cli
        path = os.path.join(out, "broken.json")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["example", "broken-structural", "--report", path])
        if rc != 0:
            raise RuntimeError(f"cannot emit broken-structural model (exit {rc})")
        models.append(("broken.json", False))
        for fname, ok in models:
            jobs.append(_job("validate", fname, valid=ok))
            jobs.append(_job("eliminate", fname, report=True, valid=ok,
                             limit=fname if ok else None))
            jobs.append(_job("converge", fname, [
                "--kind", "generator", "--k", *GENERATOR_KS,
            ], csv=True, valid=ok))
    elif workload == "truncation-osc120":
        for fname, limit in (
            ("osc120.json", qsdelim.driven_oscillator_limit(120)),
            ("osc120-window9.json",
             qsdelim.windowed_oscillator_limit(120, window=9)),
        ):
            fam, sub = qsdelim.trivial_family_from_limit(limit)
            fix = qsdelim.Fixture(name=fname[:-5], family=fam, sub=sub)
            _write_model(out, fname, qsdelim.fixture_to_model_dict(fix))
            jobs.append(_job("converge", fname, [
                "--kind", "truncation", "--k", *TRUNCATION_CUTOFFS, "--T", "2",
                "--grid", "32", *_amplitudes(rng),
            ], csv=True))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs, oracle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import qsdelim
    import_s = time.perf_counter() - t0
    if not os.path.abspath(qsdelim.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported qsdelim from {qsdelim.__file__}, not {SRC}")

    os.makedirs(args.out, exist_ok=True)
    jobs, oracle = build(qsdelim, args.workload, args.seed, args.out)
    with open(os.path.join(args.out, "oracle.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(oracle))
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "jobs": jobs}, fh)
    print(json.dumps({"import_s": import_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
