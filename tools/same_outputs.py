#!/usr/bin/env python3
"""Check that two source trees of qsdelim give byte-identical CLI outputs.

Usage (from the repository root):

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are ``src`` directories, such as the ``src`` of
a checkout of the parent commit and this tree's ``src``.  The inputs of
every benchmark workload are built once per seed (0 and 3) with
``bench/inputs.py`` of this checkout, and every job of their
``manifest.json`` runs on both trees, followed by the fixed list: the
example commands ``EXAMPLES`` of ``tools/ci_models.py`` of this checkout,
on the bundled fixtures and on the models that script writes once.

Each command is a fresh ``python -m qsdelim.cli`` process with
``PYTHONPATH`` set to the tree and one BLAS, OpenMP and MKL thread, since
the thread count changes bits.  Both trees read the same input paths and
write the same relative output names, each in its own directory.  The
exit code, stdout, stderr and the bytes of every ``--csv`` and
``--report`` file are compared.  For each workload and seed it prints
"N commands identical", or the first difference and the largest relative
difference between numbers at matching positions.  Exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INPUTS = os.path.join(ROOT, "bench", "inputs.py")
CI_MODELS = os.path.join(ROOT, "tools", "ci_models.py")
SEEDS = (0, 3)
THREADS = {var: "1" for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|[-+]?\b(?:nan|inf|NaN|Infinity)\b")


def max_rel_diff(a: str, b: str) -> float:
    """Largest |x - y| / max(|x|, |y|) over the numbers x of `a` and y of
    `b` at matching positions: 0.0 for equal values (NaN equals NaN), inf
    where only one is finite."""
    worst = 0.0
    for x, y in zip(*(map(float, NUMBER.findall(s)) for s in (a, b))):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            return math.inf
        worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def _outputs(src: str, cwd: str, argv) -> list:
    """(name, text) of each output of one CLI run in `cwd`."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **THREADS)
    proc = subprocess.run([sys.executable, "-m", "qsdelim.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, timeout=600)
    outputs = [("exit code", str(proc.returncode)), ("stdout", proc.stdout),
               ("stderr", proc.stderr)]
    for flag, name in zip(argv, argv[1:]):
        if flag in ("--csv", "--report"):
            try:
                with open(os.path.join(cwd, name), "rb") as fh:
                    outputs.append((name, fh.read()))
            except FileNotFoundError:
                outputs.append((name, "(not written)"))
    return [(name, text.decode("utf-8", "replace") if isinstance(text, bytes)
             else text) for name, text in outputs]


def _first_line_difference(a: str, b: str) -> str:
    lines = zip(a.splitlines(True) + [""], b.splitlines(True) + [""])
    i, (x, y) = next((i, p) for i, p in enumerate(lines, 1) if p[0] != p[1])
    return f"line {i}: {x!r} != {y!r}"


def compare(parent_src: str, change_src: str, commands):
    """Run each command (CLI arguments, outputs named relative to a fresh
    directory per tree) on both trees in order.  Returns the number of
    commands with identical outputs, a description of the first
    difference (None when there is none) and the largest relative
    difference between numbers at matching positions."""
    same, first, worst = 0, None, 0.0
    with tempfile.TemporaryDirectory() as work:
        dirs = [os.path.join(work, tree) for tree in ("parent", "change")]
        for path in dirs:
            os.mkdir(path)
        for argv in commands:
            old, new = (_outputs(src, cwd, argv)
                        for src, cwd in zip((parent_src, change_src), dirs))
            differ = [(name, a, b) for (name, a), (_, b) in zip(old, new) if a != b]
            if not differ:
                same += 1
                continue
            worst = max([worst, *(max_rel_diff(a, b) for _, a, b in differ)])
            if first is None:
                name, a, b = differ[0]
                first = f"{' '.join(argv)}: {name} {_first_line_difference(a, b)}"
    return same, first, worst


def _manifest_commands(inputs_dir: str) -> list:
    """The CLI arguments of each manifest job, as bench/run.py builds them."""
    with open(os.path.join(inputs_dir, "manifest.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)["jobs"]
    commands = []
    for i, job in enumerate(jobs):
        argv = [job["cmd"], os.path.join(inputs_dir, job["model"]), *job["args"]]
        if job["csv"]:
            argv += ["--csv", f"job{i:02d}.csv"]
        if job["report"]:
            argv += ["--report", f"job{i:02d}.json"]
        commands.append(argv)
    return commands


def _load(path: str):
    """The module of the script at `path`."""
    spec = importlib.util.spec_from_file_location(
        os.path.splitext(os.path.basename(path))[0], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    args = parser.parse_args(argv)
    inputs, ci_models = map(_load, (INPUTS, CI_MODELS))

    differ = False
    with tempfile.TemporaryDirectory() as work:
        suites = []
        for workload in inputs.WORKLOADS:
            for seed in SEEDS:
                out = os.path.join(work, f"{workload}-{seed}")
                subprocess.run([sys.executable, INPUTS, "--workload", workload,
                                "--seed", str(seed), "--out", out],
                               env=dict(os.environ, **THREADS), check=True,
                               stdout=subprocess.DEVNULL)
                suites.append((f"{workload} seed {seed}", _manifest_commands(out)))
        models = os.path.join(work, "models")
        subprocess.run([sys.executable, CI_MODELS, models],
                       env=dict(os.environ, **THREADS), check=True)
        suites.append(("fixed list",
                       [argv for argv, _, _ in ci_models.examples(models)]))
        for name, commands in suites:
            same, first, worst = compare(args.parent_src, args.change_src, commands)
            if first is None:
                print(f"{name}: {same} commands identical", flush=True)
            else:
                differ = True
                print(f"{name}: {len(commands) - same} of {len(commands)} commands "
                      f"differ; first: {first}; largest relative difference "
                      f"between numbers: {worst:.3g}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
