#!/usr/bin/env python3
"""qsdelim benchmark: CLI jobs on seeded model files, one closed-loop client.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run
1. sets up the workload SETUP_REPEATS times, each in a fresh process
   (``bench/inputs.py``), and reports the median as ``setup_s``;
2. imports ``qsdelim`` from ``src/`` of this checkout and drives the
   documented CLI in process (``qsdelim.cli.main(argv)``), one job at a
   time, in whole passes over the workload's job list until S seconds have
   passed;
3. checks every job's outputs with the oracle (``bench/oracle.py``).

Reported times are wall times rescaled by a host reference timed next to
each job (see ``HostReference``); the raw wall figures are printed beside
them and kept in the result file.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports per-layer metrics
from the traced ones (per pass), plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Results, the
recorded environment and (when tracing) the spans are written under
``.bench-work/`` in the checkout.

``--record`` writes ``bench/expected/<workload>.json`` from one pass of the
default seed, instead of checking against it.

BLAS, OpenMP and MKL are pinned to one thread before numpy is imported:
with two OpenBLAS threads the same dim-63 semigroup gap took 0.8-2.1 s
instead of 0.11-0.13 s on a 2-core host, too unsteady to measure.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench-work")
DEFAULT_SEED = 0
SETUP_REPEATS = 3
MIN_PASSES = 4  # per-job medians over at least four samples
WALL, NOMINAL = 2, 3  # fields of a job result (rc, output, wall s, nominal s)
SETUP_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="qsdelim CLI benchmark")
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="record study values of the default seed")
    return p.parse_args(argv)


def setup(workload: str, seed: int, out: str, ref: "HostReference"):
    """Build inputs in fresh processes.

    Returns the rescaled and the wall seconds and the import seconds of
    each repeat. The child inherits the run's CPU pinning, so the reference
    timed just before and after it applies to it.
    """
    nominal, walls, imports = [], [], []
    cmd = [sys.executable, os.path.join(BENCH, "inputs.py"),
           "--workload", workload, "--seed", str(seed), "--out", out]
    for _ in range(SETUP_REPEATS):
        before = ref.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed (exit {proc.returncode}):\n"
                               f"{proc.stderr}")
        nominal.append(wall * ref.scale(before, ref.sample()))
        walls.append(wall)
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return nominal, walls, imports


def import_cli():
    sys.path.insert(0, SRC)
    from qsdelim import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported qsdelim from {cli.__file__}, not {SRC}")
    return cli


class Workload:
    """One workload's job list with per-job output paths."""

    def __init__(self, inputs_dir: str, out_dir: str):
        with open(os.path.join(inputs_dir, "manifest.json"), encoding="utf-8") as fh:
            self.jobs = json.load(fh)["jobs"]
        with open(os.path.join(inputs_dir, "oracle.json"), encoding="utf-8") as fh:
            self.limits = json.load(fh)
        self.argv, self.csv, self.report = [], [], []
        for i, job in enumerate(self.jobs):
            csv_path = os.path.join(out_dir, f"job{i:02d}.csv") if job["csv"] else None
            rep_path = os.path.join(out_dir, f"job{i:02d}.json") if job["report"] else None
            argv = [job["cmd"], os.path.join(inputs_dir, job["model"]), *job["args"]]
            if csv_path:
                argv += ["--csv", csv_path]
            if rep_path:
                argv += ["--report", rep_path]
            self.argv.append(argv)
            self.csv.append(csv_path)
            self.report.append(rep_path)

    def clear_outputs(self):
        for path in self.csv + self.report:
            if path and os.path.exists(path):
                os.remove(path)


class HostReference:
    """Fixed reference work, timed between jobs and around each set-up.

    On a shared 2-core host the same code ran up to 1.5x slower for tens of
    seconds at a time, and the quartile spread of raw wall-time figures over
    runs was 16-24% of their median. The reference slows down with the
    jobs: rescaled by it, the spread over ten runs was 2-9%. Reported times
    are wall times rescaled to a host on which one sample takes NOMINAL_S.
    The reference uses no program code, so no change to the program moves
    it.
    """

    NOMINAL_S = 0.004

    def __init__(self):
        rng = np.random.default_rng(20070712)
        self.matrix = 0.05 * (rng.standard_normal((90, 90))
                              + 1j * rng.standard_normal((90, 90)))
        self.expm = scipy.linalg.expm  # bound before any tracer rebinds it

    def _once(self) -> float:
        t0 = time.perf_counter()
        self.expm(self.matrix)
        self.matrix @ self.matrix
        sum(i * i for i in range(12000))
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Median of three runs, with the cyclic collector off: its cost
        depends on what the program left on the heap."""
        gc.disable()
        try:
            return statistics.median(self._once() for _ in range(3))
        finally:
            gc.enable()

    def scale(self, before: float, after: float) -> float:
        """Factor taking a wall time measured between two samples to nominal."""
        return 2.0 * self.NOMINAL_S / (before + after)


def run_pass(cli, wl: Workload, ref: HostReference, tracer=None, first_job_id=0):
    """Run every job once; return [(rc, output, wall s, nominal s)]."""
    wl.clear_outputs()
    raw = []
    before = ref.sample()
    for i, argv in enumerate(wl.argv):
        buf = io.StringIO()
        if tracer is not None:
            tracer.begin_job(first_job_id + i)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli.main(argv)
        except (Exception, SystemExit):
            rc = None
            buf.write(traceback.format_exc())
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_job()
        after = ref.sample()
        raw.append((rc, buf.getvalue(), dt, dt * ref.scale(before, after)))
        before = after
    return raw


def check_pass(wl: Workload, results, recorded) -> list[str]:
    problems = []
    for i, (job, (rc, out, *_)) in enumerate(zip(wl.jobs, results)):
        want = recorded[i]["values"] if recorded is not None else None
        problem = oracle.check_job(job, rc, out, wl.csv[i], wl.report[i],
                                   wl.limits, want)
        if problem:
            problems.append(f"job {i} ({oracle.job_key(job)[:60]}...): {problem}")
    return problems


def expected_path(workload: str) -> str:
    return os.path.join(BENCH, "expected", f"{workload}.json")


def load_recorded(workload: str, wl: Workload):
    """Recorded per-job study values for the default seed."""
    with open(expected_path(workload), encoding="utf-8") as fh:
        doc = json.load(fh)
    jobs = doc["jobs"]
    keys = [oracle.job_key(j) for j in wl.jobs]
    if [j["key"] for j in jobs] != keys:
        raise RuntimeError("recorded jobs do not match this workload's job list")
    return jobs


def record(workload: str, wl: Workload, results):
    jobs = [
        {"key": oracle.job_key(job),
         "values": (oracle.read_csv_values(wl.csv[i])
                    if job["csv"] and job["valid"] else None)}
        for i, job in enumerate(wl.jobs)
    ]
    os.makedirs(os.path.dirname(expected_path(workload)), exist_ok=True)
    with open(expected_path(workload), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": DEFAULT_SEED, "jobs": jobs}, fh,
                  indent=1)
        fh.write("\n")


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qsdelim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
    }


def upper_percentile(samples):
    """Highest of p99/p95/p90 with at least ten samples beyond it."""
    n = len(samples)
    for q in (99, 95, 90):
        if n * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(samples, n=100)[q - 1]
    return None


def per_job_medians(passes, field: int) -> list[float]:
    """Each job's median over passes of one timing field."""
    return [statistics.median(p[i][field] for p in passes)
            for i in range(len(passes[0]))]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qsdelim", "__init__.py")):
        print(f"error: no qsdelim sources under {SRC}", file=sys.stderr)
        return 2
    if args.record and args.seed != DEFAULT_SEED:
        print("error: --record needs the default seed", file=sys.stderr)
        return 2
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    inputs_dir, out_dir = os.path.join(work, "inputs"), os.path.join(work, "out")
    os.makedirs(out_dir)

    # One CPU for the run and its children: the reference then measures
    # the core that the job or set-up it brackets ran on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ref = HostReference()
    setup_nominal, setup_walls, import_times = setup(
        args.workload, args.seed, inputs_dir, ref)
    wl = Workload(inputs_dir, out_dir)
    recorded = None
    if args.seed == DEFAULT_SEED and not args.record:
        recorded = load_recorded(args.workload, wl)
    cli = import_cli()
    env = environment(args.seed)

    if args.record:
        results = run_pass(cli, wl, ref)
        problems = check_pass(wl, results, None)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        record(args.workload, wl, results)
        print(f"recorded {expected_path(args.workload)}")
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, span_names
        tracer = Tracer()

    # Whole passes only, so every run times the same job mix. With tracing,
    # untraced and traced passes alternate.
    passes = {False: [], True: []}  # traced? -> [[(rc, out, wall, nominal)]]
    problems, attempted = [], 0
    t_loop = time.perf_counter()
    traced = False
    while True:
        if traced:
            tracer.install()
        try:
            results = run_pass(cli, wl, ref, tracer if traced else None,
                               first_job_id=attempted)
        finally:
            if traced:
                tracer.uninstall()
        attempted += len(results)
        problems += check_pass(wl, results, recorded)
        passes[traced].append(results)
        if tracer is not None:
            traced = not traced
        if time.perf_counter() - t_loop >= args.seconds and (
            passes[True] if tracer is not None else len(passes[False]) >= MIN_PASSES
        ):
            break

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n_jobs = len(wl.jobs)
    untraced = passes[False]
    # Each job's median over the passes; a pooled median of a two-job pass
    # would sit between the two job kinds and follow their extreme samples.
    job_nominal = per_job_medians(untraced, NOMINAL)
    job_wall = per_job_medians(untraced, WALL)
    jobs_per_s = n_jobs / sum(job_nominal)
    p50 = statistics.median(job_nominal)
    setup_s = statistics.median(setup_nominal)
    failed = len(problems)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for p in problems[:20]:
        print("FAILED " + p)
    print(f"jobs_per_s {jobs_per_s:.6g} 1/s  ({n_jobs} jobs x {len(untraced)} "
          f"passes; wall {n_jobs / sum(job_wall):.6g})")
    print(f"job_p50_s {p50:.6g} s  (n={n_jobs * len(untraced)}; "
          f"wall {statistics.median(job_wall):.6g})")
    tail = upper_percentile([r[NOMINAL] for p in untraced for r in p])
    if tail:
        print(f"job_p{tail[0]}_s {tail[1]:.6g} s  (n={n_jobs * len(untraced)})")
    print(f"setup_s {setup_s:.6g} s  (median of {len(setup_walls)}; "
          f"wall {statistics.median(setup_walls):.6g})")
    print(f"peak_rss_mb {rss_mb:.6g} MB")
    print(f"failed_frac {failed / attempted:.6g} ratio  ({failed}/{attempted} jobs)")

    if tracer is None:
        metrics = {
            "jobs_per_s": metric(jobs_per_s, "1/s"),
            "job_p50_s": metric(p50, "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, span_names(), len(passes[True]))
        metrics["setup.import_s"] = metric(statistics.median(import_times), "s")
        metrics["trace.overhead_frac"] = metric(
            sum(per_job_medians(passes[True], NOMINAL)) / sum(job_nominal) - 1.0,
            "ratio")
        if tracer.missing:
            print("missing traced names: " + ", ".join(tracer.missing))
        tracer.write_spans(os.path.join(work, "spans.json"))
        print(f"traced passes {len(passes[True])}, untraced passes {len(untraced)}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({
            **result, "env": env, "problems": problems,
            "setup_s": {"wall": setup_walls, "nominal": setup_nominal},
            "passes": {
                kind: [[(r[WALL], r[NOMINAL]) for r in p] for p in passes[flag]]
                for kind, flag in (("untraced", False), ("traced", True))
            },
        }, fh)
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, names, n_traced: int) -> dict:
    """Per-traced-pass figures; a name that no longer resolves is null."""
    metrics = {}
    for name in names:
        gone = name in tracer.missing
        calls = tracer.calls.get(name, 0) / n_traced
        metrics[f"{name}.calls"] = metric(
            None if gone else (int(calls) if calls.is_integer() else calls), "count")
        metrics[f"{name}.self_s"] = metric(
            None if gone else tracer.self_s.get(name, 0.0) / n_traced, "s")
    metrics["kernel.expm.n3"] = metric(
        None if "kernel.expm" in tracer.missing else tracer.expm_n3 // n_traced,
        "count")
    for name in ("kernel.expm", "operator_core.restricted_inverse",
                 "operator_core.subspace_basis"):
        metrics[f"{name}.unique_frac"] = metric(tracer.unique_frac(name), "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
