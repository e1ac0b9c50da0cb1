"""Span tracer that wraps the program's layers from outside.

``Tracer.install()`` rebinds every traced function at each ``qsdelim.*``
module binding that holds it (modules import by name, so
``semigroup.matrix_exponential`` and ``operator_core.matrix_exponential``
are separate bindings of one function), and rebinds the numpy/scipy dense
kernels the program looks up by attribute. ``uninstall()`` restores the
originals. Spans are kept in memory and written out by ``write_spans``.

A traced name that no longer resolves is reported as missing, never as a
zero count.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time

import numpy as np

# layer -> public functions whose spans are recorded.
LAYERS = {
    "cli": ("main",),
    "modelfile": ("load_model",),
    "qsde_model": (
        "assemble", "scaled_hp_validate", "structural_validate", "hp_validate",
    ),
    "elimination": ("eliminate",),
    "operator_core": (
        "subspace_basis", "restricted_inverse", "matrix_exponential",
        "spectral_norm",
    ),
    "semigroup": ("generator", "evolve"),
    "convergence": (
        "kurtz_corrector", "generator_residual", "semigroup_gap",
        "generator_study", "semigroup_study", "truncation_study",
    ),
}
# kernel name -> (module, attribute) of the dense call the program makes.
KERNELS = {
    "expm": ("scipy.linalg", "expm"),
    "norm": ("numpy.linalg", "norm"),
    "svd": ("numpy.linalg", "svd"),
    "solve": ("numpy.linalg", "solve"),
}
# Spans whose distinct inputs are counted, to measure recomputed work.
FINGERPRINTED = (
    "kernel.expm",
    "operator_core.restricted_inverse",
    "operator_core.subspace_basis",
)


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
    return names + [f"kernel.{k}" for k in KERNELS]


def _fingerprint(args, kwargs) -> bytes:
    """Digest of a call's inputs: array contents plus other values' repr."""
    h = hashlib.blake2b(digest_size=16)

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(repr((x.shape, x.dtype.str)).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif hasattr(x, "entries"):  # qsdelim Operator
            feed(x.entries)
        elif hasattr(x, "p0"):  # qsdelim SubspacePair
            feed(x.p0)
        else:
            h.update(repr(x).encode())

    for a in args:
        feed(a)
    for k in sorted(kwargs):
        h.update(k.encode())
        feed(kwargs[k])
    return h.digest()


class Tracer:
    """Records spans (name, start, end, parent, job) while a job is active."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.distinct: dict[str, int] = {}
        self.expm_n3 = 0
        self.missing: list[str] = []
        self._job = None
        self._seen: dict[str, set] = {}
        self._stack: list[list] = []  # [span index, child seconds]
        self._bindings: list[tuple] = []  # (module, attr, original)

    # -- installation -------------------------------------------------
    def install(self):
        self.missing = []
        qs_modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "qsdelim" or name.startswith("qsdelim."))
        ]
        targets = []
        for layer, fns in LAYERS.items():
            mod = sys.modules.get(f"qsdelim.{layer}")
            for fn in fns:
                targets.append((f"{layer}.{fn}", getattr(mod, fn, None)))
        for kname, (modname, attr) in KERNELS.items():
            mod = importlib.import_module(modname)
            original = getattr(mod, attr, None)
            targets.append((f"kernel.{kname}", original))
            if original is not None:
                self._rebind(mod, attr, original, f"kernel.{kname}")
        for name, original in targets:
            if not callable(original):
                self.missing.append(name)
                continue
            for mod in qs_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, original, name)

    def _rebind(self, mod, attr, original, name):
        self._bindings.append((mod, attr, original))
        setattr(mod, attr, self._wrap(name, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    # -- recording ----------------------------------------------------
    def begin_job(self, job_id):
        self._job = job_id
        self._seen = {name: set() for name in FINGERPRINTED}

    def end_job(self):
        for name, seen in self._seen.items():
            self.distinct[name] = self.distinct.get(name, 0) + len(seen)
        self._job = None
        self._seen = {}

    def _wrap(self, name, fn):
        tracer = self
        fingerprinted = name in FINGERPRINTED
        is_expm = name == "kernel.expm"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._job is None:
                return fn(*args, **kwargs)
            if fingerprinted:
                tracer._seen[name].add(_fingerprint(args, kwargs))
            if is_expm:
                tracer.expm_n3 += int(np.shape(args[0])[0]) ** 3
            parent = tracer._stack[-1][0] if tracer._stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - start
                tracer.spans[index] = (name, start, end, parent, tracer._job)
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + dur - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dur

        return traced

    def unique_frac(self, name) -> float | None:
        """Distinct inputs per call; 1 when never called (nothing recomputed)."""
        if name in self.missing:
            return None
        calls = self.calls.get(name, 0)
        return self.distinct.get(name, 0) / calls if calls else 1.0

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "job"],
                "spans": self.spans,
            }, fh)
