"""Model-file ingestion and serialization.

A model file is a JSON document with sections: `space` (tensor factor
dimensions), `channels`, `operators` (the scaling roles Y/A/B/F/G/W, each
given as a dense complex matrix in row-major nested [re, im] form, as a
sparse node, or as an expression tree over oscillator/matrix-unit
primitives), `p0` (the slow projection, as a matrix or a basis-index list),
and an optional `study` section with schedule and grid parameters.

A sparse node `{"op": "sparse", "dim": d, "row": [...], "col": [...],
"re": [...], "im": [...]}` is the d x d matrix whose entry (row[i], col[i])
is complex(re[i], im[i]) and whose other entries are +0.0.  Like every
node it may stand wherever a matrix may, `p0` and the arguments of
`kron`/`add`/`scale` included.

Parsing is total: any inconsistency, any array numpy cannot allocate and
any nesting too deep to decode or evaluate raise ModelParseError, never a
half-built model.  A node whose `dim`, or a `kron` whose factor
dimensions multiplied, exceed the model's total dimension is rejected
before its array is allocated.
Integer fields (factor dimensions, channel count, grid points, basis
indices, expression `dim`/`row`/`col`, sparse `row`/`col`) take JSON
integers or integral floats such as 4.0; booleans and fractional values
are rejected, never truncated, as is a float beyond 2**53 in magnitude,
where float64 no longer holds every integer.  Real
fields (study `T`, `k_schedule`, the [re, im] amplitude and scale-factor
pairs, funcalc `theta`/`gamma`, and every matrix value, dense or sparse)
take JSON numbers only; booleans, strings and null are rejected, never
read as 1.0.
"""

from __future__ import annotations

import gc
import io
import json
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .errors import ModelParseError
from .models import Fixture, damped_funcalc, fock_toolbox
from .operator_core import HilbertSpace, Operator, SubspacePair, _at_most, _Norms
from .qsde_model import ScaledFamily

_SEQUENCE = (list, tuple)
# The types the JSON decoders give a number.  A type test, not isinstance, since
# bool is a subclass of int.
_NUMBER_TYPES = frozenset({int, float})


_EXACT_FLOAT_INTEGERS = 2.0**53


def _integer(value, what: str) -> int:
    """A JSON integer or integral float as int; anything else is an error.

    Past 2**53 a float need not be the integer written, so it is an error
    too; among such floats is each one orjson makes of an integer outside
    [-2**63, 2**64), which json.load keeps as an int.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or isinstance(value, float) and not value.is_integer()
    ):
        raise ModelParseError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, float) and abs(value) > _EXACT_FLOAT_INTEGERS:
        raise ModelParseError(f"{what} must be an integer, got the float {value!r} "
                              "beyond 2**53")
    return int(value)


def _integer_list(values, what: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise ModelParseError(f"{what} must be a list of integers")
    return tuple(_integer(v, what) for v in values)


def _real(value, what: str) -> float:
    """A JSON number as float; booleans, strings and the like are errors."""
    if type(value) not in _NUMBER_TYPES:
        raise ModelParseError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond float64
        raise ModelParseError(f"{what} out of range: {value!r}") from exc


def _reals(values, what: str) -> np.ndarray:
    """A list of JSON numbers as one float64 array, by the rule of `_real`.

    The types are checked once for the whole list; `np.fromiter` then
    converts each value with the bits `float` gives.
    """
    if not isinstance(values, list):
        raise ModelParseError(f"{what} must be a list of numbers")
    if not set(map(type, values)) <= _NUMBER_TYPES:
        raise ModelParseError(f"{what} must be JSON numbers")
    try:
        return np.fromiter(values, np.float64, len(values))
    except OverflowError as exc:  # an integer beyond float64
        raise ModelParseError(f"{what} out of range: {exc}") from exc


def _indices(values, d: int, what: str) -> np.ndarray:
    """A list of integer indices in [0, d), by the rule of `_integer`."""
    idx = _reals(values, what)
    # NaN fails every comparison; integers past 2**53 lie beyond any d.
    if not np.all((idx >= 0) & (idx < d) & (idx == np.floor(idx))):
        raise ModelParseError(f"{what} must be integers in [0, {d})")
    return idx.astype(np.intp)


def _complex_from_pair(pair, what: str) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ModelParseError(f"expected [re, im] pair, got {pair!r}")
    return complex(_real(pair[0], what), _real(pair[1], what))


def matrix_to_json(m: np.ndarray):
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def matrix_from_json(rows) -> np.ndarray:
    """Decode a row-major nested [re, im] matrix into a complex array.

    The structure is checked for the whole matrix first; the values then
    go through `_reals` into one float64 buffer viewed as complex128, so
    every entry has exactly the bits `complex(float(re), float(im))` gives.
    """
    if not isinstance(rows, list) or not rows:
        raise ModelParseError("matrix must be a nonempty nested list")
    lists = all(map(isinstance, rows, repeat(_SEQUENCE)))
    if not lists or len(set(map(len, rows))) != 1:
        raise ModelParseError("matrix rows must be lists of equal length")
    pairs = list(chain.from_iterable(rows))
    lists = all(map(isinstance, pairs, repeat(_SEQUENCE)))
    if not lists or not set(map(len, pairs)) <= {2}:
        raise ModelParseError("matrix entries must be [re, im] pairs")
    buf = _reals(list(chain.from_iterable(pairs)), "matrix entries")
    return buf.view(np.complex128).reshape(len(rows), len(rows[0]))


def _dim(node: dict, limit, what: str = "dim") -> int:
    """The node's `dim`, by the rule of `_integer`, if it is at most `limit`."""
    d = _integer(node["dim"], what)
    if d > limit:
        raise ModelParseError(f"{what} {d} exceeds the model dimension {limit}")
    return d


def _sparse_from_json(node: dict, limit) -> np.ndarray:
    """Decode a sparse node into a dense complex array.

    Each list is type-checked and converted once; the indices are checked
    on arrays, and the pairs are distinct if marking their flat indices in
    a d*d boolean array marks one per pair.  The real and imaginary parts
    are scattered into a +0.0 complex128 buffer, so every entry has the
    bits the dense form of the same values gives.  The result is that
    buffer itself, which owns its data, so an `Operator` freezes it uncopied.
    A node whose four lists are all empty decodes to a +0.0 buffer alone:
    its lists are not converted and no distinctness array is marked.
    A `dim` above `limit` (the model's total dimension) allocates nothing.
    """
    d = _dim(node, limit, "sparse dim")
    if d < 1:
        raise ModelParseError(f"sparse dim must be >= 1, got {d}")
    if all(node[key] == [] for key in ("row", "col", "re", "im")):
        return np.zeros((d, d), dtype=np.complex128)
    row = _indices(node["row"], d, "sparse row")
    col = _indices(node["col"], d, "sparse col")
    re = _reals(node["re"], "sparse re")
    im = _reals(node["im"], "sparse im")
    if not len(row) == len(col) == len(re) == len(im):
        raise ModelParseError("sparse row, col, re and im must have equal lengths")
    flat = row * d + col
    hit = np.zeros(d * d, dtype=bool)
    hit[flat] = True
    if np.count_nonzero(hit) != flat.size:
        raise ModelParseError("sparse (row, col) pairs must be distinct")
    buf = np.zeros((d, d), dtype=np.complex128)
    entries = buf.reshape(-1)  # a view: writing it fills buf
    entries.real[flat] = re
    entries.imag[flat] = im
    return buf


def operator_to_json(m: np.ndarray):
    """A square matrix as a sparse node when fewer than half of its entries
    have bits other than +0.0, as a dense matrix otherwise.

    Each kept entry goes in whole, so a -0.0 part survives.
    """
    m = np.ascontiguousarray(m, dtype=complex)
    kept = m.view(np.uint64).reshape(*m.shape, 2).any(axis=-1)
    if 2 * np.count_nonzero(kept) >= m.size:
        return matrix_to_json(m)
    row, col = np.nonzero(kept)
    return {
        "op": "sparse", "dim": len(m), "row": row.tolist(), "col": col.tolist(),
        "re": m.real[kept].tolist(), "im": m.imag[kept].tolist(),
    }


def _funcalc(name: str, params: dict, x: np.ndarray) -> np.ndarray:
    if not isinstance(params, dict):
        raise ModelParseError(f"funcalc params must be an object, got {params!r}")
    if not _at_most(_Norms([x - x.conj().T]), _Norms([x], 1.0), lambda s: 1e-10 * s):
        raise ModelParseError("funcalc operand must be Hermitian")
    theta = _real(params.get("theta", 1.0), "funcalc theta")
    gamma = _real(params.get("gamma", 1.0), "funcalc gamma")
    if name not in ("damped_cayley", "damped_resolvent"):
        raise ModelParseError(f"unknown funcalc function {name!r}")
    return damped_funcalc(x, theta, gamma, resolvent=name == "damped_resolvent")


def eval_expression(node, dim: int) -> np.ndarray:
    """Evaluate an operator expression tree to a dense complex matrix, for
    a model of total dimension `dim`: a node whose `dim`, or a `kron` whose
    factor dimensions multiplied, exceed it raise ModelParseError before
    the array is allocated."""
    if isinstance(node, list):
        return matrix_from_json(node)
    if not isinstance(node, dict) or "op" not in node:
        raise ModelParseError(f"operator must be a matrix or an expression: {node!r}")
    op = node["op"]
    try:
        if op == "sparse":
            return _sparse_from_json(node, dim)
        if op == "identity":
            return np.eye(_dim(node, dim), dtype=complex)
        if op == "annihilator":
            return fock_toolbox(_dim(node, dim) - 1).b.entries.copy()
        if op == "creator":
            return fock_toolbox(_dim(node, dim) - 1).b_dag.entries.copy()
        if op == "number":
            return fock_toolbox(_dim(node, dim) - 1).number.entries.copy()
        if op == "basis_matrix":
            d = _dim(node, dim)
            i, j = _integer(node["row"], "row"), _integer(node["col"], "col")
            if not (0 <= i < d and 0 <= j < d):
                raise ModelParseError(f"basis_matrix entry ({i}, {j}) outside dim {d}")
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = 1.0
            return m
        if op == "kron":
            args = node["args"]
            if len(args) < 2:
                raise ModelParseError("kron needs >= 2 arguments")
            out = eval_expression(args[0], dim)
            for arg in args[1:]:
                x = eval_expression(arg, dim)
                shape = (out.shape[0] * x.shape[0], out.shape[1] * x.shape[1])
                if max(shape) > dim:
                    raise ModelParseError(
                        f"kron shape {shape} exceeds the model dimension {dim}")
                out = np.kron(out, x)
            return out
        if op == "scale":
            factor = _complex_from_pair(node["factor"], "scale factor")
            return factor * eval_expression(node["arg"], dim)
        if op == "add":
            args = [eval_expression(a, dim) for a in node["args"]]
            shapes = {a.shape for a in args}
            if len(shapes) != 1:
                raise ModelParseError("add arguments must share a shape")
            return sum(args)
        if op == "adjoint":
            return eval_expression(node["arg"], dim).conj().T
        if op == "funcalc":
            return _funcalc(
                node["name"], node.get("params", {}), eval_expression(node["arg"], dim)
            )
    except ModelParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelParseError(f"bad {op!r} node: {exc}") from exc
    raise ModelParseError(f"unknown expression op {op!r}")


@dataclass(frozen=True)
class StudyParams:
    t_max: float = 2.0
    grid_points: int = 64
    k_schedule: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    alpha: tuple[complex, ...] | None = None
    beta: tuple[complex, ...] | None = None


@dataclass(frozen=True)
class ModelFile:
    name: str
    family: ScaledFamily
    sub: SubspacePair
    study: StudyParams = field(default_factory=StudyParams)


def _operator(space: HilbertSpace, node, role: str) -> Operator:
    m = eval_expression(node, space.total_dim)
    if m.shape != (space.total_dim, space.total_dim):
        raise ModelParseError(
            f"operator {role} has shape {m.shape}, expected square of "
            f"dimension {space.total_dim}"
        )
    try:
        return Operator(space, m)
    except ValueError as exc:  # non-finite entries: JSON admits NaN, Infinity
        raise ModelParseError(f"operator {role}: {exc}") from exc


def _family_and_pair(space: HilbertSpace, n: int, ops: dict, p0_node):
    """The scaled family and the subspace pair of a model with the given
    space and channel count n: every array of the model."""

    def get_list(role: str):
        block = ops.get(role)
        if not isinstance(block, list) or len(block) != n:
            raise ModelParseError(f"{role} must be a list of {n} operators")
        return tuple(_operator(space, x, f"{role}[{i}]") for i, x in enumerate(block))

    try:
        y = _operator(space, ops["Y"], "Y")
        a = _operator(space, ops["A"], "A")
        b = _operator(space, ops["B"], "B")
        f_ops = get_list("F")
        g_ops = get_list("G")
        w_block = ops["W"]
    except KeyError as exc:
        raise ModelParseError(f"operators section missing role {exc}") from exc
    if not isinstance(w_block, list) or len(w_block) != n or any(
        not isinstance(row, list) or len(row) != n for row in w_block
    ):
        raise ModelParseError(f"W must be an {n} x {n} grid of operators")
    w_ops = tuple(
        tuple(_operator(space, w_block[i][j], f"W[{i}][{j}]") for j in range(n))
        for i in range(n)
    )
    family = ScaledFamily(y, a, b, f_ops, g_ops, w_ops)
    if p0_node is None:
        raise ModelParseError("model must declare the slow projection p0")
    try:
        if isinstance(p0_node, dict) and "basis_indices" in p0_node:
            indices = _integer_list(p0_node["basis_indices"], "basis_indices")
            d = space.total_dim
            if any(not 0 <= i < d for i in indices):
                raise ModelParseError(f"basis_indices must lie in [0, {d})")
            if len(set(indices)) != len(indices):
                raise ModelParseError("basis_indices must be distinct")
            sub = SubspacePair.from_basis_indices(space, indices)
        else:
            sub = SubspacePair(_operator(space, p0_node, "p0"))
    except (ValueError, TypeError, IndexError) as exc:
        raise ModelParseError(f"bad p0 section: {exc}") from exc
    return family, sub


def parse_model(doc: dict) -> ModelFile:
    """Build a validated model from a parsed JSON document; a MemoryError
    while its arrays are built, or a RecursionError from an expression
    nested too deeply, becomes a ModelParseError, as does a `name` that is
    not a str for which `str.isprintable()` holds (no newline, control
    character or lone surrogate), which is echoed through `ascii()`."""
    if not isinstance(doc, dict):
        raise ModelParseError("model document must be a JSON object")
    try:
        space = HilbertSpace(
            _integer_list(doc["space"]["factor_dims"], "factor_dims")
        )
        n = _integer(doc["channels"], "channels")
        ops = doc["operators"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelParseError(f"missing or malformed section: {exc}") from exc
    if n < 1:
        raise ModelParseError("channels must be >= 1")
    if not isinstance(ops, dict) or not ops:
        raise ModelParseError("operators section must be a nonempty object")
    try:
        family, sub = _family_and_pair(space, n, ops, doc.get("p0"))
    except MemoryError as exc:
        raise ModelParseError(
            f"model dimension {space.total_dim} too large to allocate: {exc}"
        ) from exc
    except RecursionError as exc:
        raise ModelParseError(f"expression nested too deeply: {exc}") from exc

    study_doc = doc.get("study", {})
    if not isinstance(study_doc, dict):
        raise ModelParseError("study section must be an object")
    try:
        study = StudyParams(
            t_max=_real(study_doc.get("T", StudyParams.t_max), "study T"),
            grid_points=_integer(
                study_doc.get("grid_points", StudyParams.grid_points), "grid_points"
            ),
            k_schedule=tuple(
                _real(k, "k_schedule entry")
                for k in study_doc.get("k_schedule", StudyParams.k_schedule)
            ),
            alpha=(
                tuple(_complex_from_pair(z, "alpha") for z in study_doc["alpha"])
                if "alpha" in study_doc else None
            ),
            beta=(
                tuple(_complex_from_pair(z, "beta") for z in study_doc["beta"])
                if "beta" in study_doc else None
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ModelParseError(f"bad study section: {exc}") from exc
    for amps in (study.alpha, study.beta):
        if amps is not None and len(amps) != n:
            raise ModelParseError("study amplitudes must have one entry per channel")
    name = doc.get("name", "model")
    if not (isinstance(name, str) and name.isprintable()):  # no forged lines
        raise ModelParseError(f"model name must be a printable string, got {ascii(name)}")
    return ModelFile(name=name, family=family, sub=sub, study=study)


# orjson has no nesting limit and crashes the interpreter on deep input
# (objects 6e4 deep, arrays 1.4e5), so it is given only documents with at
# most this many opening brackets, which nest at most this deep.  A safety
# limit, not a tuning knob: half the interpreter's default recursion limit,
# so json.load would decode every document orjson is given, and the two
# agree on it.
_MAX_OPENINGS = 512
# Every byte but "[" and "{": deleting these leaves the opening brackets.
_NOT_OPENING = bytes(sorted(set(range(256)) - set(b"[{")))


_REFUSED = object()


def _orjson_decode(data: bytes):
    """The JSON document in `data` by orjson when it holds at most
    `_MAX_OPENINGS` opening brackets and orjson takes it, else `_REFUSED`."""
    if len(data.translate(None, _NOT_OPENING)) <= _MAX_OPENINGS:
        import orjson

        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:  # NaN, 1e400, a BOM, bad syntax ...
            pass
    return _REFUSED


def _json_decode(data: bytes):
    """The JSON document in `data` by json.load of the bytes read in text
    mode, as a file opened with "r" reads."""
    return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


def load_model(path: str) -> ModelFile:
    """Read and parse a model file with the cyclic garbage collector paused.

    The file is read as bytes.  orjson decodes it when it holds at most
    `_MAX_OPENINGS` opening brackets (the bound on nesting that keeps
    orjson from crashing on deep input; every sparse or expression model
    has a few dozen) and orjson takes it.  Every other document goes to a
    text-mode read and json.load, as before: a dense matrix (one bracket
    per entry), and any document orjson refuses (NaN or Infinity, a number
    beyond float64, a lone surrogate, a BOM, invalid UTF-8, bad syntax),
    so such a document keeps its message, line and column.

    Where both decoders take a document they give the same objects, save
    that orjson decodes an integer literal outside [-2**63, 2**64) to the
    float `float()` makes of it, where json.load keeps the int.  A real
    field reads the same float from either; an integer field rejects a
    float beyond 2**53; so a document orjson decodes is parsed as json.load
    would parse it, or rejected.  A rejected one is decoded again by
    json.load and parsed, so its model or its message, which may echo a
    value, is the one json.load gives.

    For a dense matrix the decoder builds one small acyclic list per
    [re, im] pair (about 1e5 for a dim-123 model), and at the default
    collector thresholds those allocations trigger repeated collections
    over the half-built document and everything else alive.  None of it
    can form a cycle, so the collector is switched off for the load and the
    caller's state restored.  A sparse node builds four flat lists instead,
    so the pause pays off for dense files; its decoded buffer is the array
    its `Operator` keeps, with no copy.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ModelParseError(f"cannot read model file {path}: {exc}") from exc
        doc = _orjson_decode(data)
        if doc is not _REFUSED:
            try:
                return parse_model(doc)
            except ModelParseError:
                pass
        try:
            doc = _json_decode(data)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ModelParseError(f"cannot read model file {path}: {exc}") from exc
        return parse_model(doc)
    finally:
        if was_enabled:
            gc.enable()


def fixture_to_model_dict(fix: Fixture, study: dict | None = None) -> dict:
    """Serialize a fixture as a model document.

    Each matrix goes in by `operator_to_json`: as a sparse node when fewer
    than half of its entries have bits other than +0.0, dense otherwise.
    """
    fam = fix.family
    doc = {
        "name": fix.name,
        "space": {"factor_dims": list(fam.space.factor_dims)},
        "channels": fam.n,
        "operators": {
            "Y": operator_to_json(fam.y.entries),
            "A": operator_to_json(fam.a.entries),
            "B": operator_to_json(fam.b.entries),
            "F": [operator_to_json(f.entries) for f in fam.f_ops],
            "G": [operator_to_json(g.entries) for g in fam.g_ops],
            "W": [
                [operator_to_json(op.entries) for op in row] for row in fam.w_ops
            ],
        },
        "p0": operator_to_json(fix.sub.p0.entries),
    }
    if study:
        doc["study"] = study
    return doc


def limit_to_json(result) -> dict:
    """Serialize elimination output (the limit quadruple, and the slow basis
    under "compression"), every matrix dense."""
    limit = result.limit
    return {
        "channels": limit.n,
        "space": {"factor_dims": list(limit.space.factor_dims)},
        "K": matrix_to_json(limit.k_op.entries),
        "L": [matrix_to_json(op.entries) for op in limit.l_ops],
        "M": [matrix_to_json(op.entries) for op in limit.m_ops],
        "N": [
            [matrix_to_json(op.entries) for op in row] for row in limit.n_ops
        ],
        "compression": matrix_to_json(result.sub.slow_basis),
    }
