"""Dense complex operator algebra on truncated tensor-product spaces.

Everything is desk-scale (total dimensions up to a few hundred), so all
storage is dense complex128 and all factorizations are direct LAPACK
calls.  Values are immutable after construction and every operation is a
pure function.  numpy is the only library loaded with the package:
`matrix_exponential` imports scipy on the first exponential, which is
most of a command's start-up when it is taken.

Because an `Operator`'s entries are frozen read-only at construction, its
spectral norm and its `_norm_bound` are cached on the operator:
`spectral_norm` takes the norm of each operator at most once, however many
validators ask for it.  Each exact norm (`_norm2`) is the largest over the
array's independent blocks, in one LAPACK call; an array that is one block
keeps LAPACK's bits, and an all-zero one costs no SVD at all.  A
largest of several norms (a scale, a defect over blocks) is a `_Norms`:
its upper bound takes no SVD (a cached norm or sqrt(|X|_1 |X|_inf) per
item), and its exact value, taken on first read, skips every item whose
bound cannot exceed the largest norm taken so far, with the bits of
taking them all.  `_at_most` passes a defect whose upper bound is at
most the threshold on the scale's floor and otherwise compares the exact
values; the restricted inverse's gates, the projection checks of `SubspacePair` (but for a coordinate
projection, which needs none) and every validator check decide this way.

The per-time norms of a propagator grid (`_propagator_norms`) are taken
on the powers of its step, which the table forms itself: certified
Rayleigh-Ritz values, where one subspace step on a small block,
warm-started from the previous time's Ritz vectors, gives a lower bound
on sigma_max, and a two-by-two bound from the residual and the Frobenius
mass outside the block certifies it from above.  A certified value
agrees with LAPACK's sigma_max within 1e-12 relative but is not bit-equal
to it; a nearly certified block takes more steps, a block the
certificate cannot decide takes the SVD, and the t = 0 power I neither.
The table steps on in d x 4 products once such a block carries the norm,
taking their norms from one batched SVD per chunk of blocks formed ahead.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonFiniteEntries, SingularFastDynamics, StructuralViolation

DEFAULT_TOL = 1e-9
DEFAULT_COND_LIMIT = 1e12
RANK_TOL = 1e-8
_RITZ_BLOCK = 4  # columns of the warm-started block in `_propagator_norms`
_RITZ_NEAR = 1e-6  # a bound this close to theta earns `_propagator_norms` more steps


@dataclass(frozen=True)
class HilbertSpace:
    """Truncated tensor-product state space: an ordered list of factor dims."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims:
            raise ValueError("need at least one tensor factor")
        if any(d < 1 for d in dims):
            raise ValueError(f"factor dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.factor_dims)


def _freeze(m: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if not m.flags.owndata:  # a view: its base could still be written
        m = m.copy()
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class Operator:
    """A dense complex matrix tagged with the space it acts on."""

    space: HilbertSpace
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128)
        d = self.space.total_dim
        if m.shape != (d, d):
            raise ValueError(f"expected {(d, d)} matrix, got shape {m.shape}")
        m = _freeze(m)  # contiguous, so both parts are checked in one pass
        if not np.isfinite(m.view(np.float64)).all():
            raise NonFiniteEntries("operator entries must be finite")
        object.__setattr__(self, "entries", m)

    @classmethod
    def identity(cls, space: HilbertSpace) -> "Operator":
        return cls(space, np.eye(space.total_dim))

    @classmethod
    def zero(cls, space: HilbertSpace) -> "Operator":
        return cls(space, np.zeros((space.total_dim, space.total_dim)))

    def dag(self) -> "Operator":
        return Operator(self.space, self.entries.conj().T)

    def _check_space(self, other: "Operator"):
        if self.space != other.space:
            raise ValueError("operators live on different spaces")

    def __add__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.entries + other.entries)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.entries - other.entries)

    def __neg__(self) -> "Operator":
        return Operator(self.space, -self.entries)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.space, self.entries * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.entries @ other.entries)

    # Sound because the entries are frozen.
    @cached_property
    def _spectral_norm(self) -> float:
        return _norm2(self.entries)

    @cached_property
    def _bound(self) -> float:
        return _norm_bound(self.entries)


def _norm2(m: np.ndarray) -> float:
    """Largest singular value of an array: the largest over its independent
    blocks, the connected components of its nonzero pattern, where a nonzero
    entry joins its row and its column.  An array that is one block (always
    so when a row or column has no zero) or has a NaN or infinite entry takes
    `_whole_norm2`; any other takes one call on the zero-padded (blocks,
    p, q) stack of its blocks, which agrees to rounding.  An all-zero or
    empty array is 0.0 with no call."""
    nz = m != 0  # NaN is nonzero and -0.0 is not
    if not nz.any():
        return 0.0
    if nz.all() or nz.all(axis=0).any() or nz.all(axis=1).any():
        return _whole_norm2(m)
    rows, cols = np.divmod(np.flatnonzero(nz), m.shape[1])  # faster than np.nonzero
    # Each row's label becomes the least row of its block: least labels are
    # taken across columns, then pointer chains are halved.
    label, new = None, np.arange(m.shape[0])
    while not np.array_equal(new, label):
        label, col = new, np.full(m.shape[1], m.shape[0])  # kept by zero columns
        np.minimum.at(col, cols, label[rows])
        new = label.copy()
        np.minimum.at(new, rows, col[cols])
        new = new[new]
    live = np.flatnonzero(nz.any(axis=1))
    roots = live[label[live] == live]  # one row per block, in order
    values = m[rows, cols]
    if len(roots) == 1 or not np.isfinite(values).all():
        return _whole_norm2(m)
    block = np.searchsorted(roots, label)  # of each row that is not zero
    live_cols = np.flatnonzero(col < m.shape[0])
    at_row = _ranks(live, block[live], m.shape[0])
    at_col = _ranks(live_cols, block[col[live_cols]], m.shape[1])
    stack = np.zeros((len(roots), at_row.max() + 1, at_col.max() + 1), m.dtype)
    stack[block[rows], at_row[rows], at_col[cols]] = values
    return float(np.linalg.norm(stack, 2, axis=(1, 2)).max())


def _whole_norm2(m: np.ndarray) -> float:
    """`np.linalg.norm(m, 2)` and its bits, or NonFiniteEntries where
    LAPACK's SVD does not converge on an array with a NaN entry (one with
    an infinite entry and no NaN may give NaN instead)."""
    try:
        return float(np.linalg.norm(m, 2))
    except np.linalg.LinAlgError as exc:
        if np.isfinite(m).all():
            raise
        raise NonFiniteEntries("the spectral norm's SVD did not converge on a "
                               "NaN or infinite entry") from exc


def _ranks(index: np.ndarray, block: np.ndarray, size: int) -> np.ndarray:
    """Each index's position among the indices of its block, in an array of `size`."""
    order = np.argsort(block, kind="stable")
    ranks, ordered = np.zeros(size, dtype=np.intp), block[order]
    ranks[index[order]] = np.arange(len(order)) - np.searchsorted(ordered, ordered)
    return ranks


def _norm_bound(x) -> float:
    """A number never below the computed spectral norm of an Operator or
    array: the cached norm of an Operator that has one, else
    sqrt(|X|_1 |X|_inf) >= |X|_2 widened by 1e-8 relative, far beyond the
    rounding of the bound and of LAPACK's sigma_max (about n eps), which an
    Operator caches too."""
    if isinstance(x, Operator):
        if "_spectral_norm" in x.__dict__:
            return x._spectral_norm
        return x._bound
    a = np.abs(x)
    return (math.sqrt(a.sum(axis=0).max(initial=0.0))
            * math.sqrt(a.sum(axis=1).max(initial=0.0)) * (1.0 + 1e-8))


def _decisive(bound: float) -> bool:
    """Zero, or normal and finite: a bound whose rounding `_norm_bound`'s
    1e-8 margin covers."""
    return bound == 0.0 or sys.float_info.min <= bound < math.inf


class _Norms:
    """max(floor, spectral norm of each item) over Operators and arrays.

    `upper` bounds it without an SVD.  `value` is the exact max, taken on
    first read: items are visited by decreasing `_norm_bound`, and when
    every bound is decisive the visit stops at the first bound that is at
    most the running max, so an SVD is taken only where a norm could set
    the max, and the result has the bits of taking them all.  Each norm is
    `_norm2`'s, the largest over the item's independent blocks.  An item with
    a NaN or infinite entry raises NonFiniteEntries when the bounds are
    first taken.  `items` may be a function of no arguments, called when the
    bounds are first taken, and a given `upper` is kept as given (a NaN
    decides nothing), so a caller can bound items it has not yet formed.
    """

    def __init__(self, items=(), floor: float = 0.0, upper: float | None = None):
        self._items = items if callable(items) else list(items)
        self.floor = floor
        if upper is not None:
            self.upper = upper

    @cached_property
    def _bounds(self) -> list[float]:
        if callable(self._items):
            self._items = self._items()
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is inf
            bounds = [_norm_bound(x) for x in self._items]
        for x, b in zip(self._items, bounds):
            if not b < math.inf and not np.isfinite(
                    x.entries if isinstance(x, Operator) else x).all():
                raise NonFiniteEntries("entries must be finite")
        return bounds

    @cached_property
    def upper(self) -> float:
        return max([self.floor, *self._bounds])

    @cached_property
    def value(self) -> float:
        bounds, items = self._bounds, self._items  # _bounds forms the items
        stops = all(map(_decisive, bounds))
        best = self.floor
        for k in sorted(range(len(items)), key=bounds.__getitem__, reverse=True):
            if stops and bounds[k] <= best:
                break
            x = items[k]
            best = max(best, spectral_norm(x) if isinstance(x, Operator) else _norm2(x))
        self._items = ()  # the value is all a reader needs from now on
        return best


def _ritz_step(p: np.ndarray, q: np.ndarray) -> tuple[float, bool, np.ndarray, float]:
    """One subspace step of P*P from the orthonormal d x b block q.
    Returns the largest Ritz value theta (a lower bound on sigma_max(p)^2),
    whether it is certified, the Ritz vectors (q itself if the step left
    float64) and the bound's relative excess over theta (inf where it does
    not hold).

    In the basis [Q, Q_perp], P*P = [[diag(w), E*], [E, C]] with C >= 0,
    so its largest eigenvalue is at most that of [[theta, e], [e, c]] for
    e = |P* Y - Q diag(w)|_F >= |E| and c = |P|_F^2 - |Y|_F^2 = trace C
    >= |C|, with Y = P Q; c and e are widened by the rounding margin
    4 d eps |P|_F^2.  theta is certified when theta > 0, the margin is a
    normal float (so no bound overflowed or lost its precision to
    underflow) and the bound is at most theta (1 + 1e-13).
    """
    # Overflow, and underflow of |P|_F^2 to zero, fall back.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z = (p @ q).conj().T @ p  # (P* P q)*, without forming P*
        if not np.isfinite(z).all():
            return -math.inf, False, q, math.inf
        q = np.linalg.qr(z.conj().T)[0]
        y = p @ q
        h = y.conj().T @ y
        if not np.isfinite(h).all():
            return -math.inf, False, q, math.inf
        w, v = np.linalg.eigh(h)
        q, y = q @ v, y @ v
        theta = float(w[-1])
        fro2 = np.vdot(p, p).real
        margin = 4.0 * p.shape[0] * np.finfo(float).eps * fro2
        c = fro2 - np.vdot(y, y).real + margin
        # Divided by |P|_F^2, so its square loses nothing the margin must cover.
        r = ((y.conj().T @ p).conj().T - q * w) / fro2
        e = fro2 * math.sqrt(np.vdot(r, r).real) + margin
        upper = (theta + c) / 2 + math.hypot((theta - c) / 2, e)
    if not (theta > 0 and sys.float_info.min <= margin < math.inf):
        return theta, False, q, math.inf
    return theta, upper <= theta * (1.0 + 1e-13), q, upper / theta - 1.0


def _refined_ritz(p: np.ndarray, q: np.ndarray) -> tuple[float, bool, np.ndarray]:
    """(theta, certified, Ritz vectors) of `_ritz_step` from the block q,
    repeated on the same p while its bound is within _RITZ_NEAR (1e-6)
    relative of theta but not certified and each repeat cuts that excess
    tenfold: a few more steps cost far less than an SVD."""
    theta, certified, q, excess = _ritz_step(p, q)
    while not certified and excess <= _RITZ_NEAR:
        theta, certified, q, shrunk = _ritz_step(p, q)
        excess = shrunk if shrunk < excess / 10 else math.inf
    return theta, certified, q


def _thin_norms(step: np.ndarray, b: np.ndarray, count: int):
    """sigma_max of B_i = step^i b for i = 1 .. count, each with the bits of
    `_norm2(B_i)`.  The B_i are formed ahead in chunks of 1, 2, 4, ...
    blocks, so a reader that stops after i values has made fewer than 2 i,
    and the norms of a chunk's blocks come from one `np.linalg.svd` of
    their stack, which takes each block alone, as `np.linalg.norm(B, 2)`
    does; a block that `_norm2` could split (a zero in every row and every
    column) or that is not finite takes `_norm2`.  Each chunk is formed
    under the caller's errstate: a block past float64 raises there (the CLI)
    or is inf."""
    size = 1
    while count > 0:
        stack = np.empty((min(size, count), *b.shape), dtype=b.dtype)
        for block in stack:
            block[...] = b = step @ b
        nz = stack != 0  # NaN is nonzero
        whole = (nz.all(axis=1).any(axis=1) | nz.all(axis=2).any(axis=1)) & (
            np.isfinite(stack).all(axis=(1, 2)))
        norms = np.zeros(len(stack))
        if whole.any():
            norms[whole] = np.linalg.svd(stack[whole], compute_uv=False)[:, 0]
        for i in np.flatnonzero(~whole):
            norms[i] = _norm2(stack[i])
        yield from norms.tolist()
        count -= len(stack)
        size *= 2


def _propagator_norms(step, count, diagnostics=None):
    """Spectral norms of the powers P_m = step^m for m = 0 .. count - 1
    (count >= 1), each within 1e-12 relative of `np.linalg.norm(P_m, 2)`,
    for a step whose powers' leading singular vectors drift slowly: the
    step of a propagator grid (`semigroup._grid_step`), so that P_m is the
    adjoint propagator at the m-th grid time.

    P_0 = I yields 1.0, its LAPACK norm, with no step, and leaves the block
    where a step from I would: at the columns of I at indices 0 ..
    _RITZ_BLOCK - 1.  Each P_m = step @ P_(m-1) takes a subspace step
    from the previous P's Ritz vectors, repeated while it nearly certifies
    (`_refined_ritz`), and yields sqrt(theta) if it is certified.
    Otherwise, if some column of P is longer than sqrt(theta), the warm
    block misses a direction at least that large, and a step from the
    columns of I at P's _RITZ_BLOCK longest columns is tried under the
    same repeat rule; its Ritz vectors carry on if it certifies.  A P that
    neither certifies yields its SVD norm.

    After a certified step at a time J >= 1 with Ritz block Q, the tail
    t = |P_J - (P_J Q) Q*|_F + 4 d eps |P_J|_F and g = |P_1| (1 + 1e-13)
    bound each P_m = step^(m-J) P_J through B = P_m Q and E = Q*Q - I:
        |B|^2 (1 - |E|) <= |P_m|^2 <= |B|^2 (1 + |E|) + (g^(m-J) t)^2.
    While these hold |B| within 1e-13 (`fits`), the table steps on from
    P_J Q as step @ B in d x 4 products, yielding sigma_max(B) from
    `_thin_norms`, which forms the blocks ahead in doubling chunks; else
    P_m = step^(m-J) P_J is formed and the table steps on from it.  They
    certify the tail and Q's orthonormality, not the rounding of products,
    thin or full.  `diagnostics` gets `dense_steps` (J, or `count` if the
    table ends on full products) and `tail_bound` (t or None).
    """
    def fits(norm, tail):  # |B|^2 (1 + |E|) + tail^2 <= |B|^2 (1 + 1e-13)
        return norm > 0 and e + (tail / norm) * (tail / norm) <= 1e-13
    d = len(step)
    p, margin = np.eye(d, dtype=np.complex128), 4 * d * math.ulp(1.0)
    q, j = np.eye(d, min(d, _RITZ_BLOCK), dtype=np.complex128), None
    yield 1.0
    for m in range(1, count):
        if j is not None:  # p is P_J
            norm, bound = next(thin), bound * g
            if fits(norm, bound):
                yield norm
                continue
            for _ in range(m - j - 1):
                p = step @ p
            j = None
        p = step @ p
        theta, certified, q = _refined_ritz(p, q)
        if not certified:
            with np.errstate(over="ignore", invalid="ignore"):
                cols = (p.real * p.real + p.imag * p.imag).sum(axis=0)
            if cols.max() > theta:
                top = np.sort(np.argsort(-cols, kind="stable")[:_RITZ_BLOCK])
                start = np.eye(d, dtype=np.complex128)[:, top]
                theta_c, certified, q_c = _refined_ritz(p, start)
                if certified:
                    theta, q = theta_c, q_c
        value = math.sqrt(theta) if certified else _norm2(p)
        if m == 1:  # P_1 = step @ I
            g = value * (1.0 + 1e-13)
        if certified:  # |P|_F^2 is normal: nothing overflows
            b, s = p @ q, math.sqrt(np.vdot(p, p).real)
            if s * s * (1 - margin) - np.vdot(b, b).real <= 1e-13 * theta:  # t can fit
                r = (p - b @ q.conj().T) / s  # scaled, so its square stays normal
                t = s * (math.sqrt(np.vdot(r, r).real) + margin)
                e = float(np.abs(q.conj().T @ q - np.eye(q.shape[1])).sum())  # >= |E|
                if fits(value, t):
                    j, bound, thin = m, t, _thin_norms(step, b, count - 1 - m)
        yield value
    if diagnostics is not None:
        diagnostics.update(dense_steps=count if j is None else j,
                           tail_bound=None if j is None else t)


def _at_most(defect: _Norms, scale: _Norms, threshold) -> bool:
    """Whether defect.value <= threshold(scale.value), for a nondecreasing
    threshold.  Decided without an SVD when defect.upper is decisive and at
    most threshold(scale.floor), which implies it; else by the exact
    values."""
    upper = defect.upper
    if _decisive(upper) and upper <= threshold(scale.floor):
        return True
    return defect.value <= threshold(scale.value)


def tensor_embed(x: Operator, factor_index: int, target: HilbertSpace) -> Operator:
    """Ampliation I (x) ... (x) x (x) ... (x) I into `target` at `factor_index`.

    x's entries are placed on the diagonal blocks of a +0.0 buffer, so the
    result equals the Kronecker product by value, the blocks carry x's
    exact bits and every other entry is +0.0 (a Kronecker product with an
    identity leaves -0.0 wherever a negative part meets an identity zero).
    """
    dims = target.factor_dims
    if not 0 <= factor_index < len(dims):
        raise ValueError(f"factor index {factor_index} out of range")
    if x.space.total_dim != dims[factor_index]:
        raise ValueError(
            f"operator dimension {x.space.total_dim} does not match "
            f"factor {factor_index} of {dims}"
        )
    left = math.prod(dims[:factor_index])
    right = math.prod(dims[factor_index + 1:])
    dx = dims[factor_index]
    m = np.zeros((left, dx, right, left, dx, right), dtype=np.complex128)
    i, j = np.arange(left)[:, None], np.arange(right)
    m[i, :, j, i, :, j] = x.entries
    d = target.total_dim
    return Operator(target, m.reshape(d, d))


def spectral_norm(x: Operator) -> float:
    """Largest singular value, computed once per operator."""
    return x._spectral_norm


def matrix_exponential(x: Operator, t: float) -> Operator:
    """exp(t*x) for t >= 0 via scaling-and-squaring Pade (scipy.linalg.expm).

    The package's one use of scipy, imported on the first exponential: a
    command that takes none (validate, eliminate, example, converge
    --kind generator) never loads it.  `expm` is looked up on
    `scipy.linalg` at each call, so a rebinding of that attribute sees
    every exponential."""
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    if t < 0:
        raise ValueError("semigroup evaluation requires t >= 0")
    if t == 0.0:
        return Operator.identity(x.space)
    import scipy.linalg

    return Operator(x.space, scipy.linalg.expm(t * x.entries))


def _coordinate_indices(p0: np.ndarray) -> np.ndarray | None:
    """The indices of the ones of a coordinate projection: a square array
    whose nonzero entries all lie on its diagonal, each exactly 0 or 1.
    None for any other array.  Such a p0 is an orthogonal projection with
    exact arithmetic: p0 - p0^* and p0 p0 - p0 are exactly zero."""
    diag = p0.diagonal()
    if (
        p0.shape != (len(p0), len(p0))
        or np.count_nonzero(p0) != np.count_nonzero(diag)
        or not np.all((diag == 0) | (diag == 1))
    ):
        return None
    return np.flatnonzero(diag)


def subspace_basis(p0: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the range of the projection `p0`.

    Modified Gram-Schmidt over the columns of p0 in index order, so a
    coordinate projection yields exactly the corresponding unit vectors.
    The basis is deterministic; every module that needs coordinates on the
    slow subspace derives them through this routine so bases agree.  A
    column whose residual norm is at most RANK_TOL is dropped.

    A coordinate projection (`_coordinate_indices`) skips the Gram-Schmidt
    loop and returns the columns of the identity at the indices of its
    ones.  The result is exactly equal (`np.array_equal`) to the
    Gram-Schmidt output for the same input; any other input goes through
    Gram-Schmidt.
    """
    if isinstance(p0, Operator):
        p0 = p0.entries
    p0 = np.asarray(p0, dtype=np.complex128)
    d = p0.shape[0]
    ones = _coordinate_indices(p0)
    if ones is not None:
        return np.eye(d, dtype=np.complex128)[:, ones]
    cols = []
    for j in range(d):
        v = p0[:, j].astype(np.complex128, copy=True)
        for _ in range(2):  # re-orthogonalize once for stability
            for q in cols:
                v -= q * (q.conj() @ v)
        nv = np.linalg.norm(v)
        if nv > RANK_TOL:
            cols.append(v / nv)
    if not cols:
        return np.zeros((d, 0), dtype=np.complex128)
    return np.column_stack(cols)


@dataclass(frozen=True)
class SubspacePair:
    """Orthogonal projection p0 onto the slow subspace.

    p0 must be Hermitian and idempotent, each defect at most 1e-9
    max(1, |p0|) (decided by `_at_most`), and of rank >= 1.  A coordinate
    projection (`_coordinate_indices`) has both defects exactly zero, so
    it is accepted without forming them.

    The complement `p1 = I - p0` and the read-only isometries `slow_basis`
    (V) and `fast_basis` (Q), built by `subspace_basis`, are derived on
    first use and shared by every caller.  The structural checks,
    `eliminate` and the corrector measure in these basis coordinates;
    `compress` applies the bases, by index for a coordinate projection.
    """

    p0: Operator

    def __post_init__(self):
        p0 = self.p0.entries
        if _coordinate_indices(p0) is None:
            scale = _Norms([self.p0], 1.0)
            for what, defect in (("Hermitian", lambda: p0 - p0.conj().T),
                                 ("idempotent", lambda: p0 @ p0 - p0)):
                if not _at_most(_Norms([defect()]), scale, lambda s: 1e-9 * s):
                    raise ValueError(f"p0 is not {what}")
        if self.rank < 1:
            raise ValueError("p0 must have rank >= 1")

    @classmethod
    def from_basis_indices(cls, space: HilbertSpace, indices) -> "SubspacePair":
        m = np.zeros((space.total_dim, space.total_dim), dtype=np.complex128)
        for i in indices:
            m[i, i] = 1.0
        return cls(Operator(space, m))

    @property
    def rank(self) -> int:
        return int(round(self.p0.entries.trace().real))

    @cached_property
    def p1(self) -> Operator:
        return Operator.identity(self.p0.space) - self.p0

    @cached_property
    def slow_basis(self) -> np.ndarray:
        """Isometry mapping slow-subspace coordinates into the full space."""
        return _freeze(subspace_basis(self.p0.entries))

    @cached_property
    def fast_basis(self) -> np.ndarray:
        """Isometry mapping fast-subspace coordinates into the full space."""
        return _freeze(subspace_basis(self.p1.entries))

    @cached_property
    def _coordinates(self) -> dict | None:
        """The indices of the columns of I that V and Q are, under "slow"
        and "fast", for a coordinate projection p0; else None."""
        slow = _coordinate_indices(self.p0.entries)
        if slow is None:
            return None
        return {"slow": slow, "fast": np.flatnonzero(self.p0.entries.diagonal() == 0)}

    def compress(self, x: np.ndarray, left: str | None = None,
                 right: str | None = None) -> np.ndarray:
        """B_left^* x B_right, where "slow" names V and "fast" Q and None
        takes no factor on that side (at least one side is named), formed
        left to right.  For a coordinate projection p0 the bases are
        columns of I, so the products are row and column selections,
        returned C-contiguous as a product is.  A selection equals the
        product by value (`np.array_equal`) and forms no d x d product,
        though a zero may differ from the product's in its sign.  Any other
        p0 takes the products."""
        at = self._coordinates
        if at is not None:
            if left and right:
                return x[np.ix_(at[left], at[right])]
            return x.take(at[left], axis=0) if left else x.take(at[right], axis=1)
        bases = {"slow": self.slow_basis, "fast": self.fast_basis}
        if left:
            x = bases[left].conj().T @ x
        return x @ bases[right] if right else x


def restricted_inverse(y: Operator, sub: SubspacePair,
                       tol: float = DEFAULT_TOL) -> tuple[Operator, _Norms]:
    """Partial inverse of the fast generator on the complement subspace.

    Returns Y~ with Y~ p0 = 0 and Y~ Y = Y Y~ = p1, and its inverse defect
    max(|Y~ Y - p1|, |Y Y~ - p1|) as `_Norms`, which structural check c
    reads.  Requires y V = 0 on the slow basis V, an invertible compression
    Yc = Q^* y Q to the fast basis Q whose condition number (by SVD) is at
    most DEFAULT_COND_LIMIT, and a defect at most 1e-10 max(1, cond) scale,
    each decided as `_at_most` decides.  A pass takes no SVD where a bound
    settles it: Yc^-1 Q^* is solved first and has norm |Yc^-1|, so cond is
    at most `_norm_bound`(Yc) `_norm_bound`(Yc^-1 Q^*) widened by 1e-3 (its
    rounding is about cond eps), and a defect at most 1e-10 scale passes.
    y V and Yc come from `SubspacePair.compress`, so by index for a
    coordinate projection; Y~ = Q (Yc^-1 Q^*) stays a product, whose zeros
    carry the signs the printed limit shows.
    """
    y._check_space(sub.p0)
    scale = _Norms([y], 1.0)
    yv = sub.compress(y.entries, right="slow")
    if not _at_most(_Norms([yv]), scale, lambda s: tol * s):
        raise StructuralViolation("y does not annihilate the slow subspace")
    q1 = sub.fast_basis
    if q1.shape[1] == 0:  # Y~ = 0, so both defects are |0 - p1|
        return Operator.zero(y.space), _Norms([-sub.p1])
    yc = sub.compress(y.entries, "fast", "fast")

    def condition() -> float:
        sv = np.linalg.svd(yc, compute_uv=False)
        return math.inf if sv[-1] == 0.0 else float(sv[0] / sv[-1])

    cond = x = None
    try:
        x = np.linalg.solve(yc, q1.conj().T)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is inf
            upper = _norm_bound(yc) * _norm_bound(x)
    except np.linalg.LinAlgError:
        upper = math.inf
    if not (_decisive(upper) and upper * (1.0 + 1e-3) <= DEFAULT_COND_LIMIT):
        cond = condition()
        if cond > DEFAULT_COND_LIMIT:
            raise SingularFastDynamics(
                f"compressed fast generator has condition number {cond:.3e} "
                f"(limit {DEFAULT_COND_LIMIT:.3e})"
            )
        if x is None:  # singular to the solve but not to the SVD: raises again
            x = np.linalg.solve(yc, q1.conj().T)
    yt = Operator(y.space, q1 @ x)
    # Leakage p0 y p1 != 0 would silently break the two-sided identity.
    p1, ytm, ym = sub.p1.entries, yt.entries, y.entries
    defect = _Norms([ytm @ ym - p1, ym @ ytm - p1])
    if not _at_most(defect, scale, lambda s: 1e-10 * s):
        cond = cond or condition()
        if not _at_most(defect, scale, lambda s: 1e-10 * s * max(1.0, cond)):
            raise StructuralViolation(
                f"restricted inverse defect {defect.value:.3e} exceeds tolerance; "
                "y likely couples the subspaces"
            )
    return yt, defect
