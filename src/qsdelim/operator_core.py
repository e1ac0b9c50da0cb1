"""Dense complex operator algebra on truncated tensor-product spaces.

Everything is desk-scale (total dimensions up to a few hundred), so all
storage is dense complex128 and all factorizations are direct LAPACK
calls.  Values are immutable after construction and every operation is a
pure function.

Because an `Operator`'s entries are frozen read-only at construction, its
spectral norm is cached on the operator: `spectral_norm` takes the SVD of
each operator at most once, however many validators ask for it, and an
all-zero operator costs no SVD at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import NonFiniteEntries, SingularFastDynamics, StructuralViolation

DEFAULT_TOL = 1e-9
DEFAULT_COND_LIMIT = 1e12
RANK_TOL = 1e-8


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
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise NonFiniteEntries("operator entries must be finite")
        object.__setattr__(self, "entries", _freeze(m))

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


def _norm2(m: np.ndarray) -> float:
    """Largest singular value of an array.  An all-zero or empty array skips
    LAPACK, whose norm for it is the same 0.0."""
    if not m.any():
        return 0.0
    return float(np.linalg.norm(m, 2))


def tensor_embed(x: Operator, factor_index: int, target: HilbertSpace) -> Operator:
    """Ampliation I (x) ... (x) x (x) ... (x) I into `target` at `factor_index`."""
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
    m = np.kron(np.kron(np.eye(left), x.entries), np.eye(right))
    return Operator(target, m)


def spectral_norm(x: Operator) -> float:
    """Largest singular value, computed once per operator."""
    return x._spectral_norm


def matrix_exponential(x: Operator, t: float) -> Operator:
    """exp(t*x) for t >= 0 via scaling-and-squaring Pade (scipy.linalg.expm)."""
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    if t < 0:
        raise ValueError("semigroup evaluation requires t >= 0")
    if t == 0.0:
        return Operator.identity(x.space)
    return Operator(x.space, scipy.linalg.expm(t * x.entries))


def subspace_basis(p0: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the range of the projection `p0`.

    Modified Gram-Schmidt over the columns of p0 in index order, so a
    coordinate projection yields exactly the corresponding unit vectors.
    The basis is deterministic; every module that needs coordinates on the
    slow subspace derives them through this routine so bases agree.  A
    column whose residual norm is at most RANK_TOL is dropped.

    A coordinate projection (square, every nonzero entry on the diagonal,
    every diagonal entry exactly 0 or 1) skips the Gram-Schmidt loop and
    returns the columns of the identity at the indices of its ones.  The
    result is exactly equal (`np.array_equal`) to the Gram-Schmidt output
    for the same input; any other input goes through Gram-Schmidt.
    """
    if isinstance(p0, Operator):
        p0 = p0.entries
    p0 = np.asarray(p0, dtype=np.complex128)
    d = p0.shape[0]
    diag = p0.diagonal()
    if (
        p0.shape == (d, d)
        and np.count_nonzero(p0) == np.count_nonzero(diag)
        and np.all((diag == 0) | (diag == 1))
    ):
        return np.eye(d, dtype=np.complex128)[:, np.flatnonzero(diag)]
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

    The complement `p1 = I - p0` and the read-only isometries `slow_basis`
    (V) and `fast_basis` (Q), built by `subspace_basis`, are derived on
    first use and shared by every caller.  The structural checks,
    `eliminate` and the corrector measure in these basis coordinates.
    """

    p0: Operator

    def __post_init__(self):
        p0 = self.p0
        scale = max(1.0, spectral_norm(p0))
        if spectral_norm(p0 - p0.dag()) > 1e-9 * scale:
            raise ValueError("p0 is not Hermitian")
        if spectral_norm(p0 @ p0 - p0) > 1e-9 * scale:
            raise ValueError("p0 is not idempotent")
        if self.rank < 1:
            raise ValueError("p0 must have rank >= 1")

    @classmethod
    def from_basis_indices(cls, space: HilbertSpace, indices) -> "SubspacePair":
        m = np.zeros((space.total_dim, space.total_dim), dtype=np.complex128)
        for i in indices:
            m[i, i] = 1.0
        return cls(Operator(space, m))

    @property
    def space(self) -> HilbertSpace:
        return self.p0.space

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


def restricted_inverse(y: Operator, sub: SubspacePair,
                       tol: float = DEFAULT_TOL) -> Operator:
    """Partial inverse of the fast generator on the complement subspace.

    Returns Y~ with Y~ p0 = 0 and Y~ Y = Y Y~ = p1.  Requires y V = 0 on
    the slow basis V and an invertible compression of y to range(p1) with
    condition number at most DEFAULT_COND_LIMIT.  `_restricted_inverse` also returns the inverse
    defect max(|Y~ Y - p1|, |Y Y~ - p1|) measured here, for check c.
    """
    return _restricted_inverse(y, sub, tol)[0]


def _restricted_inverse(y, sub, tol) -> tuple[Operator, float]:
    """`restricted_inverse`'s Y~ and its inverse defect; raises as it does."""
    y._check_space(sub.p0)
    scale = max(1.0, spectral_norm(y))
    if _norm2(y.entries @ sub.slow_basis) > tol * scale:
        raise StructuralViolation("y does not annihilate the slow subspace")
    q1 = sub.fast_basis
    if q1.shape[1] == 0:  # Y~ = 0, so both defects are |0 - p1|
        return Operator.zero(y.space), spectral_norm(-sub.p1)
    yc = q1.conj().T @ y.entries @ q1
    sv = np.linalg.svd(yc, compute_uv=False)
    cond = math.inf if sv[-1] == 0.0 else float(sv[0] / sv[-1])
    if cond > DEFAULT_COND_LIMIT:
        raise SingularFastDynamics(
            f"compressed fast generator has condition number {cond:.3e} "
            f"(limit {DEFAULT_COND_LIMIT:.3e})"
        )
    yt = Operator(y.space, q1 @ np.linalg.solve(yc, q1.conj().T))
    # Leakage p0 y p1 != 0 would silently break the two-sided identity.
    defect = max(
        spectral_norm(yt @ y - sub.p1),
        spectral_norm(y @ yt - sub.p1),
    )
    if defect > 1e-10 * scale * max(1.0, cond):
        raise StructuralViolation(
            f"restricted inverse defect {defect:.3e} exceeds tolerance; "
            "y likely couples the subspaces"
        )
    return yt, defect
