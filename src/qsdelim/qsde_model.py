"""Coefficient families for right Hudson-Parthasarathy equations.

A `QsdeCoefficients` is an assembled quadruple (K, L_i, M_i, N_ij) at one
value of the scaling parameter (or in the limit).  A `ScaledFamily` is the
singular-scaling decomposition K(k) = k^2 Y + k A + B, L_i(k) = k F_i + G_i,
N_ij(k) = W_ij; M is never stored for a family because the unitarity
relations determine it completely.

Validators never raise on a failed relation; they return a report with one
entry per relation group, where the violation is the spectral norm of the
defect operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularFastDynamics, StructuralViolation
from .operator_core import (
    DEFAULT_TOL,
    HilbertSpace,
    Operator,
    SubspacePair,
    _norm2,
    _restricted_inverse,
    spectral_norm,
)


def _check_family(space: HilbertSpace, n: int, ops):
    if n < 1:
        raise ValueError("channel count must be >= 1")
    for op in ops:
        if op.space != space:
            raise ValueError("all coefficients must share one space")


@dataclass(frozen=True)
class QsdeCoefficients:
    """Assembled Hudson-Parthasarathy coefficient quadruple."""

    n: int
    space: HilbertSpace
    k_op: Operator
    l_ops: tuple[Operator, ...]
    m_ops: tuple[Operator, ...]
    n_ops: tuple[tuple[Operator, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "l_ops", tuple(self.l_ops))
        object.__setattr__(self, "m_ops", tuple(self.m_ops))
        object.__setattr__(self, "n_ops", tuple(tuple(row) for row in self.n_ops))
        if len(self.l_ops) != self.n or len(self.m_ops) != self.n:
            raise ValueError("need exactly n L and M operators")
        if len(self.n_ops) != self.n or any(len(r) != self.n for r in self.n_ops):
            raise ValueError("N must be an n x n grid")
        flat = [self.k_op, *self.l_ops, *self.m_ops]
        flat += [op for row in self.n_ops for op in row]
        _check_family(self.space, self.n, flat)


@dataclass(frozen=True)
class ScaledFamily:
    """Singular-scaling decomposition of a prelimit coefficient family."""

    n: int
    space: HilbertSpace
    y: Operator
    a: Operator
    b: Operator
    f_ops: tuple[Operator, ...]
    g_ops: tuple[Operator, ...]
    w_ops: tuple[tuple[Operator, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "f_ops", tuple(self.f_ops))
        object.__setattr__(self, "g_ops", tuple(self.g_ops))
        object.__setattr__(self, "w_ops", tuple(tuple(row) for row in self.w_ops))
        if len(self.f_ops) != self.n or len(self.g_ops) != self.n:
            raise ValueError("need exactly n F and G operators")
        if len(self.w_ops) != self.n or any(len(r) != self.n for r in self.w_ops):
            raise ValueError("W must be an n x n grid")
        flat = [self.y, self.a, self.b, *self.f_ops, *self.g_ops]
        flat += [op for row in self.w_ops for op in row]
        _check_family(self.space, self.n, flat)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_violation: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(self.checks))

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _check(name: str, defect_norm: float, tol: float, scale: float) -> CheckResult:
    threshold = tol * max(1.0, scale)
    return CheckResult(name, defect_norm, threshold, bool(defect_norm <= threshold))


def assemble(fam: ScaledFamily, k: float) -> QsdeCoefficients:
    """Materialize the prelimit coefficients at scaling parameter k > 0."""
    k = float(k)
    if k <= 0:
        raise ValueError("scaling parameter k must be positive")
    k_op = (k * k) * fam.y + k * fam.a + fam.b
    l_ops = tuple(k * f + g for f, g in zip(fam.f_ops, fam.g_ops))
    return QsdeCoefficients(
        fam.n, fam.space, k_op, l_ops, _m_from_unitarity(fam.w_ops, l_ops),
        fam.w_ops,
    )


def _m_from_unitarity(w_ops, l_ops) -> tuple[Operator, ...]:
    """M_i = -sum_j W_ij L_j^*, the M that the unitarity relations force."""
    zero = Operator.zero(l_ops[0].space)
    return tuple(
        -sum((w @ l.dag() for w, l in zip(row, l_ops)), zero) for row in w_ops
    )


def _n_limit_sum(w_ops, f_ops, x: Operator):
    """Grid of sum_l W_il (F_l^* X F_j + delta_lj); the limit N for X = Y~."""
    ident = Operator.identity(x.space)
    inner = [[fl.dag() @ x @ fj for fj in f_ops] for fl in f_ops]
    for ell, row in enumerate(inner):
        row[ell] = row[ell] + ident
    zero = Operator.zero(x.space)
    return tuple(
        tuple(
            sum((w @ inner[ell][j] for ell, w in enumerate(row)), zero)
            for j in range(len(f_ops))
        )
        for row in w_ops
    )


def _unitarity_defect(grid) -> float:
    """Largest block norm of W W^* - I and W^* W - I for the n x n grid W,
    stacked into one nd x nd matrix so that each product is formed once."""
    n = len(grid)
    w = np.block([[op.entries for op in row] for row in grid])
    d, ident = w.shape[0] // n, np.eye(w.shape[0])
    blocks = [(p - ident).reshape(n, d, n, d) for p in (w @ w.conj().T, w.conj().T @ w)]
    return float(max(
        np.linalg.norm(b[m, :, ell, :], 2)
        for m in range(n) for ell in range(n) for b in blocks
    ))


def hp_validate(c: QsdeCoefficients, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the Hudson-Parthasarathy relations of an assembled quadruple."""
    zero = Operator.zero(c.space)
    k_defect = c.k_op + c.k_op.dag() + sum(
        (l @ l.dag() for l in c.l_ops), zero
    )
    m_defect = max(
        spectral_norm(m - forced)
        for m, forced in zip(c.m_ops, _m_from_unitarity(c.n_ops, c.l_ops))
    )
    n_defect = _unitarity_defect(c.n_ops)
    scale = max(
        [spectral_norm(c.k_op)]
        + [spectral_norm(l) for l in c.l_ops]
        + [spectral_norm(m) for m in c.m_ops]
        + [spectral_norm(op) for row in c.n_ops for op in row]
    )
    return ValidationReport((
        _check("hp.k", spectral_norm(k_defect), tol, scale),
        _check("hp.m", m_defect, tol, scale),
        _check("hp.n", n_defect, tol, scale),
    ))


def scaled_hp_validate(fam: ScaledFamily, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Order-by-order unitarity relations of the scaling decomposition.

    Passing implies hp_validate(assemble(fam, k)) passes for every k.
    """
    zero = Operator.zero(fam.space)
    y_defect = fam.y + fam.y.dag() + sum((f @ f.dag() for f in fam.f_ops), zero)
    a_defect = fam.a + fam.a.dag() + sum(
        (f @ g.dag() + g @ f.dag() for f, g in zip(fam.f_ops, fam.g_ops)), zero
    )
    b_defect = fam.b + fam.b.dag() + sum((g @ g.dag() for g in fam.g_ops), zero)
    w_defect = _unitarity_defect(fam.w_ops)
    norms = [spectral_norm(op) for op in (fam.y, fam.a, fam.b)]
    norms += [spectral_norm(op) for op in fam.f_ops + fam.g_ops]
    norms += [spectral_norm(op) for row in fam.w_ops for op in row]
    scale = max(norms)
    return ValidationReport((
        _check("scaled.y", spectral_norm(y_defect), tol, scale),
        _check("scaled.a", spectral_norm(a_defect), tol, scale),
        _check("scaled.b", spectral_norm(b_defect), tol, scale),
        _check("scaled.w", w_defect, tol, scale),
    ))


def structural_validate(fam: ScaledFamily, sub: SubspacePair,
                        tol: float = DEFAULT_TOL) -> ValidationReport:
    """Structural requirements for a well-defined elimination limit.

    Covers the fast-generator conditions (b)-(e) on the slow subspace and
    the side conditions that make the limit coefficients close on it.
    """
    return _structural_report(fam, sub, tol)[0]


def _structural_report(
    fam: ScaledFamily, sub: SubspacePair, tol: float,
) -> tuple[ValidationReport, tuple | None]:
    """`structural_validate`'s report and the limit ingredients it computed:
    the restricted inverse Y~, the arrays L~_i = G_i - A Y~ F_i and the
    N-limit sum (None when Y~ does not exist), so callers that need them
    after a passing report do not compute them again.

    Checks b, d, e and the side checks are measured in the coordinates of
    the slow and fast bases V and Q, as |Y V|, |F_i^* V|, |V^* A V|,
    |V^* L~_i Q|, |V^* N~_ij Q| and |Q^* N~_ij V|.  Check c is the inverse
    defect that `_restricted_inverse` measured for Y~.
    """
    v, q = sub.slow_basis, sub.fast_basis
    vh, qh = v.conj().T, q.conj().T
    scale = max(
        [spectral_norm(op) for op in (fam.y, fam.a)]
        + [spectral_norm(f) for f in fam.f_ops]
        + [1.0]
    )
    checks = [
        _check("structural.b", _norm2(fam.y.entries @ v), tol, scale),
        _check(
            "structural.d",
            max(_norm2(f.entries.conj().T @ v) for f in fam.f_ops),
            tol,
            scale,
        ),
        _check("structural.e", _norm2(vh @ fam.a.entries @ v), tol, scale),
    ]
    y_tilde = None
    limit_parts = None
    try:
        y_tilde, inv_defect = _restricted_inverse(fam.y, sub, tol)
        checks.insert(1, _check("structural.c", inv_defect, 1e-10, scale))
    except (SingularFastDynamics, StructuralViolation):
        checks.insert(1, CheckResult("structural.c", float("inf"), tol, False))

    side_names = ("limit.l_side", "limit.n_side_right", "limit.n_side_left")
    if y_tilde is None:
        for name in side_names:
            checks.append(CheckResult(name, float("inf"), tol, False))
    else:
        side_scale = max(scale, max(spectral_norm(g) for g in fam.g_ops))
        ay = fam.a.entries @ y_tilde.entries
        l_tilde = tuple(
            g.entries - ay @ f.entries for f, g in zip(fam.f_ops, fam.g_ops)
        )
        n_sum = _n_limit_sum(fam.w_ops, fam.f_ops, y_tilde)
        terms = [term.entries for row in n_sum for term in row]
        sides = (
            max(_norm2(vh @ x @ q) for x in l_tilde),
            max(_norm2(vh @ x @ q) for x in terms),
            max(_norm2(qh @ x @ v) for x in terms),
        )
        for name, value in zip(side_names, sides):
            checks.append(_check(name, value, tol, side_scale))
        limit_parts = (y_tilde, l_tilde, n_sum)
    return ValidationReport(tuple(checks)), limit_parts
