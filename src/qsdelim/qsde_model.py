"""Coefficient families for right Hudson-Parthasarathy equations.

A `QsdeCoefficients` is an assembled quadruple (K, L_i, M_i, N_ij) at one
value of the scaling parameter (or in the limit).  A `ScaledFamily` is the
singular-scaling decomposition K(k) = k^2 Y + k A + B, L_i(k) = k F_i + G_i,
N_ij(k) = W_ij; M is never stored for a family because the unitarity
relations determine it completely: M_i = -sum_j N_ij L_j^*, the M of
`QsdeCoefficients.unitary`.  Both hold only their operators and read the
channel count n and the space from them (`_check_shapes`).

Validators never raise on a failed relation; they return a report with one
entry per relation group, where the violation is the spectral norm of the
defect operator.  A check computes its defect arrays (for W, only W W^*:
`_unitarity_defect`) and decides `passed` when it is made, by a bound
where one settles it (`_check`); it takes the exact violation and
tolerance, spectral norms, only when they are first read, so a caller
that reads only verdicts takes no SVD for a passing check.  Defects are
formed on entries arrays with the bits of the Operator expressions they
stand for, and a product with an all-zero factor is left out of its sum;
a relation left with an all-zero coefficient and no term has the exact
defect 0.0 and forms no array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import PreconditionFailed, SingularFastDynamics, StructuralViolation
from .operator_core import (
    DEFAULT_TOL,
    HilbertSpace,
    Operator,
    SubspacePair,
    _at_most,
    _norm_bound,
    _Norms,
    restricted_inverse,
)

_EPS = np.finfo(float).eps


def _check_shapes(c, lists: tuple[str, str], grid: str) -> None:
    """Store the operator lists and the grid of the coefficient set c, the
    fields named `lists` and `grid`, as tuples; ValueError unless c has
    n >= 1 channels (n = c.n, the grid's row count), n operators in each
    list, an n x n grid, and every operator on c.space."""
    for name in lists:
        object.__setattr__(c, name, tuple(getattr(c, name)))
    object.__setattr__(c, grid, tuple(map(tuple, getattr(c, grid))))
    if c.n < 1:
        raise ValueError("channel count must be >= 1")
    if any(len(getattr(c, name)) != c.n for name in lists):
        raise ValueError("need exactly n %s and %s operators"
                         % tuple(name[0].upper() for name in lists))
    if any(len(row) != c.n for row in getattr(c, grid)):
        raise ValueError(f"{grid[0].upper()} must be an n x n grid")
    if any(op.space != c.space for op in c._operators()):
        raise ValueError("all coefficients must share one space")


@dataclass(frozen=True)
class QsdeCoefficients:
    """Assembled Hudson-Parthasarathy coefficient quadruple."""

    k_op: Operator
    l_ops: tuple[Operator, ...]
    m_ops: tuple[Operator, ...]
    n_ops: tuple[tuple[Operator, ...], ...]

    def __post_init__(self):
        _check_shapes(self, ("l_ops", "m_ops"), "n_ops")

    @property
    def n(self) -> int:
        return len(self.n_ops)

    @property
    def space(self) -> HilbertSpace:
        return self.k_op.space

    @classmethod
    def unitary(cls, k_op: Operator, l_ops, n_ops) -> "QsdeCoefficients":
        """The quadruple with M_i = -sum_j N_ij L_j^*, the M that the
        unitarity relations force (`_m_from_unitarity`)."""
        c = cls(k_op, l_ops, l_ops, n_ops)  # checks the shapes; M's are L's
        object.__setattr__(c, "m_ops", _m_from_unitarity(c.n_ops, c.l_ops))
        return c

    def _operators(self) -> list[Operator]:
        return [self.k_op, *self.l_ops, *self.m_ops, *chain(*self.n_ops)]


@dataclass(frozen=True)
class ScaledFamily:
    """Singular-scaling decomposition of a prelimit coefficient family."""

    y: Operator
    a: Operator
    b: Operator
    f_ops: tuple[Operator, ...]
    g_ops: tuple[Operator, ...]
    w_ops: tuple[tuple[Operator, ...], ...]

    def __post_init__(self):
        _check_shapes(self, ("f_ops", "g_ops"), "w_ops")

    @property
    def n(self) -> int:
        return len(self.w_ops)

    @property
    def space(self) -> HilbertSpace:
        return self.y.space

    def _operators(self) -> list[Operator]:
        return [self.y, self.a, self.b, *self.f_ops, *self.g_ops, *chain(*self.w_ops)]


class CheckResult:
    """One relation group: its largest violation, the tolerance it is held
    to, and whether it passed.

    `CheckResult(name, max_violation, tolerance, passed)` holds the given
    values.  A validator's checks (`_check`) decide `passed` when they are
    made, by a bound where one settles it, and take the exact
    `max_violation` and `tolerance` (spectral norms) when first read.
    """

    def __init__(self, name: str, max_violation: float, tolerance: float,
                 passed: bool):
        self.name, self.passed = name, passed
        # Given values fill the cached properties, which then never compute.
        vars(self).update(max_violation=max_violation, tolerance=tolerance)

    @cached_property
    def max_violation(self) -> float:
        return self._defect.value

    @cached_property
    def tolerance(self) -> float:
        return self._tol * self._scale.value

    def _fields(self) -> tuple:
        return self.name, self.max_violation, self.tolerance, self.passed

    def __eq__(self, other):
        if not isinstance(other, CheckResult):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return ("CheckResult(name=%r, max_violation=%r, tolerance=%r, passed=%r)"
                % self._fields())


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


def _check(name: str, defect, tol: float, scale: _Norms,
           passed: bool | None = None) -> CheckResult:
    """The check defect <= tol * scale; every scale has floor 1.0, so the
    tolerance is never below tol.  `defect` is a `_Norms` or a number.
    `passed` is decided now by `_at_most` (unless given); the exact
    violation and tolerance are taken when first read."""
    if not isinstance(defect, _Norms):
        defect = _Norms((), defect)
    check = CheckResult.__new__(CheckResult)
    check.name, check._defect, check._tol, check._scale = name, defect, tol, scale
    check.passed = (_at_most(defect, scale, lambda s: tol * s)
                    if passed is None else passed)
    return check


def _dagger(x: np.ndarray) -> np.ndarray:
    """x^* laid out as `Operator.dag` lays it out, so products with it take
    the BLAS path, and so the bits, of the Operator products they replace."""
    return np.ascontiguousarray(x.conj().T)


def _relation(x: np.ndarray, terms) -> _Norms:
    """The defect x + x^* + (0 + each term in turn) of a relation of the
    form K + K^* + sum_i L_i L_i^* = 0, summed as `sum(terms, zero)` adds,
    as a `_Norms`.  The sum and the defect are formed in place, in the same
    left-to-right order, so they have the bits of that expression and no
    other array of their size is made.  Callers leave out a product with
    an all-zero factor: adding its +-0.0 entries to a sum that starts at
    +0.0 changes no bit.
    An all-zero x with no term left has the exact defect 0.0, so it forms
    no array."""
    terms = list(terms)
    if not terms and not x.any():
        return _Norms()
    acc = np.zeros_like(x)
    for t in terms:
        acc += t
    defect = x + x.conj().T
    defect += acc
    return _Norms([defect])


def _k_values(values, cutoffs: bool = False) -> tuple:
    """`values` as a tuple if each is finite and > 0 (with `cutoffs`: a finite
    integer >= 0), the rule of `assemble`, every study and --k; else ValueError."""
    values = tuple(values)
    need = "cutoffs that are finite integers >= 0" if cutoffs else "finite k > 0"
    for k in values:
        ok = k >= 0 and float(k).is_integer() if cutoffs else k > 0
        if not (math.isfinite(k) and ok):
            raise ValueError(f"bad k value {k!r}: need {need}")
    return values


def assemble(fam: ScaledFamily, k: float) -> QsdeCoefficients:
    """Materialize the prelimit coefficients at a k that `_k_values` takes.

    K = (k^2 Y + k A) + B and L_i = k F_i + G_i are formed on the entries
    in place, in that order and with the complex scalars that `Operator`'s
    `*` takes, so they have the bits of the Operator expressions, and each
    is one Operator."""
    (k,) = _k_values((float(k),))
    kk, k1 = complex(k * k), complex(k)
    k_op = fam.y.entries * kk
    k_op += fam.a.entries * k1
    k_op += fam.b.entries
    l_ops = []
    for f, g in zip(fam.f_ops, fam.g_ops):
        l_op = f.entries * k1
        l_op += g.entries
        l_ops.append(Operator(fam.space, l_op))
    return QsdeCoefficients.unitary(Operator(fam.space, k_op), l_ops, fam.w_ops)


def _m_from_unitarity(w_ops, l_ops) -> tuple[Operator, ...]:
    """M_i = -sum_j W_ij L_j^*, the M that the unitarity relations force;
    -L_i^*, equal by value and with no product, when W is exactly delta_ij I,
    formed as one C-ordered array per channel with the bits of -l.dag():
    both are sign flips of the same parts."""
    if _trivial_scattering(w_ops):
        ms = [np.negative(l.entries.T, order="C") for l in l_ops]
        return tuple(Operator(l.space, np.conjugate(m, out=m))
                     for l, m in zip(l_ops, ms))
    zero = Operator.zero(l_ops[0].space)
    return tuple(
        -sum((w @ l.dag() for w, l in zip(row, l_ops)), zero) for row in w_ops
    )


def _trivial_scattering(grid) -> bool:
    """Whether every W_ij of the n x n grid is exactly delta_ij I: each
    diagonal block has d nonzero entries, all of them a diagonal 1, and
    each off-diagonal block none."""
    d = grid[0][0].space.total_dim
    return all(
        np.count_nonzero(w.entries) == d and (w.entries.diagonal() == 1).all()
        if i == j else not w.entries.any()
        for i, row in enumerate(grid) for j, w in enumerate(row))


def _unitarity_defect(grid) -> _Norms:
    """Largest block norm of W W^* - I and W^* W - I for the n x n grid W
    of d x d blocks, filled into one nd x nd matrix, so that each product
    is formed once; taking 1 from the diagonal in place gives the bits of
    - I (signed zeros).  A trivial grid (W = I) has the exact defect 0.0
    and forms no product.

    A check whose value nobody reads forms only P = fl(W W^*) - I.  In
    exact arithmetic |W W^* - I| = |W^* W - I| = max_i |sigma_i(W)^2 - 1|.
    An entry (i, j) of a computed Gram product of W is a complex inner
    product of length nd: its real and imaginary parts are real inner
    products of length 2nd, each within gamma_2nd (|W| |W|^T)_ij of the
    exact one (gamma_m = m eps / (1 - m eps)).  So the error of either
    Gram has norm at most sqrt(2) gamma_2nd |W|_F^2, and every block of
    both computed defects has norm at most |P| plus twice that:
        upper = `_norm_bound`(P) + 2 gamma |W|_F^2,  gamma = gamma_4nd.
    The spare in gamma_4nd >= sqrt(2) gamma_2nd covers the rounding of
    |W|_F^2, of the sum and of LAPACK's sigma_max; taking 1 off the
    diagonal is exact near 1, and else within eps of P's entries, under
    `_norm_bound`'s 1e-8 margin.  W^* W and the block split are formed
    when `value` is read: by a printout, or by a check that `upper` does
    not decide.
    """
    if _trivial_scattering(grid):
        return _Norms()
    n, d = len(grid), grid[0][0].space.total_dim
    w = np.empty((n * d, n * d), dtype=np.complex128)
    for i, row in enumerate(grid):
        for j, op in enumerate(row):
            w[i * d:(i + 1) * d, j * d:(j + 1) * d] = op.entries
    right = w @ w.conj().T
    right.flat[:: n * d + 1] -= 1.0
    gamma = 4 * n * d * _EPS / (1 - 4 * n * d * _EPS)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is inf
        upper = _norm_bound(right) + 2 * gamma * np.vdot(w, w).real

    def blocks():
        left = w.conj().T @ w
        left.flat[:: n * d + 1] -= 1.0
        split = [p.reshape(n, d, n, d) for p in (right, left)]
        return [b[m, :, ell, :] for m in range(n) for ell in range(n) for b in split]
    return _Norms(blocks, upper=upper)


def hp_validate(c: QsdeCoefficients, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the Hudson-Parthasarathy relations of an assembled quadruple."""
    ls = [l.entries for l in c.l_ops]
    k_defect = _relation(c.k_op.entries, (l @ _dagger(l) for l in ls if l.any()))
    m_defects = [m.entries - forced.entries
                 for m, forced in zip(c.m_ops, _m_from_unitarity(c.n_ops, c.l_ops))]
    scale = _Norms(c._operators(), 1.0)
    return ValidationReport((
        _check("hp.k", k_defect, tol, scale),
        _check("hp.m", _Norms(m_defects), tol, scale),
        _check("hp.n", _unitarity_defect(c.n_ops), tol, scale),
    ))


def scaled_hp_validate(fam: ScaledFamily, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Order-by-order unitarity relations of the scaling decomposition.

    Passing implies hp_validate(assemble(fam, k)) passes for every k.
    """
    fs = [f.entries for f in fam.f_ops]
    gs = [g.entries for g in fam.g_ops]
    defects = (
        _relation(fam.y.entries, (f @ _dagger(f) for f in fs if f.any())),
        _relation(fam.a.entries, (
            f @ _dagger(g) + g @ _dagger(f)
            for f, g in zip(fs, gs) if f.any() and g.any()
        )),
        _relation(fam.b.entries, (g @ _dagger(g) for g in gs if g.any())),
    )
    scale = _Norms(fam._operators(), 1.0)
    return ValidationReport((
        *(_check(name, defect, tol, scale)
          for name, defect in zip(("scaled.y", "scaled.a", "scaled.b"), defects)),
        _check("scaled.w", _unitarity_defect(fam.w_ops), tol, scale),
    ))


def _require_scaled_hp(fam: ScaledFamily, tol: float = DEFAULT_TOL) -> None:
    """Raise PreconditionFailed with the report if `scaled_hp_validate`
    fails.  A passing report, with the defect arrays it holds, is dropped
    on return."""
    report = scaled_hp_validate(fam, tol)
    if not report.overall:
        raise PreconditionFailed("scaled unitarity relations fail", report)


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
    """`structural_validate`'s report and the limit it computed, Y~ and the
    limit blocks of `_slow_limit` (None when Y~ does not exist), so callers
    that need them after a passing report do not compute them again.

    Checks b, d, e and the side checks are measured in the coordinates of
    the slow and fast bases V and Q, as |Y V|, |F_i^* V|, |V^* A V|,
    |V^* L~_i Q|, |V^* N~_ij Q| and |Q^* N~_ij V|, each basis applied by
    `SubspacePair.compress` (by index for a coordinate projection).  Check
    c is the inverse defect that `restricted_inverse` measured for Y~, held
    to 1e-10 scale.
    When Y~ does not exist, check c and the side checks fail with violation
    inf and the tolerance each would have been held to.
    """
    c = sub.compress
    scale_ops = [fam.y, fam.a, *fam.f_ops]
    scale = _Norms(scale_ops, 1.0)
    checks = [
        _check("structural.b", _Norms([c(fam.y.entries, right="slow")]), tol, scale),
        _check("structural.d",
               _Norms(c(f.entries.conj().T, right="slow") for f in fam.f_ops),
               tol, scale),
        _check("structural.e", _Norms([c(fam.a.entries, "slow", "slow")]), tol, scale),
    ]
    side_names = ("limit.l_side", "limit.n_side_right", "limit.n_side_left")
    side_scale = _Norms([*scale_ops, *fam.g_ops], 1.0)
    try:
        y_tilde, inv_defect = restricted_inverse(fam.y, sub, tol)
    except (SingularFastDynamics, StructuralViolation):
        checks.insert(1, _check("structural.c", math.inf, 1e-10, scale, False))
        checks += [_check(name, math.inf, tol, side_scale, False)
                   for name in side_names]
        return ValidationReport(tuple(checks)), None
    checks.insert(1, _check("structural.c", inv_defect, 1e-10, scale))
    blocks, sides = _slow_limit(fam, sub, y_tilde.entries)
    checks += [_check(name, _Norms(side), tol, side_scale)
               for name, side in zip(side_names, sides)]
    return ValidationReport(tuple(checks)), (y_tilde, blocks)


def _slow_limit(fam: ScaledFamily, sub: SubspacePair, yt: np.ndarray):
    """The limit formulas of `elimination` and the side-check blocks, each
    chain evaluated from V^* on the left or from V on the right, so every
    product taken after Y~ has r rows or r columns (r the slow rank):

        R_i        = (sum_l V^* W_il F_l^*) Y~
        V^* L~_i   = V^* G_i - (V^* A Y~) F_i        L_i  = (V^* L~_i) V
        V^* N~_ij  = R_i F_j + V^* W_ij              N_ij = (V^* N~_ij) V
        N~_ij V    = sum_l W_il F_l^* (Y~ F_j V) + W_ij V
        K          = V^* B V - (V^* A Y~) (A V)
        M_i        = R_i (A V) - sum_j V^* W_ij G_j^* V

    Returns (K, (L_i), (M_i), ((N_ij))) and the side-check blocks, on the
    fast basis Q: (V^* L~_i Q), (V^* N~_ij Q) and (Q^* N~_ij V).  Every
    product by V, V^* or Q, Q^* goes through `SubspacePair.compress`, so a
    coordinate projection takes row and column selections in their place.
    """
    c = sub.compress
    a = fam.a.entries
    fs = [f.entries for f in fam.f_ops]
    fhs = [f.conj().T for f in fs]
    ws = [[w.entries for w in row] for row in fam.w_ops]
    vws = [[c(w, "slow") for w in row] for row in ws]
    vay, av = c(a, "slow") @ yt, c(a, right="slow")
    rs = [sum(vw @ fh for vw, fh in zip(row, fhs)) @ yt for row in vws]
    l_rows = [c(g.entries, "slow") - vay @ f for f, g in zip(fs, fam.g_ops)]
    n_rows = [[r @ f + vw for f, vw in zip(fs, row)] for r, row in zip(rs, vws)]
    yfvs = [yt @ c(f, right="slow") for f in fs]
    n_cols = [[sum(w @ (fh @ yfv) for w, fh in zip(row, fhs)) + c(row[j], right="slow")
               for j, yfv in enumerate(yfvs)] for row in ws]
    ghvs = [c(g.entries.conj().T, right="slow") for g in fam.g_ops]
    blocks = (
        c(fam.b.entries, "slow", "slow") - vay @ av,
        tuple(c(x, right="slow") for x in l_rows),
        tuple(r @ av - sum(vw @ ghv for vw, ghv in zip(row, ghvs))
              for r, row in zip(rs, vws)),
        tuple(tuple(c(x, right="slow") for x in row) for row in n_rows),
    )
    sides = (
        [c(x, right="fast") for x in l_rows],
        [c(x, right="fast") for row in n_rows for x in row],
        [c(x, "fast") for row in n_cols for x in row],
    )
    return blocks, sides
