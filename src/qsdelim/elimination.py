"""Adiabatic-elimination limit coefficients on the slow subspace.

`eliminate` applies the limit formulas

    K    = P0 (B - A Y~ A) P0
    L_i  = P0 (G_i - A Y~ F_i) P0
    M_i  = -sum_j P0 W_ij (G_j^* - F_j^* Y~ A) P0
    N_ij = sum_l P0 W_il (F_l^* Y~ F_j + delta_lj) P0

and returns them compressed to slow-subspace coordinates through a
deterministic isometry (see `operator_core.subspace_basis`), so that the
output is directly usable by the semigroup machinery.  The structural
preconditions are enforced as hard errors: running these formulas on a
family without the required block structure produces meaningless output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InverseMismatch, PreconditionFailed
from .operator_core import (
    DEFAULT_COND_LIMIT,
    DEFAULT_TOL,
    HilbertSpace,
    Operator,
    SubspacePair,
    spectral_norm,
)
from .qsde_model import (
    QsdeCoefficients,
    ScaledFamily,
    _structural_report,
    scaled_hp_validate,
)


@dataclass(frozen=True)
class EliminationResult:
    """Limit coefficients on the slow subspace, plus the maps used."""

    limit: QsdeCoefficients
    y_tilde: Operator
    compression: np.ndarray = field(repr=False)  # full-dim x rank isometry

    def embed(self, x: Operator) -> Operator:
        """Represent a slow-subspace operator on the original space."""
        v = self.compression
        return Operator(self.y_tilde.space, v @ x.entries @ v.conj().T)


def _compress(v: np.ndarray, small: HilbertSpace, big: np.ndarray) -> Operator:
    return Operator(small, v.conj().T @ big @ v)


def eliminate(
    fam: ScaledFamily,
    sub: SubspacePair,
    tol: float = DEFAULT_TOL,
    cond_limit: float = DEFAULT_COND_LIMIT,
) -> EliminationResult:
    """Compute the elimination limit of a validated scaled family."""
    report = scaled_hp_validate(fam, tol)
    if not report.overall:
        raise PreconditionFailed("scaled unitarity relations fail", report)
    report, yt = _structural_report(fam, sub, tol=tol, cond_limit=cond_limit)
    if not report.overall:
        raise PreconditionFailed("structural requirements fail", report)

    p0 = sub.p0.entries
    v = sub.slow_basis()
    small = HilbertSpace((v.shape[1],))
    a, b = fam.a.entries, fam.b.entries
    ytm = yt.entries

    k_big = p0 @ (b - a @ ytm @ a) @ p0
    l_big = [
        p0 @ (g.entries - a @ ytm @ f.entries) @ p0
        for f, g in zip(fam.f_ops, fam.g_ops)
    ]
    m_big = []
    for i in range(fam.n):
        acc = np.zeros_like(k_big)
        for j in range(fam.n):
            gj = fam.g_ops[j].entries
            fj = fam.f_ops[j].entries
            acc += fam.w_ops[i][j].entries @ (gj.conj().T - fj.conj().T @ ytm @ a)
        m_big.append(-p0 @ acc @ p0)
    ident = np.eye(fam.space.total_dim)
    n_big = []
    for i in range(fam.n):
        row = []
        for j in range(fam.n):
            acc = np.zeros_like(k_big)
            for ell in range(fam.n):
                inner = fam.f_ops[ell].entries.conj().T @ ytm @ fam.f_ops[j].entries
                if ell == j:
                    inner = inner + ident
                acc += fam.w_ops[i][ell].entries @ inner
            row.append(p0 @ acc @ p0)
        n_big.append(row)

    limit = QsdeCoefficients(
        n=fam.n,
        space=small,
        k_op=_compress(v, small, k_big),
        l_ops=tuple(_compress(v, small, m) for m in l_big),
        m_ops=tuple(_compress(v, small, m) for m in m_big),
        n_ops=tuple(tuple(_compress(v, small, m) for m in row) for row in n_big),
    )
    return EliminationResult(limit=limit, y_tilde=yt, compression=v)


def cavity_closed_form(
    e00: Operator,
    e01: Operator,
    e10: Operator,
    e11: Operator,
    f_ops,
    g_ops,
    s_ops,
    e11_inv: Operator | None = None,
    tol: float = DEFAULT_TOL,
) -> QsdeCoefficients:
    """Oscillator-elimination limit for bounded atom-cavity couplings.

    Direct evaluation of the closed-form limit on the auxiliary space:
    K = E00 - E01 E11^-1 E10, L_i = G_i - E01 E11^-1 F_i,
    N_ij = sum_l S_il (F_l^* E11^-1 F_j + delta_lj), with M forced by the
    unitarity relations.  Cross-check target for `eliminate` applied to the
    full tensor-product model.
    """
    space = e00.space
    n = len(f_ops)
    if e11_inv is None:
        e11_inv = Operator(space, np.linalg.inv(e11.entries))
    ident = Operator.identity(space)
    defect = max(
        spectral_norm(e11 @ e11_inv - ident),
        spectral_norm(e11_inv @ e11 - ident),
    )
    if defect > tol * max(1.0, spectral_norm(e11)):
        raise InverseMismatch(
            f"supplied inverse fails verification (defect {defect:.3e})"
        )
    k_op = e00 - e01 @ e11_inv @ e10
    l_ops = tuple(g - e01 @ e11_inv @ f for f, g in zip(f_ops, g_ops))
    n_ops = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = Operator.zero(space)
            for ell in range(n):
                inner = f_ops[ell].dag() @ e11_inv @ f_ops[j]
                if ell == j:
                    inner = inner + ident
                acc = acc + s_ops[i][ell] @ inner
            row.append(acc)
        n_ops.append(tuple(row))
    n_ops = tuple(n_ops)
    m_ops = tuple(
        -sum((n_ops[i][j] @ l_ops[j].dag() for j in range(n)), Operator.zero(space))
        for i in range(n)
    )
    return QsdeCoefficients(n, space, k_op, l_ops, m_ops, n_ops)
