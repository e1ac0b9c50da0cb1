"""Adiabatic-elimination limit coefficients on the slow subspace.

`eliminate` applies the limit formulas

    K    = P0 (B - A Y~ A) P0
    L_i  = P0 (G_i - A Y~ F_i) P0
    M_i  = -sum_j P0 W_ij (G_j^* - F_j^* Y~ A) P0
    N_ij = sum_l P0 W_il (F_l^* Y~ F_j + delta_lj) P0

and returns them compressed to slow-subspace coordinates through a
deterministic isometry (see `operator_core.subspace_basis`), in the
prepared model that the convergence studies take.  The structural
preconditions are enforced as hard errors: running these formulas on a
family without the required block structure produces meaningless output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InverseMismatch, PreconditionFailed
from .operator_core import (
    DEFAULT_TOL,
    HilbertSpace,
    Operator,
    SubspacePair,
    spectral_norm,
)
from .qsde_model import (
    QsdeCoefficients,
    ScaledFamily,
    _m_from_unitarity,
    _n_limit_sum,
    _structural_report,
    scaled_hp_validate,
)


@dataclass(frozen=True)
class EliminationResult:
    """The prepared model: a family with its limit on the slow subspace.

    Built by `eliminate`, so the family has passed `scaled_hp_validate`
    and the structural check.  The convergence studies take this result
    and reuse its restricted inverse Y~, bases and limit coefficients.
    """

    family: ScaledFamily
    sub: SubspacePair
    limit: QsdeCoefficients
    y_tilde: Operator

    @property
    def compression(self) -> np.ndarray:
        """Full-dim x rank isometry onto the slow subspace."""
        return self.sub.slow_basis()

    def embed(self, x: Operator) -> Operator:
        """Represent a slow-subspace operator on the original space."""
        v = self.compression
        return Operator(self.family.space, v @ x.entries @ v.conj().T)


def _compress(v: np.ndarray, small: HilbertSpace, big: np.ndarray) -> Operator:
    return Operator(small, v.conj().T @ big @ v)


def eliminate(fam: ScaledFamily, sub: SubspacePair,
              tol: float = DEFAULT_TOL) -> EliminationResult:
    """Compute the elimination limit of a validated scaled family."""
    report = scaled_hp_validate(fam, tol)
    if not report.overall:
        raise PreconditionFailed("scaled unitarity relations fail", report)
    report, limit_parts = _structural_report(fam, sub, tol)
    if not report.overall:
        raise PreconditionFailed("structural requirements fail", report)
    yt, n_sum = limit_parts

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
    # M_i = -sum_j W_ij X_j^* with X_j = G_j - A^* Y~^* F_j.
    ay = fam.a.dag() @ yt.dag()
    x_ops = [g - ay @ f for f, g in zip(fam.f_ops, fam.g_ops)]
    m_big = [p0 @ m.entries @ p0 for m in _m_from_unitarity(fam.w_ops, x_ops)]

    limit = QsdeCoefficients(
        n=fam.n,
        space=small,
        k_op=_compress(v, small, k_big),
        l_ops=tuple(_compress(v, small, m) for m in l_big),
        m_ops=tuple(_compress(v, small, m) for m in m_big),
        n_ops=tuple(
            tuple(_compress(v, small, p0 @ op.entries @ p0) for op in row)
            for row in n_sum
        ),
    )
    return EliminationResult(family=fam, sub=sub, limit=limit, y_tilde=yt)


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
    n_ops = _n_limit_sum(s_ops, f_ops, e11_inv)
    return QsdeCoefficients(
        len(f_ops), space, k_op, l_ops, _m_from_unitarity(n_ops, l_ops), n_ops
    )
