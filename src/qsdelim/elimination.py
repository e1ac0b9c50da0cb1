"""Adiabatic-elimination limit coefficients on the slow subspace.

`eliminate` applies the limit formulas

    K    = V^* (B - A Y~ A) V
    L_i  = V^* (G_i - A Y~ F_i) V
    M_i  = -sum_j V^* W_ij (G_j^* - F_j^* Y~ A) V
    N_ij = sum_l V^* W_il (F_l^* Y~ F_j + delta_lj) V

in the slow-subspace coordinates of a deterministic isometry V (the
pair's `slow_basis`, see `operator_core.subspace_basis`), and returns them
in the prepared model that the convergence studies take.  The structural
preconditions are enforced as hard errors: running these formulas on a
family without the required block structure produces meaningless output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionFailed, SingularFastDynamics
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
        return self.sub.slow_basis


def eliminate(fam: ScaledFamily, sub: SubspacePair,
              tol: float = DEFAULT_TOL) -> EliminationResult:
    """Compute the elimination limit of a validated scaled family.

    Each limit coefficient is its full-space formula X~ (K~ = B - A Y~ A,
    the structural check's L~_i and N~_ij, and M~ from unitarity)
    compressed to V^* X~ V on the slow basis V.
    """
    report = scaled_hp_validate(fam, tol)
    if not report.overall:
        raise PreconditionFailed("scaled unitarity relations fail", report)
    report, limit_parts = _structural_report(fam, sub, tol)
    if not report.overall:
        raise PreconditionFailed("structural requirements fail", report)
    yt, l_tilde, n_sum = limit_parts

    v = sub.slow_basis
    vh = v.conj().T
    small = HilbertSpace((v.shape[1],))
    a = fam.a.entries
    k_tilde = fam.b.entries - a @ yt.entries @ a
    # M_i = -sum_j W_ij X_j^* with X_j = G_j - A^* Y~^* F_j.
    ay = fam.a.dag() @ yt.dag()
    x_ops = [g - ay @ f for f, g in zip(fam.f_ops, fam.g_ops)]
    m_tilde = _m_from_unitarity(fam.w_ops, x_ops)

    limit = QsdeCoefficients(
        n=fam.n,
        space=small,
        k_op=Operator(small, vh @ k_tilde @ v),
        l_ops=tuple(Operator(small, vh @ x @ v) for x in l_tilde),
        m_ops=tuple(Operator(small, vh @ m.entries @ v) for m in m_tilde),
        n_ops=tuple(
            tuple(Operator(small, vh @ op.entries @ v) for op in row)
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
) -> QsdeCoefficients:
    """Oscillator-elimination limit for bounded atom-cavity couplings.

    Direct evaluation of the closed-form limit on the auxiliary space:
    K = E00 - E01 E11^-1 E10, L_i = G_i - E01 E11^-1 F_i,
    N_ij = sum_l S_il (F_l^* E11^-1 F_j + delta_lj), with M forced by the
    unitarity relations.  Cross-check target for `eliminate` applied to the
    full tensor-product model.  Raises `SingularFastDynamics` when E11 is
    singular or its computed inverse fails the two-sided defect check.
    """
    space = e00.space
    try:
        e11_inv = Operator(space, np.linalg.inv(e11.entries))
    except np.linalg.LinAlgError as exc:
        raise SingularFastDynamics(f"E11 is singular: {exc}") from exc
    ident = Operator.identity(space)
    defect = max(
        spectral_norm(e11 @ e11_inv - ident),
        spectral_norm(e11_inv @ e11 - ident),
    )
    if defect > DEFAULT_TOL * max(1.0, spectral_norm(e11)):
        raise SingularFastDynamics(
            f"computed inverse of E11 fails verification (defect {defect:.3e})"
        )
    k_op = e00 - e01 @ e11_inv @ e10
    l_ops = tuple(g - e01 @ e11_inv @ f for f, g in zip(f_ops, g_ops))
    n_ops = _n_limit_sum(s_ops, f_ops, e11_inv)
    return QsdeCoefficients(
        len(f_ops), space, k_op, l_ops, _m_from_unitarity(n_ops, l_ops), n_ops
    )
