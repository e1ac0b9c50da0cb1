"""Adiabatic-elimination limit coefficients on the slow subspace.

`eliminate` applies the limit formulas

    K    = V^* (B - A Y~ A) V
    L_i  = V^* (G_i - A Y~ F_i) V
    M_i  = -sum_j V^* W_ij (G_j^* - F_j^* Y~ A) V
    N_ij = sum_l V^* W_il (F_l^* Y~ F_j + delta_lj) V

in the slow-subspace coordinates of a deterministic isometry V (the
pair's `slow_basis`, see `operator_core.subspace_basis`), and returns them
in the prepared model that the convergence studies take; the structural
check evaluates them with no full-size product after Y~
(`qsde_model._slow_limit`).  M is evaluated, not forced, so `hp_validate`
of the limit checks it against the M of `QsdeCoefficients.unitary`.  The
structural preconditions are enforced as hard errors: running these
formulas on a family without the required block structure produces
meaningless output.
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
    _structural_report,
    _require_scaled_hp,
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


def eliminate(fam: ScaledFamily, sub: SubspacePair,
              tol: float = DEFAULT_TOL) -> EliminationResult:
    """Compute the elimination limit of a validated scaled family: the
    blocks that its structural check formed, as slow-coordinate operators."""
    _require_scaled_hp(fam, tol)
    report, limit_parts = _structural_report(fam, sub, tol)
    if not report.overall:
        raise PreconditionFailed("structural requirements fail", report)
    yt, (k, l_blocks, m_blocks, n_blocks) = limit_parts
    small = HilbertSpace((k.shape[0],))

    def wrap(blocks):
        return tuple(Operator(small, x) for x in blocks)

    limit = QsdeCoefficients(Operator(small, k), wrap(l_blocks), wrap(m_blocks),
                             tuple(map(wrap, n_blocks)))
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
    unitarity relations (`QsdeCoefficients.unitary`).  Cross-check target
    for `eliminate` applied to the full tensor-product model.  Raises
    `SingularFastDynamics` when E11 is singular or its computed inverse
    fails the two-sided defect check.
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
    # N_ij = S_ij + sum_l S_il F_l^* E11^-1 F_j, the delta_lj term summed.
    n_ops = tuple(
        tuple(sum((s @ fl.dag() @ e11_inv @ fj for s, fl in zip(row, f_ops)), row[j])
              for j, fj in enumerate(f_ops))
        for row in s_ops
    )
    return QsdeCoefficients.unitary(k_op, l_ops, n_ops)
