"""Numerical witnesses for both directions of the semigroup limit theorem.

Generator residuals use the corrector expansion u + u1/k + u2/k^2 that
cancels the divergent orders of the prelimit generator; semigroup gaps take
the max over a uniform time grid of the distance between the adjoint
prelimit propagator and the embedded limit propagator, restricted to the
slow subspace; both read one `EliminationResult` and take its limit side
once per study.  Grid studies (semigroup gaps and truncation gaps) take one
expm of the grid step per model and step the uniform grid by repeated
products (`semigroup.propagate_on_grid`); `semigroup.evolve` remains the
per-time API.  All studies are deterministic: loops run in a fixed order
and reports are bit-reproducible for fixed inputs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .elimination import EliminationResult
from .errors import PreconditionFailed
from .operator_core import Operator, spectral_norm
from .qsde_model import QsdeCoefficients, ScaledFamily, _m_from_unitarity, assemble
from .semigroup import FieldAmplitudes, _dressing, generator, propagate_on_grid

log = logging.getLogger(__name__)

RESIDUAL_FLOOR = 1e-14


@dataclass(frozen=True)
class KurtzCorrector:
    """Corrector vectors: u on the slow subspace, u1 and u2 off it."""

    u: np.ndarray
    u1: np.ndarray
    u2: np.ndarray

    def at_k(self, k: float) -> np.ndarray:
        return self.u + self.u1 / k + self.u2 / (k * k)


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-k study values with a fitted log-log rate and a verdict."""

    kind: str
    k_schedule: tuple[float, ...]
    values: tuple[float, ...]
    fitted_rate: float
    t_max: float
    grid_points: int
    verdict: bool
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.values) != len(self.k_schedule):
            raise ValueError("need one value per schedule entry")


def field_dressed_parts(fam: ScaledFamily, amp: FieldAmplitudes):
    """Linear and constant parts of the dressed prelimit generator.

    Returns (a_op, b_op) such that the dressed generator at parameter k
    equals k^2 Y + k a_op + b_op: the dressing of the order-k coefficients
    (A, F, M from F, N = 0) without the vacuum shift, and the dressed
    generator of the order-one coefficients (B, G, M from G, W).
    """
    def coeffs(k_op, l_ops, n_ops):
        m_ops = _m_from_unitarity(fam.w_ops, l_ops)
        return QsdeCoefficients(fam.n, fam.space, k_op, l_ops, m_ops, n_ops)

    zeros = ((Operator.zero(fam.space),) * fam.n,) * fam.n
    a_op = _dressing(coeffs(fam.a, fam.f_ops, zeros), amp)[0]
    b_op = generator(coeffs(fam.b, fam.g_ops, fam.w_ops), amp)
    return Operator(fam.space, a_op), b_op


def kurtz_corrector(result: EliminationResult, amp: FieldAmplitudes,
                    u, tol: float = 1e-9) -> KurtzCorrector:
    """Corrector cancelling the k^2 and k^1 generator orders, from the result's Y~."""
    sub, yt = result.sub, result.y_tilde.entries
    u = np.asarray(u, dtype=np.complex128)
    if np.linalg.norm(sub.p0.entries @ u - u) > tol * max(1.0, np.linalg.norm(u)):
        raise PreconditionFailed("u must be supported on the slow subspace")
    a_op, b_op = field_dressed_parts(result.family, amp)
    u1 = -yt @ (a_op.entries @ u)
    slow_part = (b_op.entries - a_op.entries @ yt @ a_op.entries) @ u
    u2 = -yt @ (sub.p1.entries @ slow_part)
    return KurtzCorrector(u=u, u1=u1, u2=u2)


def _residuals(result: EliminationResult, amp: FieldAmplitudes, u, ks,
               corrector: KurtzCorrector | None = None) -> tuple[float, ...]:
    """Generator residuals for each k; the limit side is applied once."""
    if corrector is None:
        corrector = kurtz_corrector(result, amp, u)
    v = result.compression
    small = generator(result.limit, amp).entries @ (v.conj().T @ np.asarray(u))
    limit_side = v @ small
    return tuple(
        float(np.linalg.norm(
            generator(assemble(result.family, k), amp).entries @ corrector.at_k(k)
            - limit_side
        ))
        for k in ks
    )


def generator_residual(result: EliminationResult, amp: FieldAmplitudes,
                       u, k: float, corrector: KurtzCorrector | None = None) -> float:
    """Norm distance between the corrected prelimit action and the limit action."""
    return _residuals(result, amp, u, (k,), corrector)[0]


def _gaps(result: EliminationResult, amp: FieldAmplitudes, T: float,
          grid_points: int, ks) -> tuple[float, ...]:
    """Semigroup gaps for each k; the limit side is propagated once."""
    v = result.compression
    limit_side = [
        v @ small
        for small in propagate_on_grid(
            result.limit, amp, T, grid_points, np.eye(v.shape[1])
        )
    ]
    gaps = []
    for k in ks:
        gap = 0.0
        pre = assemble(result.family, k)
        for big, embedded in zip(
            propagate_on_grid(pre, amp, T, grid_points, v), limit_side
        ):
            gap = max(gap, float(np.linalg.norm(big - embedded, 2)))
        gaps.append(gap)
    return tuple(gaps)


def semigroup_gap(result: EliminationResult, amp: FieldAmplitudes,
                  T: float, grid_points: int, k: float) -> float:
    """Max over the time grid of the adjoint-propagator distance on the slow subspace.

    At each grid time t the prelimit adjoint propagator is applied to the
    slow isometry v and compared with v times the limit adjoint propagator,
    so only d x r blocks are formed.
    """
    return _gaps(result, amp, T, grid_points, (k,))[0]


def rate_fit(ks, residuals) -> float:
    """Ordinary least-squares slope of log(residual) against log(k)."""
    ks = [float(x) for x in ks]
    residuals = [float(r) for r in residuals]
    if len(ks) != len(residuals) or len(ks) < 3:
        raise ValueError("need at least three (k, residual) pairs")
    if any(r < 0 for r in residuals):
        raise ValueError("residuals must be nonnegative")
    pairs = [(k, r) for k, r in zip(ks, residuals) if r > RESIDUAL_FLOOR]
    dropped = len(ks) - len(pairs)
    if dropped:
        log.info("rate_fit: excluded %d residuals at the numerical floor", dropped)
    if len(pairs) < 2:
        raise ValueError("too few residuals above the numerical floor to fit")
    xs = np.log([p[0] for p in pairs])
    ys = np.log([p[1] for p in pairs])
    return float(np.polyfit(xs, ys, 1)[0])


def _at_floor(values) -> bool:
    return all(val <= RESIDUAL_FLOOR * 10 for val in values)


def _safe_rate(ks, values) -> float:
    try:
        return rate_fit(ks, values)
    except ValueError:
        return math.nan


def generator_study(result: EliminationResult, amp: FieldAmplitudes,
                    k_schedule, u=None, metadata=None) -> ConvergenceReport:
    """Corrected generator residuals over a k-schedule.

    The corrector and the limit generator's action are computed once.
    Verdict: residuals all at the numerical floor, or nonincreasing with a
    clearly negative fitted decay exponent.
    """
    ks = tuple(float(k) for k in k_schedule)
    if len(ks) < 3:
        raise ValueError("need a schedule of >= 3 k-values for rate fitting")
    v = result.compression
    if u is None:
        u = v @ (np.ones(v.shape[1]) / math.sqrt(v.shape[1]))
    values = _residuals(result, amp, u, ks)
    rate = _safe_rate(ks, values)
    monotone = all(a >= b - RESIDUAL_FLOOR for a, b in zip(values, values[1:]))
    verdict = _at_floor(values) or (
        monotone and not math.isnan(rate) and rate <= -0.5
    )
    return ConvergenceReport(
        kind="generator", k_schedule=ks, values=values, fitted_rate=rate,
        t_max=0.0, grid_points=0, verdict=verdict, metadata=dict(metadata or {}),
    )


def semigroup_study(result: EliminationResult, amp: FieldAmplitudes,
                    k_schedule, T: float, grid_points: int,
                    metadata=None) -> ConvergenceReport:
    """Sup-over-grid semigroup gaps over a k-schedule.

    The limit side of the gaps is propagated once for the whole schedule.
    Verdict: the largest-k gap improves on the smallest-k gap by at least a
    factor of five (or everything sits at the numerical floor).
    """
    ks = tuple(float(k) for k in k_schedule)
    if len(ks) < 3:
        raise ValueError("need a schedule of >= 3 k-values for rate fitting")
    values = _gaps(result, amp, T, grid_points, ks)
    rate = _safe_rate(ks, values)
    verdict = _at_floor(values) or values[-1] <= values[0] / 5.0
    return ConvergenceReport(
        kind="semigroup", k_schedule=ks, values=values, fitted_rate=rate,
        t_max=float(T), grid_points=int(grid_points), verdict=verdict,
        metadata=dict(metadata or {}),
    )


def truncation_study(limit_family: QsdeCoefficients, cutoffs, amp: FieldAmplitudes,
                     T: float, grid_points: int, metadata=None) -> ConvergenceReport:
    """Successive gaps between truncations of a fixed coefficient set.

    `limit_family` lives on the reference space; each cutoff c keeps the
    first c+1 basis states.  Requires trivial scattering (N = I), since
    plain compression of a nontrivial N would break unitarity.  Values are
    the gaps between consecutive cutoffs, measured on the smallest
    truncated subspace; the verdict asks for a Cauchy-style decrease.
    """
    cutoffs = tuple(int(c) for c in cutoffs)
    if len(cutoffs) < 2 or any(a >= b for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError("need >= 2 strictly increasing cutoffs")
    d = limit_family.space.total_dim
    if cutoffs[-1] >= d:
        raise ValueError("largest cutoff must stay inside the reference space")
    ident = np.eye(d)
    n_defect = max(
        spectral_norm(
            limit_family.n_ops[i][j]
            - ((1.0 if i == j else 0.0) * Operator(limit_family.space, ident))
        )
        for i in range(limit_family.n)
        for j in range(limit_family.n)
    )
    if n_defect > 1e-12:
        raise ValueError("truncation study requires trivial scattering (N = I)")

    def truncated(cutoff: int) -> QsdeCoefficients:
        p = np.zeros((d, d))
        p[: cutoff + 1, : cutoff + 1] = np.eye(cutoff + 1)
        proj = Operator(limit_family.space, p)
        k_c = proj @ limit_family.k_op @ proj
        l_c = tuple(proj @ l @ proj for l in limit_family.l_ops)
        m_c = tuple(-l.dag() for l in l_c)
        return QsdeCoefficients(
            limit_family.n, limit_family.space, k_c, l_c, m_c, limit_family.n_ops
        )

    window = np.eye(d, cutoffs[0] + 1)
    grids = [
        propagate_on_grid(truncated(c), amp, T, grid_points, window)
        for c in cutoffs
    ]
    gaps = [0.0] * (len(cutoffs) - 1)
    for blocks in zip(*grids):
        for i, (lo, hi) in enumerate(zip(blocks, blocks[1:])):
            gaps[i] = max(gaps[i], float(np.linalg.norm(lo - hi, 2)))
    gaps = tuple(gaps)
    verdict = (
        _at_floor(gaps) or all(a > b for a, b in zip(gaps, gaps[1:]))
        or len(gaps) == 1
    )
    rate = _safe_rate(cutoffs[:-1], gaps) if len(gaps) >= 3 else math.nan
    return ConvergenceReport(
        kind="truncation",
        k_schedule=tuple(float(c) for c in cutoffs[:-1]),
        values=gaps,
        fitted_rate=rate,
        t_max=float(T),
        grid_points=int(grid_points),
        verdict=verdict,
        metadata=dict(metadata or {}),
    )
