"""Numerical witnesses for both directions of the semigroup limit theorem.

Generator residuals use the corrector expansion u + u1/k + u2/k^2 that
cancels the k^2 and k^1 orders of the prelimit generator: the residual is
a Laurent polynomial in k whose five orders are matrix-vector products,
formed once by `kurtz_corrector` and summed at each k by
`generator_residual`, with a floor that grows like k^2 |Y|.
Semigroup gaps take the max over a uniform time grid of the distance
between the adjoint prelimit propagator and the embedded limit propagator
on the slow subspace.  Both read one `EliminationResult` and take its
limit side once per study.  Grid studies form each dressed generator once
and hand it to `semigroup.propagate_on_grid`; each gap is an SVD of only
the grid times whose Gram bounds can hold the max (`_gap`).  A
truncation study needs N = I exactly, so its one generator is dressed on
the kept block, from the leading blocks of B, G_i and W up to the largest
cutoff; each cutoff c is propagated from the leading (c+1) x (c+1) block
of it, and a cutoff whose block adds nothing reuses the previous grid.
Schedules pass `_k_values` and strictly increase, and reports are
bit-reproducible for fixed inputs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .elimination import EliminationResult
from .errors import NonFiniteEntries, PreconditionFailed
from .operator_core import DEFAULT_TOL, HilbertSpace, Operator, _norm_bound
from .qsde_model import (
    QsdeCoefficients, ScaledFamily, _k_values, _require_scaled_hp,
    _trivial_scattering, assemble,
)
from .semigroup import (
    FieldAmplitudes, _dressed_products, generator, propagate_on_grid,
)

log = logging.getLogger(__name__)

RESIDUAL_FLOOR = 1e-14
_GAP_MARGIN = 1e-8  # relative margin of `_gap`'s Gram preselection


@dataclass(frozen=True)
class KurtzCorrector:
    """Corrector vectors, u on the slow subspace and u1, u2 off it, and the
    Laurent orders (t2, t1, t0, t_1, t_2) of their generator residual."""

    u: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    orders: tuple


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-k study values, a fitted log-log rate, a verdict, `diagnostics`."""

    kind: str
    k_schedule: tuple[float, ...]
    values: tuple[float, ...]
    fitted_rate: float
    t_max: float
    grid_points: int
    verdict: bool
    diagnostics: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if len(self.values) != len(self.k_schedule):
            raise ValueError("need one value per schedule entry")


def kurtz_corrector(result: EliminationResult, amp: FieldAmplitudes,
                    u) -> KurtzCorrector:
    """Corrector cancelling the k^2 and k^1 generator orders, from the result's Y~.

    u must equal V V^* u on the slow basis V.  With a and b the dressed
    parts, u1 = -Y~ a u and u2 = -Y~ (b - a Y~ a) u = -Y~ (b u + a u1), as
    matrix-vector products (`_dressed_products`): Y~ p1 = Y~ (exactly for
    a coordinate projection, to round-off otherwise), so no p1 is applied.
    With G the limit's dressed generator, the residual of u + u1/k + u2/k^2
    has the orders t2 = Y u, t1 = Y u1 + a u, t0 = Y u2 + a u1 + b u -
    V G V^* u, t_1 = a u2 + b u1 and t_2 = b u2; each vector is dressed once.
    """
    v, yt = result.sub.slow_basis, result.y_tilde.entries
    u = np.asarray(u, dtype=np.complex128)
    bound = DEFAULT_TOL * max(1.0, np.linalg.norm(u))
    if np.linalg.norm(v @ (v.conj().T @ u) - u) > bound:
        raise PreconditionFailed("u must be supported on the slow subspace")
    au, bu = _dressed_products(result.family, amp, u)
    u1 = -yt @ au
    au1, bu1 = _dressed_products(result.family, amp, u1)
    u2 = -yt @ (bu + au1)
    au2, bu2 = _dressed_products(result.family, amp, u2)
    yu, yu1, yu2 = (result.family.y.entries @ np.stack((u, u1, u2), axis=1)).T
    limit_side = v @ (generator(result.limit, amp).entries @ (v.conj().T @ u))
    return KurtzCorrector(u=u, u1=u1, u2=u2, orders=(
        yu, yu1 + au, yu2 + au1 + bu - limit_side, au2 + bu1, bu2))


def generator_residual(cor: KurtzCorrector, k: float) -> float:
    """Norm distance between the corrected prelimit action and the limit
    action at k, |k^2 t2 + k t1 + t0 + t_1/k + t_2/k^2| from the corrector's
    orders; NonFiniteEntries when it is not finite.  k is checked as a float,
    so the message reads `bad k value inf`, and summed as np.float64, so an
    overflowing k^2 raises under the CLI's errstate."""
    (k,) = map(np.float64, _k_values((float(k),)))
    t2, t1, t0, t_1, t_2 = cor.orders
    value = float(np.linalg.norm(k * k * t2 + k * t1 + t0 + t_1 / k + t_2 / (k * k)))
    if not math.isfinite(value):
        raise NonFiniteEntries("generator residuals must be finite")
    return value


def _gaps(result: EliminationResult, amp: FieldAmplitudes, T: float,
          grid_points: int, ks) -> tuple[float, ...]:
    """Semigroup gaps for each k; the limit side is propagated once, and
    each k's gap is taken over its whole grid by `_gap`."""
    v = result.sub.slow_basis
    limit_side = np.stack([v @ small for small in propagate_on_grid(
        generator(result.limit, amp), T, grid_points, np.eye(v.shape[1]))])
    return tuple(
        _gap(np.stack(list(propagate_on_grid(
            generator(assemble(result.family, k), amp), T, grid_points, v
        ))), limit_side)
        for k in ks
    )


def semigroup_gap(result: EliminationResult, amp: FieldAmplitudes,
                  T: float, grid_points: int, k: float) -> float:
    """Max over the time grid of the adjoint-propagator distance on the slow subspace.

    At each grid time t the prelimit adjoint propagator is applied to the
    slow isometry v and compared with v times the limit adjoint propagator,
    so only d x r blocks are formed.
    """
    return _gaps(result, amp, T, grid_points, (k,))[0]


def rate_fit(ks, residuals) -> float:
    """Ordinary least-squares slope of log(residual) against log(k) over
    the pairs above RESIDUAL_FLOOR, of which >= 2 distinct k must remain."""
    ks = [float(x) for x in ks]
    residuals = [float(r) for r in residuals]
    if len(ks) != len(residuals) or len(ks) < 3:
        raise ValueError("need at least three (k, residual) pairs")
    if any(k <= 0 for k in ks) or any(r < 0 for r in residuals):
        raise ValueError("need k > 0 and nonnegative residuals for a log-log fit")
    pairs = [(k, r) for k, r in zip(ks, residuals) if r > RESIDUAL_FLOOR]
    dropped = len(ks) - len(pairs)
    if dropped:
        log.info("rate_fit: excluded %d residuals at the numerical floor", dropped)
    if len({k for k, _ in pairs}) < 2:
        raise ValueError("too few distinct k above the numerical floor to fit")
    xs = np.log([p[0] for p in pairs])
    ys = np.log([p[1] for p in pairs])
    return float(np.polyfit(xs, ys, 1)[0])


def _report(kind: str, ks, values, y_norm: float, rule, t_max: float = 0.0,
            grid_points: int = 0, diagnostics=()) -> ConvergenceReport:
    """A study's report: the `rate_fit` slope of `values` over `ks` (NaN
    where it raises) and the verdict, which passes when every value is
    within 10 times its floor RESIDUAL_FLOOR max(1, k^2 |Y|) or when the
    study's own `rule(values, rate)` holds.  The floor is every study's:
    k^2 Y carries the prelimit generator's norm, so rounding in its action
    and in a stepped propagator grows like k^2 |Y| (the mirror model,
    exact at vacuum, gaps about 3e-17 k^2 |Y|)."""
    try:
        rate = rate_fit(ks, values)
    except ValueError:
        rate = math.nan
    at_floor = all(val <= RESIDUAL_FLOOR * 10 * max(1.0, k * k * y_norm)
                   for k, val in zip(ks, values))
    return ConvergenceReport(
        kind=kind, k_schedule=tuple(ks), values=tuple(values), fitted_rate=rate,
        t_max=float(t_max), grid_points=int(grid_points),
        verdict=at_floor or rule(values, rate), diagnostics=tuple(diagnostics))


def _increasing(values: tuple, least: int, what: str) -> tuple:
    """`values` if it holds >= `least` strictly increasing entries, the rule
    of every study's schedule, so that its rate fit and verdict read the
    schedule in one order; ValueError otherwise."""
    if len(values) < least or any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError(f"need >= {least} strictly increasing {what}")
    return values


def generator_study(result: EliminationResult, amp: FieldAmplitudes,
                    k_schedule) -> ConvergenceReport:
    """Corrected generator residuals over a k-schedule: one `kurtz_corrector`,
    for u = V 1 / sqrt(r) (the normalized sum of the r slow basis vectors),
    and one `generator_residual` per k; its diagnostics are the norms of the
    k^2, k^1 and k^0 orders, which the corrector and the limit cancel.
    Verdict (`_report`, |Y| from `_norm_bound`, no SVD): residuals all at
    the floor, since k^2 Y u rounds like k^2, or a rate rule:
    nonincreasing with a clearly negative fitted decay exponent."""
    ks = _increasing(_k_values(map(float, k_schedule)), 3, "k-values")
    v = result.sub.slow_basis
    u = v @ (np.ones(v.shape[1]) / math.sqrt(v.shape[1]))
    cor = kurtz_corrector(result, amp, u)
    return _report(
        "generator", ks, tuple(generator_residual(cor, k) for k in ks),
        _norm_bound(result.family.y.entries),
        lambda vals, rate: rate <= -0.5 and all(
            a >= b - RESIDUAL_FLOOR for a, b in zip(vals, vals[1:])),
        diagnostics=zip(("order_k2_norm", "order_k1_norm", "order_k0_norm"),
                        (float(np.linalg.norm(t)) for t in cor.orders[:3])))


def semigroup_study(result: EliminationResult, amp: FieldAmplitudes,
                    k_schedule, T: float, grid_points: int) -> ConvergenceReport:
    """Sup-over-grid semigroup gaps over a k-schedule.

    The limit side of the gaps is propagated once for the whole schedule.
    Verdict (`_report`, |Y| from `_norm_bound`): all gaps at the floor,
    since each step's exponential rounds like k^2 |Y|, or a reduction rule:
    the largest-k gap improves on the smallest-k gap by at least a factor
    of five.
    """
    ks = _increasing(_k_values(map(float, k_schedule)), 3, "k-values")
    return _report("semigroup", ks, _gaps(result, amp, T, grid_points, ks),
                   _norm_bound(result.family.y.entries),
                   lambda vals, _: vals[-1] <= vals[0] / 5.0, T, grid_points)


def _gap(lo: np.ndarray, hi: np.ndarray) -> float:
    """Largest singular value over a stack of m x n matrices lo - hi, with
    the bits of `np.linalg.svd(lo - hi, compute_uv=False).max()` (0.0 with
    no LAPACK call when all zero or empty), from an SVD of only the slices
    that can hold it.  Scaled by its largest |entry|, so that its Gram
    products can neither overflow nor lose the top to underflow, each
    slice's Gram matrix G bounds its sigma_max^2 = lambda_max(G) with no
    factorization: above by |G|_F, below by the larger of its largest
    diagonal entry and |G|_F^2 / tr G.  The slices whose upper bound is
    within _GAP_MARGIN = 1e-8 relative of the largest lower bound go to
    one batched SVD.  The margin covers the rounding of G and its sums
    (about m n eps) and LAPACK's own (about n eps), and LAPACK takes each
    slice on its own, so the max keeps its bits.  Every slice goes when
    100 m n eps > 1e-8 or a value is not finite (with |entry| <= 1 after
    scaling, no Gram sum can overflow).
    """
    diff = lo - hi
    if not diff.any():
        return 0.0
    m, n = diff.shape[-2:]
    take = slice(None)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is inf
        scale = float(np.abs(diff).max())
    if math.isfinite(scale) and 100 * m * n * np.finfo(float).eps <= _GAP_MARGIN:
        x = diff / scale
        xh = x.conj().swapaxes(-1, -2)
        gram = xh @ x if m >= n else x @ xh
        diag = gram.diagonal(axis1=-2, axis2=-1).real
        trace = diag.sum(axis=-1)
        fro2 = (gram.real ** 2 + gram.imag ** 2).sum(axis=(-2, -1))
        ratio = np.divide(fro2, trace, out=np.zeros_like(trace),
                          where=trace > 0)  # a zero slice has tr G = 0
        low = np.maximum(diag.max(axis=-1), ratio).max()
        take = np.sqrt(fro2) * (1.0 + _GAP_MARGIN) >= low * (1.0 - _GAP_MARGIN)
    return float(np.linalg.svd(diff[take], compute_uv=False).max())


def truncation_study(fam: ScaledFamily, cutoffs, amp: FieldAmplitudes,
                     T: float, grid_points: int,
                     tol: float = DEFAULT_TOL) -> ConvergenceReport:
    """Successive gaps between truncations of a fixed-coefficient model.

    Cutoff c keeps the first c+1 basis states.  ValueError, in this order:
    bad cutoffs (one `_k_values` rejects, fewer than 2, not increasing,
    one outside the space), Y, A or F nonzero, more than one tensor
    factor, W not exactly I (compressing any other W breaks unitarity);
    then PreconditionFailed with the report if `scaled_hp_validate` fails
    at `tol`, as in `eliminate`.  With W = delta_ij I, M = -L^* and every
    dressing term acts entry by entry, so the one generator is dressed on
    the kept block, from the leading (c_max+1) x (c_max+1) blocks of B,
    G_i and W for the largest cutoff c_max: it is bit for bit the leading
    block of the model's full dressed generator, and its leading
    (c+1) x (c+1) block is, bit for bit, cutoff c's; on the whole space
    the truncation adds a multiple of I on the dropped states, which the
    propagated states never reach, so only the block is propagated.  A
    cutoff whose kept B and G are zero outside the previous cutoff's block
    reuses that grid: its gap is exactly 0.0.  Values: per consecutive
    pair, the max over the grid of the spectral distance of the propagated
    first cutoffs[0]+1 states (`_gap`); verdict (`_report`, Y = 0): all
    gaps at the floor RESIDUAL_FLOOR, or a Cauchy rule: a strict decrease
    (or a single gap).
    """
    cutoffs = _increasing(tuple(map(int, _k_values(cutoffs, True))), 2, "cutoffs")
    if cutoffs[-1] >= fam.space.total_dim:
        raise ValueError("largest cutoff must stay inside the reference space")
    if any(np.any(op.entries) for op in (fam.y, fam.a, *fam.f_ops)):
        raise ValueError("truncation needs a fixed-coefficient model (Y = A = F = 0)")
    if len(fam.space.factor_dims) > 1:
        raise ValueError(
            "truncation cuts the flattened index, so it needs one tensor factor"
        )
    if not _trivial_scattering(fam.w_ops):
        raise ValueError("truncation study requires trivial scattering (N = I)")
    _require_scaled_hp(fam, tol)

    rows, width = cutoffs[-1] + 1, cutoffs[0] + 1
    kept_space = HilbertSpace((rows,))

    def lead(op):
        return Operator(kept_space, op.entries[:rows, :rows])

    gen = generator(QsdeCoefficients.unitary(
        lead(fam.b), tuple(map(lead, fam.g_ops)),
        tuple(tuple(map(lead, row)) for row in fam.w_ops)), amp).entries
    grids = []
    for prev, c in zip((None, *cutoffs), cutoffs):
        kept = [op.entries[: c + 1, : c + 1] for op in (fam.b, *fam.g_ops)]
        if prev is not None and not any(
            np.any(m[prev + 1:]) or np.any(m[:, prev + 1:]) for m in kept
        ):
            grids.append(grids[-1])
            continue
        cut = Operator(HilbertSpace((c + 1,)), gen[: c + 1, : c + 1])
        grid = np.zeros((int(grid_points), rows, width), dtype=np.complex128)
        grid[:, : c + 1] = list(  # zero below row c + 1
            propagate_on_grid(cut, T, grid_points, np.eye(c + 1, width)))
        grids.append(grid)
    return _report("truncation", tuple(float(c) for c in cutoffs[:-1]),
                   tuple(_gap(lo, hi) for lo, hi in zip(grids, grids[1:])), 0.0,
                   lambda vals, _: all(a > b for a, b in zip(vals, vals[1:])),
                   T, grid_points)
