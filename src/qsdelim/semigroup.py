"""Field-dressed generators, contraction semigroups, and matrix elements.

The unitary solution of the stochastic equation is never materialized (it
lives on an infinite-dimensional field space); only its matrix elements
between exponential vectors of simple functions are computed, and those
reduce to ordered products of finite-dimensional semigroups.
The whole field dressing lives here (`FieldAmplitudes.shift`,
`generator`, and `_dressed_products` for a scaled family), and so does the
time grid's step (`_grid_step`) that `propagate_on_grid` and the norm table take.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operator_core import Operator, matrix_exponential


@dataclass(frozen=True)
class FieldAmplitudes:
    """Finite coherent test amplitudes, one pair of complex scalars per channel."""

    alpha: tuple[complex, ...]
    beta: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(complex(z) for z in self.alpha))
        object.__setattr__(self, "beta", tuple(complex(z) for z in self.beta))
        if len(self.alpha) != len(self.beta):
            raise ValueError("alpha and beta must have equal channel counts")
        if not np.isfinite(self.shift):  # a NaN, an inf or a square past float64
            raise ValueError(
                "amplitudes must be finite with finite |alpha|^2 + |beta|^2")

    @classmethod
    def vacuum(cls, n: int) -> "FieldAmplitudes":
        return cls((0.0,) * n, (0.0,) * n)

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def shift(self) -> float:
        """The dressing's vacuum shift (|alpha|^2 + |beta|^2) / 2; inf past
        float64, not an overflow error, so that the constructor rejects it."""
        a, b = np.asarray(self.alpha), np.asarray(self.beta)
        with np.errstate(over="ignore"):
            return float(0.5 * (np.vdot(a, a).real + np.vdot(b, b).real))


@dataclass(frozen=True)
class SimpleFunction:
    """Piecewise-constant C^n-valued function on [0, t].

    `breakpoints` are 0 = t_0 < ... < t_{m+1} = t; `values[j]` holds on
    [t_j, t_{j+1}).
    """

    breakpoints: tuple[float, ...]
    values: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        bp = tuple(float(s) for s in self.breakpoints)
        vals = tuple(tuple(complex(z) for z in v) for v in self.values)
        if len(bp) < 2 or bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0 and contain an endpoint")
        if any(s >= t for s, t in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(vals) != len(bp) - 1:
            raise ValueError("need one value per interval")
        if len({len(v) for v in vals}) > 1:
            raise ValueError("all values must share one channel count")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, value, t: float) -> "SimpleFunction":
        return cls((0.0, float(t)), (tuple(value),))

    @property
    def n(self) -> int:
        return len(self.values[0])

    @property
    def t_max(self) -> float:
        return self.breakpoints[-1]

    def value_at(self, s: float) -> tuple[complex, ...]:
        idx = int(np.searchsorted(self.breakpoints, s, side="right")) - 1
        return self.values[min(idx, len(self.values) - 1)]

    def norm_squared(self) -> float:
        """Closed-form integral of |f|^2 over [0, t]."""
        total = 0.0
        for (s, t), v in zip(zip(self.breakpoints, self.breakpoints[1:]), self.values):
            total += (t - s) * sum(abs(z) ** 2 for z in v)
        return total


def generator(c, amp: FieldAmplitudes) -> Operator:
    """Semigroup generator dressed with coherent amplitudes.

    sum_ij a_i^* N_ij b_j + sum_i a_i^* M_i + sum_i L_i b_i + K
    - (|a|^2 + |b|^2)/2.
    """
    if amp.n != c.n:
        raise ValueError(f"amplitude channel count {amp.n} != model {c.n}")
    alpha, beta = np.asarray(amp.alpha), np.asarray(amp.beta)
    m = c.k_op.entries.astype(np.complex128, copy=True)
    for i in range(c.n):
        ai = alpha[i].conjugate()
        m += ai * c.m_ops[i].entries
        m += beta[i] * c.l_ops[i].entries
        for j in range(c.n):
            m += ai * beta[j] * c.n_ops[i][j].entries
    m -= amp.shift * np.eye(c.space.total_dim)
    return Operator(c.space, m)


def _dressed_products(fam, amp: FieldAmplitudes, x: np.ndarray):
    """(a x, b x) for x a vector or a block of columns, with k^2 Y + k a + b
    the dressed prelimit generator at k (a: A, F and M from F, no vacuum
    shift; b: B, G, M from G, and W), forming neither part: each M_i =
    -sum_j W_ij L_j^* from unitarity is applied as W_ij (L_j^* x), and
    L_j^* x is taken as (x^* L_j)^*, with no conjugated copy of L_j.  A
    term whose amplitude coefficient is exactly 0 is left out (the F_i, G_i
    terms for beta_i = 0, the W_ij terms for alpha_i = 0): it adds only
    signed zeros.  At vacuum amplitudes a x = A x and b x = B x."""
    if amp.n != fam.n:
        raise ValueError(f"amplitude channel count {amp.n} != model {fam.n}")
    alpha, beta = np.conj(amp.alpha), np.asarray(amp.beta)
    ax, bx = fam.a.entries @ x, fam.b.entries @ x - amp.shift * x
    if alpha.any():
        xh = x.conj().T
        fhx = [(xh @ f.entries).conj().T for f in fam.f_ops]
        ghx = [bj * x - (xh @ g.entries).conj().T for bj, g in zip(beta, fam.g_ops)]
    for i, row in enumerate(fam.w_ops):
        if beta[i]:
            ax += beta[i] * (fam.f_ops[i].entries @ x)
            bx += beta[i] * (fam.g_ops[i].entries @ x)
        if alpha[i]:
            for w, fh, gh in zip(row, fhx, ghx):
                ax -= alpha[i] * (w.entries @ fh)
                bx += alpha[i] * (w.entries @ gh)
    return ax, bx


def evolve(c, amp: FieldAmplitudes, t: float) -> Operator:
    """Semigroup element exp(t * generator); a contraction for valid models."""
    return matrix_exponential(generator(c, amp), t)


def _grid_step(gen: Operator, T: float, grid_points: int) -> np.ndarray:
    """exp(dt * gen)^dagger, one expm, the step dt = T / (grid_points - 1)
    of a uniform grid of `grid_points` times in [0, T].  ValueError unless
    T is positive and finite and grid_points >= 2."""
    T, grid_points = float(T), int(grid_points)
    if not (np.isfinite(T) and T > 0):
        raise ValueError("T must be positive and finite")
    if grid_points < 2:
        raise ValueError("need at least two grid points")
    return matrix_exponential(gen, T / (grid_points - 1)).entries.conj().T


def propagate_on_grid(gen: Operator, T: float, grid_points: int, block):
    """Adjoint propagators of `gen` applied to `block` on a uniform time grid.

    Yields exp(t * gen)^dagger @ block for t in np.linspace(0, T,
    grid_points), by repeated products with the step (`_grid_step`), since
    exp(m dt G) = exp(dt G)^m.  Only the current block is kept, so memory
    does not grow with the grid.  Arguments are checked when the function
    is called, not when iteration starts.
    """
    step = _grid_step(gen, T, grid_points)

    def blocks(current):
        for _ in range(int(grid_points) - 1):
            yield current
            current = step @ current
        yield current

    return blocks(np.asarray(block, dtype=np.complex128))


def dissipativity_check(c, amp: FieldAmplitudes) -> float:
    """Largest eigenvalue of the Hermitian part of the dressed generator.

    Nonpositive (up to roundoff) whenever the unitarity relations hold.
    """
    g = generator(c, amp).entries
    herm = g + g.conj().T
    return float(np.linalg.eigvalsh(herm).max())


def _refine(f1: SimpleFunction, f2: SimpleFunction):
    points = sorted(set(f1.breakpoints) | set(f2.breakpoints))
    for s, t in zip(points, points[1:]):
        yield s, t, f1.value_at(s), f2.value_at(s)


def matrix_element_U(c, u1, u2, f1: SimpleFunction, f2: SimpleFunction,
                     t: float) -> complex:
    """Matrix element of the stochastic evolution on exponential vectors.

    <u1 (x) e(f1), U_t u2 (x) e(f2)> computed over the common refinement of
    the two partitions as ||e(f1)|| ||e(f2)|| times the ordered product of
    per-interval dressed semigroups applied between u1 and u2.
    """
    t = float(t)
    if f1.n != c.n or f2.n != c.n:
        raise ValueError("simple-function channel count does not match model")
    for f in (f1, f2):
        if abs(f.t_max - t) > 1e-12 * max(1.0, t):
            raise ValueError("simple functions must be defined on [0, t]")
    u1 = np.asarray(u1, dtype=np.complex128)
    u2 = np.asarray(u2, dtype=np.complex128)
    prod = np.eye(c.space.total_dim, dtype=np.complex128)
    for s, e, a, b in _refine(f1, f2):
        step = evolve(c, FieldAmplitudes(a, b), e - s)
        prod = prod @ step.entries
    norms = np.exp(0.5 * (f1.norm_squared() + f2.norm_squared()))
    return complex(norms * (u1.conj() @ prod @ u2))
