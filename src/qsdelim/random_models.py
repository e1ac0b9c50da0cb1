"""Randomized model generators for property tests and regression sweeps.

The closed-form parametrizations guarantee the unitarity relations by
construction: Hermitian parts of Y, A, B are forced by F and G, and the
scattering grid is cut from a unitary.  Structured fixtures are built
through the bounded cavity construction, which additionally guarantees the
subspace requirements.
"""

from __future__ import annotations

import numpy as np

from .models import Fixture, cavity_fixture
from .operator_core import HilbertSpace, Operator
from .qsde_model import QsdeCoefficients, ScaledFamily, _m_from_unitarity


def _ginibre(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def _hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    m = _ginibre(rng, d, scale)
    return 0.5 * (m + m.conj().T)


def _unitary_grid(rng: np.random.Generator, space: HilbertSpace, n: int):
    """n x n grid of operators forming a unitary on C^n (x) space."""
    d = space.total_dim
    q, r = np.linalg.qr(_ginibre(rng, n * d))
    q = q * (np.diag(r) / np.abs(np.diag(r)))  # fix phases for determinism
    return tuple(
        tuple(
            Operator(space, q[i * d:(i + 1) * d, j * d:(j + 1) * d])
            for j in range(n)
        )
        for i in range(n)
    )


def random_scaled_family(rng: np.random.Generator, dim: int, n: int = 1) -> ScaledFamily:
    """Scaled family satisfying the order-by-order unitarity relations."""
    space = HilbertSpace((dim,))
    f = [Operator(space, _ginibre(rng, dim, 0.7)) for _ in range(n)]
    g = [Operator(space, _ginibre(rng, dim, 0.7)) for _ in range(n)]
    zero = Operator.zero(space)
    y = (-0.5) * sum((fi @ fi.dag() for fi in f), zero) \
        + Operator(space, 1j * _hermitian(rng, dim))
    a = (-0.5) * sum((fi @ gi.dag() + gi @ fi.dag() for fi, gi in zip(f, g)), zero) \
        + Operator(space, 1j * _hermitian(rng, dim))
    b = (-0.5) * sum((gi @ gi.dag() for gi in g), zero) \
        + Operator(space, 1j * _hermitian(rng, dim))
    return ScaledFamily(
        n=n, space=space, y=y, a=a, b=b,
        f_ops=tuple(f), g_ops=tuple(g), w_ops=_unitary_grid(rng, space, n),
    )


def random_hp_coefficients(rng: np.random.Generator, dim: int, n: int = 1) -> QsdeCoefficients:
    """Assembled coefficient set satisfying the unitarity relations."""
    space = HilbertSpace((dim,))
    l_ops = tuple(Operator(space, _ginibre(rng, dim, 0.7)) for _ in range(n))
    n_ops = _unitary_grid(rng, space, n)
    zero = Operator.zero(space)
    k = Operator(space, 1j * _hermitian(rng, dim)) \
        + (-0.5) * sum((l @ l.dag() for l in l_ops), zero)
    return QsdeCoefficients(
        n, space, k, l_ops, _m_from_unitarity(n_ops, l_ops), n_ops
    )


def random_structured_fixture(rng: np.random.Generator, hprime_dim: int = 3,
                              n: int = 1, cutoff: int = 3) -> Fixture:
    """Random bounded cavity fixture passing all elimination preconditions."""
    hp = HilbertSpace((hprime_dim,))

    def op(m):
        return Operator(hp, m)

    f = [op(_ginibre(rng, hprime_dim, 0.6)) for _ in range(n)]
    g = [op(_ginibre(rng, hprime_dim, 0.6)) for _ in range(n)]
    zero = Operator.zero(hp)
    e11 = (-0.5) * sum((fi @ fi.dag() for fi in f), zero) \
        + op(1j * _hermitian(rng, hprime_dim, 0.5))
    e10 = op(_ginibre(rng, hprime_dim, 0.5))
    e01 = -sum((gi @ fi.dag() for fi, gi in zip(f, g)), zero) - e10.dag()
    e00 = (-0.5) * sum((gi @ gi.dag() for gi in g), zero) \
        + op(1j * _hermitian(rng, hprime_dim, 0.5))
    s = _unitary_grid(rng, hp, n)
    return cavity_fixture(
        hprime_dim=hprime_dim, cutoff=cutoff, s=s, f=tuple(f), g=tuple(g),
        e00=e00, e01=e01, e10=e10, e11=e11,
    )
