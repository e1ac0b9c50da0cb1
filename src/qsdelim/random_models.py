"""Randomized structured fixtures for regression sweeps.

The closed-form parametrization guarantees the unitarity relations by
construction: Hermitian parts are forced by F and G, and the scattering
grid is cut from a unitary.  Fixtures are built through the bounded cavity
construction, which additionally guarantees the subspace requirements.
"""

from __future__ import annotations

import numpy as np

from .models import Fixture, cavity_fixture
from .operator_core import HilbertSpace, Operator


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
        cutoff=cutoff, s=s, f=tuple(f), g=tuple(g),
        e00=e00, e01=e01, e10=e10, e11=e11,
    )
