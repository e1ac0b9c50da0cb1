"""Model generators, and an SVD spy, that only the tests use.

`random_scaled_family` and `random_hp_coefficients` draw dense models that
satisfy the unitarity relations by construction (Hermitian parts forced by
F and G, scattering cut from a unitary); `duan_kimble_fast_blocks` and
`duan_kimble_block_indices` give the closed-form 3x3 sector blocks of the
duan-kimble fast generator and where they sit in the full space.
`count_full_size_svds` counts the spectral norms and SVDs taken of
full-size matrices, the norms taken of stacked blocks and every SVD.
`rotated_family` conjugates a fixture by a random unitary.
`field_dressed_parts` forms the dressed parts of a scaled family as
operators.
"""

import dataclasses
import math

import numpy as np

from qsdelim import (
    HilbertSpace, Operator, QsdeCoefficients, ScaledFamily, SubspacePair,
)
from qsdelim.random_models import _ginibre, _hermitian, _unitary_grid
from qsdelim.semigroup import _dressed_products


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
        y=y, a=a, b=b,
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
    return QsdeCoefficients.unitary(k, l_ops, n_ops)


def duan_kimble_fast_blocks(gamma: float, g: float, cutoff: int):
    """Closed-form 3x3 blocks of the fast generator and its partial inverse.

    For each excitation sector j = 1..cutoff, in the block basis
    (|+> phi_j, |-> phi_j, |e> phi_{j-1}), returns (Y_j, Ytilde_j).
    """
    blocks = []
    for j in range(1, cutoff + 1):
        sj = math.sqrt(j)
        yj = np.array([
            [-gamma * j / 2, 0.0, g * sj],
            [0.0, -gamma * j / 2, 0.0],
            [-g * sj, 0.0, -gamma * (j - 1) / 2],
        ])
        dj = gamma ** 2 * j * (j - 1) / 4 + g ** 2 * j
        ytj = (-1.0 / dj) * np.array([
            [gamma * (j - 1) / 2, 0.0, g * sj],
            [0.0, 2 * dj / (gamma * j), 0.0],
            [-g * sj, 0.0, gamma * j / 2],
        ])
        blocks.append((yj, ytj))
    return blocks


def duan_kimble_block_indices(cutoff: int, j: int):
    """Full-space indices of the sector-j block basis vectors."""
    d = cutoff + 1
    return (1 * d + j, 2 * d + j, 0 * d + (j - 1))


def count_full_size_svds(monkeypatch, d: int) -> dict:
    """Patch np.linalg.norm and np.linalg.svd to count calls: "full" on a
    d x d array, "stacked" of np.linalg.norm on a stack of blocks (the one
    call `_norm2` takes for an array of several blocks) and "svd" of
    np.linalg.svd on any array."""
    counts = {"full": 0, "stacked": 0, "svd": 0}

    def spy(real, key):
        def wrapped(x, *args, **kwargs):
            if np.shape(x) == (d, d):
                counts["full"] += 1
            if key == "svd" or np.ndim(x) == 3:
                counts[key] += 1
            return real(x, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "norm", spy(np.linalg.norm, "stacked"))
    monkeypatch.setattr(np.linalg, "svd", spy(np.linalg.svd, "svd"))
    return counts


def rotated_family(fix, seed):
    """The fixture's family and pair conjugated by the Q factor of a
    `default_rng(seed)` complex Gaussian, so that p0 is no coordinate
    projection and its bases come from Gram-Schmidt."""
    fam = fix.family
    d = fam.space.total_dim
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((d, d))
                     + 1j * rng.standard_normal((d, d)))[0]

    def rot(op):
        return Operator(fam.space, u @ op.entries @ u.conj().T)

    rotated = dataclasses.replace(
        fam, y=rot(fam.y), a=rot(fam.a), b=rot(fam.b),
        f_ops=tuple(map(rot, fam.f_ops)), g_ops=tuple(map(rot, fam.g_ops)),
        w_ops=tuple(tuple(map(rot, row)) for row in fam.w_ops),
    )
    return rotated, SubspacePair(rot(fix.sub.p0))


def field_dressed_parts(fam, amp):
    """(a_op, b_op), with the dressed prelimit generator at parameter k
    equal to k^2 Y + k a_op + b_op: the dressing of the order-k coefficients
    (A, F, M from F, N = 0) without the vacuum shift, and the dressed
    generator of the order-one coefficients (B, G, M from G, W), as
    `_dressed_products` of the identity."""
    parts = _dressed_products(fam, amp, np.eye(fam.space.total_dim))
    return tuple(Operator(fam.space, x) for x in parts)
