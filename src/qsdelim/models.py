"""Built-in model fixtures and the truncated oscillator toolbox.

Each fixture bundles a scaled family, the slow subspace, the parameters it
was built from, and (where a closed form exists) the expected limit
coefficients for regression.  Constructors are deterministic: the same
parameters always produce bit-identical operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionFailed
from .operator_core import HilbertSpace, Operator, SubspacePair, tensor_embed
from .qsde_model import QsdeCoefficients, ScaledFamily, scaled_hp_validate
from .elimination import cavity_closed_form


@dataclass(frozen=True)
class FockToolbox:
    """Ladder operators on the (cutoff+1)-dimensional oscillator truncation.

    Truncation convention: the raising action out of the top retained state
    is dropped, so b_dag is exactly the adjoint matrix of b and
    b_dag @ b = diag(0, 1, ..., cutoff) holds without boundary artifacts
    (the commutator [b, b_dag] picks up the usual defect in the last entry).
    """

    cutoff: int
    space: HilbertSpace
    b: Operator
    b_dag: Operator
    number: Operator


def fock_toolbox(cutoff: int) -> FockToolbox:
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    d = cutoff + 1
    space = HilbertSpace((d,))
    m = np.zeros((d, d))
    for i in range(1, d):
        m[i - 1, i] = math.sqrt(i)
    b = Operator(space, m)
    return FockToolbox(
        cutoff=cutoff,
        space=space,
        b=b,
        b_dag=b.dag(),
        number=Operator(space, np.diag(np.arange(d, dtype=float))),
    )


@dataclass(frozen=True)
class Fixture:
    name: str
    family: ScaledFamily
    sub: SubspacePair
    expected_limit: QsdeCoefficients | None = None
    params: dict = field(default_factory=dict)


def cavity_fixture(hprime_dim, cutoff, s, f, g, e00, e01, e10, e11) -> Fixture:
    """Strongly damped oscillator coupled to a bounded auxiliary system.

    Builds Y = E11 (x) b^dag b, A = E10 (x) b^dag + E01 (x) b,
    B = E00 (x) I, F_i = F_i (x) b^dag, G_i = G_i (x) I, W_ij = S_ij (x) I
    on hprime (x) oscillator, with the slow subspace hprime (x) vacuum.
    The expected limit comes from the closed-form proposition coefficients.
    """
    n = len(f)
    fock = fock_toolbox(cutoff)
    space = HilbertSpace((hprime_dim, cutoff + 1))

    def up(x: Operator) -> Operator:
        return tensor_embed(x, 0, space)

    bd = tensor_embed(fock.b_dag, 1, space)
    bb = tensor_embed(fock.number, 1, space)
    b_low = tensor_embed(fock.b, 1, space)

    fam = ScaledFamily(
        n=n,
        space=space,
        y=up(e11) @ bb,
        a=up(e10) @ bd + up(e01) @ b_low,
        b=up(e00),
        f_ops=tuple(up(fi) @ bd for fi in f),
        g_ops=tuple(up(gi) for gi in g),
        w_ops=tuple(tuple(up(s[i][j]) for j in range(n)) for i in range(n)),
    )
    report = scaled_hp_validate(fam)
    if not report.overall:
        raise PreconditionFailed("cavity coefficients violate unitarity", report)
    sub = SubspacePair.from_basis_indices(
        space, range(0, space.total_dim, cutoff + 1)
    )
    expected = cavity_closed_form(e00, e01, e10, e11, f, g, s)
    return Fixture(
        name="cavity",
        family=fam,
        sub=sub,
        expected_limit=expected,
        params={"hprime_dim": hprime_dim, "cutoff": cutoff},
    )


def duan_kimble_fixture(gamma: float, g: float, drive_alpha: complex,
                        cutoff: int) -> Fixture:
    """Lambda atom in a strongly coupled, strongly damped cavity.

    Three-level atom (basis |e>, |+>, |->) on C^3 tensored with a truncated
    cavity mode; the slow subspace is the two ground levels with the cavity
    in vacuum.  The closed-form limit is a driven two-level scattering
    model on that plane.
    """
    if gamma <= 0 or g == 0:
        raise ValueError("need gamma > 0 and g != 0")
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    alpha = complex(drive_alpha)
    atom = HilbertSpace((3,))

    def atom_op(r, c):
        m = np.zeros((3, 3))
        m[r, c] = 1.0
        return Operator(atom, m)

    sig_p_plus = atom_op(0, 1)   # |e><+|
    sig_p_minus = atom_op(0, 2)  # |e><-|
    sig_m_plus = sig_p_plus.dag()
    sig_m_minus = sig_p_minus.dag()

    fock = fock_toolbox(cutoff)
    space = HilbertSpace((3, cutoff + 1))
    bd = tensor_embed(fock.b_dag, 1, space)
    b_low = tensor_embed(fock.b, 1, space)
    bb = tensor_embed(fock.number, 1, space)

    def up(x: Operator) -> Operator:
        return tensor_embed(x, 0, space)

    y = (-gamma / 2) * bb + g * (up(sig_m_plus) @ bd - up(sig_p_plus) @ b_low)
    a = up(alpha.conjugate() * sig_m_minus - alpha * sig_p_minus)
    fam = ScaledFamily(
        n=1,
        space=space,
        y=y,
        a=a,
        b=Operator.zero(space),
        f_ops=(math.sqrt(gamma) * bd,),
        g_ops=(Operator.zero(space),),
        w_ops=((Operator.identity(space),),),
    )
    # Slow subspace: |+> and |-> with the cavity in vacuum.
    sub = SubspacePair.from_basis_indices(space, (cutoff + 1, 2 * (cutoff + 1)))

    small = HilbertSpace((2,))
    p_minus = Operator(small, np.diag([0.0, 1.0]))
    flip = Operator(small, np.array([[0.0, 0.0], [1.0, 0.0]]))  # |-><+|
    k_lim = (-abs(alpha) ** 2 * gamma / (2 * g ** 2)) * p_minus
    l_lim = (-alpha.conjugate() * math.sqrt(gamma) / g) * flip
    n_lim = Operator.identity(small) - 2 * p_minus
    m_lim = -(n_lim @ l_lim.dag())
    expected = QsdeCoefficients(1, small, k_lim, (l_lim,), (m_lim,), ((n_lim,),))
    return Fixture(
        name="duan-kimble",
        family=fam,
        sub=sub,
        expected_limit=expected,
        params={"gamma": gamma, "g": g, "drive_alpha": alpha, "cutoff": cutoff},
    )


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


def mirror_fixture(gamma: float, theta: float, omega: float,
                   mirror_cutoff: int, cavity_cutoff: int) -> Fixture:
    """Cavity with an oscillating mirror, in the strong damping limit.

    The cavity mode is eliminated; the limit is pure scattering off the
    mirror displacement, computed here by functional calculus on the
    truncated Hermitian displacement operator.
    """
    if min(gamma, theta, omega) <= 0:
        raise ValueError("gamma, theta, omega must be positive")
    if mirror_cutoff < 2 or cavity_cutoff < 2:
        raise ValueError("cutoffs must be >= 2")
    mirror = fock_toolbox(mirror_cutoff)
    cavity = fock_toolbox(cavity_cutoff)
    space = HilbertSpace((mirror_cutoff + 1, cavity_cutoff + 1))

    x_small = mirror.b + mirror.b_dag
    fast_small = 1j * theta * x_small - (gamma / 2) * Operator.identity(mirror.space)
    y = tensor_embed(fast_small, 0, space) @ tensor_embed(cavity.number, 1, space)
    b_coef = tensor_embed(1j * omega * (mirror.b_dag @ mirror.b), 0, space)
    fam = ScaledFamily(
        n=1,
        space=space,
        y=y,
        a=Operator.zero(space),
        b=b_coef,
        f_ops=(math.sqrt(gamma) * tensor_embed(cavity.b_dag, 1, space),),
        g_ops=(Operator.zero(space),),
        w_ops=((Operator.identity(space),),),
    )
    sub = SubspacePair.from_basis_indices(
        space, range(0, space.total_dim, cavity_cutoff + 1)
    )

    # Limit scattering (i theta x + gamma/2) / (i theta x - gamma/2) by
    # spectral calculus on the truncated Hermitian displacement.
    evals, q = np.linalg.eigh(x_small.entries)
    scatter = q @ np.diag(
        (1j * theta * evals + gamma / 2) / (1j * theta * evals - gamma / 2)
    ) @ q.conj().T
    small = mirror.space
    n_lim = Operator(small, scatter)
    expected = QsdeCoefficients(
        1,
        small,
        1j * omega * (mirror.b_dag @ mirror.b),
        (Operator.zero(small),),
        (Operator.zero(small),),
        ((n_lim,),),
    )
    return Fixture(
        name="mirror",
        family=fam,
        sub=sub,
        expected_limit=expected,
        params={
            "gamma": gamma,
            "theta": theta,
            "omega": omega,
            "mirror_cutoff": mirror_cutoff,
            "cavity_cutoff": cavity_cutoff,
        },
    )


DRIVEN_DETUNING = 0.7
DRIVEN_DRIVE = 0.4 + 0.2j
DRIVEN_KAPPA = 1.0


def _driven_parts(fock: FockToolbox) -> tuple[Operator, Operator]:
    """Detuned driven Hamiltonian H and damping L = sqrt(DRIVEN_KAPPA) b."""
    h = (DRIVEN_DETUNING * fock.number + DRIVEN_DRIVE * fock.b
         + DRIVEN_DRIVE.conjugate() * fock.b_dag)
    return h, math.sqrt(DRIVEN_KAPPA) * fock.b


def _scattering_free_limit(h: Operator, l1: Operator) -> QsdeCoefficients:
    """K = iH - (1/2) L L^dag, M = -L^dag and N = I on the space of H."""
    k = 1j * h + (-0.5) * (l1 @ l1.dag())
    return QsdeCoefficients(
        1, h.space, k, (l1,), (-l1.dag(),), ((Operator.identity(h.space),),),
    )


def driven_oscillator_limit(cutoff: int) -> QsdeCoefficients:
    """Driven damped oscillator used as the truncation-study target.

    K = iH - (1/2) L L^dag with L = sqrt(DRIVEN_KAPPA) b and
    H = DRIVEN_DETUNING b^dag b + DRIVEN_DRIVE b + conj(DRIVEN_DRIVE) b^dag;
    trivial scattering so that simple truncation preserves unitarity.
    """
    return _scattering_free_limit(*_driven_parts(fock_toolbox(cutoff)))


def windowed_oscillator_limit(cutoff: int, window: int) -> QsdeCoefficients:
    """Variant of `driven_oscillator_limit` (same DRIVEN_* constants) whose
    K and L are supported on the first `window` states.

    Truncating at any cutoff >= window - 1 reproduces the coefficients
    exactly, so the truncation gap vanishes identically.
    """
    if not 1 <= window <= cutoff + 1:
        raise ValueError("window must fit inside the truncated space")
    fock = fock_toolbox(cutoff)
    h, l1 = _driven_parts(fock)
    proj = Operator(fock.space, np.diag(np.arange(cutoff + 1) < window))
    return _scattering_free_limit(proj @ h @ proj, proj @ l1 @ proj)


def trivial_family_from_limit(limit: QsdeCoefficients) -> tuple[ScaledFamily, SubspacePair]:
    """Wrap fixed coefficients as a degenerate scaled family (nothing fast)."""
    space = limit.space
    zero = Operator.zero(space)
    fam = ScaledFamily(
        n=limit.n,
        space=space,
        y=zero,
        a=zero,
        b=limit.k_op,
        f_ops=tuple(zero for _ in range(limit.n)),
        g_ops=limit.l_ops,
        w_ops=limit.n_ops,
    )
    sub = SubspacePair(Operator.identity(space))
    return fam, sub


def _default_cavity() -> Fixture:
    hp = HilbertSpace((2,))

    def op(m):
        return Operator(hp, np.asarray(m, dtype=complex))

    f1 = op(math.sqrt(2.0) * np.eye(2))
    g1 = op([[0.0, 0.7], [0.0, 0.0]])
    e11 = op(-np.eye(2))
    e10 = op([[0.0, 0.0], [0.4, 0.0]])
    e01 = -(g1 @ f1.dag()) - e10.dag()
    e00 = (-0.5) * (g1 @ g1.dag()) + op(1j * np.diag([0.3, -0.2]))
    s = ((op(np.eye(2)),),)
    return cavity_fixture(
        hprime_dim=2, cutoff=3, s=s, f=(f1,), g=(g1,),
        e00=e00, e01=e01, e10=e10, e11=e11,
    )


def _truncation_demo_fixture() -> Fixture:
    limit = driven_oscillator_limit(cutoff=24)
    fam, sub = trivial_family_from_limit(limit)
    return Fixture(
        name="truncation-demo",
        family=fam,
        sub=sub,
        expected_limit=limit,
        params={"cutoff": 24},
    )


BUILTIN_FIXTURES = {
    "duan-kimble": lambda: duan_kimble_fixture(
        gamma=1.0, g=2.0, drive_alpha=0.3 + 0.4j, cutoff=4
    ),
    "cavity": _default_cavity,
    "mirror": lambda: mirror_fixture(
        gamma=1.0, theta=0.5, omega=1.0, mirror_cutoff=8, cavity_cutoff=3
    ),
    "truncation-demo": _truncation_demo_fixture,
}


def builtin_fixture(name: str) -> Fixture:
    try:
        return BUILTIN_FIXTURES[name]()
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {sorted(BUILTIN_FIXTURES)}"
        ) from None
