"""Slow-subspace limit coefficients.

Oracles: hand-derived closed forms for the bundled fixtures, an
independent block-matrix closed form for the damped-cavity construction,
and symmetry checks (gauge rotation of the scattering grid, rescaling of
the fast clock) whose effect on the limit is known exactly.
"""

import numpy as np
import pytest
import scipy.linalg

from qsdelim import (
    HilbertSpace,
    Operator,
    PreconditionFailed,
    ScaledFamily,
    SingularFastDynamics,
    cavity_closed_form,
    duan_kimble_block_indices,
    duan_kimble_fast_blocks,
    duan_kimble_fixture,
    eliminate,
    hp_validate,
    random_structured_fixture,
    restricted_inverse,
    spectral_norm,
)


def _limit_defect(a, b):
    worst = spectral_norm(a.k_op - b.k_op)
    for x, y in zip(a.l_ops, b.l_ops):
        worst = max(worst, spectral_norm(x - y))
    for x, y in zip(a.m_ops, b.m_ops):
        worst = max(worst, spectral_norm(x - y))
    for i in range(a.n):
        for j in range(a.n):
            worst = max(worst, spectral_norm(a.n_ops[i][j] - b.n_ops[i][j]))
    return worst


class TestLambdaAtomFixture:
    def test_limit_matches_closed_form(self, dk_fixture):
        result = eliminate(dk_fixture.family, dk_fixture.sub)
        assert _limit_defect(result.limit, dk_fixture.expected_limit) < 1e-12

    def test_exact_at_any_cutoff(self):
        for cutoff in (2, 3, 5):
            fix = duan_kimble_fixture(
                gamma=0.8, g=1.7, drive_alpha=0.2 - 0.5j, cutoff=cutoff
            )
            result = eliminate(fix.family, fix.sub)
            assert _limit_defect(result.limit, fix.expected_limit) < 1e-12

    def test_partial_inverse_matches_block_closed_form(self, dk_fixture):
        gamma = dk_fixture.params["gamma"]
        g = dk_fixture.params["g"]
        cutoff = dk_fixture.params["cutoff"]
        yt = restricted_inverse(dk_fixture.family.y, dk_fixture.sub)
        blocks = duan_kimble_fast_blocks(gamma, g, cutoff)
        for j, (yj, ytj) in enumerate(blocks, start=1):
            idx = duan_kimble_block_indices(cutoff, j)
            got_y = dk_fixture.family.y.entries[np.ix_(idx, idx)]
            got_yt = yt.entries[np.ix_(idx, idx)]
            assert np.allclose(got_y, yj, atol=1e-12)
            assert np.allclose(got_yt, ytj, atol=1e-12)
            # block closed form is itself verified as an inverse
            assert np.allclose(yj @ ytj, np.eye(3), atol=1e-12)

    def test_limit_satisfies_unitarity(self, dk_fixture):
        limit = eliminate(dk_fixture.family, dk_fixture.sub).limit
        assert hp_validate(limit, tol=1e-12).overall


class TestCavityCrossOracle:
    def test_elimination_matches_block_closed_form(self, rng):
        for n in (1, 2):
            for _ in range(5):
                fix = random_structured_fixture(rng, hprime_dim=3, n=n, cutoff=3)
                result = eliminate(fix.family, fix.sub)
                assert _limit_defect(result.limit, fix.expected_limit) < 1e-10

    # An exactly singular E11 fails in LAPACK; the Hilbert matrix of order
    # 10 (condition number 1.6e13) inverts with a defect near 4e-3.
    @pytest.mark.parametrize("e11", [
        np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]),
        scipy.linalg.hilbert(10),
    ], ids=["exactly-singular", "numerically-singular"])
    def test_closed_form_rejects_singular_e11(self, e11):
        space = HilbertSpace((e11.shape[0],))
        zero = Operator.zero(space)
        with pytest.raises(SingularFastDynamics):
            cavity_closed_form(
                e00=zero, e01=zero, e10=zero, e11=Operator(space, e11),
                f_ops=(zero,), g_ops=(zero,),
                s_ops=((Operator.identity(space),),),
            )


class TestSymmetries:
    def test_scattering_gauge_rotation(self, rng):
        # W -> u W (scalar phase) leaves K, L, N-magnitudes consistent:
        # the limit transforms as N -> u N, M -> u M, K and L unchanged.
        fix = random_structured_fixture(rng)
        fam = fix.family
        u = np.exp(0.7j)
        rotated = ScaledFamily(
            fam.n, fam.space, fam.y, fam.a, fam.b, fam.f_ops, fam.g_ops,
            tuple(tuple(u * w for w in row) for row in fam.w_ops),
        )
        base = eliminate(fam, fix.sub).limit
        rot = eliminate(rotated, fix.sub).limit
        assert spectral_norm(base.k_op - rot.k_op) < 1e-11
        assert spectral_norm(base.l_ops[0] - rot.l_ops[0]) < 1e-11
        assert spectral_norm(u * base.n_ops[0][0] - rot.n_ops[0][0]) < 1e-11
        assert spectral_norm(u * base.m_ops[0] - rot.m_ops[0]) < 1e-11

    def test_fast_clock_rescaling_leaves_limit_invariant(self, rng):
        # Y -> c^2 Y, A -> c A, F -> c F is absorbed by k -> k/c, so the
        # limit coefficients are unchanged.
        fix = random_structured_fixture(rng)
        fam = fix.family
        c = 1.7
        scaled = ScaledFamily(
            fam.n, fam.space, (c * c) * fam.y, c * fam.a, fam.b,
            tuple(c * f for f in fam.f_ops), fam.g_ops, fam.w_ops,
        )
        base = eliminate(fam, fix.sub).limit
        resc = eliminate(scaled, fix.sub).limit
        assert _limit_defect(base, resc) < 1e-10


class TestPreconditionsAndEmbedding:
    def test_structural_failure_raises_with_report(self, rng):
        fix = random_structured_fixture(rng)
        fam = fix.family
        bad = ScaledFamily(
            fam.n, fam.space, fam.y, fam.a + 0.2j * fix.sub.p0, fam.b,
            fam.f_ops, fam.g_ops, fam.w_ops,
        )
        with pytest.raises(PreconditionFailed) as err:
            eliminate(bad, fix.sub)
        assert err.value.report is not None
        assert not err.value.report["structural.e"].passed

    def test_unitarity_failure_raises(self, rng):
        fix = random_structured_fixture(rng)
        fam = fix.family
        bad = ScaledFamily(
            fam.n, fam.space, fam.y + 0.1 * Operator.identity(fam.space),
            fam.a, fam.b, fam.f_ops, fam.g_ops, fam.w_ops,
        )
        with pytest.raises(PreconditionFailed):
            eliminate(bad, fix.sub)

    def test_embed_returns_to_big_space(self, dk_fixture):
        result = eliminate(dk_fixture.family, dk_fixture.sub)
        v = result.compression
        big = Operator(dk_fixture.family.space,
                       v @ result.limit.k_op.entries @ v.conj().T)
        assert big.space == dk_fixture.family.space
        # embedded operator is supported on the slow subspace
        p1 = dk_fixture.sub.p1.entries
        assert np.linalg.norm(p1 @ big.entries) < 1e-12
        assert np.linalg.norm(big.entries @ p1) < 1e-12
        # compressing back recovers the limit coefficient
        v = result.compression
        back = v.conj().T @ big.entries @ v
        assert np.allclose(back, result.limit.k_op.entries, atol=1e-12)
