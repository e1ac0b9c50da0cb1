"""Coefficient families and validators.

Oracles: defect injection (a violation of known size must be reported at
that size), closed-form random generators (constructed relations must
validate), and the implication from order-by-order relations to assembled
relations at several k.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdelim import (
    HilbertSpace,
    Operator,
    QsdeCoefficients,
    ScaledFamily,
    SubspacePair,
    assemble,
    hp_validate,
    random_structured_fixture,
    scaled_hp_validate,
    spectral_norm,
    structural_validate,
)

from qsdelim.qsde_model import _m_from_unitarity
from qsdelim.random_models import _ginibre, _unitary_grid

from model_helpers import random_hp_coefficients, random_scaled_family


class TestDataclasses:
    def test_channel_count_enforced(self, rng):
        space = HilbertSpace((2,))
        ident = Operator.identity(space)
        with pytest.raises(ValueError):
            QsdeCoefficients(ident, (ident,), (ident, ident),
                             ((ident, ident), (ident, ident)))
        with pytest.raises(ValueError):
            ScaledFamily(ident, ident, ident, (), (), ())

    @pytest.mark.parametrize("build", [
        lambda i: QsdeCoefficients(i, (), (), ()),
        lambda i: ScaledFamily(i, i, i, (), (), ()),
    ], ids=["QsdeCoefficients", "ScaledFamily"])
    def test_zero_channels_rejected(self, build):
        with pytest.raises(ValueError, match="channel count must be >= 1"):
            build(Operator.identity(HilbertSpace((2,))))

    # Each set built on I, the identity of C^2, with one list too short or
    # a grid that is not n x n.
    @pytest.mark.parametrize("build, match", [
        (lambda i: ScaledFamily(i, i, i, (), (i,), ((i,),)),
         "exactly n F and G"),
        (lambda i: ScaledFamily(i, i, i, (i,), (), ((i,),)),
         "exactly n F and G"),
        (lambda i: ScaledFamily(i, i, i, (i,), (i,), ((),)),
         "W must be an n x n grid"),
        (lambda i: QsdeCoefficients(i, (i,), (i,), ((),)),
         "N must be an n x n grid"),
        (lambda i: QsdeCoefficients(i, (), (i,), ((i,),)), "exactly n L and M"),
        (lambda i: QsdeCoefficients(i, (i,), (), ((i,),)), "exactly n L and M"),
        (lambda i: QsdeCoefficients(i, (i, i), (i, i), ((i,), (i,))),
         "N must be an n x n grid"),
        (lambda i: ScaledFamily(i, i, i, (i,), (i,), ((i, i),)),
         "W must be an n x n grid"),
    ], ids=["F", "G", "W", "N", "L", "M", "N-2x1", "W-1x2"])
    def test_short_operator_lists_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build(Operator.identity(HilbertSpace((2,))))

    def test_space_mismatch_rejected(self):
        s2, s3 = HilbertSpace((2,)), HilbertSpace((3,))
        with pytest.raises(ValueError):
            QsdeCoefficients(
                Operator.identity(s2), (Operator.identity(s3),),
                (Operator.identity(s2),), ((Operator.identity(s2),),),
            )

    # One operator on C^3 (j), the others on C^2 (i).
    @pytest.mark.parametrize("build", [
        lambda i, j: QsdeCoefficients(j, (i,), (i,), ((i,),)),
        lambda i, j: QsdeCoefficients(i, (j,), (i,), ((i,),)),
        lambda i, j: QsdeCoefficients(i, (i,), (j,), ((i,),)),
        lambda i, j: QsdeCoefficients(i, (i,), (i,), ((j,),)),
        lambda i, j: ScaledFamily(j, i, i, (i,), (i,), ((i,),)),
        lambda i, j: ScaledFamily(i, j, i, (i,), (i,), ((i,),)),
        lambda i, j: ScaledFamily(i, i, j, (i,), (i,), ((i,),)),
        lambda i, j: ScaledFamily(i, i, i, (j,), (i,), ((i,),)),
        lambda i, j: ScaledFamily(i, i, i, (i,), (j,), ((i,),)),
        lambda i, j: ScaledFamily(i, i, i, (i,), (i,), ((j,),)),
    ], ids=["K", "L", "M", "N", "Y", "A", "B", "F", "G", "W"])
    def test_operator_on_another_space_rejected(self, build):
        i, j = (Operator.identity(HilbertSpace((d,))) for d in (2, 3))
        with pytest.raises(ValueError, match="share one space"):
            build(i, j)

    def test_n_and_space_read_from_the_operators(self, rng):
        fam = random_scaled_family(rng, 3, n=2)
        assert (fam.n, fam.space) == (2, HilbertSpace((3,)))
        c = assemble(fam, 2.0)
        assert (c.n, c.space) == (2, HilbertSpace((3,)))


class TestForcedM:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("trivial", [True, False], ids=["N=I", "N unitary"])
    def test_unitary_takes_the_forced_m(self, rng, n, trivial):
        """`QsdeCoefficients.unitary` stores the bits of `_m_from_unitarity`,
        so `hp_validate` reads its M relation as exactly 0.0."""
        space = HilbertSpace((3,))
        l_ops = tuple(Operator(space, _ginibre(rng, 3)) for _ in range(n))
        if trivial:
            n_ops = tuple(tuple(Operator.identity(space) if i == j
                                else Operator.zero(space) for j in range(n))
                          for i in range(n))
        else:
            n_ops = _unitary_grid(rng, space, n)
        c = QsdeCoefficients.unitary(Operator(space, _ginibre(rng, 3)), l_ops, n_ops)
        for got, want in zip(c.m_ops, _m_from_unitarity(n_ops, l_ops), strict=True):
            assert got.entries.tobytes() == want.entries.tobytes()
        assert hp_validate(c)["hp.m"].max_violation == 0.0


class TestValidators:
    def test_random_hp_coefficients_validate(self, rng):
        for n in (1, 2):
            c = random_hp_coefficients(rng, 5, n=n)
            report = hp_validate(c)
            assert report.overall, [c_.name for c_ in report.failing()]

    def test_random_scaled_families_validate(self, rng):
        for n in (1, 3):
            fam = random_scaled_family(rng, 4, n=n)
            report = scaled_hp_validate(fam)
            assert report.overall, [c_.name for c_ in report.failing()]

    def test_k_defect_injection_reported_at_known_size(self, rng):
        # Oracle: shifting K by eps*I moves the K-relation defect by exactly
        # 2*eps (the defect operator gains 2*eps*I).
        c = random_hp_coefficients(rng, 4)
        base = hp_validate(c)["hp.k"].max_violation
        assert base < 1e-12
        eps = 1e-3
        shifted = QsdeCoefficients(
            c.k_op + eps * Operator.identity(c.space),
            c.l_ops, c.m_ops, c.n_ops,
        )
        report = hp_validate(shifted)
        assert report["hp.k"].max_violation == pytest.approx(2 * eps, abs=1e-12)
        assert not report["hp.k"].passed
        assert report["hp.m"].passed and report["hp.n"].passed

    def test_m_defect_injection(self, rng):
        c = random_hp_coefficients(rng, 4)
        eps = 5e-4
        bad_m = (c.m_ops[0] + eps * Operator.identity(c.space),)
        report = hp_validate(
            QsdeCoefficients(c.k_op, c.l_ops, bad_m, c.n_ops)
        )
        assert report["hp.m"].max_violation == pytest.approx(eps, abs=1e-12)
        assert not report["hp.m"].passed

    def test_n_defect_injection(self, rng):
        c = random_hp_coefficients(rng, 4)
        bad_n = ((1.001 * c.n_ops[0][0],),)
        report = hp_validate(
            QsdeCoefficients(c.k_op, c.l_ops, c.m_ops, bad_n)
        )
        # (1+e)^2 - 1 ~ 2e in the isometry defect
        assert report["hp.n"].max_violation == pytest.approx(0.002001, abs=1e-9)
        assert not report["hp.n"].passed

    def test_scaled_defect_injection_per_order(self, rng):
        fam = random_scaled_family(rng, 4)
        eps = 1e-3
        for attr, check in (("y", "scaled.y"), ("a", "scaled.a"), ("b", "scaled.b")):
            fields = {
                "y": fam.y, "a": fam.a, "b": fam.b, "f_ops": fam.f_ops,
                "g_ops": fam.g_ops, "w_ops": fam.w_ops,
            }
            fields[attr] = fields[attr] + eps * Operator.identity(fam.space)
            report = scaled_hp_validate(ScaledFamily(**fields))
            got = report[check]
            assert got.max_violation == pytest.approx(2 * eps, abs=1e-12)
            assert not got.passed
            for other in ("scaled.y", "scaled.a", "scaled.b", "scaled.w"):
                if other != check:
                    assert report[other].passed

    def test_validator_monotone_in_tolerance(self, rng):
        fam = random_scaled_family(rng, 4)
        bad = ScaledFamily(
            fam.y + 1e-6 * Operator.identity(fam.space),
            fam.a, fam.b, fam.f_ops, fam.g_ops, fam.w_ops,
        )
        assert not scaled_hp_validate(bad, tol=1e-9).overall
        assert scaled_hp_validate(bad, tol=1e-3).overall


class TestAssemble:
    def test_rejects_nonpositive_k(self, rng):
        fam = random_scaled_family(rng, 3)
        for k in (0.0, -1.0):
            with pytest.raises(ValueError):
                assemble(fam, k)

    def test_polynomial_structure(self, rng):
        fam = random_scaled_family(rng, 3)
        k = 3.5
        c = assemble(fam, k)
        expect_k = k * k * fam.y.entries + k * fam.a.entries + fam.b.entries
        assert np.allclose(c.k_op.entries, expect_k)
        expect_l = k * fam.f_ops[0].entries + fam.g_ops[0].entries
        assert np.allclose(c.l_ops[0].entries, expect_l)
        assert np.array_equal(c.n_ops[0][0].entries, fam.w_ops[0][0].entries)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        k=st.sampled_from([1.0, 2.0, 4.0, 8.0]),
        n=st.integers(min_value=1, max_value=2),
    )
    def test_scaled_relations_imply_assembled_relations(self, seed, k, n):
        rng = np.random.default_rng(seed)
        fam = random_scaled_family(rng, 3, n=n)
        assert scaled_hp_validate(fam).overall
        report = hp_validate(assemble(fam, k), tol=1e-8)
        assert report.overall, [c.name for c in report.failing()]


class TestStructuralValidate:
    def test_structured_fixture_passes_everything(self, rng):
        fix = random_structured_fixture(rng)
        report = structural_validate(fix.family, fix.sub)
        assert report.overall, [c.name for c in report.failing()]

    def test_named_checks_present(self, rng):
        fix = random_structured_fixture(rng)
        report = structural_validate(fix.family, fix.sub)
        names = {c.name for c in report.checks}
        assert names == {
            "structural.b", "structural.c", "structural.d", "structural.e",
            "limit.l_side", "limit.n_side_right", "limit.n_side_left",
        }

    def test_slow_drive_injection_fails_only_structural_e(self, rng):
        fix = random_structured_fixture(rng)
        fam = fix.family
        bad = ScaledFamily(
            fam.y, fam.a + 0.01j * fix.sub.p0, fam.b,
            fam.f_ops, fam.g_ops, fam.w_ops,
        )
        report = structural_validate(bad, fix.sub)
        assert not report["structural.e"].passed
        assert report["structural.e"].max_violation == pytest.approx(0.01, abs=1e-12)
        assert report["structural.b"].passed
        assert report["structural.c"].passed
        assert report["structural.d"].passed

    def test_singular_fast_block_fails_structural_c(self, rng):
        # Y with a kernel vector on the fast side has no restricted inverse.
        space = HilbertSpace((3,))
        sub = SubspacePair.from_basis_indices(space, (0,))
        y = Operator(space, np.diag([0.0, 0.0, -1.0]))
        f1 = Operator.zero(space)
        fam = ScaledFamily(
            y + (-0.0) * y, Operator.zero(space), Operator.zero(space),
            (f1,), (f1,), ((Operator.identity(space),),),
        )
        report = structural_validate(fam, sub)
        assert not report["structural.c"].passed
        assert report["structural.c"].max_violation == np.inf

    def test_y_not_vanishing_on_slow_space_fails_structural_b(self, rng):
        fix = random_structured_fixture(rng)
        fam = fix.family
        bad = ScaledFamily(
            fam.y + 0.05j * fix.sub.p0, fam.a, fam.b,
            fam.f_ops, fam.g_ops, fam.w_ops,
        )
        report = structural_validate(bad, fix.sub)
        assert not report["structural.b"].passed


class TestEliminatedLimitsValidate:
    def test_limit_of_structured_fixture_satisfies_hp(self, rng):
        from qsdelim import eliminate

        for n in (1, 2):
            fix = random_structured_fixture(rng, n=n)
            limit = eliminate(fix.family, fix.sub).limit
            report = hp_validate(limit, tol=1e-9)
            assert report.overall, [
                (c.name, c.max_violation) for c in report.failing()
            ]
