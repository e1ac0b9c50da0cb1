"""Convergence studies: corrector residuals, semigroup gaps, truncation.

Oracles: the exact cancellation identities satisfied by the corrector, a
corrected-vs-uncorrected comparison, known decay rates on fixtures with
closed-form limits, a per-k generator floor that holds round-off of an
exact model and not a Y off its slow subspace, and window fixtures whose
truncation gap must vanish identically.
"""

import dataclasses
import math

import numpy as np
import pytest

from qsdelim import (
    FieldAmplitudes,
    Operator,
    PreconditionFailed,
    assemble,
    driven_oscillator_limit,
    eliminate,
    generator,
    generator_residual,
    generator_study,
    kurtz_corrector,
    rate_fit,
    random_structured_fixture,
    scaled_hp_validate,
    semigroup_gap,
    semigroup_study,
    structural_validate,
    trivial_family_from_limit,
    truncation_study,
    windowed_oscillator_limit,
)
from qsdelim.convergence import RESIDUAL_FLOOR
from qsdelim.operator_core import _norm_bound

from model_helpers import field_dressed_parts, rotated_family


@pytest.fixture(scope="module")
def dk():
    from qsdelim import builtin_fixture

    fix = builtin_fixture("duan-kimble")
    return fix, eliminate(fix.family, fix.sub)


AMP = FieldAmplitudes((0.2 - 0.1j,), (0.3 + 0.2j,))


class TestFieldDressedParts:
    def test_decomposition_matches_assembled_generator(self, dk):
        # k^2 Y + k a_op + b_op must equal the dressed generator of the
        # assembled family, for several k
        fix, _ = dk
        a_op, b_op = field_dressed_parts(fix.family, AMP)
        for k in (1.0, 3.0, 7.5):
            direct = generator(assemble(fix.family, k), AMP).entries
            recon = (
                k * k * fix.family.y.entries + k * a_op.entries + b_op.entries
            )
            assert np.allclose(direct, recon, atol=1e-11 * k * k)


class TestKurtzCorrector:
    def test_cancellation_identities(self, dk):
        fix, result = dk
        v = fix.sub.slow_basis
        u = v @ (np.ones(v.shape[1]) / math.sqrt(v.shape[1]))
        cor = kurtz_corrector(result, AMP, u)
        a_op, _ = field_dressed_parts(fix.family, AMP)
        # order k^2: Y u = 0
        assert np.linalg.norm(fix.family.y.entries @ cor.u) < 1e-10
        # order k^1: Y u1 + A^(ab) u = 0
        defect = fix.family.y.entries @ cor.u1 + a_op.entries @ cor.u
        assert np.linalg.norm(defect) < 1e-10
        # the corrector's own k^2 and k^1 orders are these two vectors
        t2, t1 = cor.orders[:2]
        assert np.allclose(t2, fix.family.y.entries @ cor.u, rtol=0, atol=1e-12)
        assert np.allclose(t1, defect, rtol=0, atol=1e-12)
        assert np.linalg.norm(t2) < 1e-10 and np.linalg.norm(t1) < 1e-10

    def test_rejects_u_off_slow_subspace(self, dk):
        fix, result = dk
        u = np.zeros(fix.family.space.total_dim, dtype=complex)
        u[0] = 1.0  # excited atom level: not in the slow subspace
        with pytest.raises(PreconditionFailed):
            kurtz_corrector(result, AMP, u)

    def test_residual_slope_near_minus_one(self, dk):
        fix, result = dk
        ks = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
        report = generator_study(result, AMP, ks)
        assert report.verdict
        assert report.fitted_rate == pytest.approx(-1.0, abs=0.15)

    def test_corrected_beats_uncorrected(self, dk):
        fix, result = dk
        v = fix.sub.slow_basis
        u = v @ (np.ones(v.shape[1]) / math.sqrt(v.shape[1]))
        k = 64.0
        corrected = generator_residual(kurtz_corrector(result, AMP, u), k)
        # uncorrected: apply the prelimit generator to u itself
        big = generator(assemble(fix.family, k), AMP).entries @ u
        small = generator(result.limit, AMP).entries @ (v.conj().T @ u)
        uncorrected = float(np.linalg.norm(big - v @ small))
        assert corrected <= uncorrected / 10.0

    def test_residual_on_structured_fixture(self, rng):
        fix = random_structured_fixture(rng)
        result = eliminate(fix.family, fix.sub)
        amp = FieldAmplitudes((0.1,), (0.2j,))
        report = generator_study(result, amp, (2, 4, 8, 16, 32, 64))
        assert report.verdict
        assert report.fitted_rate == pytest.approx(-1.0, abs=0.2)


class TestGeneratorFloorPerK:
    """The generator study's floor at k is RESIDUAL_FLOOR max(1, k^2 |Y|),
    with |Y| the bound `_norm_bound`: round-off of k^2 Y u grows like k^2."""

    KS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    VACUUM = FieldAmplitudes.vacuum(1)

    def _floors(self, fam):
        y_norm = _norm_bound(fam.y.entries)
        return [RESIDUAL_FLOOR * max(1.0, k * k * y_norm) for k in self.KS]

    def test_rotated_exact_model_at_vacuum_passes(self, dk_fixture):
        # duan-kimble conjugated by a random unitary: its residuals are
        # round-off of k^2 Y u alone, above the absolute floor.
        fam, sub = rotated_family(dk_fixture, 0)
        report = generator_study(eliminate(fam, sub), self.VACUUM, self.KS)
        assert report.verdict
        assert max(report.values) > 10 * RESIDUAL_FLOOR
        assert all(v <= f for v, f in zip(report.values, self._floors(fam)))

    def test_y_off_its_slow_subspace_fails(self, dk_fixture):
        # Y + i eps H with H Hermitian and |H| = 1 keeps Y + Y^* and passes
        # both validators at eps = 1e-10, yet Y u is not round-off.
        fam, sub = dk_fixture.family, dk_fixture.sub
        d = fam.space.total_dim
        rng = np.random.default_rng(0)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = x + x.conj().T
        h /= np.linalg.norm(h, 2)
        fam = dataclasses.replace(fam, y=fam.y + Operator(fam.space, 1e-10j * h))
        assert scaled_hp_validate(fam).overall
        assert structural_validate(fam, sub).overall
        report = generator_study(eliminate(fam, sub), self.VACUUM, self.KS)
        assert not report.verdict
        assert all(v > 10 * f for v, f in zip(report.values, self._floors(fam)))


class TestRateFit:
    def test_exact_power_law_recovered(self):
        ks = (2.0, 4.0, 8.0, 16.0)
        vals = tuple(3.7 * k ** -1.5 for k in ks)
        assert rate_fit(ks, vals) == pytest.approx(-1.5, abs=1e-12)

    def test_floor_values_excluded(self):
        ks = (2.0, 4.0, 8.0, 16.0)
        vals = (4.0 / 2, 4.0 / 4, 1e-16, 1e-16)
        # only two informative points remain; slope -1 between them
        assert rate_fit(ks, vals) == pytest.approx(-1.0, abs=1e-12)

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            rate_fit((2.0, 4.0), (1.0, 0.5))
        with pytest.raises(ValueError):
            rate_fit((2.0, 4.0, 8.0), (1e-16, 1e-16, 1e-16))

    def test_needs_two_distinct_k_above_the_floor(self):
        """Repeated k once gave a rank-deficient fit and a finite 'rate'."""
        with pytest.raises(ValueError, match="distinct k"):
            rate_fit((2.0, 2.0, 2.0), (0.1187, 0.1187, 0.1187))
        with pytest.raises(ValueError, match="distinct k"):
            rate_fit((2.0, 2.0, 4.0), (0.5, 0.4, 1e-16))

    def test_rejects_negative_residuals(self):
        with pytest.raises(ValueError):
            rate_fit((2.0, 4.0, 8.0), (1.0, -0.5, 0.2))

    def test_rejects_k_at_or_below_zero(self):
        # log(0) once warned and fed -inf to the fit (cutoff 0 in a
        # truncation study).
        for ks in ((0.0, 1.0, 2.0), (-1.0, 1.0, 2.0)):
            with pytest.raises(ValueError, match="k > 0"):
                rate_fit(ks, (1.0, 0.5, 0.2))


class TestScheduleStrictlyIncreases:
    """A repeated k once passed on a fit from one k, and a reversed schedule
    failed where the sorted one passed: the verdicts read the schedule in
    the order given."""

    SCHEDULES = [(2.0, 2.0, 2.0), (16.0, 8.0, 4.0, 2.0), (2.0, 8.0, 4.0),
                 (2.0, 4.0, 4.0, 8.0)]

    @pytest.mark.parametrize("ks", SCHEDULES)
    def test_generator_study_rejects(self, dk, ks):
        with pytest.raises(ValueError, match="strictly increasing"):
            generator_study(dk[1], AMP, ks)

    @pytest.mark.parametrize("ks", SCHEDULES)
    def test_semigroup_study_rejects(self, dk, ks):
        with pytest.raises(ValueError, match="strictly increasing"):
            semigroup_study(dk[1], AMP, ks, 2.0, 8)


class TestStudiesCheckEachK:
    """The studies, `generator_residual`, `semigroup_gap` and `assemble`
    check each k by the CLI's own rule before its order: k = 0 once met the
    residual's separate check, and k = inf overflowed in the propagator (a
    FloatingPointError).
    `semigroup_gap` at inf or NaN once raised NonFiniteEntries from the
    propagator, and `assemble` kept an older k > 0 message of its own."""

    VAC = FieldAmplitudes.vacuum(1)
    BAD_K = [math.inf, math.nan, 0.0, -1.0]

    def test_generator_study(self, dk):
        with pytest.raises(ValueError, match=r"bad k value 0\.0: need finite k > 0"):
            generator_study(dk[1], self.VAC, (0, 2, 4))

    def test_semigroup_study(self, dk):
        with pytest.raises(ValueError, match="bad k value inf: need finite k > 0"):
            semigroup_study(dk[1], self.VAC, (2, 4, math.inf), 2.0, 8)

    @pytest.mark.parametrize("k", BAD_K)
    def test_generator_residual(self, dk, k):
        v = dk[1].sub.slow_basis
        cor = kurtz_corrector(dk[1], self.VAC, v[:, 0])
        with pytest.raises(ValueError, match="bad k value"):
            generator_residual(cor, k)

    @pytest.mark.parametrize("k", BAD_K)
    def test_semigroup_gap(self, dk, k):
        with pytest.raises(ValueError, match="bad k value"):
            semigroup_gap(dk[1], self.VAC, 2.0, 8, k)

    @pytest.mark.parametrize("k", BAD_K)
    def test_assemble(self, dk, k):
        with pytest.raises(ValueError, match="bad k value"):
            assemble(dk[1].family, k)


class TestSemigroupGap:
    def test_gap_decays_with_k(self, dk):
        fix, result = dk
        vac = FieldAmplitudes.vacuum(1)
        gaps = [
            semigroup_gap(result, vac, 2.0, 64, k)
            for k in (2.0, 4.0, 8.0, 16.0)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= gaps[0] / 5.0

    def test_study_verdict(self, dk):
        fix, result = dk
        report = semigroup_study(
            result, FieldAmplitudes.vacuum(1),
            (2.0, 4.0, 8.0, 16.0), T=2.0, grid_points=64,
        )
        assert report.verdict
        assert report.kind == "semigroup"

    def test_gap_stable_under_grid_refinement(self, dk):
        fix, result = dk
        vac = FieldAmplitudes.vacuum(1)
        g64 = semigroup_gap(result, vac, 2.0, 64, 4.0)
        g128 = semigroup_gap(result, vac, 2.0, 128, 4.0)
        assert abs(g64 - g128) <= 0.1 * g64

    def test_invalid_parameters_rejected(self, dk):
        fix, result = dk
        vac = FieldAmplitudes.vacuum(1)
        with pytest.raises(ValueError):
            semigroup_gap(result, vac, -1.0, 64, 2.0)
        with pytest.raises(ValueError):
            semigroup_gap(result, vac, 2.0, 1, 2.0)


class TestSemigroupFloorPerK:
    """The semigroup study judges "at the floor" by the generator study's
    rule, RESIDUAL_FLOOR max(1, k^2 |Y|) at k."""

    def test_exact_model_at_vacuum_passes(self):
        # The mirror model is exact at vacuum (Y annihilates the cavity
        # vacuum and B acts on the mirror only), so its gaps are round-off
        # of k^2 Y: above the absolute floor at large k, within k^2 |Y|'s.
        from qsdelim import builtin_fixture

        fix = builtin_fixture("mirror")
        ks = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
        report = semigroup_study(eliminate(fix.family, fix.sub),
                                 FieldAmplitudes.vacuum(fix.family.n), ks, 2.0, 64)
        y_norm = _norm_bound(fix.family.y.entries)
        assert max(report.values) > 10 * RESIDUAL_FLOOR
        assert report.values[-1] > report.values[0] / 5.0
        assert all(v <= 10 * RESIDUAL_FLOOR * k * k * y_norm
                   for k, v in zip(ks, report.values))
        assert report.verdict


class TestTruncationStudy:
    VAC = FieldAmplitudes.vacuum(1)

    def test_gaps_strictly_decreasing_for_generic_model(self):
        limit = driven_oscillator_limit(24)
        report = truncation_study(trivial_family_from_limit(limit)[0],
                                  (4, 6, 8, 10, 12), self.VAC, 2.0, 32)
        assert report.verdict
        assert all(a > b for a, b in zip(report.values, report.values[1:]))

    def test_window_model_gap_identically_zero(self):
        limit = windowed_oscillator_limit(24, window=5)
        report = truncation_study(trivial_family_from_limit(limit)[0],
                                  (4, 6, 8, 10), self.VAC, 2.0, 32)
        assert report.verdict
        assert all(v == 0.0 for v in report.values)

    def test_window_model_nonzero_below_window(self):
        # truncating inside the support must produce a nonzero gap
        limit = windowed_oscillator_limit(24, window=5)
        report = truncation_study(trivial_family_from_limit(limit)[0],
                                  (2, 4, 6), self.VAC, 2.0, 32)
        assert report.values[0] > 1e-3
        assert report.values[1] == 0.0

    def test_nontrivial_scattering_rejected(self, rng):
        from qsdelim import HilbertSpace, Operator, QsdeCoefficients

        space = HilbertSpace((6,))
        bad = QsdeCoefficients(
            Operator.zero(space), (Operator.zero(space),),
            (Operator.zero(space),),
            ((Operator(space, np.diag(np.exp(1j * np.arange(6)))),),),
        )
        with pytest.raises(ValueError):
            truncation_study(trivial_family_from_limit(bad)[0], (2, 4), self.VAC,
                             1.0, 8)

    def test_failing_unitarity_raises_with_report(self, shifted_truncation_demo):
        fam = shifted_truncation_demo.family
        with pytest.raises(PreconditionFailed) as err:
            truncation_study(fam, (4, 6, 8), self.VAC, 2.0, 8)
        assert [c.name for c in err.value.report.failing()] == ["scaled.b"]
        # The tolerance is the study's: a loose one lets the model through.
        report = truncation_study(fam, (4, 6, 8), self.VAC, 2.0, 8, tol=1.0)
        assert len(report.values) == 2

    @pytest.mark.parametrize("which, match", [
        ("dk_fixture", "fixed-coefficient"),
        ("osc_qubit_fixture", "one tensor factor"),
    ])
    def test_usage_rules_raise_value_error(self, which, match, request):
        fam = request.getfixturevalue(which).family
        with pytest.raises(ValueError, match=match):
            truncation_study(fam, (1, 2, 3), self.VAC, 1.0, 8)

    def test_cutoff_zero_gives_no_rate(self):
        fam = trivial_family_from_limit(driven_oscillator_limit(10))[0]
        report = truncation_study(fam, (0, 2, 4, 6), self.VAC, 1.0, 8)
        assert len(report.values) == 3
        assert math.isnan(report.fitted_rate)

    @pytest.mark.parametrize("cutoffs", [
        (4.5, 6.7, 8.9), (-1, 4, 6), (4, 6, math.nan), (4, 6, math.inf),
    ], ids=str)
    def test_cutoffs_it_cannot_interpret_rejected(self, cutoffs):
        # (4.5, 6.7, 8.9) once ran as (4, 6, 8) and passed; (-1, 4, 6)
        # failed inside HilbertSpace.
        from qsdelim import builtin_fixture

        fam = builtin_fixture("truncation-demo").family
        with pytest.raises(ValueError, match="finite integers >= 0") as err:
            truncation_study(fam, cutoffs, self.VAC, 2.0, 8)
        assert str(err.value).startswith("bad k value ")  # the CLI's rule

    def test_integral_float_cutoffs_accepted(self):
        fam = trivial_family_from_limit(driven_oscillator_limit(10))[0]
        assert (truncation_study(fam, (4.0, 6.0, 8.0), self.VAC, 1.0, 8)
                == truncation_study(fam, (4, 6, 8), self.VAC, 1.0, 8))

    def test_cutoff_validation(self):
        limit = driven_oscillator_limit(10)
        with pytest.raises(ValueError):
            truncation_study(trivial_family_from_limit(limit)[0], (4,), self.VAC, 1.0, 8)
        with pytest.raises(ValueError):
            truncation_study(trivial_family_from_limit(limit)[0], (4, 20), self.VAC, 1.0, 8)
        with pytest.raises(ValueError):
            truncation_study(trivial_family_from_limit(limit)[0], (6, 4), self.VAC, 1.0, 8)
