"""Convergence studies: corrector residuals, semigroup gaps, truncation.

Oracles: the exact cancellation identities satisfied by the corrector, a
corrected-vs-uncorrected comparison, known decay rates on fixtures with
closed-form limits, and window fixtures whose truncation gap must vanish
identically.
"""

import math

import numpy as np
import pytest

from qsdelim import (
    FieldAmplitudes,
    PreconditionFailed,
    assemble,
    driven_oscillator_limit,
    eliminate,
    field_dressed_parts,
    generator,
    generator_residual,
    generator_study,
    kurtz_corrector,
    rate_fit,
    random_structured_fixture,
    semigroup_gap,
    semigroup_study,
    truncation_study,
    windowed_oscillator_limit,
)


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
        corrected = generator_residual(result, AMP, u, k)
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

    def test_rejects_negative_residuals(self):
        with pytest.raises(ValueError):
            rate_fit((2.0, 4.0, 8.0), (1.0, -0.5, 0.2))


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


class TestTruncationStudy:
    VAC = FieldAmplitudes.vacuum(1)

    def test_gaps_strictly_decreasing_for_generic_model(self):
        limit = driven_oscillator_limit(24)
        report = truncation_study(limit, (4, 6, 8, 10, 12), self.VAC, 2.0, 32)
        assert report.verdict
        assert all(a > b for a, b in zip(report.values, report.values[1:]))

    def test_window_model_gap_identically_zero(self):
        limit = windowed_oscillator_limit(24, window=5)
        report = truncation_study(limit, (4, 6, 8, 10), self.VAC, 2.0, 32)
        assert report.verdict
        assert all(v == 0.0 for v in report.values)

    def test_window_model_nonzero_below_window(self):
        # truncating inside the support must produce a nonzero gap
        limit = windowed_oscillator_limit(24, window=5)
        report = truncation_study(limit, (2, 4, 6), self.VAC, 2.0, 32)
        assert report.values[0] > 1e-3
        assert report.values[1] == 0.0

    def test_nontrivial_scattering_rejected(self, rng):
        from qsdelim import HilbertSpace, Operator, QsdeCoefficients

        space = HilbertSpace((6,))
        bad = QsdeCoefficients(
            1, space, Operator.zero(space), (Operator.zero(space),),
            (Operator.zero(space),),
            ((Operator(space, np.diag(np.exp(1j * np.arange(6)))),),),
        )
        with pytest.raises(ValueError):
            truncation_study(bad, (2, 4), self.VAC, 1.0, 8)

    def test_cutoff_validation(self):
        limit = driven_oscillator_limit(10)
        with pytest.raises(ValueError):
            truncation_study(limit, (4,), self.VAC, 1.0, 8)
        with pytest.raises(ValueError):
            truncation_study(limit, (4, 20), self.VAC, 1.0, 8)
        with pytest.raises(ValueError):
            truncation_study(limit, (6, 4), self.VAC, 1.0, 8)
