"""Stepped time-grid propagation against per-grid-point expm references.

Grid studies take one expm of the grid step per model and reach later grid
times by repeated products.  The references below keep the direct form: one
full `evolve` per grid time.  The stepped results must agree with them to
1e-12 relative (the ROADMAP tolerance), over randomized structured models
and scaling parameters up to k = 4096.
"""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdelim import (
    FieldAmplitudes,
    QsdeCoefficients,
    assemble,
    driven_oscillator_limit,
    eliminate,
    evolve,
    propagate_on_grid,
    random_structured_fixture,
    semigroup_gap,
    truncation_study,
    windowed_oscillator_limit,
)
from qsdelim.cli import main
from qsdelim.operator_core import Operator

REL_TOL = 1e-12
ABS_TOL = 1e-14


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= max(REL_TOL * abs(want), ABS_TOL)


def _gap_reference(fam, sub, limit, amp, T, grid_points, k):
    v = sub.slow_basis
    pre = assemble(fam, k)
    gap = 0.0
    for t in np.linspace(0.0, T, grid_points):
        big = evolve(pre, amp, float(t)).entries.conj().T
        small = evolve(limit, amp, float(t)).entries.conj().T
        diff = (big - v @ small @ v.conj().T) @ v
        gap = max(gap, float(np.linalg.norm(diff, 2)))
    return gap


def _truncation_reference(limit_family, cutoffs, amp, T, grid_points):
    d = limit_family.space.total_dim

    def truncated(cutoff):
        p = np.zeros((d, d))
        p[: cutoff + 1, : cutoff + 1] = np.eye(cutoff + 1)
        proj = Operator(limit_family.space, p)
        l_c = tuple(proj @ l @ proj for l in limit_family.l_ops)
        return QsdeCoefficients(
            limit_family.n, limit_family.space, proj @ limit_family.k_op @ proj,
            l_c, tuple(-l.dag() for l in l_c), limit_family.n_ops,
        )

    window = np.eye(d, cutoffs[0] + 1)
    coeffs = [truncated(c) for c in cutoffs]
    gaps = []
    for lo, hi in zip(coeffs, coeffs[1:]):
        gap = 0.0
        for t in np.linspace(0.0, T, grid_points):
            diff = (
                evolve(lo, amp, float(t)).entries.conj().T
                - evolve(hi, amp, float(t)).entries.conj().T
            ) @ window
            gap = max(gap, float(np.linalg.norm(diff, 2)))
        gaps.append(gap)
    return gaps


def _amplitudes(rng, n):
    def draw():
        return tuple(0.5 * complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(n))
    return FieldAmplitudes(draw(), draw())


class TestPropagateOnGrid:
    def test_matches_evolve_at_every_grid_time(self, dk_fixture):
        coeffs = assemble(dk_fixture.family, 4.0)
        amp = FieldAmplitudes((0.1 + 0.2j,), (0.3 - 0.1j,))
        d = coeffs.space.total_dim
        block = np.eye(d, 3)
        times = np.linspace(0.0, 2.0, 17)
        got = list(propagate_on_grid(coeffs, amp, 2.0, 17, block))
        assert len(got) == len(times)
        assert np.array_equal(got[0], block)
        for t, prop in zip(times, got):
            want = evolve(coeffs, amp, float(t)).entries.conj().T @ block
            assert np.max(np.abs(prop - want)) <= 1e-12

    def test_is_lazy(self, dk_fixture):
        coeffs = assemble(dk_fixture.family, 2.0)
        vac = FieldAmplitudes.vacuum(1)
        grid = propagate_on_grid(coeffs, vac, 1.0, 10**9, np.eye(15, 2))
        assert next(grid).shape == (15, 2)
        assert next(grid).shape == (15, 2)

    @pytest.mark.parametrize("T, grid_points", [
        (1.0, 1), (1.0, 0), (0.0, 8), (-1.0, 8), (float("nan"), 8),
        (float("inf"), 8),
    ])
    def test_rejects_bad_grid_when_called(self, dk_fixture, T, grid_points):
        coeffs = assemble(dk_fixture.family, 2.0)
        with pytest.raises(ValueError):
            propagate_on_grid(coeffs, FieldAmplitudes.vacuum(1), T, grid_points,
                              np.eye(15))


class TestAgainstPerPointExpm:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        hprime=st.integers(3, 8),
        n=st.integers(1, 2),
        k=st.sampled_from([1.0, 2.0, 16.0, 256.0, 4096.0]),
        grid_points=st.integers(2, 12),
        T=st.floats(0.1, 3.0),
    )
    def test_semigroup_gap_random_structured(self, seed, hprime, n, k,
                                             grid_points, T):
        rng = np.random.default_rng(seed)
        fix = random_structured_fixture(rng, hprime_dim=hprime, n=n, cutoff=2)
        result = eliminate(fix.family, fix.sub)
        amp = _amplitudes(rng, n)
        got = semigroup_gap(result, amp, T, grid_points, k)
        want = _gap_reference(fix.family, fix.sub, result.limit, amp, T,
                              grid_points, k)
        assert _close(got, want), (got, want)

    @pytest.mark.parametrize("k", [2.0, 16.0, 4096.0])
    def test_semigroup_gap_duan_kimble(self, dk_fixture, k):
        fix = dk_fixture
        result = eliminate(fix.family, fix.sub)
        amp = FieldAmplitudes((0.2 - 0.1j,), (0.3 + 0.2j,))
        got = semigroup_gap(result, amp, 2.0, 64, k)
        want = _gap_reference(fix.family, fix.sub, result.limit, amp, 2.0, 64, k)
        assert _close(got, want), (got, want)

    def test_truncation_gaps(self):
        amp = FieldAmplitudes((0.2 + 0.1j,), (-0.1 + 0.3j,))
        limit = driven_oscillator_limit(16)
        cutoffs = (4, 6, 8, 10, 12)
        report = truncation_study(limit, cutoffs, amp, 2.0, 32)
        want = _truncation_reference(limit, cutoffs, amp, 2.0, 32)
        assert all(_close(g, w) for g, w in zip(report.values, want)), (
            report.values, want)

    def test_windowed_truncation_gaps_exactly_zero(self):
        amp = FieldAmplitudes((0.2 + 0.1j,), (-0.1 + 0.3j,))
        limit = windowed_oscillator_limit(40, window=9)
        report = truncation_study(limit, (8, 10, 12, 14), amp, 2.0, 32)
        assert report.values == (0.0, 0.0, 0.0)
        assert report.verdict

    @pytest.mark.parametrize("k_args", [["--k", "16"], []])
    def test_semigroup_cli_norms(self, tmp_path, capsys, dk_fixture, k_args):
        out = tmp_path / "norms.csv"
        code = main([
            "semigroup", "duan-kimble", *k_args, "--T", "2", "--grid", "16",
            "--alpha", "0.1+0.2j", "--beta", "0.3-0.1j", "--csv", str(out),
        ])
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        if k_args:
            coeffs = assemble(dk_fixture.family, 16.0)
        else:
            coeffs = eliminate(dk_fixture.family, dk_fixture.sub).limit
        amp = FieldAmplitudes((0.1 + 0.2j,), (0.3 - 0.1j,))
        assert len(rows) == 16
        for row in rows:
            want = float(np.linalg.norm(
                evolve(coeffs, amp, float(row["t_max"])).entries, 2))
            assert _close(float(row["value"]), want), (row, want)

