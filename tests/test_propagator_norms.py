"""Per-time propagator norms against the SVD norm they replace.

`qsdelim semigroup` tabulates |exp(tG)| at every grid time through
`operator_core._propagator_norms`: a Rayleigh-Ritz value on a small
warm-started block, certified from above, with the SVD where the
certificate does not decide.  The reference is `np.linalg.norm(P, 2)`;
every value must lie within max(1e-12 |ref|, 1e-14) of it, over grids of
random dissipative generators and hand-made sequences that defeat the
warm start (equal singular values, a dominant direction outside the
block, near-degenerate tops, entries from 1e-150 to 1e150).  Semigroup
gaps go through the truncation study's batched `_gap` with the bits of the
per-point norms, and a unitarity defect of W = I is 0.0 with no product.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdelim import (
    FieldAmplitudes,
    builtin_fixture,
    duan_kimble_fixture,
    eliminate,
    fixture_to_model_dict,
    propagate_on_grid,
    semigroup_gap,
)
from qsdelim import convergence, qsde_model
from qsdelim.cli import main
from qsdelim.operator_core import Operator, _propagator_norms
from qsdelim.qsde_model import assemble

from model_helpers import count_full_size_svds, random_hp_coefficients

REL_TOL = 1e-12
ABS_TOL = 1e-14


def _within(got, want) -> bool:
    return abs(got - want) <= max(REL_TOL * abs(want), ABS_TOL)


def _check_sequence(blocks):
    """Every norm within tolerance of LAPACK's, with float64 overflow and
    invalid operations raising as they do in the CLI."""
    with np.errstate(over="raise", invalid="raise"):
        got = list(_propagator_norms(iter(blocks)))
    assert len(got) == len(blocks)
    for value, p in zip(got, blocks):
        assert isinstance(value, float)
        assert _within(value, np.linalg.norm(p, 2)), (value, np.linalg.norm(p, 2))
    return got


def _grid(rng, dim, n, T, grid_points):
    coeffs = random_hp_coefficients(rng, dim, n)
    amp = FieldAmplitudes(
        tuple(complex(*rng.normal(size=2)) * 0.5 for _ in range(n)),
        tuple(complex(*rng.normal(size=2)) * 0.5 for _ in range(n)),
    )
    return list(propagate_on_grid(coeffs, amp, T, grid_points, np.eye(dim)))


def _rotated(rng, sv):
    """U diag(sv) V* for random unitaries U and V."""
    d = len(sv)
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    v = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    return (u * np.asarray(sv)) @ v.conj().T


class TestAgainstTheSvdNorm:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 40),
           n=st.integers(1, 2), T=st.sampled_from([0.3, 2.0, 8.0, 30.0]),
           grid_points=st.integers(2, 40))
    def test_random_dissipative_grids(self, seed, dim, n, T, grid_points):
        rng = np.random.default_rng(seed)
        _check_sequence(_grid(rng, dim, n, T, grid_points))

    def test_certified_values_on_a_decaying_grid(self, monkeypatch):
        """A grid that decays to low rank takes the SVD only at its first
        times; the rest are certified Ritz values, not LAPACK's bits."""
        blocks = _grid(np.random.default_rng(5), 30, 2, 30.0, 40)
        counts = count_full_size_svds(monkeypatch, 30)
        got = list(_propagator_norms(blocks))
        monkeypatch.undo()
        assert counts["full"] <= 4
        _check_sequence(blocks)
        assert got != [np.linalg.norm(p, 2) for p in blocks]

    @pytest.mark.parametrize("d", [1, 2, 5, 40])
    def test_identity_and_zero(self, d):
        eye, zero = np.eye(d, dtype=complex), np.zeros((d, d), complex)
        assert _check_sequence([eye, zero, eye, zero, zero, eye]) == [
            1.0, 0.0, 1.0, 0.0, 0.0, 1.0]

    def test_unitaries_fall_back(self, monkeypatch):
        """All singular values equal: the block cannot certify, so every
        time takes the SVD and has its bits."""
        rng = np.random.default_rng(1)
        blocks = [_rotated(rng, np.ones(12)) for _ in range(5)]
        counts = count_full_size_svds(monkeypatch, 12)
        got = list(_propagator_norms(blocks))
        monkeypatch.undo()
        assert counts["full"] == len(blocks)
        assert got == [np.linalg.norm(p, 2) for p in blocks]

    def test_rank_one(self):
        rng = np.random.default_rng(2)
        blocks = []
        for s in (3.0, 1e-3, 0.5, 7.0):
            u = rng.normal(size=20) + 1j * rng.normal(size=20)
            v = rng.normal(size=20) + 1j * rng.normal(size=20)
            blocks.append(s * np.outer(u, v.conj()))
        _check_sequence(blocks)

    def test_near_degenerate_top(self):
        rng = np.random.default_rng(3)
        sv = np.array([1 + 1e-14, 1.0, 0.3, 1e-3, *np.zeros(16)])
        blocks = [_rotated(rng, sv * s) for s in (1.0, 0.99, 0.98, 0.97)]
        _check_sequence(blocks)
        # The top pair inside the warm block, and then swapped within it.
        swap = np.diag(np.array([1.0, 1 + 1e-14, 0.3, 1e-3, 0, 0, 0, 0]))
        _check_sequence([np.diag([1 + 1e-14, 1.0, 0.3, 1e-3, 0, 0, 0, 0]), swap, swap])

    def test_decaying_spectrum_under_random_rotations(self):
        """The one subspace step leaves a residual that the certificate
        must see: the block is not invariant."""
        rng = np.random.default_rng(4)
        sv = 0.6 ** np.arange(12)
        _check_sequence([_rotated(rng, sv) for _ in range(6)])

    def test_dominant_direction_outside_the_warm_block(self):
        """After the first times the warm block holds e0..e3; the largest
        singular value then sits on an orthogonal direction, once on a
        coordinate (a long column reveals it) and once spread (no column
        does)."""
        d = 10
        first = np.diag([1.0, 0.9, 0.8, 0.7, *np.zeros(d - 4)]).astype(complex)
        coordinate = first.copy()
        coordinate[d - 1, d - 1] = 2.0
        u = np.zeros(d, complex)
        u[4:] = 1 / np.sqrt(d - 4)
        spread = first + 2.0 * np.outer(u, u)
        _check_sequence([first, first, coordinate, first, spread, spread, first])

    def test_hidden_mass_within_the_rounding_margin_falls_back(self, monkeypatch):
        """c and e are widened by 4 d eps |P|_F^2.  Here the warm block
        holds sigma = 1 exactly and a spread direction outside it has
        sigma = 1 + 4e-14: unwidened, c would certify 1.0; widened, the
        bound exceeds 1 + 1e-13, so the time takes the SVD and its bits."""
        d = 10
        first = np.diag([1.0, 1.0, 1.0, 1.0, *np.zeros(d - 4)]).astype(complex)
        u = np.zeros(d, complex)
        u[4:] = 1 / np.sqrt(d - 4)
        hidden = first + (1 + 4e-14) * np.outer(u, u)
        counts = count_full_size_svds(monkeypatch, d)
        got = list(_propagator_norms([first, first, hidden]))
        monkeypatch.undo()
        assert counts["full"] == 1
        assert got[2] == np.linalg.norm(hidden, 2)

    @pytest.mark.parametrize("scale", [
        1e-170, 1e-162, 1e-150, 1e-140, 1e-100, 1e-80, 1e-20,
        1e20, 1e80, 1e100, 1e140, 1e150, 1e160,
    ])
    def test_extreme_entry_scales(self, scale):
        """Bounds that underflow or overflow fall back to the SVD; nothing
        raises under the CLI's errstate."""
        blocks = [scale * p for p in _grid(np.random.default_rng(6), 16, 1, 8.0, 12)]
        got = _check_sequence(blocks)
        for value, p in zip(got, blocks):
            assert abs(value - np.linalg.norm(p, 2)) <= REL_TOL * np.linalg.norm(p, 2)


@pytest.fixture(scope="module")
def dk40_path(tmp_path_factory):
    fix = duan_kimble_fixture(gamma=1.0, g=2.0, drive_alpha=0.3 + 0.4j, cutoff=40)
    path = tmp_path_factory.mktemp("dk40") / "dk40.json"
    path.write_text(json.dumps(fixture_to_model_dict(fix)))
    return str(path)


@pytest.mark.parametrize("amps", [[], ["--alpha=0.38-0.23j", "--beta=-0.05-0.39j"]])
def test_dk40_table_takes_few_full_svds(dk40_path, amps, tmp_path, monkeypatch, capsys):
    """dk40's propagator is numerically rank 2 after a few steps, so the
    64-row table takes at most 4 full-size SVDs (there were 64)."""
    csv_path = tmp_path / "sg.csv"
    counts = count_full_size_svds(monkeypatch, 123)
    argv = ["semigroup", dk40_path, "--k", "16", "--T", "2", "--grid", "64",
            *amps, "--csv", str(csv_path)]
    assert main(argv) == 0
    monkeypatch.undo()
    assert counts["full"] <= 4
    assert capsys.readouterr().out.splitlines()[-1] == "contraction: PASS"
    rows = csv_path.read_text().splitlines()[1:]
    assert len(rows) == 64 and rows[0].endswith(",1")


def test_semigroup_gaps_have_the_bits_of_per_point_norms():
    fix = builtin_fixture("duan-kimble")
    result = eliminate(fix.family, fix.sub)
    amp = FieldAmplitudes((0.3 - 0.2j,), (0.1 + 0.4j,))
    v = result.sub.slow_basis
    limit_side = [v @ small for small in propagate_on_grid(
        result.limit, amp, 2.0, 16, np.eye(v.shape[1]))]
    for k in (2.0, 8.0):
        want = 0.0
        for big, embedded in zip(propagate_on_grid(
                assemble(result.family, k), amp, 2.0, 16, v), limit_side):
            want = max(want, float(np.linalg.norm(big - embedded, 2)))
        assert semigroup_gap(result, amp, 2.0, 16, k) == want


def test_semigroup_gap_is_one_batched_svd_per_k(monkeypatch):
    fix = builtin_fixture("duan-kimble")
    result = eliminate(fix.family, fix.sub)
    calls = []
    real = convergence._gap
    monkeypatch.setattr(convergence, "_gap",
                        lambda lo, hi: calls.append(lo.shape) or real(lo, hi))
    convergence.semigroup_study(result, FieldAmplitudes((0.2j,), (0j,)),
                                (2, 4, 8), 1.0, 9)
    assert calls == [(9, *result.sub.slow_basis.shape)] * 3


class TestTrivialScatteringDefect:
    def test_identity_grid_forms_no_product(self, monkeypatch):
        fam = builtin_fixture("truncation-demo").family
        monkeypatch.setattr(qsde_model.np, "block", None)  # any product would call it
        defect = qsde_model._unitarity_defect(fam.w_ops)
        assert defect.value == 0.0 and defect.upper == 0.0

    @pytest.mark.parametrize("eps", [1e-300, 1e-12])
    def test_other_grids_take_the_product(self, eps):
        fam = builtin_fixture("truncation-demo").family
        w = fam.w_ops[0][0].entries.copy()
        w[0, 1] = eps
        grid = ((Operator(fam.space, w),),)
        want = np.linalg.norm(w @ w.conj().T - np.eye(len(w)), 2)
        assert qsde_model._unitarity_defect(grid).value == max(
            want, np.linalg.norm(w.conj().T @ w - np.eye(len(w)), 2))
