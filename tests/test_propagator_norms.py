"""Per-time propagator norms against the SVD norm they replace.

`qsdelim semigroup` tabulates |exp(tG)| at every grid time through
`operator_core._propagator_norms(step, count)`, the norms of the powers
P_m = step^m of the grid step: a Rayleigh-Ritz value on a small
warm-started block, certified from above, with the SVD where the
certificate does not decide.  The reference is `np.linalg.norm(P_m, 2)`
of the same products; every value must lie within max(1e-12 |ref|,
1e-14) of it, over the steps of random dissipative generators and
hand-made steps that defeat the warm start (equal singular values, a
dominant direction outside the block, near-degenerate tops, entries from
1e-150 to 1e150), each met by the block e0..e3 that t = 0 leaves.  The
t = 0 block I takes neither a step nor an SVD, and a nearly certified
step, warm or restarted, is repeated while it converges, so random136's
table takes at most half its old SVDs and dk40's takes none, with the
bits of that rule up to its thin phase.
`_gap` equals the batched SVD's max bit for bit over stacks of every
shape, near-ties and entry scales, while passing only the slices its
Gram eigenvalues single out; semigroup gaps have the bits of the
per-point norms, and a unitarity defect of W = I is 0.0 with no product.
The table goes thin once a certified 4-column block carries the norm: the
thin values keep the same tolerance over random and k^2-scaled models,
a bound that stops certifying returns to full products, and dk40's
64-row table forms at most 6 full-size products.  The thin norms come
from one batched SVD per chunk of 1, 2, 4, ... blocks formed ahead, with
the bits of `_norm2` block by block, over random stable steps, phases
that fail at their first, second and later times, blocks that split and
blocks past float64; a phase that stops after i values formed fewer than
2i blocks.
"""

import json
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsdelim import (
    FieldAmplitudes,
    HilbertSpace,
    builtin_fixture,
    duan_kimble_fixture,
    eliminate,
    fixture_to_model_dict,
    generator,
    propagate_on_grid,
    random_structured_fixture,
    semigroup_gap,
)
from qsdelim import convergence, operator_core, qsde_model, semigroup
from qsdelim.cli import main
from qsdelim.errors import NonFiniteEntries
from qsdelim.operator_core import Operator, _propagator_norms
from qsdelim.qsde_model import assemble
from qsdelim.semigroup import _grid_step

from model_helpers import count_full_size_svds, random_hp_coefficients

REL_TOL = 1e-12
ABS_TOL = 1e-14


def _within(got, want) -> bool:
    return abs(got - want) <= max(REL_TOL * abs(want), ABS_TOL)


def _powers(step, count) -> list:
    """P_0 = I and P_m = step @ P_(m-1), the products the table forms."""
    powers = [np.eye(len(step), dtype=np.complex128)]
    for _ in range(count - 1):
        powers.append(step @ powers[-1])
    return powers


def _check_table(step, count=2):
    """Every norm of the table within tolerance of LAPACK's norm of the
    power, with float64 overflow and invalid operations raising as they do
    in the CLI."""
    with np.errstate(over="raise", invalid="raise"):
        got = list(_propagator_norms(step, count))
    assert len(got) == count and got[0] == 1.0
    for value, p in zip(got, _powers(step, count)):
        assert isinstance(value, float)
        assert _within(value, np.linalg.norm(p, 2)), (value, np.linalg.norm(p, 2))
    return got


def _grid_gen(rng, dim, n):
    coeffs = random_hp_coefficients(rng, dim, n)
    amp = FieldAmplitudes(
        tuple(complex(*rng.normal(size=2)) * 0.5 for _ in range(n)),
        tuple(complex(*rng.normal(size=2)) * 0.5 for _ in range(n)),
    )
    return generator(coeffs, amp)


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
        gen = _grid_gen(np.random.default_rng(seed), dim, n)
        _check_table(_grid_step(gen, T, grid_points), grid_points)

    def test_certified_values_on_a_decaying_grid(self, monkeypatch):
        """A grid that decays to low rank takes the SVD only at its first
        times; the rest are certified Ritz values, not LAPACK's bits."""
        step = _grid_step(_grid_gen(np.random.default_rng(5), 30, 2), 30.0, 40)
        counts = count_full_size_svds(monkeypatch, 30)
        got = list(_propagator_norms(step, 40))
        monkeypatch.undo()
        assert counts["full"] <= 4
        _check_table(step, 40)
        assert got != [np.linalg.norm(p, 2) for p in _powers(step, 40)]

    @pytest.mark.parametrize("d", [1, 2, 5, 40])
    def test_identity_and_zero(self, d):
        eye, zero = np.eye(d, dtype=complex), np.zeros((d, d), complex)
        assert _check_table(eye, 4) == [1.0] * 4
        assert _check_table(zero, 4) == [1.0, 0.0, 0.0, 0.0]

    def test_unitaries_fall_back(self, monkeypatch):
        """All singular values equal: the block cannot certify, so every
        time after t = 0 takes the SVD and has its bits."""
        step = _rotated(np.random.default_rng(1), np.ones(12))
        counts = count_full_size_svds(monkeypatch, 12)
        got = list(_propagator_norms(step, 6))
        monkeypatch.undo()
        assert counts["full"] == 5
        assert got == [np.linalg.norm(p, 2) for p in _powers(step, 6)]

    def test_rank_one(self):
        rng = np.random.default_rng(2)
        for s in (3.0, 1e-3, 0.5, 7.0):
            u = rng.normal(size=20) + 1j * rng.normal(size=20)
            v = rng.normal(size=20) + 1j * rng.normal(size=20)
            _check_table(s * np.outer(u, v.conj()), 3)

    def test_near_degenerate_top(self):
        rng = np.random.default_rng(3)
        sv = np.array([1 + 1e-14, 1.0, 0.3, 1e-3, *np.zeros(16)])
        for s in (1.0, 0.99, 0.98, 0.97):
            _check_table(_rotated(rng, sv * s))
        # The top pair inside the warm block, and then swapped within it.
        _check_table(np.diag([1 + 1e-14, 1.0, 0.3, 1e-3, 0, 0, 0, 0]), 3)
        _check_table(np.diag([1.0, 1 + 1e-14, 0.3, 1e-3, 0, 0, 0, 0]), 3)

    def test_decaying_spectrum_under_random_rotations(self):
        """The one subspace step leaves a residual that the certificate
        must see: the block is not invariant."""
        rng = np.random.default_rng(4)
        sv = 0.6 ** np.arange(12)
        for _ in range(6):
            _check_table(_rotated(rng, sv), 3)

    def test_dominant_direction_outside_the_warm_block(self):
        """After t = 0 the warm block holds e0..e3; the largest singular
        value of the step and its powers sits on an orthogonal direction,
        once on a coordinate (a long column reveals it) and once spread (no
        column does)."""
        d = 10
        first = np.diag([1.0, 0.9, 0.8, 0.7, *np.zeros(d - 4)]).astype(complex)
        coordinate = first.copy()
        coordinate[d - 1, d - 1] = 2.0
        u = np.zeros(d, complex)
        u[4:] = 1 / np.sqrt(d - 4)
        spread = first + 2.0 * np.outer(u, u)
        for step in (first, coordinate, spread):
            _check_table(step, 3)

    def test_hidden_mass_within_the_rounding_margin_falls_back(self, monkeypatch):
        """c and e are widened by 4 d eps |P|_F^2.  Here the warm block
        e0..e3 holds sigma = 1 exactly and a spread direction outside it
        has sigma = 1 + 4e-14: unwidened, c would certify 1.0; widened, the
        bound exceeds 1 + 1e-13, so the time takes the SVD and its bits, in
        one call on the stack of hidden's five blocks."""
        d = 10
        u = np.zeros(d, complex)
        u[4:] = 1 / np.sqrt(d - 4)
        hidden = np.diag([1.0, 1.0, 1.0, 1.0, *np.zeros(d - 4)]) + (
            1 + 4e-14) * np.outer(u, u)
        counts = count_full_size_svds(monkeypatch, d)
        got = list(_propagator_norms(hidden, 2))
        monkeypatch.undo()
        assert counts["full"] + counts["stacked"] == 1
        assert got[1] == np.linalg.norm(_powers(hidden, 2)[1], 2)

    @pytest.mark.parametrize("scale", [
        1e-170, 1e-162, 1e-150, 1e-140, 1e-100, 1e-80, 1e-20,
        1e20, 1e80, 1e100, 1e140, 1e150, 1e160,
    ])
    def test_extreme_entry_scales(self, scale):
        """Bounds that underflow or overflow fall back to the SVD; nothing
        raises under the CLI's errstate."""
        step = _grid_step(_grid_gen(np.random.default_rng(6), 16, 1), 8.0, 12)
        for p in _powers(step, 12):
            got = _check_table(scale * p)
            assert abs(got[1] - np.linalg.norm(scale * p, 2)) <= (
                REL_TOL * np.linalg.norm(scale * p, 2))


def _count_calls(monkeypatch, module, name) -> list:
    """Wrap module.name so that each call appends its first argument."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kw: calls.append(args[0]) or real(*args, **kw))
    return calls


class TestStepsAndSvdsSkipped:
    """The t = 0 block I takes neither a step nor an SVD, and a step whose
    bound is nearly certified is repeated while it converges."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 9, 123])
    def test_identity_block_is_what_a_step_from_it_returns(self, d):
        """The block left after I is the one a step from I's first columns
        returned (before the shortcut, the first P always took that step),
        bit for bit, so the times after it keep their bits."""
        eye = np.eye(d, dtype=np.complex128)
        b = min(d, operator_core._RITZ_BLOCK)
        stepped = operator_core._ritz_step(eye, eye[:, list(range(b))])[2]
        left = np.eye(d, b, dtype=np.complex128)
        assert stepped.flags.c_contiguous and left.flags.c_contiguous
        assert np.array_equal(stepped.view(np.uint64), left.view(np.uint64))

    def test_identity_takes_no_step_and_no_svd(self, monkeypatch):
        step = _rotated(np.random.default_rng(1), np.linspace(0.1, 1.0, 30))
        steps = _count_calls(monkeypatch, operator_core, "_ritz_step")
        counts = count_full_size_svds(monkeypatch, 30)
        assert list(_propagator_norms(step, 1)) == [1.0]
        assert (len(steps), counts["full"], counts["stacked"]) == (0, 0, 0)

    def test_identity_step_yields_one(self, monkeypatch):
        """A later P that is exactly I (the step of a zero generator) is no
        shortcut: each takes one step and the SVD, whose norm is 1.0."""
        steps = _count_calls(monkeypatch, operator_core, "_ritz_step")
        counts = count_full_size_svds(monkeypatch, 30)
        assert list(_propagator_norms(np.eye(30, dtype=complex), 3)) == [1.0] * 3
        assert (len(steps), counts["stacked"]) == (2, 2)

    def test_unitaries_take_one_step_per_time(self, monkeypatch):
        """All singular values equal: every bound is far from theta, so no
        time repeats its step, and each after t = 0 takes the SVD."""
        step = _rotated(np.random.default_rng(1), np.ones(12))
        steps = _count_calls(monkeypatch, operator_core, "_ritz_step")
        got = list(_propagator_norms(step, 6))
        monkeypatch.undo()
        assert len(steps) == 5
        assert got == [np.linalg.norm(p, 2) for p in _powers(step, 6)]

    def test_repeats_stop_when_a_step_stalls(self, monkeypatch):
        """The hidden direction's sigma exceeds that of the block e0..e3
        by 4e-14, so a repeated step leaves the bound's excess (1.4e-13)
        where it was: one repeat, then the SVD."""
        d = 10
        u = np.zeros(d, complex)
        u[4:] = 1 / np.sqrt(d - 4)
        hidden = np.diag([1.0, 1.0, 1.0, 1.0, *np.zeros(d - 4)]) + (
            1 + 4e-14) * np.outer(u, u)
        steps = _count_calls(monkeypatch, operator_core, "_ritz_step")
        got = list(_propagator_norms(hidden, 2))
        monkeypatch.undo()
        assert len(steps) == 2 and steps[0] is steps[1]
        assert np.array_equal(steps[0], hidden)
        assert got[1] == np.linalg.norm(hidden, 2)


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


def test_dk40_table_takes_no_full_svd(dk40_path, tmp_path, monkeypatch):
    """At the benchmark's amplitudes t = dt nearly certifies on the block
    of P's longest columns, and its repeated steps certify it, so no time
    takes the SVD (t = 0 is I).  The 59 thin times from J = 4 take one
    np.linalg.svd per chunk of 1, 2, 4, 8, 16 and 28 blocks."""
    counts = count_full_size_svds(monkeypatch, 123)
    argv = ["semigroup", dk40_path, "--k", "16", "--T", "2", "--grid", "64",
            "--alpha=0.38-0.23j", "--beta=-0.05-0.39j",
            "--csv", str(tmp_path / "sg.csv")]
    assert main(argv) == 0
    assert counts == {"full": 0, "stacked": 0, "svd": 6}


class _Step(np.ndarray):
    """A grid step that records the width of each block it is applied to:
    d for a full product, the Ritz block's width for a thin one."""

    def __matmul__(self, other):
        self.widths.append(other.shape[1])
        return np.asarray(self) @ other


def _thin_table(gen, T, grid_points):
    """(widths, diagnostics) of the table of a generator's grid step, each
    value checked against the SVD norm of the full product and the tail
    bound against its rounding margin 4 d eps |P_J|_F."""
    d = gen.space.total_dim
    blocks = list(propagate_on_grid(gen, T, grid_points, np.eye(d)))
    step, diagnostics = _grid_step(gen, T, grid_points).view(_Step), {}
    step.widths = []
    with np.errstate(over="raise", invalid="raise"):
        got = list(_propagator_norms(step, grid_points, diagnostics))
    assert len(got) == len(blocks) and got[0] == 1.0
    for value, p in zip(got, blocks):
        want = np.linalg.norm(p, 2)
        assert isinstance(value, float) and _within(value, want), (value, want)
    if diagnostics["tail_bound"] is not None:
        p_j = blocks[diagnostics["dense_steps"]]
        assert diagnostics["tail_bound"] >= 4 * d * np.finfo(float).eps * np.linalg.norm(p_j)
    return step.widths, diagnostics


@st.composite
def _thin_generators(draw):
    """A dressed generator of dim 3 to 136: a random dissipative one, or a
    random structured family assembled at k up to 64 (k^2-scaled)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 2))
    if draw(st.booleans()):
        coeffs = random_hp_coefficients(rng, draw(st.integers(3, 136)), n)
    else:
        hprime = draw(st.integers(3, 8))
        fix = random_structured_fixture(
            rng, hprime, n=n, cutoff=draw(st.integers(1, 136 // hprime - 1)))
        coeffs = assemble(fix.family, draw(st.sampled_from([1.0, 4.0, 16.0, 37.5, 64.0])))
    amp = FieldAmplitudes.vacuum(n) if draw(st.booleans()) else FieldAmplitudes(
        tuple(complex(*rng.normal(size=2)) * 0.5 for _ in range(n)),
        tuple(complex(*rng.normal(size=2)) * 0.5 for _ in range(n)))
    return generator(coeffs, amp)


def _jordan_generator(slow, rate, coupling, fast):
    """diag(slow) (+) [[-rate, coupling], [0, -rate]] (+) diag(fast).  A
    large coupling makes the step's norm exceed its decay, so the tail
    bound g^(m-J) t outgrows the norm after the table has gone thin."""
    d = len(slow) + 2 + len(fast)
    g = np.diag(np.array([*slow, -rate, -rate, *fast], dtype=complex))
    g[len(slow), len(slow) + 1] = coupling
    return Operator(HilbertSpace((d,)), g)


class TestThinTail:
    """Once a certified block carries the norm, the table steps on with
    d x 4 products and reports sigma_max(P Q); the values keep the dense
    table's tolerance."""

    @settings(max_examples=30, deadline=None)
    @given(gen=_thin_generators(), T=st.sampled_from([0.3, 2.0, 8.0]),
           grid_points=st.integers(2, 64))
    def test_random_and_scaled_models(self, gen, T, grid_points):
        """The table ends on full products or on a thin phase from J: its
        last grid_points - 1 - J products are thin and the one before
        forms P_J."""
        widths, diagnostics = _thin_table(gen, T, grid_points)
        d, j = gen.space.total_dim, diagnostics["dense_steps"]
        assert len(widths) >= grid_points - 1
        if diagnostics["tail_bound"] is None:
            assert j == grid_points and widths[-1] == d
        else:
            assert 1 <= j < grid_points
            thin = grid_points - 1 - j
            assert widths[len(widths) - thin - 1:] == [d] + [min(d, 4)] * thin

    @pytest.mark.parametrize("slow, rate, coupling, fast", [
        ((0.0, -0.1), 40.0, 400.0, (-30.0, -35.0)),  # |step| = 3.6 > 1
        ((-20.0, -21.0), 40.0, 108.0, (-60.0, -70.0)),  # norm decays past g^m t
    ])
    def test_bound_that_stops_certifying_returns_to_full_products(
            self, slow, rate, coupling, fast):
        """The table goes thin, the bound fails, P_m is formed from the
        kept P_J and the table goes on from it: the last thin phase starts
        later than the first, and every value keeps the tolerance."""
        widths, diagnostics = _thin_table(
            _jordan_generator(slow, rate, coupling, fast), 2.0, 64)
        # Before any fallback, product m forms the block of time m + 1.
        first_j = widths.index(4)
        assert 6 in widths[first_j:]
        assert diagnostics["dense_steps"] > first_j

    def test_lasting_fallback_steps_on_from_the_full_propagator(self):
        """Four transient modes of norm about 1e8 t e^-t carry the norm over
        a steady mode of norm 1 outside the block.  Once they have decayed
        the tail no longer fits, so after the fallback the table stays on
        full products, stepping on from the P_m it formed."""
        widths, diagnostics = _thin_table(_transient_generator(), 10.0, 64)
        last_thin = len(widths) - 1 - widths[::-1].index(4)
        assert widths[last_thin + 1:] == [9] * (len(widths) - 1 - last_thin) != []
        assert diagnostics == {"dense_steps": 64, "tail_bound": None}


def _transient_generator():
    """diag of four 2 x 2 blocks [[-r, 1e8], [0, -r]] (r = 1.0 .. 1.3) and
    a steady 0: on a T = 10, 64-point grid the norm is carried by modes
    that decay below the steady one, so the tail stops fitting."""
    d = 9
    g = np.zeros((d, d), dtype=complex)
    for i, rate in enumerate((1.0, 1.1, 1.2, 1.3)):
        g[2 * i, 2 * i] = g[2 * i + 1, 2 * i + 1] = -rate
        g[2 * i, 2 * i + 1] = 1e8
    return Operator(HilbertSpace((d,)), g)


def _sequential_thin_norms(step, b, count):
    """The thin phase block by block: B_i = step @ B_(i-1) and its `_norm2`."""
    for _ in range(count):
        b = step @ b
        yield operator_core._norm2(b)


def _outcome(step, count, errstate):
    """The table's values as uint64 bits (NaN included), or the type and
    message of the error it raised, under the given errstate."""
    try:
        with np.errstate(over=errstate, invalid=errstate):
            return np.array(list(_propagator_norms(step, count))).view(np.uint64).tolist()
    except (FloatingPointError, np.linalg.LinAlgError, NonFiniteEntries) as exc:
        return type(exc), str(exc)


def _thin_phases(monkeypatch, step) -> list:
    """Wrap `_thin_norms`: each thin phase appends [values read, blocks
    formed, blocks it may read], the formed blocks counted as the d x 4
    products that the `_Step` `step` records while its values are read."""
    phases, real = [], operator_core._thin_norms

    def counted(step_, b, count):
        phase = [0, 0, count]
        phases.append(phase)
        values = real(step_, b, count)
        while True:
            before = len(step.widths)
            try:
                value = next(values)
            except StopIteration:
                return
            phase[0] += 1
            phase[1] += step.widths[before:].count(b.shape[1])
            yield value

    monkeypatch.setattr(operator_core, "_thin_norms", counted)
    return phases


def _chunked_table(monkeypatch, step, count):
    """(values, phases, svd calls, diagnostics) of the table of a d x d
    step with d > 4; the values are checked against `_check_table` and,
    bit for bit, against the table whose thin norms are taken block by
    block, and each phase that stopped after i values formed fewer than 2i
    blocks."""
    step = np.asarray(step).view(_Step)
    step.widths, diagnostics = [], {}
    phases = _thin_phases(monkeypatch, step)
    svds = _count_calls(monkeypatch, np.linalg, "svd")
    with np.errstate(over="raise", invalid="raise"):
        got = list(_propagator_norms(step, count, diagnostics))
    monkeypatch.undo()
    monkeypatch.setattr(operator_core, "_thin_norms", _sequential_thin_norms)
    assert _outcome(step, count, "raise") == np.array(got).view(np.uint64).tolist()
    monkeypatch.undo()
    _check_table(np.asarray(step), count)
    for read, formed, capacity in phases:
        assert read <= formed < 2 * read or read == formed == capacity == 0
    return got, phases, svds, diagnostics


def _failures(phases, diagnostics) -> list:
    """The thin time (1 = the first after J) at which each failed phase
    stopped: every phase but a last one that ran to the table's end."""
    done = diagnostics["tail_bound"] is not None
    return [read for read, _, _ in (phases[:-1] if done else phases)]


class TestThinNormsInChunks:
    """The thin phase forms its blocks ahead in chunks of 1, 2, 4, ... and
    takes sigma_max of each chunk from one batched SVD, with the bits of
    `_norm2` block by block; a block `_norm2` would split, or one that is
    not finite, takes `_norm2`."""

    @settings(max_examples=30, deadline=None)
    @given(gen=_thin_generators(), T=st.sampled_from([0.3, 2.0, 8.0]),
           grid_points=st.integers(2, 64))
    def test_random_stable_steps(self, gen, T, grid_points):
        if gen.space.total_dim > 4:
            with pytest.MonkeyPatch.context() as monkeypatch:
                _chunked_table(monkeypatch, _grid_step(gen, T, grid_points), grid_points)
        else:
            _check_table(_grid_step(gen, T, grid_points), grid_points)

    def test_phases_that_fail_at_the_first_second_and_later_times(self, monkeypatch):
        """A Jordan block whose step has norm 3.6 makes the tail bound
        outgrow the norm again and again."""
        step = _grid_step(_jordan_generator((0.0, -0.1), 40.0, 400.0, (-30.0, -35.0)), 2.0, 64)
        _, phases, svds, diagnostics = _chunked_table(monkeypatch, step, 64)
        failures = _failures(phases, diagnostics)
        assert {1, 2} <= set(failures) and max(failures) > 2
        assert len(svds) >= len(phases)

    def test_split_blocks_take_norm2(self, monkeypatch):
        """A diagonal step's thin blocks have a zero in every row and
        column: each takes `_norm2` (which splits it), none the batch."""
        step = np.diag([0.9, 0.8, 0.7, 0.6, 1e-3, 1e-4]).astype(complex)
        calls = _count_calls(monkeypatch, operator_core, "_norm2")
        _, phases, svds, diagnostics = _chunked_table(monkeypatch, step, 20)
        assert diagnostics["dense_steps"] == 3 and phases == [[16, 16, 16]]
        assert svds == [] and sum(np.shape(x) == (6, 4) for x in calls) == 16

    def test_a_block_past_float64_fails_as_block_by_block(self, monkeypatch):
        """sigma_max of 1e12 per step: the thin blocks leave float64 at
        about t = 26.  Under the CLI's errstate the table raises the
        overflow of a product, as block by block; without it, the
        non-finite block takes `_norm2`, with the same outcome:
        NonFiniteEntries, not LAPACK's LinAlgError."""
        step = _rotated(np.random.default_rng(1), [1e12, 0.5, 0.3, 0.2, 0.1, 0.05, 0, 0, 0, 0])
        chunked = [_outcome(step, 64, e) for e in ("raise", "ignore")]
        monkeypatch.setattr(operator_core, "_thin_norms", _sequential_thin_norms)
        assert chunked == [_outcome(step, 64, e) for e in ("raise", "ignore")]
        assert chunked[0] == (FloatingPointError, "overflow encountered in matmul")
        assert chunked[1][0] is NonFiniteEntries

    def test_transient_model_forms_at_most_twice_the_thin_blocks(self, monkeypatch):
        """The 9 x 9 model of the lasting fallback re-enters a thin phase
        that fails at its first time, 25 times: block by block the table
        formed 25 d x 4 products.  Chunks that start at one block form no
        more; each takes one batched SVD unless its one block splits."""
        step = _grid_step(_transient_generator(), 10.0, 64)
        _, phases, svds, diagnostics = _chunked_table(monkeypatch, step, 64)
        formed = sum(f for _, f, _ in phases)
        assert formed <= 2 * 25
        assert _failures(phases, diagnostics) == [1] * 25
        assert len(svds) <= formed


def _count_full_products(monkeypatch, d) -> list:
    """Count (d, d) @ (d, d) products taken on the grid's step or on any
    array formed from it: the step comes out of the exponential as an
    array subclass whose matrix products are recorded."""
    products = []

    class Spy(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            inputs = [np.asarray(x) for x in inputs]
            if "out" in kwargs:
                kwargs["out"] = tuple(np.asarray(x) for x in kwargs["out"])
            if ufunc is np.matmul and all(x.shape == (d, d) for x in inputs):
                products.append(ufunc)
            out = getattr(ufunc, method)(*inputs, **kwargs)
            return out.view(Spy) if isinstance(out, np.ndarray) else out

    real = semigroup.matrix_exponential
    monkeypatch.setattr(semigroup, "matrix_exponential", lambda x, t: types.SimpleNamespace(
        entries=real(x, t).entries.view(Spy)))
    return products


def test_dk40_table_forms_few_full_products(dk40_path, tmp_path, monkeypatch, capsys):
    """At the benchmark's amplitudes the table goes thin at J = 4: the
    products P_1 .. P_4 are the only full-size ones (there were 63)."""
    products = _count_full_products(monkeypatch, 123)
    argv = ["semigroup", dk40_path, "--k", "16", "--T", "2", "--grid", "64",
            "--alpha=0.38-0.23j", "--beta=-0.05-0.39j",
            "--csv", str(tmp_path / "sg.csv")]
    assert main(argv) == 0
    assert 1 <= len(products) <= 6
    assert capsys.readouterr().out.splitlines()[-1] == "contraction: PASS"


def _refined(p, q):
    """A Ritz step from q, repeated on p while its bound's excess is at
    most 1e-6 and each repeat cuts it tenfold."""
    theta, certified, q, excess = operator_core._ritz_step(p, q)
    while not certified and excess <= 1e-6:
        theta, certified, q, shrunk = operator_core._ritz_step(p, q)
        excess = shrunk if shrunk < excess / 10 else np.inf
    return theta, certified, q


def _reference_norms(blocks):
    """(value, Ritz block) per time by the rule without the t = 0 shortcut:
    a warm step, else a step from the longest columns, each repeated while
    it nearly certifies, else the SVD."""
    q = None
    for p in blocks:
        theta, certified = -np.inf, False
        if q is not None:
            theta, certified, q = _refined(p, q)
        if not certified:
            cols = (p.real * p.real + p.imag * p.imag).sum(axis=0)
            if cols.max() > theta:
                top = np.sort(np.argsort(-cols, kind="stable")[:4])
                start = np.eye(len(cols), dtype=np.complex128)[:, top]
                theta_c, certified, q_c = _refined(p, start)
                if certified or q is None:
                    theta, q = theta_c, q_c
        yield (float(np.sqrt(theta)) if certified else float(np.linalg.norm(p, 2))), q


@pytest.mark.parametrize("alpha, beta", [
    (0j, 0j), (0.38483966940501357 - 0.2349808261375978j,
               -0.050030937646668078 - 0.38620700306958461j),
    (-0.1400586304654301 + 0.06257587867739367j,
     0.18591140473819195 + 0.29189000346616989j),
])
def test_dk40_table_keeps_its_bits(alpha, beta):
    """Every value has the bits of the reference rule up to J, the block
    that t = 0 leaves being the one its step left, and every thin value
    those of `_norm2` of step^(m-J) P_J Q, with Q the reference's Ritz
    block at J; every value keeps the tolerance (the benchmark's
    amplitudes at seeds 0 and 3, whose t = dt certifies after repeated
    steps on the block of the longest columns, and vacuum)."""
    fix = duan_kimble_fixture(gamma=1.0, g=2.0, drive_alpha=0.3 + 0.4j, cutoff=40)
    gen = generator(assemble(fix.family, 16), FieldAmplitudes((alpha,), (beta,)))
    blocks, diagnostics = list(propagate_on_grid(gen, 2.0, 64, np.eye(123))), {}
    step = _grid_step(gen, 2.0, 64)
    got = list(_propagator_norms(step, 64, diagnostics))
    j = diagnostics["dense_steps"]
    assert j == 4
    reference = list(_reference_norms(blocks[: j + 1]))
    assert got[: j + 1] == [value for value, _ in reference]
    b = blocks[j] @ reference[j][1]
    for value in got[j + 1:]:
        b = step @ b
        assert value == operator_core._norm2(b)
    for value, p in zip(got, blocks):
        assert _within(value, np.linalg.norm(p, 2))


def test_random136_table_takes_few_svds(monkeypatch):
    """On this 8-point grid one step per time does not certify (the bound
    stays 1e-8 to 1e-3 above theta), but from t = 5 the warm block is
    within 1e-6 and a few repeated steps on the same P certify it: at most
    4 SVDs (there were 8) and 20 steps, each at most a tenth of an SVD."""
    fix = random_structured_fixture(np.random.default_rng(11), 8, n=2, cutoff=16)
    amp = FieldAmplitudes((0j, 0j), (0j, 0j))
    step = _grid_step(generator(assemble(fix.family, 4), amp), 1.0, 8)
    steps = _count_calls(monkeypatch, operator_core, "_ritz_step")
    counts = count_full_size_svds(monkeypatch, 136)
    list(_propagator_norms(step, 8))
    monkeypatch.undo()
    assert counts["full"] <= 4 and len(steps) <= 20
    _check_table(step, 8)


def test_semigroup_gaps_have_the_bits_of_per_point_norms():
    fix = builtin_fixture("duan-kimble")
    result = eliminate(fix.family, fix.sub)
    amp = FieldAmplitudes((0.3 - 0.2j,), (0.1 + 0.4j,))
    v = result.sub.slow_basis
    limit_side = [v @ small for small in propagate_on_grid(
        generator(result.limit, amp), 2.0, 16, np.eye(v.shape[1]))]
    for k in (2.0, 8.0):
        want = 0.0
        for big, embedded in zip(propagate_on_grid(
                generator(assemble(result.family, k), amp), 2.0, 16, v),
                limit_side):
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


def _reference_gap(lo, hi) -> float:
    return float(np.linalg.svd(lo - hi, compute_uv=False).max(initial=0.0))


def _unitary(rng, d):
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


def _tied_slices(rng, s, m, n, tie=0.0, scale=1.0):
    """s m x n slices U_j diag(sv) V_j^* with one drawn set of singular
    values, the largest moved by the factor 1 + j tie in slice j, under
    random rotations: for tie = 0 the slices tie exactly and LAPACK's
    values differ only by rounding."""
    sv = np.sort(rng.uniform(0.1, 1.0, min(m, n)))[::-1]
    out = np.empty((s, m, n), dtype=complex)
    for j in range(s):
        moved = sv.copy()
        moved[0] *= 1.0 + j * tie
        u, v = _unitary(rng, m)[:, : len(sv)], _unitary(rng, n)[:, : len(sv)]
        out[j] = scale * (u * moved) @ v.conj().T
    return out


@st.composite
def _gap_stacks(draw):
    """(lo, hi) stacks of s m x n matrices, m > n or m < n, with entries
    near 10^e for e in -150..150; differences either random or exact ties
    or near-ties 1e-10 apart (`_tied_slices`)."""
    s, m, n = (draw(st.integers(0, 6)), draw(st.integers(1, 12)),
               draw(st.integers(1, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-150, 150))
    hi = scale * (rng.normal(size=(s, m, n)) + 1j * rng.normal(size=(s, m, n)))
    if draw(st.booleans()):
        tie = draw(st.sampled_from([0.0, 1e-10, -1e-10]))
        lo = hi + _tied_slices(rng, s, m, n, tie, scale)
    else:
        lo = hi + scale * (rng.normal(size=(s, m, n))
                           + 1j * rng.normal(size=(s, m, n)))
    if s and draw(st.booleans()):
        lo[draw(st.integers(0, s - 1))] = hi[0]  # an exactly zero slice
    return lo, hi


class TestGapFromTheTiedSlices:
    """`_gap` passes only the slices whose Gram eigenvalue can hold the
    max to LAPACK, with the bits of the SVD of the whole stack."""

    @settings(max_examples=300, deadline=None)
    @given(_gap_stacks())
    @example((np.zeros((0, 3, 2), complex), np.zeros((0, 3, 2), complex)))
    @example((np.ones((1, 2, 5), complex), np.zeros((1, 2, 5), complex)))
    @example((np.zeros((4, 5, 3), complex), np.zeros((4, 5, 3), complex)))
    @example((_tied_slices(np.random.default_rng(4), 4, 7, 3),
              np.zeros((4, 7, 3), complex)))
    @example((_tied_slices(np.random.default_rng(8), 4, 3, 7, scale=1e-150),
              np.zeros((4, 3, 7), complex)))
    def test_bits_of_the_batched_svd(self, stacks):
        lo, hi = stacks
        with np.errstate(over="raise", invalid="raise"):
            assert convergence._gap(lo, hi) == _reference_gap(lo, hi)

    def test_every_slice_when_the_margin_cannot_cover(self, monkeypatch):
        rng = np.random.default_rng(3)
        lo = rng.normal(size=(5, 6, 4)) + 1j * rng.normal(size=(5, 6, 4))
        hi, want = np.zeros_like(lo), _reference_gap(lo, np.zeros_like(lo))
        monkeypatch.setattr(convergence, "_GAP_MARGIN", 0.0)
        shapes = _count_calls(monkeypatch, np.linalg, "svd")
        assert convergence._gap(lo, hi) == want
        monkeypatch.undo()
        assert [x.shape for x in shapes] == [(5, 6, 4)]


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
