"""Array-level fast paths against the per-entry and Gram-Schmidt loops they replace.

`matrix_from_json` decodes a whole matrix into one float64 buffer, and
`subspace_basis` selects identity columns for a coordinate projection.  The
references below keep the loops they replaced; the fast paths must give
exactly their bits (no tolerance) and reject every input they rejected.
A sparse node decodes to the bits of the dense form of the same matrix,
and the model-file emitter picks it only when it stores fewer than half
the entries.

The formulas that live in one helper each (M from unitarity, the limit in
slow coordinates, the field dressing) are checked against their old loops
to 1e-12 relative, and the studies, which reuse one elimination result,
must give the same bits as the per-k functions.

`load_model` decodes with the cyclic collector paused and restores the
caller's collector state.  It decodes a document of at most
`_MAX_OPENINGS` opening brackets by orjson, to the bits `json.loads`
gives, and every other one, or one orjson refuses, by json.load with its
old message and exit code.  `spectral_norm` takes one SVD per operator
(none for an all-zero one) with the bits of `_norm2`, which agrees with a
direct `np.linalg.norm` within 8 max(m, n) eps relative, bit for bit for
an array that is one block.

Structural check c reads the defect that the restricted inverse measured
(same bits as measuring it again), the unitarity defect forms each block
product once (1e-12 of the double loop), and `eliminate` builds M through
`_m_from_unitarity` (1e-12 relative of its old loop).

Checks b, d, e, the side checks, `eliminate` and the corrector work in the
coordinates of the slow and fast bases.  Their old p0/p1 products are the
references: limits and corrector within the benchmark oracle's
max(1e-12 |ref|, 1e-14) per entry for a coordinate projection, 1e-12
relative for a rotated one, and check values within 1e-12 max(1, scale)
with the same flags.  After the restricted inverse, no product of two
d x d arrays is taken: the limit and side checks take r-row or r-column
products, and the corrector matrix-vector ones.  The generator residual,
formed from its five Laurent coefficients in k, matches the per-k loop of
`assemble` and `generator` it replaced under the oracle's rule with the
study's per-k floor, and the study assembles no family.

`tensor_embed` equals the `np.kron` ampliation by value with +0.0 off its
blocks, so random cavity models emit sparse nodes, and `_Norms` gives
the bits of taking every norm while skipping the SVDs that cannot set it.

`truncation_study` propagates each cutoff's leading block on its own
(c+1)-dim space and reuses the grid of a block that adds nothing.  Its gaps
match the d-dim projection products and the d-dim slicing it replaced to
max(1e-12 |ref|, 1e-14), with exactly 0.0 wherever the reference is 0.0,
and the per-cutoff coefficient quadruples it replaced bit for bit (it cuts
one dressed generator, also for two channels with nonzero amplitudes);
that generator is dressed on the leading (c_max+1)-dim block and has the
bits of the full model's generator cut to it, and so do the gaps;
it takes one expm per distinct block, and each nonzero gap passes one
time slice to the SVD.  `_m_from_unitarity` gives -L_i^* with no product
for an exactly delta_ij I grid, bit for bit in one array per channel, and
the products for any other unitary grid, e^{0.3i} I among them.
`SubspacePair` takes |p0| only for a defect above 1e-9 and decides as
the rule that took it first; a coordinate projection forms no product,
and other diagonal p0 keep their messages.  A sparse
node decodes into a buffer its Operator keeps without a copy; an empty one
decodes to +0.0 without converting its lists, and a bad node keeps its
message.  At zero
amplitude components the dressing leaves their terms out, and the
generator study applies it once to each of u, u1 and u2.

Every validator check decides `passed` by a bound where one settles it and
takes its exact values on first read.  Against the eager validators, over
random models, checks pushed to tol scale (1 +- 1e-6) and extreme k, the
verdicts, violations and tolerances are the same bits (the side checks'
violations, formed in another association order, agree under the oracle's
rule); passing commands take no full-size norm to validate, and a failing
one prints exact values.  The osc120 family's zero relations form no
array and its report equals the eager one, and `_relation`'s in-place
defect has the bits of x + x^* + sum(terms, zero).

`restricted_inverse` decides its condition gate by a norm bound and its
defect gate by 1e-10 scale where they settle it: over fast blocks of
condition 1 to 1e14, exactly singular ones and ones within 1e-3 of the
limit, it raises or returns the bits of the exact-cond reference, and a
passing inverse of dk40 or a dim-136 random model takes no SVD.  The
unitarity defect's blocks have the bits of the `np.block` stacking.
"""

import dataclasses
import functools
import gc
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qsdelim import (
    CheckResult,
    FieldAmplitudes,
    HilbertSpace,
    ModelParseError,
    Operator,
    QsdeCoefficients,
    ScaledFamily,
    SingularFastDynamics,
    StructuralViolation,
    SubspacePair,
    assemble,
    builtin_fixture,
    cavity_closed_form,
    driven_oscillator_limit,
    duan_kimble_fixture,
    eliminate,
    generator,
    generator_residual,
    generator_study,
    hp_validate,
    kurtz_corrector,
    propagate_on_grid,
    random_structured_fixture,
    restricted_inverse,
    scaled_hp_validate,
    semigroup_gap,
    semigroup_study,
    spectral_norm,
    structural_validate,
    subspace_basis,
    tensor_embed,
    trivial_family_from_limit,
    truncation_study,
    windowed_oscillator_limit,
)
from qsdelim import convergence, modelfile, qsde_model
from qsdelim.errors import NonFiniteEntries
from qsdelim.operator_core import DEFAULT_COND_LIMIT, _Norms, _norm2, _norm_bound
from qsdelim.cli import _bundled_fixture, main
from qsdelim.modelfile import (
    eval_expression,
    fixture_to_model_dict,
    load_model,
    matrix_from_json,
    matrix_to_json,
    operator_to_json,
    parse_model,
)

from model_helpers import (
    count_full_size_svds, field_dressed_parts, random_hp_coefficients,
    random_scaled_family, rotated_family,
)


def _reference_real(x) -> float:
    # JSON numbers only: a boolean, a string or null is no matrix value.
    if type(x) not in (int, float):
        raise ModelParseError(f"matrix values must be numbers, got {x!r}")
    return float(x)


def _reference_pair(pair) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ModelParseError(f"expected [re, im] pair, got {pair!r}")
    return complex(_reference_real(pair[0]), _reference_real(pair[1]))


def _reference_from_json(rows) -> np.ndarray:
    """The per-entry decoder that `matrix_from_json` replaced, with the
    JSON-number rule of every real field."""
    if not isinstance(rows, list) or not rows:
        raise ModelParseError("matrix must be a nonempty nested list")
    try:
        return np.array(
            [[_reference_pair(z) for z in row] for row in rows], dtype=complex
        )
    except (TypeError, ValueError) as exc:
        raise ModelParseError(f"bad matrix entries: {exc}") from exc


def _reference_to_json(m):
    return [[[float(z.real), float(z.imag)] for z in row]
            for row in np.asarray(m, dtype=complex)]


def _reference_basis(p0, rank_tol=1e-8):
    """The modified Gram-Schmidt loop of `subspace_basis`."""
    p0 = np.asarray(p0, dtype=np.complex128)
    d = p0.shape[0]
    cols = []
    for j in range(d):
        v = p0[:, j].astype(np.complex128, copy=True)
        for _ in range(2):
            for q in cols:
                v -= q * (q.conj() @ v)
        nv = np.linalg.norm(v)
        if nv > rank_tol:
            cols.append(v / nv)
    if not cols:
        return np.zeros((d, 0), dtype=np.complex128)
    return np.column_stack(cols)


def _bits(m: np.ndarray) -> np.ndarray:
    # uint64 view: -0.0 and NaN payloads compare by their bits.
    return np.ascontiguousarray(m).view(np.uint64)


def _decode_outcome(decode, rows):
    try:
        return decode(rows)
    except (ModelParseError, OverflowError) as exc:
        return exc


_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_scalars = st.one_of(
    _floats,
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormal-heavy
    st.just(-0.0),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    _floats.map(repr),  # numeric strings, "nan" and "inf" included
    st.integers(min_value=-(10**6), max_value=10**6).map(str),
)
_pairs = st.one_of(
    st.lists(_scalars, min_size=2, max_size=2),
    st.tuples(_scalars, _scalars),
)


@st.composite
def _matrices(draw, entry=_pairs):
    r = draw(st.integers(1, 6))
    c = draw(st.integers(0, 6))
    return [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(r)]


_bad_entries = st.one_of(
    _scalars,  # a scalar where a pair belongs
    st.lists(_scalars, min_size=1, max_size=1),
    st.lists(_scalars, min_size=3, max_size=3),
    st.lists(st.one_of(st.none(), st.just("x"), st.just([1.0]),
                       st.just({}), st.just(10**400)), min_size=2, max_size=2),
    st.just({"1": 0, "2": 0}),  # two numeric keys, but no pair
)


@st.composite
def _malformed(draw):
    rows = draw(_matrices())
    kind = draw(st.sampled_from(["entry", "ragged", "outer"]))
    if kind == "outer":
        return draw(st.sampled_from([[], {}, None, "m", 1.0, ((1.0, 0.0),)]))
    if kind == "ragged":
        return rows + [rows[0] + [[1.0, 0.0]]]
    # One entry replaced by a malformed one; the rows stay equally long.
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i])))
    bad = rows[i][:j] + [draw(_bad_entries)] + rows[i][j + 1:]
    pad = [[0.0, 0.0]] * (len(bad) - len(rows[i]))
    return [bad if k == i else row + pad for k, row in enumerate(rows)]


class TestMatrixDecoding:
    @settings(max_examples=150, deadline=None)
    @given(_matrices())
    def test_same_bits_as_per_entry_decoder(self, rows):
        want = _decode_outcome(_reference_from_json, rows)
        got = _decode_outcome(matrix_from_json, rows)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray)
            assert got.dtype == np.complex128 and got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want))
        else:
            assert isinstance(got, ModelParseError)

    @settings(max_examples=150, deadline=None)
    @given(_malformed())
    def test_rejects_what_per_entry_decoder_rejects(self, rows):
        want = _decode_outcome(_reference_from_json, rows)
        got = _decode_outcome(matrix_from_json, rows)
        if isinstance(want, np.ndarray):
            assert np.array_equal(_bits(got), _bits(want))
        else:
            assert isinstance(got, ModelParseError)

    @pytest.mark.parametrize("rows", [
        [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]]],  # ragged
        [[[1.0, 2.0], 3.0]],  # scalar entry
        [[[1.0]]],  # 1-element pair
        [[[1.0, 2.0, 3.0]]],  # 3-element pair
        [[[None, 0.0]]],  # null: no JSON number; fromiter would make NaN
        [[[0.0, None]]],
        [[[True, 0.0]]],  # booleans and numeric strings are no numbers
        [[[0.0, "0.5"]]],
        [[{"1": 0, "2": 0}]],  # a dict with two numeric keys is no pair
        [[[10**400, 0.0]]],  # overflows float64
    ])
    def test_malformed_examples_rejected(self, rows):
        with pytest.raises(ModelParseError):
            matrix_from_json(rows)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_encoding_byte_identical(self, r, c, data):
        re = data.draw(st.lists(_floats, min_size=r * c, max_size=r * c))
        im = data.draw(st.lists(_floats, min_size=r * c, max_size=r * c))
        m = np.empty((r, c), dtype=complex)
        m.real = np.reshape(re, (r, c))
        m.imag = np.reshape(im, (r, c))
        assert json.dumps(matrix_to_json(m)) == json.dumps(_reference_to_json(m))


# -- sparse operator nodes ------------------------------------------------

_special_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormal-heavy
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _special_matrices(draw):
    """d x d matrices (d in 1..40) whose entries come from a small pool of
    values with -0.0 and subnormals, at a drawn density, with some rows
    all +0.0."""
    d = draw(st.integers(1, 40))
    pool = np.array(draw(st.lists(_special_values, min_size=1, max_size=6)))
    density = draw(st.sampled_from([0.0, 0.02, 0.2, 0.45, 0.55, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = np.empty((d, d), dtype=complex)
    for part in (m.real, m.imag):
        picked = rng.choice(pool, (d, d))
        part[...] = np.where(rng.random((d, d)) < density, picked, 0.0)
    m[draw(st.lists(st.integers(0, d - 1), max_size=3))] = 0.0
    return m, rng


def _reference_sparse_node(m, rng):
    """Every entry of m with bits other than +0.0, in a shuffled order."""
    kept = [
        (i, j, float(z.real), float(z.imag))
        for i, row in enumerate(m) for j, z in enumerate(row)
        if _bits(np.array([z])).any()
    ]
    kept = [kept[k] for k in rng.permutation(len(kept))]
    row, col, re, im = (list(x) for x in zip(*kept)) if kept else ([],) * 4
    return {"op": "sparse", "dim": len(m), "row": row, "col": col,
            "re": re, "im": im}, len(kept)


def _json_round_trip(node, dim):
    return eval_expression(json.loads(json.dumps(node)), dim)


class TestSparseNode:
    @settings(max_examples=150, deadline=None)
    @given(_special_matrices())
    def test_dense_and_sparse_encodings_decode_to_the_same_bits(self, drawn):
        m, rng = drawn
        node, stored = _reference_sparse_node(m, rng)
        dense = _json_round_trip(matrix_to_json(m), len(m))
        sparse = _json_round_trip(node, len(m))
        assert sparse.dtype == np.complex128 and sparse.shape == m.shape
        assert np.array_equal(_bits(dense), _bits(m))
        assert np.array_equal(_bits(sparse), _bits(m))
        emitted = operator_to_json(m)
        # Sparse exactly when it stores fewer than half the d^2 entries.
        if 2 * stored < m.size:
            assert emitted["op"] == "sparse"
            assert len(emitted["re"]) == stored
            assert sorted(zip(emitted["row"], emitted["col"])) == sorted(
                zip(node["row"], node["col"]))
        else:
            assert emitted == matrix_to_json(m)
        assert np.array_equal(_bits(_json_round_trip(emitted, len(m))), _bits(m))

    @pytest.mark.parametrize("entries, op", [
        ([1.0, 0.0, 0.0, 0.0], "sparse"),
        ([1.0, -0.0, 0.0, 0.0], "dense"),  # two of four kept: not fewer than half
        ([0.0, 0.0, -0.0j, 0.0], "sparse"),  # -0.0j is complex(-0.0, -0.0)
        ([0.0, 0.0, 0.0, 0.0], "sparse"),
    ])
    def test_emitter_threshold(self, entries, op):
        m = np.array(entries, dtype=complex).reshape(2, 2)
        emitted = operator_to_json(m)
        assert (emitted["op"] if isinstance(emitted, dict) else "dense") == op
        assert np.array_equal(_bits(_json_round_trip(emitted, 2)), _bits(m))

    @pytest.mark.parametrize("name", [
        "duan-kimble", "cavity", "mirror", "truncation-demo",
        "broken-structural", "random",
    ])
    def test_fixture_documents_keep_every_bit(self, name):
        if name == "random":
            fix = random_structured_fixture(
                np.random.default_rng(3), hprime_dim=4, n=2, cutoff=6)
        else:
            fix = _bundled_fixture(name)
        doc = json.loads(json.dumps(fixture_to_model_dict(fix)))
        model = parse_model(doc)
        fam, got = fix.family, model.family
        pairs = [(fam.y, got.y), (fam.a, got.a), (fam.b, got.b),
                 (fix.sub.p0, model.sub.p0),
                 *zip(fam.f_ops, got.f_ops), *zip(fam.g_ops, got.g_ops),
                 *zip(sum(fam.w_ops, ()), sum(got.w_ops, ()))]
        for want, have in pairs:
            assert np.array_equal(_bits(have.entries), _bits(want.entries))

    def test_decoded_buffer_is_kept_without_a_copy(self):
        """A sparse node decodes into a C-contiguous complex128 buffer that
        owns its data, and an Operator freezes that buffer in place."""
        node = {"op": "sparse", "dim": 5, "row": [0, 4, 2], "col": [1, 4, 0],
                "re": [1.5, -0.0, 2.0], "im": [-0.0, 3.0, 0.0]}
        m = _json_round_trip(node, 5)
        assert m.dtype == np.complex128 and m.flags.c_contiguous
        assert m.flags.owndata and m.base is None
        op = Operator(HilbertSpace((5,)), m)
        assert np.shares_memory(op.entries, m) and not m.flags.writeable
        want = np.zeros((5, 5), dtype=complex)
        want[[0, 4, 2], [1, 4, 0]] = [complex(1.5, -0.0), complex(-0.0, 3.0), 2.0]
        assert np.array_equal(_bits(op.entries), _bits(want))

    def test_empty_node_is_the_zero_buffer(self, monkeypatch):
        """A node with four empty lists decodes to the +0.0 buffer without
        converting its lists; a non-empty node still checks its indices."""
        calls = []
        real = modelfile._indices
        monkeypatch.setattr(modelfile, "_indices",
                            lambda *args: calls.append(args) or real(*args))
        node = {"op": "sparse", "dim": 6, "row": [], "col": [], "re": [], "im": []}
        m = _json_round_trip(node, 6)
        assert calls == []
        assert m.dtype == np.complex128 and m.shape == (6, 6)
        assert m.flags.owndata and m.flags.c_contiguous
        assert not _bits(m).any()  # +0.0 in both parts
        node.update(row=[2], col=[3], re=[-0.0], im=[1.0])
        m = _json_round_trip(node, 6)
        assert [args[2] for args in calls] == ["sparse row", "sparse col"]
        want = np.zeros((6, 6), dtype=complex)
        want[2, 3] = complex(-0.0, 1.0)
        assert np.array_equal(_bits(m), _bits(want))

    @pytest.mark.parametrize("edit, message", [
        ({"row": [0, 0], "col": [1, 1], "re": [1.0, 2.0], "im": [0.0, 0.0]},
         "sparse (row, col) pairs must be distinct"),
        ({"row": [0, 4], "col": [1, 1], "re": [1.0, 2.0], "im": [0.0, 0.0]},
         "sparse row must be integers in [0, 4)"),
        ({"row": [0], "col": [-1], "re": [1.0], "im": [0.0]},
         "sparse col must be integers in [0, 4)"),
        ({"row": [], "col": [0], "re": [1.0], "im": [0.0]},
         "sparse row, col, re and im must have equal lengths"),
        ({"row": [], "col": [], "re": [], "im": [0.0]},
         "sparse row, col, re and im must have equal lengths"),
        ({"row": [], "col": [], "re": [], "im": None},
         "sparse im must be a list of numbers"),
        ({"row": [], "col": [], "re": []}, "bad 'sparse' node: 'im'"),
    ], ids=str)
    def test_errors_keep_their_messages(self, edit, message):
        node = {"op": "sparse", "dim": 4, **edit}
        with pytest.raises(ModelParseError) as err:
            eval_expression(node, 4)
        assert str(err.value) == message


@st.composite
def _index_subsets(draw):
    d = draw(st.integers(1, 200))
    mask = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    return d, np.flatnonzero(mask)


def _coordinate_projection(d, idx):
    p = np.zeros((d, d), dtype=complex)
    p[idx, idx] = 1.0
    return p


class TestSubspaceBasis:
    @settings(max_examples=25, deadline=None)
    @given(_index_subsets())
    @example((1, np.array([], dtype=int)))
    @example((1, np.array([0])))
    @example((200, np.array([], dtype=int)))
    @example((200, np.arange(200)))
    def test_coordinate_projection_equals_gram_schmidt(self, case):
        d, idx = case
        p = _coordinate_projection(d, idx)
        got = subspace_basis(p)
        assert got.shape == (d, len(idx))
        assert np.array_equal(got, _reference_basis(p))

    def test_non_coordinate_projections_use_gram_schmidt(self, rng):
        d = 7
        half = 0.5 * np.eye(d)
        phases = np.diag([1.0, -1.0, 1j, 0.0, 1.0, -1j, 0.0])
        q, _ = np.linalg.qr(rng.standard_normal((d, d))
                            + 1j * rng.standard_normal((d, d)))
        rotated = q[:, :3] @ q[:, :3].conj().T
        tiny = _coordinate_projection(d, [1, 4])
        tiny[0, 1] = 1e-300  # survives normalization in column 1
        for p in (half, phases, rotated, tiny):
            assert np.array_equal(subspace_basis(p), _reference_basis(p))
        assert not np.array_equal(_reference_basis(phases),
                                  np.eye(d)[:, [0, 1, 2, 4, 5]])
        assert _reference_basis(tiny)[0, 0] == 1e-300


class TestBasesBuiltOnce:
    def test_same_read_only_array(self):
        sub = SubspacePair.from_basis_indices(HilbertSpace((5,)), (1, 3))
        for name in ("slow_basis", "fast_basis"):
            v = getattr(sub, name)
            assert getattr(sub, name) is v
            assert not v.flags.writeable
            with pytest.raises(ValueError):
                v[0, 0] = 2.0
        assert np.array_equal(sub.slow_basis, _reference_basis(sub.p0.entries))
        assert np.array_equal(sub.fast_basis, _reference_basis(sub.p1.entries))


def test_eliminate_reuses_the_structural_inverse(dk_fixture):
    """The Y~ that `eliminate` returns is bit-identical to a fresh one."""
    result = eliminate(dk_fixture.family, dk_fixture.sub)
    fresh, _ = restricted_inverse(dk_fixture.family.y, dk_fixture.sub)
    assert np.array_equal(_bits(result.y_tilde.entries), _bits(fresh.entries))


@pytest.mark.parametrize("name", ["duan-kimble", "cavity", "mirror"])
def test_each_caller_takes_one_inverse(name, monkeypatch, capsys):
    """`eliminate`, `structural_validate` and `converge --kind generator`
    reach Y~ through the `qsde_model.restricted_inverse` binding, which the
    benchmark tracer times, exactly once per model."""
    calls = []
    real = qsde_model.restricted_inverse

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(qsde_model, "restricted_inverse", counted)
    fix = builtin_fixture(name)
    runs = {
        "eliminate": lambda: eliminate(fix.family, fix.sub),
        "structural_validate": lambda: structural_validate(fix.family, fix.sub),
        "converge": lambda: main(["converge", name, "--kind", "generator",
                                  "--k", "2", "4", "8"]),
    }
    for caller, run in runs.items():
        calls.clear()
        run()
        assert len(calls) == 1, caller


def test_eliminate_evaluates_the_slow_limit_once(dk_fixture, monkeypatch):
    """`eliminate` takes K, L, M and N from its structural check, which
    forms them with the side-check blocks in one `_slow_limit` call."""
    calls = []
    real = qsde_model._slow_limit

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(qsde_model, "_slow_limit", counted)
    eliminate(dk_fixture.family, dk_fixture.sub)
    assert len(calls) == 1


# -- model loading with the collector paused ----------------------------

@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def gc_state(request):
    """Run the test with the collector in the given state, then restore it."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


class TestLoadModelPausesTheCollector:
    @pytest.fixture
    def model_path(self, tmp_path):
        path = tmp_path / "model.json"
        doc = fixture_to_model_dict(builtin_fixture("duan-kimble"))
        path.write_text(json.dumps(doc))
        return str(path)

    def test_state_restored_on_success(self, model_path, gc_state):
        model = load_model(model_path)
        assert model.name == "duan-kimble"
        assert gc.isenabled() is gc_state

    @pytest.mark.parametrize("problem", [
        "bad-json", "bad-matrix", "bad-sparse-matrix", "missing",
    ])
    def test_state_restored_on_parse_error(self, tmp_path, gc_state, problem):
        path = tmp_path / "bad.json"
        if problem == "bad-json":
            path.write_text("{not json")
        elif problem == "bad-matrix":
            fix = builtin_fixture("duan-kimble")
            doc = fixture_to_model_dict(fix)
            doc["operators"]["B"] = matrix_to_json(fix.family.b.entries)
            doc["operators"]["B"][0][0] = ["x", 0.0]
            path.write_text(json.dumps(doc))
        elif problem == "bad-sparse-matrix":
            doc = fixture_to_model_dict(builtin_fixture("duan-kimble"))
            node = doc["operators"]["B"]
            assert node["op"] == "sparse" and node["row"] == []
            node.update(row=[0], col=[0], re=["x"], im=[0.0])
            path.write_text(json.dumps(doc))
        with pytest.raises(ModelParseError):
            load_model(str(path))
        assert gc.isenabled() is gc_state

    @pytest.mark.parametrize("kind", ["sparse", "dense", "refused"])
    def test_decode_runs_with_the_collector_off(self, kind, tmp_path, gc_state,
                                                monkeypatch):
        """orjson decodes the sparse file; json.load the dense one (more than
        `_MAX_OPENINGS` brackets) and the one orjson refuses (a lone
        surrogate in an unread key), each with the collector off."""
        path = tmp_path / "model.json"
        fix = builtin_fixture("duan-kimble")
        doc = fixture_to_model_dict(fix)
        if kind == "dense":  # 3 x 241 brackets at dim 15
            fam = fix.family
            for role, op in (("Y", fam.y), ("A", fam.a), ("B", fam.b)):
                doc["operators"][role] = matrix_to_json(op.entries)
        text = json.dumps(doc)
        if kind == "refused":
            text = text.replace('{"name"', '{"note": "\\ud800", "name"', 1)
        path.write_text(text)
        seen, real_loads, real_load = [], orjson.loads, json.load

        def spy(name, real):
            def call(*args, **kwargs):
                seen.append((name, gc.isenabled()))
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(orjson, "loads", spy("orjson", real_loads))
        monkeypatch.setattr(json, "load", spy("json", real_load))
        load_model(str(path))
        assert seen == {"sparse": [("orjson", False)],
                        "dense": [("json", False)],
                        "refused": [("orjson", False), ("json", False)]}[kind]
        assert gc.isenabled() is gc_state


# -- decoding with orjson -------------------------------------------------

# JSON number literals as written by hand or by other tools: -0.0 and
# subnormals, 17- and 20-digit mantissas, integral floats and integers
# (past 2**64 too, which orjson decodes to the nearest float).
_finite = st.floats(allow_nan=False, allow_infinity=False)
_literals = st.one_of(
    st.sampled_from(["-0.0", "0.0", "0", "-0", "-0e0", "5e-324", "-5e-324",
                     "4.9406564584124654e-324", "2.2250738585072009e-308",
                     "2.4703282292062328e-324", "1e-400", "4.0", "-17E+0",
                     "9007199254740993", "1.7976931348623157e308"]),
    _finite.map(repr),
    _finite.map(lambda x: f"{x:.16e}"),
    st.floats(-1e-300, 1e-300).map(lambda x: f"{x:.19e}"),
    st.integers(-10**15, 10**15).map(lambda i: f"{i}.0"),
    st.integers(-(2**64), 2**65).map(str),
    st.integers(-(10**40), 10**40).map(str),
)


@st.composite
def _model_texts(draw):
    """duan-kimble's document (dim 15, one channel) with Y, A, B and G[0]
    each redrawn as a dense matrix or a sparse node of drawn literals."""
    d = 15
    doc = fixture_to_model_dict(builtin_fixture("duan-kimble"))
    nodes = []
    for i, role in enumerate(("Y", "A", "B", "G")):
        values = lambda n: draw(st.lists(_literals, min_size=n, max_size=n))
        if draw(st.booleans()):
            re, im = values(d * d), values(d * d)
            node = "[" + ",".join(
                "[" + ",".join(f"[{re[r * d + c]},{im[r * d + c]}]" for c in range(d))
                + "]" for r in range(d)) + "]"
        else:
            flat = draw(st.lists(st.integers(0, d * d - 1), max_size=30, unique=True))
            index = st.sampled_from(["{}", "{}.0"])
            rows = [draw(index).format(k // d) for k in flat]
            cols = [draw(index).format(k % d) for k in flat]
            node = (f'{{"op": "sparse", "dim": {d}, "row": [{",".join(rows)}], '
                    f'"col": [{",".join(cols)}], "re": [{",".join(values(len(flat)))}], '
                    f'"im": [{",".join(values(len(flat)))}]}}')
        nodes.append(node)
        doc["operators"][role] = f"@{i}@" if role != "G" else [f"@{i}@"]
    text = json.dumps(doc)
    for i, node in enumerate(nodes):
        text = text.replace(f'"@{i}@"', node)
    return text


def _model_operators(model):
    fam = model.family
    return [fam.y, fam.a, fam.b, *fam.f_ops, *fam.g_ops,
            *(w for row in fam.w_ops for w in row), model.sub.p0]


def _run_validate(path):
    """`qsdelim validate PATH` in a fresh interpreter: its exit code and
    output, so a crash of the decoder fails the test, not the test run."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from qsdelim.cli import main; sys.exit(main(sys.argv[1:]))",
         "validate", str(path)],
        env=env, capture_output=True, text=True, timeout=300)


class TestOrjsonDecoder:
    """`load_model` decodes a document with at most `_MAX_OPENINGS` opening
    brackets by orjson, to the objects json.load gives, and every other
    document, or one orjson refuses, by json.load, with the old message."""

    @settings(max_examples=60, deadline=None)
    @given(_model_texts())
    def test_same_bits_as_json_loads(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("parity") / "model.json"
        path.write_text(text)
        want = parse_model(json.loads(text))
        with mock.patch.object(orjson, "loads", wraps=orjson.loads) as spy:
            got = load_model(str(path))
        openings = text.count("[") + text.count("{")
        assert spy.call_count == (openings <= modelfile._MAX_OPENINGS)
        for x, y in zip(_model_operators(got), _model_operators(want), strict=True):
            assert np.array_equal(_bits(x.entries), _bits(y.entries))
        assert got.study == want.study and got.name == want.name

    # Messages and exit codes as the stdlib-only decoder gave them, with
    # PATH for the file's path.  Each document is duan-kimble's with one
    # change ("surrogate" puts a lone surrogate in a key no command reads);
    # "nested-1000" is a model whose name nests 1000 deep within
    # 1024 opening brackets, which orjson decodes but json.load does not.
    REFUSED = {
        "nan": (2, "error: operator B: operator entries must be finite\n"),
        "infinity": (2, "error: operator B: operator entries must be finite\n"),
        "1e400": (2, "error: operator B: operator entries must be finite\n"),
        "surrogate": (0, ""),
        "bom": (2, "error: cannot read model file PATH: Unexpected UTF-8 BOM "
                   "(decode using utf-8-sig): line 1 column 1 (char 0)\n"),
        "utf8": (2, "error: 'utf-8' codec can't decode byte 0xff in position "
                    "21: invalid start byte\n"),
        "crlf": (2, "error: cannot read model file PATH: Expecting ':' "
                    "delimiter: line 9 column 13 (char 88)\n"),
        "trailing": (2, "error: cannot read model file PATH: Extra data: line 1 "
                        "column 2368 (char 2367)\n"),
        "deep": (2, "error: cannot read model file PATH: maximum recursion depth "
                    "exceeded while decoding a JSON array from a unicode string\n"),
        "nested-1000": (2, "error: cannot read model file PATH: maximum recursion "
                           "depth exceeded while decoding a JSON array from a "
                           "unicode string\n"),
    }

    @staticmethod
    def _refused(kind: str) -> bytes:
        doc = fixture_to_model_dict(builtin_fixture("duan-kimble"))
        text = json.dumps(doc)
        value = {"nan": "NaN", "infinity": "-Infinity", "1e400": "1e400"}.get(kind)
        if value is not None:
            doc["operators"]["B"] = {"op": "sparse", "dim": 15, "row": [0],
                                     "col": [0], "re": ["@"], "im": [0.0]}
            return json.dumps(doc).replace('"@"', value).encode()
        if kind == "surrogate":
            return text.replace('{"name"', '{"note": "\\ud800", "name"', 1).encode()
        if kind == "bom":
            return b"\xef\xbb\xbf" + text.encode()
        if kind == "utf8":
            return text.replace('"duan-kimble"', '"duan-kimble\xff"', 1).encode("latin-1")
        if kind == "crlf":
            text = json.dumps(doc, indent=1).replace("\n", "\r\n")
            return text.replace('"channels"', '"channels" 1,', 1).encode()
        if kind == "trailing":
            return text.encode() + b" x"
        if kind == "deep":
            return b"[" * 100000 + b"]" * 100000
        space, ident = {"factor_dims": [1]}, {"op": "identity", "dim": 1}
        small = {"name": "@", "space": space, "channels": 1, "p0": ident,
                 "operators": {"Y": ident, "A": ident, "B": ident, "F": [ident],
                               "G": [ident], "W": [[ident]]}}
        text = json.dumps(small).replace('"@"', "[" * 1000 + "]" * 1000)
        assert text.count("[") + text.count("{") <= 1024
        return text.encode()

    @pytest.mark.parametrize("kind", list(REFUSED))
    def test_refused_documents_keep_their_messages(self, kind, tmp_path, capsys):
        path = tmp_path / f"{kind}.json"
        path.write_bytes(self._refused(kind))
        code, err = self.REFUSED[kind]
        assert main(["validate", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.err == err.replace("PATH", str(path))
        assert (captured.out == "") is (code == 2)

    def test_nesting_200000_deep_exits_2(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_bytes(b"[" * 200000 + b"]" * 200000)
        proc = _run_validate(path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: cannot read model file {path}: ")

    def test_dim_past_2_to_64_exits_2(self, tmp_path, capsys):
        """orjson decodes 2**64 + 1 to the float 2**64, which an integer
        field rejects; json.load decodes the document again, so the message
        echoes the integer written."""
        text = json.dumps(fixture_to_model_dict(builtin_fixture("duan-kimble")))
        path = tmp_path / "big.json"
        path.write_text(text.replace('"dim": 15', f'"dim": {2**64 + 1}', 1))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: sparse dim {2**64 + 1} exceeds the model dimension 15\n")

    @staticmethod
    def _edited(tmp_path, edit):
        doc = fixture_to_model_dict(builtin_fixture("duan-kimble"))
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("n", [2**64 + 1, -(2**63) - 1, 10**30, 2**63])
    def test_grid_points_past_2_to_53_load_as_json_load_decodes_them(
            self, n, tmp_path):
        """orjson decodes the integers outside [-2**63, 2**64) to floats, which
        grid_points rejects; json.load's int is the one the model keeps."""
        path = self._edited(tmp_path, lambda doc: doc.update(study={"grid_points": n}))
        seen = []

        def spy(name, real):
            return lambda *a, **k: seen.append(name) or real(*a, **k)

        with mock.patch.object(orjson, "loads", spy("orjson", orjson.loads)), \
                mock.patch.object(json, "load", spy("json", json.load)):
            model = load_model(str(path))
        assert model.study.grid_points == n and type(model.study.grid_points) is int
        assert seen == (["orjson"] if -(2**63) <= n < 2**64 else ["orjson", "json"])

    @pytest.mark.parametrize("name", [[-(2**63) - 1], [2**64, 0.5], {"k": 10**30}])
    def test_a_rejection_echoes_what_json_load_decodes(self, name, tmp_path, capsys):
        path = self._edited(tmp_path, lambda doc: doc.update(name=name))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: model name must be a printable string, got {ascii(name)}\n")

    @pytest.mark.parametrize("value, ok", [(2.0**53, True), (-(2.0**53), True),
                                           (2.0**53 + 2, False), (1e19, False),
                                           (-1e300, False)])
    def test_an_integral_float_is_an_integer_up_to_2_to_53(self, value, ok):
        doc = fixture_to_model_dict(builtin_fixture("duan-kimble"))
        doc["study"] = {"grid_points": value}
        if ok:
            assert parse_model(doc).study.grid_points == int(value)
        else:
            with pytest.raises(ModelParseError) as info:
                parse_model(doc)
            assert str(info.value) == (
                f"grid_points must be an integer, got the float {value!r} beyond 2**53")


# -- one SVD per operator --------------------------------------------------

_norm_entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _norm_operators(draw):
    d = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return Operator(HilbertSpace((d,)), np.zeros((d, d)))
    re = draw(st.lists(_norm_entries, min_size=d * d, max_size=d * d))
    im = draw(st.lists(_norm_entries, min_size=d * d, max_size=d * d))
    m = (np.array(re) + 1j * np.array(im)).reshape(d, d)
    return Operator(HilbertSpace((d,)), m)


class TestSpectralNormOncePerOperator:
    @settings(max_examples=60, deadline=None)
    @given(_norm_operators())
    @example(Operator(HilbertSpace((1,)), np.array([[3.0 - 4.0j]])))
    @example(Operator(HilbertSpace((1,)), np.zeros((1, 1))))
    @example(Operator(HilbertSpace((3,)), np.full((3, 3), -0.0 - 0.0j)))
    def test_same_bits_and_one_svd(self, x):
        want = _norm2(x.entries)
        with mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm) as norm:
            first = spectral_norm(x)
            assert norm.call_count == (1 if x.entries.any() else 0)
            second = spectral_norm(x)
            assert norm.call_count == (1 if x.entries.any() else 0)
        assert type(first) is float
        assert first.hex() == want.hex()  # bits, so 0.0 and -0.0 differ
        assert second.hex() == want.hex()


def _reference_block_count(x) -> int:
    """Blocks of x's nonzero pattern, by a union-find over its entries."""
    parent = list(range(sum(x.shape)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for r, c in zip(*np.nonzero(x)):
        parent[find(r)] = find(x.shape[0] + c)
    return len({find(r) for r in np.flatnonzero(x.any(axis=1))})


@st.composite
def _block_arrays(draw):
    """A block-diagonal array under random row and column permutations:
    square, or d x r and r x d as the structural checks pass them, with
    all-zero rows and columns, -0.0 entries and scales 1e-300 to 1e150."""
    kind = draw(st.sampled_from(["square", "tall", "wide"]))
    rows = draw(st.lists(st.integers(1, 5), max_size=6))
    cols = (rows if kind == "square"
            else draw(st.lists(st.integers(0, 2), min_size=len(rows),
                               max_size=len(rows))))
    zero_rows = draw(st.integers(0, 3))
    zero_cols = zero_rows if kind == "square" else draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.zeros((sum(rows) + zero_rows, sum(cols) + zero_cols), complex)
    i = j = 0
    for p, q in zip(rows, cols):
        x[i:i + p, j:j + q] = (rng.standard_normal((p, q))
                               + 1j * rng.standard_normal((p, q)))
        i, j = i + p, j + q
    x *= 10.0 ** draw(st.integers(-300, 150))
    x[rng.random(x.shape) < draw(st.sampled_from([0.0, 0.3]))] = complex(-0.0, -0.0)
    x = x[rng.permutation(x.shape[0])][:, rng.permutation(x.shape[1])]
    return x.T if kind == "wide" else x


class TestNormByBlocks:
    """`_norm2` is the largest norm over the blocks of the nonzero pattern:
    within 8 max(m, n) eps relative of `np.linalg.norm(x, 2)`, with its bits
    for an array of one block, one call on the stack of the blocks of any
    other, 0.0 with no LAPACK call for an all-zero or empty array, and
    one call on the whole of an array with a NaN or infinite entry, with
    its outcome, but NonFiniteEntries where LAPACK raises LinAlgError."""

    @settings(max_examples=200, deadline=None)
    @given(_block_arrays())
    @example(np.zeros((3, 0), complex))
    @example(np.zeros((0, 0), complex))
    @example(np.full((2, 3), complex(-0.0, -0.0)))
    @example(np.diag([2.0, 0.0, 3.0, 1.0]).astype(complex))
    def test_against_lapack(self, x):
        blocks = _reference_block_count(x)
        with mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm) as norm:
            got = _norm2(x)
        assert type(got) is float
        if blocks == 0:
            assert got.hex() == (0.0).hex() and norm.call_count == 0
            return
        assert norm.call_count == 1
        taken = norm.call_args.args[0]
        want = float(np.linalg.norm(x, 2))
        if blocks == 1:
            assert taken is x and got.hex() == want.hex()
        else:
            assert taken.ndim == 3 and len(taken) == blocks
        assert abs(got - want) <= 8 * max(x.shape) * np.finfo(float).eps * want

    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("bad", [np.nan, complex(1.0, np.nan), np.inf,
                                     complex(-np.inf, 1.0)])
    def test_non_finite_entries_as_lapack(self, bad, blocks):
        x = np.kron(np.eye(blocks), [[1.0, 2.0], [0.0, 3.0]]).astype(complex)
        x[-1, -1] = bad

        def outcome(norm):
            try:
                return repr(norm(x))
            except (np.linalg.LinAlgError, NonFiniteEntries):
                return "does not converge"

        with mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm) as norm:
            got = outcome(_norm2)
        assert norm.call_count == 1 and norm.call_args.args[0] is x
        assert got == outcome(lambda a: float(np.linalg.norm(a, 2)))
        if got == "does not converge":  # a NaN entry: not LAPACK's LinAlgError
            with pytest.raises(NonFiniteEntries, match="did not converge"):
                _norm2(x)



# -- one home per formula ------------------------------------------------
# The references keep the loops that `field_dressed_parts`, `eliminate`,
# `cavity_closed_form` and `assemble` had before M = -sum_j W_ij L_j^*, the
# N-limit sum and the field dressing each moved into one helper.  The old
# `eliminate` and `cavity_closed_form` N loops were the same formula, so
# one reference, `_reference_n_sum`, serves both, and the references of
# the slow-coordinate checks below take their N from it.

REL_TOL = 1e-12


def _rel_close(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return np.linalg.norm(got - want) <= REL_TOL * np.linalg.norm(want)


def _oracle_close(got, want, floor=1e-14) -> bool:
    """The benchmark oracle's rule, entry by entry: |got - want| <=
    max(1e-12 |want|, floor), floor 1e-14 unless given, and equal where
    want is not finite."""
    got, want = np.asarray(got), np.asarray(want)
    finite = np.isfinite(want)
    return bool(np.array_equal(got[~finite], want[~finite]) and np.all(
        np.abs(got[finite] - want[finite])
        <= np.maximum(REL_TOL * np.abs(want[finite]), floor)))


def _reference_dressed_parts(fam, amp):
    a_op = fam.a
    for i in range(fam.n):
        a_op = a_op + amp.beta[i] * fam.f_ops[i]
        for j in range(fam.n):
            a_op = a_op - (
                amp.alpha[i].conjugate() * (fam.w_ops[i][j] @ fam.f_ops[j].dag())
            )
    shift = 0.5 * sum(abs(z) ** 2 for z in amp.alpha + amp.beta)
    b_op = fam.b - shift * Operator.identity(fam.space)
    for i in range(fam.n):
        b_op = b_op + amp.beta[i] * fam.g_ops[i]
        for j in range(fam.n):
            wij = fam.w_ops[i][j]
            b_op = b_op + amp.alpha[i].conjugate() * amp.beta[j] * wij
            b_op = b_op - amp.alpha[i].conjugate() * (wij @ fam.g_ops[j].dag())
    return a_op, b_op


def _reference_n_sum(w_ops, f_ops, x):
    n = len(f_ops)
    ident = np.eye(x.shape[0])
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = np.zeros_like(x)
            for ell in range(n):
                inner = f_ops[ell].entries.conj().T @ x @ f_ops[j].entries
                if ell == j:
                    inner = inner + ident
                acc += w_ops[i][ell].entries @ inner
            row.append(acc)
        grid.append(row)
    return grid


def _reference_assemble_m(fam, k):
    l_ops = tuple(k * f + g for f, g in zip(fam.f_ops, fam.g_ops))
    return [
        -sum((fam.w_ops[i][j] @ l_ops[j].dag() for j in range(fam.n)),
             Operator.zero(fam.space))
        for i in range(fam.n)
    ]


def _cavity_blocks(fix):
    """The auxiliary-space inputs of `cavity_fixture`, read back from the
    tensor-product family (auxiliary (x) oscillator, index stride c+1)."""
    fam, c1 = fix.family, fix.params["cutoff"] + 1
    hp = HilbertSpace((fix.params["hprime_dim"],))

    def block(op, row, col):
        return Operator(hp, op.entries[row::c1, col::c1])

    return dict(
        e00=block(fam.b, 0, 0), e01=block(fam.a, 0, 1),
        e10=block(fam.a, 1, 0), e11=block(fam.y, 1, 1),
        f_ops=tuple(block(f, 1, 0) for f in fam.f_ops),
        g_ops=tuple(block(g, 0, 0) for g in fam.g_ops),
        s_ops=tuple(tuple(block(w, 0, 0) for w in row) for row in fam.w_ops),
    )


@st.composite
def _structured_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 2))
    fix = random_structured_fixture(rng, hprime_dim=draw(st.integers(3, 8)), n=n)
    # Nonzero amplitudes with modulus in [0.1, 0.5].
    amps = 0.1 + 0.4 * rng.uniform(size=2 * n)
    amps = amps * np.exp(2j * np.pi * rng.uniform(size=2 * n))
    return fix, FieldAmplitudes(tuple(amps[:n]), tuple(amps[n:]))


class TestOneHomePerFormula:
    @settings(max_examples=15, deadline=None)
    @given(_structured_cases())
    def test_field_dressing(self, case):
        fix, amp = case
        got = field_dressed_parts(fix.family, amp)
        want = _reference_dressed_parts(fix.family, amp)
        for g, w in zip(got, want):
            assert _rel_close(g.entries, w.entries)

    @settings(max_examples=15, deadline=None)
    @given(_structured_cases())
    def test_eliminate_n_limit_sum(self, case):
        fix, _ = case
        result = eliminate(fix.family, fix.sub)
        p0, v = fix.sub.p0.entries, result.sub.slow_basis
        want = _reference_n_sum(fix.family.w_ops, fix.family.f_ops,
                                result.y_tilde.entries)
        for got_row, want_row in zip(result.limit.n_ops, want):
            for got, acc in zip(got_row, want_row):
                assert _rel_close(got.entries, v.conj().T @ (p0 @ acc @ p0) @ v)

    @settings(max_examples=15, deadline=None)
    @given(_structured_cases())
    def test_cavity_closed_form_n_and_m(self, case):
        fix, _ = case
        blocks = _cavity_blocks(fix)
        got = cavity_closed_form(**blocks)
        assert _rel_close(got.k_op.entries, fix.expected_limit.k_op.entries)
        e11_inv = np.linalg.inv(blocks["e11"].entries)
        want_n = _reference_n_sum(blocks["s_ops"], blocks["f_ops"], e11_inv)
        for i, row in enumerate(want_n):
            want_m = -sum(
                acc @ got.l_ops[j].entries.conj().T for j, acc in enumerate(row)
            )
            assert _rel_close(got.m_ops[i].entries, want_m)
            for got_op, acc in zip(got.n_ops[i], row):
                assert _rel_close(got_op.entries, acc)

    @settings(max_examples=15, deadline=None)
    @given(_structured_cases(), st.sampled_from([0.5, 1.0, 16.0, 4096.0]))
    def test_assemble_m(self, case, k):
        fix, _ = case
        got = assemble(fix.family, k).m_ops
        for g, w in zip(got, _reference_assemble_m(fix.family, k)):
            assert _rel_close(g.entries, w.entries)


class TestStudiesReuseTheLimitSide:
    AMP = FieldAmplitudes((0.2 - 0.1j,), (0.3 + 0.2j,))

    def test_semigroup_study_equals_per_k_gaps(self, dk_fixture):
        result = eliminate(dk_fixture.family, dk_fixture.sub)
        ks = (2.0, 4.0, 8.0, 16.0)
        report = semigroup_study(result, self.AMP, ks, T=2.0, grid_points=16)
        per_k = [semigroup_gap(result, self.AMP, 2.0, 16, k) for k in ks]
        assert np.array_equal(_bits(np.array(report.values)), _bits(np.array(per_k)))

    def test_generator_study_equals_per_k_residuals(self, dk_fixture):
        result = eliminate(dk_fixture.family, dk_fixture.sub)
        ks = (2.0, 8.0, 64.0)
        v = result.sub.slow_basis
        u = v @ (np.ones(v.shape[1]) / np.sqrt(v.shape[1]))
        report = generator_study(result, self.AMP, ks)
        cor = kurtz_corrector(result, self.AMP, u)
        per_k = [generator_residual(cor, k) for k in ks]
        assert np.array_equal(_bits(np.array(report.values)), _bits(np.array(per_k)))

    def test_kurtz_corrector_uses_the_results_inverse(self, dk_fixture,
                                                      monkeypatch):
        result = eliminate(dk_fixture.family, dk_fixture.sub)
        marker = Operator(result.y_tilde.space, 2.0 * result.y_tilde.entries)
        swapped = dataclasses.replace(result, y_tilde=marker)
        assert swapped.y_tilde is marker

        def recomputed(*args, **kwargs):
            raise AssertionError("kurtz_corrector recomputed the inverse")

        monkeypatch.setattr(qsde_model, "restricted_inverse", recomputed)
        monkeypatch.setattr(qsde_model, "_structural_report", recomputed)
        v = result.sub.slow_basis
        u = v @ (np.ones(v.shape[1]) / np.sqrt(v.shape[1]))
        cor = kurtz_corrector(swapped, self.AMP, u)
        a_op, b_op = field_dressed_parts(dk_fixture.family, self.AMP)
        yt = marker.entries
        assert np.array_equal(cor.u1, -yt @ (a_op.entries @ cor.u))
        slow_part = (b_op.entries - a_op.entries @ yt @ a_op.entries) @ cor.u
        assert _oracle_close(
            cor.u2, -yt @ (dk_fixture.sub.p1.entries @ slow_part)
        )

    def test_entries_do_not_follow_a_writable_base(self):
        # The cache is sound only if the entries cannot change: an operator
        # built from a view must not see later writes to the view's base.
        base = np.zeros((4, 2), dtype=np.complex128)
        x = Operator(HilbertSpace((2,)), base[:2])
        assert spectral_norm(x) == 0.0
        base[0, 0] = 5.0
        assert x.entries[0, 0] == 0.0
        assert spectral_norm(x) == float(np.linalg.norm(x.entries, 2)) == 0.0


# -- the generator residual as a Laurent polynomial in k -------------------

def _reference_residuals(result, amp, u, ks):
    """The per-k loop the Laurent form replaced: assemble the family at k,
    dress it, and apply it to the corrected vector."""
    cor = kurtz_corrector(result, amp, u)
    v = result.sub.slow_basis
    limit_side = v @ (generator(result.limit, amp).entries @ (v.conj().T @ u))
    return [
        float(np.linalg.norm(generator(assemble(result.family, k), amp).entries
                             @ (cor.u + cor.u1 / k + cor.u2 / (k * k)) - limit_side))
        for k in ks
    ]


class TestGeneratorResidualLaurentForm:
    """The residual from its five Laurent coefficients against the per-k
    loop, under the oracle's rule with its 1e-14 raised to the study's
    floor at k, RESIDUAL_FLOOR max(1, k^2 |Y|): the loop's own round-off
    grows with k (it cancels k-sized terms to leave an O(1/k) residual),
    so at k = 4096 it sits about 1e-8 relative from the Laurent form.  u1
    and u2 match the old dressed matrices under the oracle's rule."""

    KS = (0.5, 2.0, 64.0, 4096.0)

    @settings(max_examples=15, deadline=None)
    @given(_structured_cases())
    def test_residuals_and_corrector(self, case):
        fix, amp = case
        result = eliminate(fix.family, fix.sub)
        v = result.sub.slow_basis
        u = v @ (np.ones(v.shape[1]) / np.sqrt(v.shape[1]))
        cor = kurtz_corrector(result, amp, u)
        got = [generator_residual(cor, k) for k in self.KS]
        want = _reference_residuals(result, amp, u, self.KS)
        y_norm = _norm_bound(fix.family.y.entries)
        for k, g, w in zip(self.KS, got, want):
            floor = convergence.RESIDUAL_FLOOR * max(1.0, k * k * y_norm)
            assert _oracle_close(g, w, floor), (k, g, w)
        a_op, b_op = _reference_dressed_parts(fix.family, amp)
        yt = result.y_tilde.entries
        u1 = -yt @ (a_op.entries @ u)
        assert _oracle_close(cor.u1, u1)
        assert _oracle_close(cor.u2, -yt @ (b_op.entries @ u + a_op.entries @ u1))

    @settings(max_examples=15, deadline=None)
    @given(_structured_cases(), st.integers(0, 15))
    def test_zero_amplitudes_leave_their_terms_out(self, case, mask):
        """Components of alpha and beta set exactly to 0 (by the bits of
        `mask`) drop their terms from the dressing: the parts and the
        residuals still match the references."""
        fix, amp = case
        n = fix.family.n

        def zeroed(zs, bits):
            return tuple(0j if bits >> i & 1 else z for i, z in enumerate(zs))

        amp = FieldAmplitudes(zeroed(amp.alpha, mask), zeroed(amp.beta, mask >> n))
        for g, w in zip(field_dressed_parts(fix.family, amp),
                        _reference_dressed_parts(fix.family, amp)):
            assert _rel_close(g.entries, w.entries)
        result = eliminate(fix.family, fix.sub)
        v = result.sub.slow_basis
        u = v @ (np.ones(v.shape[1]) / np.sqrt(v.shape[1]))
        cor = kurtz_corrector(result, amp, u)
        got = [generator_residual(cor, k) for k in self.KS]
        want = _reference_residuals(result, amp, u, self.KS)
        y_norm = _norm_bound(fix.family.y.entries)
        for k, g, w in zip(self.KS, got, want):
            floor = convergence.RESIDUAL_FLOOR * max(1.0, k * k * y_norm)
            assert _oracle_close(g, w, floor), (k, g, w)

    def test_dressing_is_applied_once_per_vector(self, monkeypatch):
        """The corrector's a u, b u, a u1 and b u1 are reused: the study
        calls `kurtz_corrector` once and `generator_residual` once per k
        (their traced names keep counting) and applies the dressing to u,
        u1 and u2 once each.  At vacuum every term has a zero coefficient,
        so each application is A x and B x."""
        fix = random_structured_fixture(np.random.default_rng(4), hprime_dim=5,
                                        n=2, cutoff=4)
        fam, d = fix.family, fix.family.space.total_dim
        result = eliminate(fam, fix.sub)
        ops = [fam.y, fam.a, fam.b, *fam.f_ops, *fam.g_ops,
               *(w for row in fam.w_ops for w in row)]
        _spy_on(*ops)
        applied, real = [], convergence._dressed_products
        monkeypatch.setattr(convergence, "_dressed_products",
                            lambda f, a, x: applied.append(x.shape) or real(f, a, x))
        corrected, corrector = [], convergence.kurtz_corrector
        monkeypatch.setattr(convergence, "kurtz_corrector",
                            lambda *args: corrected.append(1) or corrector(*args))
        summed, residual = [], convergence.generator_residual
        monkeypatch.setattr(convergence, "generator_residual",
                            lambda cor, k: summed.append(k) or residual(cor, k))
        log = []
        monkeypatch.setattr(_MatmulSpy, "log", log)
        generator_study(result, FieldAmplitudes.vacuum(2), (2.0, 4.0, 8.0))
        monkeypatch.setattr(_MatmulSpy, "log", None)
        assert applied == [(d,)] * 3 and corrected == [1]
        assert summed == [2.0, 4.0, 8.0]
        # A x and B x per application, then Y~ (a u) and Y~ (b u + a u1),
        # and Y u, Y u1, Y u2 as one block; no x^* F_j or x^* G_j.
        assert log.count(((d, d), (d,))) == 2 * 3 + 2
        assert ((d, d), (d, 3)) in log and ((d,), (d, d)) not in log


# -- each validation fact measured once ------------------------------------
# The references keep what the code did before: structural check c
# recomputed max(|Y~ Y - p1|, |Y Y~ - p1|) after `restricted_inverse` had
# measured it, `_unitarity_defect` summed the blocks of W W^* and W^* W in
# a double loop, and `eliminate` built M in its own loop.

def _reference_inverse_and_defect(y, sub, tol):
    """Y~ and check c as the structural check recomputed it."""
    yt, _ = restricted_inverse(y, sub, tol=tol)
    return yt, max(
        spectral_norm(yt @ y - sub.p1), spectral_norm(y @ yt - sub.p1)
    )


def _reference_structural(fam, sub):
    with mock.patch.object(qsde_model, "restricted_inverse",
                           _reference_inverse_and_defect):
        return structural_validate(fam, sub)


def _reference_unitarity_defect(grid, space, n):
    ident = np.eye(space.total_dim)
    worst = 0.0
    for m in range(n):
        for ell in range(n):
            delta = ident if m == ell else 0.0
            right = sum(
                grid[m][j].entries @ grid[ell][j].entries.conj().T for j in range(n)
            ) - delta
            left = sum(
                grid[j][m].entries.conj().T @ grid[j][ell].entries for j in range(n)
            ) - delta
            worst = max(worst, _norm2(right), _norm2(left))
    return float(worst)


def _reference_eliminate_m(fam, sub, ytm):
    p0, a = sub.p0.entries, fam.a.entries
    m_big = []
    for i in range(fam.n):
        acc = np.zeros_like(p0)
        for j in range(fam.n):
            gj = fam.g_ops[j].entries
            fj = fam.f_ops[j].entries
            acc += fam.w_ops[i][j].entries @ (gj.conj().T - fj.conj().T @ ytm @ a)
        m_big.append(-p0 @ acc @ p0)
    return m_big


def _same_report(got, want, rounded=()):
    """The same bits, except that the violations of the checks named in
    `rounded` agree under the oracle's rule."""
    assert [c.name for c in got.checks] == [c.name for c in want.checks]
    for g, w in zip(got.checks, want.checks):
        if g.name in rounded:
            assert _oracle_close(g.max_violation, w.max_violation), g.name
        else:
            assert g.max_violation.hex() == w.max_violation.hex(), g.name
        assert g.tolerance.hex() == w.tolerance.hex(), g.name
        assert g.passed is w.passed, g.name


def _leaky(fix, eps):
    """Y plus eps p0 X p1: Y still annihilates p0 but maps p1 into p0."""
    fam, sub = fix.family, fix.sub
    d = fam.space.total_dim
    rng = np.random.default_rng(1)
    x = Operator(fam.space, rng.standard_normal((d, d))
                 + 1j * rng.standard_normal((d, d)))
    return dataclasses.replace(fam, y=fam.y + eps * (sub.p0 @ x @ sub.p1)), sub


def _singular_fast_block(fix):
    """Y with one fast column zeroed, so its fast compression is singular."""
    fam, sub = fix.family, fix.sub
    keep = np.ones(fam.space.total_dim)
    keep[np.flatnonzero(np.diag(sub.p1.entries).real)[0]] = 0.0
    return dataclasses.replace(fam, y=fam.y @ Operator(fam.space, np.diag(keep))), sub


def _fixture_pair(fix):
    return fix.family, fix.sub


# name -> (family and subspace, (check c finite, check c passes))
_NAMED_STRUCTURAL = {
    "duan-kimble": (
        lambda: _fixture_pair(builtin_fixture("duan-kimble")), (True, True)),
    "broken-structural": (
        lambda: _fixture_pair(_bundled_fixture("broken-structural")), (True, True)),
    "singular-fast-block": (
        lambda: _singular_fast_block(builtin_fixture("duan-kimble")), (False, False)),
    "leak-passes-inverse-fails-c": (
        lambda: _leaky(builtin_fixture("duan-kimble"), 1e-9), (True, False)),
    "leak-small": (
        lambda: _leaky(builtin_fixture("duan-kimble"), 1e-11), (True, True)),
    "leak-raises": (
        lambda: _leaky(builtin_fixture("duan-kimble"), 1e-3), (False, False)),
}


class TestValidationFactsMeasuredOnce:
    @settings(max_examples=20, deadline=None)
    @given(_structured_cases())
    def test_structural_report_bits(self, case):
        fix, _ = case
        got = structural_validate(fix.family, fix.sub)
        _same_report(got, _reference_structural(fix.family, fix.sub))
        assert got.overall

    @pytest.mark.parametrize("name", sorted(_NAMED_STRUCTURAL))
    def test_structural_report_bits_named(self, name):
        build, expect = _NAMED_STRUCTURAL[name]
        fam, sub = build()
        got = structural_validate(fam, sub)
        _same_report(got, _reference_structural(fam, sub))
        c = got["structural.c"]
        assert (bool(np.isfinite(c.max_violation)), c.passed) == expect

    def test_check_c_reads_the_inverse_defect(self, dk_fixture):
        """Check c is the worker's defect, not a value measured again."""
        real = qsde_model.restricted_inverse
        sentinel = 0.123456789

        def marked(*args):
            return real(*args)[0], sentinel

        with mock.patch.object(qsde_model, "restricted_inverse", marked):
            report = structural_validate(dk_fixture.family, dk_fixture.sub)
        assert report["structural.c"].max_violation == sentinel
        assert not report["structural.c"].passed

    def test_public_inverse_is_the_workers(self, dk_fixture):
        y, sub = dk_fixture.family.y, dk_fixture.sub
        yt, lazy_defect = qsde_model.restricted_inverse(y, sub, 1e-9)
        defect = lazy_defect.value
        assert np.array_equal(_bits(yt.entries),
                              _bits(restricted_inverse(y, sub)[0].entries))
        assert defect == _reference_inverse_and_defect(y, sub, 1e-9)[1]

    @staticmethod
    def _close_with_flag(check, want, tol=1e-9):
        bound = 1e-12 * check.tolerance / tol  # 1e-12 * max(1, scale)
        assert abs(check.max_violation - want) <= bound, check.name
        assert check.passed is (want <= check.tolerance), check.name

    @settings(max_examples=20, deadline=None)
    @given(_structured_cases(), st.sampled_from([0.5, 16.0, 4096.0]))
    def test_unitarity_defects(self, case, k):
        fix, _ = case
        fam = fix.family
        want = _reference_unitarity_defect(fam.w_ops, fam.space, fam.n)
        self._close_with_flag(scaled_hp_validate(fam)["scaled.w"], want)
        self._close_with_flag(hp_validate(assemble(fam, k))["hp.n"], want)
        limit = eliminate(fam, fix.sub).limit
        self._close_with_flag(
            hp_validate(limit)["hp.n"],
            _reference_unitarity_defect(limit.n_ops, limit.space, limit.n),
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 3),
           st.sampled_from(["unitary", "scaled-unitary", "ginibre"]))
    def test_unitarity_defect_of_any_grid(self, seed, d, n, kind):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((n * d, n * d)) \
            + 1j * rng.standard_normal((n * d, n * d))
        if kind != "ginibre":
            w = np.linalg.qr(w)[0] * (1.5 if kind == "scaled-unitary" else 1.0)
        space = HilbertSpace((d,))
        grid = tuple(
            tuple(Operator(space, w[i * d:(i + 1) * d, j * d:(j + 1) * d])
                  for j in range(n))
            for i in range(n)
        )
        want = _reference_unitarity_defect(grid, space, n)
        got = qsde_model._unitarity_defect(grid).value
        assert type(got) is float
        assert abs(got - want) <= 1e-12 * max(1.0, want)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 3),
           st.sampled_from(["ginibre", "signed-permutation"]))
    def test_unitarity_defect_blocks_have_the_stacked_bits(self, seed, d, n, kind):
        """W filled in place, one W^* and 1 taken off the diagonal in place
        give the bits of `np.block` and - I, signed zeros included: a signed
        permutation's products are exact, with zeros of both signs.  The
        blocks, with W^* W, are formed on their first read, not with the
        defect, whose bound takes W W^* alone."""
        rng = np.random.default_rng(seed)
        w = np.empty((n * d, n * d), dtype=np.complex128)
        if kind == "ginibre":
            w.real, w.imag = rng.standard_normal((2, n * d, n * d))
        else:
            w.real = np.where(np.eye(n * d)[rng.permutation(n * d)] == 1,
                              rng.choice([-1.0, 1.0], (n * d, n * d)), -0.0)
            w.imag = rng.choice([-0.0, 0.0], (n * d, n * d))
        space = HilbertSpace((d,))
        grid = tuple(
            tuple(Operator(space, w[i * d:(i + 1) * d, j * d:(j + 1) * d])
                  for j in range(n))
            for i in range(n)
        )
        if qsde_model._trivial_scattering(grid):
            return
        defect = qsde_model._unitarity_defect(grid)
        assert "_bounds" not in vars(defect)
        defect._bounds  # forms the blocks
        got = defect._items
        want = _reference_stacked_blocks(grid)
        assert [_bits(x).tobytes() for x in got] == [_bits(x).tobytes() for x in want]

    @settings(max_examples=20, deadline=None)
    @given(_structured_cases())
    def test_eliminate_m(self, case):
        fix, _ = case
        self._check_m(fix)

    def test_eliminate_m_duan_kimble(self, dk_fixture):
        self._check_m(dk_fixture)

    @staticmethod
    def _check_m(fix):
        result = eliminate(fix.family, fix.sub)
        v = result.sub.slow_basis
        want = _reference_eliminate_m(fix.family, fix.sub, result.y_tilde.entries)
        for got, acc in zip(result.limit.m_ops, want):
            assert _rel_close(got.entries, v.conj().T @ acc @ v)


# -- the slow subspace in basis coordinates ---------------------------------
# The references keep what the code did before: checks b, d, e and the side
# checks were norms of d x d products with p0 and p1, `eliminate` compressed
# P0 X P0 sandwiches, and the corrector projected with p1 before applying Y~
# and formed b - a Y~ a.

def _reference_projection_checks(fam, sub):
    """Check values as norms of products with p0 and p1; no side checks
    when the restricted inverse does not exist."""
    p0, p1 = sub.p0, sub.p1
    want = {
        "structural.b": spectral_norm(fam.y @ p0),
        "structural.d": max(spectral_norm(f.dag() @ p0) for f in fam.f_ops),
        "structural.e": spectral_norm(p0 @ fam.a @ p0),
    }
    try:
        yt, _ = restricted_inverse(fam.y, sub)
    except (SingularFastDynamics, StructuralViolation):
        return want
    terms = [Operator(fam.space, t)
             for row in _reference_n_sum(fam.w_ops, fam.f_ops, yt.entries)
             for t in row]
    want["limit.l_side"] = max(
        spectral_norm(p0 @ (g - fam.a @ yt @ f) @ p1)
        for f, g in zip(fam.f_ops, fam.g_ops)
    )
    want["limit.n_side_right"] = max(spectral_norm(p0 @ t @ p1) for t in terms)
    want["limit.n_side_left"] = max(spectral_norm(p1 @ t @ p0) for t in terms)
    return want


def _reference_limit(fam, sub, yt):
    """K, L, M and N as `eliminate` formed them, through P0 X P0."""
    p0, v = sub.p0.entries, sub.slow_basis
    a, ytm = fam.a.entries, yt.entries

    def compress(x):
        return v.conj().T @ (p0 @ x @ p0) @ v

    ay = fam.a.dag() @ yt.dag()
    m_ops = qsde_model._m_from_unitarity(
        fam.w_ops, [g - ay @ f for f, g in zip(fam.f_ops, fam.g_ops)])
    n_sum = _reference_n_sum(fam.w_ops, fam.f_ops, ytm)
    return (
        [compress(fam.b.entries - a @ ytm @ a)]
        + [compress(g.entries - a @ ytm @ f.entries)
           for f, g in zip(fam.f_ops, fam.g_ops)]
        + [compress(m.entries) for m in m_ops]
        + [compress(t) for row in n_sum for t in row]
    )


def _limit_arrays(limit):
    ops = [limit.k_op, *limit.l_ops, *limit.m_ops]
    return [op.entries for op in ops + [t for row in limit.n_ops for t in row]]


def _reference_corrector(result, amp, u):
    """u1 and u2, with the slow part projected by p1 before Y~."""
    yt = result.y_tilde.entries
    a_op, b_op = field_dressed_parts(result.family, amp)
    slow_part = (b_op.entries - a_op.entries @ yt @ a_op.entries) @ u
    return -yt @ (a_op.entries @ u), -yt @ (result.sub.p1.entries @ slow_part)


SIDE_CHECKS = ("limit.l_side", "limit.n_side_right", "limit.n_side_left")


class TestSlowSubspaceInBasisCoordinates:
    """Checks, limits and corrector measured on the bases V and Q agree with
    the p0/p1 products they replace: under the oracle's rule for a
    coordinate projection (check values to 1e-12 max(1, scale) with the
    same flags), to 1e-12 relative for a rotated one."""

    AMP = FieldAmplitudes((0.2 - 0.1j,), (0.3 + 0.2j,))

    @staticmethod
    def _checks_agree(fam, sub):
        report = structural_validate(fam, sub)
        for name, want in _reference_projection_checks(fam, sub).items():
            TestValidationFactsMeasuredOnce._close_with_flag(report[name], want)

    def _compare(self, fam, sub, amp, same):
        self._checks_agree(fam, sub)
        result = eliminate(fam, sub)
        v = result.sub.slow_basis
        u = v @ (np.ones(v.shape[1]) / np.sqrt(v.shape[1]))
        cor = kurtz_corrector(result, amp, u)
        got = _limit_arrays(result.limit) + [cor.u1, cor.u2]
        want = _reference_limit(fam, sub, result.y_tilde) \
            + list(_reference_corrector(result, amp, u))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert same(g, w)

    @settings(max_examples=20, deadline=None)
    @given(_structured_cases())
    def test_coordinate_projection(self, case):
        fix, amp = case
        self._compare(fix.family, fix.sub, amp, _oracle_close)

    def test_coordinate_projection_duan_kimble(self, dk_fixture):
        self._compare(dk_fixture.family, dk_fixture.sub, self.AMP, _oracle_close)

    @settings(max_examples=20, deadline=None)
    @given(_structured_cases(), st.integers(0, 2**32 - 1))
    def test_rotated_projection(self, case, seed):
        fix, amp = case
        fam, sub = rotated_family(fix, seed)
        assert not np.array_equal(sub.slow_basis, subspace_basis(fix.sub.p0))
        self._compare(fam, sub, amp, _rel_close)

    @pytest.mark.parametrize("name", sorted(_NAMED_STRUCTURAL))
    def test_named_checks(self, name):
        self._checks_agree(*_NAMED_STRUCTURAL[name][0]())

    @settings(max_examples=10, deadline=None)
    @given(_structured_cases())
    def test_identity_projection_side_checks_are_zero(self, case):
        fix, _ = case
        fam, sub = trivial_family_from_limit(fix.expected_limit)
        assert sub.fast_basis.shape == (fam.space.total_dim, 0)
        report = structural_validate(fam, sub)
        for name in SIDE_CHECKS:
            assert report[name].max_violation == 0.0
            assert report[name].passed

    @settings(max_examples=10, deadline=None)
    @given(_structured_cases(), st.integers(0, 2**32 - 1))
    def test_p1_is_identity_minus_p0(self, case, seed):
        fix, _ = case
        for sub in (fix.sub, rotated_family(fix, seed)[1]):
            p0 = sub.p0.entries
            assert np.array_equal(_bits(sub.p1.entries),
                                  _bits(np.eye(p0.shape[0]) - p0))


# -- exact zeros from tensor_embed, a max of norms with few SVDs -------------
# References: the np.kron ampliation `tensor_embed` used, and the max of
# every norm that `_Norms` replaced.

def _reference_embed(x, factor_index, dims):
    left = int(np.prod(dims[:factor_index]))
    right = int(np.prod(dims[factor_index + 1:]))
    return np.kron(np.kron(np.eye(left), x), np.eye(right))


def _reference_max_norm(items, floor):
    return max([floor] + [
        _norm2(x.entries if isinstance(x, Operator) else x) for x in items
    ])


@st.composite
def _embed_cases(draw):
    """Factor dims, a position and an operator on that factor whose entries
    have +0.0 and -0.0 real and imaginary parts among random values."""
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    pos = draw(st.integers(0, len(dims) - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = dims[pos]
    parts = rng.choice([0.0, -0.0, 1.0], (2, d, d)) * rng.standard_normal((2, d, d))
    return dims, pos, Operator(HilbertSpace((d,)), parts[0] + 1j * parts[1])


class TestTensorEmbedExactZeros:
    @settings(max_examples=100, deadline=None)
    @given(_embed_cases())
    @example(((2, 3), 0, Operator(HilbertSpace((2,)),
                                  np.array([[-1.0, 0.0], [-0.0j, -2.5]]))))
    def test_equals_kron_with_plus_zero_off_blocks(self, case):
        dims, pos, x = case
        got = tensor_embed(x, pos, HilbertSpace(dims)).entries
        assert np.array_equal(got, _reference_embed(x.entries, pos, dims))
        left, right = int(np.prod(dims[:pos])), int(np.prod(dims[pos + 1:]))
        blocks = _bits(got).copy().reshape(left, dims[pos], right, left, dims[pos],
                                    right, 2)
        for i in range(left):
            for j in range(right):
                assert np.array_equal(blocks[i, :, j, i, :, j], _bits(x.entries)
                                      .reshape(dims[pos], dims[pos], 2))
                blocks[i, :, j, i, :, j] = 0
        assert not blocks.any()  # every off-block entry is +0.0

    @pytest.mark.parametrize("hprime, n, cutoff", [(3, 1, 4), (4, 2, 6),
                                                   (8, 2, 16)])
    def test_random_models_load_sparse(self, hprime, n, cutoff):
        """Every operator is a sparse node.  The ampliations B = E00 (x) I,
        G_i (x) I, S_ij (x) I and p0 store exactly their nonzero entries
        (at the np.kron ampliation about half their entries were -0.0).
        Y, A and F_i are products of ampliations, where BLAS may leave a
        signed zero, so only their node type is checked."""
        fix = random_structured_fixture(np.random.default_rng(hprime), hprime,
                                        n, cutoff)
        doc = fixture_to_model_dict(fix)
        ops = doc["operators"]
        fam = fix.family
        for node in [ops["Y"], ops["A"], *ops["F"]]:
            assert isinstance(node, dict) and node["op"] == "sparse"
        for node, op in [(ops["B"], fam.b), (doc["p0"], fix.sub.p0),
                         *zip(ops["G"], fam.g_ops),
                         *zip(sum(ops["W"], []), sum(fam.w_ops, ()))]:
            assert isinstance(node, dict) and node["op"] == "sparse"
            assert len(node["re"]) == np.count_nonzero(op.entries)


@st.composite
def _norm_lists(draw):
    """Lists of arrays and Operators (some with cached norms) at one entry
    scale in 1e-300..1e150: random, all-zero, exact copies, unitary
    rotations (equal norms), scaled copies, Kronecker blocks, roundoff."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-300, 150))
    items = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(
            ["random", "zero", "copy", "rotated", "scaled", "kron", "roundoff"]))
        prev = items[-1] if items and items[-1].shape[0] == items[-1].shape[1] \
            else None
        d, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        if kind in ("copy", "rotated", "scaled", "kron") and prev is not None:
            if kind == "rotated":
                u = np.linalg.qr(rng.standard_normal(prev.shape)
                                 + 1j * rng.standard_normal(prev.shape))[0]
                prev = u @ prev
            elif kind == "scaled":
                prev = prev * draw(st.sampled_from([0.5, 1 - 1e-9, 1 + 1e-12, 2.0]))
            elif kind == "kron":
                prev = np.kron(np.eye(2), prev)
            items.append(prev.copy())
            continue
        m = scale * (rng.standard_normal((d, c)) + 1j * rng.standard_normal((d, c)))
        items.append({"zero": 0.0 * m, "roundoff": 1e-16 * m}.get(kind, m))
    out = []
    for m in items:
        if m.shape[0] == m.shape[1] and draw(st.booleans()):
            op = Operator(HilbertSpace((m.shape[0],)), m)
            if draw(st.booleans()):
                spectral_norm(op)  # cached: its bound is the norm itself
            m = op
        out.append(m)
    return out


class TestMaxNormSkipsSvds:
    @settings(max_examples=200, deadline=None)
    @given(_norm_lists(), st.sampled_from([0.0, 1.0]))
    @example([np.array([[0.34558419 + 0.82161814j]])], 0.0)  # bound = norm
    @example([np.zeros((3, 3)), np.zeros((3, 0))], 0.0)
    def test_same_bits_as_every_norm(self, items, floor):
        want = _reference_max_norm(items, floor)
        got = _Norms(items, floor).value
        assert type(got) is float and got.hex() == want.hex()
        for x in items:
            assert _norm_bound(x) >= _reference_max_norm([x], 0.0)

    def test_svd_only_where_the_max_can_change(self):
        space = HilbertSpace((4,))
        big = Operator(space, np.diag([3.0, 1.0, 0.0, 0.0]))
        small = np.full((4, 4), 0.1)
        cached = Operator(space, 2.0 * np.eye(4))
        spectral_norm(cached)
        huge = [small, np.full((2, 2), 1e308)]  # |X|_1 overflows
        want_huge = _reference_max_norm(huge, 0.0)
        with mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm) as norm:
            assert _Norms([small, big, small]).value == 3.0
            assert norm.call_count == 1  # the two small ones cannot set it
            assert _Norms([small, small], 1.0).value == 1.0
            assert norm.call_count == 1  # bounds 0.4 < floor: no SVD
            assert _Norms([cached, small]).value == 2.0
            assert norm.call_count == 1  # cached norm, no SVD
            assert _Norms(huge).value.hex() == want_huge.hex()
            assert norm.call_count == 3  # a non-finite bound takes every norm


# -- truncation in block form, projection checks with few SVDs ----------------
# References: the truncation that assembled the model at k = 1 and projected
# K and L with d x d products, the one that sliced them into d x d +0.0
# buffers and propagated the whole space, and the SubspacePair rule that
# took |p0| first.

def _reference_projection_truncation(fam, cutoffs, amp, T, grid_points):
    limit = assemble(fam, 1.0)
    d = limit.space.total_dim

    def truncated(cutoff):
        p = np.zeros((d, d))
        p[: cutoff + 1, : cutoff + 1] = np.eye(cutoff + 1)
        proj = Operator(limit.space, p)
        l_c = tuple(proj @ l @ proj for l in limit.l_ops)
        return QsdeCoefficients(
            proj @ limit.k_op @ proj, l_c,
            tuple(-l.dag() for l in l_c), limit.n_ops,
        )

    window = np.eye(d, cutoffs[0] + 1)
    grids = [propagate_on_grid(generator(truncated(c), amp), T, grid_points,
                               window)
             for c in cutoffs]
    gaps = [0.0] * (len(cutoffs) - 1)
    for blocks in zip(*grids):
        for i, (lo, hi) in enumerate(zip(blocks, blocks[1:])):
            gaps[i] = max(gaps[i], float(np.linalg.norm(lo - hi, 2)))
    return tuple(gaps)


def _reference_slicing_truncation(fam, cutoffs, amp, T, grid_points):
    d = fam.space.total_dim

    def truncated(cutoff):
        def block(op):
            kept = op.entries[: cutoff + 1, : cutoff + 1]
            return Operator(fam.space, np.pad(kept, (0, d - cutoff - 1)))

        l_c = tuple(block(g) for g in fam.g_ops)
        return QsdeCoefficients(block(fam.b), l_c,
                                tuple(-l.dag() for l in l_c), fam.w_ops)

    window = np.eye(d, cutoffs[0] + 1)
    grids = [propagate_on_grid(generator(truncated(c), amp), T, grid_points,
                               window)
             for c in cutoffs]
    gaps = [0.0] * (len(cutoffs) - 1)
    for blocks in zip(*grids):
        for i, (lo, hi) in enumerate(zip(blocks, blocks[1:])):
            gaps[i] = max(gaps[i], float(np.linalg.norm(lo - hi, 2)))
    return tuple(gaps)


def _reference_block_truncation(fam, cutoffs, T, grid_points, dressed):
    """The study's reuse rule and zero-padded grids, with `dressed(c)` the
    generator of cutoff c on its own (c+1)-dim space, and each gap the max
    of one batched SVD of the grid."""
    rows, width = cutoffs[-1] + 1, cutoffs[0] + 1
    grids = []
    for prev, c in zip((None, *cutoffs), cutoffs):
        kept = [op.entries[: c + 1, : c + 1] for op in (fam.b, *fam.g_ops)]
        if prev is not None and not any(
            np.any(m[prev + 1:]) or np.any(m[:, prev + 1:]) for m in kept
        ):
            grids.append(grids[-1])
            continue
        grid = np.zeros((grid_points, rows, width), dtype=np.complex128)
        grid[:, : c + 1] = list(propagate_on_grid(
            dressed(c), T, grid_points, np.eye(c + 1, width)))
        grids.append(grid)
    return tuple(float(np.linalg.svd(lo - hi, compute_uv=False).max())
                 for lo, hi in zip(grids, grids[1:]))


def _reference_quadruple_truncation(fam, cutoffs, amp, T, grid_points):
    """The per-cutoff build the study replaced: a coefficient quadruple of
    the leading blocks of B, G and W on a space of its own, with M_c =
    -L_c^*, dressed and propagated per cutoff."""

    def dressed(cutoff):
        space = HilbertSpace((cutoff + 1,))

        def block(op):
            return Operator(space, op.entries[: cutoff + 1, : cutoff + 1])

        l_c = tuple(block(g) for g in fam.g_ops)
        return generator(QsdeCoefficients(
            block(fam.b), l_c, tuple(-l.dag() for l in l_c),
            tuple(tuple(block(w) for w in row) for row in fam.w_ops),
        ), amp)

    return _reference_block_truncation(fam, cutoffs, T, grid_points, dressed)


def _reference_full_dressing_truncation(fam, cutoffs, amp, T, grid_points):
    """The build the study replaced next: the model's full dressed
    generator, with each cutoff's leading block sliced from it."""
    gen = generator(QsdeCoefficients.unitary(fam.b, fam.g_ops, fam.w_ops),
                    amp).entries
    return _reference_block_truncation(
        fam, cutoffs, T, grid_points,
        lambda c: Operator(HilbertSpace((c + 1,)), gen[: c + 1, : c + 1]))


def _two_channel_padded_family():
    """Two channels with W = delta_ij I on C^6, B and G_i supported on the
    leading 3 x 3 block: cutoffs 3, 4 and 5 add nothing to cutoff 2."""
    small = random_scaled_family(np.random.default_rng(19), 3, 2)
    space = HilbertSpace((6,))

    def padded(op):
        return Operator(space, np.pad(op.entries, (0, 3)))

    zero, ident = Operator.zero(space), Operator.identity(space)
    return ScaledFamily(
        zero, zero, padded(small.b), (zero, zero),
        tuple(map(padded, small.g_ops)),
        ((ident, zero), (zero, ident)),
    )


TWO_CHANNEL_CUTOFFS = (0, 1, 2, 4, 5)
TWO_CHANNEL_AMPS = [
    FieldAmplitudes((0.3 - 0.2j, -0.1 + 0.4j), (0.2 + 0.1j, 0.5 - 0.3j)),
    FieldAmplitudes((0.0, 0.7j), (-0.4, 0.0)),
]


def _assert_matches(got, want):
    """max(1e-12 |ref|, 1e-14) per gap, and exactly 0.0 where ref is 0.0."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w == 0.0:
            assert g == 0.0
        else:
            assert abs(g - w) <= max(1e-12 * abs(w), 1e-14), (g, w)


@functools.cache
def _osc120_family(windowed: bool):
    limit = (windowed_oscillator_limit(120, window=9) if windowed
             else driven_oscillator_limit(120))
    return trivial_family_from_limit(limit)[0]


BENCH_CUTOFFS = (8, 10, 12, 14, 16, 18, 20)


@st.composite
def _osc120_cases(draw):
    """Either osc120 model with 2..4 increasing cutoffs in 0..120 (often
    the benchmark's), random amplitudes of modulus <= 0.5."""
    fam = _osc120_family(draw(st.booleans()))
    cutoffs = draw(st.one_of(
        st.just(BENCH_CUTOFFS),
        st.sets(st.integers(0, 120), min_size=2, max_size=4).map(sorted),
    ))
    amp = FieldAmplitudes(*(
        (complex(*draw(st.tuples(*[st.floats(-0.35, 0.35)] * 2))),)
        for _ in range(2)
    ))
    return fam, tuple(cutoffs), amp


@st.composite
def _fixed_coefficient_cases(draw):
    """A random fixed-coefficient family with N = I (B forced by G), random
    amplitudes and >= 2 increasing cutoffs, often including 0 and d - 1."""
    d, n = draw(st.integers(2, 12)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fam = random_scaled_family(rng, d, n)
    zero, ident = Operator.zero(fam.space), Operator.identity(fam.space)
    fam = dataclasses.replace(
        fam, y=zero, a=zero, f_ops=(zero,) * n,
        w_ops=tuple(tuple(ident if i == j else zero for j in range(n))
                    for i in range(n)),
    )
    inner = draw(st.sets(st.integers(0, d - 1)))
    ends = draw(st.sampled_from([(), (0,), (d - 1,), (0, d - 1)]))
    cutoffs = sorted(inner | set(ends))
    assume(len(cutoffs) >= 2)
    amp = FieldAmplitudes(*(
        tuple(complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(n))
        for _ in range(2)
    ))
    return fam, tuple(cutoffs), amp


@st.composite
def _sparse_fixed_coefficient_cases(draw):
    """A fixed-coefficient family with W = delta_ij I, sparse G_i and B =
    i H - sum_i G_i G_i^* / 2 (H sparse Hermitian), with half of their
    zero parts -0.0; vacuum or random amplitudes; >= 2 increasing cutoffs,
    the largest often d - 1."""
    d, n = draw(st.integers(2, 10)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = HilbertSpace((d,))

    def signed_zeros(m):
        for part in (m.real, m.imag):
            part[(part == 0) & (rng.random((d, d)) < 0.5)] = -0.0
        return m

    def sparse(scale):
        values = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return np.where(rng.random((d, d)) < 0.3, scale * values, 0.0)

    gs = [signed_zeros(sparse(0.7)) for _ in range(n)]
    h = sparse(1.0)
    b = 1j * (h + h.conj().T) / 2 - 0.5 * sum(g @ g.conj().T for g in gs)
    zero, ident = Operator.zero(space), Operator.identity(space)
    fam = ScaledFamily(
        zero, zero, Operator(space, signed_zeros(b)), (zero,) * n,
        tuple(Operator(space, g) for g in gs),
        tuple(tuple(ident if i == j else zero for j in range(n))
              for i in range(n)),
    )
    inner = draw(st.sets(st.integers(0, d - 1)))
    cutoffs = sorted(inner | set(draw(st.sampled_from([(), (d - 1,)]))))
    assume(len(cutoffs) >= 2)
    amp = FieldAmplitudes.vacuum(n) if draw(st.booleans()) else FieldAmplitudes(*(
        tuple(complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(n))
        for _ in range(2)
    ))
    return fam, tuple(cutoffs), amp


class TestTruncationBySlicing:
    @settings(max_examples=40, deadline=None)
    @given(_fixed_coefficient_cases(), st.sampled_from([8, 17]))
    def test_equals_projection_products(self, case, grid_points):
        fam, cutoffs, amp = case
        got = truncation_study(fam, cutoffs, amp, 1.5, grid_points).values
        want = _reference_projection_truncation(fam, cutoffs, amp, 1.5,
                                                grid_points)
        _assert_matches(got, want)

    @pytest.mark.parametrize("cutoffs", [(0, 2), (1, 119, 120), (8, 12, 20)])
    def test_osc120_equals_projection_products(self, cutoffs):
        amp = FieldAmplitudes((0.2 + 0.1j,), (-0.1 + 0.3j,))
        for limit in (driven_oscillator_limit(120),
                      windowed_oscillator_limit(120, window=9)):
            fam = trivial_family_from_limit(limit)[0]
            got = truncation_study(fam, cutoffs, amp, 2.0, 8).values
            _assert_matches(got, _reference_projection_truncation(
                fam, cutoffs, amp, 2.0, 8))


    @pytest.mark.parametrize("amp", TWO_CHANNEL_AMPS)
    def test_two_channel_equals_projection_products(self, amp):
        fam = _two_channel_padded_family()
        got = truncation_study(fam, TWO_CHANNEL_CUTOFFS, amp, 1.5, 17).values
        for reference in (_reference_projection_truncation,
                          _reference_slicing_truncation):
            _assert_matches(got, reference(fam, TWO_CHANNEL_CUTOFFS, amp, 1.5, 17))


class TestTruncationBlockForm:
    @pytest.mark.parametrize("amp", TWO_CHANNEL_AMPS)
    def test_two_channel_gaps_are_the_quadruple_build(self, amp):
        """The leading block of the model's one dressed generator is each
        cutoff's dressed quadruple bit for bit, so the gaps are too; the
        cutoffs past 2 reuse its grid."""
        fam = _two_channel_padded_family()
        got = truncation_study(fam, TWO_CHANNEL_CUTOFFS, amp, 1.5, 17).values
        assert got == _reference_quadruple_truncation(
            fam, TWO_CHANNEL_CUTOFFS, amp, 1.5, 17)
        assert got[2:] == (0.0, 0.0) and min(got[:2]) > 1e-3

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(_fixed_coefficient_cases(), _osc120_cases()),
           st.sampled_from([8, 17]))
    def test_gaps_are_the_quadruple_build_bit_for_bit(self, case, grid_points):
        fam, cutoffs, amp = case
        got = truncation_study(fam, cutoffs, amp, 1.5, grid_points).values
        assert got == _reference_quadruple_truncation(fam, cutoffs, amp, 1.5,
                                                      grid_points)

    def test_one_dressed_generator_per_study(self):
        amp = TWO_CHANNEL_AMPS[0]
        with mock.patch.object(convergence, "generator",
                               wraps=convergence.generator) as gen:
            truncation_study(_two_channel_padded_family(), TWO_CHANNEL_CUTOFFS,
                             amp, 1.5, 8)
        assert gen.call_count == 1
        assert gen.call_args.args[0].space.total_dim == 6

    @settings(max_examples=40, deadline=None)
    @given(_sparse_fixed_coefficient_cases(), st.sampled_from([8, 17]))
    def test_generator_dressed_on_the_kept_block(self, case, grid_points):
        """The one generator is dressed on the leading (c_max+1)-dim block:
        bit for bit the leading block of the full model's, and so are the
        gaps of the full dressing sliced per cutoff."""
        fam, cutoffs, amp = case
        made, real = [], convergence.generator
        with mock.patch.object(
                convergence, "generator",
                lambda c, a: made.append((c, real(c, a))) or made[-1][1]):
            got = truncation_study(fam, cutoffs, amp, 1.5, grid_points).values
        rows = cutoffs[-1] + 1
        ((coeffs, gen),) = made
        assert coeffs.space.total_dim == gen.space.total_dim == rows
        full = generator(
            QsdeCoefficients.unitary(fam.b, fam.g_ops, fam.w_ops), amp).entries
        assert np.array_equal(_bits(gen.entries), _bits(full[:rows, :rows]))
        want = _reference_full_dressing_truncation(fam, cutoffs, amp, 1.5,
                                                   grid_points)
        assert np.array_equal(np.array(got).view(np.uint64),
                              np.array(want).view(np.uint64))

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(_fixed_coefficient_cases(), _osc120_cases()),
           st.sampled_from([8, 17]))
    def test_matches_full_space_slicing(self, case, grid_points):
        fam, cutoffs, amp = case
        got = truncation_study(fam, cutoffs, amp, 1.5, grid_points).values
        _assert_matches(got, _reference_slicing_truncation(
            fam, cutoffs, amp, 1.5, grid_points))

    @pytest.mark.parametrize("windowed, blocks", [
        (False, BENCH_CUTOFFS), (True, (8,)),
    ])
    def test_one_small_expm_per_distinct_block(self, windowed, blocks):
        amp = FieldAmplitudes((0.2 + 0.1j,), (-0.1 + 0.3j,))
        with mock.patch.object(scipy.linalg, "expm",
                               wraps=scipy.linalg.expm) as expm:
            report = truncation_study(_osc120_family(windowed), BENCH_CUTOFFS,
                                      amp, 2.0, 32)
        shapes = [call.args[0].shape for call in expm.call_args_list]
        assert shapes == [(c + 1, c + 1) for c in blocks]
        assert max(n for n, _ in shapes) <= BENCH_CUTOFFS[-1] + 1
        if windowed:
            assert report.values == (0.0,) * (len(BENCH_CUTOFFS) - 1)

    @pytest.mark.parametrize("row, col", [(0, 3), (3, 0)])
    def test_block_growing_by_one_entry(self, row, col):
        """G = |row><col| on C^4 with B = -G G^*/2: cutoff 2 adds nothing to
        cutoff 0 (gap exactly 0.0), cutoff 3 adds one row or one column."""
        space = HilbertSpace((4,))
        g = np.zeros((4, 4))
        g[row, col] = 0.8
        limit = QsdeCoefficients(
            Operator(space, -0.5 * g @ g.T), (Operator(space, g),),
            (Operator(space, -g.T),), ((Operator.identity(space),),),
        )
        fam = trivial_family_from_limit(limit)[0]
        amp = FieldAmplitudes((0.3 - 0.2j,), (0.4 + 0.1j,))
        got = truncation_study(fam, (0, 2, 3), amp, 1.5, 8).values
        _assert_matches(got, _reference_slicing_truncation(fam, (0, 2, 3), amp,
                                                           1.5, 8))
        assert got[0] == 0.0 and got[1] > 1e-3

    def test_one_svd_per_nonzero_gap(self):
        amp = FieldAmplitudes((0.2 + 0.1j,), (-0.1 + 0.3j,))
        for windowed, calls in ((False, 6), (True, 0)):
            with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, \
                    mock.patch.object(np.linalg, "norm",
                                      wraps=np.linalg.norm) as norm:
                truncation_study(_osc120_family(windowed), BENCH_CUTOFFS, amp,
                                 2.0, 32)
            assert (svd.call_count, norm.call_count) == (calls, 0)

    def test_each_gap_passes_only_its_tied_slices(self):
        """Each nonzero gap's grid of 32 times is screened by bounds on its
        Gram matrices, with no `eigvalsh` call, and only the slice whose
        value ties the max (one here) goes to the SVD."""
        amp = FieldAmplitudes((0.2 + 0.1j,), (-0.1 + 0.3j,))
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, \
                mock.patch.object(np.linalg, "eigvalsh",
                                  wraps=np.linalg.eigvalsh) as eigvalsh:
            truncation_study(_osc120_family(False), BENCH_CUTOFFS, amp, 2.0, 32)
        rows, width = BENCH_CUTOFFS[-1] + 1, BENCH_CUTOFFS[0] + 1
        assert [c.args[0].shape for c in svd.call_args_list] == [(1, rows, width)] * 6
        assert eigvalsh.call_count == 0

    @pytest.fixture
    def phase_scattering(self):
        """truncation-demo with W a diagonal phase within 1e-12 of I."""
        fix = builtin_fixture("truncation-demo")
        d = fix.family.space.total_dim
        phases = np.exp(1j * np.linspace(0.0, 5e-13, d))
        w = Operator(fix.family.space, np.diag(phases))
        assert 0.0 < spectral_norm(w - Operator.identity(w.space)) < 1e-12
        return dataclasses.replace(
            fix, name="phase", family=dataclasses.replace(fix.family,
                                                          w_ops=((w,),)))

    def test_scattering_near_identity_is_rejected(self, phase_scattering,
                                                  tmp_path, capsys):
        from qsdelim.cli import main

        amp = FieldAmplitudes((0.0,), (0.0,))
        with pytest.raises(ValueError, match=r"trivial scattering \(N = I\)"):
            truncation_study(phase_scattering.family, (2, 4), amp, 1.0, 8)
        path = tmp_path / "phase.json"
        path.write_text(json.dumps(fixture_to_model_dict(phase_scattering)))
        assert main(["converge", str(path), "--kind", "truncation",
                     "--k", "2", "4", "--grid", "8"]) == 2
        captured = capsys.readouterr()
        assert "verdict" not in captured.out
        assert "trivial scattering (N = I)" in captured.err


class TestMFromUnitarity:
    """M_i = -sum_j W_ij L_j^*: -L_i^* with no product for a grid that is
    exactly delta_ij I, the products for every other unitary grid."""

    @staticmethod
    def _products(grid, l_ops):
        zero = Operator.zero(l_ops[0].space)
        return [-sum((w @ l.dag() for w, l in zip(row, l_ops)), zero)
                for row in grid]

    @staticmethod
    def _l_ops(n):
        return random_hp_coefficients(np.random.default_rng(7), 5, n).l_ops

    @pytest.mark.parametrize("n", [1, 2])
    def test_identity_grid_gives_minus_l_dagger(self, n, monkeypatch):
        l_ops = self._l_ops(n)
        ident, zero = Operator.identity(l_ops[0].space), Operator.zero(l_ops[0].space)
        grid = tuple(tuple(ident if i == j else zero for j in range(n))
                     for i in range(n))
        want = self._products(grid, l_ops)
        products, real = [], Operator.__matmul__
        monkeypatch.setattr(Operator, "__matmul__",
                            lambda x, y: products.append(1) or real(x, y))
        got = qsde_model._m_from_unitarity(grid, l_ops)
        monkeypatch.undo()
        assert products == []
        for m, l, w in zip(got, l_ops, want):
            assert np.array_equal(m.entries, -l.entries.conj().T)
            assert np.array_equal(m.entries, w.entries)  # by value

    @settings(max_examples=60, deadline=None)
    @given(_special_matrices(), st.integers(1, 2))
    def test_identity_grid_keeps_the_bits_of_minus_l_dagger(self, drawn, n):
        """One C-ordered array per channel, with the bits of -l.dag(), -0.0
        parts and subnormals included."""
        m, rng = drawn
        space = HilbertSpace((len(m),))
        l_ops = [Operator(space, m), Operator(space, rng.permutation(m.ravel())
                                               .reshape(m.shape))][:n]
        ident, zero = Operator.identity(space), Operator.zero(space)
        grid = tuple(tuple(ident if i == j else zero for j in range(n))
                     for i in range(n))
        for got, l in zip(qsde_model._m_from_unitarity(grid, l_ops), l_ops, strict=True):
            assert got.entries.flags.c_contiguous
            assert np.array_equal(_bits(got.entries), _bits((-l.dag()).entries))

    @pytest.mark.parametrize("kind", ["phase", "phase-grid", "swap"])
    def test_other_unitary_grid_takes_the_products(self, kind):
        """e^{0.3i} I is unitary and commutes with everything, but it is not
        delta_ij I: M_i = -e^{0.3i} L_i^*, not -L_i^*."""
        n = 1 if kind == "phase" else 2
        l_ops = self._l_ops(n)
        space = l_ops[0].space
        phase = np.exp(0.3j) * Operator.identity(space)
        zero, ident = Operator.zero(space), Operator.identity(space)
        grid = {"phase": ((phase,),), "phase-grid": ((phase, zero), (zero, phase)),
                "swap": ((zero, ident), (ident, zero))}[kind]
        got = qsde_model._m_from_unitarity(grid, l_ops)
        for m, l, w in zip(got, l_ops, self._products(grid, l_ops)):
            assert np.array_equal(m.entries, w.entries)
            assert not np.allclose(m.entries, -l.entries.conj().T)


def _reference_trivial_scattering(grid) -> bool:
    """The comparison `_trivial_scattering` made with a formed identity."""
    eye = np.eye(grid[0][0].space.total_dim)
    return not any(np.any(w.entries != eye * (i == j))
                   for i, row in enumerate(grid) for j, w in enumerate(row))


class TestTrivialScatteringVerdict:
    """`_trivial_scattering` counts nonzeros and reads the diagonal instead
    of comparing each block with a formed identity, with the same verdict."""

    @staticmethod
    def _grid(kind):
        d = 4
        space = HilbertSpace((d,))
        ident, zero = np.eye(d, dtype=complex), np.zeros((d, d), complex)
        signed = ident.copy()
        signed[0, 1] = signed[2, 0] = -0.0  # equal to 0.0, so still I
        cases = {
            "identity": [[ident, zero], [zero, ident]],
            "signed-zeros": [[signed, -zero], [-zero, signed]],
            "phase": [[np.exp(0.3j) * ident]],
            "phase-grid": [[np.diag(np.exp(1j * np.linspace(0.0, 5e-13, d)))]],
            "swap": [[zero, ident], [ident, zero]],
            "permutation": [[ident[::-1]]],
            "tiny-off-diagonal": [[ident + 1e-300 * np.eye(d, k=1)]],
            "tiny-off-block": [[ident, 1e-300 * ident], [zero, ident]],
            # d nonzero entries, but one of the ones off the diagonal
            "moved-one": [[np.diag([1.0, 1.0, 0.0, 1.0]) + np.outer(ident[2], ident[0])]],
            "imaginary-diagonal": [[ident + 1e-300j * np.eye(d)]],
        }
        return tuple(tuple(Operator(space, w) for w in row) for row in cases[kind])

    @pytest.mark.parametrize("kind, want", [
        ("identity", True), ("signed-zeros", True), ("phase", False),
        ("phase-grid", False), ("swap", False), ("permutation", False),
        ("tiny-off-diagonal", False), ("tiny-off-block", False),
        ("moved-one", False), ("imaginary-diagonal", False),
    ])
    def test_same_verdict_as_the_formed_identity(self, kind, want):
        grid = self._grid(kind)
        assert qsde_model._trivial_scattering(grid) is want
        assert _reference_trivial_scattering(grid) is want

    def test_forms_no_identity(self, monkeypatch):
        grid = builtin_fixture("truncation-demo").family.w_ops
        monkeypatch.setattr(qsde_model.np, "eye", None)
        assert qsde_model._trivial_scattering(grid)


def _reference_projection_rule(p0: np.ndarray) -> str | None:
    """The message SubspacePair raised for p0, None if it accepted it."""
    op = Operator(HilbertSpace((p0.shape[0],)), p0)
    scale = max(1.0, spectral_norm(op))
    if spectral_norm(op - op.dag()) > 1e-9 * scale:
        return "p0 is not Hermitian"
    if spectral_norm(op @ op - op) > 1e-9 * scale:
        return "p0 is not idempotent"
    if int(round(p0.trace().real)) < 1:
        return "p0 must have rank >= 1"
    return None


@st.composite
def _near_projections(draw):
    """c Q Q^* for a random rank-r isometry Q, plus a Hermitian or
    non-Hermitian perturbation of size eps, around the 1e-9 boundary."""
    d = draw(st.integers(1, 12))
    r = draw(st.integers(0, d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))
    p = q[:, :r] @ q[:, :r].conj().T
    c = draw(st.sampled_from([1.0, 1.0 + 1e-10, 1.0 - 1e-9, 1.0 + 3e-9, 0.5,
                              2.0, 1e3]))
    eps = draw(st.sampled_from([0.0, 1e-11, 5e-10, 1e-9, 2e-9, 1e-6, 1e3 * 1e-9]))
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x /= np.linalg.norm(x, 2)
    if draw(st.booleans()):
        x = 0.5 * (x + x.conj().T)
    return c * p + eps * x


class TestProjectionChecks:
    @settings(max_examples=300, deadline=None)
    @given(_near_projections())
    def test_decides_as_the_reference(self, p0):
        want = _reference_projection_rule(p0)
        try:
            SubspacePair(Operator(HilbertSpace((p0.shape[0],)), p0))
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want

    def test_coordinate_projection_takes_no_norm(self):
        space = HilbertSpace((24,))
        p0 = Operator(space, _coordinate_projection(24, [0, 3, 7, 20]))
        with mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm) as norm:
            SubspacePair(p0)
            SubspacePair.from_basis_indices(space, range(0, 24, 5))
        assert norm.call_count == 0

    def test_coordinate_projection_forms_no_product(self, monkeypatch, rng):
        """A coordinate projection's defects are exactly zero, so neither
        p0 - p0^* nor p0 p0 - p0 is formed; the spy does see the product
        of a projection that is not a coordinate one."""
        space = HilbertSpace((24,))
        log = []
        monkeypatch.setattr(_MatmulSpy, "log", log)
        for p0 in (Operator(space, _coordinate_projection(24, [0, 3, 7, 20])),
                   Operator.identity(space)):
            _spy_on(p0)
            assert SubspacePair(p0).rank == int(p0.entries.trace().real)
        assert log == []
        q, _ = np.linalg.qr(rng.standard_normal((24, 24)))
        rotated = Operator(space, q[:, :3] @ q[:, :3].T)
        _spy_on(rotated)
        SubspacePair(rotated)
        assert log == [((24, 24), (24, 24))]

    @pytest.mark.parametrize("entries, message", [
        ({(0, 0): 1.0, (1, 1): 0.5}, "p0 is not idempotent"),
        ({(0, 0): 1.0, (1, 1): -1.0}, "p0 is not idempotent"),
        ({(0, 0): 1.0, (0, 1): 1e-3}, "p0 is not Hermitian"),
        ({(0, 0): 1.0, (0, 1): 0.5, (1, 0): 0.5}, "p0 is not idempotent"),
        ({(1, 1): 0.0}, "p0 must have rank >= 1"),
    ])
    def test_other_diagonals_are_still_rejected(self, entries, message):
        p0 = np.zeros((6, 6), dtype=complex)
        for index, value in entries.items():
            p0[index] = value
        assert _reference_projection_rule(p0) == message
        with pytest.raises(ValueError, match=f"^{message}$"):
            SubspacePair(Operator(HilbertSpace((6,)), p0))


# -- checks decided by bounds, exact values on read ---------------------------
# References: the eager validators, which took every defect norm and every
# scale when a check was made (through `_reference_max_norm`, which takes
# every norm).  They are the code the lazy checks replaced, except that a
# check c or side check failing because Y~ does not exist is reported with
# the tolerance it would have been held to (1e-10 scale and tol side scale)
# where the eager code reported tol.

def _reference_check(name, defect_norm, tol, scale):
    threshold = tol * scale
    return CheckResult(name, defect_norm, threshold, bool(defect_norm <= threshold))


def _reference_stacked_blocks(grid):
    """The blocks of W W^* - I and W^* W - I, W stacked by `np.block`."""
    n = len(grid)
    w = np.block([[op.entries for op in row] for row in grid])
    d, ident = w.shape[0] // n, np.eye(w.shape[0])
    blocks = [(p - ident).reshape(n, d, n, d)
              for p in (w @ w.conj().T, w.conj().T @ w)]
    return [b[m, :, ell, :] for m in range(n) for ell in range(n) for b in blocks]


def _reference_stacked_unitarity_defect(grid):
    return _reference_max_norm(_reference_stacked_blocks(grid), 0.0)


def _reference_hp_validate(c, tol=1e-9):
    zero = Operator.zero(c.space)
    k_defect = c.k_op + c.k_op.dag() + sum((l @ l.dag() for l in c.l_ops), zero)
    forced = [-sum((w @ l.dag() for w, l in zip(row, c.l_ops)), zero)
              for row in c.n_ops]
    m_defect = _reference_max_norm([m - f for m, f in zip(c.m_ops, forced)], 0.0)
    scale = _reference_max_norm(
        [c.k_op, *c.l_ops, *c.m_ops, *(op for row in c.n_ops for op in row)], 1.0)
    return qsde_model.ValidationReport((
        _reference_check("hp.k", _reference_max_norm([k_defect], 0.0), tol, scale),
        _reference_check("hp.m", m_defect, tol, scale),
        _reference_check("hp.n", _reference_stacked_unitarity_defect(c.n_ops),
                         tol, scale),
    ))


def _reference_scaled_hp_validate(fam, tol=1e-9):
    zero = Operator.zero(fam.space)
    y_defect = fam.y + fam.y.dag() + sum((f @ f.dag() for f in fam.f_ops), zero)
    a_defect = fam.a + fam.a.dag() + sum(
        (f @ g.dag() + g @ f.dag() for f, g in zip(fam.f_ops, fam.g_ops)), zero)
    b_defect = fam.b + fam.b.dag() + sum((g @ g.dag() for g in fam.g_ops), zero)
    scale = _reference_max_norm(
        [fam.y, fam.a, fam.b, *fam.f_ops, *fam.g_ops,
         *(op for row in fam.w_ops for op in row)], 1.0)
    return qsde_model.ValidationReport((
        *(_reference_check(name, _reference_max_norm([x], 0.0), tol, scale)
          for name, x in (("scaled.y", y_defect), ("scaled.a", a_defect),
                          ("scaled.b", b_defect))),
        _reference_check("scaled.w", _reference_stacked_unitarity_defect(fam.w_ops),
                         tol, scale),
    ))


def _reference_restricted_inverse(y, sub, tol):
    scale = _reference_max_norm([y], 1.0)
    if _reference_max_norm([y.entries @ sub.slow_basis], 0.0) > tol * scale:
        raise StructuralViolation("y does not annihilate the slow subspace")
    q1 = sub.fast_basis
    if q1.shape[1] == 0:
        return Operator.zero(y.space), _reference_max_norm([-sub.p1], 0.0)
    yc = q1.conj().T @ y.entries @ q1
    sv = np.linalg.svd(yc, compute_uv=False)
    cond = np.inf if sv[-1] == 0.0 else float(sv[0] / sv[-1])
    if cond > 1e12:
        raise SingularFastDynamics(
            f"compressed fast generator has condition number {cond:.3e} "
            f"(limit {1e12:.3e})")
    yt = Operator(y.space, q1 @ np.linalg.solve(yc, q1.conj().T))
    defect = _reference_max_norm([yt @ y - sub.p1, y @ yt - sub.p1], 0.0)
    if defect > 1e-10 * scale * max(1.0, cond):
        raise StructuralViolation(
            f"restricted inverse defect {defect:.3e} exceeds tolerance; "
            "y likely couples the subspaces")
    return yt, defect


def _reference_structural_report(fam, sub, tol=1e-9):
    v, q = sub.slow_basis, sub.fast_basis
    vh, qh = v.conj().T, q.conj().T
    scale = _reference_max_norm([fam.y, fam.a, *fam.f_ops], 1.0)
    side_scale = _reference_max_norm(fam.g_ops, scale)
    checks = [
        _reference_check("structural.b",
                         _reference_max_norm([fam.y.entries @ v], 0.0), tol, scale),
        _reference_check("structural.d", _reference_max_norm(
            [f.entries.conj().T @ v for f in fam.f_ops], 0.0), tol, scale),
        _reference_check("structural.e",
                         _reference_max_norm([vh @ fam.a.entries @ v], 0.0), tol, scale),
    ]
    try:
        y_tilde, inv_defect = _reference_restricted_inverse(fam.y, sub, tol)
    except (SingularFastDynamics, StructuralViolation):
        checks.insert(1, CheckResult("structural.c", np.inf, 1e-10 * scale, False))
        checks += [CheckResult(name, np.inf, tol * side_scale, False)
                   for name in SIDE_CHECKS]
        return qsde_model.ValidationReport(tuple(checks))
    checks.insert(1, _reference_check("structural.c", inv_defect, 1e-10, scale))
    ay = fam.a.entries @ y_tilde.entries
    l_tilde = [g.entries - ay @ f.entries for f, g in zip(fam.f_ops, fam.g_ops)]
    terms = [t for row in _reference_n_sum(fam.w_ops, fam.f_ops, y_tilde.entries)
             for t in row]
    sides = (
        _reference_max_norm([vh @ x @ q for x in l_tilde], 0.0),
        _reference_max_norm([vh @ x @ q for x in terms], 0.0),
        _reference_max_norm([qh @ x @ v for x in terms], 0.0),
    )
    checks += [_reference_check(name, value, tol, side_scale)
               for name, value in zip(SIDE_CHECKS, sides)]
    return qsde_model.ValidationReport(tuple(checks))


def _same_lazy_report(got, want, rounded=()):
    """Verdicts first (as a caller that reads only `passed` sees them), then
    the exact values, bit for bit (under the oracle's rule for the checks
    named in `rounded`), and `passed` against them."""
    assert [c.passed for c in got.checks] == [c.passed for c in want.checks]
    _same_report(got, want, rounded)
    for c in got.checks:
        assert c.passed is (c.max_violation <= c.tolerance), c.name


def _unit_hermitian(rng, d):
    u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    u /= np.linalg.norm(u)
    return np.outer(u, u.conj())


@st.composite
def _near_threshold_cases(draw):
    """A random structured family with one relation pushed to
    1e-9 scale (1 +- 1e-6), where no bound settles the check, or none."""
    fix, _ = draw(_structured_cases())
    fam, sub = fix.family, fix.sub
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["none", "y", "a", "b", "w", "e", "yv"]))
    delta = 1e-9 * draw(st.sampled_from([1 - 1e-6, 1 + 1e-6]))
    space, d = fam.space, fam.space.total_dim
    if kind in ("e", "yv"):
        delta *= _reference_max_norm([fam.y, fam.a, *fam.f_ops], 1.0)
    else:
        delta *= _reference_max_norm(
            [fam.y, fam.a, fam.b, *fam.f_ops, *fam.g_ops,
             *(op for row in fam.w_ops for op in row)], 1.0)
    if kind in ("y", "a", "b"):  # x + x^* gains delta H, |H| = 1
        shift = Operator(space, 0.5 * delta * _unit_hermitian(rng, d))
        fam = dataclasses.replace(fam, **{kind: getattr(fam, kind) + shift})
    elif kind == "w":  # (1 + eps)^2 - 1 = delta (1 + delta / 4)
        fam = dataclasses.replace(fam, w_ops=tuple(
            tuple((1 + 0.5 * delta) * w for w in row) for row in fam.w_ops))
    elif kind == "e":  # V^* A V gains delta I
        fam = dataclasses.replace(fam, a=fam.a + delta * sub.p0)
    elif kind == "yv":  # Y V gains delta x e_1^T, |x| = 1
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        kick = np.outer(x / np.linalg.norm(x), sub.slow_basis[:, 0].conj())
        fam = dataclasses.replace(fam, y=fam.y + Operator(space, delta * kick))
    return fam, sub


class TestChecksDecidedByBounds:
    """A check passes by upper bound <= tol * the floor of its scale, else
    by the exact rule; its exact values are taken when first read.  The
    verdicts, values and tolerances are the eager validators', bit for bit,
    except the side checks' values, which agree under the oracle's rule."""

    @settings(max_examples=60, deadline=None)
    @given(_near_threshold_cases())
    def test_family_checks_equal_the_eager_ones(self, case):
        fam, sub = case
        _same_lazy_report(scaled_hp_validate(fam), _reference_scaled_hp_validate(fam))
        _same_lazy_report(structural_validate(fam, sub),
                          _reference_structural_report(fam, sub), SIDE_CHECKS)

    @pytest.mark.parametrize("name", sorted(_NAMED_STRUCTURAL))
    def test_named_family_checks(self, name):
        fam, sub = _NAMED_STRUCTURAL[name][0]()
        _same_lazy_report(scaled_hp_validate(fam), _reference_scaled_hp_validate(fam))
        _same_lazy_report(structural_validate(fam, sub),
                          _reference_structural_report(fam, sub), SIDE_CHECKS)

    @pytest.mark.parametrize("windowed", [False, True])
    def test_osc120_family_checks(self, windowed, monkeypatch):
        """Y = A = F = 0: scaled.y and scaled.a are exactly 0.0 and form no
        array (no sum is started for them), so the only product is G G^* of
        scaled.b; every field equals the eager validator's."""
        fam = _osc120_family(windowed)
        want = _reference_scaled_hp_validate(fam)
        ops = {id(op): Operator(op.space, op.entries)
               for op in (fam.y, fam.a, fam.b, *fam.f_ops, *fam.g_ops,
                          *(w for row in fam.w_ops for w in row))}
        _spy_on(*ops.values())
        spied = dataclasses.replace(
            fam, y=ops[id(fam.y)], a=ops[id(fam.a)], b=ops[id(fam.b)],
            f_ops=tuple(ops[id(f)] for f in fam.f_ops),
            g_ops=tuple(ops[id(g)] for g in fam.g_ops),
            w_ops=tuple(tuple(ops[id(w)] for w in row) for row in fam.w_ops))
        log, sums = [], []
        monkeypatch.setattr(_MatmulSpy, "log", log)
        zeros_like = np.zeros_like
        monkeypatch.setattr(np, "zeros_like",
                            lambda x, *a, **k: sums.append(x.shape) or zeros_like(x, *a, **k))
        got = scaled_hp_validate(spied)
        monkeypatch.undo()
        assert log == [((121, 121), (121, 121))] and sums == [(121, 121)]
        _same_lazy_report(got, want)
        assert got["scaled.y"].max_violation == got["scaled.a"].max_violation == 0.0

    def test_nonzero_coefficient_without_terms(self):
        """A nonzero A with every F zero leaves scaled.a no term, but its
        defect A + A^* is still formed and fails: the exact 0.0 needs an
        all-zero coefficient too."""
        fam = builtin_fixture("truncation-demo").family
        fam = dataclasses.replace(fam, a=0.25 * Operator.identity(fam.space))
        got = scaled_hp_validate(fam)
        _same_lazy_report(got, _reference_scaled_hp_validate(fam))
        assert not got["scaled.a"].passed and got["scaled.a"].max_violation == 0.5

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 2),
           st.sampled_from(["none", "k", "m", "n"]),
           st.sampled_from([1 - 1e-6, 1 + 1e-6]))
    def test_random_quadruples(self, seed, d, n, kind, side):
        rng = np.random.default_rng(seed)
        c = random_hp_coefficients(rng, d, n)
        delta = 1e-9 * side * _reference_max_norm(
            [c.k_op, *c.l_ops, *c.m_ops, *(op for row in c.n_ops for op in row)],
            1.0)
        if kind == "k":
            c = dataclasses.replace(c, k_op=c.k_op + Operator(
                c.space, 0.5 * delta * _unit_hermitian(rng, d)))
        elif kind == "m":
            c = dataclasses.replace(c, m_ops=(
                c.m_ops[0] + Operator(c.space, delta * _unit_hermitian(rng, d)),
                *c.m_ops[1:]))
        elif kind == "n":
            c = dataclasses.replace(c, n_ops=tuple(
                tuple((1 + 0.5 * delta) * w for w in row) for row in c.n_ops))
        _same_lazy_report(hp_validate(c), _reference_hp_validate(c))

    @settings(max_examples=30, deadline=None)
    @given(_structured_cases(),
           st.sampled_from([0.5, 1.0, 7.0, 1e4, 1e20, 1e75, 1e120, 1e150]))
    def test_assembled_at_extreme_k(self, case, k):
        c = assemble(case[0].family, k)
        _same_lazy_report(hp_validate(c), _reference_hp_validate(c))

    @pytest.mark.parametrize("name", sorted(_NAMED_STRUCTURAL))
    def test_restricted_inverse_gates(self, name):
        fam, sub = _NAMED_STRUCTURAL[name][0]()
        try:
            want = _reference_restricted_inverse(fam.y, sub, 1e-9)
        except (SingularFastDynamics, StructuralViolation) as exc:
            with pytest.raises(type(exc)) as got:
                qsde_model.restricted_inverse(fam.y, sub, 1e-9)
            assert str(got.value) == str(exc)
            return
        yt, defect = qsde_model.restricted_inverse(fam.y, sub, 1e-9)
        assert np.array_equal(_bits(yt.entries), _bits(want[0].entries))
        assert defect.value.hex() == want[1].hex()

    def test_failing_inverse_reports_each_threshold(self):
        fam, sub = _singular_fast_block(builtin_fixture("duan-kimble"))
        report = structural_validate(fam, sub, tol=1e-7)
        scale = _reference_max_norm([fam.y, fam.a, *fam.f_ops], 1.0)
        assert report["structural.c"].tolerance == 1e-10 * scale
        for name in SIDE_CHECKS:
            check = report[name]
            assert (check.max_violation, check.passed) == (np.inf, False)
            assert check.tolerance == 1e-7 * _reference_max_norm(fam.g_ops, scale)
            assert check.tolerance > 1e-7

    def test_passing_checks_take_no_svd(self):
        fix = random_structured_fixture(np.random.default_rng(5), 4, 2)
        fam, sub = fix.family, fix.sub
        with mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm) as norm:
            reports = [scaled_hp_validate(fam), structural_validate(fam, sub)]
            assert all(r.overall for r in reports)
            assert norm.call_count == 0
            assert reports[0]["scaled.b"].max_violation > 0.0
            assert norm.call_count == 1
            reports[0]["scaled.y"].tolerance
            scale_svds = norm.call_count - 1
            assert scale_svds >= 1
            reports[0]["scaled.b"].tolerance  # the same scale, read once
            assert norm.call_count == 1 + scale_svds

    def test_non_finite_defect_raises(self):
        with pytest.raises(NonFiniteEntries):
            _Norms([np.ones((2, 2)), np.array([[np.inf, 0.0], [0.0, 1.0]])]).upper
        fam = builtin_fixture("duan-kimble").family
        big = dataclasses.replace(fam, f_ops=tuple(1e160 * f for f in fam.f_ops))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteEntries):
            scaled_hp_validate(big)

    def test_a_nan_upper_decides_nothing(self):
        """A given upper is kept as given, not raised to the floor: a NaN
        one leaves the verdict to the exact values, which raise on the
        items' NaN entry."""
        defect = _Norms(lambda: [np.array([[np.nan, 1.0], [0.0, 1.0]])], upper=np.nan)
        assert np.isnan(defect.upper) and "_bounds" not in vars(defect)
        with pytest.raises(NonFiniteEntries):
            qsde_model._at_most(defect, _Norms((), 1.0), lambda s: 1e-9 * s)


class TestCheckResultContract:
    def test_plain_values(self):
        check = CheckResult("hp.k", 0.25, 1e-9, False)
        assert (check.name, check.max_violation, check.tolerance, check.passed) \
            == ("hp.k", 0.25, 1e-9, False)
        assert check == CheckResult("hp.k", 0.25, 1e-9, False)
        assert check != CheckResult("hp.k", 0.25, 1e-9, True)
        assert hash(check) == hash(CheckResult("hp.k", 0.25, 1e-9, False))
        assert repr(check) == ("CheckResult(name='hp.k', max_violation=0.25, "
                               "tolerance=1e-09, passed=False)")
        report = qsde_model.ValidationReport([check, CheckResult("hp.m", 0, 1, True)])
        assert report.failing() == (check,)
        assert report["hp.m"].max_violation == 0
        assert not report.overall

    def test_lazy_check_equals_its_values(self, dk_fixture):
        report = scaled_hp_validate(dk_fixture.family)
        for c in report.checks:
            assert c == CheckResult(c.name, c.max_violation, c.tolerance, c.passed)
            assert repr(c).startswith(f"CheckResult(name={c.name!r}, max_violation=")


@st.composite
def _relation_cases(draw):
    """A d x d x and 0-3 terms of the same shape, entries from a small
    pool with -0.0 and subnormals, at a drawn density."""
    d = draw(st.integers(1, 6))
    pool = np.array([0.0, -0.0, 5e-324, -1.5, 0.25, 3.0, -1e-300])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))

    def matrix():
        m = np.empty((d, d), dtype=complex)
        for part in (m.real, m.imag):
            part[...] = np.where(rng.random((d, d)) < density,
                                 rng.choice(pool, (d, d)), -0.0)
        return m

    return matrix(), [matrix() for _ in range(draw(st.integers(0, 3)))]


class TestRelationInPlace:
    @settings(max_examples=150, deadline=None)
    @given(_relation_cases())
    def test_defect_has_the_bits_of_the_expression(self, case):
        """The in-place sum and defect have the bits of x + x^* + sum(terms,
        zero); an all-zero x with no term forms no array."""
        x, terms = case
        want = x + x.conj().T + sum(terms, np.zeros_like(x))
        before = [t.copy() for t in terms]
        items = qsde_model._relation(x, iter(terms))._items
        if not terms and not x.any():
            assert items == [] and not want.any()
        else:
            (got,) = items
            assert np.array_equal(_bits(got), _bits(want))
        assert all(np.array_equal(_bits(t), _bits(u))
                   for t, u in zip(terms, before))  # no term is written


@pytest.fixture(scope="module")
def full_size_models(tmp_path_factory):
    """dk40 (dim 123) and a dim-136 random structured model as files."""
    out = tmp_path_factory.mktemp("full-size")
    fixes = {
        "dk40": duan_kimble_fixture(gamma=1.0, g=2.0, drive_alpha=0.3 + 0.4j,
                                    cutoff=40),
        "random136": random_structured_fixture(np.random.default_rng(11),
                                               hprime_dim=8, n=2, cutoff=16),
    }
    paths = {}
    for name, fix in fixes.items():
        paths[name] = out / f"{name}.json"
        paths[name].write_text(json.dumps(fixture_to_model_dict(fix)))
    return {name: (str(path), fixes[name].family.space.total_dim)
            for name, path in paths.items()}


class TestValidationTakesNoFullSizeNorm:
    """Passing commands decide their checks by bounds: no full-size norm or
    SVD during validation.  The semigroup table (`table` rows) takes one
    SVD per grid time its Ritz certificate does not decide, apart from
    t = 0, where P = I and its norm is 1.0: on dk40 none; on random136,
    whose slow block is not of rank <= 4 by t = 1, at most the first four
    times after t = 0, before repeated steps certify."""

    @pytest.mark.parametrize("model", ["dk40", "random136"])
    @pytest.mark.parametrize("argv, table", [
        (["eliminate"], 0),
        (["converge", "--kind", "generator", "--k", "2", "4", "8"], 0),
        (["semigroup", "--k", "4", "--grid", "8", "--T", "1"], 8),
    ])
    def test_passing_command(self, full_size_models, model, argv, table,
                             monkeypatch, capsys):
        from qsdelim.cli import main

        path, d = full_size_models[model]
        counts = count_full_size_svds(monkeypatch, d)
        assert main([argv[0], path, *argv[1:]]) == 0
        assert counts["full"] <= (4 if table and model == "random136" else 0)
        assert "FAIL" not in capsys.readouterr().out

    def test_validate_stacks_the_full_size_norms(self, full_size_models,
                                                 monkeypatch, capsys):
        """validate prints every check's exact violation.  Each of
        random136's twelve full-size arrays splits into blocks (eleven into
        16 or 17 of 8 rows, one into two of 72 and 64 rows), so each takes
        one norm call on its stack of blocks: none of full size, and no
        np.linalg.svd."""
        from qsdelim.cli import main

        path, d = full_size_models["random136"]
        counts = count_full_size_svds(monkeypatch, d)
        assert main(["validate", path]) == 0
        assert counts == {"full": 0, "stacked": 12, "svd": 0}
        assert "FAIL" not in capsys.readouterr().out

    def test_validate_reads_every_check_once(self, full_size_models, tmp_path,
                                             monkeypatch, capsys):
        from qsdelim.cli import main

        path, _ = full_size_models["random136"]
        reads = []
        for attr in ("max_violation", "tolerance"):
            real = vars(CheckResult)[attr]

            def counted(check, real=real, attr=attr):
                reads.append((id(check), attr))
                return real.func(check)

            prop = functools.cached_property(counted)
            prop.__set_name__(CheckResult, attr)
            monkeypatch.setattr(CheckResult, attr, prop)
        report_path = tmp_path / "report.json"
        assert main(["validate", path, "--report", str(report_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        doc = json.loads(report_path.read_text())
        model = load_model(path)
        want = {"scaled": _reference_scaled_hp_validate(model.family),
                "structural": _reference_structural_report(model.family, model.sub)}
        n_checks = sum(len(r.checks) for r in want.values())
        assert len(reads) == len(set(reads)) == 2 * n_checks
        for label, report in want.items():
            for got, c in zip(doc["checks"][label], report.checks):
                assert got["max_violation"] == c.max_violation
                assert got["tolerance"] == c.tolerance
                assert (f"  PASS  {c.name:<22} max violation {c.max_violation:.3e}"
                        f"  (tol {c.tolerance:.1e})") in lines

    def test_failing_eliminate_prints_the_exact_values(self, lowered_truncation_demo,
                                                       tmp_path, capsys):
        from qsdelim.cli import main

        path = tmp_path / "lowered.json"
        path.write_text(json.dumps(fixture_to_model_dict(lowered_truncation_demo)))
        assert main(["eliminate", str(path)]) == 1
        out = capsys.readouterr().out.splitlines()
        want = _reference_scaled_hp_validate(load_model(str(path)).family)
        assert out[1:] == [
            f"  {'PASS' if c.passed else 'FAIL'}  {c.name:<22} "
            f"max violation {c.max_violation:.3e}  (tol {c.tolerance:.1e})"
            for c in want.checks
        ]
        assert any(line.startswith("  FAIL  scaled.b               "
                                   "max violation 6.000e+00") for line in out)


class _MatmulSpy(np.ndarray):
    """An array that taints what is computed from it: every ufunc result
    with a spy operand is a spy, and while `log` is a list, every
    `np.matmul` (so every `@`) with a spy operand appends its operand
    shapes there.  Operators strip the taint, since they store plain
    arrays."""

    log = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and _MatmulSpy.log is not None:
            _MatmulSpy.log.append(tuple(np.shape(x) for x in inputs))

        def plain(x):
            return x.view(np.ndarray) if isinstance(x, _MatmulSpy) else x

        if "out" in kwargs:
            kwargs["out"] = tuple(map(plain, kwargs["out"]))
        out = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
        return out.view(_MatmulSpy) if isinstance(out, np.ndarray) else out


def _spy_on(*ops):
    for op in ops:
        object.__setattr__(op, "entries", op.entries.view(_MatmulSpy))


class TestNoFullSizeProductAfterTheInverse:
    """Once `restricted_inverse` has returned, the limit formulas, the
    side checks and the corrector take no product of two d x d arrays:
    every product from the family's entries, the pair's bases or Y~ has
    r rows or r columns (r the slow rank), or a vector operand.  After
    `eliminate` returns, the generator study assembles no family and
    takes no d x d product either: its products have a vector operand,
    r rows or columns, or 3, from the block [u u1 u2] or its adjoint."""

    @staticmethod
    def _spied(full_size_models, model):
        path, d = full_size_models[model]
        loaded = load_model(path)
        fam, sub = loaded.family, loaded.sub
        _spy_on(fam.y, fam.a, fam.b, *fam.f_ops, *fam.g_ops,
                *(w for row in fam.w_ops for w in row))
        for name in ("slow_basis", "fast_basis"):
            vars(sub)[name] = getattr(sub, name).view(_MatmulSpy)
        amp = FieldAmplitudes((0.2 - 0.1j,) * fam.n, (0.3 + 0.2j,) * fam.n)
        return fam, sub, d, sub.slow_basis.shape[1], amp

    @pytest.mark.parametrize("model", ["dk40", "random136"])
    def test_eliminate_validate_and_corrector(self, full_size_models, model,
                                              monkeypatch):
        fam, sub, d, r, amp = self._spied(full_size_models, model)
        log = []
        monkeypatch.setattr(_MatmulSpy, "log", None)
        real_inverse = qsde_model.restricted_inverse

        def inverse(*args, **kwargs):
            yt, defect = real_inverse(*args, **kwargs)
            _spy_on(yt)
            _MatmulSpy.log = log
            return yt, defect

        monkeypatch.setattr(qsde_model, "restricted_inverse", inverse)
        products = {}
        for name, run in (
            ("structural_validate", lambda: structural_validate(fam, sub)),
            ("eliminate", lambda: eliminate(fam, sub)),
            ("kurtz_corrector", lambda: kurtz_corrector(
                result, amp, sub.slow_basis @ np.full(r, r ** -0.5))),
        ):
            _MatmulSpy.log = log if name == "kurtz_corrector" else None
            result = run()
            products[name], log[:] = list(log), []
        _MatmulSpy.log = None
        assert r < d
        for name, shapes in products.items():
            assert shapes, name
            assert ((d, d), (d, d)) not in shapes, name
            for x, y in shapes:
                # the corrector forms its orders' Y [u u1 u2] as one d x 3 block
                assert (1 in (len(x), len(y)) or r in (x[0], y[1])
                        or (name, x, y) == ("kurtz_corrector", (d, d), (d, 3))), (
                    name, x, y)

    @pytest.mark.parametrize("model", ["dk40", "random136"])
    def test_generator_study(self, full_size_models, model, monkeypatch):
        fam, sub, d, r, amp = self._spied(full_size_models, model)
        monkeypatch.setattr(_MatmulSpy, "log", None)
        result = eliminate(fam, sub)
        _spy_on(result.y_tilde)
        assembled = []
        for module in (qsde_model, convergence):
            monkeypatch.setattr(module, "assemble",
                                lambda *args: assembled.append(args))
        log = []
        _MatmulSpy.log = log
        report = generator_study(result, amp, (2.0, 4.0, 8.0, 16.0))
        _MatmulSpy.log = None
        assert report.verdict and not assembled
        assert log and r < d
        assert ((d, d), (d, d)) not in log
        for x, y in log:
            assert 1 in (len(x), len(y)) or {3, r} & {x[0], y[1]}, (x, y)


# -- the restricted inverse decides its gates by bounds ----------------------
# The reference is `_reference_restricted_inverse` above, which takes the
# SVD's condition number first, on every call, and every norm exactly.

def _inverse_outcome(run):
    """The exception's type and message, or the bits of Y~ and the defect."""
    try:
        yt, defect = run()
    except (SingularFastDynamics, StructuralViolation, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    defect = defect.value if isinstance(defect, _Norms) else defect
    return _bits(yt.entries).tobytes(), defect.hex()


def _unitary(rng, m):
    return np.linalg.qr(rng.standard_normal((m, m))
                        + 1j * rng.standard_normal((m, m)))[0]


@st.composite
def _fast_blocks(draw):
    """Y whose fast block is s U diag(sigma) V^* on a coordinate p1, with
    sigma geometric from 1 to 1 / cond: cond from 1 to 1e14, a zero last
    sigma (exactly singular), or U = V = I and cond within 1e-3 of the
    limit.  An optional leak s eps p0 X p1 moves the inverse defect to
    and past its tolerance."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["cond", "singular", "near-limit"]))
    r, m = draw(st.integers(1, 2)), draw(st.integers(1, 6))
    if kind == "near-limit":
        m = max(m, 2)
        cond = DEFAULT_COND_LIMIT * (1.0 + draw(st.floats(-1e-3, 1e-3)))
        u = v = np.eye(m)
    else:
        cond = 10.0 ** draw(st.floats(0.0, 14.0))
        u, v = _unitary(rng, m), _unitary(rng, m)
    sigma = np.geomspace(1.0, 1.0 / cond, m)
    if kind == "singular":
        sigma[-1] = 0.0
    s = 10.0 ** draw(st.integers(-3, 3))
    d = r + m
    slow = np.sort(rng.choice(d, r, replace=False))
    fast = np.setdiff1d(np.arange(d), slow)
    y = np.zeros((d, d), dtype=np.complex128)
    y[np.ix_(fast, fast)] = s * (u * sigma) @ v.conj().T
    eps = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
    y[np.ix_(slow, fast)] = s * eps * rng.standard_normal((r, m))
    space = HilbertSpace((d,))
    return Operator(space, y), SubspacePair.from_basis_indices(space, slow)


def _diagonal_case(*diagonal):
    """Y = diag(diagonal) with p0 on its first index."""
    space = HilbertSpace((len(diagonal),))
    return (Operator(space, np.diag(diagonal)),
            SubspacePair.from_basis_indices(space, [0]))


class TestRestrictedInverseGates:
    """The condition gate passes by `_norm_bound`(Yc) `_norm_bound`(Yc^-1 Q^*)
    widened by 1e-3 and the defect gate by 1e-10 scale where they settle
    it; else the SVD's cond decides.  Every outcome, message and bit is the
    exact-cond reference's, and a passing inverse of a benchmark-sized
    model takes no SVD."""

    @settings(max_examples=300, deadline=None)
    @given(_fast_blocks())
    @example(_diagonal_case(0.0, 1.0, 0.9995e-12))  # cond 1.0005e12: raises
    @example(_diagonal_case(0.0, 1.0, 1.0005e-12))  # cond 0.9995e12: SVD passes
    def test_outcome_is_the_exact_cond_rule(self, case):
        y, sub = case
        assert (_inverse_outcome(lambda: restricted_inverse(y, sub))
                == _inverse_outcome(lambda: _reference_restricted_inverse(y, sub, 1e-9)))

    @pytest.mark.parametrize("model", ["dk40", "random136"])
    def test_passing_inverse_takes_no_svd(self, full_size_models, model,
                                          monkeypatch, capsys):
        path, _ = full_size_models[model]
        real_inverse, real_svd = qsde_model.restricted_inverse, np.linalg.svd
        inside, calls = [], {"inverse": 0, "svd": 0}

        def inverse(*args, **kwargs):
            calls["inverse"] += 1
            inside.append(True)
            try:
                return real_inverse(*args, **kwargs)
            finally:
                inside.pop()

        def svd(*args, **kwargs):
            calls["svd"] += bool(inside)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(qsde_model, "restricted_inverse", inverse)
        monkeypatch.setattr(np.linalg, "svd", svd)
        for cmd in ("eliminate", "validate"):
            assert main([cmd, path]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert calls == {"inverse": 2, "svd": 0}


# -- the W gate from one Gram product, coordinate bases by index ------------
# References: the two-product stacked defect and the basis products.

class TestUnitarityGateFromOneGram:
    """`_unitarity_defect(W).upper`, from W W^* alone, bounds the exact defect
    of both Gram products, and `scaled.w` gives the verdict of the
    two-product reference: by the bound where it decides, with neither
    W^* W nor an exact value formed, else by the exact values."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 3),
           st.sampled_from([0.0, 1e-13, 1e-6]), st.sampled_from([1e-9, 1e-15]))
    def test_bound_and_verdict(self, seed, d, n, eps, tol):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((2, n * d, n * d))
        w = np.linalg.qr(g[0] + 1j * g[1])[0]
        if eps:
            g = rng.standard_normal((2, n * d, n * d))
            w = w + eps * (g[0] + 1j * g[1])
        space = HilbertSpace((d,))
        grid = tuple(
            tuple(Operator(space, w[i * d:(i + 1) * d, j * d:(j + 1) * d])
                  for j in range(n))
            for i in range(n)
        )
        assume(not qsde_model._trivial_scattering(grid))
        want = _reference_stacked_unitarity_defect(grid)
        assert qsde_model._unitarity_defect(grid).upper >= want
        zero = Operator.zero(space)
        fam = ScaledFamily(zero, zero, zero, (zero,) * n, (zero,) * n,
                           grid)
        scale = _reference_max_norm([op for row in grid for op in row], 1.0)
        check = scaled_hp_validate(fam, tol)["scaled.w"]
        assert check.passed == (want <= tol * scale)
        exact = "value" in vars(check._defect)
        if tol == 1e-15:  # below the bound's rounding term 8 (nd)^2 eps
            assert exact
        elif eps < 1e-6:  # a defect near 1e-13 passes by the bound
            assert check.passed and not exact
            assert "_bounds" not in vars(check._defect)
        assert check.max_violation == want


def _signed_zeros(rng, x):
    """x with about a third of its real and imaginary parts set to -0.0."""
    x = x.copy()
    x.real[rng.random(x.shape) < 0.3] = -0.0
    x.imag[rng.random(x.shape) < 0.3] = -0.0
    return x


class TestCoordinateBasesByIndex:
    """`SubspacePair.compress` on a coordinate projection selects rows and
    columns that equal the basis products they replace; any other p0
    takes the products."""

    SIDES = [("slow", None), (None, "slow"), ("fast", None), (None, "fast"),
             ("slow", "slow"), ("fast", "fast"), ("slow", "fast"), ("fast", "slow")]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8),
           st.sampled_from(["one", "d-1", "any"]))
    def test_selection_equals_product(self, seed, d, rank):
        rng = np.random.default_rng(seed)
        r = {"one": 1, "d-1": d - 1, "any": int(rng.integers(1, d))}[rank]
        space = HilbertSpace((d,))
        sub = SubspacePair.from_basis_indices(
            space, rng.choice(d, r, replace=False).tolist())
        bases = {"slow": subspace_basis(sub.p0), "fast": subspace_basis(sub.p1)}
        assert bases["slow"].shape[1] == r
        y, a, f = (_signed_zeros(rng, x) for x in
                   rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d)))
        for x in (y, a, f, f.conj().T):
            for left, right in self.SIDES:
                want = x
                if left:
                    want = bases[left].conj().T @ want
                if right:
                    want = want @ bases[right]
                got = sub.compress(x, left, right)
                assert got.flags.c_contiguous
                assert np.array_equal(got, want)

    def test_rotated_duan_kimble_takes_the_products(self, dk_fixture, monkeypatch):
        """The CI's rotated duan-kimble (a p0 that is no coordinate
        projection) forms every basis product with bits of the explicit
        one and passes; duan-kimble itself forms only Y~ = Q X."""
        products = {}
        for name, (fam, sub) in (("rotated", rotated_family(dk_fixture, 0)),
                                 ("coordinate", (dk_fixture.family, dk_fixture.sub))):
            if name == "rotated":
                assert sub._coordinates is None
                v, q = sub.slow_basis, sub.fast_basis
                y = fam.y.entries
                assert np.array_equal(_bits(sub.compress(y, "fast", "fast")),
                                      _bits(q.conj().T @ y @ q))
                assert np.array_equal(_bits(sub.compress(y, right="slow")),
                                      _bits(y @ v))
            sub = SubspacePair(sub.p0)  # fresh bases, to spy on
            for basis in ("slow_basis", "fast_basis"):
                vars(sub)[basis] = getattr(sub, basis).view(_MatmulSpy)
            monkeypatch.setattr(_MatmulSpy, "log", [])
            report = structural_validate(fam, sub)
            products[name] = _MatmulSpy.log
            monkeypatch.setattr(_MatmulSpy, "log", None)
            assert report.overall
            assert eliminate(fam, sub).limit.n == fam.n
        d, r = dk_fixture.family.space.total_dim, dk_fixture.sub.rank
        assert products["coordinate"] == [((d, d - r), (d - r, d))]
        assert len(products["rotated"]) > 10

