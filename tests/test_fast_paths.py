"""Array-level fast paths against the per-entry and Gram-Schmidt loops they replace.

`matrix_from_json` decodes a whole matrix into one float64 buffer, and
`subspace_basis` selects identity columns for a coordinate projection.  The
references below keep the loops they replaced; the fast paths must give
exactly their bits (no tolerance) and reject every input they rejected.
A sparse node decodes to the bits of the dense form of the same matrix,
and the model-file emitter picks it only when it stores fewer than half
the entries.

The limit formulas that now live in one helper each (M from unitarity, the
N-limit sum, the field dressing) are checked against their old loops to
1e-12 relative, and the studies, which reuse one elimination result, must
give the same bits as the per-k functions.

`load_model` decodes with the cyclic collector paused and restores the
caller's collector state, and `spectral_norm` takes one SVD per operator
(none for an all-zero one) with the bits of a direct `np.linalg.norm`.

Structural check c reads the defect that the restricted inverse measured
(same bits as measuring it again), the unitarity defect forms each block
product once (1e-12 of the double loop), and `eliminate` builds M through
`_m_from_unitarity` (1e-12 relative of its old loop).

Checks b, d, e, the side checks, `eliminate` and the corrector work in the
coordinates of the slow and fast bases.  Their old p0/p1 products are the
references: limits and corrector equal by value for a coordinate
projection, 1e-12 relative for a rotated one, and check values within
1e-12 max(1, scale) with the same flags.
"""

import dataclasses
import gc
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsdelim import (
    FieldAmplitudes,
    HilbertSpace,
    ModelParseError,
    Operator,
    SingularFastDynamics,
    StructuralViolation,
    SubspacePair,
    assemble,
    builtin_fixture,
    cavity_closed_form,
    eliminate,
    field_dressed_parts,
    generator_residual,
    generator_study,
    hp_validate,
    kurtz_corrector,
    random_structured_fixture,
    restricted_inverse,
    scaled_hp_validate,
    semigroup_gap,
    semigroup_study,
    spectral_norm,
    structural_validate,
    subspace_basis,
    trivial_family_from_limit,
)
from qsdelim import elimination, qsde_model
from qsdelim.cli import _bundled_fixture
from qsdelim.modelfile import (
    eval_expression,
    fixture_to_model_dict,
    load_model,
    matrix_from_json,
    matrix_to_json,
    operator_to_json,
    parse_model,
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


def _json_round_trip(node):
    return eval_expression(json.loads(json.dumps(node)))


class TestSparseNode:
    @settings(max_examples=150, deadline=None)
    @given(_special_matrices())
    def test_dense_and_sparse_encodings_decode_to_the_same_bits(self, drawn):
        m, rng = drawn
        node, stored = _reference_sparse_node(m, rng)
        dense = _json_round_trip(matrix_to_json(m))
        sparse = _json_round_trip(node)
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
        assert np.array_equal(_bits(_json_round_trip(emitted)), _bits(m))

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
        assert np.array_equal(_bits(_json_round_trip(emitted)), _bits(m))

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
    fresh = restricted_inverse(dk_fixture.family.y, dk_fixture.sub)
    assert np.array_equal(_bits(result.y_tilde.entries), _bits(fresh.entries))


def test_eliminate_evaluates_the_n_limit_sum_once(dk_fixture, monkeypatch):
    """`eliminate` takes N from its structural check instead of recomputing it."""
    calls = []
    real = qsde_model._n_limit_sum

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(qsde_model, "_n_limit_sum", counted)
    monkeypatch.setattr(elimination, "_n_limit_sum", counted)
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

    def test_decode_runs_with_the_collector_off(self, model_path, gc_state,
                                                monkeypatch):
        seen = []
        real = json.load

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(json, "load", spy)
        load_model(model_path)
        assert seen == [False]
        assert gc.isenabled() is gc_state


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
        want = float(np.linalg.norm(x.entries, 2))
        with mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm) as norm:
            first = spectral_norm(x)
            assert norm.call_count == (1 if x.entries.any() else 0)
            second = spectral_norm(x)
            assert norm.call_count == (1 if x.entries.any() else 0)
        assert type(first) is float
        assert first.hex() == want.hex()  # bits, so 0.0 and -0.0 differ
        assert second.hex() == want.hex()



# -- one home per formula ------------------------------------------------
# The references keep the loops that `field_dressed_parts`, `eliminate`,
# `cavity_closed_form` and `assemble` had before M = -sum_j W_ij L_j^*, the
# N-limit sum and the field dressing each moved into one helper.  The old
# `eliminate` and `cavity_closed_form` N loops were the same formula, so
# one reference serves both.

REL_TOL = 1e-12


def _rel_close(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return np.linalg.norm(got - want) <= REL_TOL * np.linalg.norm(want)


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
        p0, v = fix.sub.p0.entries, result.compression
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
        v = result.compression
        u = v @ (np.ones(v.shape[1]) / np.sqrt(v.shape[1]))
        report = generator_study(result, self.AMP, ks, u=u)
        per_k = [generator_residual(result, self.AMP, u, k) for k in ks]
        assert np.array_equal(_bits(np.array(report.values)), _bits(np.array(per_k)))

    def test_kurtz_corrector_uses_the_results_inverse(self, dk_fixture,
                                                      monkeypatch):
        result = eliminate(dk_fixture.family, dk_fixture.sub)
        marker = Operator(result.y_tilde.space, 2.0 * result.y_tilde.entries)
        swapped = dataclasses.replace(result, y_tilde=marker)
        assert swapped.y_tilde is marker

        def recomputed(*args, **kwargs):
            raise AssertionError("kurtz_corrector recomputed the inverse")

        monkeypatch.setattr(qsde_model, "_restricted_inverse", recomputed)
        monkeypatch.setattr(qsde_model, "_structural_report", recomputed)
        v = result.compression
        u = v @ (np.ones(v.shape[1]) / np.sqrt(v.shape[1]))
        cor = kurtz_corrector(swapped, self.AMP, u)
        a_op, b_op = field_dressed_parts(dk_fixture.family, self.AMP)
        yt = marker.entries
        assert np.array_equal(cor.u1, -yt @ (a_op.entries @ cor.u))
        slow_part = (b_op.entries - a_op.entries @ yt @ a_op.entries) @ cor.u
        assert np.array_equal(
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


# -- each validation fact measured once ------------------------------------
# The references keep what the code did before: structural check c
# recomputed max(|Y~ Y - p1|, |Y Y~ - p1|) after `restricted_inverse` had
# measured it, `_unitarity_defect` summed the blocks of W W^* and W^* W in
# a double loop, and `eliminate` built M in its own loop.

def _reference_inverse_and_defect(y, sub, tol):
    """Y~ and check c as the structural check recomputed it."""
    yt = restricted_inverse(y, sub, tol=tol)
    return yt, max(
        spectral_norm(yt @ y - sub.p1), spectral_norm(y @ yt - sub.p1)
    )


def _reference_structural(fam, sub):
    with mock.patch.object(qsde_model, "_restricted_inverse",
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
            worst = max(worst, np.linalg.norm(right, 2), np.linalg.norm(left, 2))
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


def _same_report(got, want):
    assert [c.name for c in got.checks] == [c.name for c in want.checks]
    for g, w in zip(got.checks, want.checks):
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
        real = qsde_model._restricted_inverse
        sentinel = 0.123456789

        def marked(*args):
            return real(*args)[0], sentinel

        with mock.patch.object(qsde_model, "_restricted_inverse", marked):
            report = structural_validate(dk_fixture.family, dk_fixture.sub)
        assert report["structural.c"].max_violation == sentinel
        assert not report["structural.c"].passed

    def test_public_inverse_is_the_workers(self, dk_fixture):
        y, sub = dk_fixture.family.y, dk_fixture.sub
        yt, defect = qsde_model._restricted_inverse(y, sub, 1e-9)
        assert np.array_equal(_bits(yt.entries),
                              _bits(restricted_inverse(y, sub).entries))
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
        got = qsde_model._unitarity_defect(grid)
        assert type(got) is float
        assert abs(got - want) <= 1e-12 * max(1.0, want)

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
        v = result.compression
        want = _reference_eliminate_m(fix.family, fix.sub, result.y_tilde.entries)
        for got, acc in zip(result.limit.m_ops, want):
            assert _rel_close(got.entries, v.conj().T @ acc @ v)


# -- the slow subspace in basis coordinates ---------------------------------
# The references keep what the code did before: checks b, d, e and the side
# checks were norms of d x d products with p0 and p1, `eliminate` compressed
# P0 X P0 sandwiches, and the corrector projected with p1 before applying Y~.

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
        yt = restricted_inverse(fam.y, sub)
    except (SingularFastDynamics, StructuralViolation):
        return want
    terms = [t for row in qsde_model._n_limit_sum(fam.w_ops, fam.f_ops, yt)
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
    n_sum = qsde_model._n_limit_sum(fam.w_ops, fam.f_ops, yt)
    return (
        [compress(fam.b.entries - a @ ytm @ a)]
        + [compress(g.entries - a @ ytm @ f.entries)
           for f, g in zip(fam.f_ops, fam.g_ops)]
        + [compress(m.entries) for m in m_ops]
        + [compress(t.entries) for row in n_sum for t in row]
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


def _rotated(fix, seed):
    """The fixture conjugated by a random unitary, so that p0 is no
    coordinate projection and its bases come from Gram-Schmidt."""
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


SIDE_CHECKS = ("limit.l_side", "limit.n_side_right", "limit.n_side_left")


class TestSlowSubspaceInBasisCoordinates:
    """Checks, limits and corrector measured on the bases V and Q agree with
    the p0/p1 products they replace: by value for a coordinate projection
    (check values to 1e-12 max(1, scale) with the same flags), to 1e-12
    relative for a rotated one."""

    AMP = FieldAmplitudes((0.2 - 0.1j,), (0.3 + 0.2j,))

    @staticmethod
    def _checks_agree(fam, sub):
        report = structural_validate(fam, sub)
        for name, want in _reference_projection_checks(fam, sub).items():
            TestValidationFactsMeasuredOnce._close_with_flag(report[name], want)

    def _compare(self, fam, sub, amp, same):
        self._checks_agree(fam, sub)
        result = eliminate(fam, sub)
        v = result.compression
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
        self._compare(fix.family, fix.sub, amp, np.array_equal)

    def test_coordinate_projection_duan_kimble(self, dk_fixture):
        self._compare(dk_fixture.family, dk_fixture.sub, self.AMP, np.array_equal)

    @settings(max_examples=20, deadline=None)
    @given(_structured_cases(), st.integers(0, 2**32 - 1))
    def test_rotated_projection(self, case, seed):
        fix, amp = case
        fam, sub = _rotated(fix, seed)
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
        for sub in (fix.sub, _rotated(fix, seed)[1]):
            p0 = sub.p0.entries
            assert np.array_equal(_bits(sub.p1.entries),
                                  _bits(np.eye(p0.shape[0]) - p0))
