"""Core operator algebra: oracles are independent numpy computations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdelim import (
    HilbertSpace,
    Operator,
    SingularFastDynamics,
    StructuralViolation,
    SubspacePair,
    matrix_exponential,
    restricted_inverse,
    spectral_norm,
    subspace_basis,
    tensor_embed,
)


def _random_matrix(rng, d, scale=1.0):
    return scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def _op(rng, d, scale=1.0):
    return Operator(HilbertSpace((d,)), _random_matrix(rng, d, scale))


complex_entries = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def operators(draw, max_dim=4):
    d = draw(st.integers(min_value=1, max_value=max_dim))
    flat = draw(
        st.lists(complex_entries, min_size=d * d, max_size=d * d)
    )
    return Operator(HilbertSpace((d,)), np.array(flat).reshape(d, d))


class TestSpacesAndOperators:
    def test_total_dim_is_product(self):
        assert HilbertSpace((3, 5, 2)).total_dim == 30

    def test_rejects_empty_and_nonpositive_factors(self):
        with pytest.raises(ValueError):
            HilbertSpace(())
        with pytest.raises(ValueError):
            HilbertSpace((3, 0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Operator(HilbertSpace((3,)), np.eye(2))

    def test_nonfinite_entries_rejected(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = np.nan
        with pytest.raises(ValueError):
            Operator(HilbertSpace((2,)), m)

    def test_entries_are_immutable(self):
        op = Operator.identity(HilbertSpace((2,)))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0

    def test_mixed_space_arithmetic_rejected(self, rng):
        with pytest.raises(ValueError):
            _op(rng, 2) + _op(rng, 3)
        with pytest.raises(ValueError):
            _op(rng, 2) @ _op(rng, 3)

    @given(operators())
    def test_adjoint_is_involutive(self, op):
        assert np.array_equal(op.dag().dag().entries, op.entries)

    @given(operators(), st.data())
    def test_adjoint_antihomomorphism(self, a, data):
        d = a.space.total_dim
        flat = data.draw(
            st.lists(complex_entries, min_size=d * d, max_size=d * d)
        )
        b = Operator(a.space, np.array(flat).reshape(d, d))
        lhs = (a @ b).dag().entries
        rhs = (b.dag() @ a.dag()).entries
        assert np.allclose(lhs, rhs, atol=1e-9 * (1 + spectral_norm(a) * spectral_norm(b)))

    def test_algebra_against_numpy(self, rng):
        a, b = _op(rng, 4), _op(rng, 4)
        assert np.allclose((a + b).entries, a.entries + b.entries)
        assert np.allclose((a - b).entries, a.entries - b.entries)
        assert np.allclose((a @ b).entries, a.entries @ b.entries)
        assert np.allclose((2.5j * a).entries, 2.5j * a.entries)
        assert np.allclose((-a).entries, -a.entries)


class TestSpectralNorm:
    def test_matches_largest_singular_value_oracle(self, rng):
        # Oracle: sqrt of the top eigenvalue of X^dag X via eigvalsh.
        for _ in range(10):
            x = _op(rng, 6)
            gram = x.entries.conj().T @ x.entries
            oracle = float(np.sqrt(np.linalg.eigvalsh(gram).max()))
            assert spectral_norm(x) == pytest.approx(oracle, rel=1e-12)

    def test_scales_homogeneously(self, rng):
        x = _op(rng, 5)
        assert spectral_norm(3.0 * x) == pytest.approx(3.0 * spectral_norm(x))


class TestTensorEmbed:
    def test_matches_explicit_kron(self, rng):
        target = HilbertSpace((2, 3, 2))
        x = _op(rng, 3)
        embedded = tensor_embed(x, 1, target)
        oracle = np.kron(np.kron(np.eye(2), x.entries), np.eye(2))
        assert np.array_equal(embedded.entries, oracle)

    def test_preserves_spectral_norm(self, rng):
        target = HilbertSpace((3, 4))
        x = _op(rng, 4)
        assert spectral_norm(tensor_embed(x, 1, target)) == pytest.approx(
            spectral_norm(x), rel=1e-12
        )

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            tensor_embed(_op(rng, 3), 0, HilbertSpace((2, 3)))

    def test_embeddings_of_different_factors_commute(self, rng):
        target = HilbertSpace((2, 3))
        x, y = _op(rng, 2), _op(rng, 3)
        xe, ye = tensor_embed(x, 0, target), tensor_embed(y, 1, target)
        assert np.allclose((xe @ ye).entries, (ye @ xe).entries)


class TestMatrixExponential:
    def test_against_ode_integration_oracle(self, rng):
        from scipy.integrate import solve_ivp

        for _ in range(5):
            g = _op(rng, 5, 0.8)
            t = 1.3
            expm_col = matrix_exponential(g, t).entries

            def rhs(_, v):
                w = g.entries @ (v[:5] + 1j * v[5:])
                return np.concatenate([w.real, w.imag])

            for col in range(5):
                v0 = np.zeros(10)
                v0[col] = 1.0
                sol = solve_ivp(rhs, (0.0, t), v0, rtol=1e-11, atol=1e-12)
                final = sol.y[:5, -1] + 1j * sol.y[5:, -1]
                assert np.allclose(expm_col[:, col], final, atol=1e-8)

    def test_zero_time_gives_identity_exactly(self, rng):
        g = _op(rng, 4)
        assert np.array_equal(
            matrix_exponential(g, 0.0).entries, np.eye(4, dtype=complex)
        )

    def test_semigroup_law(self, rng):
        g = _op(rng, 4, 0.5)
        one = matrix_exponential(g, 0.7).entries @ matrix_exponential(g, 0.9).entries
        two = matrix_exponential(g, 1.6).entries
        assert np.allclose(one, two, atol=1e-11)

    def test_negative_time_rejected(self, rng):
        with pytest.raises(ValueError):
            matrix_exponential(_op(rng, 3), -1.0)


class TestSubspaceBasis:
    def test_columns_orthonormal_and_span_projection(self, rng):
        d = 8
        q, _ = np.linalg.qr(_random_matrix(rng, d))
        p = Operator(HilbertSpace((d,)), q[:, :3] @ q[:, :3].conj().T)
        v = subspace_basis(p)
        assert v.shape == (d, 3)
        assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-12)
        assert np.allclose(v @ v.conj().T, p.entries, atol=1e-10)

    def test_coordinate_projection_gives_unit_vectors(self):
        d = 5
        p = np.zeros((d, d))
        for i in (1, 3):
            p[i, i] = 1.0
        v = subspace_basis(Operator(HilbertSpace((d,)), p))
        expected = np.zeros((d, 2), dtype=complex)
        expected[1, 0] = 1.0
        expected[3, 1] = 1.0
        assert np.allclose(v, expected, atol=1e-14)

    def test_deterministic(self, rng):
        d = 6
        q, _ = np.linalg.qr(_random_matrix(rng, d))
        p = Operator(HilbertSpace((d,)), q[:, :2] @ q[:, :2].conj().T)
        assert np.array_equal(subspace_basis(p), subspace_basis(p))


class TestSubspacePair:
    def test_from_basis_indices(self):
        sub = SubspacePair.from_basis_indices(HilbertSpace((4,)), (1, 3))
        assert sub.rank == 2
        assert np.allclose(sub.p0.entries, np.diag([0.0, 1.0, 0.0, 1.0]))
        assert np.allclose(sub.p0.entries + sub.p1.entries, np.eye(4))

    def test_rejects_non_projection(self, rng):
        with pytest.raises(ValueError):
            SubspacePair(_op(rng, 3))

    def test_rejects_zero_rank(self):
        space = HilbertSpace((3,))
        with pytest.raises(ValueError):
            SubspacePair(Operator.zero(space))


class TestRestrictedInverse:
    def test_against_direct_solve_oracle(self, rng):
        # Fast generator supported on the complement of a coordinate subspace.
        d = 6
        space = HilbertSpace((d,))
        sub = SubspacePair.from_basis_indices(space, (0, 1))
        block = _random_matrix(rng, 4) - 3.0 * np.eye(4)
        y = np.zeros((d, d), dtype=complex)
        y[2:, 2:] = block
        yt = restricted_inverse(Operator(space, y), sub)
        oracle = np.zeros((d, d), dtype=complex)
        oracle[2:, 2:] = np.linalg.inv(block)
        assert np.allclose(yt.entries, oracle, atol=1e-10)

    def test_two_sided_inverse_property(self, rng):
        d = 6
        space = HilbertSpace((d,))
        sub = SubspacePair.from_basis_indices(space, (5,))
        y = np.zeros((d, d), dtype=complex)
        y[:5, :5] = _random_matrix(rng, 5) - 4.0 * np.eye(5)
        yo = Operator(space, y)
        yt = restricted_inverse(yo, sub)
        p1 = sub.p1.entries
        assert np.allclose((yt @ yo).entries, p1, atol=1e-10)
        assert np.allclose((yo @ yt).entries, p1, atol=1e-10)

    def test_rejects_y_not_vanishing_on_slow_subspace(self, rng):
        space = HilbertSpace((4,))
        sub = SubspacePair.from_basis_indices(space, (0,))
        with pytest.raises(StructuralViolation):
            restricted_inverse(_op(rng, 4), sub)

    def test_rejects_singular_fast_block(self):
        space = HilbertSpace((4,))
        sub = SubspacePair.from_basis_indices(space, (0,))
        y = np.zeros((4, 4), dtype=complex)
        y[1, 1] = 1.0  # rank-deficient on the fast side
        with pytest.raises(SingularFastDynamics):
            restricted_inverse(Operator(space, y), sub)
