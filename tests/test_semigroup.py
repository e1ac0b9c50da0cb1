"""Dressed generators, contraction property, and matrix elements.

Oracles: a sum-of-squares closed form for the Hermitian part of the
dressed generator, the ODE characterization of the semigroup, and the
reduction of exponential-vector matrix elements at vacuum amplitudes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdelim import (
    FieldAmplitudes,
    SimpleFunction,
    dissipativity_check,
    evolve,
    generator,
    matrix_element_U,
    spectral_norm,
)

from model_helpers import random_hp_coefficients

amps = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=4.0, allow_nan=False, allow_infinity=False
)


def _sos_hermitian_part(c, amp):
    """Independent closed form: the Hermitian part of the dressed generator
    equals minus a sum of squares of (L_i^dag - beta_i + sum_j N_ji^dag alpha_j)."""
    d = c.space.total_dim
    acc = np.zeros((d, d), dtype=complex)
    for i in range(c.n):
        term = c.l_ops[i].entries.conj().T - amp.beta[i] * np.eye(d)
        for j in range(c.n):
            term += amp.alpha[j] * c.n_ops[j][i].entries.conj().T
        acc += term.conj().T @ term
    return -acc


class TestFieldAmplitudes:
    def test_vacuum(self):
        amp = FieldAmplitudes.vacuum(3)
        assert amp.n == 3
        assert all(z == 0 for z in amp.alpha + amp.beta)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FieldAmplitudes((1.0,), (1.0, 2.0))

    @pytest.mark.parametrize("alpha", [math.nan, 1e155], ids=str)
    def test_non_finite_amplitudes_rejected(self, alpha):
        # 1e155 is finite, but its squared modulus, and so the shift, is not.
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            FieldAmplitudes((alpha,), (0,))


class TestSimpleFunction:
    def test_norm_squared_closed_form(self):
        f = SimpleFunction((0.0, 1.0, 3.0), ((2.0,), (1.0 + 1.0j,)))
        assert f.norm_squared() == pytest.approx(1.0 * 4.0 + 2.0 * 2.0)

    def test_value_lookup(self):
        f = SimpleFunction((0.0, 1.0, 2.0), ((1.0,), (2.0,)))
        assert f.value_at(0.5) == (1.0,)
        assert f.value_at(1.5) == (2.0,)
        assert f.value_at(0.0) == (1.0,)

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(ValueError):
            SimpleFunction((0.5, 1.0), ((1.0,),))
        with pytest.raises(ValueError):
            SimpleFunction((0.0, 1.0, 1.0), ((1.0,), (2.0,)))

    @pytest.mark.parametrize("values, match", [
        (((1.0,),), "one value per interval"),
        (((1.0,), (1.0, 2.0)), "one channel count"),
    ])
    def test_rejects_bad_values(self, values, match):
        with pytest.raises(ValueError, match=match):
            SimpleFunction((0.0, 1.0, 2.0), values)


class TestGeneratorAndDissipativity:
    def test_generator_formula_directly(self, rng):
        # duplicate-formula oracle with explicit loops over entries
        c = random_hp_coefficients(rng, 4, n=2)
        amp = FieldAmplitudes((0.3 + 0.1j, -0.2), (0.5j, 1.0 - 0.4j))
        d = 4
        expect = c.k_op.entries.copy()
        for i in range(2):
            expect += np.conj(amp.alpha[i]) * c.m_ops[i].entries
            expect += amp.beta[i] * c.l_ops[i].entries
            for j in range(2):
                expect += np.conj(amp.alpha[i]) * amp.beta[j] * c.n_ops[i][j].entries
        shift = 0.5 * sum(abs(z) ** 2 for z in amp.alpha + amp.beta)
        expect -= shift * np.eye(d)
        got = generator(c, amp).entries
        assert np.allclose(got, expect, atol=1e-13)

    def test_channel_mismatch_rejected(self, rng):
        c = random_hp_coefficients(rng, 3, n=1)
        with pytest.raises(ValueError):
            generator(c, FieldAmplitudes.vacuum(2))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        a1=amps, b1=amps,
    )
    def test_hermitian_part_matches_sum_of_squares(self, seed, a1, b1):
        rng = np.random.default_rng(seed)
        c = random_hp_coefficients(rng, 4)
        amp = FieldAmplitudes((a1,), (b1,))
        g = generator(c, amp).entries
        herm = g + g.conj().T
        oracle = _sos_hermitian_part(c, amp)
        scale = max(1.0, np.linalg.norm(oracle, 2))
        assert np.linalg.norm(herm - oracle, 2) <= 1e-10 * scale

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        a1=amps, b1=amps,
        t=st.floats(min_value=0.0, max_value=4.0),
    )
    def test_contraction_property(self, seed, a1, b1, t):
        rng = np.random.default_rng(seed)
        c = random_hp_coefficients(rng, 4)
        amp = FieldAmplitudes((a1,), (b1,))
        assert spectral_norm(evolve(c, amp, t)) <= 1.0 + 1e-9
        assert dissipativity_check(c, amp) <= 1e-10

    def test_dissipativity_defect_injection(self, rng):
        # adding eps*I to K moves the top eigenvalue of the Hermitian part
        # by exactly 2*eps
        from qsdelim import Operator, QsdeCoefficients

        c = random_hp_coefficients(rng, 4)
        amp = FieldAmplitudes((0.5,), (0.2j,))
        base = dissipativity_check(c, amp)
        eps = 0.1
        shifted = QsdeCoefficients(
            c.k_op + eps * Operator.identity(c.space),
            c.l_ops, c.m_ops, c.n_ops,
        )
        assert dissipativity_check(shifted, amp) == pytest.approx(
            base + 2 * eps, abs=1e-12
        )


class TestEvolve:
    def test_semigroup_law(self, rng):
        c = random_hp_coefficients(rng, 4)
        amp = FieldAmplitudes((0.3,), (0.1 - 0.2j,))
        lhs = evolve(c, amp, 0.6).entries @ evolve(c, amp, 0.9).entries
        rhs = evolve(c, amp, 1.5).entries
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_matches_ode_oracle(self, rng):
        from scipy.integrate import solve_ivp

        c = random_hp_coefficients(rng, 4)
        amp = FieldAmplitudes((0.4j,), (0.7,))
        g = generator(c, amp).entries
        t = 1.1
        got = evolve(c, amp, t).entries

        def rhs(_, v):
            w = g @ (v[:4] + 1j * v[4:])
            return np.concatenate([w.real, w.imag])

        for col in range(4):
            v0 = np.zeros(8)
            v0[col] = 1.0
            sol = solve_ivp(rhs, (0.0, t), v0, rtol=1e-11, atol=1e-13)
            final = sol.y[:4, -1] + 1j * sol.y[4:, -1]
            assert np.allclose(got[:, col], final, atol=1e-8)


class TestMatrixElements:
    def test_vacuum_reduces_to_plain_semigroup(self, rng):
        c = random_hp_coefficients(rng, 4)
        t = 1.3
        f0 = SimpleFunction.constant((0.0,), t)
        u1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        me = matrix_element_U(c, u1, u2, f0, f0, t)
        oracle = complex(
            u1.conj() @ evolve(c, FieldAmplitudes.vacuum(1), t).entries @ u2
        )
        assert abs(me - oracle) < 1e-12

    def test_refinement_invariance(self, rng):
        c = random_hp_coefficients(rng, 3)
        t = 2.0
        u1 = np.eye(3)[0]
        u2 = np.eye(3)[2]
        f1 = SimpleFunction((0.0, 0.8, 2.0), ((0.2 + 0.1j,), (-0.5,)))
        f2 = SimpleFunction((0.0, 1.3, 2.0), ((0.3,), (0.1j,)))
        base = matrix_element_U(c, u1, u2, f1, f2, t)
        # refine f1 with redundant breakpoints; values unchanged
        f1r = SimpleFunction(
            (0.0, 0.3, 0.8, 1.1, 1.7, 2.0),
            ((0.2 + 0.1j,), (0.2 + 0.1j,), (-0.5,), (-0.5,), (-0.5,)),
        )
        f2r = SimpleFunction(
            (0.0, 0.65, 1.3, 1.9, 2.0),
            ((0.3,), (0.3,), (0.1j,), (0.1j,)),
        )
        refined = matrix_element_U(c, u1, u2, f1r, f2r, t)
        assert abs(base - refined) < 1e-10 * max(1.0, abs(base))

    def test_exponential_vector_normalization(self, rng):
        # For the trivial evolution (K = L = M = 0, N = I) at equal real
        # amplitudes the dressed generator vanishes, so the matrix element
        # reduces to the exponential-vector normalization alone.
        from qsdelim import HilbertSpace, Operator, QsdeCoefficients

        space = HilbertSpace((2,))
        c = QsdeCoefficients(
            Operator.zero(space), (Operator.zero(space),),
            (Operator.zero(space),), ((Operator.identity(space),),),
        )
        t = 1.0
        f = SimpleFunction.constant((0.6,), t)
        u = np.array([1.0, 0.0])
        me = matrix_element_U(c, u, u, f, f, t)
        # generator reduces to (|a|^2... ) with alpha=beta=f: a*b - |a|^2/2
        # - |b|^2/2 = 0, so the ordered product is the identity
        assert me == pytest.approx(math.exp(0.36), abs=1e-12)

    def test_domain_mismatch_rejected(self, rng):
        c = random_hp_coefficients(rng, 3)
        f = SimpleFunction.constant((0.1,), 1.0)
        with pytest.raises(ValueError):
            matrix_element_U(c, np.eye(3)[0], np.eye(3)[1], f, f, 2.0)
