"""Bundled fixtures and the oscillator toolbox."""

import math

import numpy as np
import pytest

from qsdelim import (
    FieldAmplitudes,
    builtin_fixture,
    dissipativity_check,
    duan_kimble_fixture,
    eliminate,
    evolve,
    fock_toolbox,
    hp_validate,
    mirror_fixture,
    scaled_hp_validate,
    spectral_norm,
    structural_validate,
    trivial_family_from_limit,
    windowed_oscillator_limit,
)
from qsdelim.modelfile import eval_expression, matrix_to_json


class TestFockToolbox:
    def test_ladder_matrix_elements(self):
        fock = fock_toolbox(3)
        b = fock.b.entries
        # b |j> = sqrt(j) |j-1>
        for j in range(1, 4):
            col = np.zeros(4)
            col[j] = 1.0
            assert np.allclose(b @ col, math.sqrt(j) * np.eye(4)[j - 1])

    def test_number_operator_consistency(self):
        fock = fock_toolbox(5)
        assert np.allclose(
            (fock.b_dag @ fock.b).entries, fock.number.entries, atol=1e-14
        )

    def test_adjoint_pairing(self):
        fock = fock_toolbox(4)
        assert np.array_equal(fock.b_dag.entries, fock.b.entries.conj().T)

    def test_commutator_truncation_defect_localized(self):
        fock = fock_toolbox(3)
        comm = (fock.b @ fock.b_dag - fock.b_dag @ fock.b).entries
        expected = np.eye(4)
        expected[3, 3] = -3.0  # boundary defect of the truncation
        assert np.allclose(comm, expected, atol=1e-14)

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            fock_toolbox(0)


class TestBuiltinFixtures:
    @pytest.mark.parametrize("name", ["duan-kimble", "cavity", "mirror"])
    def test_fixture_passes_all_preconditions(self, name):
        fix = builtin_fixture(name)
        assert scaled_hp_validate(fix.family).overall
        assert structural_validate(fix.family, fix.sub).overall

    @pytest.mark.parametrize("name", ["duan-kimble", "cavity", "mirror"])
    def test_expected_limit_is_unitary_and_reached(self, name):
        fix = builtin_fixture(name)
        assert hp_validate(fix.expected_limit, tol=1e-9).overall
        got = eliminate(fix.family, fix.sub).limit
        exp = fix.expected_limit
        assert spectral_norm(got.k_op - exp.k_op) < 1e-10
        assert spectral_norm(got.n_ops[0][0] - exp.n_ops[0][0]) < 1e-10

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            builtin_fixture("no-such-fixture")

    def test_fixtures_are_deterministic(self):
        a = builtin_fixture("duan-kimble")
        b = builtin_fixture("duan-kimble")
        assert np.array_equal(a.family.y.entries, b.family.y.entries)


@pytest.mark.parametrize("build, match", [
    (lambda: windowed_oscillator_limit(10, window=0), "window must fit"),
    (lambda: mirror_fixture(gamma=0.0, theta=1.0, omega=1.0, mirror_cutoff=4,
                            cavity_cutoff=4), "must be positive"),
    (lambda: mirror_fixture(gamma=1.0, theta=1.0, omega=1.0, mirror_cutoff=1,
                            cavity_cutoff=4), "cutoffs must be >= 2"),
], ids=["window-0", "mirror-gamma-0", "mirror-cutoff-1"])
def test_fixture_parameters_rejected(build, match):
    with pytest.raises(ValueError, match=match):
        build()


class TestLambdaAtomDetails:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            duan_kimble_fixture(gamma=-1.0, g=2.0, drive_alpha=0.1, cutoff=4)
        with pytest.raises(ValueError):
            duan_kimble_fixture(gamma=1.0, g=2.0, drive_alpha=0.1, cutoff=1)

    def test_limit_scattering_is_a_reflection(self):
        fix = duan_kimble_fixture(gamma=1.0, g=2.0, drive_alpha=0.3 + 0.4j,
                                  cutoff=4)
        n = fix.expected_limit.n_ops[0][0].entries
        assert np.allclose(n @ n, np.eye(2), atol=1e-14)
        assert np.allclose(n, np.diag([1.0, -1.0]), atol=1e-14)

    def test_limit_decay_rate_scaling(self):
        # |K| entries scale like |alpha|^2 gamma / (2 g^2)
        fix = duan_kimble_fixture(gamma=2.0, g=4.0, drive_alpha=0.5, cutoff=3)
        k = fix.expected_limit.k_op.entries
        assert k[1, 1] == pytest.approx(-0.25 * 2.0 / (2 * 16.0))
        assert k[0, 0] == 0.0


class TestMirrorDetails:
    def test_limit_scattering_exactly_unitary(self):
        fix = mirror_fixture(gamma=1.0, theta=0.5, omega=1.0,
                             mirror_cutoff=8, cavity_cutoff=3)
        n = fix.expected_limit.n_ops[0][0].entries
        assert np.allclose(n.conj().T @ n, np.eye(9), atol=1e-12)

    def test_limit_scattering_is_the_damped_cayley_transform(self):
        """The expected N has the bits of the fixture's former inline
        spectral calculus, and a model file's `damped_cayley` node gives
        the same bits."""
        fix = mirror_fixture(gamma=1.0, theta=0.5, omega=1.0,
                             mirror_cutoff=8, cavity_cutoff=3)
        fock = fock_toolbox(8)
        x = fock.b.entries + fock.b_dag.entries
        evals, q = np.linalg.eigh(x)
        want = q @ np.diag(
            (1j * 0.5 * evals + 1.0 / 2) / (1j * 0.5 * evals - 1.0 / 2)
        ) @ q.conj().T
        assert np.array_equal(fix.expected_limit.n_ops[0][0].entries, want)
        node = {"op": "funcalc", "name": "damped_cayley",
                "params": {"theta": 0.5, "gamma": 1.0}, "arg": matrix_to_json(x)}
        assert np.array_equal(eval_expression(node, 9), want)

    def test_elimination_exact_at_small_cavity_cutoff(self):
        for cavity_cutoff in (2, 4):
            fix = mirror_fixture(gamma=1.0, theta=0.5, omega=1.0,
                                 mirror_cutoff=5, cavity_cutoff=cavity_cutoff)
            got = eliminate(fix.family, fix.sub).limit
            assert spectral_norm(
                got.n_ops[0][0] - fix.expected_limit.n_ops[0][0]
            ) < 1e-11


class TestTrivialWrapping:
    def test_trivial_family_assembles_to_its_limit(self):
        limit = windowed_oscillator_limit(10, window=4)
        fam, sub = trivial_family_from_limit(limit)
        assert scaled_hp_validate(fam).overall
        from qsdelim import assemble

        for k in (1.0, 5.0):
            c = assemble(fam, k)
            assert spectral_norm(c.k_op - limit.k_op) < 1e-14
            assert spectral_norm(c.l_ops[0] - limit.l_ops[0]) < 1e-14

    def test_truncation_demo_fixture_contracts(self):
        fix = builtin_fixture("truncation-demo")
        amp = FieldAmplitudes.vacuum(1)
        assert dissipativity_check(fix.expected_limit, amp) <= 1e-10
        assert spectral_norm(evolve(fix.expected_limit, amp, 2.0)) <= 1.0 + 1e-9
