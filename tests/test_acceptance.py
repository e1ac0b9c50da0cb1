"""Acceptance gate: end-to-end numerical claims at their stated tolerances.

Each test prints a single pass/fail line describing the claim it checks,
and also fails the test run if the claim does not hold.  Run with
`pytest -s tests/test_acceptance.py` to see the lines as they appear.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qsdelim import (
    FieldAmplitudes,
    HilbertSpace,
    Operator,
    SimpleFunction,
    builtin_fixture,
    cavity_closed_form,
    dissipativity_check,
    duan_kimble_block_indices,
    duan_kimble_fast_blocks,
    duan_kimble_fixture,
    eliminate,
    evolve,
    field_dressed_parts,
    generator,
    generator_study,
    hp_validate,
    kurtz_corrector,
    matrix_element_U,
    matrix_exponential,
    random_hp_coefficients,
    random_structured_fixture,
    restricted_inverse,
    semigroup_gap,
    spectral_norm,
    truncation_study,
    windowed_oscillator_limit,
    driven_oscillator_limit,
)


def _report(ok: bool, label: str, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


def _limit_defect(a, b):
    worst = spectral_norm(a.k_op - b.k_op)
    for x, y in zip(a.l_ops, b.l_ops):
        worst = max(worst, spectral_norm(x - y))
    for x, y in zip(a.m_ops, b.m_ops):
        worst = max(worst, spectral_norm(x - y))
    for i in range(a.n):
        for j in range(a.n):
            worst = max(worst, spectral_norm(a.n_ops[i][j] - b.n_ops[i][j]))
    return worst


def test_acceptance_1_lambda_atom_limit_regression():
    t0 = time.perf_counter()
    fix = duan_kimble_fixture(gamma=1.0, g=2.0, drive_alpha=0.3 + 0.4j, cutoff=4)
    got = eliminate(fix.family, fix.sub).limit
    defect = _limit_defect(got, fix.expected_limit)
    elapsed = time.perf_counter() - t0
    _report(
        defect < 1e-10 and elapsed < 1.0,
        "lambda-atom limit regression",
        f"max coefficient defect {defect:.2e} (tol 1e-10), {elapsed:.2f}s (< 1s)",
    )


def test_acceptance_2_partial_inverse_block_regression():
    fix = duan_kimble_fixture(gamma=1.0, g=2.0, drive_alpha=0.3 + 0.4j, cutoff=4)
    yt = restricted_inverse(fix.family.y, fix.sub)
    worst = 0.0
    for j, (yj, ytj) in enumerate(
        duan_kimble_fast_blocks(1.0, 2.0, 4), start=1
    ):
        idx = duan_kimble_block_indices(4, j)
        worst = max(
            worst,
            float(np.abs(fix.family.y.entries[np.ix_(idx, idx)] - yj).max()),
            float(np.abs(yt.entries[np.ix_(idx, idx)] - ytj).max()),
        )
    _report(
        worst < 1e-12,
        "fast-generator partial-inverse block regression",
        f"max blockwise deviation {worst:.2e} (tol 1e-12)",
    )


def test_acceptance_3_unitarity_preserved_by_elimination():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314159)
    worst = 0.0
    families = 0
    for trial in range(50):
        n = 1 + trial % 2
        fix = random_structured_fixture(rng, hprime_dim=3, n=n, cutoff=3)
        limit = eliminate(fix.family, fix.sub).limit
        report = hp_validate(limit, tol=1e-9)
        worst = max(worst, max(c.max_violation for c in report.checks))
        families += 1
        if not report.overall:
            break
    elapsed = time.perf_counter() - t0
    _report(
        families == 50 and report.overall and elapsed < 30.0,
        "unitarity relations preserved by elimination",
        f"{families}/50 randomized families, worst defect {worst:.2e} "
        f"(tol 1e-9), {elapsed:.1f}s (< 30s)",
    )


def test_acceptance_4_corrector_residual_first_order():
    t0 = time.perf_counter()
    fix = builtin_fixture("duan-kimble")
    result = eliminate(fix.family, fix.sub)
    amp = FieldAmplitudes((0.2 - 0.1j,), (0.3 + 0.2j,))
    ks = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    report = generator_study(result, amp, ks)
    v = fix.sub.slow_basis
    u = v @ (np.ones(v.shape[1]) / math.sqrt(v.shape[1]))
    cor = kurtz_corrector(result, amp, u)
    a_op, _ = field_dressed_parts(fix.family, amp)
    c2 = float(np.linalg.norm(fix.family.y.entries @ cor.u))
    c1 = float(np.linalg.norm(
        fix.family.y.entries @ cor.u1 + a_op.entries @ cor.u
    ))
    slope_ok = abs(report.fitted_rate - (-1.0)) <= 0.15
    cancel_ok = max(c1, c2) < 1e-10
    elapsed = time.perf_counter() - t0
    _report(
        slope_ok and cancel_ok and elapsed < 10.0,
        "corrector residual decays at first order",
        f"fitted slope {report.fitted_rate:.3f} (within -1 +/- 0.15), "
        f"cancellation defects {max(c1, c2):.2e} (tol 1e-10), "
        f"{elapsed:.1f}s (< 10s)",
    )


def test_acceptance_5_semigroup_gap_decay():
    t0 = time.perf_counter()
    fix = builtin_fixture("duan-kimble")
    result = eliminate(fix.family, fix.sub)
    vac = FieldAmplitudes.vacuum(1)
    gap2 = semigroup_gap(result, vac, 2.0, 64, 2.0)
    gap16 = semigroup_gap(result, vac, 2.0, 64, 16.0)
    decay_ok = gap16 <= gap2 / 5.0
    # robustness: doubling the grid changes nothing appreciably
    gap2_fine = semigroup_gap(result, vac, 2.0, 128, 2.0)
    gap16_fine = semigroup_gap(result, vac, 2.0, 128, 16.0)
    # robustness: doubling the oscillator cutoff changes gaps by <= 10%
    fix8 = duan_kimble_fixture(gamma=1.0, g=2.0, drive_alpha=0.3 + 0.4j,
                               cutoff=8)
    result8 = eliminate(fix8.family, fix8.sub)
    gap2_big = semigroup_gap(result8, vac, 2.0, 64, 2.0)
    gap16_big = semigroup_gap(result8, vac, 2.0, 64, 16.0)
    drift = max(
        abs(gap2_fine - gap2) / gap2,
        abs(gap16_fine - gap16) / gap16,
        abs(gap2_big - gap2) / gap2,
        abs(gap16_big - gap16) / gap16,
    )
    elapsed = time.perf_counter() - t0
    _report(
        decay_ok and drift <= 0.10 and elapsed < 120.0,
        "semigroup gap decays with the scaling parameter",
        f"gap(k=2)={gap2:.3e}, gap(k=16)={gap16:.3e} "
        f"(ratio {gap2 / gap16:.1f} >= 5), refinement drift {drift:.1%} "
        f"(<= 10%), {elapsed:.1f}s (< 120s)",
    )


def test_acceptance_6_contraction_and_dissipativity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(271828)
    worst_norm = 0.0
    worst_diss = -np.inf
    worst_sos = 0.0
    cases = []
    for name in ("duan-kimble", "cavity", "mirror"):
        fix = builtin_fixture(name)
        cases.append(eliminate(fix.family, fix.sub).limit)
    for _ in range(20):
        cases.append(random_hp_coefficients(rng, 5, n=1 + int(rng.integers(2))))
    for c in cases:
        amp = FieldAmplitudes(
            tuple(4 * (rng.random() * np.exp(2j * np.pi * rng.random()))
                  for _ in range(c.n)),
            tuple(4 * (rng.random() * np.exp(2j * np.pi * rng.random()))
                  for _ in range(c.n)),
        )
        for t in (0.0, 0.7, 2.3, 4.0):
            worst_norm = max(worst_norm, spectral_norm(evolve(c, amp, t)))
        worst_diss = max(worst_diss, dissipativity_check(c, amp))
        # independent sum-of-squares closed form for the Hermitian part
        d = c.space.total_dim
        sos = np.zeros((d, d), dtype=complex)
        for i in range(c.n):
            term = c.l_ops[i].entries.conj().T - amp.beta[i] * np.eye(d)
            for j in range(c.n):
                term += amp.alpha[j] * c.n_ops[j][i].entries.conj().T
            sos -= term.conj().T @ term
        g = generator(c, amp).entries
        worst_sos = max(
            worst_sos, float(np.linalg.norm(g + g.conj().T - sos, 2))
        )
    elapsed = time.perf_counter() - t0
    ok = (worst_norm <= 1.0 + 1e-9 and worst_diss <= 1e-10
          and worst_sos <= 1e-10 and elapsed < 60.0)
    _report(
        ok,
        "dressed semigroups contract",
        f"max norm {worst_norm:.12f} (<= 1+1e-9), max Hermitian-part "
        f"eigenvalue {worst_diss:.2e} (<= 1e-10), sum-of-squares defect "
        f"{worst_sos:.2e} (<= 1e-10), {elapsed:.1f}s (< 60s)",
    )


def test_acceptance_7_truncation_gaps():
    t0 = time.perf_counter()
    vac = FieldAmplitudes.vacuum(1)
    window = 5
    win = windowed_oscillator_limit(24, window=window)
    rep_win = truncation_study(win, (window - 1, window + 1, window + 3),
                               vac, 2.0, 32)
    window_ok = all(v == 0.0 for v in rep_win.values)
    gen = driven_oscillator_limit(24)
    rep_gen = truncation_study(gen, (4, 6, 8, 10, 12), vac, 2.0, 32)
    decreasing = all(
        a > b for a, b in zip(rep_gen.values, rep_gen.values[1:])
    )
    elapsed = time.perf_counter() - t0
    _report(
        window_ok and decreasing and rep_gen.verdict and elapsed < 60.0,
        "truncation gaps behave",
        f"window-supported model gaps {rep_win.values} (identically zero at "
        f"cutoffs >= support), generic gaps strictly decreasing "
        f"{tuple(f'{v:.1e}' for v in rep_gen.values)}, {elapsed:.1f}s (< 60s)",
    )


def test_acceptance_8_exponential_and_matrix_elements():
    t0 = time.perf_counter()
    rng = np.random.default_rng(161803)
    worst_expm = 0.0
    d = 20
    for _ in range(20):
        # random dissipative generator: anti-Hermitian part plus -X X^dag/2
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        gmat = 1j * (h + h.conj().T) / 2 - 0.5 * (x @ x.conj().T) / d
        t = 1.0
        got = matrix_exponential(Operator(HilbertSpace((d,)), gmat), t).entries

        def rhs(_, v):
            w = gmat @ (v[:d] + 1j * v[d:])
            return np.concatenate([w.real, w.imag])

        v0 = np.zeros(2 * d)
        col = int(rng.integers(d))
        v0[col] = 1.0
        sol = solve_ivp(rhs, (0.0, t), v0, rtol=3e-12, atol=1e-13)
        final = sol.y[:d, -1] + 1j * sol.y[d:, -1]
        worst_expm = max(
            worst_expm, float(np.abs(got[:, col] - final).max())
        )
    expm_ok = worst_expm < 1e-8

    c = random_hp_coefficients(rng, 4)
    u1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    t = 1.5
    f1 = SimpleFunction((0.0, 0.6, 1.5), ((0.2 + 0.1j,), (-0.4,)))
    f2 = SimpleFunction((0.0, 1.0, 1.5), ((0.3j,), (0.15,)))
    base = matrix_element_U(c, u1, u2, f1, f2, t)
    f1r = SimpleFunction(
        (0.0, 0.3, 0.6, 1.05, 1.5),
        ((0.2 + 0.1j,), (0.2 + 0.1j,), (-0.4,), (-0.4,)),
    )
    refined = matrix_element_U(c, u1, u2, f1r, f2, t)
    refine_defect = abs(base - refined)

    f0 = SimpleFunction.constant((0.0,), t)
    me_vac = matrix_element_U(c, u1, u2, f0, f0, t)
    oracle = complex(
        u1.conj() @ matrix_exponential(c.k_op, t).entries @ u2
    )
    vac_defect = abs(me_vac - oracle)
    elapsed = time.perf_counter() - t0
    ok = (expm_ok and refine_defect < 1e-10 and vac_defect < 1e-10
          and elapsed < 60.0)
    _report(
        ok,
        "matrix exponential and stochastic matrix elements",
        f"expm-vs-ODE defect {worst_expm:.2e} (tol 1e-8, 20 random 20x20), "
        f"refinement invariance {refine_defect:.2e} (tol 1e-10), vacuum "
        f"reduction {vac_defect:.2e} (tol 1e-10), {elapsed:.1f}s (< 60s)",
    )


def test_acceptance_9_cavity_cross_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(141421)
    worst = 0.0
    for trial in range(20):
        n = 1 + trial % 2
        fix = random_structured_fixture(rng, hprime_dim=3, n=n, cutoff=3)
        got = eliminate(fix.family, fix.sub).limit
        worst = max(worst, _limit_defect(got, fix.expected_limit))
    elapsed = time.perf_counter() - t0
    _report(
        worst < 1e-10 and elapsed < 30.0,
        "tensor-product elimination matches block closed form",
        f"max defect {worst:.2e} over 20 random draws (tol 1e-10), "
        f"{elapsed:.1f}s (< 30s)",
    )
