"""Acceptance gate: thirteen standalone criteria, one reported line each.

Each test prints a single CRITERION line (visible with `pytest -s` and in the
failure report) and then asserts.  One criterion is known to fail honestly:

* criterion 9: the drift term S/2 in the local second-derivative identity is
  refuted numerically; the drift-free identity d2 = -I(S)/T holds to ~1e-7.
  The reported residual equals S/2 almost exactly.

Criterion 7 holds (~4e-10) because the finite-temperature Nystrom map has a
logarithmic end matched to the kernel's e^{-T^{1/3} x} decay; the rational
map x = -s + L u/(1-u) converges only root-exponentially at T = 1/8 and
leaves ~1e-6 at m = 40.
"""

import numpy as np
import pytest

from airylab.ensemble import (DeformationQ, build_tables, kernel_trace,
                              log_lstat_det, log_lstat_gamma, norming_ratio,
                              rescaled_edge_kernel)
from airylab.equilibrium import (Potential, build_equilibrium, q0_limit, solve_support,
                                 szego_q0)
from airylab.fredholm import fredholm_det_airy, fredholm_det_ft
from airylab.idpii import interp_I, k_infinity, solve_idpii, tw_local_check
from airylab.special import airy_ai, airy_ai_prime, f_beta_quad

from oracles import el_residual, f_k_closed


def _trapezoid(y, x):
    """Composite trapezoid rule (np.trapz is gone in numpy 2; np.trapezoid is not in 1.24)."""
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    return float((np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum())


def report(num, ok, detail):
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def eq_sgue():
    return build_equilibrium(Potential([2.0, 4.0, 2.0]))


@pytest.fixture(scope="module")
def eq_quartic():
    return build_equilibrium(Potential([0.0, 0.0, 0.5, 0.0, 0.05]))


@pytest.fixture(scope="module")
def q1():
    return DeformationQ([0.0, -1.0])


@pytest.fixture(scope="module")
def q2():
    return DeformationQ([0.0, -1.0, 0.0, -0.1])


@pytest.fixture(scope="module")
def sol_t1():
    return solve_idpii(1.0)


def test_criterion_01_trace_identity(eq_sgue, q1):
    worst = 0.0
    for n in (5, 10, 20):
        for s in (0.0, 2.0):
            grid, t_und, t_def, lsig = build_tables(eq_sgue, q1, n, s)
            tr = kernel_trace(grid, t_def, n, grid.log_w_und + lsig)
            worst = max(worst, abs(tr - n) / n)
    ok = worst <= 1e-8
    report(1, ok, f"trace identity, worst relative error {worst:.2e} (tol 1e-8)")
    assert ok


def test_criterion_02_route_agreement(eq_sgue, eq_quartic, q1):
    worst = 0.0
    for eq in (eq_sgue, eq_quartic):
        for n in (6, 12, 24):
            for s in (0.0, 1.0, 2.0):
                grid, t_und, t_def, lsig = build_tables(eq, q1, n, s)
                lg = log_lstat_gamma(t_def, t_und, n)
                ld = log_lstat_det(grid, t_und, n, lsig)
                worst = max(worst, abs(lg - ld) / (1.0 + abs(lg)))
    ok = worst <= 1e-6
    report(2, ok, f"two-route agreement, worst scaled error {worst:.2e} (tol 1e-6)")
    assert ok


def test_criterion_03_n1_oracle(eq_sgue, q1):
    grid, t_und, t_def, lsig = build_tables(eq_sgue, q1, 1, 0.0)
    num = float(np.sum(grid.weights * np.exp(grid.log_w_und + lsig)))
    den = float(np.sum(grid.weights * np.exp(grid.log_w_und)))
    direct = np.log(num / den)
    e1 = abs(log_lstat_gamma(t_def, t_und, 1) - direct)
    e2 = abs(log_lstat_det(grid, t_und, 1, lsig) - direct)
    ok = max(e1, e2) <= 1e-8
    report(3, ok, f"n=1 quadrature oracle, errors {e1:.2e} / {e2:.2e} (tol 1e-8)")
    assert ok


def test_criterion_04_statistic_limit(eq_sgue, q1):
    ok = True
    details = []
    for s in (0.0, 1.0):
        target = float(np.log(fredholm_det_ft(-2.0 * s, 0.125, 80)))
        errs = []
        ns = (16, 32, 64)
        for n in ns:
            grid, t_und, t_def, lsig = build_tables(eq_sgue, q1, n, s)
            errs.append(abs(log_lstat_gamma(t_def, t_und, n) - target))
        slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
        dec = all(a > b for a, b in zip(errs, errs[1:]))
        ok = ok and dec and slope <= -0.3
        details.append(f"s={s:g}: errors {errs[0]:.3e}>{errs[1]:.3e}>{errs[2]:.3e}, "
                       f"slope {slope:.2f}")
    report(4, ok, "statistic converges to the limiting determinant; " + "; ".join(details))
    assert ok


def test_criterion_05_kernel_limit(eq_sgue, q1):
    sol = solve_idpii((q1.t / eq_sgue.c_v) ** -1.5)
    s = 1.0
    us = np.linspace(-2.0, 2.0, 5)
    errs = []
    ns = (16, 32, 64)
    for n in ns:
        grid, t_und, t_def, lsig = build_tables(eq_sgue, q1, n, s)
        errs.append(max(abs(rescaled_edge_kernel(eq_sgue, t_def, n, u, v)
                            - k_infinity(sol, u, v, s, q1.t / eq_sgue.c_v))
                        for u in us for v in us))
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    ok = all(a > b for a, b in zip(errs, errs[1:])) and slope <= -0.2
    report(5, ok, f"edge kernel sup errors {errs[0]:.3e}>{errs[1]:.3e}>{errs[2]:.3e}, "
                  f"slope {slope:.2f} (need <= -0.2)")
    assert ok


def test_criterion_06_norming_constant(eq_sgue, q1, q2):
    grid, t_und, t_def, lsig = build_tables(eq_sgue, q1, 64, 1.0)
    rho64 = norming_ratio(eq_sgue, t_def, 64)
    diffs = []
    for n in (16, 32, 64):
        cs = []
        for q in (q1, q2):
            grid, t_und, t_def, lsig = build_tables(eq_sgue, q, n, 0.0)
            rho = norming_ratio(eq_sgue, t_def, n)
            cs.append(n ** (1.0 / 3.0) * (0.5 - rho))
        diffs.append(abs(cs[0] - cs[1]))
    ok = abs(rho64 - 0.5) <= 0.1 and all(a > b for a, b in zip(diffs, diffs[1:]))
    report(6, ok, f"rho_64 = {rho64:.4f} (within 0.1 of 1/2); deformation-universality "
                  f"gaps {diffs[0]:.2e}>{diffs[1]:.2e}>{diffs[2]:.2e}")
    assert ok


def test_criterion_07_fredholm_self_convergence():
    worst = (0.0, None)
    monotone_ok = True
    bounds_ok = True
    for T in (0.125, 1.0, 8.0):
        prev = None
        for s in (-1.0, 0.0, 1.0):
            d40 = fredholm_det_ft(s, T, 40)
            d80 = fredholm_det_ft(s, T, 80)
            diff = abs(d40 - d80)
            if diff > worst[0]:
                worst = (diff, (s, T))
            bounds_ok = bounds_ok and 0.0 < d80 <= 1.0
            if prev is not None and d80 >= prev:
                monotone_ok = False
            prev = d80
    ok = worst[0] < 1e-8 and monotone_ok and bounds_ok
    report(7, ok, f"m=40 vs m=80 worst |diff| {worst[0]:.2e} at (s,T)={worst[1]} "
                  f"(tol 1e-8); s-monotone: {monotone_ok}; values in (0, 1]: {bounds_ok}")
    assert ok, (
        f"Nystrom self-convergence: m=40 vs m=80 worst |diff| {worst[0]:.2e} at "
        f"(s,T)={worst[1]} (tol 1e-8), s-monotone {monotone_ok}, values in (0, 1] "
        f"{bounds_ok}; the half-line map no longer matches the kernel's decay")


def test_criterion_08_interpolation_to_classical():
    gap = abs(fredholm_det_ft(0.0, 4000.0, 80) - fredholm_det_airy(0.0, 80))
    stab = abs(fredholm_det_airy(0.0, 40) - fredholm_det_airy(0.0, 80))
    val = fredholm_det_airy(0.0, 80)
    ok = gap <= 5e-3 and stab < 1e-8 and abs(val - 0.96937) < 5e-5
    report(8, ok, f"finite-T vs classical gap {gap:.2e} (tol 5e-3); value {val:.5f} "
                  f"stable to {stab:.1e} under m-doubling")
    assert ok


def test_criterion_09_local_tracy_widom(sol_t1):
    spacing = 0.05
    residuals = {}
    drift_free = {}
    for S in (0.0, 1.0, 2.0, 3.0):
        f = [float(np.log(fredholm_det_ft(-(S + j * spacing), 1.0, 100)))
             for j in (-2, -1, 0, 1, 2)]
        residuals[S] = tw_local_check(sol_t1, S, f, spacing)
        d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * spacing ** 2)
        drift_free[S] = abs(d2 + interp_I(sol_t1, S))
    ok = all(r <= 2e-3 for r in residuals.values())
    res_str = ", ".join(f"S={S:g}: {r:.3e}" for S, r in residuals.items())
    free_str = ", ".join(f"{r:.1e}" for r in drift_free.values())
    report(9, ok, f"local identity residuals [{res_str}] (tol 2e-3); "
                  f"drift-free residuals [{free_str}]")
    assert ok, (
        "the second-derivative identity with the drift term -(I(S)-S/2)/T fails "
        f"for S > 0: residuals {res_str} equal S/2 almost exactly, while the "
        f"drift-free form d2 = -I(S)/T matches to [{free_str}] -- the stated "
        "drift is inconsistent with the Airy-data solution; see the FOUND entry "
        "on criterion 9 in CHANGES.md")


def test_criterion_10_polylog_identity():
    worst = max(abs(f_beta_quad(float(k), y) - f_k_closed(k, y))
                for k in (1, 2, 3) for y in (0.0, 0.5, 2.0, 5.0))
    f0_err = abs(f_beta_quad(0.0, 0.0) - np.pi ** 2 / 12.0)
    ok = worst <= 1e-10 and f0_err <= 1e-12
    report(10, ok, f"two-route worst |diff| {worst:.2e} (tol 1e-10); "
                   f"F_0(0) vs pi^2/12 error {f0_err:.2e} (tol 1e-12)")
    assert ok


def test_criterion_11_szego_constant(eq_sgue, q1):
    lim = q0_limit(0.0, q1.t, eq_sgue.a)
    r64 = 64 ** (1.0 / 3.0) * szego_q0(eq_sgue, q1.poly, 64, 0.0) / lim
    r256 = 256 ** (1.0 / 3.0) * szego_q0(eq_sgue, q1.poly, 256, 0.0) / lim
    ok = 0.85 <= r64 <= 1.15 and 0.93 <= r256 <= 1.07
    report(11, ok, f"n^(1/3) q0 / limit = {r64:.4f} at n=64 (in [0.85,1.15]), "
                   f"{r256:.4f} at n=256 (in [0.93,1.07])")
    assert ok


def test_criterion_12_equilibrium_closed_forms(eq_sgue):
    bm, bp = solve_support(Potential([0.0, 0.0, 2.0]))
    end_err = max(abs(bm + 1.0), abs(bp - 1.0))
    cv_err = abs(eq_sgue.c_v - 2.0)
    xs = np.linspace(-eq_sgue.a, 0.0, 200001)
    mass_err = abs(_trapezoid(eq_sgue.density(xs), xs) - 1.0)
    on = max(abs(el_residual(eq_sgue, x)) for x in (-1.5, -1.0, -0.5))
    off = max(el_residual(eq_sgue, 1.0), el_residual(eq_sgue, -3.0))
    ok = end_err <= 1e-10 and cv_err <= 1e-8 and mass_err <= 1e-6 \
        and on < 1e-8 and off < 0.0
    report(12, ok, f"endpoint error {end_err:.1e} (tol 1e-10); c_V error {cv_err:.1e} "
                   f"(tol 1e-8); mass error {mass_err:.1e}; variational residual "
                   f"{on:.1e} on support, {off:.2e} outside (must be negative)")
    assert ok


def test_criterion_13_idpii_internal(sol_t1):
    # exact Airy initial data
    xi = sol_t1.xi_grid
    arg = xi + 12.0
    keep = arg <= 150.0
    init_err = max(float(np.max(np.abs(sol_t1.Phi[0][keep] - airy_ai(arg[keep])))),
                   float(np.max(np.abs(sol_t1.dPhi[0][keep] - airy_ai_prime(arg[keep])))))
    # ODE self-residual (5-point stencil in S) on the layers of a solve that
    # stores them 0.02 apart: 11,200 steps on [-2, 12]
    fine = solve_idpii(1.0, n_steps=11200)
    h = fine.S_grid[0] - fine.S_grid[1]
    resid = 0.0
    for j in range(50, fine.S_grid.size - 3, 50):
        d2 = (-fine.Phi[j - 2] + 16 * fine.Phi[j - 1] - 30 * fine.Phi[j]
              + 16 * fine.Phi[j + 1] - fine.Phi[j + 2]) / (12 * h * h)
        coef = fine.xi_grid + fine.S_grid[j] + 2.0 * fine.I_of_S[j]
        rhs = coef * fine.Phi[j]
        mask = np.abs(fine.Phi[j]) > 1e-6
        # floor the denominator at 1e-3 of the layer scale: at turning points
        # the right-hand side itself vanishes and a pointwise ratio is noise
        denom = np.maximum(np.abs(rhs[mask]), 1e-3 * float(np.max(np.abs(rhs))))
        resid = max(resid, float(np.max(np.abs(d2 - rhs)[mask] / denom)))
    # step-doubling stability at a probe point, on a stored layer of both
    coarse = solve_idpii(1.0, n_steps=1400)
    i0 = np.argmin(np.abs(sol_t1.xi_grid))
    j0 = np.argmin(np.abs(sol_t1.S_grid))
    jc = np.argmin(np.abs(coarse.S_grid - sol_t1.S_grid[j0]))
    stab = abs(sol_t1.Phi[j0, i0] - coarse.Phi[jc, i0])
    nonneg = bool(np.all(sol_t1.I_of_S >= 0.0))
    ok = init_err < 1e-13 and resid <= 5e-4 and stab < 1e-6 and nonneg
    report(13, ok, f"initial data error {init_err:.1e}; ODE self-residual {resid:.1e} "
                   f"(tol 5e-4); step-doubling change {stab:.1e} (tol 1e-6); "
                   f"I(S) >= 0: {nonneg}")
    assert ok
