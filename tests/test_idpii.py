"""Tests for the integro-differential Painleve II solver and limiting kernel."""

import tracemalloc

import numpy as np
import pytest

from airylab.errors import BlowUpError, DomainError
from airylab.fredholm import fredholm_det_ft
from airylab.idpii import (interp_I, interp_P, interp_phi, k_infinity, limit_coordinates,
                           solve_idpii, tw_local_check)
from airylab.special import airy_ai, airy_ai_prime, fermi_weight

import oracles


def _trapezoid(y, x):
    """Composite trapezoid rule (np.trapz is gone in numpy 2; np.trapezoid is not in 1.24)."""
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    return float((np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum())


def _simpson_trapezoid(y, h):
    """Composite Simpson on the first odd number of samples, closed by a
    trapezoid on the last interval when the number of samples is even."""
    n = y.size
    m = n if n % 2 else n - 1
    total = (h / 3.0) * (y[0] + y[m - 1] + 4.0 * y[1:m - 1:2].sum() + 2.0 * y[2:m - 1:2].sum())
    if m < n:
        total += 0.5 * h * (y[-2] + y[-1])
    return total


def _packed_rk4_march(T, S_min=-2.0, S_max=12.0, xi_lo=-30.0, xi_hi=15.0,
                      h_xi=0.04, n_steps=2800):
    """The id-PII march as classical RK4 on the packed first-order state
    y = (Phi, dPhi/dS, P): an oracle for solve_idpii's closed-form
    Runge-Kutta-Nystrom march, with the same start data, quadrature and
    truncation guard (a layer every 16 steps and at the last, flagged when
    Phi^2 w at an end exceeds 1e-10 of its peak).

    Returns (S_grid, Phi, dPhi, I_of_S, P_of_S, flags) on the stored layers.
    """
    n_xi = int(round((xi_hi - xi_lo) / h_xi)) + 1
    xi = xi_lo + h_xi * np.arange(n_xi)
    w_xi = fermi_weight(xi)
    wq = np.array([_simpson_trapezoid(e, h_xi) for e in np.eye(n_xi)]) * w_xi
    t16 = T ** (1.0 / 6.0)
    arg0 = T ** (2.0 / 3.0) * xi + S_max * T ** (-1.0 / 3.0)
    y = np.concatenate([t16 * airy_ai(arg0), (1.0 / t16) * airy_ai_prime(arg0),
                        [S_max * S_max / (4.0 * T)]])

    def rhs(S, y):
        ph = y[:n_xi]
        I = ph * ph @ wq
        return np.concatenate([y[n_xi:-1], (xi + S / T + 2.0 * I / T) * ph,
                               [S / (2.0 * T) + I / T]])

    h = (S_min - S_max) / n_steps
    layers = []
    for i in range(n_steps + 1):
        S = S_max + h * i
        if i % 16 == 0 or i == n_steps:
            ph = y[:n_xi]
            integrand = ph * ph * w_xi
            peak = max(float(np.max(integrand)), 1e-300)
            layers.append((S, ph.copy(), y[n_xi:-1].copy(), ph * ph @ wq, y[-1],
                           max(integrand[0], integrand[-1]) > 1e-10 * peak))
        if i == n_steps:
            break
        k1 = rhs(S, y)
        k2 = rhs(S + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(S + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(S + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return tuple(np.array(col) for col in zip(*layers))


@pytest.fixture(scope="module")
def sol():
    return solve_idpii(1.0)


@pytest.fixture(scope="module")
def fine():
    """Layers 0.02 apart in S: 11,200 steps on [-2, 12]."""
    return solve_idpii(1.0, n_steps=11200)


class TestSolver:
    def test_initial_data_is_airy(self, sol):
        xi = sol.xi_grid
        arg = xi + 12.0  # T = 1: T^{2/3} xi + S_max T^{-1/3}
        keep = arg <= 150.0
        assert np.allclose(sol.Phi[0][keep], airy_ai(arg[keep]), rtol=0, atol=1e-14)
        assert np.allclose(sol.dPhi[0][keep], airy_ai_prime(arg[keep]), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("T", [1.0, 1.0 / 16.0, 2.0 ** 1.5])
    def test_start_layer_is_the_airy_data_bit_for_bit(self, T):
        # the march carries sqrt(wq) (Phi, dPhi/dS); layer 0 is stored before
        # that scaling, so no division by sqrt(wq) touches it
        s = solve_idpii(T, S_min=11.98, n_steps=4)
        arg = T ** (2.0 / 3.0) * s.xi_grid + 12.0 * T ** (-1.0 / 3.0)
        t16 = T ** (1.0 / 6.0)
        assert np.array_equal(s.Phi[0], t16 * airy_ai(arg))
        assert np.array_equal(s.dPhi[0], (1.0 / t16) * airy_ai_prime(arg))

    def test_integral_term_nonnegative(self, sol):
        assert np.all(sol.I_of_S >= 0.0)

    def test_integral_term_large_s_decay(self, sol):
        # at S_max the statistic is nearly undeformed: I is tiny but nonzero
        assert sol.I_of_S[0] < 1e-5
        assert sol.I_of_S[0] > 0.0
        # I grows monotonically as S decreases over the stored range top
        assert sol.I_of_S[50] > sol.I_of_S[0]

    def test_p_offset_convention(self, sol):
        assert sol.P_of_S[0] == pytest.approx(144.0 / 4.0, abs=1e-12)
        # dP/dS = S/(2T) + I/T via stored-layer differences near the top
        dS = sol.S_grid[1] - sol.S_grid[0]
        fd = (sol.P_of_S[1] - sol.P_of_S[0]) / dS
        mid_S = 0.5 * (sol.S_grid[0] + sol.S_grid[1])
        assert fd == pytest.approx(mid_S / 2.0, abs=1e-3)

    def test_ode_self_residual(self, fine):
        # second S-difference of stored Phi vs the right-hand side, with the
        # layers 0.02 apart (at 0.08 the stencil alone gives 7.2e-3)
        sol = fine
        h = sol.S_grid[0] - sol.S_grid[1]
        assert h == pytest.approx(0.02, rel=1e-12)
        worst = 0.0
        for j in range(100, sol.S_grid.size - 3, 97):
            d2 = (-sol.Phi[j - 2] + 16.0 * sol.Phi[j - 1] - 30.0 * sol.Phi[j]
                  + 16.0 * sol.Phi[j + 1] - sol.Phi[j + 2]) / (12.0 * h * h)
            S = sol.S_grid[j]
            coef = sol.xi_grid + S / sol.T + 2.0 * sol.I_of_S[j] / sol.T
            rhs = coef * sol.Phi[j]
            mask = np.abs(sol.Phi[j]) > 1e-6
            # denominator floored at the layer scale (turning points have
            # rhs = 0 and a pointwise ratio there is meaningless)
            denom = np.maximum(np.abs(rhs[mask]), 1e-3 * float(np.max(np.abs(rhs))))
            rel = np.abs(d2 - rhs)[mask] / denom
            worst = max(worst, float(np.max(rel)))
        assert worst <= 5e-4

    def test_step_doubling_stability(self):
        a = solve_idpii(1.0, n_steps=2800)
        b = solve_idpii(1.0, n_steps=1400)
        va = interp_phi(a, 0.0, 0.0)[0]
        vb = interp_phi(b, 0.0, 0.0)[0]
        assert abs(va - vb) < 1e-6

    def test_truncation_guard_is_informative(self, sol):
        # one flag per stored layer, and both values occur: at S_max Phi^2 w
        # peaks at 8e-7 and its value at xi = -30 is 8e-9 of that; at S_min
        # the peak is 0.19 and the ends are below 3e-14 of it.  The flag
        # rule itself is checked bitwise against the packed oracle in
        # test_march_matches_packed_first_order_rk4
        assert sol.truncation_flags.shape == sol.S_grid.shape
        assert sol.truncation_flags[0] and not sol.truncation_flags[-1]

    @pytest.mark.parametrize("h_xi, n_xi", [(0.05, 301), (0.04, 376)])
    def test_integral_term_matches_simpson_oracle(self, h_xi, n_xi):
        # a window narrow enough that Phi^2 w is far from zero at both ends
        # once S is low, so every weight of the quadrature shows in I(S)
        s = solve_idpii(1.0, xi_lo=-10.0, xi_hi=5.0, h_xi=h_xi, n_steps=400)
        assert s.xi_grid.size == n_xi
        w = fermi_weight(s.xi_grid)
        for phi, I in zip(s.Phi, s.I_of_S):
            ref = _simpson_trapezoid(phi ** 2 * w, h_xi)
            assert I == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_derivatives_of_i_match_simpson_oracle(self):
        # I' = 2 int Phi dPhi w and I'' = 2 int (dPhi^2 + (xi + g) Phi^2) w,
        # g = S/T + 2 I/T, from the stored fields by the oracle quadrature,
        # on the narrow window where every weight shows
        T = 1.0
        s = solve_idpii(T, xi_lo=-10.0, xi_hi=5.0, h_xi=0.04, n_steps=400)
        w = fermi_weight(s.xi_grid)
        d1, d2 = [], []
        for k, (phi, dphi) in enumerate(s.fields):
            g = s.S_grid[k] / T + 2.0 * s.I_of_S[k] / T
            d1.append((s.dI_of_S[k], 2.0 * _simpson_trapezoid(phi * dphi * w, 0.04)))
            d2.append((s.d2I_of_S[k], 2.0 * _simpson_trapezoid(
                (dphi * dphi + (s.xi_grid + g) * phi * phi) * w, 0.04)))
        for pairs in (np.array(d1), np.array(d2)):
            got, ref = pairs.T
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_peak_memory_and_field_count(self, sol):
        # a layer every 16 steps and at the last: the fields take
        # 176 x 2 x 1126 x 8 B = 3.2 MB on the default grid
        tracemalloc.start()
        try:
            solve_idpii(1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5e6
        # any n_steps >= 1 runs: 2801 steps give 177 layers and 1 step gives 2
        for n_steps in (2800, 2801, 2804, 2808, 2812, 400, 4, 1):
            S_min = 12.0 - 0.005 * n_steps
            s = solve_idpii(1.0, S_min=S_min, n_steps=n_steps)
            count = n_steps // 16 + 1 + (n_steps % 16 != 0)
            assert s.fields.shape == (count, 2, s.xi_grid.size)
            for scalars in (s.S_grid, s.I_of_S, s.dI_of_S, s.d2I_of_S, s.P_of_S,
                            s.truncation_flags):
                assert scalars.shape == (count,)
            S_all = 12.0 + (S_min - 12.0) / n_steps * np.arange(n_steps + 1)
            assert np.array_equal(s.S_grid, S_all[np.unique(np.r_[0:n_steps + 1:16, n_steps])])

    @pytest.mark.parametrize("n_steps", [0, -4])
    def test_step_count_below_one_refused(self, n_steps):
        with pytest.raises(DomainError, match=rf"n_steps = {n_steps}: "):
            solve_idpii(1.0, n_steps=n_steps)

    def test_low_temperature_data_grows_from_the_far_tail(self):
        # at T = 1/16 the starting arguments T^{2/3} xi + S_max T^{-1/3} pass 30
        # for xi > -1.3; the march down to S = 0 lowers them by 12 T^{-1/3} ~ 30,
        # so starting data near Ai(30) ~ 3e-49 grows to O(1) and must be kept
        T = 1.0 / 16.0
        s = solve_idpii(T)
        xi = np.linspace(-2.0, 2.0, 9)
        airy = T ** (1.0 / 6.0) * airy_ai(T ** (2.0 / 3.0) * xi)
        assert np.allclose(interp_phi(s, xi, 0.0)[0], airy, rtol=0.1, atol=0.0)
        fine = solve_idpii(T, h_xi=0.02, n_steps=5600)
        assert interp_I(s, 0.0) == pytest.approx(interp_I(fine, 0.0), rel=1e-3)

    def test_march_converges_at_fourth_order(self):
        # halving the S-step divides the successive differences of I(0) and
        # P(0) by 2^4 = 16 (15.6 and 15.8 here); a wrong stage coefficient
        # drops the order
        values = []
        for n in (700, 1400, 2800, 5600):
            s = solve_idpii(1.0, n_steps=n)
            values.append((interp_I(s, 0.0), interp_P(s, 0.0)))
        diffs = np.diff(np.array(values), axis=0)
        ratios = diffs[:-1] / diffs[1:]
        assert np.all((14.0 <= ratios) & (ratios <= 18.0))

    def test_blowup_guard_names_solver_and_step(self):
        # a step of 10 in S overflows Phi within a few steps.  Phi^2 in the
        # moments overflows at step 3 while Phi and P are still finite; the
        # march stops being finite at step 4
        with np.errstate(all="ignore"), pytest.raises(BlowUpError, match="id-PII") as exc:
            solve_idpii(1.0, S_min=-400.0, n_steps=40)
        assert exc.value.step == 4
        assert "at step 4" in str(exc.value)

    def test_stored_layer_must_be_finite(self):
        # steps of 10 in S on a window reaching xi = -700: at step 7, the last,
        # the scaled state and Phi are finite but the moments have overflowed,
        # so I' or I'' of that layer would not be
        with np.errstate(all="ignore"), pytest.raises(BlowUpError, match="at step 7") as exc:
            solve_idpii(1.0 / 16.0, S_min=-58.0, n_steps=7, xi_lo=-700.0, h_xi=0.5)
        assert exc.value.step == 7
        assert "layer" in str(exc.value)

    @pytest.mark.parametrize("T, tol", [(1.0, 1e-13), (1.0 / 16.0, 5e-11)])
    def test_march_matches_packed_first_order_rk4(self, T, tol):
        # the closed-form Nystrom march is the packed RK4 with its arithmetic
        # regrouped: at T = 1 they agree to rounding; at T = 1/16 the data
        # grows from about 3e-49 and the rounding grows with it.  Each difference is
        # relative to the largest value of its layer (P: of the whole run)
        S_ref, Phi_ref, dPhi_ref, I_ref, P_ref, flags_ref = _packed_rk4_march(T)
        s = solve_idpii(T)

        def layer_rel(a, b):
            return np.max(np.abs(a - b), axis=-1) / np.max(np.abs(b), axis=-1)

        assert np.array_equal(s.S_grid, S_ref)
        assert np.max(layer_rel(s.Phi, Phi_ref)) <= tol
        assert np.max(layer_rel(s.dPhi, dPhi_ref)) <= tol
        assert np.max(np.abs(s.I_of_S - I_ref) / I_ref) <= tol
        assert layer_rel(s.P_of_S, P_ref) <= tol
        assert np.array_equal(s.truncation_flags, flags_ref)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            solve_idpii(-1.0)
        with pytest.raises(DomainError):
            solve_idpii(1.0, S_min=5.0, S_max=1.0)
        # T = 10^{3/2} starts the march at Ai(-296.2), below the Airy domain
        with pytest.raises(DomainError, match=r"T = 31\.6228 .* = -296\.205"):
            solve_idpii(10.0 ** 1.5)

    @pytest.mark.parametrize("S_min, S_max", [(float("nan"), 12.0), (-float("inf"), 12.0),
                                              (-2.0, float("nan")), (-2.0, float("inf"))])
    def test_s_window_must_be_finite_and_ordered(self, S_min, S_max):
        # a non-finite S_min marched and raised BlowUpError at step 1; a
        # non-finite S_max was refused as an Airy argument out of range
        with pytest.raises(DomainError, match=rf"^S_min = {S_min}, S_max = {S_max}: "):
            solve_idpii(1.0, S_min=S_min, S_max=S_max, n_steps=4)

    @pytest.mark.parametrize("h_xi", [0.0, -0.04, float("nan"), float("inf")])
    def test_xi_step_must_be_finite_and_positive(self, h_xi):
        with pytest.raises(DomainError, match=rf"^h_xi = {h_xi}: "):
            solve_idpii(1.0, h_xi=h_xi, n_steps=4, S_min=11.98)

    @pytest.mark.parametrize("xi_lo, xi_hi", [(15.0, -30.0), (-30.0, -30.0),
                                              (-float("inf"), 15.0), (-30.0, float("nan"))])
    def test_xi_window_must_be_finite_and_ordered(self, xi_lo, xi_hi):
        # reversed ends with a negative step ran on the weights of the reversed
        # grid and gave I(-2) = -0.077 < 0
        with pytest.raises(DomainError, match=rf"^xi_lo = {xi_lo}, xi_hi = {xi_hi}: "):
            solve_idpii(1.0, xi_lo=xi_lo, xi_hi=xi_hi, n_steps=4, S_min=11.98)
        with pytest.raises(DomainError):
            solve_idpii(1.0, xi_lo=xi_lo, xi_hi=xi_hi, h_xi=-0.04, n_steps=4, S_min=11.98)

    @pytest.mark.parametrize("T, xi_lo, xi_hi", [(1.0 / 16.0, -800.0, 15.0), (1.0, -30.0, 800.0)])
    def test_quadrature_weights_must_be_normal(self, T, xi_lo, xi_hi):
        # the Fermi weight underflows past |xi| of about 708; a column of
        # weight 0 would drop out of I, and of the scaled march
        with pytest.raises(DomainError, match=r"quadrature weight is 0, not a normal float"):
            solve_idpii(T, xi_lo=xi_lo, xi_hi=xi_hi, n_steps=4, S_min=11.98)

    @pytest.mark.parametrize("T, S_max, arg", [(1e-3, 12.0, "120"), (1.0, 150.0, "150")])
    def test_underflowed_start_refused(self, T, S_max, arg):
        # Ai(S_max T^{-1/3}) is no normal float past about 104: a start column
        # of zeros would march to I = 0 and P = S^2 / (4T) on every layer
        with pytest.raises(DomainError, match=rf"T = {T:g}, S_max = {S_max:g}: .* = {arg}$"):
            solve_idpii(T, S_max=S_max, n_steps=4)

    @pytest.mark.parametrize("t_param", [0.147, 1.0, 16.0 ** (-2.0 / 3.0), 50.0, 74.8])
    def test_start_at_the_default_window_is_normal(self, t_param):
        # up to t_param of about 74.8 the start at S_max = 12 is a normal
        # float at xi = 0, so idpii-solve accepts it
        sol = solve_idpii(t_param ** -1.5, S_min=11.98, n_steps=4)
        i0 = np.argmin(np.abs(sol.xi_grid))
        assert sol.Phi[0, i0] >= np.finfo(float).tiny


class TestInterpolation:
    def test_reproduces_grid_values(self, sol):
        j, i = 40, 500
        v = interp_phi(sol, sol.xi_grid[i], sol.S_grid[j])[0]
        assert v == pytest.approx(sol.Phi[j, i], rel=1e-12)

    def test_reads_at_stored_layers_are_the_stored_values(self, sol):
        # the quintic in S is exact at both ends of its interval, bit for bit
        assert all(interp_I(sol, S) == I for S, I in zip(sol.S_grid, sol.I_of_S))
        assert all(interp_P(sol, S) == P for S, P in zip(sol.S_grid, sol.P_of_S))
        # at a node where the stencil sits on the node (t = 0) the xi read is exact
        xg = sol.xi_grid
        on_node = ((xg - xg[0]) / sol.h_xi).astype(int) == np.arange(xg.size)
        nodes = np.flatnonzero(on_node[1:-2]) + 1
        assert nodes.size > 1000
        for k in (0, 1, 75, 150, sol.S_grid.size - 1):
            got = interp_phi(sol, xg[nodes], sol.S_grid[k])
            assert np.array_equal(got, sol.fields[k][:, nodes])

    def test_cubic_accuracy_between_nodes(self, sol):
        # compare against Airy initial data at S_max between grid points:
        # ~h^4 accuracy in the oscillatory region, much better where smooth
        xi = sol.xi_grid[300] + 0.4 * sol.h_xi  # Airy argument -6
        v = interp_phi(sol, xi, sol.S_grid[0])[0]
        assert v == pytest.approx(airy_ai(xi + 12.0), abs=2e-6)
        xi = sol.xi_grid[800] + 0.4 * sol.h_xi  # Airy argument +14
        v = interp_phi(sol, xi, sol.S_grid[0])[0]
        assert v == pytest.approx(airy_ai(xi + 12.0), abs=1e-10)

    def test_xi_derivative_option(self, sol):
        xi = -2.0
        d = interp_phi(sol, xi, sol.S_grid[0], deriv_xi=True)[0]
        assert d == pytest.approx(airy_ai_prime(xi + 12.0), abs=1e-6)

    def test_scalar_interfaces(self, sol):
        assert np.ndim(interp_I(sol, 3.0)) == 0
        assert np.ndim(interp_P(sol, 3.0)) == 0

    @pytest.mark.parametrize("S", [1.013, 2.0 ** 1.5, 7.913], ids=["1.013", "2^1.5", "7.913"])
    def test_reads_match_the_quintic_oracle(self, sol, S):
        # no S is a stored layer and no xi is a node: the quintic in S and the
        # xi-stencil both act, on Phi and dPhi read together from one store;
        # the oracle is scipy's BPoly.from_derivatives on every layer
        assert not np.any(np.isclose(sol.S_grid, S, rtol=0.0, atol=1e-6))
        xi = np.array([-2.013, 0.3, 1.57])
        assert not np.any(np.isclose(sol.xi_grid[:, None], xi, rtol=0.0, atol=1e-6))
        for deriv in (False, True):
            both = interp_phi(sol, xi, S, deriv_xi=deriv)
            assert both.shape == (2, 3)
            ref = oracles.field_read(sol, S, xi, deriv)
            assert np.max(np.abs(both - ref)) <= 1e-15 * (1.0 + np.max(np.abs(ref)))
            for k, x in enumerate(xi):
                assert np.array_equal(interp_phi(sol, x, S, deriv_xi=deriv), both[:, k])
        assert interp_I(sol, S) == pytest.approx(oracles.scalar_read(sol, S, "I"),
                                                 rel=1e-14, abs=0.0)
        assert interp_P(sol, S) == pytest.approx(oracles.scalar_read(sol, S, "P"),
                                                 rel=1e-15, abs=0.0)
        # T = 1: s = S; off the diagonal and confluent
        for u, v in ((0.3, -0.5), (-0.5, 0.3), (0.2, 0.2)):
            assert k_infinity(sol, u, v, S, 1.0) == pytest.approx(
                oracles.k_infinity(sol, u, v, S, 1.0), rel=0.0, abs=1e-15)

    def test_out_of_range_rejected(self, sol):
        with pytest.raises(DomainError):
            interp_phi(sol, 0.0, 13.0)
        with pytest.raises(DomainError):
            interp_phi(sol, 99.0, 0.0)


class TestReadAccuracy:
    """The reads between layers against the march's own states."""

    @pytest.mark.parametrize("T", [1.0, 2.0 ** 1.5], ids=["1", "2^1.5"])
    def test_reads_match_the_march_between_field_layers(self, T):
        # S = S_max + k h, k not a multiple of 16, lies between stored layers;
        # a solve of k steps of the same h ends there with an exact layer.
        # Measured: Phi within 2.9e-8, dPhi/dS within 1.5e-7 over the whole grid
        sol = solve_idpii(T)
        h = (sol.S_grid[-1] - sol.S_grid[0]) / 2800
        for k in (4, 104, 1000, 2396, 2404, 2788):
            S = sol.S_grid[0] + k * h
            ref = solve_idpii(T, S_min=S, n_steps=k)
            assert abs(interp_I(sol, S) - ref.I_of_S[-1]) <= 1e-12
            assert abs(interp_P(sol, S) - ref.P_of_S[-1]) <= 1e-12
            err = np.max(np.abs(interp_phi(sol, ref.xi_grid, S) - ref.fields[-1]), axis=1)
            assert err[0] <= 1e-7 and err[1] <= 1e-6


class TestLimitingKernel:
    def test_symmetry(self, sol):
        a = k_infinity(sol, 0.3, -0.5, 1.0, 1.0)
        b = k_infinity(sol, -0.5, 0.3, 1.0, 1.0)
        assert a == pytest.approx(b, rel=1e-13)

    def test_confluent_matches_near_diagonal(self, sol):
        a = k_infinity(sol, 0.2, 0.2, 1.0, 1.0)
        b = k_infinity(sol, 0.2, 0.2001, 1.0, 1.0)
        assert abs(a - b) < 1e-5

    def test_diagonal_positive(self, sol):
        for u in (-1.0, 0.0, 1.0):
            assert k_infinity(sol, u, u, 0.5, 1.0) > 0.0

    def test_temperature_consistency_guard(self, sol):
        with pytest.raises(DomainError):
            k_infinity(sol, 0.0, 0.0, 1.0, 0.5)  # solution was built for T = 1

    def test_equals_the_oracle_off_unit_temperature(self):
        # t = 1/2, T = 2^{3/2}, s = 0.7: S = s T = 1.98, where the map is not
        # the identity it is at t = 1; off the diagonal and confluent
        sol_half = solve_idpii(2.0 ** 1.5)
        for u, v in ((0.3, -0.5), (-0.5, 0.3), (0.2, 0.2)):
            assert k_infinity(sol_half, u, v, 0.7, 0.5) == pytest.approx(
                oracles.k_infinity(sol_half, u, v, 0.7, 0.5), rel=0.0, abs=1e-15)


class TestLimitCoordinates:
    # t = 0.7052... is t = -Q'(0)/c_V on the quartic x^2/2 + x^4/20 with Q = -x
    @pytest.mark.parametrize("t", [0.5, 0.7052146216534435, 2.0])
    def test_both_coordinate_systems_name_one_point(self, t):
        # sigma = -S T^{-1/3} = -s/t and T_L = T^{-2} = t^3, to rounding
        rounding = 4 * 2.0 ** -52
        for s in (0.83, -1.7, 3.1):
            S, T, sigma, T_L = limit_coordinates(s, t)
            assert S * T ** (-1.0 / 3.0) == pytest.approx(s / t, rel=rounding)
            assert T ** -2 == pytest.approx(t ** 3, rel=rounding)
            assert sigma == pytest.approx(-S * T ** (-1.0 / 3.0), rel=rounding)
            assert T_L == pytest.approx(T ** -2, rel=rounding)


class TestTracyWidomChecks:
    def test_drift_free_identity(self, sol):
        # d^2/dS^2 log L(-S T^{-1/3}, T^{-2}) = -I(S)/T at T = 1
        spacing = 0.05
        for S in (0.0, 2.0):
            f = [np.log(fredholm_det_ft(-(S + j * spacing), 1.0, 80))
                 for j in (-2, -1, 0, 1, 2)]
            d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * spacing ** 2)
            assert d2 == pytest.approx(-interp_I(sol, S), abs=5e-6)

    def test_drift_free_identity_off_unit_temperature(self):
        # the map (S, T) -> (-S T^{-1/3}, T^{-2}) at T = 1/2, where it differs
        # from -S T^{1/3}: that map misses -I(S)/T by 5e-3 to 0.15 here
        T = 0.5
        sol_half = solve_idpii(T)
        spacing = 0.05
        for S in (0.0, 1.0, 2.0):
            f = [np.log(fredholm_det_ft(-(S + j * spacing) * T ** (-1.0 / 3.0), T ** -2, 80))
                 for j in (-2, -1, 0, 1, 2)]
            d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * spacing ** 2)
            assert d2 == pytest.approx(-interp_I(sol_half, S) / T, abs=1e-6)

    def test_local_check_residual_is_drift(self, sol):
        # with the drift term S/2 included the residual equals S/2: the two
        # stencil checks below document this exactly
        spacing = 0.05
        for S in (0.0, 2.0):
            f = [np.log(fredholm_det_ft(-(S + j * spacing), 1.0, 80))
                 for j in (-2, -1, 0, 1, 2)]
            res = tw_local_check(sol, S, f, spacing)
            assert res == pytest.approx(S / 2.0, abs=5e-6)

    def test_local_check_input_validation(self, sol):
        with pytest.raises(DomainError):
            tw_local_check(sol, 0.0, [1.0, 2.0, 3.0])


class TestFermiWeightUse:
    def test_integral_definition_consistency(self, sol):
        # recompute I at a stored layer directly from Phi and the Fermi weight
        k = 120
        w = fermi_weight(sol.xi_grid)
        direct = _trapezoid(sol.Phi[k] ** 2 * w, sol.xi_grid)
        assert direct == pytest.approx(sol.I_of_S[k], rel=1e-6, abs=1e-12)
