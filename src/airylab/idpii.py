"""Integro-differential Painleve II: solver, interpolation, and limiting kernel.

The unknown Phi(xi | S, T) satisfies, as a function of S at each fixed xi,

    d^2/dS^2 Phi = (xi + S/T + (2/T) I(S)) Phi,
    I(S) = int Phi(xi | S, T)^2 fermi_weight(xi) dxi,

with Airy boundary data Phi ~ T^{1/6} Ai(T^{2/3} xi + S T^{-1/3}) for large S.
The solver marches (Phi, dPhi/dS), held as the two rows of one array,
downward in S from S_max on a fixed xi grid with numerics.ode_rk4, classical
RK4 in Runge-Kutta-Nystrom form: each step computes the four accelerations
(xi + S/T + 2 I/T) Phi at the stage values of Phi, and takes the slopes of Phi
from the stage values of dPhi/dS.  I(S) is one dot product with precomputed
quadrature weights, and the anti-derivative P, which obeys
dP/dS = S/(2T) + I(S)/T with P(S_max) = S_max^2/(4T), is carried alongside as
a scalar with the RK4 weights.

The limiting edge kernel K_infinity is built from interpolated (Phi, dPhi/dS)
layers, and diagnostics compare second S-derivatives of log-Fredholm
determinants with the solver's I(S).
"""

import numpy as np

from .errors import BlowUpError, DomainError
from .numerics import ode_rk4
from .special import airy_ai, airy_ai_prime, fermi_weight


class IdPiiSolution:
    """Stored layers of the downward integration.

    S_grid is descending; layers[j] is the march state (Phi, dPhi/dS) at
    S_grid[j], and Phi and dPhi are views of its two rows; I_of_S and P_of_S
    are the integral term and anti-derivative on the same grid.
    """

    def __init__(self, T, xi_grid, S_grid, layers, I_of_S, P_of_S, truncation_flags):
        self.T = T
        self.xi_grid = xi_grid
        self.S_grid = S_grid
        self.layers = layers
        self.Phi = layers[:, 0]
        self.dPhi = layers[:, 1]
        self.I_of_S = I_of_S
        self.P_of_S = P_of_S
        self.truncation_flags = truncation_flags

    @property
    def h_xi(self):
        return self.xi_grid[1] - self.xi_grid[0]


def solve_idpii(T, S_min=-2.0, S_max=12.0, xi_lo=-30.0, xi_hi=15.0,
                h_xi=0.04, n_steps=2800):
    """Integrate the integro-differential Painleve II system downward in S.

    Returns an IdPiiSolution with layers stored every 4 RK4 steps.  A
    boundary-truncation guard flags (without aborting) layers where the
    integrand Phi^2 * fermi_weight at the grid ends exceeds 1e-10 of its
    maximum.  A T whose Airy start data leave the domain of airy_ai is refused.
    """
    if T <= 0:
        raise DomainError("T must be positive")
    if S_max <= S_min:
        raise DomainError("need S_max > S_min")
    if n_steps % 4 != 0:
        raise DomainError("n_steps must be a multiple of 4, the storage stride")
    n_xi = int(round((xi_hi - xi_lo) / h_xi)) + 1
    if n_xi < 3:
        raise DomainError("need at least three xi samples")
    xi = xi_lo + h_xi * np.arange(n_xi)
    # state (Phi, dPhi/dS) as two rows; P rides along as ode_rk4's scalar q
    t16 = T ** (1.0 / 6.0)
    arg0 = T ** (2.0 / 3.0) * xi + S_max * T ** (-1.0 / 3.0)
    try:
        state0 = np.array([t16 * airy_ai(arg0), (1.0 / t16) * airy_ai_prime(arg0)])
    except DomainError as exc:
        raise DomainError(f"T = {T:.6g} gives the lowest Airy start argument "
                          f"T^(2/3) xi_lo + S_max T^(-1/3) = {arg0[0]:.6g}: {exc}") from exc
    w_xi = fermi_weight(xi)
    # I(S) = Phi^2 . wq: composite Simpson weights on the first n_simp (odd)
    # samples, a trapezoid closing panel when n_xi is even, times the Fermi weight
    n_simp = n_xi - 1 + n_xi % 2
    wq = np.zeros(n_xi)
    wq[:n_simp] = (h_xi / 3.0) * np.where(np.arange(n_simp) % 2, 4.0, 2.0)
    wq[[0, n_simp - 1]] = h_xi / 3.0
    if n_simp < n_xi:
        wq[-2:] += 0.5 * h_xi
    wq *= w_xi

    phi2 = np.empty(n_xi)  # Phi^2 and I(S) of the last accel call
    I = 0.0

    def accel(S, ph, out):
        nonlocal I
        np.multiply(ph, ph, out=phi2)
        I = float(phi2 @ wq)
        np.add(xi, S / T + 2.0 * I / T, out=out)
        out *= ph
        return S / (2.0 * T) + I / T

    n_layers = n_steps // 4 + 1
    S_grid = np.empty(n_layers)
    layers = np.empty((n_layers, 2, n_xi))
    I_of_S = np.empty(n_layers)
    P_of_S = np.empty(n_layers)
    flags = np.zeros(n_layers, dtype=bool)

    def store(step, S, state, P):
        # ode_rk4 has just called accel on this layer: phi2 and I are its own
        if step % 4:
            return
        layer = step // 4
        S_grid[layer] = S
        layers[layer] = state
        I_of_S[layer] = I
        P_of_S[layer] = P
        integrand = phi2 * w_xi
        peak = max(float(np.max(integrand)), 1e-300)
        flags[layer] = max(integrand[0], integrand[-1]) > 1e-10 * peak

    try:
        ode_rk4(accel, state0, S_max, S_min, n_steps, q0=S_max * S_max / (4.0 * T),
                observer=store)
    except BlowUpError as exc:
        raise BlowUpError(f"id-PII {exc}", step=exc.step) from exc
    return IdPiiSolution(T, xi, S_grid, layers, I_of_S, P_of_S, flags)


def _read(sol, rows, S, xi=None, deriv_xi=False):
    """Stored rows (one per layer) read at abscissa S.

    With points xi, each of the two layers that bracket S is first read at xi
    by the cubic 4-point Lagrange stencil (or its xi-derivative); the two are
    then blended linearly in S.
    """
    Sg = sol.S_grid  # descending
    if S > Sg[0] + 1e-12 or S < Sg[-1] - 1e-12:
        raise DomainError("S outside the stored range")
    j = int(np.searchsorted(-Sg, -S, side="right")) - 1
    j = min(max(j, 0), Sg.size - 2)
    w = min(max((Sg[j] - S) / (Sg[j] - Sg[j + 1]), 0.0), 1.0)
    pair = rows[j:j + 2]
    if xi is not None:
        xg = sol.xi_grid
        h = sol.h_xi
        if np.any(xi < xg[0]) or np.any(xi > xg[-1]):
            raise DomainError("xi outside the grid")
        idx = np.clip(((xi - xg[0]) / h).astype(int), 1, xg.size - 3)
        t = (xi - xg[idx]) / h  # in [-1, 2] nominally, usually [0, 1]
        # Lagrange basis on stencil offsets (-1, 0, 1, 2)
        if deriv_xi:
            l0 = -(3 * t * t - 6 * t + 2.0) / 6.0
            l1 = (3 * t * t - 4 * t - 1.0) / 2.0
            l2 = -(3 * t * t - 2 * t - 2.0) / 2.0
            l3 = (3 * t * t - 1.0) / 6.0
            l0, l1, l2, l3 = (l / h for l in (l0, l1, l2, l3))
        else:
            l0 = -t * (t - 1.0) * (t - 2.0) / 6.0
            l1 = (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0
            l2 = -(t + 1.0) * t * (t - 2.0) / 2.0
            l3 = (t + 1.0) * t * (t - 1.0) / 6.0
        pair = (pair[..., idx - 1] * l0 + pair[..., idx] * l1
                + pair[..., idx + 1] * l2 + pair[..., idx + 2] * l3)
    return (1.0 - w) * pair[0] + w * pair[1]


def interp_phi(sol, xi, S, deriv_xi=False):
    """(Phi, dPhi/dS) at (xi, S), cubic in xi and linear in S, on a leading
    axis of 2: shape (2,) for a scalar xi, (2, len(xi)) for an array."""
    out = _read(sol, sol.layers, S, np.atleast_1d(np.asarray(xi, dtype=float)), deriv_xi)
    return out if np.ndim(xi) else out[:, 0]


def interp_I(sol, S):
    return float(_read(sol, sol.I_of_S, S))


def interp_P(sol, S):
    return float(_read(sol, sol.P_of_S, S))


def k_infinity(sol, u, v, s, t_param):
    """Limiting edge kernel K_inf(u, v | s, t) from the stored solution.

    phi_1(z) = Phi(-s + t z | S, T), phi_2 = dPhi/dS at the same argument,
    with T = t^{-3/2}, S = s T.  The confluent u = v case uses the
    xi-derivative of the interpolant when |u - v| < 1e-6.
    """
    T = t_param ** (-1.5)
    if abs(T - sol.T) > 1e-9 * max(1.0, T):
        raise DomainError("solution was built for a different T")
    S = s * T
    xs = np.array([-s + t_param * u, -s + t_param * v])
    p1, p2 = interp_phi(sol, xs, S)
    if abs(u - v) < 1e-6:
        d1, d2 = t_param * interp_phi(sol, xs, S, deriv_xi=True)
        return float(d1[0] * p2[0] - p1[0] * d2[0])
    return float((p1[0] * p2[1] - p1[1] * p2[0]) / (u - v))


def tw_local_check(sol, S, fredholm_values, spacing=0.05):
    """Residual of the local Tracy-Widom-type identity at abscissa S.

    fredholm_values are log L(-(S+j*spacing) T^{-1/3}, T^{-2}) for
    j = -2..2; the 5-point second central difference is compared with
    -(1/T)(I(S) - S/2).
    """
    f = np.asarray(fredholm_values, dtype=float)
    if f.shape != (5,):
        raise DomainError("need exactly five stencil values")
    d2 = (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / (12.0 * spacing ** 2)
    rhs = -(interp_I(sol, S) - 0.5 * S) / sol.T
    return abs(d2 - rhs)

