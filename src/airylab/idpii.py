"""Integro-differential Painleve II: solver, interpolation, and limiting kernel.

The unknown Phi(xi | S, T) satisfies, as a function of S at each fixed xi,

    d^2/dS^2 Phi = (xi + S/T + (2/T) I(S)) Phi,
    I(S) = int Phi(xi | S, T)^2 fermi_weight(xi) dxi,

with Airy boundary data Phi ~ T^{1/6} Ai(T^{2/3} xi + S T^{-1/3}) for large S.
The solver marches (Phi, dPhi/dS) downward in S from S_max on a fixed xi grid
by classical RK4, in closed form since the equation is linear in Phi once the
scalar I(S) is known (derivation in solve_idpii).  The anti-derivative P, with
dP/dS = S/(2T) + I(S)/T and P(S_max) = S_max^2/(4T), rides along as a scalar.

The solution keeps I, its first two S-derivatives, P and the field rows
(Phi, dPhi/dS) on one S axis, every 16 steps and at the last.  Reads between
layers are quintic Hermite in S from each end's value and two S-derivatives,
which the equation itself supplies: d^2 Phi/dS^2 = (xi + S/T + 2I/T) Phi,
and I', I'' come from the moments of the march.  The limiting edge kernel
K_infinity at (s, t) reads (Phi, dPhi/dS) this way at the (S, T) that
limit_coordinates gives, and diagnostics compare second S-derivatives of
log-Fredholm determinants with I(S).
"""

import math

import numpy as np

from .errors import BlowUpError, DomainError
from .special import airy_ai, airy_ai_prime, fermi_weight


class IdPiiSolution:
    """Stored layers of the downward integration.

    S_grid is descending, a layer every 16 RK4 steps and at the last: I_of_S,
    dI_of_S and d2I_of_S (I and its first two S-derivatives), P_of_S,
    truncation_flags and the field rows fields[k] = (Phi, dPhi/dS) are on it.
    Phi and dPhi are views of the two rows.
    """

    def __init__(self, T, xi_grid, S_grid, I_of_S, dI_of_S, d2I_of_S, P_of_S,
                 truncation_flags, fields):
        self.T = T
        self.xi_grid = xi_grid
        self.S_grid = S_grid
        self.I_of_S = I_of_S
        self.dI_of_S = dI_of_S
        self.d2I_of_S = d2I_of_S
        self.P_of_S = P_of_S
        self.truncation_flags = truncation_flags
        self.fields = fields
        self.Phi = fields[:, 0]
        self.dPhi = fields[:, 1]

    @property
    def h_xi(self):
        return self.xi_grid[1] - self.xi_grid[0]


def _stage_integral(m, a0, a1, b0, b1):
    """I(Y) = sum wq Y^2 for Y = (a0 + a1 xi) y + (b0 + b1 xi) v, from the
    moments m = (yy_p, yv_p, vy_p, vv_p; p = 0, 1, 2), yv_p = sum wq xi^p y v."""
    yy0, yv0, _, vv0, yy1, yv1, _, vv1, yy2, yv2, _, vv2 = m
    return (a0 * a0 * yy0 + 2.0 * a0 * a1 * yy1 + a1 * a1 * yy2
            + 2.0 * (a0 * b0 * yv0 + (a0 * b1 + a1 * b0) * yv1 + a1 * b1 * yv2)
            + b0 * b0 * vv0 + 2.0 * b0 * b1 * vv1 + b1 * b1 * vv2)


def limit_coordinates(s, t):
    """(S, T, sigma, T_L) = (s t^{-3/2}, t^{-3/2}, -s/t, t^3): the id-PII solution at
    (S, T) belongs to the determinant L(sigma, T_L) = L(-S T^{-1/3}, T^{-2}) of the
    fredholm module.  Each is taken from (s, t): T^{-2} is not t^3 to the bit."""
    T = t ** -1.5
    return s * T, T, -s / t, t ** 3


def solve_idpii(T, S_min=-2.0, S_max=12.0, xi_lo=-30.0, xi_hi=15.0,
                h_xi=0.04, n_steps=2800):
    """Integrate the integro-differential Painleve II system downward in S.

    Returns an IdPiiSolution with the scalars I, I', I'', P and the field rows
    (Phi, dPhi/dS) stored every 16 RK4 steps and at the last (any n_steps
    >= 1): 176 layers, the fields 2 x 1126 floats each, 3.2 MB, on the
    default grid.  A boundary-truncation guard flags (without aborting) the
    stored layers where the integrand Phi^2 * fermi_weight at the grid ends
    exceeds 1e-10 of its maximum.  A T whose Airy start data leave the domain
    of airy_ai, or underflow at xi = 0, is refused, and a step after which
    Phi, dPhi/dS or P is not finite raises BlowUpError.

    The march is classical RK4 on the first-order system (y, v, P), y = Phi,
    v = dPhi/dS, in Runge-Kutta-Nystrom form (Hairer, Norsett and Wanner,
    Solving ODEs I, II.14), the slopes of y taken from the stage values of v.
    With I known, y'' = (xi + g) y, g = S/T + 2 I/T, is linear in y.  So a
    step of h from S, with k_j = (xi + g_j) Y_j, g_j = S_j/T + 2 I(Y_j)/T and
    S_j = S, S + h/2, S + h/2, S + h, is

        Y_1 = y,    Y_2 = y + (h/2) v,
        Y_3 = Y_2 + (h^2/4) k_1 = (1 + (h^2/4)(xi + g_1)) y + (h/2) v,
        Y_4 = y + h v + (h^2/2) k_2
            = (1 + (h^2/2)(xi + g_2)) y + (h + (h^3/4)(xi + g_2)) v,
        y += h v + (h^2/6)(k_1 + k_2 + k_3),
        v += (h/6)(k_1 + 2 k_2 + 2 k_3 + k_4),
        P += (h/6)(r_1 + 2 r_2 + 2 r_3 + r_4),  r_j = S_j/(2T) + I(Y_j)/T.

    Each Y_j is (a_0 + a_1 xi) y + (b_0 + b_1 xi) v, so I(Y_j) is a quadratic
    form in the moments sum wq xi^p {y^2, y v, v^2}, p <= 2, and the new
    (y, v) is a 2 x 6 matrix applied to the rows xi^p (y, v): a step is one
    product for the moments, one for the state, and float arithmetic.  The
    same moments give the S-derivatives that the reads use: I' = 2 sum wq y v
    and I'' = 2 sum wq (v^2 + (xi + g_1) y^2).
    """
    if T <= 0:
        raise DomainError("T must be positive")
    if S_max <= S_min:
        raise DomainError("need S_max > S_min")
    if n_steps < 1:
        raise DomainError(f"n_steps = {n_steps}: need at least one step")
    n_xi = int(round((xi_hi - xi_lo) / h_xi)) + 1
    if n_xi < 3:
        raise DomainError("need at least three xi samples")
    xi = xi_lo + h_xi * np.arange(n_xi)
    # basis[p] = xi^p (Phi, dPhi/dS), p = 0, 1, 2; a step writes the next state
    # into spare[0] and the two swap
    basis, spare = np.empty((2, 3, 2, n_xi))
    t16 = T ** (1.0 / 6.0)
    arg_peak = S_max * T ** (-1.0 / 3.0)
    arg0 = T ** (2.0 / 3.0) * xi + arg_peak
    try:
        basis[0] = t16 * airy_ai(arg0), (1.0 / t16) * airy_ai_prime(arg0)
    except DomainError as exc:
        raise DomainError(f"T = {T:.6g} gives the lowest Airy start argument "
                          f"T^(2/3) xi_lo + S_max T^(-1/3) = {arg0[0]:.6g}: {exc}") from exc
    # past an argument of about 104 Ai is not a normal float, and a start
    # column of zeros stays zero for the whole linear march
    if not t16 * airy_ai(arg_peak) >= np.finfo(float).tiny:
        raise DomainError(f"T = {T:.6g}, S_max = {S_max:.6g}: the Airy start value at "
                          f"xi = 0, the peak of the Fermi weight, underflows at the "
                          f"argument S_max T^(-1/3) = {arg_peak:.6g}")
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
    # stacked twice: an (n,) x (2, n) broadcast costs twice a (2, n) product
    xi2, wq2 = np.array([xi, xi]), np.array([wq, wq])
    wy, mom, coef = np.empty((2, n_xi)), np.empty((6, 2)), np.empty((2, 6))

    n_layers = (n_steps + 15) // 16 + 1
    S_grid, I_of_S, dI, d2I, P_of_S = np.empty((5, n_layers))
    flags = np.zeros(n_layers, dtype=bool)
    fields = np.empty((n_layers, 2, n_xi))
    h = (S_min - S_max) / n_steps
    hh = h * h
    h2, hh4, hh2, hhh4 = 0.5 * h, 0.25 * hh, 0.5 * hh, 0.25 * hh * h
    c_y, c_v = hh / 6.0, h / 6.0
    P = S_max * S_max / (4.0 * T)
    for i, S in enumerate((S_max + h * np.arange(n_steps + 1)).tolist()):
        np.multiply(xi2, basis[0], out=basis[1])
        np.multiply(xi2, basis[1], out=basis[2])
        np.multiply(wq2, basis[0], out=wy)
        # rows y, v, xi y, xi v, xi^2 y, xi^2 v against columns wq y, wq v
        np.matmul(basis.reshape(6, n_xi), wy.T, out=mom)
        m = mom.ravel().tolist()
        # the moments hold Phi^2 and overflow a step before the state can,
        # so only then is the state itself checked
        if not math.isfinite(sum(m) + P) and not (
                math.isfinite(P) and np.isfinite(basis[0]).all()):
            raise BlowUpError(f"id-PII state became non-finite at step {i}", step=i)
        I1 = m[0]
        g1 = S / T + 2.0 * I1 / T
        if i % 16 == 0 or i == n_steps:
            layer = (i + 15) // 16
            S_grid[layer] = S
            I_of_S[layer] = I1
            dI[layer] = 2.0 * m[1]
            d2I[layer] = 2.0 * (m[3] + m[4] + g1 * m[0])
            P_of_S[layer] = P
            integrand = basis[0, 0] * basis[0, 0] * w_xi
            peak = max(float(np.max(integrand)), 1e-300)
            flags[layer] = max(integrand[0], integrand[-1]) > 1e-10 * peak
            fields[layer] = basis[0]
        if i == n_steps:
            break
        S_h, S_e = S + 0.5 * h, S + h
        I2 = _stage_integral(m, 1.0, 0.0, h2, 0.0)
        g2 = S_h / T + 2.0 * I2 / T
        a3 = 1.0 + hh4 * g1
        I3 = _stage_integral(m, a3, hh4, h2, 0.0)
        g3 = S_h / T + 2.0 * I3 / T
        a4, b4 = 1.0 + hh2 * g2, h + hhh4 * g2
        I4 = _stage_integral(m, a4, hh2, b4, hhh4)
        g4 = S_e / T + 2.0 * I4 / T
        P += c_v * ((S / (2.0 * T) + I1 / T) + 2.0 * (S_h / (2.0 * T) + I2 / T)
                    + 2.0 * (S_h / (2.0 * T) + I3 / T) + (S_e / (2.0 * T) + I4 / T))
        # on the rows of basis, k_1 = (g1, 0, 1, 0, 0, 0), k_2 = (g2, h2 g2, 1,
        # h2, 0, 0), k_3 = (g3 a3, h2 g3, g3 hh4 + a3, h2, hh4, 0) and k_4 =
        # (g4 a4, g4 b4, g4 hh2 + a4, g4 hhh4 + b4, hh2, hhh4)
        coef[:] = ((1.0 + c_y * (g1 + g2 + g3 * a3), h + c_y * h2 * (g2 + g3),
                    c_y * (2.0 + g3 * hh4 + a3), c_y * h, c_y * hh4, 0.0),
                   (c_v * (g1 + 2.0 * (g2 + g3 * a3) + g4 * a4),
                    1.0 + c_v * (h * (g2 + g3) + g4 * b4),
                    c_v * (3.0 + 2.0 * (g3 * hh4 + a3) + g4 * hh2 + a4),
                    c_v * (2.0 * h + g4 * hhh4 + b4), c_v * hh, c_v * hhh4))
        np.matmul(coef, basis.reshape(6, n_xi), out=spare[0])
        basis, spare = spare, basis
    return IdPiiSolution(T, xi, S_grid, I_of_S, dI, d2I, P_of_S, flags, fields)


def _bracket(S_desc, S):
    """(j, c): S lies in [S_desc[j + 1], S_desc[j]] of the descending S_desc,
    and c are the weights there of (f, f', f'') at S_desc[j], then at
    S_desc[j + 1], in the quintic Hermite interpolant of a function f of S
    (dense output from value and two derivatives, Hairer, Norsett and Wanner,
    Solving ODEs I, II.6).  At a stored S the local coordinate
    t = (S - S_desc[j]) / H is 0 or 1 to the bit, every weight but one is
    zero, and the read returns the stored value bit for bit.
    """
    if S > S_desc[0] + 1e-12 or S < S_desc[-1] - 1e-12:
        raise DomainError("S outside the stored range")
    j = int(np.searchsorted(-S_desc, -S, side="right")) - 1
    j = min(max(j, 0), S_desc.size - 2)
    H = S_desc[j + 1] - S_desc[j]
    t = min(max((S - S_desc[j]) / H, 0.0), 1.0)
    u = 1.0 - t
    t3, u3 = t * t * t, u * u * u
    return j, (u3 * (1.0 + 3.0 * t + 6.0 * t * t), H * t * u3 * (1.0 + 3.0 * t),
               0.5 * H * H * t * t * u3,
               t3 * (1.0 + 3.0 * u + 6.0 * u * u), -H * t3 * u * (1.0 + 3.0 * u),
               0.5 * H * H * t3 * u * u)


def _hermite(c, ends):
    """The quintic Hermite read from the weights c of _bracket and the data
    ends = ((f, f', f'') at S_desc[j], (f, f', f'') at S_desc[j + 1])."""
    (f0, d0, e0), (f1, d1, e1) = ends
    return c[0] * f0 + c[1] * d0 + c[2] * e0 + c[3] * f1 + c[4] * d1 + c[5] * e1


def interp_phi(sol, xi, S, deriv_xi=False):
    """(Phi, dPhi/dS) at (xi, S), cubic in xi and quintic Hermite in S, on a
    leading axis of 2: shape (2,) for a scalar xi, (2, len(xi)) for an array.

    Each of the two stored layers that bracket S is read at xi by the cubic
    4-point Lagrange stencil (or its xi-derivative), applied to the rows of
    the S-derivatives that the equation gives at that layer: with
    g = S/T + 2 I/T and g' = (1 + 2 I')/T, Phi has (Phi, dPhi/dS,
    (xi + g) Phi) and dPhi/dS has (dPhi/dS, (xi + g) Phi,
    g' Phi + (xi + g) dPhi/dS).  The two are then joined in S.
    """
    x = np.atleast_1d(np.asarray(xi, dtype=float))
    xg = sol.xi_grid
    h = sol.h_xi
    if np.any(x < xg[0]) or np.any(x > xg[-1]):
        raise DomainError("xi outside the grid")
    idx = np.clip(((x - xg[0]) / h).astype(int), 1, xg.size - 3)
    t = (x - xg[idx]) / h  # in [-1, 2] nominally, usually [0, 1]
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
    cols = idx + np.array([[-1], [0], [1], [2]])
    xs = xg[cols]
    j, c = _bracket(sol.S_grid, S)
    T = sol.T
    ends = []
    for k in (j, j + 1):
        g = sol.S_grid[k] / T + 2.0 * sol.I_of_S[k] / T
        dg = (1.0 + 2.0 * sol.dI_of_S[k]) / T
        y, v = sol.fields[k][:, cols]  # (4, len(x)) each: the stencil columns
        q = xs + g
        rows = np.array([y, v, q * y, dg * y + q * v])
        val = rows[:, 0] * l0 + rows[:, 1] * l1 + rows[:, 2] * l2 + rows[:, 3] * l3
        ends.append((val[0:2], val[1:3], val[2:4]))
    out = _hermite(c, ends)
    return out if np.ndim(xi) else out[:, 0]


def interp_I(sol, S):
    j, c = _bracket(sol.S_grid, S)
    I, dI, d2I = sol.I_of_S, sol.dI_of_S, sol.d2I_of_S
    return float(_hermite(c, [(I[k], dI[k], d2I[k]) for k in (j, j + 1)]))


def interp_P(sol, S):
    """P at S from (P, dP/dS, d^2P/dS^2) = (P, S/(2T) + I/T, 1/(2T) + I'/T)."""
    j, c = _bracket(sol.S_grid, S)
    T = sol.T
    return float(_hermite(c, [(sol.P_of_S[k], sol.S_grid[k] / (2.0 * T) + sol.I_of_S[k] / T,
                               1.0 / (2.0 * T) + sol.dI_of_S[k] / T) for k in (j, j + 1)]))


def k_infinity(sol, u, v, s, t_param):
    """Limiting edge kernel K_inf(u, v | s, t) from the stored solution.

    phi_1(z) = Phi(-s + t z | S, T), phi_2 = dPhi/dS at the same argument,
    with (S, T) from limit_coordinates(s, t).  The confluent u = v case uses
    the xi-derivative of the interpolant when |u - v| < 1e-6.
    """
    S, T, _, _ = limit_coordinates(s, t_param)
    if abs(T - sol.T) > 1e-9 * max(1.0, T):
        raise DomainError("solution was built for a different T")
    xs = np.array([-s + t_param * u, -s + t_param * v])
    p1, p2 = interp_phi(sol, xs, S)
    if abs(u - v) < 1e-6:
        d1, d2 = t_param * interp_phi(sol, xs, S, deriv_xi=True)
        return float(d1[0] * p2[0] - p1[0] * d2[0])
    return float((p1[0] * p2[1] - p1[1] * p2[0]) / (u - v))


def tw_local_check(sol, S, fredholm_values, spacing=0.05):
    """Residual of the local Tracy-Widom-type identity at abscissa S.

    fredholm_values are log L(-(S+j*spacing) T^{-1/3}, T^{-2}), the (sigma, T_L)
    of limit_coordinates, for j = -2..2; the 5-point second central
    difference is compared with -(1/T)(I(S) - S/2).
    """
    f = np.asarray(fredholm_values, dtype=float)
    if f.shape != (5,):
        raise DomainError("need exactly five stencil values")
    d2 = (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / (12.0 * spacing ** 2)
    rhs = -(interp_I(sol, S) - 0.5 * S) / sol.T
    return abs(d2 - rhs)

