"""Integro-differential Painleve II: solver, interpolation, and limiting kernel.

The unknown Phi(xi | S, T) satisfies, as a function of S at each fixed xi,

    d^2/dS^2 Phi = (xi + S/T + (2/T) I(S)) Phi,
    I(S) = int Phi(xi | S, T)^2 fermi_weight(xi) dxi,

with Airy boundary data Phi ~ T^{1/6} Ai(T^{2/3} xi + S T^{-1/3}) for large S.
The solver marches sqrt(wq) (Phi, dPhi/dS), wq the quadrature weights of I,
downward in S from S_max by classical RK4 in closed form, the equation being
linear in Phi once I(S) is known (solve_idpii), and stores Phi unscaled.  P, with
dP/dS = S/(2T) + I(S)/T and P(S_max) = S_max^2/(4T), rides along.

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
    exceeds 1e-10 of its maximum.  Refused: a T whose Airy start data leave
    the domain of airy_ai or underflow at xi = 0, an S window not finite with
    S_min < S_max, and a xi window not finite with xi_lo < xi_hi and h_xi > 0
    or with a quadrature weight that is not a normal float (the Fermi weight
    underflows past |xi| of about 708).  A non-finite state, P or stored
    layer raises BlowUpError.

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
    (y, v) is a 2 x 6 matrix applied to the rows xi^p (y, v).  The step acts
    on each xi column alone, so the march carries sqrt(wq) (y, v), unscaled
    only into a stored layer (layer 0 is the Airy data as computed), and the
    moments are plain dot products: a step is one product for the moments,
    one for the state and float arithmetic, 10 us at n_xi = 1126 and 15 us at
    2251 (BLAS at one thread, 2-core Xeon).  The same
    moments give the S-derivatives that the reads use: I' = 2 sum wq y v and
    I'' = 2 sum wq (v^2 + (xi + g_1) y^2).
    """
    if T <= 0:
        raise DomainError("T must be positive")
    if not -math.inf < S_min < S_max < math.inf:
        raise DomainError(f"S_min = {S_min}, S_max = {S_max}: need finite S_min < S_max")
    if n_steps < 1:
        raise DomainError(f"n_steps = {n_steps}: need at least one step")
    if not 0.0 < h_xi < math.inf:
        raise DomainError(f"h_xi = {h_xi}: need a finite step h_xi > 0")
    if not -math.inf < xi_lo < xi_hi < math.inf:
        raise DomainError(f"xi_lo = {xi_lo}, xi_hi = {xi_hi}: need finite xi_lo < xi_hi")
    n_xi = int(round((xi_hi - xi_lo) / h_xi)) + 1
    if n_xi < 3:
        raise DomainError("need at least three xi samples")
    xi = xi_lo + h_xi * np.arange(n_xi)
    n_layers = (n_steps + 15) // 16 + 1
    fields = np.empty((n_layers, 2, n_xi))
    t16 = T ** (1.0 / 6.0)
    arg_peak = S_max * T ** (-1.0 / 3.0)
    arg0 = T ** (2.0 / 3.0) * xi + arg_peak
    try:
        fields[0] = t16 * airy_ai(arg0), (1.0 / t16) * airy_ai_prime(arg0)
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
    if not wq.min() >= np.finfo(float).tiny:  # a column of weight 0 would be erased
        raise DomainError(f"xi_lo = {xi_lo}, xi_hi = {xi_hi}: a quadrature weight "
                          f"is {wq.min():.3g}, not a normal float")
    sqrt_wq = np.sqrt(wq)
    # rows xi^p sqrt(wq) (Phi, dPhi/dS), p = 0, 1, 2, in two buffers that alternate
    bufs = [(b.reshape(6, n_xi), b[0], b[0].T, b[1], b[2]) for b in np.empty((2, 3, 2, n_xi))]
    np.multiply(fields[0], sqrt_wq, out=bufs[0][1])
    # stacked twice: an (n,) x (2, n) broadcast costs twice a (2, n) product
    xi2, mom, coef = np.array([xi, xi]), np.empty((6, 2)), np.empty((2, 6))
    mom_flat, coef_flat = mom.reshape(12), coef.reshape(12)

    S_grid, I_of_S, dI, d2I, P_of_S = np.empty((5, n_layers))
    flags = np.zeros(n_layers, dtype=bool)
    h = (S_min - S_max) / n_steps
    hh = h * h
    h2, hh4, hh2, hhh4 = 0.5 * h, 0.25 * hh, 0.5 * hh, 0.25 * hh * h
    c_y, c_v = hh / 6.0, h / 6.0
    P = S_max * S_max / (4.0 * T)
    for i, S in enumerate((S_max + h * np.arange(n_steps + 1)).tolist()):
        rows, s0, s0_T, s1, s2 = bufs[i % 2]
        np.multiply(xi2, s0, out=s1)
        np.multiply(xi2, s1, out=s2)
        # rows (y, v, xi y, xi v, xi^2 y, xi^2 v) . (y, v); np.dot costs less than matmul here
        np.dot(rows, s0_T, out=mom)
        m = mom_flat.tolist()
        # the moments hold Phi^2 and overflow a step before the state can,
        # so only then is the state itself checked
        if not math.isfinite(sum(m) + P) and not (
                math.isfinite(P) and np.isfinite(s0).all()):
            raise BlowUpError(f"id-PII state became non-finite at step {i}", step=i)
        yy0, yv0, _, vv0, yy1, yv1, _, vv1, yy2, yv2, _, vv2 = m
        g1 = S / T + 2.0 * yy0 / T
        if i % 16 == 0 or i == n_steps:
            layer = (i + 15) // 16
            if i:
                np.divide(s0, sqrt_wq, out=fields[layer])
            # overflowed moments, or a finite state that 1/sqrt(wq) takes past the largest float
            if not (math.isfinite(sum(m)) and np.isfinite(fields[layer]).all()):
                raise BlowUpError(f"id-PII layer stored at step {i} is not finite", step=i)
            S_grid[layer] = S
            I_of_S[layer] = yy0
            dI[layer] = 2.0 * yv0
            d2I[layer] = 2.0 * (vv0 + yy1 + g1 * yy0)
            P_of_S[layer] = P
            integrand = fields[layer, 0] * fields[layer, 0] * w_xi
            peak = max(float(np.max(integrand)), 1e-300)
            flags[layer] = max(integrand[0], integrand[-1]) > 1e-10 * peak
        if i == n_steps:
            break
        S_h, S_e = S + 0.5 * h, S + h
        # I(Y_j), (a_0, a_1; b_0, b_1) = (1, 0; h2, 0), (a3, hh4; h2, 0), (a4, hh2; b4, hhh4)
        I2 = yy0 + h * yv0 + hh4 * vv0
        g2 = S_h / T + 2.0 * I2 / T
        a3 = 1.0 + hh4 * g1
        I3 = a3 * (a3 * yy0 + 2.0 * hh4 * yy1 + h * yv0) + hh4 * (hh4 * yy2 + h * yv1 + vv0)
        g3 = S_h / T + 2.0 * I3 / T
        a4, b4 = 1.0 + hh2 * g2, h + hhh4 * g2
        I4 = (a4 * (a4 * yy0 + hh * yy1 + 2.0 * (b4 * yv0 + hhh4 * yv1))
              + hh2 * (hh2 * yy2 + 2.0 * (b4 * yv1 + hhh4 * yv2))
              + b4 * (b4 * vv0 + 2.0 * hhh4 * vv1) + hhh4 * hhh4 * vv2)
        g4 = S_e / T + 2.0 * I4 / T
        P += c_v * ((S + 4.0 * S_h + S_e) / (2.0 * T) + (yy0 + 2.0 * (I2 + I3) + I4) / T)
        # on the rows of the state, k_1 = (g1, 0, 1, 0, 0, 0), k_2 = (g2, h2 g2,
        # 1, h2, 0, 0), k_3 = (g3 a3, h2 g3, g3 hh4 + a3, h2, hh4, 0) and k_4 =
        # (g4 a4, g4 b4, g4 hh2 + a4, g4 hhh4 + b4, hh2, hhh4)
        coef_flat[:] = (1.0 + c_y * (g1 + g2 + g3 * a3), h + c_y * h2 * (g2 + g3),
                        c_y * (2.0 + g3 * hh4 + a3), c_y * h, c_y * hh4, 0.0,
                        c_v * (g1 + 2.0 * (g2 + g3 * a3) + g4 * a4),
                        1.0 + c_v * (h * (g2 + g3) + g4 * b4),
                        c_v * (3.0 + 2.0 * (g3 * hh4 + a3) + g4 * hh2 + a4),
                        c_v * (2.0 * h + g4 * hhh4 + b4), c_v * hh, c_v * hhh4)
        np.dot(coef, rows, out=bufs[1 - i % 2][1])
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

