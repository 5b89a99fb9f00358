"""Independent oracles for the tests; nothing in the program calls them.

Finite-n ensemble: the allocating loops of the recurrences (orthonormal
Stieltjes procedure, weighted orthonormal values, kernel trace, edge kernel)
as straight array code.  The in-place and streamed forms in airylab.ensemble
do the same arithmetic in the same order (the Stieltjes step takes beta and
sum w x C^2 from one product of C^2 with the stacked (w, w x) in both), so
the tests require bitwise equality with these.  stieltjes_recurrence_monic
carries monic values renormalized by max |C|, another arithmetic, which the
tests hold the orthonormal sweep against to rounding.  cd_kernel and
log_partition are built on them and on the recurrence data alone.
deformation_matrix forms U on every node the drop rule keeps, as one slab,
and M as one product: the blocked assembly in airylab.ensemble must keep the
same nodes, drop the same trace and agree to rounding.  window_grid pads the support by 1/2 past each
edge and by graded tails out to the weight window n (V - min V) <= 400, with
no use of the effective potential: the grid of build_grid, which ends on the
Airy scale, is held against it.
core_regrid rebuilds a production grid with another number of equal panels
between the same ends, for the self-convergence test of the grid size.

Equilibrium edge data: the exterior phase phi_right, the conformal map
conformal_psi and the Euler-Lagrange residual el_residual, which the tests
hold against the closed forms and against c_V and the Lagrange constant.
el_residual integrates the log potential by graded panel quadrature in the
angle, a route independent of the cosine expansion that gives ell in
airylab.equilibrium.

Id-PII reads: scalar_read (I or P) and field_read (Phi and dPhi) build
scipy's piecewise quintic Hermite interpolant, BPoly.from_derivatives, over
every stored layer from each layer's value and first two S-derivatives, the
derivatives of the fields formed on the whole xi grid from the equation and
then read at xi by the cubic Lagrange stencil; k_infinity is built from
field_read.  airylab.idpii brackets S itself, forms the derivatives only on
the stencil columns and writes the quintic out, so the tests require
agreement with these to rounding.

Airy kernels: the pointwise classical kernel airy_kernel and the
finite-temperature kernel ft_airy_kernel, which the tests compare entry by
entry with the Nystrom matrices of airylab.fredholm.

Fermi-Dirac integrals: f_k_closed sums the polylog series
F_k(y) = -k! Li_{k+2}(-e^{-y}) for integer k >= 0 and y >= 0, a route
independent of the panel quadrature of airylab.special.f_beta_quad.
"""

import math

import numpy as np
from scipy.interpolate import BPoly

from airylab.ensemble import DROP_TOL, EnsembleGrid, RecurrenceTable
from airylab.errors import ConvergenceError, DomainError
from airylab.fredholm import _zeta_scheme
from airylab.numerics import RULE16, PanelScheme, integrate_panels
from airylab.special import _airy_cut, logistic


def stieltjes_recurrence(nodes, weights, log_weight, K):
    """Orthonormal discretized Stieltjes procedure, allocating at every step."""
    x = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    lw = np.asarray(log_weight, dtype=float)
    alpha = np.empty(K)
    log_h = np.empty(K)
    C = np.exp(0.5 * lw)
    A = np.zeros_like(C)
    for k in range(K):
        norm2, first = (np.stack((w, w * x)) @ (C * C)).tolist()
        log_h[k] = math.log(norm2) + (log_h[k - 1] if k else 0.0)
        alpha[k] = first / norm2
        if k == K - 1:
            break
        sb = math.sqrt(norm2)
        B, A = A, C / sb
        C = (x - alpha[k]) * A - B * sb if k else (x - alpha[k]) * A
    return RecurrenceTable(alpha, log_h)


def stieltjes_recurrence_monic(nodes, weights, log_weight, K):
    """Discretized Stieltjes procedure on monic values renormalized by max |C|.

    The values are carried as p_k(x_i) e^{log_weight_i/2} e^{-Lambda_k}, p_k
    monic, Lambda_k a running log-scale; h_k is the norm of that vector times
    e^{2 Lambda_k}.  An arithmetic apart from airylab.ensemble's orthonormal
    sweep, which the tests hold against it to rounding.
    """
    x = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    lw = np.asarray(log_weight, dtype=float)
    alpha = np.empty(K)
    log_h = np.empty(K)
    A = np.exp(0.5 * lw)
    B = np.zeros_like(A)
    lam = 0.0
    lam_prev = 0.0
    for k in range(K):
        norm2, first = (np.stack((w, w * x)) @ (A * A)).tolist()
        log_h[k] = math.log(norm2) + 2.0 * lam
        alpha[k] = first / norm2
        if k == K - 1:
            break
        if k == 0:
            C = (x - alpha[k]) * A
        else:
            scale = math.exp(log_h[k] - log_h[k - 1] + lam_prev - lam)
            C = (x - alpha[k]) * A - scale * B
        m = float(np.max(np.abs(C)))
        B, A = A, C / m
        lam_prev, lam = lam, lam + math.log(m)
    return RecurrenceTable(alpha, log_h)


def weighted_values(table, n, x, log_w_half):
    """U[k, i] = Phat_k(x_i) e^{log_w_half_i}, k < n, filled row by row."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lwh = np.broadcast_to(np.asarray(log_w_half, dtype=float), x.shape)
    U = np.empty((n, x.size))
    u_prev = np.zeros_like(x)
    u = np.exp(lwh - 0.5 * table.log_h[0])
    sb = table.sqrt_beta
    for k in range(n):
        U[k] = u
        u, u_prev = ((x - table.alpha[k]) * u - (sb[k - 1] if k else 0.0) * u_prev) / sb[k], u
    return U


def kernel_trace(grid, table, n, log_weight):
    """int K_n(x,x) w(x) dx from the full n x N matrix of weighted values."""
    U = weighted_values(table, n, grid.nodes, 0.5 * np.asarray(log_weight))
    return float(np.sum(grid.weights * np.einsum("ki,ki->i", U, U)))


def deformation_matrix(grid, table_und, n, log_sigma_nodes):
    """M, dropped and the kept node indices, from one slab of U on the kept nodes.

    The drop rule of airylab.ensemble.deformation_matrix: node i is kept where
    n (1 - sigma_i) > DROP_TOL / N, and dropped sums n (1 - sigma_i) over the
    rest.  U is formed on every kept node at once, and M = V V^T.
    """
    one_minus_sigma = -np.expm1(np.asarray(log_sigma_nodes, dtype=float))
    bound = n * one_minus_sigma
    kept = np.flatnonzero(bound > DROP_TOL / bound.size)
    dropped = float(np.sum(np.delete(bound, kept)))
    V = weighted_values(table_und, n, grid.nodes[kept], 0.5 * grid.log_w_und[kept])
    V *= np.sqrt(grid.weights[kept] * one_minus_sigma[kept])
    return V @ V.T, dropped, kept


def window_grid(eq, n):
    """Grid for the ensemble with potential eq.V at size n, out to its weight window.

    The window is n (V - min V) <= 400: its ends are the outermost real roots
    of V - min V - 400 / n (a validated V has one on each side of its
    minimizer), each moved out by 10% of its distance to the support where it
    lies outside it.  The core [-a - 0.5, 0.5] carries
    ceil(2 (a + 1) n / (3 a)) + 20 equal panels.  A side gets a tail of 20
    geometrically graded panels up to its window end only where that end
    lies more than one core panel past the core; an end closer than that
    stretches the end panel to it.  So from n = 95 on 2(1+x)^2 the grid is
    the core alone.

    The core count follows from what a panel must integrate: Phat_k Phat_j
    e^{-nV}, k, j <= n, has about 2n zeros on the support [-a, 0], so a core
    panel of length (a + 1) / n_core holds about 2 (a + 1) n / (a n_core) of
    them, and the count holds that to three per 16-node panel: ceil(n) + 20
    panels on 2(1+x)^2 (a = 2), ceil(0.87 n) + 20 on x^2/2 + x^4/20
    (a = 3.35), 2n + 20 on 32(1+x)^2 (a = 0.5).
    """
    if n < 1:
        raise DomainError("n must be positive")
    cap = float(np.min(eq.V(eq.V.dpoly.real_roots()))) + 400.0 / float(n)
    ends = eq.V.poly.real_roots(cap)
    # widen by 10% of the distance to the support
    left_win = ends.min() - 0.1 * max(-eq.a - ends.min(), 0.0)
    right_win = ends.max() + 0.1 * max(ends.max(), 0.0)
    left_core, right_core = -eq.a - 0.5, 0.5
    n_core = math.ceil(2.0 * (eq.a + 1.0) * n / (3.0 * eq.a)) + 20
    bp = np.linspace(left_core, right_core, n_core + 1)
    panel = bp[1] - bp[0]
    # geometric tails: panel lengths grow by a fixed ratio away from the core
    glen = np.cumsum(1.6 ** np.arange(20))
    glen /= glen[-1]
    if left_win < left_core - panel:
        bp = np.concatenate((left_core - (left_core - left_win) * glen[::-1], bp))
    else:
        bp[0] = min(left_core, left_win)
    if right_win > right_core + panel:
        bp = np.concatenate((bp, right_core + (right_win - right_core) * glen))
    else:
        bp[-1] = max(right_core, right_win)
    return EnsembleGrid(eq, n, PanelScheme(bp))


def core_regrid(eq, n, grid, scale):
    """The grid with int(scale * c) equal panels between its ends in place of its c.

    The ends follow from the outer nodes: the nodes of the rule are symmetric,
    so a panel's midpoint is that of its outer nodes, and its half length
    their distance over that of the rule's outer nodes.  scale = 3 splits
    every panel in three.
    """
    m = RULE16.size
    x = grid.nodes.reshape(-1, m)[[0, -1]]
    mid = 0.5 * (x[:, 0] + x[:, -1])
    half = (x[:, -1] - x[:, 0]) / (RULE16.nodes[-1] - RULE16.nodes[0])
    lo, hi = mid[0] - half[0], mid[1] + half[1]
    panels = int(scale * (grid.nodes.size // m))
    return EnsembleGrid(eq, n, PanelScheme(np.linspace(lo, hi, panels + 1)))


def rescaled_edge_kernel(eq, table_def, n, u, v):
    """Edge-rescaled weighted CD kernel from a two-column weighted_values."""
    scale = eq.c_v * float(n) ** (2.0 / 3.0)
    xy = np.array([u, v], dtype=float) / scale
    lwh = -0.5 * n * eq.V(xy)
    U = weighted_values(table_def, n, xy, lwh)
    return float(np.sum(U[:, 0] * U[:, 1])) / scale


def cd_kernel(table, n, x, y):
    """Christoffel-Darboux kernel K_n(x, y) = sum_{k<n} Phat_k(x) Phat_k(y)."""
    ux = weighted_values(table, n, [x], 0.0)[:, 0]
    uy = weighted_values(table, n, [y], 0.0)[:, 0]
    return float(np.sum(ux * uy))


def log_partition(table, n):
    """log Z_n = log n! + sum_{k<n} log h_k (Heine / Hankel identity)."""
    return math.lgamma(n + 1) + float(np.sum(table.log_h[:n]))


def _phi_scheme(z):
    n_panels = max(8, int(np.ceil(np.sqrt(z) / 0.25)))
    return PanelScheme(np.linspace(0.0, np.sqrt(z), n_panels + 1))


def phi_right(eq, z):
    """Exterior phase phi(z) = int_0^z (1/2) sqrt(s(s+a)) h(s) ds for z >= 0.

    Uses the substitution s = w^2, which makes the integrand smooth at the
    origin.
    """
    if z < 0:
        raise DomainError("phi_right needs z >= 0")
    if z == 0:
        return 0.0
    return float(integrate_panels(lambda w: w * w * np.sqrt(w * w + eq.a) * eq.h(w * w),
                                  _phi_scheme(z)))


def conformal_psi(eq, z):
    """Conformal edge coordinate psi(z) = ((3/2) phi(z))^{2/3}, psi'(0) = c_V."""
    return (1.5 * phi_right(eq, z)) ** (2.0 / 3.0)


def _graded_breaks(lo, hi, sing, n_geo=45):
    """Panel breakpoints on [lo, hi], geometrically refined toward sing."""
    pts = [lo, hi]
    for side, end in ((-1.0, lo), (1.0, hi)):
        span = abs(end - sing)
        if span <= 0:
            continue
        d = span
        for _ in range(n_geo):
            d *= 0.5
            pts.append(sing + side * d)
    # a few uniform points away from the singularity
    pts.extend(np.linspace(lo, hi, 9).tolist())
    pts = np.unique(np.clip(np.asarray(pts), lo, hi))
    return pts[np.concatenate(([True], np.diff(pts) > 1e-300))]


def _log_potential(eq, x0):
    """U(x0) = -int log|x0 - y| rho(y) dy via the theta substitution."""
    a, h = eq.a, eq.h

    def integrand(theta):
        y = -a * np.sin(0.5 * theta) ** 2
        return np.sin(theta) ** 2 * h(y) * np.log(np.abs(x0 - y))

    if -a < x0 < 0:
        c = 1.0 - 2.0 * abs(x0) / a
        sing = float(np.arccos(np.clip(c, -1.0, 1.0)))
        breaks = _graded_breaks(0.0, np.pi, sing)
    else:
        breaks = np.linspace(0.0, np.pi, 33)
    scheme = PanelScheme(breaks)
    vals = integrand(scheme.nodes)
    vals[~np.isfinite(vals)] = 0.0  # node exactly at the log singularity
    integral = float(np.sum(vals * scheme.weights))
    return -(a * a / (8.0 * np.pi)) * integral


def el_residual(eq, x):
    """Euler-Lagrange residual -U(x) - V(x)/2 - ell (zero on the support)."""
    return -_log_potential(eq, float(x)) - 0.5 * float(eq.V(x)) - eq.ell


def airy_kernel(u, v):
    """Classical Airy kernel, with the confluent diagonal handled explicitly.

    Each Airy factor is cut to zero beyond 30, as in build_nystrom_airy, so
    the kernel is defined at every mapped node, however far out.
    """
    if abs(u - v) < 1e-5:
        m = 0.5 * (u + v)
        return float(_airy_cut(m, prime=True) ** 2 - m * _airy_cut(m) ** 2)
    return float((_airy_cut(u) * _airy_cut(v, prime=True)
                  - _airy_cut(u, prime=True) * _airy_cut(v)) / (u - v))


def ft_airy_kernel(u, v, T):
    """Finite-temperature Airy kernel K_T(u, v) by panel quadrature in zeta.

    The zeta grid is fredholm._zeta_scheme at min(u, v).  There is no cut on
    u and v: at small T the Fermi factor reaches far to the left, and K_T is
    not negligible at u = v = 35 (9.5e-9 at T = 1/8).
    """
    if T <= 0:
        raise DomainError("temperature parameter must be positive")
    scheme = _zeta_scheme(T, min(u, v))
    z = scheme.nodes
    f = logistic(T ** (1.0 / 3.0) * z) * _airy_cut(u + z) * _airy_cut(z + v)
    return float(np.sum(f * scheme.weights))


def _lagrange_stencil(sol, xi, deriv):
    """Row -> its value (or xi-derivative) at the points xi by the 4-point
    Lagrange stencil on offsets (-1, 0, 1, 2) of the xi grid."""
    xg = sol.xi_grid
    h = xg[1] - xg[0]
    idx = np.clip(((xi - xg[0]) / h).astype(int), 1, xg.size - 3)
    t = (xi - xg[idx]) / h
    if deriv:
        basis = (-(3 * t * t - 6 * t + 2.0) / 6.0, (3 * t * t - 4 * t - 1.0) / 2.0,
                 -(3 * t * t - 2 * t - 2.0) / 2.0, (3 * t * t - 1.0) / 6.0)
        basis = [b / h for b in basis]
    else:
        basis = (-t * (t - 1.0) * (t - 2.0) / 6.0, (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
                 -(t + 1.0) * t * (t - 2.0) / 2.0, (t + 1.0) * t * (t - 1.0) / 6.0)

    def stencil(row):
        return (row[idx - 1] * basis[0] + row[idx] * basis[1]
                + row[idx + 1] * basis[2] + row[idx + 2] * basis[3])

    return stencil


def _check_range(S_desc, S):
    if S > S_desc[0] + 1e-12 or S < S_desc[-1] - 1e-12:
        raise DomainError("S outside the stored range")


def scalar_read(sol, S, which):
    """I or P at S: scipy's piecewise quintic from (value, first, second
    S-derivative) on every stored layer, the derivatives of P from
    dP/dS = S/(2T) + I/T."""
    Sg, T = sol.S_grid, sol.T
    _check_range(Sg, S)
    if which == "I":
        data = (sol.I_of_S, sol.dI_of_S, sol.d2I_of_S)
    else:
        data = (sol.P_of_S, Sg / (2.0 * T) + sol.I_of_S / T, 1.0 / (2.0 * T) + sol.dI_of_S / T)
    yi = np.stack(data, axis=1)[::-1]
    return float(BPoly.from_derivatives(Sg[::-1], yi)(S))


def field_read(sol, S, xi, deriv=False):
    """(Phi, dPhi) at (xi, S), shape (2, len(xi)).

    On every stored layer the rows of (Phi, dPhi) and of their first and second
    S-derivatives from the equation, (dPhi, (xi + g) Phi) and ((xi + g) Phi,
    g' Phi + (xi + g) dPhi) with g = S/T + 2 I/T and g' = (1 + 2 I')/T, are
    formed on the whole xi grid and read at xi by the Lagrange stencil;
    scipy's piecewise quintic in S joins the layers.
    """
    _check_range(sol.S_grid, S)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    stencil = _lagrange_stencil(sol, xi, deriv)
    T, xg = sol.T, sol.xi_grid
    yi = []
    for S_k, I_k, dI_k, (phi, dphi) in zip(sol.S_grid, sol.I_of_S, sol.dI_of_S, sol.fields):
        g = S_k / T + 2.0 * I_k / T
        dg = (1.0 + 2.0 * dI_k) / T
        acc = (xg + g) * phi
        rows = [(phi, dphi), (dphi, acc), (acc, dg * phi + (xg + g) * dphi)]
        yi.append([[stencil(r) for r in pair] for pair in rows])
    return BPoly.from_derivatives(sol.S_grid[::-1], np.array(yi)[::-1])(S)


def k_infinity(sol, u, v, s, t_param):
    """K_inf(u, v | s, t) from field_read at S = s t^{-3/2}."""
    S = s * t_param ** (-1.5)
    xs = np.array([-s + t_param * u, -s + t_param * v])
    p1, p2 = field_read(sol, S, xs)
    if abs(u - v) < 1e-6:
        d1, d2 = t_param * field_read(sol, S, xs, deriv=True)
        return float(d1[0] * p2[0] - p1[0] * d2[0])
    return float((p1[0] * p2[1] - p1[1] * p2[0]) / (u - v))


def f_k_closed(k, y):
    """F_k(y) for integer k >= 0 and y >= 0 via the polylog series.

    F_k(y) = -k! Li_{k+2}(-e^{-y}) = k! sum_{m>=1} (-1)^{m+1} e^{-my} / m^{k+2}.
    Adjacent terms are paired so that the partial sums converge absolutely;
    the sum stops once a pair drops below 1e-17 relative to the head term.
    """
    if int(k) != k or k < 0:
        raise DomainError("k must be a non-negative integer")
    if y < 0:
        raise DomainError("the series route needs y >= 0")
    k = int(k)
    s = k + 2
    x = np.exp(-y)
    fact = float(math.factorial(k))
    total = 0.0
    block = 4096
    j0 = 1
    head = x  # first term magnitude
    for _ in range(200000):
        j = np.arange(j0, j0 + block)
        odd = 2 * j - 1
        pairs = x ** odd / odd.astype(float) ** s - x ** (2 * j) / (2.0 * j) ** s
        total += float(np.sum(pairs))
        last = abs(pairs[-1])
        j0 += block
        if last < 1e-17 * max(head, 1e-300) or x ** (2 * j0) == 0.0:
            break
    else:
        raise ConvergenceError("polylog series did not terminate")
    return fact * total
