"""Deformed orthogonal-polynomial ensembles at finite n.

The central objects are the orthogonal polynomials for the weights

    undeformed:  e^{-n V(x)}
    deformed:    sigma_n(x) e^{-n V(x)},   sigma_n(x) = 1/(1 + e^{-s - n^{2/3} Q(x)})

on a panelized quadrature grid.  All recurrence data is kept in log scale so
that n up to a few hundred poses no dynamic-range problem, and polynomial
values are only ever materialized multiplied by half-weights e^{log w / 2},
which keeps every intermediate quantity of order one.

Two independent routes to the multiplicative linear statistic
L_n = E prod sigma_n(lambda_j) are provided: a ratio of norming constants
(Heine identity) and a Fredholm-type determinant of the deformation in the
basis of undeformed orthonormal polynomials.
"""

import math

import numpy as np

from .errors import BreakdownError, DomainError
from .numerics import RULE16, PanelScheme, RealPolynomial, lu_logdet
from .special import log_logistic


class DeformationQ:
    """Polynomial deformation Q with Q(0) = 0, t = -Q'(0) > 0 and one sign change.

    The sign condition (Q > 0 left of the origin, Q < 0 right of it) is checked
    on 201 points of [-6, 6].
    """

    def __init__(self, coeffs):
        p = RealPolynomial(coeffs)
        if p(0.0) != 0.0:
            raise DomainError("deformation must vanish at the origin")
        t = -p.derivative()(0.0)
        if not t > 0:
            raise DomainError("deformation must have -Q'(0) > 0")
        xs = np.linspace(-6.0, 6.0, 201)
        vals = p(xs)
        bad = (xs < 0) & (vals <= 0) | (xs > 0) & (vals >= 0)
        if np.any(bad):
            raise DomainError("deformation violates the sign condition on [-6, 6]")
        self.poly = p
        self.t = float(t)

    def __call__(self, x):
        return self.poly(x)


def log_sigma(Q, n, s, x):
    """log sigma_n(x) = log logistic(s + n^{2/3} Q(x)), overflow-free."""
    if n < 1:
        raise DomainError("n must be positive")
    return log_logistic(s + float(n) ** (2.0 / 3.0) * Q(x))


class EnsembleGrid:
    """Panel quadrature grid adapted to the weight e^{-n V} of one ensemble."""

    def __init__(self, eq, n, scheme):
        self.nodes = scheme.nodes
        self.weights = scheme.weights
        self.log_w_und = -float(n) * eq.V(self.nodes)


def build_grid(eq, n):
    """Grid for the ensemble with potential eq.V at size n.

    The window is where n (V - min V) <= 400, widened by 10%; the core
    [-a - 0.5, 0.5] carries ceil(3n) + 20 equal panels and each tail up to the
    window edge carries 20 geometrically graded panels.
    """
    if n < 1:
        raise DomainError("n must be positive")
    V = eq.V
    crit = np.roots(V.dpoly.coeffs[::-1])
    crit = crit[np.abs(crit.imag) < 1e-10].real
    v_min = float(np.min(V(crit)))
    cap = v_min + 400.0 / float(n)

    def expand(x0, direction):
        x = x0
        step = 0.5
        while V(x) < cap:
            x += direction * step
            step *= 1.5
            if abs(x) > 1e6:
                raise BreakdownError("weight window did not close")
        # bisect V(x) = cap between the start point and the last probe
        a_, b_ = (x0, x) if direction > 0 else (x, x0)
        for _ in range(80):
            mid = 0.5 * (a_ + b_)
            if (V(mid) < cap) == (direction > 0):
                a_ = mid
            else:
                b_ = mid
        return 0.5 * (a_ + b_)

    left_core, right_core = -eq.a - 0.5, 0.5
    left_win = expand(-eq.a, -1.0)
    right_win = expand(0.0, +1.0)
    # widen by 10% of the distance to the support
    left_win -= 0.1 * (-eq.a - left_win) if left_win < -eq.a else 0.0
    right_win += 0.1 * right_win if right_win > 0 else 0.0
    left_win = min(left_win, left_core - 1e-9)
    right_win = max(right_win, right_core + 1e-9)

    n_core = int(np.ceil(3 * n)) + 20
    breaks = [np.linspace(left_core, right_core, n_core + 1)]
    # geometric tails: panel lengths grow by a fixed ratio away from the core
    ratio = 1.6
    glen = np.cumsum(ratio ** np.arange(20))
    glen /= glen[-1]
    breaks.insert(0, left_core - (left_core - left_win) * glen[::-1])
    breaks.append(right_core + (right_win - right_core) * glen)
    bp = np.unique(np.concatenate(breaks))
    return EnsembleGrid(eq, n, PanelScheme(bp, RULE16))


class RecurrenceTable:
    """Three-term recurrence data: alpha_k and log h_k for k = 0..K-1.

    sqrt_beta[k - 1] = sqrt(beta_k) = sqrt(h_k / h_{k-1}) for k = 1..K-1.
    """

    def __init__(self, alpha, log_h):
        self.alpha = np.asarray(alpha, dtype=float)
        self.log_h = np.asarray(log_h, dtype=float)
        self.K = self.alpha.size
        self.sqrt_beta = np.exp(0.5 * np.diff(self.log_h))


def stieltjes_recurrence(nodes, weights, log_weight, K):
    """Discretized Stieltjes procedure in log scale.

    Builds alpha_k and log h_k, k < K, of the monic orthogonal polynomials of
    the discrete measure sum_i w_i e^{log_weight_i} delta_{x_i}.  Polynomial
    values are carried as p_k(x_i) e^{log_weight_i/2} e^{-Lambda_k} with a
    running renormalization Lambda_k, so no intermediate ever overflows.
    """
    x = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    lw = np.asarray(log_weight, dtype=float)
    if K < 1 or K > x.size:
        raise DomainError("need 1 <= K <= number of nodes")
    alpha = np.empty(K)
    log_h = np.empty(K)
    A = np.exp(0.5 * lw)  # p_0 = 1 at scale Lambda_0 = 0
    B = np.zeros_like(A)
    lam = 0.0
    lam_prev = 0.0
    for k in range(K):
        norm2 = float(np.sum(w * A * A))
        if not (np.isfinite(norm2) and norm2 > 0):
            raise BreakdownError(f"recurrence lost positivity at k={k}")
        log_h[k] = math.log(norm2) + 2.0 * lam
        alpha[k] = float(np.sum(w * x * A * A)) / norm2
        if k == K - 1:
            break
        if k == 0:
            C = (x - alpha[k]) * A
        else:
            scale = math.exp(log_h[k] - log_h[k - 1] + lam_prev - lam)
            C = (x - alpha[k]) * A - scale * B
        m = float(np.max(np.abs(C)))
        if not (np.isfinite(m) and m > 0):
            raise BreakdownError(f"recurrence degenerated at k={k}")
        B, A = A, C / m
        lam_prev, lam = lam, lam + math.log(m)
    return RecurrenceTable(alpha, log_h)


def weighted_values(table, n, x, log_w_half):
    """Matrix U[k, i] = Phat_k(x_i) e^{log_w_half_i} for k < n.

    Phat_k are the orthonormal polynomials of the table's measure; folding the
    half-weight into the recurrence keeps all values of moderate size.
    """
    if n > table.K - 1:
        raise DomainError("table too short for requested n (need K >= n+1)")
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


def cd_kernel(table, n, x, y):
    """Christoffel-Darboux kernel K_n(x, y) = sum_{k<n} Phat_k(x) Phat_k(y).

    An independent test oracle kept on purpose (tests/test_ensemble.py,
    TestRecurrence::test_reproducing_property).
    """
    ux = weighted_values(table, n, [x], 0.0)[:, 0]
    uy = weighted_values(table, n, [y], 0.0)[:, 0]
    return float(np.sum(ux * uy))


def kernel_trace(grid, table, n, log_weight):
    """int K_n(x,x) w(x) dx over the grid; equals n for a consistent table."""
    U = weighted_values(table, n, grid.nodes, 0.5 * np.asarray(log_weight))
    return float(np.sum(grid.weights * np.einsum("ki,ki->i", U, U)))


def log_lstat_gamma(table_def, table_und, n):
    """log L_n as the norming-constant ratio sum_{k<n} (log h_k(s) - log h_k(inf))."""
    if n > table_def.K or n > table_und.K:
        raise DomainError("tables too short")
    return float(np.sum(table_def.log_h[:n] - table_und.log_h[:n]))


# The deformation matrix drops grid nodes whose summed contribution to its
# trace stays below this: a thousandth of the rounding unit of an O(1) entry.
DROP_TOL = 2.0 ** -52 * 1e-3


def _smallest_within(c, budget):
    """Mask of the smallest entries of c whose running sum stays <= budget, and that sum."""
    order = np.argsort(c)
    run = np.cumsum(c[order])
    k = int(np.searchsorted(run, budget, side="right"))
    mask = np.zeros(c.size, dtype=bool)
    mask[order[:k]] = True
    return mask, float(run[k - 1]) if k else 0.0


def deformation_matrix(grid, table_und, n, log_sigma_nodes):
    """M_jk = int Phat_j Phat_k (1 - sigma_n) e^{-nV} dx from the nodes that carry it.

    Node i adds the rank-one term w_i (1 - sigma_i) U[:, i] U[:, i]^T, whose
    trace is c_i = w_i (1 - sigma_i) sum_k U_ki^2.  Left of the right edge
    1 - sigma_n dies off within about n^{-2/3}, right of it e^{-nV} does, so
    most c_i are negligible.  The smallest c_i are dropped while their running
    sum stays <= DROP_TOL; orthonormality on the grid gives w_i U_ki^2 <= 1,
    so c_i <= n (1 - sigma_i), and half of DROP_TOL goes first to nodes this
    bound alone rules out, before U is formed on them.  M = V V^T with
    V = U[:, kept] sqrt(w (1 - sigma))[kept] is one symmetric rank-k product
    (BLAS SYRK: half the flops of a general product, exactly symmetric).

    Returns M and `dropped`, an upper bound on the trace of the positive
    semidefinite part D left out, so that M + D is the full-grid matrix.
    """
    one_minus_sigma = -np.expm1(np.asarray(log_sigma_nodes, dtype=float))
    ruled_out, dropped = _smallest_within(n * one_minus_sigma, 0.5 * DROP_TOL)
    live = np.flatnonzero(~ruled_out)
    wd = grid.weights[live] * one_minus_sigma[live]
    U = weighted_values(table_und, n, grid.nodes[live], 0.5 * grid.log_w_und[live])
    small, dropped_c = _smallest_within(wd * np.einsum("ki,ki->i", U, U), DROP_TOL - dropped)
    V = U[:, ~small]
    V *= np.sqrt(wd[~small])
    return V @ V.T, dropped + dropped_c


def log_lstat_det(grid, table_und, n, log_sigma_nodes):
    """log L_n as log det(I - M), M the deformation matrix in the undeformed basis.

    M_jk = int Phat_j Phat_k (1 - sigma_n) e^{-nV} dx, assembled by
    deformation_matrix from the grid nodes whose contribution is not
    negligible; 1 - sigma is evaluated stably from log sigma.  The nodes
    dropped there form a positive semidefinite D with trace(D) <= dropped
    <= DROP_TOL, and with tau = dropped / (1 - lambda_max(M)) the log-det of
    the full-grid matrix differs from the one returned by at most
    tau / (1 - tau), about 2e-19 / (1 - lambda_max(M)).  A spectral guard
    (one eigvalsh) verifies M is inside [0, 1) to 1e-8 before the
    determinant is taken; lambda_max(M) is also what the bound above needs.
    """
    M, dropped = deformation_matrix(grid, table_und, n, log_sigma_nodes)
    ev = np.linalg.eigvalsh(M)
    where = (f"log_lstat_det at n={n}: M has spectrum [{ev[0]:.6g}, {ev[-1]:.6g}] "
             f"after dropping trace {dropped:.3g}")
    if ev[0] < -1e-8 or ev[-1] > 1.0 + 1e-8:
        raise BreakdownError(f"{where}, outside [0, 1)")
    return lu_logdet(np.eye(n) - M, where)


def log_partition(table, n):
    """log Z_n = log n! + sum_{k<n} log h_k (Heine / Hankel identity).

    An independent test oracle kept on purpose (tests/test_ensemble.py,
    TestLinearStatistic::test_partition_function_shift and
    ::test_s_derivative_of_log_partition).
    """
    return math.lgamma(n + 1) + float(np.sum(table.log_h[:n]))


def rescaled_edge_kernel(eq, table_def, n, u, v):
    """Edge-rescaled weighted CD kernel of the deformed ensemble.

    Returns e^{-n(V(u_n)+V(v_n))/2} K_n(u_n, v_n) / (c_V n^{2/3}) with
    u_n = u / (c_V n^{2/3}); the half-weights are folded into the recurrence
    in log scale.
    """
    scale = eq.c_v * float(n) ** (2.0 / 3.0)
    xy = np.array([u, v], dtype=float) / scale
    lwh = -0.5 * n * eq.V(xy)
    U = weighted_values(table_def, n, xy, lwh)
    return float(np.sum(U[:, 0] * U[:, 1])) / scale


def norming_ratio(eq, table_def, n):
    """rho_n = (4 pi / a) exp(2 n ell_V - log h_{n-1}(s)); tends to 1/2."""
    if eq.ell is None:
        raise DomainError("equilibrium data lacks the Lagrange constant")
    return (4.0 * np.pi / eq.a) * math.exp(2.0 * n * eq.ell - table_def.log_h[n - 1])


def build_tables(eq, Q, n, s):
    """Convenience: grid plus deformed and undeformed recurrence tables, n + 1 terms."""
    grid = build_grid(eq, n)
    lsig = log_sigma(Q, n, s, grid.nodes)
    t_und = stieltjes_recurrence(grid.nodes, grid.weights, grid.log_w_und, n + 1)
    t_def = stieltjes_recurrence(grid.nodes, grid.weights, grid.log_w_und + lsig, n + 1)
    return grid, t_und, t_def, lsig
