"""Deformed orthogonal-polynomial ensembles at finite n.

The central objects are the orthogonal polynomials for the weights

    undeformed:  e^{-n V(x)}
    deformed:    sigma_n(x) e^{-n V(x)},   sigma_n(x) = 1/(1 + e^{-s - n^{2/3} Q(x)})

on a panelized quadrature grid.  All recurrence data is kept in log scale, and
polynomial values are only ever materialized multiplied by half-weights
e^{log w / 2}, which keeps every intermediate quantity of order one.  The
recurrences start from e^{-nV/2} on the nodes, so n is bounded by that start
staying a normal float (>= e^{-708.4}) on the support: n max V / 2 <= 708.4
there, which is n <= 708 for V = 2(1+x)^2 (V = 2 at both edges).  Beyond the
bound build_tables raises BreakdownError rather than return tables that have
lost nodes.

The Stieltjes procedure sweeps the nodes in place, on four preallocated
buffers.  One generator of the three-term recurrence yields the weighted
orthonormal values row by row: weighted_values stacks them into a matrix,
kernel_trace sums their squares as they come and holds no n x N matrix, and
the edge kernel runs the same recurrence on its two points as plain floats.

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
    running renormalization Lambda_k, so no intermediate ever overflows.  A
    step writes into four node-length buffers and allocates nothing.
    """
    x = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    lw = np.asarray(log_weight, dtype=float)
    if K < 1 or K > x.size:
        raise DomainError("need 1 <= K <= number of nodes")
    alpha = np.empty(K)
    log_h = np.empty(K)
    wx = w * x
    A = np.exp(0.5 * lw)  # p_0 = 1 at scale Lambda_0 = 0
    B = np.zeros_like(A)
    C = np.empty_like(A)
    T = np.empty_like(A)
    lam = 0.0
    lam_prev = 0.0
    for k in range(K):
        np.multiply(w, A, out=T)
        T *= A
        norm2 = float(T.sum())
        if not (np.isfinite(norm2) and norm2 > 0):
            raise BreakdownError(f"recurrence lost positivity at k={k}")
        log_h[k] = math.log(norm2) + 2.0 * lam
        np.multiply(wx, A, out=T)
        T *= A
        alpha[k] = float(T.sum()) / norm2
        if k == K - 1:
            break
        np.subtract(x, alpha[k], out=C)
        C *= A
        if k:
            scale = math.exp(log_h[k] - log_h[k - 1] + lam_prev - lam)
            np.multiply(B, scale, out=T)
            C -= T
        m = float(np.abs(C, out=T).max())
        if not (np.isfinite(m) and m > 0):
            raise BreakdownError(f"recurrence degenerated at k={k}")
        C /= m
        A, B, C = C, A, B
        lam_prev, lam = lam, lam + math.log(m)
    return RecurrenceTable(alpha, log_h)


def _rows(table, n, x, lwh):
    """Phat_k(x) e^{lwh} for k = 0..n-1, one row at a time.

    x and lwh are node arrays or plain floats: the one three-term recurrence
    serves both, and e^{lwh} is rounded by np.exp either way, so a point gets
    the same numbers in both forms.  The augmented assignments work in place
    on arrays and rebind floats, so an array step allocates the new row and
    one temporary.  Each row is a new object, so a caller may keep it.
    """
    if n > table.K - 1:
        raise DomainError("table too short for requested n (need K >= n+1)")
    al, sb = table.alpha.tolist(), table.sqrt_beta.tolist()
    u = np.exp(lwh - 0.5 * table.log_h[0])
    if isinstance(x, float):
        u = float(u)
    up = None
    for k in range(n):
        yield u
        # Phat_{k+1} = ((x - alpha_k) Phat_k - sqrt(beta_k) Phat_{k-1}) / sqrt(beta_{k+1})
        v = x - al[k]
        v *= u
        if k:
            v -= up * sb[k - 1]
        v /= sb[k]
        u, up = v, u


def weighted_values(table, n, x, log_w_half):
    """Matrix U[k, i] = Phat_k(x_i) e^{log_w_half_i} for k < n.

    Phat_k are the orthonormal polynomials of the table's measure; folding the
    half-weight into the recurrence keeps all values of moderate size.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lwh = np.broadcast_to(np.asarray(log_w_half, dtype=float), x.shape)
    U = np.empty((n, x.size))
    for k, u in enumerate(_rows(table, n, x, lwh)):
        U[k] = u
    return U


def kernel_trace(grid, table, n, log_weight):
    """int K_n(x,x) w(x) dx over the grid; equals n for a consistent table.

    K_n(x_i, x_i) w(x_i) = sum_k U_ki^2 is summed row by row as the recurrence
    yields U, so no n x N matrix is formed.
    """
    diag = np.zeros(grid.nodes.size)
    for u in _rows(table, n, grid.nodes, 0.5 * np.asarray(log_weight)):
        diag += u * u
    return float(np.sum(grid.weights * diag))


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


def rescaled_edge_kernel(eq, table_def, n, u, v):
    """Edge-rescaled weighted CD kernel of the deformed ensemble.

    Returns e^{-n(V(u_n)+V(v_n))/2} K_n(u_n, v_n) / (c_V n^{2/3}) with
    u_n = u / (c_V n^{2/3}); the half-weights are folded into the recurrence
    in log scale, which runs on the two points as plain floats.
    """
    scale = eq.c_v * float(n) ** (2.0 / 3.0)
    xy = np.array([u, v], dtype=float) / scale
    lwh = -0.5 * n * eq.V(xy)
    (xu, xv), (lu, lv) = xy.tolist(), lwh.tolist()
    rows = zip(_rows(table_def, n, xu, lu), _rows(table_def, n, xv, lv))
    return float(np.sum([a * b for a, b in rows])) / scale


def norming_ratio(eq, table_def, n):
    """rho_n = (4 pi / a) exp(2 n ell_V - log h_{n-1}(s)); tends to 1/2."""
    if eq.ell is None:
        raise DomainError("equilibrium data lacks the Lagrange constant")
    return (4.0 * np.pi / eq.a) * math.exp(2.0 * n * eq.ell - table_def.log_h[n - 1])


def build_tables(eq, Q, n, s):
    """Convenience: grid plus deformed and undeformed recurrence tables, n + 1 terms.

    Raises BreakdownError, naming n and the worst node, where the start
    e^{-nV/2} of the recurrences is below the smallest normal float on the
    support [-a, 0]: the node would lose its digits, or drop out of the
    measure, with no breakdown in the recurrence itself.
    """
    grid = build_grid(eq, n)
    on_support = np.flatnonzero((grid.nodes >= -eq.a) & (grid.nodes <= 0.0))
    worst = on_support[np.argmin(grid.log_w_und[on_support])]
    start = np.exp(0.5 * grid.log_w_und[worst])
    if start < np.finfo(float).tiny:
        raise BreakdownError(
            f"build_tables at n={n}: the recurrence start e^(-nV/2) is {start:.3g} at the "
            f"support node x={grid.nodes[worst]:.6g}, below the smallest normal float")
    lsig = log_sigma(Q, n, s, grid.nodes)
    t_und = stieltjes_recurrence(grid.nodes, grid.weights, grid.log_w_und, n + 1)
    t_def = stieltjes_recurrence(grid.nodes, grid.weights, grid.log_w_und + lsig, n + 1)
    return grid, t_und, t_def, lsig
