"""Deformed orthogonal-polynomial ensembles at finite n.

The central objects are the orthogonal polynomials for the weights

    undeformed:  e^{-n V(x)}
    deformed:    sigma_n(x) e^{-n V(x)},   sigma_n(x) = 1/(1 + e^{-s - n^{2/3} Q(x)})

on a panelized quadrature grid.  The grid ends on the Airy scale past each
edge, where the weighted polynomials have died off by e^{-70}, and carries
about 2 (a + d_L + d_R) n / (3 a) panels of 16 Gauss-Legendre nodes, so that a
panel holds about three of the 2n zeros that the integrands
Phat_j Phat_k e^{-nV}, j, k <= n, have on the support [-a, 0] (6,384 nodes at
n = 512 on 2(1+x)^2); the grid still converges with half of them (build_grid).
Every sweep below is linear in the node count.  All recurrence data is kept
in log scale, and polynomial values are only ever materialized multiplied by
half-weights e^{log w / 2}, which keeps every intermediate quantity of order
one.  The recurrences start from e^{-nV/2} on the nodes, so n is bounded by
that start staying a normal float (>= e^{-708.4}) on the support:
n max V / 2 <= 708.4 there, which is n <= 708 for V = 2(1+x)^2 (V = 2 at both
edges).  Beyond the bound build_grid raises BreakdownError rather than
give recurrences a grid whose nodes would be lost.

The Stieltjes procedure carries the weighted orthonormal values and sweeps
the nodes in place, 7 node-length passes a step on four preallocated
buffers.  One generator of the three-term recurrence yields the weighted
orthonormal values row by row: weighted_values stacks them into a matrix,
kernel_trace sums their squares as they come and holds no n x N matrix, and
the edge kernel runs the same recurrence on its two points as plain floats.
The deformation matrix keeps the nodes where a bound on the trace they carry,
n (1 - sigma_n), is not negligible, and runs the recurrence once over them
through weighted_values, in node blocks of about BLOCK_ENTRIES values, so its
peak memory is O(n * block + n^2) however many nodes the grid has.  The
log-det solves only the trailing rows of M, past a leading block whose trace
is as negligible as the dropped nodes' (log_lstat_det).

Two independent routes to the multiplicative linear statistic
L_n = E prod sigma_n(lambda_j) are provided: a ratio of norming constants
(Heine identity) and a Fredholm-type determinant of the deformation in the
basis of undeformed orthonormal polynomials.
"""

import math

import numpy as np

from .errors import BreakdownError, ConvergenceError, DomainError
from .numerics import RULE16, PanelScheme, RealPolynomial
from .special import log_logistic


class DeformationQ:
    """Polynomial deformation Q with Q(0) = 0, t = -Q'(0) > 0 and one sign change.

    The sign condition (Q > 0 left of the origin, Q < 0 right of it) is checked
    on [min(-6, -a), 6], a the width of the support [-a, 0], over which the
    finite-n side reads Q.  There Q(x) = -x p(x) with p(0) = t > 0, so the
    condition holds exactly when p has no real root on that window.
    """

    def __init__(self, coeffs, a=0.0):
        p = RealPolynomial(coeffs)
        if p(0.0) != 0.0:
            raise DomainError("deformation must vanish at the origin")
        t = -p.derivative()(0.0)
        if not t > 0:
            raise DomainError("deformation must have -Q'(0) > 0")
        lo = min(-6.0, -float(a))
        roots = RealPolynomial(-p.coeffs[1:]).real_roots_in(lo, 6.0)
        if roots.size:
            x = roots[np.argmin(np.abs(roots))]  # the failing point nearest the origin
            raise DomainError(f"deformation violates the sign condition on [{lo:.6g}, 6] "
                              f"at x = {x:.6g}, a real root of -Q(x)/x")
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


# The grid ends where n phi = END_DECAY past each edge: the weighted
# orthonormal polynomials there carry e^{-70} = 4e-31 of their peak.
END_DECAY = 70.0


def build_grid(eq, n):
    """Grid for the ensemble with potential eq.V at size n.

    Past an edge the weighted orthonormal polynomials die off like e^{-n phi},
    phi the effective potential, phi' = h(x) sqrt(x (x + a)) outward (Deift,
    Kriecherbauer, McLaughlin, Venakides and Zhou, CPAM 52 (1999)).  The grid
    [-a - d_L, d_R] ends where n phi = END_DECAY.  phi(d) is integrated in
    w = sqrt(distance) on one 16-node panel, where it is smooth, and Newton
    starts from the leading term (1.5 END_DECAY / (n h sqrt(a)))^{2/3}, that is
    d = 14 / (c n^{2/3}) with c = c_V at the right edge and
    2^{-2/3} h(-a)^{2/3} a^{1/3} at the left.

    The grid carries ceil(2 (a + d_L + d_R) n / (3 a)) + 20 equal panels,
    sized by what a panel must integrate: Phat_k Phat_j e^{-nV}, k, j <= n,
    has about 2n zeros on the support [-a, 0], and the count holds that to
    about three per 16-node panel (6,384 nodes at n = 512 on 2(1+x)^2).  The
    margin is a factor of two: this count and half of it stay at the rounding
    floor against a grid with every panel split in three, while a quarter of
    it does not (tests/test_ensemble.py::TestGridConvergence).

    Raises BreakdownError, naming n and the worst node, where the start
    e^{-nV/2} of the recurrences is below the smallest normal float on the
    support [-a, 0]: the node would lose its digits, or drop out of the
    measure, with no breakdown in the recurrence itself.
    """
    if n < 1:
        raise DomainError("n must be positive")
    a, h = eq.a, eq.h
    edge, out = np.array([-a, 0.0]), np.array([-1.0, 1.0])
    d = (1.5 * END_DECAY / (n * h(edge) * math.sqrt(a))) ** (2.0 / 3.0)
    for _ in range(50):
        w = np.sqrt(d)[:, None] * (0.5 + 0.5 * RULE16.nodes)
        f = w * w * np.sqrt(w * w + a) * h(edge[:, None] + out[:, None] * w * w)
        phi = np.sqrt(d) * (f @ RULE16.weights)
        step = (n * phi - END_DECAY) / (n * h(edge + out * d) * np.sqrt(d * (d + a)))
        d -= step
        if np.all(np.abs(step) <= 1e-12 * d):
            break
    else:
        raise ConvergenceError(f"build_grid at n={n}: the grid ends did not converge")
    panels = math.ceil(2.0 * (a + d.sum()) * n / (3.0 * a)) + 20
    grid = EnsembleGrid(eq, n, PanelScheme(np.linspace(-a - d[0], d[1], panels + 1)))
    on_support = np.flatnonzero((grid.nodes >= -a) & (grid.nodes <= 0.0))
    worst = on_support[np.argmin(grid.log_w_und[on_support])]
    start = np.exp(0.5 * grid.log_w_und[worst])
    if start < np.finfo(float).tiny:
        raise BreakdownError(
            f"build_grid at n={n}: the recurrence start e^(-nV/2) is {start:.3g} at the "
            f"support node x={grid.nodes[worst]:.6g}, below the smallest normal float")
    return grid


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
    """Discretized Stieltjes procedure in orthonormal form (Gautschi,
    Orthogonal Polynomials: Computation and Approximation, OUP 2004, 2.2.3).

    Builds alpha_k and log h_k, k < K, of the monic orthogonal polynomials of
    the discrete measure sum_i w_i e^{log_weight_i} delta_{x_i}.  Polynomial
    values are carried as Ahat_k = Phat_k(x_i) e^{log_weight_i/2}, Phat_k
    orthonormal, so sum w Ahat_k^2 = 1 and no intermediate overflows; log h_k
    is kept only as a number.  A step forms
    C = (x - alpha_k) Ahat_k - sqrt(beta_k) Ahat_{k-1}, whose norm^2 is
    beta_{k+1} and whose sum w x C^2 / beta_{k+1} is alpha_{k+1}, both from
    one product of C^2 with the stacked (w, w x); then Ahat_{k+1} =
    C / sqrt(beta_{k+1}).  That is 7 node-length passes (C^2, the product,
    the division, x - alpha, the product with Ahat, Ahat_{k-1} sqrt(beta) and
    the difference), no reduction besides the product, on four preallocated
    buffers.  The first C is e^{log_weight/2} itself, as unnormalized as the
    weight: its norm^2 is h_0.  A norm that is not finite and positive
    raises BreakdownError.  At n = 512 on 2(1+x)^2 (6,384 nodes) a table
    takes 11.9 ms, against 14.3 ms for a monic sweep renormalized by max |C|,
    9 passes a step with two reductions (tests/oracles.py keeps one; minimum
    of 15 runs, shared 2-core Xeon, BLAS at one thread).
    """
    x = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    lw = np.asarray(log_weight, dtype=float)
    if K < 1 or K > x.size:
        raise DomainError("need 1 <= K <= number of nodes")
    alpha = np.empty(K)
    log_h = np.empty(K)
    W = np.stack((w, w * x))
    C = np.exp(0.5 * lw)  # P_0 e^{lw/2}, of norm^2 h_0
    A = np.empty_like(C)
    B = np.zeros_like(C)
    T = np.empty_like(C)
    for k in range(K):
        np.multiply(C, C, out=T)
        norm2, first = (W @ T).tolist()  # h_0, then beta_k = h_k / h_{k-1}
        if not (np.isfinite(norm2) and norm2 > 0):
            raise BreakdownError(f"recurrence lost positivity at k={k}")
        log_h[k] = math.log(norm2) + (log_h[k - 1] if k else 0.0)
        alpha[k] = first / norm2
        if k == K - 1:
            break
        sb = math.sqrt(norm2)
        A, B = B, A
        np.divide(C, sb, out=A)  # Ahat_k; B holds Ahat_{k-1}
        np.subtract(x, alpha[k], out=C)
        C *= A
        if k:
            np.multiply(B, sb, out=T)
            C -= T
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

    K_n(x_i, x_i) w_i = sum_k U_ki^2 is summed row by row as the recurrence
    yields U, so no n x N matrix is formed.
    """
    diag = np.zeros(grid.nodes.size)
    for u in _rows(table, n, grid.nodes, 0.5 * np.asarray(log_weight)):
        diag += u * u
    return float(np.sum(grid.weights * diag))


def log_lstat_gamma(table_def, table_und, n):
    """log L_n as the norming-constant ratio sum_{k<n} (log h_k(s) - log h_k(inf)).

    Its rounding floor is about 2 n^2 |ell| 2^-52 (n differences of log h_k of
    size up to 2 n |ell|): reordering the grid sums alone moves it by 3.2e-10
    at n = 512 on 2(1+x)^2, against 1.1e-12 for log_lstat_det.
    """
    if n > table_def.K or n > table_und.K:
        raise DomainError("tables too short")
    return float(np.sum(table_def.log_h[:n] - table_und.log_h[:n]))


# The deformation matrix drops grid nodes, and its log-det leading rows, whose
# summed contribution to its trace stays below this, the two together: a
# thousandth of the rounding unit of an O(1) entry.
DROP_TOL = 2.0 ** -52 * 1e-3

# The deformation matrix is accumulated over blocks of kept nodes whose slab of
# weighted values holds about this many doubles (8 MB): 2048 nodes at n = 512;
# at n <= 64 all kept nodes fit in one block.
BLOCK_ENTRIES = 2 ** 20

# log_lstat_det refuses an M whose log-det it resolves only to a relative
# accuracy worse than this, 2^-52 / (1 - lambda_max(M)) (the lower tail).
DET_RTOL = 1e-8


def deformation_matrix(grid, table_und, n, log_sigma_nodes):
    """M_jk = int Phat_j Phat_k (1 - sigma_n) e^{-nV} dx from the nodes that carry it.

    Node i adds the rank-one term w_i (1 - sigma_i) U[:, i] U[:, i]^T, whose
    trace is at most n (1 - sigma_i), since orthonormality on the grid gives
    w_i U_ki^2 <= 1.  Left of the right edge 1 - sigma_n dies off within about
    n^{-2/3}, so for most nodes that bound is negligible.  A node is kept where
    n (1 - sigma_i) > DROP_TOL / N, N the grid size, so the dropped bounds sum
    to at most DROP_TOL (a drop rule by a bound on the left-out trace, as in
    Bornemann, Math. Comp. 79 (2010)).

    One sweep of the recurrence over the kept nodes forms V = U sqrt(w (1 - sigma))
    one block of BLOCK_ENTRIES // n nodes at a time, and accumulates M += V V^T
    (BLAS SYRK: half the flops of a general product, exactly symmetric).  The
    peak is one n x block slab plus M and one product, O(n * block + n^2).

    Returns M and `dropped`, the sum of n (1 - sigma_i) over the dropped nodes:
    an upper bound on the trace of the positive semidefinite part D left out,
    so that M + D is the full-grid matrix.
    """
    one_minus_sigma = -np.expm1(np.asarray(log_sigma_nodes, dtype=float))
    bound = n * one_minus_sigma
    keep = bound > DROP_TOL / bound.size
    dropped = float(np.sum(bound[~keep]))
    wd = grid.weights[keep] * one_minus_sigma[keep]
    x, lwh = grid.nodes[keep], 0.5 * grid.log_w_und[keep]
    block = max(1, BLOCK_ENTRIES // n)
    M = np.zeros((n, n))
    for j in range(0, x.size, block):
        k = slice(j, j + block)
        V = weighted_values(table_und, n, x[k], lwh[k])
        V *= np.sqrt(wd[k])
        M += V @ V.T
        del V  # so that the next block's slab does not coexist with this one
    return M, dropped


def log_lstat_det(grid, table_und, n, log_sigma_nodes):
    """log L_n as log det(I - M), M the deformation matrix in the undeformed basis.

    M_jk = int Phat_j Phat_k (1 - sigma_n) e^{-nV} dx, assembled by
    deformation_matrix from the grid nodes where n (1 - sigma_n) exceeds
    DROP_TOL / N; 1 - sigma is evaluated stably from log sigma.  The nodes
    dropped there form a positive semidefinite D with trace(D) <= dropped.

    The rows of low degree live away from the edge, where 1 - sigma_n is
    negligible, and carry almost none of the trace: the log-det is taken from
    the trailing block C = M[j0:, j0:] alone, j0 the largest index with
    tau_r = sum_{k<j0} M_kk <= DROP_TOL - dropped (453 of 512 rows on
    2(1+x)^2 and 357 on the quartic at n = 512, s = 0).  With A = M[:j0, :j0]
    and B the block beside it, M >= 0 gives ||B||_F^2 <= lambda_max(C) tr(A),
    and the Schur complement I - A - B (I - C)^{-1} B^T then puts log det(I - M)
    within -log(1 - tau_r / (1 - lambda_max(C))) of log det(I - C).  The node
    drop adds at most dropped / (1 - lambda_max(M)) in the same form, and the
    two budgets sum to at most DROP_TOL, so the value is within about
    2e-19 / (1 - lambda_max) of the full-grid log-det.  j0 is known only once
    every node block is in M, so deformation_matrix forms all of M, one SYRK
    per block: a cut per block would leave cross terms bounded only by
    sqrt(tau).  Over n = 64 ... 512 on both potentials at s = 0 the
    eigen-solves take 15.3 ms instead of 30.8 ms on the whole M (minimum of
    15 runs, shared 2-core Xeon, BLAS at one thread).

    One eigvalsh of C serves the guards and the value.  The spectrum must lie
    in [0, 1) to 1e-8 and 1 - lambda_max must be positive; the log-det is then
    sum_k log1p(-lambda_k), which keeps its relative accuracy in the upper
    tail where M is small (LU resolves log det only to about 1e-16 absolute).
    Rounding M to float64 moves log(1 - lambda_max) by about
    2^-52 / (1 - lambda_max), relative to log L_n; where 1 - lambda_max is so
    small (deep in the lower tail, s <= -20 or so) that this exceeds DET_RTOL,
    BreakdownError is raised rather than a value that has lost its digits.
    Where every row falls under the budget, log L_n is 0.0.
    """
    M, dropped = deformation_matrix(grid, table_und, n, log_sigma_nodes)
    j0 = int(np.searchsorted(np.cumsum(np.diag(M)), DROP_TOL - dropped, side="right"))
    if j0 == n:
        return 0.0
    ev = np.linalg.eigvalsh(M[j0:, j0:])
    where = (f"log_lstat_det at n={n}: M[{j0}:, {j0}:] has spectrum [{ev[0]:.6g}, {ev[-1]:.6g}] "
             f"after dropping trace {dropped:.3g}")
    if ev[0] < -1e-8 or ev[-1] > 1.0 + 1e-8:
        raise BreakdownError(f"{where}, outside [0, 1)")
    gap = 1.0 - float(ev[-1])
    if not gap > 0.0:
        raise BreakdownError(f"{where}: det(I - M) is not positive")
    loss = 2.0 ** -52 / gap
    if loss > DET_RTOL:
        raise BreakdownError(
            f"{where}: 1 - lambda_max = {gap:.3g}, so log det(I - M) keeps only about "
            f"{loss:.3g} relative accuracy, above {DET_RTOL:g}")
    return float(np.sum(np.log1p(-ev)))


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
    return (4.0 * np.pi / eq.a) * math.exp(2.0 * n * eq.ell - table_def.log_h[n - 1])


def undeformed_table(grid, n):
    """Recurrence table of the undeformed weight e^{-nV} on grid, n + 1 terms."""
    return stieltjes_recurrence(grid.nodes, grid.weights, grid.log_w_und, n + 1)


def deformed_table(grid, Q, n, s):
    """(table, log sigma_n at the nodes) of the deformed weight sigma_n e^{-nV}
    on grid, n + 1 terms."""
    lsig = log_sigma(Q, n, s, grid.nodes)
    return stieltjes_recurrence(grid.nodes, grid.weights, grid.log_w_und + lsig, n + 1), lsig


def build_tables(eq, Q, n, s):
    """Convenience: grid plus undeformed and deformed recurrence tables, n + 1
    terms, and log sigma_n at the nodes."""
    grid = build_grid(eq, n)
    t_und = undeformed_table(grid, n)
    return (grid, t_und) + deformed_table(grid, Q, n, s)
