"""Independent oracles for the finite-n ensemble tests.

The allocating loops of the recurrences (Stieltjes procedure, weighted
orthonormal values, kernel trace, edge kernel) as straight array code: the
in-place and streamed forms in airylab.ensemble do the same arithmetic in the
same order, so the tests require bitwise equality with these.  cd_kernel and
log_partition are built on them and on the recurrence data alone; nothing in
the program calls them.
"""

import math

import numpy as np

from airylab.ensemble import RecurrenceTable


def stieltjes_recurrence(nodes, weights, log_weight, K):
    """Discretized Stieltjes procedure in log scale, allocating at every step."""
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
        norm2 = float(np.sum(w * A * A))
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
