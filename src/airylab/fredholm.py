"""Finite-temperature and classical Airy kernels and their Fredholm determinants.

L(s, T) = det(I - K_T) on L^2(-s, infinity), where

    K_T(u, v) = int logistic(T^{1/3} zeta) Ai(u + zeta) Ai(zeta + v) dzeta

interpolates between the zero operator (T -> 0) and the classical Airy kernel
(T -> infinity).  The determinants are computed by Nystrom discretization: one
Gauss-Legendre rule on [0, 1) pushed onto the half line by a map matched to
the kernel's decay (linear-logarithmic for K_T, which decays like
e^{-T^{1/3} x}; rational for the classical kernel).  The finite-temperature
kernel matrix is assembled in one matmul over a shared zeta panel grid, which
also makes it positive semidefinite by construction.  The map scale L means
a different thing for each map; see build_nystrom and build_nystrom_airy.
"""

import numpy as np

from .errors import BreakdownError, DomainError
from .numerics import (RULE16, PanelScheme, gauss_legendre, lu_logdet, map_log_linear,
                       map_semi_infinite)
from .special import _AI_CUT, _airy_cut, airy_ai, airy_ai_prime, logistic


def airy_kernel(u, v):
    """Classical Airy kernel, with the confluent diagonal handled explicitly.

    An independent test oracle kept on purpose (tests/test_fredholm.py,
    TestAiryKernel): build_nystrom_airy assembles the same kernel vectorized.
    """
    if min(u, v) > _AI_CUT:
        return 0.0
    if abs(u - v) < 1e-5:
        m = 0.5 * (u + v)
        return airy_ai_prime(m) ** 2 - m * airy_ai(m) ** 2
    return (airy_ai(u) * airy_ai_prime(v) - airy_ai_prime(u) * airy_ai(v)) / (u - v)


def _zeta_scheme(T, x_min):
    """Shared zeta panel grid for the finite-temperature kernel.

    The lower end is where the logistic factor has decayed to ~e^{-45}; the
    upper end is where Ai(x_min + zeta)^2 has (4/3)(x_min+zeta)^{3/2} >= 45.
    """
    t13 = T ** (1.0 / 3.0)
    lo = -45.0 / t13 - 5.0
    hi = min(max((45.0 * 0.75) ** (2.0 / 3.0) - x_min, lo + 1.0), 60.0)
    width = min(0.5, 5.0 / t13)
    n_panels = int(np.ceil((hi - lo) / width))
    return PanelScheme(np.linspace(lo, hi, n_panels + 1), RULE16)


def ft_airy_kernel(u, v, T):
    """Finite-temperature Airy kernel K_T(u, v) by panel quadrature.

    An independent test oracle kept on purpose (tests/test_fredholm.py,
    TestFtKernel): build_nystrom assembles the kernel matrix in one matmul.
    """
    if T <= 0:
        raise DomainError("temperature parameter must be positive")
    if min(u, v) > _AI_CUT:
        return 0.0
    scheme = _zeta_scheme(T, min(u, v))
    z = scheme.nodes
    f = logistic(T ** (1.0 / 3.0) * z) * _airy_cut(u + z) * _airy_cut(z + v)
    return float(np.sum(f * scheme.weights))


class NystromOperator:
    """Discretized Fredholm operator on L^2(-s, infinity)."""

    def __init__(self, s, T, m, L, nodes, sqrt_weights, kernel_matrix):
        self.s = s
        self.T = T
        self.m = m
        self.L = L
        self.nodes = nodes
        self.sqrt_weights = sqrt_weights
        self.kernel_matrix = kernel_matrix

    def _where(self):
        return f"Nystrom determinant at s={self.s}, T={self.T}, m={self.m}"

    def check(self, sym_tol=1e-12, eig_tol=1e-8):
        K = self.kernel_matrix
        asym = np.max(np.abs(K - K.T))
        if asym > sym_tol:
            raise BreakdownError(f"{self._where()}: kernel matrix lost symmetry ({asym:.3g})")
        ev = np.linalg.eigvalsh(0.5 * (K + K.T))
        if ev[0] < -eig_tol or ev[-1] > 1.0 + eig_tol:
            raise BreakdownError(f"{self._where()}: kernel matrix spectrum "
                                 f"[{ev[0]:.6g}, {ev[-1]:.6g}] outside [0, 1]")

    def logdet(self):
        sign, logabs = lu_logdet(np.eye(self.m) - self.kernel_matrix)
        if sign <= 0:
            raise BreakdownError(f"{self._where()}: det(I - K) is not positive")
        return logabs


def _half_line_nodes(m, x_of_u, jac):
    """Gauss-Legendre nodes on [0, 1) pushed through a half-line map."""
    if m < 2:
        raise DomainError("need at least two Nystrom nodes")
    rule = gauss_legendre(m)
    u01 = 0.5 * (rule.nodes + 1.0)
    w01 = 0.5 * rule.weights
    x = x_of_u(u01)
    sw = np.sqrt(w01 * jac(u01))
    return x, sw


def build_nystrom(s, T, m, L=10.0):
    """Nystrom discretization of the finite-temperature Airy kernel.

    The kernel matrix is B diag(c) B^T with B[i,q] = sqrt_w_i Ai(x_i + zeta_q)
    and c the zeta quadrature weights times the logistic factor, so it is
    symmetric positive semidefinite by construction.

    K_T(x, x) decays like e^{-T^{1/3} x}, so the nodes come from the
    linear-logarithmic map x = -s + a u - (2/T^{1/3}) log(1-u).  The linear
    slope a = L/2 + max(s, 0) carries the nodes at least to x = L/2, past the
    bulk on [-s, 0] where the kernel is O(1); at large T, where the
    logarithmic end is short, this is what keeps the Airy tail in the domain.
    """
    if not np.isfinite(s) or abs(s) > 12.0:
        raise DomainError("s must satisfy |s| <= 12")
    if not (0 < T <= 8000.0):
        raise DomainError("T must lie in (0, 8000]")
    x, sw = _half_line_nodes(m, *map_log_linear(s, 0.5 * L + max(s, 0.0),
                                                2.0 / T ** (1.0 / 3.0)))
    scheme = _zeta_scheme(T, float(x[0]))
    z = scheme.nodes
    B = sw[:, None] * _airy_cut(x[:, None] + z[None, :])
    c = scheme.weights * logistic(T ** (1.0 / 3.0) * z)
    M = (B * c) @ B.T
    M = 0.5 * (M + M.T)
    return NystromOperator(s, T, m, L, x, sw, M)


def build_nystrom_airy(s, m, L=10.0):
    """Nystrom discretization of the classical Airy kernel.

    The kernel decays like e^{-(4/3) x^{3/2}}, faster than any exponential,
    so the rational map x = -s + L u/(1-u) converges geometrically here.
    """
    if not np.isfinite(s) or abs(s) > 12.0:
        raise DomainError("s must satisfy |s| <= 12")
    x, sw = _half_line_nodes(m, *map_semi_infinite(s, L))
    ai, aip = _airy_cut(x), _airy_cut(x, prime=True)
    diff = x[:, None] - x[None, :]
    num = ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.where(np.abs(diff) > 1e-12, num / np.where(diff == 0, 1.0, diff), 0.0)
    np.fill_diagonal(K, aip ** 2 - x * ai ** 2)
    M = (sw[:, None] * K) * sw[None, :]
    M = 0.5 * (M + M.T)
    return NystromOperator(s, np.inf, m, L, x, sw, M)


def fredholm_det_ft(s, T, m=80, L=10.0):
    """L(s, T) = det(I - K_T) on L^2(-s, infinity); value in (0, 1]."""
    op = build_nystrom(s, T, m, L)
    return float(np.exp(op.logdet()))


def fredholm_det_airy(s, m=80, L=10.0):
    """Classical Tracy-Widom determinant det(I - K_Ai) on L^2(-s, infinity)."""
    op = build_nystrom_airy(s, m, L)
    return float(np.exp(op.logdet()))
