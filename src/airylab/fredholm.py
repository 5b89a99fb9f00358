"""Finite-temperature and classical Airy kernels and their Fredholm determinants.

L(s, T) = det(I - K_T) on L^2(-s, infinity), where

    K_T(u, v) = int logistic(T^{1/3} zeta) Ai(u + zeta) Ai(zeta + v) dzeta

interpolates between the zero operator (T -> 0) and the classical Airy kernel
(T -> infinity).  The determinants are computed by Nystrom discretization: one
Gauss-Legendre rule on [0, 1) pushed onto the half line by a map matched to
the kernel's decay (linear-logarithmic for K_T, which decays like
e^{-T^{1/3} x}; rational for the classical kernel).  build_nystrom and
build_nystrom_airy return the kernel matrix itself, exactly symmetric by
construction; the finite-temperature one is a single rank-k product over a
shared zeta panel grid, so it is also positive semidefinite.  The log-det is
numerics.lu_logdet, which refuses a determinant that is not positive and
names the kernel, s, T and m.  The map scale L means a different thing for
each map; see build_nystrom and build_nystrom_airy.  The kernels are never
evaluated one point at a time here: the pointwise K_T(u, v) and K_Ai(u, v)
are test oracles (tests/oracles.py), which the tests compare entry by entry
with these matrices.
"""

import numpy as np

from .errors import DomainError
from .numerics import PanelScheme, gauss_legendre, lu_logdet, map_log_linear, map_semi_infinite
from .special import _DOMAIN, _airy_cut, logistic


def _zeta_scheme(T, x_min):
    """Shared zeta panel grid for the finite-temperature kernel.

    The lower end is where the logistic factor has decayed to ~e^{-45}; the
    upper end is where Ai(x_min + zeta)^2 has (4/3)(x_min+zeta)^{3/2} >= 45;
    on the domain build_nystrom accepts it lies in (lo + 1, 60).
    """
    t13 = T ** (1.0 / 3.0)
    lo = -45.0 / t13 - 5.0
    hi = (45.0 * 0.75) ** (2.0 / 3.0) - x_min
    width = min(0.5, 5.0 / t13)
    n_panels = int(np.ceil((hi - lo) / width))
    return PanelScheme(np.linspace(lo, hi, n_panels + 1))


def _half_line_nodes(m, half_line_map, *params):
    """Nodes and square-root weights of an m-point Gauss-Legendre rule on [0, 1)
    pushed onto the half line by half_line_map(u, *params) -> (x, dx/du)."""
    if m < 2:
        raise DomainError("need at least two Nystrom nodes")
    rule = gauss_legendre(m)
    x, dx_du = half_line_map(0.5 * (rule.nodes + 1.0), *params)
    return x, np.sqrt(0.5 * rule.weights * dx_du)


def build_nystrom(s, T, m, L=10.0):
    """Nystrom matrix of the finite-temperature Airy kernel.

    The matrix is B B^T with B[i,q] = sqrt_w_i Ai(x_i + zeta_q) sqrt(c_q) and
    c the zeta quadrature weights times the logistic factor: one symmetric
    rank-k product (BLAS SYRK), exactly symmetric and positive semidefinite.

    K_T(x, x) decays like e^{-T^{1/3} x}, so the nodes come from the
    linear-logarithmic map x = -s + a u - (2/T^{1/3}) log(1-u).  The linear
    slope a = L/2 + max(s, 0) carries the nodes at least to x = L/2, past the
    bulk on [-s, 0] where the kernel is O(1); at large T, where the
    logarithmic end is short, this is what keeps the Airy tail in the domain.

    The domain is |s| <= 12 and 0 < T <= 8000, and T also large enough that
    the lowest Airy argument x_0 + zeta_0, near -s - 45/T^{1/3} - 5, stays at
    or above -200, the bottom of the Airy table: at m = 80, T >= about 0.0103
    at s = -12, 0.0123 at s = 0 and 0.0149 at s = 12.
    """
    if not np.isfinite(s) or abs(s) > 12.0:
        raise DomainError(f"s = {s:.6g} is outside |s| <= 12")
    if not (0 < T <= 8000.0):
        raise DomainError(f"T = {T:.6g} is outside (0, 8000]")
    x, sw = _half_line_nodes(m, map_log_linear, s, 0.5 * L + max(s, 0.0),
                             2.0 / T ** (1.0 / 3.0))
    scheme = _zeta_scheme(T, float(x[0]))
    z = scheme.nodes
    if x[0] + z[0] < -_DOMAIN:
        raise DomainError(f"T = {T:.6g} is too low at s = {s:.6g}: the kernel reads Ai at "
                          f"{x[0] + z[0]:.6g}, below {-_DOMAIN}")
    B = sw[:, None] * _airy_cut(x[:, None] + z[None, :])
    B *= np.sqrt(scheme.weights * logistic(T ** (1.0 / 3.0) * z))
    return B @ B.T


def build_nystrom_airy(s, m, L=10.0):
    """Nystrom matrix of the classical Airy kernel.

    The kernel decays like e^{-(4/3) x^{3/2}}, faster than any exponential,
    so the rational map x = -s + L u/(1-u) converges geometrically here.
    The numerator Ai(x_i) Ai'(x_j) - Ai'(x_i) Ai(x_j) and x_i - x_j are
    exactly antisymmetric, so the matrix is exactly symmetric.

    s is refused beyond |s| <= 12, but a determinant from this matrix is good
    only to about 1e-16 absolute in each 1 - lambda_j, which the lower tail
    passes well inside that range (see fredholm_det_airy).
    """
    if not np.isfinite(s) or abs(s) > 12.0:
        raise DomainError(f"s = {s:.6g} is outside |s| <= 12")
    x, sw = _half_line_nodes(m, map_semi_infinite, s, L)
    ai, aip = _airy_cut(x), _airy_cut(x, prime=True)
    diff = x[:, None] - x[None, :]
    num = ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.where(np.abs(diff) > 1e-12, num / np.where(diff == 0, 1.0, diff), 0.0)
    np.fill_diagonal(K, aip ** 2 - x * ai ** 2)
    return K * (sw[:, None] * sw[None, :])


def fredholm_det_ft(s, T, m=80, L=10.0):
    """L(s, T) = det(I - K_T) on L^2(-s, infinity); value in (0, 1]."""
    K = build_nystrom(s, T, m, L)
    return float(np.exp(lu_logdet(np.eye(m) - K, f"det(I - K_T) at s={s}, T={T}, m={m}")))


def fredholm_det_airy(s, m=80, L=10.0):
    """Classical Tracy-Widom determinant det(I - K_Ai) on L^2(-s, infinity).

    The domain check is |s| <= 12 (build_nystrom_airy), but the Nystrom
    log-det resolves each 1 - lambda_j only to about 1e-16 absolute, so deep
    in the lower tail the value loses its digits first and its sign next.
    Measured: with m = 40 the positivity guard raises at s = 10 and 11; at
    s = 11, m = 80 ... 320 spread by 1.4%; at s = 12, m = 40 ... 320 give
    8.5e-44, 2.4e-63, 3.0e-64 and 3.5e-63 (F_2(-12) is about 2.1e-63), and
    whether the guard trips there depends on rounding (the BLAS thread count).
    """
    K = build_nystrom_airy(s, m, L)
    return float(np.exp(lu_logdet(np.eye(m) - K, f"det(I - K_Ai) at s={s}, m={m}")))
