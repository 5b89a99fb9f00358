"""Independent references for the benchmark's checks.

Nothing here imports airylab.  Airy values come from scipy.special.airy (and
from mpmath where a reference for scipy itself is wanted), quadrature from
numpy.polynomial.legendre.leggauss.  No reference value is stored: every one
is computed when a check needs it, so rerunning the check makes it anew.

The finite-temperature determinant is computed by a different route from the
program's.  With K_T = A A*, A(x, zeta) = Ai(x + zeta) sqrt(sigma(T^{1/3} zeta)),
Sylvester's identity det(I - A A*) = det(I - A* A) and
int_0^inf Ai(a + y) Ai(b + y) dy = K_Ai(a, b) give

    det(I - K_T) on L^2(-s, inf) = det(I - sqrt(w) K_Ai sqrt(w)) on L^2(R),
    w(r) = sigma(T^{1/3} (r + s)),

the Amir-Corwin-Quastel form: the closed-form classical Airy kernel against a
logistic weight on the whole line, with no zeta quadrature at all.  Both
determinants are Nystrom discretizations on composite Gauss-Legendre panels
(Bornemann, Math. Comp. 79 (2010) 871-915).
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import airy, expit

_PANEL_NODES = 16
_R_MAX = 14.0  # Ai(14)^2 ~ 1e-30: the kernel is negligible beyond


def _panels(lo, hi, width):
    """Composite Gauss-Legendre nodes and weights on [lo, hi]; width(r) sets panel size."""
    breaks = [lo]
    while breaks[-1] < hi:
        breaks.append(min(hi, breaks[-1] + width(breaks[-1])))
    b = np.asarray(breaks)
    x, w = leggauss(_PANEL_NODES)
    mid = 0.5 * (b[1:] + b[:-1])
    half = 0.5 * np.diff(b)
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _oscillation_width(r):
    # Ai(r) oscillates with local wavenumber sqrt(-r) on the left
    return min(1.0, 2.5 / math.sqrt(max(-r, 1.0)))


def airy_kernel_matrix(r):
    """K_Ai(r_i, r_j) = (Ai(r_i) Ai'(r_j) - Ai'(r_i) Ai(r_j)) / (r_i - r_j), confluent on the diagonal."""
    ai, aip, _, _ = airy(r)
    diff = r[:, None] - r[None, :]
    num = ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]
    np.fill_diagonal(diff, 1.0)
    K = num / diff
    np.fill_diagonal(K, aip ** 2 - r * ai ** 2)
    return K


def _det(r, w, weight):
    g = np.sqrt(w * weight)
    M = g[:, None] * airy_kernel_matrix(r) * g[None, :]
    sign, logabs = np.linalg.slogdet(np.eye(r.size) - M)
    if sign <= 0:
        raise ArithmeticError("reference determinant is not positive")
    return math.exp(logabs)


def det_ft(s, T):
    """det(I - K_T) on L^2(-s, inf), to about 1e-14, by the whole-line form."""
    t13 = T ** (1.0 / 3.0)
    lo = -s - 36.0 / t13  # the weight is below e^{-36} to the left

    def width(r):
        w = _oscillation_width(r)
        if abs(r + s) < 8.0 / t13:  # resolve the logistic step
            w = min(w, 1.5 / t13)
        return w

    r, w = _panels(lo, _R_MAX, width)
    return _det(r, w, expit(t13 * (r + s)))


def det_airy(s):
    """Classical Tracy-Widom determinant det(I - K_Ai) on L^2(-s, inf)."""
    r, w = _panels(-s, _R_MAX, _oscillation_width)
    return _det(r, w, np.ones_like(r))


def hermite_table(n, K):
    """alpha_k and log h_k, k < K, of the monic orthogonal polynomials of e^{-n V}, V = 2(1+x)^2.

    With y = 1 + x the weight is e^{-2n y^2}, a Gaussian of variance 1/(4n), so
    the polynomials are scaled Hermite polynomials: alpha_k = -1 and
    h_k = sqrt(pi/(2n)) k! (4n)^{-k}.
    """
    k = np.arange(K)
    log_fact = np.array([math.lgamma(j + 1.0) for j in k])
    return np.full(K, -1.0), 0.5 * math.log(math.pi / (2.0 * n)) + log_fact - k * math.log(4.0 * n)


def semicircle_density(x):
    """Equilibrium density of V = 2(1+x)^2: (2/pi) sqrt(1 - (1+x)^2) on [-2, 0]."""
    x = np.asarray(x, dtype=float)
    return (2.0 / math.pi) * np.sqrt(np.clip(1.0 - (1.0 + x) ** 2, 0.0, None))


# Closed forms of the Gaussian equilibrium data in the shifted frame (right
# edge at 0): support width a, edge constant c_V = 2^{-2/3} h(0)^{2/3} a^{1/3}
# with h = 4, Lagrange constant -U - V/2 = -1/2 - log 2, shift b+ = 0.
GAUSSIAN_EQ = {"a": 2.0, "c_v": 2.0, "ell": -0.5 - math.log(2.0), "shift": 0.0}


def airy_envelope(x, ai, aip):
    """Scale for Airy errors: |value| for x >= 0, the oscillation amplitude for x < 0.

    On the left Ai and Ai' have zeros, so the error is measured against the
    amplitudes |x|^{-1/4}/sqrt(pi) and |x|^{1/4}/sqrt(pi).
    """
    x = np.asarray(x, dtype=float)
    z = np.maximum(-x, 1.0)
    env_ai = np.where(x < 0, z ** -0.25 / math.sqrt(math.pi), np.abs(ai))
    env_aip = np.where(x < 0, z ** 0.25 / math.sqrt(math.pi), np.abs(aip))
    return env_ai, env_aip


def airy_scipy(x):
    ai, aip, _, _ = airy(np.asarray(x, dtype=float))
    return ai, aip


def airy_mpmath(x, dps=30):
    """Ai and Ai' at the points x in mpmath at dps digits, rounded to float."""
    import mpmath

    with mpmath.workdps(dps):
        ai = [float(mpmath.airyai(float(v))) for v in x]
        aip = [float(mpmath.airyai(float(v), derivative=1)) for v in x]
    return np.array(ai), np.array(aip)
