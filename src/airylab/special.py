"""Special functions: Airy Ai and Ai', the Fermi weight, and polylog-type integrals.

Ai and Ai' are served from one Taylor table on [-_DOMAIN, _AI_ZERO], and are
0.0 beyond: anchors every _H, and about each anchor the Taylor coefficients
that the Airy equation Ai'' = x Ai gives from the anchor's Ai and Ai'.  Those
anchor values are computed once, at import, in long double, from one
asymptotic expansion and one Taylor march: the positive expansion where its
remainder is below 1e-24, and a march down the line from there.  The
polylog-type integrals F_beta(y) = int_0^inf v^beta log(1+e^{-y-v}) dv come
by direct quadrature, for 2 beta + 1 a non-negative integer; the polylog
series for integer beta is their test oracle (tests/oracles.py).
"""

import numpy as np

from .errors import DomainError
from .numerics import PanelScheme, integrate_panels

# pi to more digits than long double carries
_PI = np.longdouble("3.14159265358979323846264338327950288420")

_DOMAIN = 200.0
# Ai and Ai' underflow to 0.0 in float64 from 108 on: the top of the table,
# whose last anchor holds 0.0, so every x beyond reads the float64 value there
_AI_ZERO = 108.0
# Ai(30) ~ 3e-49: the Nystrom kernels count Ai as zero beyond this (see
# _airy_cut).  Data amplified later (the id-PII march takes Ai(30) to O(1) at
# T = 1/16) reads the table up to _AI_ZERO instead
_AI_CUT = 30.0
# the table: anchors -_DOMAIN + j _H up to _AI_ZERO, _N_TAYLOR terms about each
_H = 1.0 / 16.0
_N_TAYLOR = 20
_BLOCK = 16384
# anchor values, in long double: the positive asymptotic expansion from
# _ASY_POS up, then a march of _N_MARCH-term Taylor steps of _MARCH_STEP down
# to -_DOMAIN (a step there spans sqrt(_DOMAIN) _MARCH_STEP ~ 7 in the Taylor
# variable).  Ai grows downwards on the positive side, so the march keeps
# relative accuracy there.  Against 30-digit values the table is within
# 2.3e-16 of |Ai| on [0, 103.5] (1.3e-321 absolute up to _AI_ZERO, where Ai is
# subnormal) and of the oscillation amplitude |x|^{-1/4}/sqrt(pi) for x < 0.
_ASY_POS = 12.0
_MARCH_STEP = 0.5
_N_MARCH = 50
_N_ASY = 40


def _asy_coeffs():
    """u_k and v_k of the Airy asymptotic expansions, k = 0.._N_ASY-1."""
    u = np.empty(_N_ASY, dtype=np.longdouble)
    v = np.empty(_N_ASY, dtype=np.longdouble)
    u[0] = 1.0
    v[0] = 1.0
    for k in range(_N_ASY - 1):
        # u_{k+1}/u_k = (6k+1)(6k+3)(6k+5) / (216 (k+1) (2k+1))
        u[k + 1] = u[k] * ((6 * k + 1) * (6 * k + 3) * (6 * k + 5)) / (216 * (k + 1) * (2 * k + 1))
        v[k + 1] = u[k + 1] * (6 * (k + 1) + 1) / (1 - 6 * (k + 1))
    return u, v


_U_COEF, _V_COEF = _asy_coeffs()


def _asy_sum(zeta, coef):
    """Sum_k (-1)^k coef[k] zeta^{-k} over all _N_ASY terms.

    Sums in the float type of zeta; the powers are a running product.  From
    x = _ASY_POS on the terms decrease, the last below 1e-24 of the sum.
    """
    coef = coef.astype(zeta.dtype)
    inv = 1 / zeta
    power = np.ones_like(zeta)
    total = np.zeros_like(zeta)
    for k in range(_N_ASY):
        total = total + (-1) ** k * (coef[k] * power)
        power = power * inv
    return total


def _airy_asy_pos(x):
    """Ai and Ai' for large positive x, in the float type of x."""
    x = np.asarray(x)
    zeta = 2 * x * np.sqrt(x) / 3
    two_sqrt_pi = 2 * np.sqrt(x.dtype.type(_PI))
    e = np.exp(-zeta)
    x4 = np.sqrt(np.sqrt(x))
    return (e / (two_sqrt_pi * x4) * _asy_sum(zeta, _U_COEF),
            -x4 * e / two_sqrt_pi * _asy_sum(zeta, _V_COEF))


def _taylor_coeffs(c, ai, aip, n):
    """Taylor coefficients a_0..a_{n-1} of Ai about the centres c, from Ai'' = x Ai.

    a_0 = Ai(c), a_1 = Ai'(c), a_{k+2} = (c a_k + a_{k-1}) / ((k+2)(k+1)).
    Returns an array of shape (n,) + c.shape in the float type of the inputs.
    """
    a = [ai, aip, c * ai / 2]
    for k in range(1, n - 2):
        a.append((c * a[k] + a[k - 1]) / ((k + 2) * (k + 1)))
    return np.array(a)


def _taylor_shift(c, ai, aip, t):
    """Ai and Ai' at c + t from their values at c, by _N_MARCH Taylor terms.

    For a scalar t the result has the shape of c; for a 1-d array of offsets
    it has shape t.shape + c.shape, every offset applied to every centre.
    """
    a = _taylor_coeffs(c, ai, aip, _N_MARCH)
    k = np.arange(_N_MARCH)
    p = np.asarray(t, dtype=np.longdouble)[..., None] ** k
    dp = np.zeros_like(p)
    dp[..., 1:] = k[1:] * p[..., :-1]
    return p @ a, dp @ a


def _airy_table():
    """Taylor coefficients about every anchor, as float64 (term, anchor) arrays.

    Row k of the first array holds a_k, of the second (k+1) a_{k+1}, so a
    Horner step gathers one contiguous row.  Ai and Ai' are first found in
    long double on a coarse grid of step _MARCH_STEP: by the asymptotic
    expansion from _ASY_POS up, and below it by a march down whose steps, 2x2
    transfer matrices, are all computed at once, so that only their product
    is sequential.  Each anchor is one Taylor shift from its nearest coarse
    point.  Only then are they rounded: the higher coefficients follow in
    float64, where their rounding is far below that of a_0 and a_1, since
    |a_k t^k| falls off like (sqrt|c| |t|)^k / k! with |t| <= _H / 2.
    """
    ratio = int(round(_MARCH_STEP / _H))
    n = int(round((_AI_ZERO + _DOMAIN) / _MARCH_STEP))
    coarse = -_DOMAIN + _MARCH_STEP * np.arange(n + 1, dtype=np.longdouble)
    start = int(round((_ASY_POS + _DOMAIN) / _MARCH_STEP))
    ai, aip = np.empty((2, n + 1), dtype=np.longdouble)
    ai[start:], aip[start:] = _airy_asy_pos(coarse[start:])
    # step i, coarse[i + 1] -> coarse[i]: its columns shift (1, 0) and (0, 1)
    one, zero = np.ones(start, dtype=np.longdouble), np.zeros(start, dtype=np.longdouble)
    (m00, m10), (m01, m11) = (_taylor_shift(coarse[1:start + 1], *unit, -_MARCH_STEP)
                              for unit in ((one, zero), (zero, one)))
    for i in range(start - 1, -1, -1):
        ai[i], aip[i] = (m00[i] * ai[i + 1] + m01[i] * aip[i + 1],
                         m10[i] * ai[i + 1] + m11[i] * aip[i + 1])
    offsets = _H * (np.arange(ratio) - ratio // 2)
    fine = [v.T.ravel()[ratio // 2:ratio // 2 + ratio * n + 1].astype(float)
            for v in _taylor_shift(coarse, ai, aip, offsets)]
    c = -_DOMAIN + _H * np.arange(ratio * n + 1)
    a = _taylor_coeffs(c, *fine, _N_TAYLOR)
    return a, np.arange(1, _N_TAYLOR)[:, None] * a[1:]


_TABLE_AI, _TABLE_AIP = _airy_table()


def _from_table(table, x):
    """Horner sum about the nearest anchor, for x >= -_DOMAIN; x past _AI_ZERO
    reads the last anchor, which holds 0.0.

    Runs over blocks of _BLOCK points, so that the few working arrays of a
    block stay in cache (on a 2-core Xeon, 4 MiB L2, it halves the time of a
    pass over 2.6e5 points).
    """
    flat = x.ravel()
    out = np.empty_like(flat)
    for i in range(0, flat.size, _BLOCK):
        xb = np.minimum(flat[i:i + _BLOCK], _AI_ZERO)
        j = ((xb + (_DOMAIN + 0.5 * _H)) * (1.0 / _H)).astype(np.intp)
        t = xb - (j * _H - _DOMAIN)
        acc = table[-1].take(j)
        for row in table[-2::-1]:
            acc *= t
            acc += row.take(j)
        out[i:i + _BLOCK] = acc
    return out.reshape(x.shape)


def _airy(x, prime):
    """Ai(x), or Ai'(x) if prime, for finite x >= -_DOMAIN (vectorized)."""
    x = np.asarray(x, dtype=float)
    xf = np.atleast_1d(x)
    if xf.size and not (xf.min() >= -_DOMAIN and xf.max() < np.inf):
        raise DomainError(f"Airy argument out of supported range: finite x >= {-_DOMAIN}")
    out = _from_table(_TABLE_AIP if prime else _TABLE_AI, xf)
    return out[0] if x.ndim == 0 else out


def airy_ai(x):
    """Airy function Ai(x) for finite x >= -200 (vectorized)."""
    return _airy(x, prime=False)


def airy_ai_prime(x):
    """Derivative Ai'(x) for finite x >= -200 (vectorized)."""
    return _airy(x, prime=True)


def _airy_cut(x, prime=False):
    """Ai(x), or Ai'(x) if prime, set to zero beyond _AI_CUT: the Nystrom kernels.

    Their mapped nodes reach far past 30, where Ai < 4e-49 is far below the
    rounding of det(I - K).  Clamping at _AI_ZERO instead gave 12 classical
    determinants bit for bit, in 19.3 ms instead of 12.5 (minimum of 7,
    shared 2-core Xeon).
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    keep = x <= _AI_CUT
    if np.any(keep):
        out[keep] = (airy_ai_prime if prime else airy_ai)(x[keep])
    return out


def fermi_weight(r):
    """sigma'(r) = e^{-r} / (1 + e^{-r})^2, overflow-free on the whole line."""
    r = np.asarray(r, dtype=float)
    e = np.exp(-np.abs(r))
    out = e / (1.0 + e) ** 2
    return out if out.ndim else out[()]


def log_logistic(z):
    """log(1/(1+e^{-z})) evaluated without overflow for any real z."""
    z = np.asarray(z, dtype=float)
    out = np.minimum(z, 0.0) - np.log1p(np.exp(-np.abs(z)))
    return out if out.ndim else out[()]


def logistic(z):
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out if out.ndim else out[()]


def f_beta_quad(beta, y):
    """F_beta(y) = int_0^infty v^beta log(1 + e^{-y-v}) dv by panel quadrature.

    Defined for beta with 2 beta + 1 a non-negative integer (beta = -1/2, 0,
    1/2, 1, ...), where the substitution v = w^2 renders the integrand smooth
    at the origin.  Any other beta raises DomainError.
    """
    two_beta = 2.0 * beta + 1.0
    if not (np.isfinite(two_beta) and round(two_beta) >= 0
            and abs(two_beta - round(two_beta)) < 1e-12):
        raise DomainError("f_beta_quad needs 2 beta + 1 a non-negative integer")
    if not np.isfinite(y):
        raise DomainError("y must be finite")
    # v = w^2 : integrand 2 w^{2 beta + 1} log(1+e^{-y-w^2})
    p = round(two_beta)
    w_max = np.sqrt(max(0.0, -y) + 50.0)

    def f(w):
        return 2.0 * w ** p * np.log1p(np.exp(-np.minimum(y + w * w, 700.0)))

    breaks = np.linspace(0.0, w_max, int(np.ceil(w_max / 0.2)) + 1)
    return integrate_panels(f, PanelScheme(breaks))
