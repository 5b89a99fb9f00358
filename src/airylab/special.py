"""Special functions: Airy Ai and Ai', the Fermi weight, and polylog-type integrals.

Ai and Ai' are served on [-_DOMAIN, _AI_CUT] from one Taylor table: anchors
every _H, and about each anchor the Taylor coefficients that the Airy equation
Ai'' = x Ai gives from the anchor's Ai and Ai'.  Those anchor values are
computed once, at import, in long double: by Poincare-type asymptotic
expansions far out on either side, the Maclaurin series in the middle, and
Taylor marches in between.  At run time the positive asymptotic expansion
serves (_AI_CUT, _DOMAIN] and nothing else.  The polylog-type integrals
F_beta(y) = int_0^inf v^beta log(1+e^{-y-v}) dv come in two independent routes
(direct quadrature and an accelerated alternating series) so each can serve as
the other's oracle.
"""

import math

import numpy as np

from .errors import ConvergenceError, DomainError
from .numerics import RULE16, PanelScheme, integrate_panels

# Ai(0), -Ai'(0) and pi to more digits than long double carries.
_AI0 = np.longdouble("0.355028053887817239260063186004183176398")
_AIP0 = np.longdouble("0.258819403792806798405183560188858261013")
_PI = np.longdouble("3.14159265358979323846264338327950288420")

_DOMAIN = 200.0
# Ai(30) ~ 3e-110: beyond this Ai and Ai' count as zero in every kernel, and
# mapped Nystrom nodes may lie far past |x| <= _DOMAIN.  It is also the top of
# the table, so every kernel value comes from the table.
_AI_CUT = 30.0
# Ai and Ai' underflow to 0.0 in float64 from 108 on.  Data amplified later
# (the id-PII march takes Ai(30) to O(1) at T = 1/16) may be zeroed only there
_AI_ZERO = 108.0
# the table: anchors -_DOMAIN + j _H up to _AI_CUT, _N_TAYLOR terms about each
_H = 1.0 / 16.0
_N_TAYLOR = 20
_BLOCK = 16384
# anchor values, in long double: the negative asymptotic expansion up to
# _ASY_NEG, a Taylor march up from it to _SERIES_NEG, the Maclaurin series on
# [_SERIES_NEG, _SERIES_POS], a march down to it from _ASY_POS (Ai grows
# downwards, so the march keeps relative accuracy), and the positive asymptotic
# expansion from _ASY_POS on, where its remainder is below 1e-24.  Against
# 40-digit values they are within 5e-17 of the oscillation amplitude
# |x|^{-1/4}/sqrt(pi) on [_ASY_NEG, 0) and of |Ai| on [0, _AI_CUT]; far out
# on the negative side the phase (2/3)|x|^{3/2}, up to ~1900, carries the
# long-double rounding of its size (1.3e-16 at x = -150).
_ASY_NEG = -13.0
_SERIES_NEG = -6.0
_SERIES_POS = 2.0
_ASY_POS = 12.0
_MARCH_STEP = 0.5
_N_MARCH = 40
_N_SERIES = 72
_N_ASY = 40


def _series_coeffs():
    one = np.longdouble(1.0)
    f = np.empty(_N_SERIES, dtype=np.longdouble)
    g = np.empty(_N_SERIES, dtype=np.longdouble)
    f[0] = one
    g[0] = one
    for k in range(_N_SERIES - 1):
        f[k + 1] = f[k] / ((3 * k + 2) * (3 * k + 3))
        g[k + 1] = g[k] / ((3 * k + 3) * (3 * k + 4))
    return f, g


_F_COEF, _G_COEF = _series_coeffs()


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


def _airy_series(x):
    """Maclaurin evaluation in long double (an anchor generator)."""
    xl = np.asarray(x, dtype=np.longdouble)
    y = xl * xl * xl
    accf = np.full_like(xl, _F_COEF[-1])
    accg = np.full_like(xl, _G_COEF[-1])
    accfp = np.full_like(xl, 3 * (_N_SERIES - 1) * _F_COEF[-1])
    accgp = np.full_like(xl, (3 * (_N_SERIES - 1) + 1) * _G_COEF[-1])
    for k in range(_N_SERIES - 2, -1, -1):
        accf = accf * y + _F_COEF[k]
        accg = accg * y + _G_COEF[k]
        accfp = accfp * y + 3 * k * _F_COEF[k]
        accgp = accgp * y + (3 * k + 1) * _G_COEF[k]
    f = accf
    g = xl * accg
    fp = np.where(xl != 0, accfp / np.where(xl == 0, 1, xl), 0.0)
    gp = accgp
    return _AI0 * f - _AIP0 * g, _AI0 * fp - _AIP0 * gp


def _asy_sum(zeta, coef, parity=None):
    """Sum_k (-1)^k coef[k] zeta^{-k}, truncated at the smallest term.

    parity='even' / 'odd' restricts to even or odd k (with the sign pattern
    (-1)^j for the j-th retained term), as needed on the oscillatory side.
    Sums in the float type of zeta; the powers are a running product.
    """
    first = {None: 0, "even": 0, "odd": 1}[parity]
    stride = 1 if parity is None else 2
    coef = coef.astype(zeta.dtype)
    inv = 1 / zeta
    power = inv ** first
    step = inv ** stride
    total = np.zeros_like(zeta)
    active = np.ones(zeta.shape, dtype=bool)
    prev = np.full_like(zeta, np.inf)
    for j, k in enumerate(range(first, _N_ASY, stride)):
        term = coef[k] * power
        active &= np.abs(term) <= prev
        total = np.where(active, total + (-1) ** j * term, total)
        prev = np.where(active, np.abs(term), prev)
        power = power * step
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


def _airy_asy_neg(x):
    """Ai and Ai' for large negative x, in the float type of x.

    The phase (2/3)|x|^{3/2} - pi/4 reaches about 1900 at -_DOMAIN, so it is
    rounded to the float type of x, not to float64, before the cosine.
    """
    z = -np.asarray(x)
    pi = z.dtype.type(_PI)
    zeta = 2 * z * np.sqrt(z) / 3
    phase = zeta - pi / 4
    c, s = np.cos(phase), np.sin(phase)
    p_even = _asy_sum(zeta, _U_COEF, parity="even")
    p_odd = _asy_sum(zeta, _U_COEF, parity="odd")
    q_even = _asy_sum(zeta, _V_COEF, parity="even")
    q_odd = _asy_sum(zeta, _V_COEF, parity="odd")
    sqrt_pi = np.sqrt(pi)
    z4 = np.sqrt(np.sqrt(z))
    return (c * p_even + s * p_odd) / (sqrt_pi * z4), (z4 / sqrt_pi) * (s * q_even - c * q_odd)


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
    long double on a coarse grid of step _MARCH_STEP, over which the Taylor
    series converges, and each anchor is one Taylor shift from its nearest
    coarse point.  Only then are they rounded: the higher coefficients follow
    in float64, where their rounding is far below that of a_0 and a_1, since
    |a_k t^k| falls off like (sqrt|c| |t|)^k / k! with |t| <= _H / 2.
    """
    ratio = int(round(_MARCH_STEP / _H))
    n = int(round((_AI_CUT + _DOMAIN) / _MARCH_STEP))
    coarse = -_DOMAIN + _MARCH_STEP * np.arange(n + 1, dtype=np.longdouble)
    ai = np.empty_like(coarse)
    aip = np.empty_like(coarse)
    for lo, hi, gen in [(-np.inf, _ASY_NEG, _airy_asy_neg),
                        (_SERIES_NEG, _SERIES_POS, _airy_series),
                        (_ASY_POS, np.inf, _airy_asy_pos)]:
        mask = (coarse >= lo) & (coarse <= hi)
        ai[mask], aip[mask] = gen(coarse[mask])
    # march across the gaps between the generators: up from _ASY_NEG, down from _ASY_POS
    idx = np.searchsorted(coarse, [_ASY_NEG, _SERIES_NEG, _SERIES_POS, _ASY_POS])
    for path in (range(idx[0], idx[1]), range(idx[3], idx[2], -1)):
        for i, j in zip(path, path[1:]):
            ai[j], aip[j] = _taylor_shift(coarse[i], ai[i], aip[i], coarse[j] - coarse[i])
    offsets = _H * (np.arange(ratio) - ratio // 2)
    fine = [v.T.ravel()[ratio // 2:ratio // 2 + ratio * n + 1].astype(float)
            for v in _taylor_shift(coarse, ai, aip, offsets)]
    c = -_DOMAIN + _H * np.arange(ratio * n + 1)
    a = _taylor_coeffs(c, *fine, _N_TAYLOR)
    return a, np.arange(1, _N_TAYLOR)[:, None] * a[1:]


_TABLE_AI, _TABLE_AIP = _airy_table()


def _from_table(table, x):
    """Horner sum about the nearest anchor, for x in [-_DOMAIN, _AI_CUT].

    Runs over blocks of _BLOCK points, so that the few working arrays of a
    block stay in cache (on a 2-core Xeon, 4 MiB L2, it halves the time of a
    pass over 2.6e5 points).
    """
    flat = x.ravel()
    out = np.empty_like(flat)
    for i in range(0, flat.size, _BLOCK):
        xb = flat[i:i + _BLOCK]
        j = ((xb + (_DOMAIN + 0.5 * _H)) * (1.0 / _H)).astype(np.intp)
        t = xb - (j * _H - _DOMAIN)
        acc = table[-1].take(j)
        for row in table[-2::-1]:
            acc *= t
            acc += row.take(j)
        out[i:i + _BLOCK] = acc
    return out.reshape(x.shape)


def _airy(x, prime):
    """Ai(x), or Ai'(x) if prime, for |x| <= _DOMAIN (vectorized)."""
    x = np.asarray(x, dtype=float)
    xf = np.atleast_1d(x)
    if xf.size and not (xf.min() >= -_DOMAIN and xf.max() <= _DOMAIN):
        if not np.all(np.isfinite(xf)):
            raise DomainError("Airy argument must be finite")
        raise DomainError(f"Airy argument out of supported range |x| <= {_DOMAIN}")
    table = _TABLE_AIP if prime else _TABLE_AI
    far = xf > _AI_CUT
    if np.any(far):
        out = np.empty_like(xf)
        out[~far] = _from_table(table, xf[~far])
        out[far] = _airy_asy_pos(xf[far])[1 if prime else 0]
    else:
        out = _from_table(table, xf)
    return out[0] if x.ndim == 0 else out


def airy_ai(x):
    """Airy function Ai(x) for |x| <= 200 (vectorized)."""
    return _airy(x, prime=False)


def airy_ai_prime(x):
    """Derivative Ai'(x) for |x| <= 200 (vectorized)."""
    return _airy(x, prime=True)


def _airy_cut(x, prime=False, cut=_AI_CUT):
    """Ai(x), or Ai'(x) if prime, set to zero beyond cut."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    keep = x <= cut
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

    Requires beta > -1.  For half-integer and integer beta the substitution
    v = w^2 renders the integrand smooth at the origin; other beta use the
    power-removing substitution v = w^{1/(1+beta)}.
    """
    if not beta > -1:
        raise DomainError("f_beta_quad needs beta > -1")
    if not np.isfinite(y):
        raise DomainError("y must be finite")
    v_max = max(0.0, -y) + 50.0
    two_beta = 2.0 * beta + 1.0
    if abs(two_beta - round(two_beta)) < 1e-12 and round(two_beta) >= 0:
        # v = w^2 : integrand 2 w^{2 beta + 1} log(1+e^{-y-w^2})
        p = round(two_beta)
        w_max = np.sqrt(v_max)
        width = 0.2

        def f(w):
            return 2.0 * w ** p * np.log1p(np.exp(-np.minimum(y + w * w, 700.0)))

    else:
        # v = w^{1/(1+beta)} : dv v^beta = dw / (1+beta)
        q = 1.0 / (1.0 + beta)
        w_max = v_max ** (1.0 + beta)
        width = max(w_max / 400.0, 1e-3)

        def f(w):
            v = w ** q
            return np.log1p(np.exp(-np.minimum(y + v, 700.0))) / (1.0 + beta)

    breaks = np.linspace(0.0, w_max, int(np.ceil(w_max / width)) + 1)
    return integrate_panels(f, PanelScheme(breaks, RULE16))


def f_k_closed(k, y, tol=1e-17):
    """F_k(y) for integer k >= 0 and y >= 0 via the polylog series.

    F_k(y) = -k! Li_{k+2}(-e^{-y}) = k! sum_{m>=1} (-1)^{m+1} e^{-my} / m^{k+2}.
    Adjacent terms are paired so that the partial sums converge absolutely;
    the sum stops once a pair drops below tol relative to the head term.
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
        if last < tol * max(head, 1e-300) or x ** (2 * j0) == 0.0:
            break
    else:
        raise ConvergenceError("polylog series did not terminate")
    return fact * total
