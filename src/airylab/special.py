"""Special functions: Airy Ai and Ai', the Fermi weight, and polylog-type integrals.

The Airy pair is evaluated from scratch: an extended-precision Maclaurin series
on a central window, Poincare-type asymptotic expansions outside it, and on
(4, 8], where neither is accurate to double precision, Taylor expansions about
a table of anchors obtained from the Airy equation itself.  The
polylog-type integrals F_beta(y) = int_0^inf v^beta log(1+e^{-y-v}) dv come in
two independent routes (direct quadrature and an accelerated alternating
series) so each can serve as the other's oracle.
"""

import math

import numpy as np

from .errors import ConvergenceError, DomainError
from .numerics import RULE16, PanelScheme, integrate_panels

# Ai(0) and -Ai'(0) to more digits than long double carries.
_AI0 = np.longdouble("0.355028053887817239260063186004183176398")
_AIP0 = np.longdouble("0.258819403792806798405183560188858261013")

# series is used on [-SERIES_NEG, SERIES_POS], the Taylor table on
# (SERIES_POS, ASY_POS], asymptotics beyond.
_SERIES_POS = 4.0
_SERIES_NEG = 9.0
_ASY_POS = 8.0
_DOMAIN = 200.0
_N_SERIES = 72
_N_ASY = 40
_TAYLOR_H = 1.0 / 16.0
_N_TAYLOR = 24
# Ai(30) ~ 3e-110: beyond this Ai and Ai' count as zero in every kernel, and
# mapped Nystrom nodes may lie far past |x| <= _DOMAIN
_AI_CUT = 30.0
# Ai and Ai' underflow to 0.0 in float64 from 108 on.  Data amplified later
# (the id-PII march takes Ai(30) to O(1) at T = 1/16) may be zeroed only there
_AI_ZERO = 108.0


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
    u = np.empty(_N_ASY)
    v = np.empty(_N_ASY)
    u[0] = 1.0
    v[0] = 1.0
    for k in range(_N_ASY - 1):
        # u_{k+1}/u_k = (6k+1)(6k+3)(6k+5) / (216 (k+1) (2k+1))
        u[k + 1] = u[k] * (6 * k + 1) * (6 * k + 3) * (6 * k + 5) / (216.0 * (k + 1) * (2 * k + 1))
        v[k + 1] = u[k + 1] * (6 * (k + 1) + 1) / (1 - 6 * (k + 1))
    return u, v


_U_COEF, _V_COEF = _asy_coeffs()


def _airy_series(x):
    """Maclaurin evaluation in long double on the central window."""
    xl = x.astype(np.longdouble)
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
    ai = _AI0 * f - _AIP0 * g
    aip = _AI0 * fp - _AIP0 * gp
    return ai.astype(float), aip.astype(float)


def _asy_sum(zeta, coef, parity=None):
    """Sum_k (-1)^k coef[k] zeta^{-k}, truncated at the smallest term.

    parity='even' / 'odd' restricts to even or odd k (with the sign pattern
    (-1)^j for the j-th retained term), as needed on the oscillatory side.
    """
    if parity is None:
        ks = np.arange(_N_ASY)
    elif parity == "even":
        ks = np.arange(0, _N_ASY, 2)
    else:
        ks = np.arange(1, _N_ASY, 2)
    total = np.zeros_like(zeta)
    active = np.ones(zeta.shape, dtype=bool)
    prev = np.full(zeta.shape, np.inf)
    for j, k in enumerate(ks):
        term = coef[k] * zeta ** (-float(k))
        grown = np.abs(term) > prev
        active &= ~grown
        total = np.where(active, total + (-1.0) ** j * term, total)
        prev = np.where(active, np.abs(term), prev)
    return total


def _airy_asy_pos(x):
    zeta = (2.0 / 3.0) * x ** 1.5
    pre = np.exp(-zeta) / (2.0 * np.sqrt(np.pi) * x ** 0.25)
    ai = pre * _asy_sum(zeta, _U_COEF)
    aip = -(x ** 0.25) * np.exp(-zeta) / (2.0 * np.sqrt(np.pi)) * _asy_sum(zeta, _V_COEF)
    return ai, aip


def _airy_asy_neg(x):
    z = -x
    zeta = (2.0 / 3.0) * z ** 1.5
    phase = zeta - 0.25 * np.pi
    c, s = np.cos(phase), np.sin(phase)
    p_even = _asy_sum(zeta, _U_COEF, parity="even")
    p_odd = _asy_sum(zeta, _U_COEF, parity="odd")
    q_even = _asy_sum(zeta, _V_COEF, parity="even")
    q_odd = _asy_sum(zeta, _V_COEF, parity="odd")
    ai = (c * p_even + s * p_odd) / (np.sqrt(np.pi) * z ** 0.25)
    aip = (z ** 0.25 / np.sqrt(np.pi)) * (s * q_even - c * q_odd)
    return ai, aip


def _taylor_coeffs(c, ai, aip):
    """Taylor coefficients of Ai about the centres c, from Ai'' = x Ai.

    a_0 = Ai(c), a_1 = Ai'(c), a_{k+2} = (c a_k + a_{k-1}) / ((k+2)(k+1)).
    Returns a long-double array of shape c.shape + (_N_TAYLOR,).
    """
    a = np.zeros(np.shape(c) + (_N_TAYLOR,), dtype=np.longdouble)
    a[..., 0] = ai
    a[..., 1] = aip
    a[..., 2] = c * ai / 2
    for k in range(1, _N_TAYLOR - 2):
        a[..., k + 2] = (c * a[..., k] + a[..., k - 1]) / ((k + 2) * (k + 1))
    return a


def _taylor_table():
    """Coefficients about the anchors _SERIES_POS + j h, j = 0..n.

    The anchors are reached by stepping the Taylor expansion backwards from
    the asymptotic value at _ASY_POS.  Going down, Ai is the growing solution
    of Ai'' = x Ai, so the rounding errors stay relative to Ai (in long
    double for margin).
    """
    n = int(round((_ASY_POS - _SERIES_POS) / _TAYLOR_H))
    centres = _SERIES_POS + _TAYLOR_H * np.arange(n + 1, dtype=np.longdouble)
    powers = (-np.longdouble(_TAYLOR_H)) ** np.arange(_N_TAYLOR)
    k = np.arange(1, _N_TAYLOR)
    ai = np.empty(n + 1, dtype=np.longdouble)
    aip = np.empty(n + 1, dtype=np.longdouble)
    ai0, aip0 = _airy_asy_pos(np.array([_ASY_POS]))
    ai[n], aip[n] = ai0[0], aip0[0]
    for j in range(n, 0, -1):
        a = _taylor_coeffs(centres[j], ai[j], aip[j])
        ai[j - 1] = np.sum(a * powers)
        aip[j - 1] = np.sum(k * a[1:] * powers[:-1])
    a = _taylor_coeffs(centres, ai, aip)
    return a.astype(float), (k * a[:, 1:]).astype(float)


_TAYLOR_AI, _TAYLOR_AIP = _taylor_table()


def _airy_taylor(x):
    """Taylor evaluation about the nearest anchor (|x - c| <= h/2)."""
    j = np.rint((x - _SERIES_POS) / _TAYLOR_H).astype(int)
    t = x - (_SERIES_POS + _TAYLOR_H * j)
    ai = _TAYLOR_AI[j, -1]
    for k in range(_N_TAYLOR - 2, -1, -1):
        ai = ai * t + _TAYLOR_AI[j, k]
    aip = _TAYLOR_AIP[j, -1]
    for k in range(_N_TAYLOR - 3, -1, -1):
        aip = aip * t + _TAYLOR_AIP[j, k]
    return ai, aip


def _airy_pair(x):
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xf = np.atleast_1d(x)
    if not np.all(np.isfinite(xf)):
        raise DomainError("Airy argument must be finite")
    if np.any(np.abs(xf) > _DOMAIN):
        raise DomainError(f"Airy argument out of supported range |x| <= {_DOMAIN}")
    ai = np.empty_like(xf)
    aip = np.empty_like(xf)
    mid = (xf >= -_SERIES_NEG) & (xf <= _SERIES_POS)
    fill = (xf > _SERIES_POS) & (xf <= _ASY_POS)
    pos = xf > _ASY_POS
    neg = xf < -_SERIES_NEG
    if np.any(mid):
        ai[mid], aip[mid] = _airy_series(xf[mid])
    if np.any(fill):
        ai[fill], aip[fill] = _airy_taylor(xf[fill])
    if np.any(pos):
        ai[pos], aip[pos] = _airy_asy_pos(xf[pos])
    if np.any(neg):
        ai[neg], aip[neg] = _airy_asy_neg(xf[neg])
    if scalar:
        return ai[0], aip[0]
    return ai, aip


def airy_ai(x):
    """Airy function Ai(x) for |x| <= 200 (vectorized)."""
    return _airy_pair(x)[0]


def airy_ai_prime(x):
    """Derivative Ai'(x) for |x| <= 200 (vectorized)."""
    return _airy_pair(x)[1]


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
