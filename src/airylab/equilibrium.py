"""One-cut equilibrium measures for polynomial potentials and derived edge data.

For an even-degree polynomial potential V with positive leading coefficient the
equilibrium measure is supported on a single interval [b-, b+].  After shifting
the right edge to the origin the density takes the form

    rho(x) = (1/2 pi) sqrt(|x|(x+a)) h(x),      x in [-a, 0],

with h a polynomial obtained from V' by series division.  This module locates
the support, builds h, and derives what the studies use at the soft edge: the
edge constant c_V, the Lagrange multiplier (computed by two independent routes
and cross-checked), and the Szego-type integral of a merging deformation
together with its closed-form n -> infinity limit.  The exterior phase phi,
the conformal map psi and the Euler-Lagrange residual, which only the tests
evaluate, are test oracles in tests/oracles.py.
"""

import numpy as np

from .errors import BreakdownError, ConvergenceError, DomainError, InconsistencyError
from .numerics import PanelScheme, RealPolynomial, gauss_legendre, integrate_panels
from .special import f_beta_quad, log_logistic

_RULE64 = gauss_legendre(64)


class Potential:
    """Even-degree polynomial confining potential."""

    def __init__(self, coeffs):
        p = RealPolynomial(coeffs)
        if p.degree < 2 or p.degree % 2 != 0:
            raise DomainError("potential must have even degree >= 2")
        if p.coeffs[-1] <= 0:
            raise DomainError("potential must have positive leading coefficient")
        self.poly = p
        self.dpoly = p.derivative()

    def __call__(self, x):
        return self.poly(x)

    def d(self, x):
        return self.dpoly(x)


def _theta_nodes():
    # 64-point Gauss-Legendre on [0, pi]; exact for the trigonometric-moment
    # integrals of any potential of reasonable degree.
    t = 0.5 * np.pi * (_RULE64.nodes + 1.0)
    w = 0.5 * np.pi * _RULE64.weights
    return t, w


def solve_support(V):
    """Endpoints (b_minus, b_plus) of the one-cut support of the measure.

    Solves the two moment conditions
        (1/2pi) int_0^pi V'(m + r cos t) dt = 0
        (1/2pi) int_0^pi (m + r cos t) V'(m + r cos t) dt = 1
    for the center m and radius r by damped Newton (residual < 1e-13, 200 steps).
    """
    t, w = _theta_nodes()
    ct = np.cos(t)
    dV, ddV = V.dpoly, V.dpoly.derivative()

    def residual(m, r):
        x = m + r * ct
        g = dV(x)
        f1 = np.sum(w * g) / (2.0 * np.pi)
        f2 = np.sum(w * x * g) / (2.0 * np.pi) - 1.0
        return np.array([f1, f2])

    def jacobian(m, r):
        x = m + r * ct
        g, gg = dV(x), ddV(x)
        j11 = np.sum(w * gg) / (2.0 * np.pi)
        j12 = np.sum(w * ct * gg) / (2.0 * np.pi)
        j21 = np.sum(w * (g + x * gg)) / (2.0 * np.pi)
        j22 = np.sum(w * ct * (g + x * gg)) / (2.0 * np.pi)
        return np.array([[j11, j12], [j21, j22]])

    # start at the minimizer of V with a unit radius, fall back on rescales
    crit = np.roots(dV.coeffs[::-1])
    crit = crit[np.abs(crit.imag) < 1e-10].real
    m0 = float(crit[np.argmin(V(crit))]) if crit.size else 0.0
    for r0 in (1.0, 0.5, 2.0, 4.0, 0.25):
        m, r = m0, r0
        ok = False
        for _ in range(200):
            res = residual(m, r)
            if np.max(np.abs(res)) < 1e-13:
                ok = True
                break
            try:
                step = np.linalg.solve(jacobian(m, r), res)
            except np.linalg.LinAlgError:
                break
            lam = 1.0
            while r - lam * step[1] <= 0:
                lam *= 0.5
                if lam < 1e-8:
                    break
            m, r = m - lam * step[0], r - lam * step[1]
        if ok and r > 0:
            return m - r, m + r
    raise ConvergenceError("support solve did not converge")


def shift_to_zero(V, b_plus):
    """Potential in the coordinate with the right edge at the origin."""
    return Potential(V.poly.shift(b_plus).coeffs)


def _series_division(c, a, powers):
    """Coefficients of z^p, p in powers, of V'(z) (z(z+a))^{-1/2} expanded at infinity.

    With V'(z) = sum_j c_j z^j and (z(z+a))^{-1/2} = sum_k b_k z^{-1-k},
    b_k = binom(-1/2, k) a^k, the z^p coefficient is sum_j c_j b_{j-1-p}.
    The arithmetic is in the type of a: float64 for h, long double for the tail.
    """
    d = c.size - 1  # degree of V'
    b = [a ** 0]
    for k in range(d - 1 - min(powers)):
        b.append(b[k] * (-0.5 * (2 * k + 1) / (k + 1) * a))
    return np.array([sum((c[j] * b[j - 1 - p] for j in range(max(p + 1, 0), d + 1)), a * 0)
                     for p in powers])


def compute_h(V_shifted, a):
    """Polynomial part h of V'(z) (z(z+a))^{-1/2} expanded at infinity."""
    if a <= 0:
        raise DomainError("support width must be positive")
    c = V_shifted.dpoly.coeffs
    return RealPolynomial(_series_division(c, a, range(max(c.size - 2, 0) + 1)))


class EquilibriumData:
    """Support width a, edge polynomial h, and derived constants (shifted frame)."""

    def __init__(self, V_shifted, a, h, shift):
        self.V = V_shifted
        self.a = a
        self.h = h
        self.shift = shift  # original b_plus: x_orig = x_shifted + shift
        h0 = h(0.0)
        self.c_v = 2.0 ** (-2.0 / 3.0) * h0 ** (2.0 / 3.0) * a ** (1.0 / 3.0)
        self.ell = None  # filled by build_equilibrium

    def density(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < -self.a - 1e-12) or np.any(x > 1e-12):
            raise DomainError("density argument must lie in the support [-a, 0]")
        xc = np.clip(x, -self.a, 0.0)
        out = np.sqrt(-xc * (xc + self.a)) * self.h(xc) / (2.0 * np.pi)
        return out if out.ndim else out[()]


def _graded_breaks(lo, hi, sing, n_geo=45):
    """Panel breakpoints on [lo, hi], geometrically refined toward sing."""
    pts = [lo, hi]
    for side, end in ((-1.0, lo), (1.0, hi)):
        span = abs(end - sing)
        if span <= 0:
            continue
        d = span
        for _ in range(n_geo):
            d *= 0.5
            pts.append(sing + side * d)
    # a few uniform points away from the singularity
    pts.extend(np.linspace(lo, hi, 9).tolist())
    pts = np.unique(np.clip(np.asarray(pts), lo, hi))
    return pts[np.concatenate(([True], np.diff(pts) > 1e-300))]


def _log_potential(eq, x0):
    """U(x0) = -int log|x0 - y| rho(y) dy via the theta substitution."""
    a, h = eq.a, eq.h

    def integrand(theta):
        y = -a * np.sin(0.5 * theta) ** 2
        return np.sin(theta) ** 2 * h(y) * np.log(np.abs(x0 - y))

    if -a < x0 < 0:
        c = 1.0 - 2.0 * abs(x0) / a
        sing = float(np.arccos(np.clip(c, -1.0, 1.0)))
        breaks = _graded_breaks(0.0, np.pi, sing)
    else:
        breaks = np.linspace(0.0, np.pi, 33)
    scheme = PanelScheme(breaks)
    vals = integrand(scheme.nodes)
    vals[~np.isfinite(vals)] = 0.0  # node exactly at the log singularity
    integral = float(np.sum(vals * scheme.weights))
    return -(a * a / (8.0 * np.pi)) * integral


def lagrange_constant(eq):
    """Lagrange multiplier ell of the equilibrium problem, two routes.

    Route 1 evaluates ell = -U(x0) - V(x0)/2 at the interior point x0 = -a/2
    with log-graded quadrature.  Route 2 uses the far-field expansion
    phi(x) = V(x)/2 + ell - log x + c1/x + c2/x^2 + ... at x = 1e4, 2e4, 4e4
    with Richardson elimination of the 1/x and 1/x^2 terms, in extended
    precision.  Returns (ell, route2_value); callers decide how strictly to
    compare.
    """
    x0 = -0.5 * eq.a
    route1 = -_log_potential(eq, x0) - 0.5 * eq.V(x0)
    vals = [_far_field_ell(eq, x) for x in (1.0e4, 2.0e4, 4.0e4)]
    route2 = (vals[0] - 6.0 * vals[1] + 8.0 * vals[2]) / 3.0
    return route1, route2


def _far_field_ell(eq, x):
    """phi(x) - V(x)/2 + log x without large cancellations.

    phi - V/2 is accumulated as the integral of the O(1/s) difference
    (1/2) sqrt(s(s+a)) h(s) - V'(s)/2, written in the s = w^2 variable, so the
    huge polynomial parts cancel inside each integrand evaluation (done in
    extended precision) rather than between two large totals.
    """
    ld = np.longdouble
    a = ld(eq.a)
    x1 = max(25.0, 16.0 * eq.a)  # crossover to the series tail
    if x <= 2.0 * x1:
        raise DomainError("far-field point too close to the support")
    # inner part, s = w^2: integrand w^2 sqrt(w^2+a) h(w^2) - w V'(w^2)
    def inner(w):
        w = w.astype(ld)
        s = w * w
        return s * np.sqrt(s + a) * eq.h(s) - w * eq.V.d(s)

    w1 = np.sqrt(x1)
    total = integrate_panels(inner, PanelScheme(
        np.linspace(0.0, w1, max(16, int(np.ceil(w1 / 0.25))) + 1)))
    # outer part: G(s) = -(1/2) sqrt(s(s+a)) sum_{m>=1} d_{-m} s^{-m}, the
    # decaying remainder of the series division that defines h -- identical to
    # the inner integrand but free of cancellation for s > a.
    dneg = _series_division(eq.V.dpoly.coeffs, a, range(-1, -61, -1))

    def outer(s):
        s = s.astype(ld)
        tail = np.zeros_like(s)
        for m in range(dneg.size - 1, -1, -1):
            tail = tail / s + dneg[m]
        tail = tail / s  # now sum d_{-m} s^{-m}, m >= 1
        return -0.5 * np.sqrt(s * (s + a)) * tail

    breaks = [x1]
    sx = x1
    while sx < x:
        sx = min(2.0 * sx, x)
        breaks.extend(np.linspace(breaks[-1], sx, 5)[1:].tolist())
    total += integrate_panels(outer, PanelScheme(np.unique(breaks)))
    return float(total - 0.5 * eq.V(ld(0.0)) + np.log(ld(x)))


def build_equilibrium(V):
    """Full equilibrium pipeline with structural guards.

    Locates the support, shifts the right edge to zero, builds h, verifies
    one-cut regularity (h > 0 on the support), unit mass, and agreement of the
    two Lagrange-constant routes to 1e-7.
    """
    if not isinstance(V, Potential):
        V = Potential(V)
    b_minus, b_plus = solve_support(V)
    a = b_plus - b_minus
    Vs = shift_to_zero(V, b_plus)
    h = compute_h(Vs, a)
    grid = np.linspace(-a, 0.0, 101)
    if np.any(h(grid) <= 0):
        raise BreakdownError("h is not strictly positive on the support (not one-cut regular)")
    eq = EquilibriumData(Vs, a, h, b_plus)
    t, w = _theta_nodes()
    mass = (a * a / (8.0 * np.pi)) * np.sum(w * np.sin(t) ** 2 * h(-a * np.sin(0.5 * t) ** 2))
    if abs(mass - 1.0) > 1e-10:
        raise InconsistencyError(f"equilibrium measure mass {mass} != 1")
    r1, r2 = lagrange_constant(eq)
    if abs(r1 - r2) > 1e-7:
        raise InconsistencyError(f"Lagrange constant routes disagree: {r1} vs {r2}")
    eq.ell = r1
    return eq


def szego_q0(eq, q_poly, n, s):
    """q0 = -(1/2pi) int log sigma_n / sqrt(|x|(x+a)) dx over the support.

    sigma_n(x) = logistic(s + n^{2/3} Q(x)) with Q the deformation polynomial
    in the shifted (edge-at-zero) coordinate.  The substitution
    x = -a sin^2(theta/2) absorbs the square-root factor; panels are graded
    geometrically toward theta = 0 to resolve the n^{-1/3} edge scale.
    """
    if n < 1:
        raise DomainError("n must be positive")
    a = eq.a
    breaks = np.unique(np.concatenate([
        np.pi * 0.5 ** np.arange(0, 60.0), [0.0, np.pi],
        np.linspace(0.0, np.pi, 17)]))
    scheme = PanelScheme(breaks)
    x = -a * np.sin(0.5 * scheme.nodes) ** 2
    vals = log_logistic(s + float(n) ** (2.0 / 3.0) * q_poly(x))
    return -np.sum(vals * scheme.weights) / (2.0 * np.pi)


def q0_limit(s, t, a):
    """Closed-form n -> infinity limit of n^{1/3} q0: sqrt(t/a) F_{-1/2}(s) / 2pi."""
    if t <= 0 or a <= 0:
        raise DomainError("t and a must be positive")
    return np.sqrt(t) / (2.0 * np.pi * np.sqrt(a)) * f_beta_quad(-0.5, s)
