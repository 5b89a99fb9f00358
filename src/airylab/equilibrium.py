"""One-cut equilibrium measures for polynomial potentials and derived edge data.

For an even-degree polynomial potential V with positive leading coefficient the
equilibrium measure is supported on a single interval [b-, b+].  After shifting
the right edge to the origin the density takes the form

    rho(x) = (1/2 pi) sqrt(|x|(x+a)) h(x),      x in [-a, 0],

with h a polynomial obtained from V' by series division.  This module locates
the support, builds h, and derives what the studies use at the soft edge: the
edge constant c_V, the Lagrange multiplier ell in closed form from the cosine
expansion of log|cos theta - cos phi| (checked by the Euler-Lagrange equality
across the support), and the Szego-type integral of a merging deformation
together with its closed-form n -> infinity limit.  The exterior phase phi,
the conformal map psi and a quadrature of the Euler-Lagrange residual, which
only the tests evaluate, are test oracles in tests/oracles.py.
"""

import numpy as np

from .errors import BreakdownError, ConvergenceError, DomainError, InconsistencyError
from .numerics import PanelScheme, RealPolynomial, gauss_legendre
from .special import f_beta_quad, log_logistic

_RULE64 = gauss_legendre(64)
# the Euler-Lagrange equality is checked at x = -a sin^2(phi/2), both edges included
_EL_PHI = np.linspace(0.0, np.pi, 9)
# both bounds sit far above rounding: on the potentials of the tests and the
# benchmark |mass - 1| <= 2.7e-15 and the spread of ell(phi) <= 2.6e-15
_MASS_TOL = 1e-10
_EL_TOL = 1e-10


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
    crit = dV.real_roots()
    m0 = float(crit[np.argmin(V(crit))]) if crit.size else 0.0
    for r0 in (1.0, 0.5, 2.0, 4.0, 0.25):
        m, r = m0, r0
        for _ in range(200):
            res = residual(m, r)
            if np.max(np.abs(res)) < 1e-13:
                if r > 0:
                    return m - r, m + r
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
    raise ConvergenceError("support solve did not converge")


def shift_to_zero(V, b_plus):
    """Potential in the coordinate with the right edge at the origin."""
    return Potential(V.poly.shift(b_plus).coeffs)


def compute_h(V_shifted, a):
    """Polynomial part h of V'(z) (z(z+a))^{-1/2} expanded at infinity.

    With V'(z) = sum_j c_j z^j and (z(z+a))^{-1/2} = sum_k b_k z^{-1-k},
    b_k = binom(-1/2, k) a^k, the z^p coefficient of h is sum_j c_j b_{j-1-p}.
    """
    if a <= 0:
        raise DomainError("support width must be positive")
    c = V_shifted.dpoly.coeffs
    d = c.size - 1  # degree of V'
    b = [1.0]
    for k in range(d - 1):
        b.append(b[k] * (-0.5 * (2 * k + 1) / (k + 1) * a))
    return RealPolynomial([sum((c[j] * b[j - 1 - p] for j in range(p + 1, d + 1)), 0.0)
                           for p in range(max(d - 1, 0) + 1)])


class EquilibriumData:
    """Support width a, edge polynomial h, Lagrange constant ell and edge constant c_V
    (shifted frame)."""

    def __init__(self, V_shifted, a, h, shift, ell):
        self.V = V_shifted
        self.a = a
        self.h = h
        self.shift = shift  # original b_plus: x_orig = x_shifted + shift
        self.ell = ell
        h0 = h(0.0)
        self.c_v = 2.0 ** (-2.0 / 3.0) * h0 ** (2.0 / 3.0) * a ** (1.0 / 3.0)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < -self.a - 1e-12) or np.any(x > 1e-12):
            raise DomainError("density argument must lie in the support [-a, 0]")
        xc = np.clip(x, -self.a, 0.0)
        out = np.sqrt(-xc * (xc + self.a)) * self.h(xc) / (2.0 * np.pi)
        return out if out.ndim else out[()]


def _sin2_h_cosines(h, a):
    """Coefficients g_j of g(theta) = sin^2(theta) h(-a sin^2(theta/2)) = sum_j g_j cos(j theta).

    g is a polynomial of degree m - 1 = deg h + 2 in c = cos(theta), since
    -a sin^2(theta/2) = -a(1 - c)/2 and sin^2(theta) = 1 - c^2.  The cosines
    cos(j theta_k), j < m, are orthogonal on the m angles
    theta_k = pi (k + 1/2) / m, so the discrete cosine sums there give the g_j
    exactly, up to rounding.
    """
    m = h.coeffs.size + 2
    theta = np.pi * (np.arange(m) + 0.5) / m
    vals = np.sin(theta) ** 2 * h(-a * np.sin(0.5 * theta) ** 2)
    g = (2.0 / m) * (np.cos(np.outer(np.arange(m), theta)) @ vals)
    g[0] *= 0.5
    return g


def lagrange_constant(V_shifted, a, g):
    """ell(phi) = -U(x) - V(x)/2 at the support points x = -a sin^2(phi/2), phi in _EL_PHI.

    U(x) = -int log|x - y| rho(y) dy is the log potential of the density,
    rho(y) dy = (a^2/8pi) g(theta) dtheta with y = -a sin^2(theta/2) and g from
    _sin2_h_cosines.  Then x - y = (a/2)(cos phi - cos theta), and
    log|cos theta - cos phi| = -log 2 - 2 sum_{k>=1} cos(k theta) cos(k phi)/k
    (Saff and Totik, Logarithmic Potentials with External Fields, 1997) gives,
    for unit mass a^2 g_0/8 = 1,

        ell(phi) = log(a/4) - (a^2/8) sum_{j>=1} g_j cos(j phi)/j - V(x)/2,

    a finite sum.  The Euler-Lagrange equality makes ell(phi) the same
    constant at every point of the support; the first entry (phi = 0) is the
    right edge x = 0, the last (phi = pi) the left edge x = -a.
    """
    j = np.arange(1, g.size)
    series = np.cos(np.outer(_EL_PHI, j)) @ (g[1:] / j)
    x = -a * np.sin(0.5 * _EL_PHI) ** 2
    return np.log(0.25 * a) - (0.125 * a * a) * series - 0.5 * V_shifted(x)


def build_equilibrium(V):
    """Full equilibrium pipeline with structural guards.

    Locates the support, shifts the right edge to zero, builds h and the
    Lagrange constant ell, and verifies one-cut regularity (h(0) > 0 and no
    real root of h in [-a, 0]), unit mass to _MASS_TOL, and the Euler-Lagrange
    equality: the spread of ell(phi) over the points of _EL_PHI, edges
    included, stays within _EL_TOL (1 + |ell|).  On x^2/2 + x^4/20 a support
    shifted by 1e-9 spreads ell(phi) by 3.1e-9 while the mass stays 1 to
    rounding, and a width off by 1e-6 moves the mass by 7.7e-7.  Each guard
    raises with the stage, the coefficients of V, the measured value and the bound.
    """
    if not isinstance(V, Potential):
        V = Potential(V)
    where = f"equilibrium stage, V = {V.poly.coeffs.tolist()}"
    b_minus, b_plus = solve_support(V)
    a = b_plus - b_minus
    Vs = shift_to_zero(V, b_plus)
    h = compute_h(Vs, a)
    roots, h0 = h.real_roots_in(-a, 0.0), float(h(0.0))
    if roots.size or not h0 > 0:
        raise BreakdownError(f"{where}: not one-cut regular: h has the real roots "
                             f"{roots.tolist()} on the support [{-a:.6g}, 0] and "
                             f"h(0) = {h0!r}, bound > 0")
    g = _sin2_h_cosines(h, a)
    mass = float(a * a * g[0] / 8.0)
    if not abs(mass - 1.0) <= _MASS_TOL:
        raise InconsistencyError(f"{where}: the equilibrium measure has mass {mass!r}, "
                                 f"|mass - 1| = {abs(mass - 1.0):.3g} > bound {_MASS_TOL:g}")
    ells = lagrange_constant(Vs, a, g)
    ell = float(ells[0])
    spread = float(np.ptp(ells))
    bound = _EL_TOL * (1.0 + abs(ell))
    if not spread <= bound:
        raise InconsistencyError(f"{where}: the Lagrange constant ell(phi) spreads by "
                                 f"{spread:.3g} over {ells.size} support points, "
                                 f"> bound {bound:.3g} (Euler-Lagrange equality)")
    return EquilibriumData(Vs, a, h, b_plus, ell)


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
