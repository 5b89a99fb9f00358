"""Low-level kernels: polynomials, Gauss-Legendre panels, half-line maps, log-dets.

Equilibrium measures, recurrences and Fredholm determinants are built on the
primitives in this module, so they are deliberately small, deterministic and
heavily tested.  The half-line maps return the mapped nodes and their Jacobian
together, (x, dx/du); lu_logdet takes the Fredholm determinants and tests
their sign.  The package's one RK4, the id-PII march, is written in closed
form in idpii.solve_idpii.
"""

import numpy as np

from .errors import BreakdownError, ConvergenceError, DomainError


class RealPolynomial:
    """Real polynomial stored by ascending coefficients, evaluated by Horner."""

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise DomainError("coefficient array must be one-dimensional and non-empty")
        if not np.all(np.isfinite(coeffs)):
            raise DomainError("polynomial coefficients must be finite")
        # normalize away trailing zeros (keep at least the constant term)
        nz = np.nonzero(coeffs)[0]
        self.coeffs = coeffs[: nz[-1] + 1] if nz.size else coeffs[:1]

    @property
    def degree(self):
        return self.coeffs.size - 1

    def __call__(self, x):
        x = np.asarray(x)
        acc = np.zeros_like(x, dtype=self.coeffs.dtype if x.dtype.kind != "f" else x.dtype)
        acc = acc + self.coeffs[-1]
        for c in self.coeffs[-2::-1]:
            acc = acc * x + c
        return acc if acc.ndim else acc[()]

    def derivative(self):
        if self.degree == 0:
            return RealPolynomial([0.0])
        k = np.arange(1, self.coeffs.size)
        return RealPolynomial(self.coeffs[1:] * k)

    def real_roots(self, level=0.0):
        """The x with p(x) = level whose imaginary part is below 1e-10, in no set order."""
        r = np.roots(np.r_[self.coeffs[:0:-1], self.coeffs[0] - level])
        return r[np.abs(r.imag) < 1e-10].real

    def shift(self, c):
        """Return the polynomial q(x) = p(x + c) (Taylor shift by repeated Horner)."""
        work = np.array(self.coeffs, dtype=float)
        n = work.size
        # repeated synthetic division by (x - c): remainders are the shifted coeffs
        for j in range(n - 1):
            for i in range(n - 2, j - 1, -1):
                work[i] += c * work[i + 1]
        return RealPolynomial(work)

    def __repr__(self):
        return f"RealPolynomial({self.coeffs.tolist()})"


class QuadratureRule:
    """Nodes and weights on the reference interval [-1, 1]."""

    def __init__(self, nodes, weights):
        self.nodes = np.asarray(nodes, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise DomainError("nodes and weights must be matching 1-d arrays")

    @property
    def size(self):
        return self.nodes.size


_RULES = {}


def gauss_legendre(m):
    """Gauss-Legendre rule with m nodes on [-1, 1].

    Nodes are the roots of the degree-m Legendre polynomial, located by a
    vectorized Newton iteration started from Chebyshev-angle guesses; weights
    come from the derivative identity w_i = 2 / ((1 - x_i^2) P'_m(x_i)^2).
    Each rule is built once and then shared by every caller, so its nodes and
    weights are read-only.
    """
    m = int(m)
    if m < 1:
        raise DomainError(f"need at least one node, got m={m}")
    if m not in _RULES:
        rule = _legendre_rule(m)
        rule.nodes.setflags(write=False)
        rule.weights.setflags(write=False)
        _RULES[m] = rule
    return _RULES[m]


def _legendre_p_dp(m, x):
    """P_m(x) and P'_m(x) by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for j in range(1, m):
        p, p_prev = ((2 * j + 1) * x * p - j * p_prev) / (j + 1), p
    return p, m * (p_prev - x * p) / (1.0 - x * x)


def _legendre_rule(m):
    if m == 1:
        return QuadratureRule([0.0], [2.0])
    k = np.arange(m)
    x = np.cos(np.pi * (k + 0.75) / (m + 0.5))
    for _ in range(100):
        p, dp = _legendre_p_dp(m, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise ConvergenceError(f"Legendre root finding did not converge for m={m}")
    _, dp = _legendre_p_dp(m, x)  # one clean-up pass at the converged nodes
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return QuadratureRule(x[order], w[order])


RULE16 = gauss_legendre(16)  # the panel rule shared by every module


class PanelScheme:
    """A partition of an interval into panels, each carrying RULE16."""

    def __init__(self, breakpoints):
        breakpoints = np.asarray(breakpoints, dtype=float)
        if breakpoints.ndim != 1 or breakpoints.size < 2:
            raise DomainError("need at least two breakpoints")
        if not np.all(np.isfinite(breakpoints)):
            raise DomainError("breakpoints must be finite")
        if not np.all(np.diff(breakpoints) > 0):
            raise DomainError("breakpoints must be strictly increasing")
        mid = 0.5 * (breakpoints[1:] + breakpoints[:-1])
        half = 0.5 * np.diff(breakpoints)
        self.nodes = (mid[:, None] + half[:, None] * RULE16.nodes[None, :]).ravel()
        self.weights = (half[:, None] * RULE16.weights[None, :]).ravel()


def integrate_panels(f, scheme):
    """Integrate f over a PanelScheme, summing panels left to right.

    The sums are taken in the wider of the integrand's type and float64, so
    an integrand that returns long double is integrated in long double.
    """
    vals = np.asarray(f(scheme.nodes))
    if vals.shape != scheme.nodes.shape:
        raise DomainError("integrand must return one value per node")
    if not np.all(np.isfinite(vals)):
        raise DomainError("integrand produced non-finite values")
    per_panel = (vals * scheme.weights).reshape(-1, RULE16.size).sum(axis=1)
    return np.cumsum(per_panel)[-1]  # cumsum adds strictly left to right


def map_semi_infinite(u, s, L):
    """Affine-rational map of u in [0,1) onto the half line [-s, infinity).

    Returns (x, dx/du) with x = -s + L u/(1-u) and dx/du = L/(1-u)^2.  L > 0
    sets the scale: half the unit interval maps into [-s, -s + L].
    """
    if not (np.isfinite(s) and np.isfinite(L)) or L <= 0:
        raise DomainError("map requires finite s and L > 0")
    u = np.asarray(u, dtype=float)
    if np.any(u < 0) or np.any(u >= 1):
        raise DomainError("map argument must lie in [0, 1)")
    return -s + L * u / (1.0 - u), L / (1.0 - u) ** 2


def map_log_linear(u, s, a, b):
    """Linear-logarithmic map of u in [0,1) onto the half line [-s, infinity).

    Returns (x, dx/du) with x = -s + a u - b log(1-u) and dx/du = a + b/(1-u).
    The linear part spreads the nodes over [-s, -s + a]; the logarithmic end
    turns an integrand decaying like e^{-2x/b} into one vanishing like
    (1-u)^2, which the Jacobian's b/(1-u) leaves smooth and vanishing at
    u = 1, so a Gauss-Legendre rule in u keeps converging geometrically.
    """
    if not (np.isfinite(s) and np.isfinite(a) and np.isfinite(b)) or a < 0 or b <= 0:
        raise DomainError("map requires finite s, a >= 0 and b > 0")
    u = np.asarray(u, dtype=float)
    if np.any(u < 0) or np.any(u >= 1):
        raise DomainError("map argument must lie in [0, 1)")
    return -s + a * u - b * np.log1p(-u), a + b / (1.0 - u)


def lu_logdet(a, where):
    """log det of a square matrix via LU with partial pivoting.

    A determinant that is not positive raises BreakdownError, whose message
    begins with `where`.  The Fredholm determinants of airylab.fredholm come
    through here; ensemble.log_lstat_det takes its log-det from the
    eigenvalues its spectral guard computes.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    sign, logabs = np.linalg.slogdet(a)
    if sign <= 0:
        raise BreakdownError(f"{where}: determinant is not positive")
    return float(logabs)
