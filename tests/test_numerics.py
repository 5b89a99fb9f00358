"""Tests for the low-level numerical kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airylab.errors import BreakdownError, DomainError
from airylab.numerics import (PanelScheme, RealPolynomial, gauss_legendre,
                              integrate_panels, lu_logdet, map_log_linear,
                              map_semi_infinite)


class TestRealPolynomial:
    def test_horner_matches_polyval(self):
        coeffs = [1.0, -2.0, 0.5, 3.0]
        p = RealPolynomial(coeffs)
        xs = np.linspace(-3, 3, 17)
        expected = np.polyval(coeffs[::-1], xs)
        assert np.allclose(p(xs), expected, rtol=1e-14)

    def test_scalar_in_scalar_out(self):
        p = RealPolynomial([1.0, 1.0])
        assert np.ndim(p(2.0)) == 0
        assert p(2.0) == 3.0

    def test_derivative(self):
        p = RealPolynomial([5.0, 0.0, 3.0, 2.0])  # 5 + 3x^2 + 2x^3
        dp = p.derivative()
        assert np.allclose(dp.coeffs, [0.0, 6.0, 6.0])
        assert RealPolynomial([7.0]).derivative()(1.23) == 0.0

    def test_real_roots(self):
        # (x - 1)(x + 2)(x^2 + 1) = x^4 + x^3 - x^2 + x - 2: the complex pair is dropped
        p = RealPolynomial([-2.0, 1.0, -1.0, 1.0, 1.0])
        assert np.allclose(np.sort(p.real_roots()), [-2.0, 1.0], atol=1e-14)
        # x^2 + 1 = 5 at x = -2 and 2, and never equals 0 on the real line
        q = RealPolynomial([1.0, 0.0, 1.0])
        assert np.allclose(np.sort(q.real_roots(5.0)), [-2.0, 2.0], atol=1e-14)
        assert q.real_roots().size == 0

    def test_trailing_zeros_normalized(self):
        p = RealPolynomial([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1

    def test_rejects_bad_coeffs(self):
        with pytest.raises(DomainError):
            RealPolynomial([])
        with pytest.raises(DomainError):
            RealPolynomial([1.0, np.inf])

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=6),
           st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_shift_property(self, coeffs, c, x):
        p = RealPolynomial(coeffs)
        q = p.shift(c)
        assert q(x) == pytest.approx(p(x + c), rel=1e-9, abs=1e-9)


class TestGaussLegendre:
    def test_single_node(self):
        r = gauss_legendre(1)
        assert r.nodes[0] == 0.0 and r.weights[0] == 2.0

    def test_weights_sum_to_two(self):
        for m in (2, 5, 16, 40, 80):
            r = gauss_legendre(m)
            assert np.sum(r.weights) == pytest.approx(2.0, abs=1e-14)
            assert np.all(np.diff(r.nodes) > 0)

    def test_odd_powers_vanish(self):
        r = gauss_legendre(12)
        for k in (1, 3, 5, 11):
            assert np.sum(r.weights * r.nodes ** k) == pytest.approx(0.0, abs=1e-14)

    @given(st.integers(2, 20))
    @settings(max_examples=25, deadline=None)
    def test_exact_for_polynomials(self, m):
        r = gauss_legendre(m)
        # highest exactly integrated even power is 2m - 2
        k = 2 * m - 2
        exact = 2.0 / (k + 1)
        assert np.sum(r.weights * r.nodes ** k) == pytest.approx(exact, rel=1e-13)

    def test_exponential_integral(self):
        r = gauss_legendre(20)
        val = np.sum(r.weights * np.exp(r.nodes))
        assert val == pytest.approx(np.exp(1) - np.exp(-1), rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            gauss_legendre(0)

    def test_rule_built_once_and_read_only(self):
        r = gauss_legendre(37)
        assert gauss_legendre(37) is r and gauss_legendre(37.0) is r
        before = r.nodes.copy()
        for arr in (r.nodes, r.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
            with pytest.raises(ValueError):
                arr *= 2.0
        assert np.array_equal(gauss_legendre(37).nodes, before)


class TestPanels:
    def test_breakpoints_must_increase(self):
        with pytest.raises(DomainError):
            PanelScheme([0.0, 1.0, 1.0])

    def test_integrate_smooth(self):
        scheme = PanelScheme(np.linspace(0, np.pi, 9))
        assert integrate_panels(np.sin, scheme) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_panel_sums_added_left_to_right_in_integrand_type(self, dtype):
        scheme = PanelScheme(np.linspace(0, np.pi, 9))

        def f(x):
            return np.sin(x.astype(dtype))

        ref = dtype(0.0)
        for p in (f(scheme.nodes) * scheme.weights).reshape(-1, 16).sum(axis=1):
            ref += p
        total = integrate_panels(f, scheme)
        assert total.dtype == dtype
        assert total == ref

    def test_integrate_rejects_nonfinite(self):
        scheme = PanelScheme([0.0, 1.0])
        with pytest.raises(DomainError):
            integrate_panels(lambda x: 1.0 / (x - x[0]), scheme)


class TestSemiInfiniteMap:
    def test_endpoint_and_scale(self):
        assert map_semi_infinite(0.0, 2.0, 10.0)[0] == -2.0
        assert map_semi_infinite(0.5, 2.0, 10.0)[0] == pytest.approx(8.0)

    def test_jacobian_matches_finite_difference(self):
        u = np.linspace(0.05, 0.9, 10)
        eps = 1e-6
        fd = (map_semi_infinite(u + eps, 1.0, 5.0)[0]
              - map_semi_infinite(u - eps, 1.0, 5.0)[0]) / (2 * eps)
        assert np.allclose(map_semi_infinite(u, 1.0, 5.0)[1], fd, rtol=1e-8)

    def test_exponential_integral_on_half_line(self):
        # int_{-s}^inf e^{-x} dx = e^{s}
        s, L = 1.5, 8.0
        rule = gauss_legendre(60)
        x, dx_du = map_semi_infinite(0.5 * (rule.nodes + 1.0), s, L)
        val = np.sum(0.5 * rule.weights * dx_du * np.exp(-x))
        assert val == pytest.approx(np.exp(s), rel=1e-10)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            map_semi_infinite(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            map_semi_infinite(0.5, 0.0, -1.0)


class TestLogLinearMap:
    def test_endpoint_and_slopes(self):
        x0, jac0 = map_log_linear(0.0, 2.0, 5.0, 0.5)
        assert x0 == -2.0
        assert map_log_linear(0.5, 2.0, 5.0, 0.5)[0] == pytest.approx(
            -2.0 + 2.5 + 0.5 * np.log(2.0))
        assert jac0 == pytest.approx(5.5)

    def test_jacobian_matches_finite_difference(self):
        u = np.linspace(0.05, 0.95, 10)
        eps = 1e-7
        fd = (map_log_linear(u + eps, -1.0, 3.0, 4.0)[0]
              - map_log_linear(u - eps, -1.0, 3.0, 4.0)[0]) / (2 * eps)
        assert np.allclose(map_log_linear(u, -1.0, 3.0, 4.0)[1], fd, rtol=1e-7)

    def test_slow_exponential_integral_on_half_line(self):
        # int_{-s}^inf e^{-x/4} dx = 4 e^{s/4}: with b = 8 the mapped
        # integrand is e^{s/4 - a u/4} (1-u)^2 (a + 8/(1-u)), a polynomial-like
        # function of u, so 30 nodes already give ~machine precision
        s = 1.5
        rule = gauss_legendre(30)
        x, dx_du = map_log_linear(0.5 * (rule.nodes + 1.0), s, 5.0, 8.0)
        val = np.sum(0.5 * rule.weights * dx_du * np.exp(-x / 4.0))
        assert val == pytest.approx(4.0 * np.exp(s / 4.0), rel=1e-13)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            map_log_linear(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            map_log_linear(-0.1, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            map_log_linear(0.5, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            map_log_linear(0.5, 0.0, -1.0, 1.0)


class TestLogDet:
    def test_known_determinant(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert lu_logdet(a, "known") == pytest.approx(np.log(3.0), rel=1e-14)

    def test_negative_determinant_sign(self):
        # a determinant that is not positive is refused, naming where it was taken
        for a in ([[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]):
            with pytest.raises(BreakdownError, match="not positive") as exc:
                lu_logdet(np.array(a), "det(I - K) at s=1")
            assert str(exc.value).startswith("det(I - K) at s=1: ")

    def test_rejects_nonsquare(self):
        with pytest.raises(DomainError):
            lu_logdet(np.ones((2, 3)), "nonsquare")
