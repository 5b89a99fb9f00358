"""Tests for equilibrium measures and derived edge data."""

import numpy as np
import pytest

from airylab import equilibrium
from airylab.equilibrium import (Potential, build_equilibrium, compute_h, q0_limit,
                                 solve_support, szego_q0)
from airylab.errors import DomainError, InconsistencyError
from airylab.numerics import RealPolynomial

from oracles import conformal_psi, el_residual, phi_right


def _trapezoid(y, x):
    """Composite trapezoid rule (np.trapz is gone in numpy 2; np.trapezoid is not in 1.24)."""
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    return float((np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum())


@pytest.fixture(scope="module")
def eq_sgue():
    # shifted Gaussian: V(x) = 2(x+1)^2, support [-2, 0], h = 4
    return build_equilibrium(Potential([2.0, 4.0, 2.0]))


@pytest.fixture(scope="module")
def eq_quartic():
    return build_equilibrium(Potential([0.0, 0.0, 0.5, 0.0, 0.05]))


class TestSupport:
    def test_scaled_gaussian_endpoints(self):
        # V = 2x^2 has semicircle support [-1, 1]
        bm, bp = solve_support(Potential([0.0, 0.0, 2.0]))
        assert bm == pytest.approx(-1.0, abs=1e-10)
        assert bp == pytest.approx(1.0, abs=1e-10)

    def test_standard_gaussian_endpoints(self):
        # V = x^2/2 has support [-2, 2]
        bm, bp = solve_support(Potential([0.0, 0.0, 0.5]))
        assert bm == pytest.approx(-2.0, abs=1e-10)
        assert bp == pytest.approx(2.0, abs=1e-10)

    def test_shifted_potential_tracks_shift(self):
        bm, bp = solve_support(Potential([2.0, 4.0, 2.0]))
        assert bm == pytest.approx(-2.0, abs=1e-10)
        assert bp == pytest.approx(0.0, abs=1e-10)

    def test_potential_validation(self):
        with pytest.raises(DomainError):
            Potential([0.0, 1.0])  # odd degree
        with pytest.raises(DomainError):
            Potential([0.0, 0.0, -1.0])  # negative leading


class TestEquilibriumData:
    def test_sgue_closed_forms(self, eq_sgue):
        assert eq_sgue.a == pytest.approx(2.0, abs=1e-10)
        assert eq_sgue.c_v == pytest.approx(2.0, abs=1e-8)
        xs = np.linspace(-2.0, 0.0, 11)
        assert np.allclose(eq_sgue.h(xs), 4.0, atol=1e-10)
        # semicircle density value at the center
        assert eq_sgue.density(-1.0) == pytest.approx(2.0 / np.pi, rel=1e-12)

    def test_sgue_lagrange_constant(self, eq_sgue):
        # ell = -1/2 - log 2 for V = 2(x+1)^2, to 4 ulp
        ell = -0.5 - np.log(2.0)
        assert abs(eq_sgue.ell - ell) <= 4 * np.spacing(abs(ell))

    def test_standard_gaussian_lagrange_constant(self):
        eq = build_equilibrium(Potential([0.0, 0.0, 0.5]))
        assert abs(eq.ell + 0.5) <= 4 * np.spacing(0.5)

    @pytest.mark.parametrize("coeffs", [[2.0, 4.0, 2.0], [0.0, 0.0, 0.5, 0.0, 0.05],
                                        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.05]])
    def test_lagrange_constant_against_quadrature(self, coeffs):
        # the closed form against the graded quadrature of the log potential
        eq = build_equilibrium(Potential(coeffs))
        for x in (-0.75 * eq.a, -0.5 * eq.a, -0.25 * eq.a):
            assert abs(el_residual(eq, x)) < 1e-12

    def test_density_domain_guard(self, eq_sgue):
        with pytest.raises(DomainError):
            eq_sgue.density(0.5)

    def test_mass_is_one(self, eq_quartic):
        xs = np.linspace(-eq_quartic.a, 0.0, 20001)
        mass = _trapezoid(eq_quartic.density(xs), xs)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_h_positive_quartic(self, eq_quartic):
        xs = np.linspace(-eq_quartic.a, 0.0, 101)
        assert np.all(eq_quartic.h(xs) > 0)


class TestGuards:
    """Each guard of build_equilibrium trips on a support off by 1e-6."""

    QUARTIC = [0.0, 0.0, 0.5, 0.0, 0.05]

    @staticmethod
    def _off_support(monkeypatch, d_minus, d_plus):
        real = equilibrium.solve_support
        monkeypatch.setattr(equilibrium, "solve_support",
                            lambda V: tuple(b + d for b, d in zip(real(V), (d_minus, d_plus))))

    def test_width_trips_the_mass_guard(self, monkeypatch):
        self._off_support(monkeypatch, 0.0, 1e-6)
        with pytest.raises(InconsistencyError) as exc:
            build_equilibrium(Potential(self.QUARTIC))
        msg = str(exc.value)
        for part in ("equilibrium stage", str(self.QUARTIC), "mass", "bound 1e-10"):
            assert part in msg, msg

    def test_shift_trips_the_euler_lagrange_guard(self, monkeypatch):
        self._off_support(monkeypatch, 1e-6, 1e-6)
        with pytest.raises(InconsistencyError) as exc:
            build_equilibrium(Potential(self.QUARTIC))
        msg = str(exc.value)
        for part in ("equilibrium stage", str(self.QUARTIC), "Euler-Lagrange", "spreads by",
                     "bound 1.6e-10"):
            assert part in msg, msg


class TestComputeH:
    def test_series_division_identity(self, eq_quartic):
        # V'(z) / sqrt(z(z+a)) - h(z) -> 0 as z -> infinity
        a = eq_quartic.a
        for z in (50.0, 100.0):
            lhs = eq_quartic.V.dpoly(z) / np.sqrt(z * (z + a))
            assert lhs == pytest.approx(eq_quartic.h(z), rel=1e-3)

    def test_rejects_bad_width(self):
        with pytest.raises(DomainError):
            compute_h(Potential([0.0, 0.0, 1.0]), -1.0)


class TestEdgeFunctions:
    def test_phi_small_z_power_law(self, eq_sgue):
        # phi(z) ~ (h(0)/2) * (2/3) sqrt(a) z^{3/2} = (4 sqrt(2)/3) z^{3/2}
        for z in (1e-4, 1e-3):
            assert phi_right(eq_sgue, z) == pytest.approx(
                4.0 * np.sqrt(2.0) / 3.0 * z ** 1.5, rel=1e-3)

    def test_conformal_map_derivative_is_cv(self, eq_sgue, eq_quartic):
        for eq in (eq_sgue, eq_quartic):
            z = 1e-6
            assert conformal_psi(eq, z) / z == pytest.approx(eq.c_v, rel=1e-5)

    def test_phi_domain(self, eq_sgue):
        with pytest.raises(DomainError):
            phi_right(eq_sgue, -1.0)

    def test_el_residual_signs(self, eq_sgue, eq_quartic):
        for eq in (eq_sgue, eq_quartic):
            # zero on the support...
            for x in (-0.75 * eq.a, -0.5 * eq.a, -0.25 * eq.a):
                assert abs(el_residual(eq, x)) < 1e-8
            # ...strictly negative outside
            assert el_residual(eq, 1.0) < -1e-6
            assert el_residual(eq, -eq.a - 1.0) < -1e-6


class TestSzego:
    def test_limit_value(self):
        # sqrt(t/a) F_{-1/2}(0) / 2pi with t = 1, a = 2
        target = 1.3561877903062020146 / (2.0 * np.pi * np.sqrt(2.0))
        assert q0_limit(0.0, 1.0, 2.0) == pytest.approx(target, rel=1e-10)

    def test_finite_n_approaches_limit(self, eq_sgue):
        q = RealPolynomial([0.0, -1.0])
        lim = q0_limit(0.0, 1.0, eq_sgue.a)
        r64 = 64 ** (1.0 / 3.0) * szego_q0(eq_sgue, q, 64, 0.0) / lim
        r256 = 256 ** (1.0 / 3.0) * szego_q0(eq_sgue, q, 256, 0.0) / lim
        assert 0.85 <= r64 <= 1.15
        assert 0.93 <= r256 <= 1.07
        assert abs(r256 - 1.0) < abs(r64 - 1.0)

    def test_domain_errors(self, eq_sgue):
        with pytest.raises(DomainError):
            szego_q0(eq_sgue, RealPolynomial([0.0, -1.0]), 0, 0.0)
        with pytest.raises(DomainError):
            q0_limit(0.0, -1.0, 2.0)
