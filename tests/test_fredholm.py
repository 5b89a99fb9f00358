"""Tests for the Airy-kernel Fredholm determinants."""

import numpy as np
import pytest

from airylab import fredholm
from airylab.errors import BreakdownError, DomainError
from airylab.fredholm import build_nystrom, build_nystrom_airy, fredholm_det_airy, fredholm_det_ft
from airylab.numerics import map_log_linear, map_semi_infinite
from airylab.special import airy_ai_prime

from oracles import airy_kernel, ft_airy_kernel

# Tracy-Widom GUE distribution at the origin, F_2(0), from mesh-refined
# self-convergent evaluation (m = 80, 160, 320 agree to 13 digits).
F2_AT_0 = 0.9693728283552623

# finite-temperature kernel at the origin for T = 1, frozen from the
# panel-quadrature evaluation (stable under panel refinement).
KT1_00 = 0.1688348645136036


class TestAiryKernel:
    def test_diagonal_value(self):
        assert airy_kernel(0.0, 0.0) == pytest.approx(
            airy_ai_prime(0.0) ** 2, rel=1e-14)

    def test_symmetry(self):
        assert airy_kernel(0.3, 1.1) == pytest.approx(airy_kernel(1.1, 0.3), rel=1e-14)

    def test_confluent_continuity(self):
        assert airy_kernel(0.4, 0.4 + 1e-7) == pytest.approx(
            airy_kernel(0.4, 0.4), abs=1e-6)

    def test_far_field_zero(self):
        assert airy_kernel(40.0, 41.0) == 0.0


class TestFtKernel:
    def test_frozen_origin_value(self):
        assert ft_airy_kernel(0.0, 0.0, 1.0) == pytest.approx(KT1_00, rel=1e-10)

    def test_symmetry_and_nonnegative_diagonal(self):
        assert ft_airy_kernel(0.2, 1.4, 2.0) == pytest.approx(
            ft_airy_kernel(1.4, 0.2, 2.0), rel=1e-12)
        for u in (-2.0, 0.0, 3.0):
            assert ft_airy_kernel(u, u, 0.5) >= 0.0

    def test_large_t_approaches_classical(self):
        # the leading deviation is the Fermi smearing correction
        # (pi^2/6) T^{-2/3} d/du[Ai(u)^2] at u = 0
        from airylab.special import airy_ai
        diff = ft_airy_kernel(0.0, 0.0, 1000.0) - airy_kernel(0.0, 0.0)
        pred = -(np.pi ** 2 / 6.0) * 1000.0 ** (-2.0 / 3.0) \
            * 2.0 * airy_ai(0.0) * airy_ai_prime(0.0)
        assert diff == pytest.approx(pred, rel=0.05)
        assert abs(diff) < 5e-3

    def test_rejects_bad_temperature(self):
        with pytest.raises(DomainError):
            ft_airy_kernel(0.0, 0.0, -1.0)


class TestNystromMatchesPointwiseKernels:
    """Each matrix entry is sw_i sw_j K(x_i, x_j), with the nodes x and square-root
    weights sw of the builder's own map; this checks the node map, the weights and
    the assembly, while the zeta quadrature is checked by the frozen KT1_00."""

    @staticmethod
    def pointwise(kernel, x, sw):
        return np.array([[sw[i] * sw[j] * kernel(x[i], x[j]) for j in range(x.size)]
                         for i in range(x.size)])

    @pytest.mark.parametrize("s, T, m", [(0.0, 1.0, 40), (1.0, 8.0, 60), (-2.0, 0.125, 40),
                                         (3.0, 4000.0, 80), (-12.0, 0.125, 80)])
    def test_finite_temperature(self, s, T, m):
        # build_nystrom's map, with its default L = 10
        x, sw = fredholm._half_line_nodes(m, map_log_linear, s, 5.0 + max(s, 0.0),
                                          2.0 / T ** (1.0 / 3.0))
        ref = self.pointwise(lambda u, v: ft_airy_kernel(u, v, T), x, sw)
        assert np.max(np.abs(build_nystrom(s, T, m) - ref)) <= 1e-15

    @pytest.mark.parametrize("s, m", [(0.0, 40), (-8.0, 60), (5.0, 80)])
    def test_classical(self, s, m):
        x, sw = fredholm._half_line_nodes(m, map_semi_infinite, s, 10.0)
        ref = self.pointwise(airy_kernel, x, sw)
        assert np.max(np.abs(build_nystrom_airy(s, m) - ref)) <= 1e-15


class TestNystromOperator:
    """The discretized operator is its matrix, as build_nystrom(_airy) return it."""

    def matrices(self):
        return {"ft": build_nystrom(0.0, 1.0, 40), "ft-T8": build_nystrom(1.0, 8.0, 60),
                "ft-T1/8": build_nystrom(-2.0, 0.125, 40), "airy": build_nystrom_airy(0.0, 40),
                "airy-s-8": build_nystrom_airy(-8.0, 60)}

    def test_structure_checks_pass(self):
        for name, K in self.matrices().items():
            assert isinstance(K, np.ndarray) and np.array_equal(K, K.T), name

    def test_kernel_matrix_psd(self):
        for name, K in self.matrices().items():
            ev = np.linalg.eigvalsh(K)
            assert ev[0] >= -1e-10 and ev[-1] <= 1.0 + 1e-10, name

    def test_entries_decay(self):
        assert abs(build_nystrom_airy(0.0, 60)[-1, -1]) < 1e-30

    def test_domain_guards(self):
        with pytest.raises(DomainError, match="s = 20 "):
            build_nystrom(20.0, 1.0, 40)
        with pytest.raises(DomainError, match="T = 9000 "):
            build_nystrom(0.0, 9000.0, 40)
        with pytest.raises(DomainError, match="s = -13 "):
            build_nystrom_airy(-13.0, 40)
        with pytest.raises(DomainError):
            build_nystrom(0.0, 1.0, 1)
        # at s = 0, m = 80 the zeta grid reads Ai below -200 from T = 0.0123 down
        assert 0.0 < fredholm_det_ft(0.0, 0.013, 80) <= 1.0
        with pytest.raises(DomainError, match="T = 0.012 .* s = 0:"):
            fredholm_det_ft(0.0, 0.012, 80)


class TestNystromErrors:
    """A breakdown names s, T and m of the determinant that broke."""

    def test_determinant_not_positive(self, monkeypatch):
        monkeypatch.setattr(fredholm, "build_nystrom", lambda s, T, m, L: np.diag([2.0, 0.5]))
        with pytest.raises(BreakdownError, match="not positive") as exc:
            fredholm_det_ft(0.5, 8.0, 2)
        assert "s=0.5, T=8.0, m=2" in str(exc.value)

    def test_classical_determinant_not_positive(self, monkeypatch):
        monkeypatch.setattr(fredholm, "build_nystrom_airy", lambda s, m, L: np.diag([2.0, 0.5]))
        with pytest.raises(BreakdownError, match="not positive") as exc:
            fredholm_det_airy(0.5, 2)
        assert "s=0.5, m=2" in str(exc.value)


class TestDeterminants:
    def test_tracy_widom_at_zero(self):
        assert fredholm_det_airy(0.0, 80) == pytest.approx(F2_AT_0, abs=1e-10)

    def test_tracy_widom_m_doubling(self):
        assert abs(fredholm_det_airy(0.0, 40) - fredholm_det_airy(0.0, 80)) < 1e-8

    def test_classical_empty_tail(self):
        assert fredholm_det_airy(-8.0, 80) == pytest.approx(1.0, abs=1e-10)

    def test_finite_temperature_exponential_tail(self):
        # at finite T the Fermi factor leaves an exponentially small trace on
        # (12, infinity): 1 - L ~ e^{-12} int Ai^2 e^u du = 2.0e-6 at T = 1
        gap = 1.0 - fredholm_det_ft(-12.0, 1.0, 80)
        assert 1e-6 < gap < 3e-6

    def test_values_in_unit_interval_and_decreasing(self):
        vals = [fredholm_det_ft(s, 1.0, 60) for s in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_interpolation_to_classical(self):
        assert abs(fredholm_det_ft(0.0, 4000.0, 80)
                   - fredholm_det_airy(0.0, 80)) <= 5e-3

    def test_map_scale_robustness(self):
        vals = [fredholm_det_ft(0.0, 1.0, 80, L) for L in (5.0, 10.0, 20.0)]
        assert max(vals) - min(vals) < 1e-7

    def test_self_convergence_moderate_t(self):
        # geometric convergence at T >= 1; T = 1/8, where the kernel decays
        # slowest, is covered by the acceptance gate and the test below
        for s in (-1.0, 0.0, 1.0):
            for T in (1.0, 8.0):
                assert abs(fredholm_det_ft(s, T, 40) - fredholm_det_ft(s, T, 80)) < 1e-8

    def test_small_t_deep_convergence(self):
        # at T = 1/8 the m = 40 level carries ~4e-10 discretization error;
        # one more doubling stays in the 1e-8 regime
        for s in (-1.0, 0.0, 1.0):
            d4080 = abs(fredholm_det_ft(s, 0.125, 40) - fredholm_det_ft(s, 0.125, 80))
            d80160 = abs(fredholm_det_ft(s, 0.125, 80) - fredholm_det_ft(s, 0.125, 160))
            assert d4080 < 5e-6
            assert d80160 < 1e-8
