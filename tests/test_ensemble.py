"""Tests for the deformed orthogonal-polynomial ensembles."""

import functools
import tracemalloc

import numpy as np
import pytest

from airylab import ensemble
from airylab.ensemble import (DeformationQ, build_grid, build_tables,
                              deformation_matrix, kernel_trace,
                              log_lstat_det, log_lstat_gamma,
                              log_sigma, norming_ratio, rescaled_edge_kernel,
                              stieltjes_recurrence, weighted_values)
from airylab.equilibrium import Potential, build_equilibrium
from airylab.errors import BreakdownError, DomainError
from airylab.numerics import PanelScheme, gauss_legendre

import oracles


@pytest.fixture(scope="module")
def eq_sgue():
    return build_equilibrium(Potential([2.0, 4.0, 2.0]))


@pytest.fixture(scope="module")
def eq_quartic():
    return build_equilibrium(Potential([0.0, 0.0, 0.5, 0.0, 0.05]))


@pytest.fixture(scope="module")
def q_linear():
    return DeformationQ([0.0, -1.0])


@pytest.fixture(scope="module")
def eqs(eq_sgue, eq_quartic):
    return {"gaussian": eq_sgue, "quartic": eq_quartic}


@pytest.fixture(scope="module")
def tables(eqs, q_linear):
    """build_tables(potential, n, s), each built once for the module."""
    return functools.lru_cache(maxsize=None)(
        lambda potential, n, s: build_tables(eqs[potential], q_linear, n, s))


class TestDeformation:
    def test_t_extraction(self):
        q = DeformationQ([0.0, -2.0, 0.0, -0.3])
        assert q.t == 2.0

    def test_rejects_nonvanishing_origin(self):
        with pytest.raises(DomainError):
            DeformationQ([0.5, -1.0])

    def test_rejects_wrong_slope(self):
        with pytest.raises(DomainError):
            DeformationQ([0.0, 1.0])

    def test_rejects_sign_violation(self):
        # Q = -x + 0.5 x^3 turns positive right of the origin
        with pytest.raises(DomainError):
            DeformationQ([0.0, -1.0, 0.0, 0.5])

    def test_log_sigma_stable(self, q_linear):
        vals = log_sigma(q_linear, 64, 0.0, np.array([-100.0, 0.0, 100.0]))
        assert np.all(np.isfinite(vals))
        assert vals[1] == pytest.approx(np.log(0.5))
        assert vals[2] < -1000  # deep suppression right of the edge (Q = -x)


class TestHermiteOracle:
    """Recurrence of the weight e^{-x^2}: alpha_k = 0, beta_k = k/2."""

    @pytest.fixture(scope="class")
    def table(self):
        scheme = PanelScheme(np.linspace(-10.0, 10.0, 81), gauss_legendre(16))
        return stieltjes_recurrence(scheme.nodes, scheme.weights,
                                    -scheme.nodes ** 2, 21)

    def test_h0_is_sqrt_pi(self, table):
        assert np.exp(table.log_h[0]) == pytest.approx(np.sqrt(np.pi), rel=1e-13)

    def test_alpha_vanishes(self, table):
        assert np.max(np.abs(table.alpha)) < 1e-12

    def test_beta_ratios(self, table):
        for k in range(1, 21):
            assert table.sqrt_beta[k - 1] ** 2 == pytest.approx(k / 2.0, rel=1e-10)


class TestRecurrence:
    def test_trace_identity(self, eq_sgue, q_linear):
        for n in (5, 10, 20):
            for s in (0.0, 2.0):
                grid, t_und, t_def, lsig = build_tables(eq_sgue, q_linear, n, s)
                tr = kernel_trace(grid, t_def, n, grid.log_w_und + lsig)
                assert abs(tr - n) <= 1e-8 * n

    def test_reproducing_property(self, eq_sgue, q_linear):
        n = 8
        grid, t_und, t_def, lsig = build_tables(eq_sgue, q_linear, n, 0.0)
        lw = grid.log_w_und
        for x, z in ((-1.0, -0.5), (-1.5, -1.5), (-0.2, -1.8)):
            U = weighted_values(t_und, n, grid.nodes, 0.5 * lw)
            kx = weighted_values(t_und, n, [x], 0.0)[:, 0]
            kz = weighted_values(t_und, n, [z], 0.0)[:, 0]
            # int K(x,y) K(y,z) w(y) dy = sum_k kx_k kz_k
            lhs = float(np.sum(grid.weights * (kx @ U) * (kz @ U)))
            rhs = oracles.cd_kernel(t_und, n, x, z)
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_recurrence_needs_enough_nodes(self):
        with pytest.raises(DomainError):
            stieltjes_recurrence([0.0, 1.0], [1.0, 1.0], [0.0, 0.0], 3)

    def test_weighted_values_table_length_guard(self, eq_sgue, q_linear):
        grid, t_und, _, _ = build_tables(eq_sgue, q_linear, 4, 0.0)
        with pytest.raises(DomainError):
            weighted_values(t_und, 5, [0.0], 0.0)


class TestLinearStatistic:
    def test_route_agreement(self, eq_sgue, eq_quartic, q_linear):
        for eq in (eq_sgue, eq_quartic):
            for n in (4, 12):
                for s in (0.0, 1.0):
                    grid, t_und, t_def, lsig = build_tables(eq, q_linear, n, s)
                    lg = log_lstat_gamma(t_def, t_und, n)
                    ld = log_lstat_det(grid, t_und, n, lsig)
                    assert abs(lg - ld) <= 1e-6 * (1.0 + abs(lg))
                    assert lg <= 0.0

    def test_n1_direct_quadrature_oracle(self, eq_sgue, q_linear):
        grid, t_und, t_def, lsig = build_tables(eq_sgue, q_linear, 1, 0.0)
        num = float(np.sum(grid.weights * np.exp(grid.log_w_und + lsig)))
        den = float(np.sum(grid.weights * np.exp(grid.log_w_und)))
        direct = np.log(num / den)
        assert log_lstat_gamma(t_def, t_und, 1) == pytest.approx(direct, abs=1e-8)
        assert log_lstat_det(grid, t_und, 1, lsig) == pytest.approx(direct, abs=1e-8)

    def test_partition_function_shift(self, eq_sgue, q_linear):
        n = 6
        grid, t_und, t_def, lsig = build_tables(eq_sgue, q_linear, n, 0.0)
        diff = oracles.log_partition(t_def, n) - oracles.log_partition(t_und, n)
        assert diff == pytest.approx(log_lstat_gamma(t_def, t_und, n), abs=1e-10)

    def test_s_derivative_of_log_partition(self, eq_sgue, q_linear):
        # d/ds log Z_n(s) = int K_n(x,x|s) (d/ds log sigma) omega_n dx
        n, s, ds = 6, 0.5, 1e-4
        vals = {}
        for sh in (-ds, 0.0, ds):
            grid, t_und, t_def, lsig = build_tables(eq_sgue, q_linear, n, s + sh)
            vals[sh] = (oracles.log_partition(t_def, n), grid, t_def, lsig)
        fd = (vals[ds][0] - vals[-ds][0]) / (2 * ds)
        _, grid, t_def, lsig = vals[0.0]
        # d log sigma / ds = 1 - sigma = -expm1(log sigma)
        dls = -np.expm1(lsig)
        U = weighted_values(t_def, n, grid.nodes, 0.5 * (grid.log_w_und + lsig))
        direct = float(np.sum(grid.weights * dls * np.sum(U * U, axis=0)))
        assert fd == pytest.approx(direct, rel=1e-4)


class TestTrimmedDeformation:
    """log_lstat_det from the nodes that carry M against the full-grid product."""

    @pytest.mark.parametrize("potential", ["gaussian", "quartic"])
    @pytest.mark.parametrize("n", [64, 256])
    def test_matches_full_grid_gemm(self, tables, potential, n):
        for s in (-3.0, 0.0, 3.0):
            grid, t_und, _, lsig = tables(potential, n, s)
            U = weighted_values(t_und, n, grid.nodes, 0.5 * grid.log_w_und)
            full = (U * (grid.weights * -np.expm1(lsig))) @ U.T
            _, oracle = np.linalg.slogdet(np.eye(n) - full)
            assert abs(log_lstat_det(grid, t_und, n, lsig) - oracle) <= 1e-14
            M, dropped = deformation_matrix(grid, t_und, n, lsig)
            assert np.array_equal(M, M.T)
            tau = dropped / (1.0 - np.linalg.eigvalsh(M)[-1])
            assert 0.0 <= tau / (1.0 - tau) <= 1e-15

    def test_drops_most_nodes(self, eq_sgue, q_linear, monkeypatch):
        n = 256
        grid, t_und, _, lsig = build_tables(eq_sgue, q_linear, n, 0.0)
        calls = []
        real = ensemble.weighted_values

        def spy(table, n, x, log_w_half):
            U = real(table, n, x, log_w_half)
            calls.append(U.shape[1])
            return U

        monkeypatch.setattr(ensemble, "weighted_values", spy)
        _, dropped = deformation_matrix(grid, t_und, n, lsig)
        assert calls and calls[0] < 0.75 * grid.nodes.size
        assert 0.0 < dropped <= ensemble.DROP_TOL

    def test_peak_memory(self, eq_sgue, q_linear):
        # log_lstat_det: one n x N slab of U, less after the trim, and no second
        # slab for a product or a transpose; kernel_trace: a few node-length
        # arrays, no slab at all
        n = 256
        grid, t_und, _, lsig = build_tables(eq_sgue, q_linear, n, 0.0)
        node_array = grid.nodes.size * 8
        for fn, args, limit in ((log_lstat_det, (grid, t_und, n, lsig), 1.5 * n * node_array),
                                (kernel_trace, (grid, t_und, n, grid.log_w_und), 16 * node_array)):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                fn(*args)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= limit, (fn.__name__, peak / node_array)


class TestStreamedRecurrences:
    """The in-place Stieltjes sweep and the streamed three-term recurrence do the
    arithmetic of the allocating loops in oracles.py, in the same order."""

    EDGE_PAIRS = ((-2.0, 1.5), (1.5, -2.0), (0.3, 0.3), (4.0, -5.0))

    @pytest.mark.parametrize("potential", ["gaussian", "quartic"])
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("s", [-3.0, 0.0, 3.0])
    def test_bitwise_equal_to_allocating_loops(self, eqs, tables, potential, n, s):
        grid, t_und, t_def, lsig = tables(potential, n, s)
        for table, lw in ((t_und, grid.log_w_und), (t_def, grid.log_w_und + lsig)):
            ref = oracles.stieltjes_recurrence(grid.nodes, grid.weights, lw, n + 1)
            assert np.array_equal(table.alpha, ref.alpha)
            assert np.array_equal(table.log_h, ref.log_h)
            assert kernel_trace(grid, table, n, lw) == oracles.kernel_trace(grid, table, n, lw)
        lwh = 0.5 * grid.log_w_und
        assert np.array_equal(weighted_values(t_und, n, grid.nodes, lwh),
                              oracles.weighted_values(t_und, n, grid.nodes, lwh))
        eq = eqs[potential]
        for u, v in self.EDGE_PAIRS:
            assert (rescaled_edge_kernel(eq, t_def, n, u, v)
                    == oracles.rescaled_edge_kernel(eq, t_def, n, u, v))

    @pytest.mark.parametrize("potential", ["gaussian", "quartic"])
    def test_edge_kernel_float_path_matches_array_path(self, eqs, tables, potential):
        eq, n = eqs[potential], 64
        _, _, t_def, _ = tables(potential, n, 0.0)
        scale = eq.c_v * float(n) ** (2.0 / 3.0)
        # many points, so that a start value rounded otherwise than by np.exp shows
        us = np.linspace(-6.0, 6.0, 97)
        for u, v in zip(us, us[::-1] + 0.1):
            xy = np.array([u, v]) / scale
            U = weighted_values(t_def, n, xy, -0.5 * n * eq.V(xy))
            assert rescaled_edge_kernel(eq, t_def, n, u, v) == np.sum(U[:, 0] * U[:, 1]) / scale


class TestRecurrenceRange:
    """The recurrences start from e^{-nV/2}: past the n where that leaves the
    normal floats on the support, build_tables refuses (n = 709 on 2(1+x)^2)."""

    def test_start_below_normal_floats_raises(self, eq_sgue, q_linear):
        with pytest.raises(BreakdownError) as exc:
            build_tables(eq_sgue, q_linear, 768, 0.0)
        msg = str(exc.value)
        assert "build_tables at n=768" in msg and "support node x=" in msg

    def test_inside_the_range_tables_unchanged(self, eq_sgue, q_linear):
        n = 704
        grid, t_und, t_def, lsig = build_tables(eq_sgue, q_linear, n, 0.0)
        for table, lw in ((t_und, grid.log_w_und), (t_def, grid.log_w_und + lsig)):
            ref = oracles.stieltjes_recurrence(grid.nodes, grid.weights, lw, n + 1)
            assert np.array_equal(table.alpha, ref.alpha)
            assert np.array_equal(table.log_h, ref.log_h)


class TestDeterminantErrors:
    """A breakdown names the stage, n, the spectrum of M and the dropped trace."""

    @pytest.fixture
    def tables(self, eq_sgue, q_linear):
        return build_tables(eq_sgue, q_linear, 2, 0.0)

    def _message(self, monkeypatch, tables, M):
        grid, t_und, _, lsig = tables
        monkeypatch.setattr(ensemble, "deformation_matrix", lambda *args: (M, 1.25e-19))
        with pytest.raises(BreakdownError) as exc:
            log_lstat_det(grid, t_und, 2, lsig)
        msg = str(exc.value)
        assert "log_lstat_det" in msg and "n=2" in msg and "1.25e-19" in msg
        return msg

    def test_spectrum_outside_unit_interval(self, monkeypatch, tables):
        msg = self._message(monkeypatch, tables, np.diag([1.5, 0.2]))
        assert "[0.2, 1.5]" in msg

    def test_determinant_not_positive(self, monkeypatch, tables):
        msg = self._message(monkeypatch, tables, np.diag([1.0 + 5e-9, 0.5]))
        assert "[0.5, 1]" in msg and "not positive" in msg


class TestEdgeQuantities:
    def test_norming_ratio_near_half(self, eq_sgue, q_linear):
        grid, t_und, t_def, lsig = build_tables(eq_sgue, q_linear, 64, 1.0)
        rho = norming_ratio(eq_sgue, t_def, 64)
        assert abs(rho - 0.5) <= 0.1

    def test_rescaled_kernel_symmetric_positive_diagonal(self, eq_sgue, q_linear):
        n = 16
        grid, t_und, t_def, lsig = build_tables(eq_sgue, q_linear, n, 1.0)
        k01 = rescaled_edge_kernel(eq_sgue, t_def, n, 0.0, 1.0)
        k10 = rescaled_edge_kernel(eq_sgue, t_def, n, 1.0, 0.0)
        assert k01 == pytest.approx(k10, rel=1e-12)
        for u in (-1.0, 0.0, 1.0):
            assert rescaled_edge_kernel(eq_sgue, t_def, n, u, u) > 0

    def test_grid_covers_weight_window(self, eq_sgue):
        grid = build_grid(eq_sgue, 16)
        # weight at the ends of the window is negligible
        assert np.max(grid.log_w_und) - grid.log_w_und[0] > 300
        assert np.max(grid.log_w_und) - grid.log_w_und[-1] > 300
