"""Tests for the deformed orthogonal-polynomial ensembles."""

import functools
import math
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
from airylab.numerics import PanelScheme

import oracles


@pytest.fixture(scope="module")
def eq_sgue():
    return build_equilibrium(Potential([2.0, 4.0, 2.0]))


@pytest.fixture(scope="module")
def eq_quartic():
    return build_equilibrium(Potential([0.0, 0.0, 0.5, 0.0, 0.05]))


@pytest.fixture(scope="module")
def eq_narrow():
    # 32(1+x)^2: support of length a = 0.5, so 2n zeros on a short core
    return build_equilibrium(Potential([32.0, 64.0, 32.0]))


@pytest.fixture(scope="module")
def eq_asymmetric():
    # a one-cut quartic whose edges differ: c_L = 1.173, c_V = 1.582
    return build_equilibrium(Potential([0.0, 0.0, 0.5, 0.15, 0.05]))


@pytest.fixture(scope="module")
def q_linear():
    return DeformationQ([0.0, -1.0])


@pytest.fixture(scope="module")
def eqs(eq_sgue, eq_quartic, eq_narrow, eq_asymmetric):
    return {"gaussian": eq_sgue, "quartic": eq_quartic, "narrow": eq_narrow,
            "asymmetric": eq_asymmetric}


def grid_ends(grid):
    """The outer ends of a grid's first and last panels; a 16-node panel's
    weights sum to its length and its nodes are symmetric about its midpoint."""
    first, last = grid.nodes[:16], grid.nodes[-16:]
    return (first.mean() - 0.5 * grid.weights[:16].sum(),
            last.mean() + 0.5 * grid.weights[-16:].sum())


def mirrored(eq):
    """The equilibrium data of V(-x): its right edge is the left edge of eq, so
    oracles.phi_right of it is the phase past the left edge of eq."""
    c = eq.V.poly.coeffs
    return build_equilibrium(Potential(c * (-1.0) ** np.arange(c.size)))


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

    def test_sign_checked_over_the_support(self):
        # Q = -x + 0.01 x^3 turns negative left of x = -10: inside [-6, 6] it
        # holds, over the support [-28.3, 0] of 0.01 x^2 it does not
        q = [0.0, -1.0, 0.0, 0.01]
        assert DeformationQ(q).t == DeformationQ(q, a=5.0).t == 1.0
        with pytest.raises(DomainError, match=r"\[-28\.3, 6\] at x = -10, "):
            DeformationQ(q, a=28.3)

    @pytest.mark.parametrize("q, x", [
        # Q = -x ((x - 3.03)^2 - 1e-4) is positive on (3.02, 3.04) only
        ([0.0, -9.1808, 6.06, -1.0], r"3\.02"),
        # Q = -x (x - 3)^2 (1 + x^2/100) vanishes at x = 3 without changing
        # sign; np.roots returns that double root as the pair 3 +- 8e-8 i
        ([0.0, -9.0, 6.0, -1.09, 0.06, -0.01], "3"),
    ])
    def test_narrow_or_tangent_violation(self, q, x):
        with pytest.raises(DomainError, match=rf"\[-6, 6\] at x = {x}, "):
            DeformationQ(q)

    def test_log_sigma_stable(self, q_linear):
        vals = log_sigma(q_linear, 64, 0.0, np.array([-100.0, 0.0, 100.0]))
        assert np.all(np.isfinite(vals))
        assert vals[1] == pytest.approx(np.log(0.5))
        assert vals[2] < -1000  # deep suppression right of the edge (Q = -x)


class TestHermiteOracle:
    """Recurrence of the weight e^{-x^2}: alpha_k = 0, beta_k = k/2."""

    @pytest.fixture(scope="class")
    def table(self):
        scheme = PanelScheme(np.linspace(-10.0, 10.0, 81))
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

    @pytest.mark.parametrize("n", [16, 64])
    def test_upper_tail_matches_trace_series(self, eq_sgue, q_linear, n):
        # s = 18.4: log L = -8e-9, so M is tiny.  log det(I - M) = -sum_k tr(M^k) / k
        # from matrix powers; the eigenvalues keep about 2e-16 of it, LU keeps
        # only about 1e-16 absolute (2e-8 relative here)
        grid, t_und, _, lsig = build_tables(eq_sgue, q_linear, n, 18.4)
        M, _ = deformation_matrix(grid, t_und, n, lsig)
        series, power = 0.0, M
        for k in range(1, 6):
            series -= np.trace(power) / k
            power = power @ M
        value = log_lstat_det(grid, t_und, n, lsig)
        assert -1e-8 < series < -5e-9
        assert abs(value - series) <= 1e-12 * abs(series)

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

    @pytest.mark.parametrize("potential", ["gaussian", "quartic", "asymmetric"])
    @pytest.mark.parametrize("n", [64, 256, 512])
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

    @staticmethod
    def _spy_weighted_values(monkeypatch):
        """Record the nodes of every weighted_values call deformation_matrix makes."""
        calls = []
        real = ensemble.weighted_values

        def spy(table, n, x, log_w_half):
            calls.append(np.array(x))
            return real(table, n, x, log_w_half)

        monkeypatch.setattr(ensemble, "weighted_values", spy)
        return calls

    @pytest.mark.parametrize("potential", ["gaussian", "quartic"])
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("block", [None, 37])
    def test_blocked_matches_one_slab_oracle(self, tables, monkeypatch, potential, n, block):
        # block=37 nodes gives ragged blocks by the dozen; None keeps the module's
        # size (one block at n = 64, one or two at n = 256)
        if block is not None:
            monkeypatch.setattr(ensemble, "BLOCK_ENTRIES", block * n)
        size = ensemble.BLOCK_ENTRIES // n
        calls = self._spy_weighted_values(monkeypatch)
        for s in (-3.0, 0.0, 3.0):
            grid, t_und, _, lsig = tables(potential, n, s)
            ref, ref_dropped, ref_kept = oracles.deformation_matrix(grid, t_und, n, lsig)
            calls.clear()
            M, dropped = deformation_matrix(grid, t_und, n, lsig)
            assert np.linalg.norm(M - ref) <= 1e-15 * np.linalg.norm(ref)
            assert np.array_equal(M, M.T)
            assert dropped == ref_dropped
            assert np.array_equal(np.concatenate(calls), grid.nodes[ref_kept])
            assert len(calls) == -(-ref_kept.size // size)
            assert all(c.size <= size for c in calls)

    @pytest.mark.parametrize("potential", ["gaussian", "asymmetric"])
    def test_one_recurrence_sweep_over_the_kept_nodes(self, tables, monkeypatch, potential):
        # every recurrence row deformation_matrix makes comes from weighted_values,
        # on the kept nodes, each node once; no sweep picks the nodes beforehand
        n = 256
        grid, t_und, _, lsig = tables(potential, n, 0.0)
        kept = oracles.deformation_matrix(grid, t_und, n, lsig)[2]
        sweeps, real_rows = [], ensemble._rows

        def rows(table, n, x, lwh):
            sweeps.append(np.array(x))
            return real_rows(table, n, x, lwh)

        monkeypatch.setattr(ensemble, "_rows", rows)
        calls = self._spy_weighted_values(monkeypatch)
        deformation_matrix(grid, t_und, n, lsig)
        assert len(sweeps) == len(calls) >= 1
        assert all(np.array_equal(a, b) for a, b in zip(sweeps, calls))
        assert np.array_equal(np.concatenate(sweeps), grid.nodes[kept])

    def test_no_node_survives(self, eq_sgue, q_linear):
        # at s = 200, n (1 - sigma) rules out every node: M = 0 and log L = 0
        n = 64
        grid, t_und, t_def, lsig = build_tables(eq_sgue, q_linear, n, 200.0)
        M, dropped = deformation_matrix(grid, t_und, n, lsig)
        assert M.shape == (n, n) and not M.any()
        assert 0.0 < dropped <= ensemble.DROP_TOL
        assert log_lstat_det(grid, t_und, n, lsig) == 0.0
        assert log_lstat_gamma(t_def, t_und, n) == 0.0

    def test_drops_most_nodes(self, eq_sgue, q_linear, monkeypatch):
        n = 256
        grid, t_und, _, lsig = build_tables(eq_sgue, q_linear, n, 0.0)
        calls = self._spy_weighted_values(monkeypatch)
        _, dropped = deformation_matrix(grid, t_und, n, lsig)
        formed = sum(c.size for c in calls)  # the columns of U formed, over all blocks
        assert 0 < formed < 0.75 * grid.nodes.size
        assert 0.0 < dropped <= ensemble.DROP_TOL

    def test_peak_memory(self, eq_sgue, q_linear):
        # log_lstat_det: one slab of BLOCK_ENTRIES weighted values and a few n x n
        # arrays (M, the product V V^T, I - M and the copies of eigvalsh and
        # slogdet), plus node-length arrays of the drop rule; no n x N slab.
        # Measured 5.8 MB at n = 256 and 12.2 MB at n = 512, under limits of
        # 10.4 and 16.8 MB; the one-slab assembly took 27.8 and 76.4 MB.
        # kernel_trace: a few node-length arrays, no slab at all
        for n in (256, 512):
            grid, t_und, _, lsig = build_tables(eq_sgue, q_linear, n, 0.0)
            node_array = grid.nodes.size * 8
            det_limit = 8 * (ensemble.BLOCK_ENTRIES + 4 * n * n) + 16 * node_array
            for fn, args, limit in ((log_lstat_det, (grid, t_und, n, lsig), det_limit),
                                    (kernel_trace, (grid, t_und, n, grid.log_w_und),
                                     16 * node_array)):
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    fn(*args)
                    peak = tracemalloc.get_traced_memory()[1] - before
                finally:
                    tracemalloc.stop()
                assert peak <= limit, (fn.__name__, n, peak / 2 ** 20, limit / 2 ** 20)


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


class TestMonicSweepAgreement:
    """The orthonormal sweep against oracles.stieltjes_recurrence_monic, the
    monic sweep renormalized by max |C|: two arithmetics, one table to
    rounding.  Worst moves over these cases: alpha_k 1.1e-13, which is
    4.4e-14 (1 + |alpha_k|), and log h_k 2.5e-15 (1 + |log h_k|)."""

    @pytest.mark.parametrize("potential", ["gaussian", "quartic", "narrow", "asymmetric"])
    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512])
    def test_matches_monic_sweep(self, tables, potential, n):
        # s = -30 is far in the lower tail: the deformed weight falls by e^{-30}
        # and more left of the edge
        for s in (-3.0, 0.0, 3.0, -30.0):
            grid, t_und, t_def, lsig = tables(potential, n, s)
            for table, lw in ((t_und, grid.log_w_und), (t_def, grid.log_w_und + lsig)):
                ref = oracles.stieltjes_recurrence_monic(grid.nodes, grid.weights, lw, n + 1)
                assert np.all(np.abs(table.alpha - ref.alpha) <= 1e-13 * (1.0 + np.abs(ref.alpha)))
                assert np.all(np.abs(table.log_h - ref.log_h) <= 1e-13 * (1.0 + np.abs(ref.log_h)))


class TestTrailingBlock:
    """log_lstat_det solves only M[j0:, j0:], the rows past a leading trace of
    at most DROP_TOL - dropped; against the whole spectrum of M."""

    def test_eigen_solve_on_fewer_rows(self, tables, monkeypatch):
        n = 512
        grid, t_und, _, lsig = tables("quartic", n, 0.0)
        shapes, real = [], np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        log_lstat_det(grid, t_und, n, lsig)
        assert len(shapes) == 1
        rows, cols = shapes[0]
        assert rows == cols < n

    @pytest.mark.parametrize("potential", ["gaussian", "quartic", "narrow", "asymmetric"])
    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512])
    def test_matches_full_spectrum(self, tables, potential, n):
        # the cut leaves out a leading trace tau_r <= DROP_TOL - dropped, so
        # log det(I - M) moves by at most -log(1 - tau_r / (1 - lambda_max)).
        # Two eigen-solves differ by rounding of about 2^-52 / (1 - lambda_max)
        # relative to log L, allowed here nine times over and never less than
        # that in absolute terms: at s = 3 on 2(1+x)^2, n = 512, they differ by
        # 6.3e-17 on log L = -0.039.  Worst seen: 0.17 of the allowance
        for s in (-3.0, 0.0, 3.0, -30.0):
            grid, t_und, _, lsig = tables(potential, n, s)
            M, dropped = deformation_matrix(grid, t_und, n, lsig)
            ev = np.linalg.eigvalsh(M)
            gap = 1.0 - ev[-1]
            if s == -30.0:
                # far in the lower tail both solves leave 1 - lambda_max at rounding
                assert gap < 2.0 ** -52 / ensemble.DET_RTOL
                with pytest.raises(BreakdownError, match=f"log_lstat_det at n={n}"):
                    log_lstat_det(grid, t_und, n, lsig)
                continue
            full = float(np.sum(np.log1p(-ev)))
            bound = -math.log1p(-(ensemble.DROP_TOL - dropped) / gap)
            rounding = 2e-15 * max(1.0, abs(full)) / gap
            assert abs(log_lstat_det(grid, t_und, n, lsig) - full) <= bound + rounding


class TestRecurrenceRange:
    """The recurrences start from e^{-nV/2}: past the n where that leaves the
    normal floats on the support, build_grid refuses (n = 709 on 2(1+x)^2)."""

    def test_start_below_normal_floats_raises(self, eq_sgue, q_linear):
        with pytest.raises(BreakdownError) as exc:
            build_tables(eq_sgue, q_linear, 768, 0.0)
        msg = str(exc.value)
        assert "build_grid at n=768" in msg and "support node x=" in msg

    def test_inside_the_range_tables_unchanged(self, eq_sgue, q_linear):
        n = 704
        grid, t_und, t_def, lsig = build_tables(eq_sgue, q_linear, n, 0.0)
        for table, lw in ((t_und, grid.log_w_und), (t_def, grid.log_w_und + lsig)):
            ref = oracles.stieltjes_recurrence(grid.nodes, grid.weights, lw, n + 1)
            assert np.array_equal(table.alpha, ref.alpha)
            assert np.array_equal(table.log_h, ref.log_h)


class TestGridShape:
    """The grid is one run of equal panels over the support [-a, 0] (the core)
    and a tail past each edge that ends where n phi = 70, phi the effective
    potential (2 n oracles.phi_right); no tail is graded and no panel is a
    sliver."""

    @pytest.mark.parametrize("potential", ["gaussian", "quartic", "narrow", "asymmetric"])
    @pytest.mark.parametrize("n", [16, 64, 128, 512])
    def test_tails_only_past_the_core(self, eqs, potential, n):
        eq = eqs[potential]
        grid = build_grid(eq, n)
        lo, hi = grid_ends(grid)
        d_left, d_right = -eq.a - lo, hi
        assert d_left > 0 and d_right > 0
        assert 2 * n * oracles.phi_right(eq, d_right) == pytest.approx(70.0, abs=1e-9)
        assert 2 * n * oracles.phi_right(mirrored(eq), d_left) == pytest.approx(70.0, abs=1e-9)
        lengths = grid.weights.reshape(-1, 16).sum(axis=1)
        assert lengths.size == math.ceil(2 * (eq.a + d_left + d_right) * n / (3 * eq.a)) + 20
        assert np.ptp(lengths) <= 1e-12 * lengths[0]

    @pytest.mark.parametrize("potential", ["gaussian", "quartic", "narrow"])
    def test_every_tail_longer_than_a_core_panel(self, eqs, potential):
        # over n = 16 ... 704 the panels are equal, each tail is longer than a
        # panel, and the grid never has more nodes than the weight-window grid
        eq = eqs[potential]
        for n in range(16, 705):
            grid = build_grid(eq, n)
            lo, hi = grid_ends(grid)
            lengths = grid.weights.reshape(-1, 16).sum(axis=1)
            assert np.ptp(lengths) <= 1e-12 * lengths[0]
            assert min(-eq.a - lo, hi) > lengths[0]
            assert grid.nodes.size <= oracles.window_grid(eq, n).nodes.size

    @pytest.mark.parametrize("potential", ["gaussian", "quartic", "narrow"])
    @pytest.mark.parametrize("n", [16, 64, 128, 512])
    def test_no_sliver_panels(self, eqs, potential, n):
        # a 16-node Gauss-Legendre panel's weights sum to its length
        lengths = build_grid(eqs[potential], n).weights.reshape(-1, 16).sum(axis=1)
        assert lengths.min() > 1e-6


class TestWindowGridAgreement:
    """The grid ending at n phi = 70 against the weight-window grid
    (oracles.window_grid), which pads each edge by 1/2 and by graded tails out
    to n (V - min V) <= 400, at s in {-3, 0, 3}.  Worst moves over these cases:
    log h_k 4.5e-12, alpha_k 1.2e-13, log det(I - M) 1.2e-11 (1 + |log L|),
    log_lstat_gamma 7e-10, the trace 7.6e-13 n and the edge kernel 1.1e-11.
    At n = 704 the window grid and its 3x split already differ by 5.4e-9 in
    log h_n on 32(1+x)^2, so n stays at or below 512."""

    EDGE_PAIRS = ((-2.0, 1.5), (0.3, 0.3), (1.0, 1.0), (-1.0, 0.5), (2.0, 2.0))

    @pytest.mark.parametrize("potential", ["gaussian", "quartic", "narrow", "asymmetric"])
    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512])
    def test_matches_window_grid(self, eqs, q_linear, potential, n):
        eq = eqs[potential]
        grid, ref = build_grid(eq, n), oracles.window_grid(eq, n)
        assert grid.nodes.size < ref.nodes.size
        und = [stieltjes_recurrence(g.nodes, g.weights, g.log_w_und, n + 1) for g in (grid, ref)]
        assert abs(kernel_trace(grid, und[0], n, grid.log_w_und) - n) <= 1e-10 * n
        for s in (-3.0, 0.0, 3.0):
            lsig = [log_sigma(q_linear, n, s, g.nodes) for g in (grid, ref)]
            dfm = [stieltjes_recurrence(g.nodes, g.weights, g.log_w_und + ls, n + 1)
                   for g, ls in zip((grid, ref), lsig)]
            for new, old in ((und[0], und[1]), (dfm[0], dfm[1])):
                assert np.max(np.abs(new.log_h - old.log_h)) <= 1e-11
                assert np.max(np.abs(new.alpha - old.alpha)) <= 1e-12
            det, det_ref = (log_lstat_det(g, t, n, ls) for g, t, ls in zip((grid, ref), und, lsig))
            assert abs(det - det_ref) <= 5e-11 * (1.0 + abs(det_ref))
            gamma = log_lstat_gamma(dfm[0], und[0], n)
            assert abs(gamma - log_lstat_gamma(dfm[1], und[1], n)) <= 2e-9
            assert abs(kernel_trace(grid, dfm[0], n, grid.log_w_und + lsig[0]) - n) <= 1e-10 * n
            for u, v in self.EDGE_PAIRS:
                k, k_ref = (rescaled_edge_kernel(eq, t, n, u, v) for t in dfm)
                assert abs(k - k_ref) <= 1e-10 * abs(k_ref)


class TestGridConvergence:
    """build_grid's panel count, and half of it, against a grid with every
    panel split in three, between the same ends; a quarter of it must fail
    (it moves log h_k by 1.4e-8 to 3.1e-5).

    Bounds: log det(I - M) within 2e-11 (1 + |log L|) at s in {-3, 0, 3} (its
    rounding floor grows with |log L|: on 2(1+x)^2 at n = 512, s = -3, it
    wanders over 1.4e-10 on log L = -5.78 as the core goes from 266 to 2400
    panels, with no trend); the undeformed log h_k within 5e-12 and alpha_k
    within 1e-13; and the grid's undeformed table, traced on the fine grid,
    int K_n(x, x) e^{-nV} dx = n within 1e-10 n.
    """

    CASES = [("gaussian", 64), ("gaussian", 512), ("quartic", 64), ("quartic", 512),
             ("narrow", 64), ("narrow", 256)]

    @pytest.fixture(scope="class")
    def moves(self, eqs, q_linear):
        """moves(potential, n, scale): each quantity's move over its bound."""
        @functools.lru_cache(maxsize=None)
        def quantities(potential, n, scale):
            eq = eqs[potential]
            grid = build_grid(eq, n)
            if scale != 1:
                grid = oracles.core_regrid(eq, n, grid, scale)
            t_und = stieltjes_recurrence(grid.nodes, grid.weights, grid.log_w_und, n + 1)
            dets = [log_lstat_det(grid, t_und, n, log_sigma(q_linear, n, s, grid.nodes))
                    for s in (-3.0, 0.0, 3.0)]
            return grid, t_und, np.array(dets)

        def moves(potential, n, scale):
            _, t_und, dets = quantities(potential, n, scale)
            fine, t_fine, dets_fine = quantities(potential, n, 3)
            trace = kernel_trace(fine, t_und, n, fine.log_w_und)
            return {
                "det": np.max(np.abs(dets - dets_fine) / (1.0 + np.abs(dets_fine))) / 2e-11,
                "log_h": np.max(np.abs(t_und.log_h - t_fine.log_h)) / 5e-12,
                "alpha": np.max(np.abs(t_und.alpha - t_fine.alpha)) / 1e-13,
                "trace": abs(trace - n) / (1e-10 * n),
            }
        return moves

    @pytest.mark.parametrize("potential,n", CASES)
    @pytest.mark.parametrize("scale", [1, 0.5])
    def test_converged(self, moves, potential, n, scale):
        m = moves(potential, n, scale)
        assert max(m.values()) <= 1.0, m

    @pytest.mark.parametrize("potential,n", CASES)
    def test_quarter_of_the_panels_fails(self, moves, potential, n):
        m = moves(potential, n, 0.25)
        assert max(m.values()) > 1.0, m


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


class TestLowerTailGuard:
    """log det(I - M) resolves log L_n only to about 2^-52 / (1 - lambda_max)
    relative; past DET_RTOL log_lstat_det refuses."""

    def test_deep_lower_tail_raises(self, eq_sgue, q_linear):
        # s = -30, n = 16: log L = -373.4 by log_lstat_gamma, so the true
        # 1 - lambda_max is below 1e-160; M in float64 holds only its rounding
        # floor, which depends on the grid and lies far under 2^-52 / DET_RTOL
        grid, t_und, _, lsig = build_tables(eq_sgue, q_linear, 16, -30.0)
        M, _ = deformation_matrix(grid, t_und, 16, lsig)
        gap = 1.0 - float(np.linalg.eigvalsh(M)[-1])
        assert gap < 2.0 ** -52 / ensemble.DET_RTOL
        with pytest.raises(BreakdownError) as exc:
            log_lstat_det(grid, t_und, 16, lsig)
        msg = str(exc.value)
        assert "log_lstat_det at n=16" in msg and f"1 - lambda_max = {gap:.3g}," in msg

    @pytest.mark.parametrize("n", [16, 64])
    def test_moderate_lower_tail_matches_gamma(self, eq_sgue, q_linear, n):
        # s = -10: 1 - lambda_max = 2e-4, the routes agree to about 1e-11
        grid, t_und, t_def, lsig = build_tables(eq_sgue, q_linear, n, -10.0)
        lg = log_lstat_gamma(t_def, t_und, n)
        assert log_lstat_det(grid, t_und, n, lsig) == pytest.approx(lg, rel=1e-9, abs=0.0)


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

    def test_grid_covers_weight_window(self, eqs):
        # every node of the weight-window grid that lies past an end of the grid
        # has n phi >= 70 there
        for eq in eqs.values():
            for n in (16, 64, 512):
                lo, hi = grid_ends(build_grid(eq, n))
                ref = oracles.window_grid(eq, n).nodes
                for phase_eq, past in ((eq, ref[ref > hi]), (mirrored(eq), -eq.a - ref[ref < lo])):
                    assert all(2 * n * oracles.phi_right(phase_eq, d) >= 70.0 for d in past)
