"""Tests for the Airy pair, the Fermi weight, and the polylog-type integrals."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airylab.errors import DomainError
from airylab.special import (airy_ai, airy_ai_prime, f_beta_quad,
                             fermi_weight, log_logistic, logistic)

from oracles import f_k_closed


def _trapezoid(y, x):
    """Composite trapezoid rule (np.trapz is gone in numpy 2; np.trapezoid is not in 1.24)."""
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    return float((np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum())


# reference values, 20+ digits
AI_0 = 0.35502805388781723926
AIP_0 = -0.25881940379280679840
AI_1 = 0.13529241631288141552
AI_M5 = 0.35076100902411431876
F0_0 = np.pi ** 2 / 12.0
FM12_0 = 1.3561877903062020146  # F_{-1/2}(0)


class TestAiry:
    def test_reference_values(self):
        assert airy_ai(0.0) == pytest.approx(AI_0, abs=1e-15)
        assert airy_ai_prime(0.0) == pytest.approx(AIP_0, abs=1e-15)
        assert airy_ai(1.0) == pytest.approx(AI_1, abs=1e-14)
        assert airy_ai(-5.0) == pytest.approx(AI_M5, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        xs = np.array([-7.0, -1.0, 0.0, 2.0, 10.0])
        vec = airy_ai(xs)
        assert np.allclose(vec, [airy_ai(float(x)) for x in xs], rtol=1e-15)

    def test_decay_on_positive_axis(self):
        vals = airy_ai(np.array([5.0, 10.0, 20.0, 50.0]))
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-100

    @given(st.floats(-28.0, 28.0))
    @example(5.5)  # a former branch switch where Ai was only 1.6e-9 accurate
    @settings(max_examples=80, deadline=None)
    def test_airy_differential_equation(self, x):
        # second central difference of Ai matches x Ai(x)
        h = 1e-3
        stencil = airy_ai(x + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
        d2 = (-stencil[0] + 16 * stencil[1] - 30 * stencil[2]
              + 16 * stencil[3] - stencil[4]) / (12 * h * h)
        scale = max(abs(x * stencil[2]), 1e-3)
        assert abs(d2 - x * stencil[2]) <= 1e-6 * scale

    @given(st.floats(-28.0, 28.0))
    @example(5.5)  # a former branch switch where Ai was only 1.6e-9 accurate
    @settings(max_examples=80, deadline=None)
    def test_prime_is_derivative(self, x):
        h = 1e-4
        fd = (airy_ai(x + h) - airy_ai(x - h)) / (2 * h)
        assert fd == pytest.approx(airy_ai_prime(x), rel=1e-6, abs=1e-9)

    def test_anchor_generator_accuracy(self):
        # the positive asymptotic expansion, the one generator of the table's
        # anchors, in long double on [12, 100] against 40-digit values
        mpmath = pytest.importorskip("mpmath")
        from airylab.special import _airy_asy_pos
        xs = np.linspace(12.0, 100.0, 177, dtype=np.longdouble)
        worst = 0.0
        with mpmath.workdps(40):
            for x, *vals in zip(xs, *_airy_asy_pos(xs)):
                xm = mpmath.mpf(np.format_float_scientific(x, unique=True))
                for d, v in enumerate(vals):
                    ref = mpmath.airyai(xm, derivative=d)
                    got = mpmath.mpf(np.format_float_scientific(v, unique=True))
                    worst = max(worst, float(abs(got / ref - 1)))
        assert worst <= 2e-16

    def test_relative_accuracy_across_positive_switches(self):
        # relative accuracy on the positive side where Ai falls from 3e-3 to
        # 1e-8; evaluation routes once switched at 4 and 8 and lost digits there
        mpmath = pytest.importorskip("mpmath")
        xs = np.linspace(3.5, 8.5, 161)
        ref = np.array([[float(mpmath.airyai(x, derivative=d)) for d in (0, 1)]
                        for x in xs])
        assert np.max(np.abs(airy_ai(xs) / ref[:, 0] - 1.0)) <= 1e-13
        assert np.max(np.abs(airy_ai_prime(xs) / ref[:, 1] - 1.0)) <= 1e-13

    def test_no_stencil_noise_near_negative_zeros(self):
        # the stencil and tolerance of test_airy_differential_equation on a
        # dense grid: near the zeros of Ai the tolerance is ~2e-16 absolute,
        # so rounding noise in the phase or steps between neighbouring
        # evaluation routes show up here
        x = np.linspace(-28.0, -6.0, 20001)
        h = 1e-3
        st = [airy_ai(x + h * k) for k in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        d2 = (-st[0] + 16 * st[1] - 30 * st[2] + 16 * st[3] - st[4]) / (12 * h * h)
        scale = np.maximum(np.abs(x * st[2]), 1e-3)
        bad = np.abs(d2 - x * st[2]) > 1e-6 * scale
        assert not np.any(bad), f"{bad.sum()} failures, first at {x[bad][:3]}"

    def test_whole_line_accuracy(self):
        # error in units of the oscillation amplitude for x < 0 (|x|^{-1/4}/sqrt(pi)
        # for Ai, |x|^{1/4}/sqrt(pi) for Ai'), relative for x >= 0; a fixed
        # sample of the whole domain plus the point where the march from the
        # asymptotic expansion begins (12), and former seams between
        # evaluation routes (-13, -9, -6, 2, 4, 8, 30)
        mpmath = pytest.importorskip("mpmath")
        seams = (-13.0, -9.0, -6.0, 2.0, 4.0, 8.0, 12.0, 30.0)
        near = [c + d for c in seams
                for d in (-0.25, -1 / 32, -1e-9, 0.0, 1e-9, 1 / 32, 0.25)]
        xs = np.concatenate([np.random.default_rng(20240611).uniform(-200.0, 30.0, 400), near])
        with mpmath.workdps(30):
            ref = np.array([[float(mpmath.airyai(x, derivative=d)) for d in (0, 1)]
                            for x in xs])
        z = np.abs(xs)
        neg = xs < 0
        amp = np.where(neg, z ** -0.25 / np.sqrt(np.pi), np.abs(ref[:, 0]))
        amp_prime = np.where(neg, z ** 0.25 / np.sqrt(np.pi), np.abs(ref[:, 1]))
        assert np.max(np.abs(airy_ai(xs) - ref[:, 0]) / amp) <= 5e-16
        assert np.max(np.abs(airy_ai_prime(xs) - ref[:, 1]) / amp_prime) <= 5e-16

    def test_far_tail_relative_accuracy(self):
        # the table on (30, 100], where Ai falls from 3e-49 to 3e-291; the
        # id-PII starting data amplify these values to O(1)
        mpmath = pytest.importorskip("mpmath")
        xs = np.random.default_rng(20261018).uniform(30.0, 100.0, 300)
        with mpmath.workdps(30):
            ref = np.array([[float(mpmath.airyai(x, derivative=d)) for d in (0, 1)]
                            for x in xs])
        assert np.max(np.abs(airy_ai(xs) / ref[:, 0] - 1.0)) <= 5e-16
        assert np.max(np.abs(airy_ai_prime(xs) / ref[:, 1] - 1.0)) <= 5e-16

    def test_only_the_requested_function_is_summed(self, monkeypatch):
        # the Nystrom kernels need Ai alone: no Ai' is computed for them
        from airylab import special
        real = special._from_table
        tables = []

        def spy(table, x):
            tables.append(table is special._TABLE_AIP)
            return real(table, x)

        monkeypatch.setattr(special, "_from_table", spy)
        x = np.linspace(-20.0, 40.0, 61)
        special._airy_cut(x)
        assert tables == [False]
        tables.clear()
        special._airy_cut(x, prime=True)
        assert tables == [True]

    def test_asymptotic_expansion_only_builds_the_table(self, monkeypatch):
        # beyond 30 the table serves Ai and Ai' too: the expansion that feeds
        # its anchors is not called at run time
        from airylab import special
        calls = []
        real = special._airy_asy_pos

        def spy(x):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(special, "_airy_asy_pos", spy)
        x = np.linspace(30.0, 200.0, 341)[1:]
        airy_ai(x)
        airy_ai_prime(x)
        for v in (30.5, 107.9, 150.0, 200.0):
            airy_ai(v)
            airy_ai_prime(v)
        assert calls == []

    def test_domain_limits(self):
        for bad in (np.nan, np.inf, -np.inf, -201.0):
            with pytest.raises(DomainError):
                airy_ai(bad)
            with pytest.raises(DomainError):
                airy_ai_prime(np.array([0.0, bad]))
        # from 108 on Ai and Ai' are 0.0 in float64
        assert airy_ai(201.0) == 0.0
        assert airy_ai_prime(1e6) == 0.0
        assert np.array_equal(airy_ai(np.array([108.0, 1e300])), [0.0, 0.0])


class TestLogisticFamily:
    def test_fermi_weight_symmetric_and_normalized(self):
        r = np.linspace(-40, 40, 4001)
        w = fermi_weight(r)
        assert np.allclose(w, fermi_weight(-r), rtol=1e-14)
        assert _trapezoid(w, r) == pytest.approx(1.0, abs=1e-10)
        assert fermi_weight(0.0) == 0.25

    def test_no_overflow_at_extremes(self):
        assert fermi_weight(1000.0) == 0.0
        assert np.isfinite(log_logistic(-1000.0))
        assert log_logistic(1000.0) == 0.0

    @given(st.floats(-600, 600))
    @settings(max_examples=60, deadline=None)
    def test_logistic_identities(self, z):
        assert logistic(z) + logistic(-z) == pytest.approx(1.0, abs=1e-14)
        assert np.log(max(logistic(z), 1e-300)) == pytest.approx(
            log_logistic(z), abs=1e-9)


class TestPolylogIntegrals:
    def test_f0_at_zero_closed_form(self):
        assert f_beta_quad(0.0, 0.0) == pytest.approx(F0_0, abs=1e-13)
        # the series route converges algebraically at y = 0; its truncation
        # tail is ~1e-12 at the default tolerance
        assert f_k_closed(0, 0.0) == pytest.approx(F0_0, abs=5e-12)

    def test_f1_at_zero_closed_form(self):
        # F_1(0) = 3 zeta(3) / 4
        target = 0.90154267736969571405
        assert f_beta_quad(1.0, 0.0) == pytest.approx(target, abs=1e-13)

    def test_half_integer_reference(self):
        assert f_beta_quad(-0.5, 0.0) == pytest.approx(FM12_0, abs=1e-12)

    def test_two_routes_agree(self):
        for k in (1, 2, 3):
            for y in (0.0, 0.5, 2.0, 5.0):
                assert f_beta_quad(float(k), y) == pytest.approx(
                    f_k_closed(k, y), abs=1e-12)

    def test_decreasing_in_y(self):
        vals = [f_beta_quad(0.5, y) for y in (0.0, 1.0, 3.0, 10.0)]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))

    def test_deep_tail_small(self):
        assert f_k_closed(2, 40.0) < 1e-15

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            f_beta_quad(-1.0, 0.0)
        # only 2 beta + 1 a non-negative integer has the smooth substitution
        with pytest.raises(DomainError):
            f_beta_quad(0.3, 1.0)
        with pytest.raises(DomainError):
            f_k_closed(1.5, 0.0)
        with pytest.raises(DomainError):
            f_k_closed(1, -0.5)
