import math
from math import comb

import numpy as np
import pytest

from qratio import spin
from qratio.errors import DomainError
from qratio.spin import (ARGMAX_TIE, SpinCoherentState, SpinDistribution,
                         approximate_distribution,
                         classical_limit_diagnostics, coefficient,
                         distribution, saddle_point_peak, stirling_log_weight)


def brute_force_weights(two_j, theta):
    """Exact binomial evaluation with integer coefficients (oracle)."""
    p = math.cos(theta / 2.0) ** 2
    return np.array([comb(two_j, k) * p ** k * (1.0 - p) ** (two_j - k)
                     for k in range(two_j + 1)])


class TestCoefficient:
    def test_aligned_spin_half(self):
        s = SpinCoherentState.from_j(0.5, 0.0)
        assert coefficient(s, 1) == 1.0
        assert coefficient(s, 0) == 0.0

    def test_equator_spin_half(self):
        s = SpinCoherentState.from_j(0.5, math.pi / 2)
        assert abs(coefficient(s, 0)) ** 2 == pytest.approx(0.5, rel=1e-12)
        assert abs(coefficient(s, 1)) ** 2 == pytest.approx(0.5, rel=1e-12)

    def test_peak_position_13_half(self):
        s = SpinCoherentState.from_j(6.5, math.pi / 4)
        w = np.array([abs(coefficient(s, k)) ** 2 for k in range(14)])
        m_peak = np.argmax(w) - 6.5
        assert abs(m_peak - 6.5 * math.cos(math.pi / 4)) <= 1.0

    def test_phi_enters_phase_only(self):
        a = coefficient(SpinCoherentState.from_j(2.5, 1.0, 0.0), 2)
        b = coefficient(SpinCoherentState.from_j(2.5, 1.0, 1.7), 2)
        assert abs(a) == pytest.approx(abs(b), rel=1e-14)
        assert a != b

    def test_out_of_range_index(self):
        s = SpinCoherentState.from_j(1.0, 0.3)
        with pytest.raises(DomainError):
            coefficient(s, 3)


class TestDistribution:
    def test_antialigned_one_hot(self):
        d = distribution(SpinCoherentState.from_j(0.5, math.pi))
        assert d.weights.tolist() == [1.0, 0.0]

    def test_spin_one_equator(self):
        d = distribution(SpinCoherentState.from_j(1.0, math.pi / 2))
        assert np.allclose(d.weights, [0.25, 0.5, 0.25], atol=1e-14)

    def test_13_half_equator_symmetric(self):
        d = distribution(SpinCoherentState.from_j(6.5, math.pi / 2))
        assert np.allclose(d.weights, d.weights[::-1], atol=1e-15)

    @pytest.mark.parametrize("two_j,theta", [
        (13, math.pi / 2), (13, math.pi / 4), (27, 1.0), (100, 2.2),
    ])
    def test_matches_integer_binomial_oracle(self, two_j, theta):
        d = distribution(SpinCoherentState(two_j, theta))
        assert np.max(np.abs(d.weights - brute_force_weights(two_j, theta))) < 1e-12

    @pytest.mark.parametrize("two_j", [13, 2000, 20000])
    def test_normalization(self, two_j):
        d = distribution(SpinCoherentState(two_j, 0.9))
        assert abs(d.weights.sum() - 1.0) < 1e-12
        assert d.normalization_defect < 1e-10

    def test_reversal_symmetry(self):
        theta = 0.7
        a = distribution(SpinCoherentState(40, theta)).weights
        b = distribution(SpinCoherentState(40, math.pi - theta)).weights
        assert np.allclose(a, b[::-1], atol=1e-15)

    @pytest.mark.parametrize("phi", [0.0, 1.0, math.pi])
    def test_phi_independence_bitwise(self, phi):
        ref = distribution(SpinCoherentState(21, 1.1, 0.0)).weights
        other = distribution(SpinCoherentState(21, 1.1, phi)).weights
        assert np.array_equal(ref, other)

    def test_large_spin_no_overflow(self):
        d = distribution(SpinCoherentState(2 * 10 ** 6, math.pi / 3))
        assert np.isfinite(d.weights).all()
        assert abs(d.weights.sum() - 1.0) < 1e-12


class TestArgmaxM:
    @pytest.mark.parametrize("weights, m", [
        ([0.1, 0.4, 0.4, 0.1], -0.5),
        ([0.4, 0.1, 0.1, 0.4], -1.5),
        ([0.4, 0.2, 0.4], -1.0),
        # m = -2, 1 and 2 tie: the smallest |m| wins over index order
        ([0.3, 0.05, 0.05, 0.3, 0.3], 1.0),
        # within the tolerance of the maximum is a tie, beyond it is not
        ([0.1, 0.4 * (1 - 0.1 * ARGMAX_TIE), 0.4, 0.1], -0.5),
        ([0.1, 0.4 * (1 - 10 * ARGMAX_TIE), 0.4, 0.1], 0.5),
    ])
    def test_ties_take_the_smallest_magnitude_then_the_smaller_m(self, weights, m):
        d = SpinDistribution(len(weights) - 1, np.array(weights))
        assert d.argmax_m() == m

    # m = +/-1/2 weigh the same at the equator; for j <= 5/2 the +1/2
    # weight is the larger by a few units in the last place, and at
    # j = 70000.5 and 199999.5 by 7.3e-12 and 2.9e-11 (relative), beyond
    # ARGMAX_TIE but within the log-gamma rounding
    @pytest.mark.parametrize("j", [0.5, 1.5, 2.5, 6.5, 50.5, 1000.5,
                                   70000.5, 199999.5])
    def test_equator_tie_of_half_integer_spin(self, j):
        d = distribution(SpinCoherentState.from_j(j, math.pi / 2))
        assert d.argmax_m() == -0.5

    # off the equator the two largest weights differ by 7.1e-6 (relative),
    # far beyond the tie, so the largest weight alone decides
    def test_large_spin_peak_is_not_a_tie(self):
        d = distribution(SpinCoherentState.from_j(199999.5, math.pi / 4))
        assert d.argmax_m() == float(d.m_values[np.argmax(d.weights)]) == 141421.5


class TestStirlingForm:
    def test_zero_at_peak(self):
        for theta in (0.4, math.pi / 2, 2.0):
            x0 = math.cos(theta / 2) ** 2
            assert stirling_log_weight(theta, x0) == pytest.approx(0.0, abs=1e-14)

    def test_negative_away_from_peak(self):
        theta = math.pi / 3
        x0 = math.cos(theta / 2) ** 2
        for x in (0.05, 0.3, 0.6, 0.95):
            if abs(x - x0) > 1e-9:
                assert stirling_log_weight(theta, x) < 0.0

    def test_frozen_value_at_quarter(self):
        # -0.25 ln 0.25 - 0.75 ln 0.75 - ln 2, by hand
        assert stirling_log_weight(math.pi / 2, 0.25) == pytest.approx(
            -0.130812035941137, rel=1e-12)

    def test_second_order_taylor_curvature(self):
        # f(x) ~ -(x-x0)^2 / (2 x0 (1-x0)) near the peak
        theta = math.pi / 2
        x0 = 0.5
        for dx in (0.01, 0.005):
            f = stirling_log_weight(theta, x0 + dx)
            taylor = -dx ** 2 / (2 * x0 * (1 - x0))
            assert f == pytest.approx(taylor, rel=2e-4)
        # numerical curvature at the peak
        h = 1e-5
        second = (stirling_log_weight(theta, x0 + h)
                  + stirling_log_weight(theta, x0 - h)) / h ** 2
        assert second == pytest.approx(-1.0 / (x0 * (1 - x0)), rel=1e-4)

    def test_domain_errors(self):
        for bad_x in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                stirling_log_weight(1.0, bad_x)
        for bad_theta in (0.0, math.pi):
            with pytest.raises(DomainError):
                stirling_log_weight(bad_theta, 0.5)


class TestSaddlePoint:
    def test_equator(self):
        x0, m = saddle_point_peak(100.0, math.pi / 2)
        assert x0 == pytest.approx(0.5, rel=1e-14)
        assert m == pytest.approx(0.0, abs=1e-10)

    def test_quarter_turn(self):
        _, m = saddle_point_peak(100.0, math.pi / 4)
        assert m == pytest.approx(100.0 / math.sqrt(2), rel=1e-12)

    def test_aligned_limit(self):
        x0, m = saddle_point_peak(10.0, 1e-8)
        assert x0 == pytest.approx(1.0, abs=1e-12)
        assert m == pytest.approx(10.0, rel=1e-12)


class TestClassicalLimit:
    def test_large_spin_argmax_tracks_classical_value(self):
        rep = classical_limit_diagnostics(2 * 10 ** 5, math.pi / 4)
        assert rep.argmax_offset <= 1.0

    def test_width_halves_when_spin_quadruples(self):
        r50 = classical_limit_diagnostics(50.0, math.pi / 3)
        r200 = classical_limit_diagnostics(200.0, math.pi / 3)
        assert r200.relative_width / r50.relative_width == pytest.approx(0.5, rel=0.05)

    def test_width_scaling_formula(self):
        # relative width = 2 sqrt(x0 (1 - x0)) / sqrt(2j)
        for j in (50, 200, 800):
            for theta in (math.pi / 6, math.pi / 4, math.pi / 2):
                x0 = math.cos(theta / 2) ** 2
                expected = 2 * math.sqrt(x0 * (1 - x0)) / math.sqrt(2 * j)
                rep = classical_limit_diagnostics(j, theta)
                assert rep.relative_width == pytest.approx(expected, rel=0.05)

    def test_spin_half_has_no_concentration(self):
        rep = classical_limit_diagnostics(0.5, math.pi / 2)
        assert rep.relative_width == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 2,
                                       3 * math.pi / 4])
    @pytest.mark.parametrize("j", [50, 214.5, 1000])
    def test_argmax_within_one_unit(self, j, theta):
        rep = classical_limit_diagnostics(j, theta)
        assert rep.argmax_offset <= 1.0


class TestAsymptoticAgreement:
    def test_stirling_matches_exact_at_j500(self):
        two_j = 1000
        theta = 1.1
        d = distribution(SpinCoherentState(two_j, theta))
        k = np.arange(1, two_j)
        x = k / two_j
        f = stirling_log_weight(theta, x)
        # exp(n f) needs the 1/sqrt(2 pi n x (1-x)) Stirling prefactor,
        # i.e. -0.5 log(4 pi j x (1-x)) in the log
        approx_log = two_j * f - 0.5 * np.log(4 * math.pi * (two_j / 2) * x * (1 - x))
        bulk = d.weights[1:-1] > 1e-10 * d.weights.max()
        exact_log = np.log(d.weights[1:-1][bulk])
        assert np.max(np.abs(approx_log[bulk] - exact_log)) < 0.01

    def test_argmax_agreement_with_approximation(self):
        theta = 0.9
        exact = distribution(SpinCoherentState(1000, theta))
        approx = approximate_distribution(500.0, theta)
        assert abs(int(np.argmax(exact.weights))
                   - int(np.argmax(approx.weights))) <= 1


def test_state_validation():
    with pytest.raises(DomainError):
        SpinCoherentState.from_j(0.3, 1.0)   # not half-integer
    with pytest.raises(DomainError):
        SpinCoherentState.from_j(1.0, 3.5)   # theta out of range
    with pytest.raises(DomainError):
        SpinCoherentState.from_j(-0.5, 1.0)


# ---------------------------------------------------------------------------
# log Gamma on numpy and math alone, against scipy as an oracle

def test_log_gamma_matches_scipy():
    gammaln = pytest.importorskip("scipy.special").gammaln
    x = np.concatenate([np.arange(1.0, 10 ** 6 + 1), np.arange(0.5, 20_000.0)])
    got = spin.log_gamma(x)
    small = x < spin.STIRLING_FROM
    # below the threshold it is math.lgamma itself
    assert got[small].tolist() == [math.lgamma(v) for v in x[small]]
    # from there on, the Stirling series within a few eps of scipy
    ref = gammaln(x[~small])
    rel = np.abs(got[~small] - ref) / ref
    assert rel.max() <= 4 * np.finfo(float).eps


def test_log_gamma_is_exactly_zero_at_one_and_two():
    assert spin.log_gamma([1.0, 2.0]).tolist() == [0.0, 0.0]
    assert spin.log_gamma(1.0) == 0.0 and spin.log_gamma(2.0) == 0.0


def test_log_gamma_takes_a_number():
    assert spin.log_gamma(5.0) == math.lgamma(5.0)
    assert spin.log_gamma(1e5) == spin.log_gamma([1e5])[0]


# ---------------------------------------------------------------------------
# weights are evaluated on their support alone

SUPPORT_CASES = [(0.5, math.pi / 2), (0.5, 1e-3), (1.0, math.pi - 1e-3),
                 (1.0, math.pi / 3), (6.5, 1e-9), (6.5, math.pi - 1e-9),
                 (1000.0, math.pi / 4), (2e5, math.pi / 4), (2e5, 1e-4),
                 (2e5, math.pi - 1e-4)]


@pytest.mark.parametrize("j, theta", SUPPORT_CASES)
def test_exact_weights_vanish_off_the_support(j, theta):
    n = round(2 * j)
    logw = spin._log_weights(n, theta, np.arange(n + 1))
    full = np.exp(logw - logw.max())
    a, b = spin._support(lambda k: spin._log_weights(n, theta, k), 0, n,
                         spin._peak(n, theta, 0, n))
    assert not full[:a].any() and not full[b + 1:].any()
    # the sums differ in length, so subnormal weights may round apart
    w = distribution(SpinCoherentState.from_j(j, theta)).weights
    np.testing.assert_allclose(w, full / full.sum(), rtol=1e-13, atol=1e-300)


@pytest.mark.parametrize("j, theta", [c for c in SUPPORT_CASES if c[0] >= 1.0])
def test_approximate_weights_vanish_off_the_support(j, theta):
    n = round(2 * j)
    f = stirling_log_weight(theta, np.arange(1, n) / n)
    full = np.zeros(n + 1)
    full[1:n] = np.exp(n * (f - f.max()))
    a, b = spin._support(lambda k: n * stirling_log_weight(theta, k / n),
                         1, n - 1, spin._peak(n, theta, 1, n - 1))
    assert not full[:a].any() and not full[b + 1:].any()
    w = approximate_distribution(j, theta).weights
    np.testing.assert_allclose(w, full / full.sum(), rtol=1e-13, atol=1e-300)


def test_support_of_a_flat_log_weight_is_the_whole_range():
    assert spin._support(lambda k: 0.0, 3, 17, 9) == (3, 17)
    # a peak at either end
    assert spin._support(lambda k: -1000.0 * k, 0, 9, 0) == (0, 0)
    assert spin._support(lambda k: 1000.0 * k, 0, 9, 9) == (9, 9)
