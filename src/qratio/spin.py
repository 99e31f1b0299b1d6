"""Spin coherent (Bloch) states and their J_z distributions.

A spin-j state fully polarized along (theta, phi) decomposes over J_z
eigenstates |j, m> with m = -j + k as

    c_k = binom(2j, k)^(1/2) e^{i(j-k)phi} cos(theta/2)^k sin(theta/2)^(2j-k)

so |c_k|^2 is the binomial distribution with n = 2j trials and success
probability cos^2(theta/2).  For large j the distribution concentrates at
m = j cos(theta) with width O(sqrt(j)): the state deflects like a single
classical magnetic moment instead of fanning out over 2j+1 beams.

Everything is evaluated in log space (log-gamma binomials), so spins up to
j = 10^6, the cap every state checks, are exact to floating-point accuracy
without overflow.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_HALF_INT_TOL = 1e-9
MAX_TWO_J = 2_000_000   # largest 2j accepted anywhere: j <= 10^6
ARGMAX_TIE = 1e-12      # weights this close to the maximum (relative) tie
# log Gamma takes the Stirling series from here on, math.lgamma below
STIRLING_FROM = 16.0
# B_2k / (2k (2k - 1)), k = 1..5: the series' terms in 1/x^(2k-1); the next
# is under 1e-17 of log Gamma at x = 16
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# exp underflows to 0 below about -745.13: a log-weight more than this
# under the peak's is outside the support, with room for its rounding
UNDERFLOW_DEPTH = 750.0


def log_gamma(x):
    """log Gamma(x) for x > 0, a number or an array: math.lgamma below
    STIRLING_FROM, elementwise, and the Stirling series
    (x - 1/2) log x - x + log(2 pi)/2 + sum_k B_2k / (2k (2k - 1) x^(2k-1))
    from there on, vectorized."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    small = x < STIRLING_FROM
    out[small] = [math.lgamma(v) for v in x[small]]
    big = x[~small]
    z2 = 1.0 / (big * big)
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = series * z2 + c
    out[~small] = (big - 0.5) * np.log(big) - big + _HALF_LOG_2PI + series / big
    return out


def _two_j(j):
    two_j = round(2.0 * j)
    if two_j < 0 or abs(2.0 * j - two_j) > _HALF_INT_TOL:
        raise DomainError(f"spin must be a non-negative half-integer, got {j}")
    return two_j


@dataclass(frozen=True)
class SpinCoherentState:
    """Spin-j state polarized along the (theta, phi) direction.

    ``two_j`` stores 2j as an exact integer; ``theta`` must lie in [0, pi].
    """

    two_j: int
    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if self.two_j < 0 or self.two_j != int(self.two_j):
            raise DomainError("two_j must be a non-negative integer")
        if self.two_j > MAX_TWO_J:
            raise DomainError(f"spins beyond j = 10^6 are not supported, "
                              f"got j = {self.two_j / 2}")
        if not 0.0 <= self.theta <= math.pi:
            raise DomainError(f"theta must lie in [0, pi], got {self.theta}")

    @property
    def j(self):
        return self.two_j / 2.0

    @classmethod
    def from_j(cls, j, theta, phi=0.0):
        return cls(_two_j(j), theta, phi)


@dataclass(frozen=True)
class SpinDistribution:
    """Normalized |c_k|^2 weights of k = first, first + 1, ... (m = -j + k),
    from the first nonzero one to the last: every other k weighs 0."""

    two_j: int
    first: int
    weights: np.ndarray
    normalization_defect: float = 0.0  # |raw sum - 1| before renormalizing

    @property
    def m_values(self):
        return self.first + np.arange(len(self.weights)) - self.two_j / 2.0

    def argmax_m(self):
        """The m of the largest weight; among weights within a relative tie
        of it, the smallest |m|, then the smaller m, so that an exact tie is
        not decided by rounding.  The tie is ARGMAX_TIE, or the rounding of
        the log-gamma weights, eps ln Gamma(2j + 1), where that is larger
        (from j = 396.5 on)."""
        tie = max(ARGMAX_TIE, np.finfo(float).eps * math.lgamma(self.two_j + 1.0))
        m, w = self.m_values, self.weights
        return float(min(m[w >= (1.0 - tie) * w.max()], key=lambda m: (abs(m), m)))

    def mean_m(self):
        return float(self.m_values @ self.weights)

    def std_m(self):
        return float(np.sqrt((self.m_values - self.mean_m()) ** 2 @ self.weights))


def _log_weights(two_j, theta, k):
    """log |c_k|^2 at index k, a number or an array, for interior theta;
    binomial(n=2j, p=cos^2(theta/2))."""
    n = two_j
    log_cos2 = 2.0 * np.log(np.cos(theta / 2.0))
    log_sin2 = 2.0 * np.log(np.sin(theta / 2.0))
    return (log_gamma(n + 1.0) - log_gamma(k + 1.0) - log_gamma(n - k + 1.0)
            + k * log_cos2 + (n - k) * log_sin2)


def _support(log_weight, lo, hi, peak):
    """(a, b): the k range a <= k <= b of [lo, hi] where exp of the
    unimodal ``log_weight(k)`` less its maximum can be nonzero, that is
    where it is at least log_weight(peak) - UNDERFLOW_DEPTH, found by
    bisection on each side of ``peak``, a k near the maximum.  Every k
    outside it weighs exactly 0."""
    floor = log_weight(peak) - UNDERFLOW_DEPTH
    a, b = lo, peak
    while a < b:
        mid = (a + b) // 2
        if log_weight(mid) >= floor:
            b = mid
        else:
            a = mid + 1
    lo, b = peak, hi
    while lo < b:
        mid = (lo + b + 1) // 2
        if log_weight(mid) >= floor:
            lo = mid
        else:
            b = mid - 1
    return a, b


def _peak(n, theta, lo, hi):
    """The k of [lo, hi] nearest the peak n cos^2(theta/2)."""
    return min(hi, max(lo, round(n * math.cos(theta / 2.0) ** 2)))


def coefficient(state, k):
    """Projection amplitude c_k of the state on |j, m = -j + k>: the root
    of the binomial weight :func:`distribution` reads, times the phase
    e^{i(j-k)phi}."""
    n = state.two_j
    if not 0 <= k <= n:
        raise DomainError(f"index k must lie in [0, {n}], got {k}")
    # aligned/anti-aligned states are one-hot; log forms would hit log(0)
    if state.theta == 0.0:
        return 1.0 + 0.0j if k == n else 0.0j
    if state.theta == math.pi:
        return 1.0 + 0.0j if k == 0 else 0.0j
    phase = (n / 2.0 - k) * state.phi
    return (math.exp(0.5 * _log_weights(n, state.theta, k))
            * complex(math.cos(phase), math.sin(phase)))


def _nonzero_span(a, w):
    """(first, weights): the normalized weights ``w`` of k = a, a + 1, ... cut
    to their nonzero ends.  At j = 10^6, theta = pi/3, 154 of the support's
    47,431 underflow to 0, and 234 more round to 0 when normalized."""
    nz = np.flatnonzero(w)
    return a + int(nz[0]), w[nz[0]:nz[-1] + 1]


def distribution(state):
    """Exact |c_k|^2 distribution, renormalized (defect recorded).  The
    weights are evaluated on their support alone."""
    n = state.two_j
    if state.theta == 0.0 or state.theta == math.pi:
        return SpinDistribution(n, n if state.theta == 0.0 else 0, np.ones(1))
    a, b = _support(lambda k: _log_weights(n, state.theta, k), 0, n,
                    _peak(n, state.theta, 0, n))
    logw = _log_weights(n, state.theta, np.arange(a, b + 1))
    shift = logw.max()
    w = np.exp(logw - shift)
    total = w.sum()
    return SpinDistribution(n, *_nonzero_span(a, w / total),
                            abs(total * math.exp(shift) - 1.0))


def stirling_log_weight(theta, x):
    """Large-spin log-weight density f(x), with |c_k|^2 ~ exp(2j f(k/2j)).

    f(x) = -x log x - (1-x) log(1-x)
           + 2x log cos(theta/2) + 2(1-x) log sin(theta/2)

    f vanishes at the peak x0 = cos^2(theta/2) and is negative elsewhere;
    it does not depend on j.  ``x`` may be a number or an array, every
    value strictly inside (0, 1); :func:`approximate_distribution` reads
    f on its k grid's support from here.
    """
    x = np.asarray(x, dtype=float)
    if not (0.0 < x.min() and x.max() < 1.0):
        raise DomainError(f"x must lie strictly inside (0, 1), got {x}")
    if not 0.0 < theta < math.pi:
        raise DomainError(f"theta must lie strictly inside (0, pi), got {theta}")
    return (-x * np.log(x) - (1.0 - x) * np.log1p(-x)
            + 2.0 * x * math.log(math.cos(theta / 2.0))
            + 2.0 * (1.0 - x) * math.log(math.sin(theta / 2.0)))


def approximate_distribution(j, theta):
    """Large-spin approximation exp(2j f(k/2j)) on the k grid, normalized.

    This is the closed-form asymptotic used for very large spins in place
    of the exact binomial.  It weighs only the support inside the endpoints
    k = 0, 2j; f is not evaluated anywhere else.
    """
    n = SpinCoherentState.from_j(j, theta).two_j
    if n < 2:
        raise DomainError(f"approximation needs j >= 1 (interior k), got j = {n / 2}")
    a, b = _support(lambda k: n * stirling_log_weight(theta, k / n), 1, n - 1,
                    _peak(n, theta, 1, n - 1))
    f = stirling_log_weight(theta, np.arange(a, b + 1) / n)
    w = np.exp(n * (f - f.max()))
    return SpinDistribution(n, *_nonzero_span(a, w / w.sum()))


def saddle_point_peak(j, theta):
    """Peak (x0, m_peak) of the large-spin distribution.

    x0 = cos^2(theta/2) and m_peak = j cos(theta).
    """
    if not 0.0 <= theta <= math.pi:
        raise DomainError(f"theta must lie in [0, pi], got {theta}")
    jj = _two_j(j) / 2.0
    x0 = math.cos(theta / 2.0) ** 2
    return x0, jj * math.cos(theta)


@dataclass(frozen=True)
class ClassicalLimitReport:
    argmax_m: float
    argmax_offset: float   # |argmax_m - j cos(theta)|
    relative_width: float  # std(m) / j


def classical_limit_diagnostics(j, theta):
    """How close the exact distribution is to a single classical value of J_z.

    The relative width scales as 2 sqrt(x0 (1 - x0)) / sqrt(2j): growing j
    by 4 halves it, and at j -> inf the distribution is a delta at
    m = j cos(theta).
    """
    state = SpinCoherentState.from_j(j, theta)
    if state.two_j < 1:
        raise DomainError("need j >= 1/2")
    dist = distribution(state)
    argmax = dist.argmax_m()
    jj = state.two_j / 2.0
    return ClassicalLimitReport(
        argmax_m=argmax,
        argmax_offset=abs(argmax - jj * math.cos(theta)),
        relative_width=dist.std_m() / jj,
    )
