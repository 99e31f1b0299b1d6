"""Quantum-ratio criterion and free Gaussian wave-packet kinematics.

The quantum ratio Q = R_q / L_0 compares the spatial extension of a body's
center-of-mass wave function (R_q) with the body's linear size (L_0).
Q >> 1 marks quantum behaviour of the center of mass, Q <~ 1 classical
behaviour; elementary particles have L_0 = 0 and hence Q = infinite.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .constants import HBAR, PLANCK_H
from .errors import DomainError

# Classification thresholds.  The criterion itself is asymptotic
# ("much larger" / "of order one"); a programmatic API needs a concrete
# boundary, fixed here once for the whole toolkit.
QUANTUM_THRESHOLD = 10.0
CLASSICAL_THRESHOLD = 1.0


class Classification(Enum):
    QUANTUM = "Quantum"
    CLASSICAL = "Classical"
    CROSSOVER = "Crossover"
    INFINITE = "Infinite"


@dataclass(frozen=True)
class RatioResult:
    ratio: float  # math.inf when L_0 = 0
    classification: Classification


def quantum_ratio(quantum_range, body_length):
    """Classify a body by Q = R_q / L_0.

    Parameters
    ----------
    quantum_range : float
        Spatial extension R_q of the center-of-mass wave function (m), > 0.
    body_length : float
        Body size L_0 (m), >= 0.  Zero means a pointlike (elementary)
        particle and yields the Infinite classification.
    """
    if quantum_range <= 0.0:
        raise DomainError(f"quantum range must be positive, got {quantum_range}")
    if body_length < 0.0:
        raise DomainError(f"body size must be non-negative, got {body_length}")
    if body_length == 0.0:
        return RatioResult(math.inf, Classification.INFINITE)
    q = quantum_range / body_length
    if q > QUANTUM_THRESHOLD:
        cls = Classification.QUANTUM
    elif q <= CLASSICAL_THRESHOLD:
        cls = Classification.CLASSICAL
    else:
        cls = Classification.CROSSOVER
    return RatioResult(q, cls)


def body_size(constituent_spreads):
    """Body size L_0 = max over constituents of the rms internal displacement.

    ``constituent_spreads`` is a non-empty iterable of rms displacements (m).
    """
    spreads = list(constituent_spreads)
    if not spreads:
        raise DomainError("body_size needs at least one constituent spread")
    if any(s < 0.0 for s in spreads):
        raise DomainError("constituent spreads must be non-negative")
    return max(spreads)


def de_broglie_wavelength(mass, speed):
    """de Broglie wavelength h / (m v) in meters."""
    if mass <= 0.0 or speed <= 0.0:
        raise DomainError("mass and speed must be positive")
    return PLANCK_H / (mass * speed)


@dataclass(frozen=True)
class GaussianPacket:
    """Free Gaussian wave packet psi(x) ~ exp(-(x-c)^2/a^2) exp(i p x / hbar).

    ``width`` is the amplitude 1/e half-width a (the momentum-space weight
    exp(-(p-p0)^2/b^2) corresponds to a = 2*hbar/b).  The probability
    density's 1/e half-width is a/sqrt(2) and its standard deviation a/2.
    """

    center: float    # m
    width: float     # m, amplitude 1/e half-width a
    momentum: float  # kg*m/s
    mass: float      # kg

    def __post_init__(self):
        if self.width <= 0.0:
            raise DomainError(f"packet width must be positive, got {self.width}")
        if self.mass <= 0.0:
            raise DomainError(f"packet mass must be positive, got {self.mass}")

    @property
    def momentum_scale(self):
        """b = 2*hbar/a of the momentum-space weight exp(-(p-p0)^2/b^2)."""
        return 2.0 * HBAR / self.width


def packet_width_at(packet, t):
    """Amplitude 1/e half-width of a freely spreading Gaussian at time t >= 0.

    a(t) = a * sqrt(1 + (2*hbar*t / (m*a^2))^2); the late-time slope is
    2*hbar/(m*a).
    """
    if t < 0.0:
        raise DomainError("time must be non-negative")
    a = packet.width
    beta = 2.0 * HBAR * t / (packet.mass * a * a)
    return a * math.sqrt(1.0 + beta * beta)


def doubling_time(mass, initial_width):
    """Time for a free Gaussian packet's width to double.

    Doubling of the amplitude 1/e half-width a happens at
    t = sqrt(3) * m * a^2 / (2*hbar).
    """
    if mass <= 0.0 or initial_width <= 0.0:
        raise DomainError("mass and initial width must be positive")
    return math.sqrt(3.0) * mass * square(initial_width, "packet width") / (2.0 * HBAR)


def square(x, name):
    """x ** 2, or a :class:`DomainError` that names the quantity where the
    square overflows the float range."""
    try:
        return x ** 2
    except OverflowError:
        raise DomainError(f"{name} {x:.3e} overflows when squared") from None


def check_amplitudes(c1, c2):
    """Raise :class:`DomainError` unless the two amplitudes of a split
    state hold |c1|^2 + |c2|^2 = 1 to 1e-12; a NaN fails too."""
    total = abs(c1) ** 2 + abs(c2) ** 2
    if not abs(total - 1.0) <= 1e-12:
        raise DomainError(f"|c1|^2 + |c2|^2 = {total} must equal 1")
