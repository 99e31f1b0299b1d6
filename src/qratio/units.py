"""Unit-tagged quantity parsing for config and catalog files.

Every physical quantity in a file must carry an explicit unit ("0.2 mm",
"108 amu", "2 eV").  Values convert to SI at the parsing boundary; all
internal computation is SI.
"""

import math

from .constants import ATOMIC_MASS_UNIT, EV, KG_PER_MEV_C2
from .errors import ConfigError

# unit -> (dimension, factor to SI)
_UNITS = {
    # length -> m
    "m": ("length", 1.0),
    "cm": ("length", 1e-2),
    "mm": ("length", 1e-3),
    "um": ("length", 1e-6),
    "nm": ("length", 1e-9),
    "pm": ("length", 1e-12),
    "fm": ("length", 1e-15),
    "angstrom": ("length", 1e-10),
    "A": ("length", 1e-10),
    # mass -> kg
    "kg": ("mass", 1.0),
    "g": ("mass", 1e-3),
    "amu": ("mass", ATOMIC_MASS_UNIT),
    "u": ("mass", ATOMIC_MASS_UNIT),
    "eV/c2": ("mass", KG_PER_MEV_C2 * 1e-6),
    "keV/c2": ("mass", KG_PER_MEV_C2 * 1e-3),
    "MeV/c2": ("mass", KG_PER_MEV_C2),
    "GeV/c2": ("mass", KG_PER_MEV_C2 * 1e3),
    # time -> s
    "s": ("time", 1.0),
    "ms": ("time", 1e-3),
    "us": ("time", 1e-6),
    "ns": ("time", 1e-9),
    "ps": ("time", 1e-12),
    "fs": ("time", 1e-15),
    # speed -> m/s
    "m/s": ("speed", 1.0),
    "km/s": ("speed", 1e3),
    # energy -> J
    "J": ("energy", 1.0),
    "eV": ("energy", EV),
    "meV": ("energy", EV * 1e-3),
    "keV": ("energy", EV * 1e3),
    "MeV": ("energy", EV * 1e6),
    # momentum -> kg*m/s
    "kg*m/s": ("momentum", 1.0),
    # magnetic field -> T
    "T": ("field", 1.0),
    "mT": ("field", 1e-3),
    "G": ("field", 1e-4),
    "gauss": ("field", 1e-4),
    # field gradient -> T/m
    "T/m": ("gradient", 1.0),
    "T/cm": ("gradient", 1e2),
    # rate -> 1/s
    "1/s": ("rate", 1.0),
    "Hz": ("rate", 1.0),
    # angle -> rad
    "rad": ("angle", 1.0),
    "deg": ("angle", math.pi / 180.0),
}

# dimension -> SI unit: the first unit of factor 1.0 listed for it (the
# reversed walk lets "1/s" overwrite "Hz")
SI_UNITS = {dim: unit for unit, (dim, factor) in reversed(_UNITS.items())
            if factor == 1.0}

DIMENSIONLESS = ("dimensionless", "angle", "spin")


def _parse_number(token, key, line, dimension):
    """A float, or for an angle a multiple/fraction of pi ('pi/4', '3pi/2')."""
    t = token.strip()
    if "pi" in t:
        if dimension != "angle":
            raise ConfigError(f"key '{key}' takes pi only in an angle, not in "
                              f"the {dimension} '{token}'", line)
        head, _, tail = t.partition("pi")
        try:
            num = float(head) if head not in ("", "+", "-") else float(head + "1")
            den = float(tail[1:]) if tail.startswith("/") else (1.0 if tail == "" else None)
            if den is None:
                raise ValueError
            return num * math.pi / den
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"cannot parse angle '{token}' for key '{key}'", line) from None
    if "/" in t:  # half-integer spins: "13/2"
        num, _, den = t.partition("/")
        try:
            return float(num) / float(den)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"cannot parse fraction '{token}' for key '{key}'", line) from None
    try:
        return float(t)
    except ValueError:
        raise ConfigError(f"cannot parse number '{token}' for key '{key}'", line) from None


def parse_quantity(text, dimension, key="value", line=None):
    """Parse 'number unit' into an SI float of the expected dimension.

    Dimensionless quantities (including angles in rad and spins) may omit
    the unit; everything else must carry one.  NaN and infinite values are
    rejected.
    """
    parts = text.strip().split(None, 1)
    if not parts:
        raise ConfigError(f"empty value for key '{key}'", line)
    value = _parse_number(parts[0], key, line, dimension)
    if len(parts) == 1:
        if dimension not in DIMENSIONLESS:
            raise ConfigError(f"key '{key}' needs a unit of {dimension} "
                              f"(got bare '{text.strip()}')", line)
    else:
        unit = parts[1].strip()
        if unit not in _UNITS:
            raise ConfigError(f"unknown unit '{unit}' for key '{key}'", line)
        dim, factor = _UNITS[unit]
        if dim != dimension:
            raise ConfigError(
                f"key '{key}' expects {dimension}, unit '{unit}' is {dim}", line)
        value *= factor
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}' must be finite, got '{text.strip()}'", line)
    return value
