"""Scenario configuration files.

Line-oriented ``key = value`` grammar under ``[section]`` headers, hash
comments, units mandatory on physical quantities.  ``parse_config`` returns
a fully validated :class:`ScenarioConfig` with all quantities in SI; unknown
keys, missing units and out-of-range values are diagnosed with their line
number.  The exact grammar is documented in FORMATS.md.
"""

import math
from dataclasses import dataclass

from .errors import ConfigError
from .units import parse_quantity

KINDS = ("ratio", "diffuse", "spin-dist", "sg", "tunnel", "talbot", "decohere")

# value type -> parser; quantities use their dimension name
_SIMPLE = {
    "int": lambda s, k, ln: _to_int(s, k, ln),
    "float": lambda s, k, ln: _to_float(s, k, ln),
    "str": lambda s, k, ln: s,
    "ints": lambda s, k, ln: tuple(_to_int(p, k, ln) for p in s.split()),
    "floats": lambda s, k, ln: tuple(_to_float(p, k, ln) for p in s.split()),
}


def _to_int(s, key, line):
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"key '{key}' expects an integer, got '{s}'", line) from None


def _to_float(s, key, line):
    try:
        value = float(s)
    except ValueError:
        raise ConfigError(f"key '{key}' expects a number, got '{s}'", line) from None
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}' must be finite, got '{s}'", line)
    return value


def _parse_value(spec, text, key, line):
    if spec in _SIMPLE:
        return _SIMPLE[spec](text, key, line)
    if spec.startswith("choice:"):
        choices = spec.split(":", 1)[1].split("|")
        if text not in choices:
            raise ConfigError(
                f"key '{key}' must be one of {choices}, got '{text}'", line)
        return text
    return parse_quantity(text, spec, key, line)


# section -> key -> (type/dimension, required, default); sections marked
# with a trailing '*' may repeat
SCHEMAS = {
    "ratio": {
        "ratio": {
            "experiment": ("str", False, None),
            "Rq": ("length", False, None),
            "L0": ("length", False, None),
        },
    },
    "diffuse": {
        "case*": {
            "name": ("str", True, None),
            "mass": ("mass", True, None),
            "width": ("length", True, None),
        },
    },
    "spin-dist": {
        "spin": {
            "j": ("spin", True, None),
            "theta": ("angle", True, None),
            "phi": ("angle", False, 0.0),
            "mode": ("choice:exact|approx", False, "exact"),
        },
    },
    "sg": {
        "sg": {
            "mode": ("choice:decoupled|coupled-check|bands", True, None),
            "mass": ("mass", False, None),
            "B0": ("field", False, None),
            "b0": ("gradient", False, None),
            "width": ("length", False, None),
            "duration": ("time", False, None),
            "steps": ("int", False, None),
            "c_up": ("float", False, None),
            "c_down": ("float", False, None),
            "bias_ratios": ("floats", False, None),
            "record_every": ("int", False, 0),
            "j": ("spin", False, None),
            "theta": ("angle", False, None),
            "phi": ("angle", False, 0.0),
            "region_length": ("length", False, None),
            "speed": ("speed", False, None),
            "drift_time": ("time", False, 0.0),
        },
        "grid": {
            "points": ("ints", False, None),
            "extent": ("length", False, None),
        },
    },
    "tunnel": {
        "tunnel": {
            "mode": ("choice:sweep|pure|decohered", True, None),
            "mass": ("mass", True, None),
        },
        "barrier": {
            "shape": ("choice:rectangular|gaussian", True, None),
            "height": ("energy", True, None),
            "width": ("length", False, None),
            "sigma": ("length", False, None),
        },
        "sweep": {
            "energy_min": ("energy", False, None),
            "energy_max": ("energy", False, None),
            "count": ("int", False, 33),
        },
        "beam": {
            "energy": ("energy", False, None),
            "width": ("length", False, None),
            "start": ("length", False, None),
            "transverse_width": ("length", False, None),
            "separation": ("length", False, None),
            "c1": ("float", False, None),
            "c2": ("float", False, None),
        },
        "grid": {
            "points": ("ints", False, (2048, 64)),
        },
        "environment": {
            "wavelength": ("length", False, None),
            "rate": ("rate", False, None),
        },
    },
    "talbot": {
        "talbot": {
            "mode": ("choice:carpet|lau", True, None),
            "wavelength": ("length", True, None),
        },
        "grating": {
            "period": ("length", True, None),
            "open_fraction": ("float", False, 0.3),
            "slits": ("int", False, 64),
        },
        "carpet": {
            "z_max_talbot": ("float", False, 2.2),
            "z_steps": ("int", False, 200),
        },
        "lau": {
            "L1_talbot": ("float", False, 1.0),
            "L2_talbot": ("float", False, 1.0),
            "source_slits": ("int", False, 16),
            "source_open_fraction": ("float", False, 0.3),
            "scan_open_fraction": ("float", False, 0.3),
            "offsets": ("int", False, 81),
        },
    },
    "decohere": {
        "decohere": {
            "mass": ("mass", True, None),
            "width": ("length", True, None),
            "separation": ("length", True, None),
            "momentum": ("momentum", False, 0.0),
            "c1": ("float", False, None),
            "c2": ("float", False, None),
            "duration_rate": ("float", False, 5.0),
            "steps": ("int", False, 200),
        },
        "environment": {
            "wavelength": ("length", True, None),
            "rate": ("rate", True, None),
        },
        "grid": {
            "points": ("ints", False, (512,)),
            "extent": ("length", True, None),
        },
        "timescales": {
            "transit_length": ("length", False, None),
            "transit_speed": ("speed", False, None),
            "tau_diss": ("time", False, math.inf),
        },
    },
}

_SCENARIO_KEYS = {"kind": None, "seed": None, "out": None}


@dataclass
class ScenarioConfig:
    kind: str
    seed: int
    out: str | None
    params: dict            # section -> dict | list of dicts (repeated)
    canonical: str = ""     # round-trippable serialized text

    def section(self, name):
        return self.params[name]


def _raw_parse(text):
    """Tokenize the shared config/catalog grammar (FORMATS.md).

    Returns ``(head, sections)``: the ``key = value`` lines that precede the
    first section as ``{key: (value, line)}``, and the sections as
    ``(name, {key: (value, line)}, line)`` tuples in file order.
    """
    head = {}
    sections = []
    body = head
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            body = {}
            sections.append((line[1:-1].strip(), body, lineno))
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value' or '[section]'", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in body:
            raise ConfigError(f"duplicate key '{key}'", lineno)
        if not value:
            raise ConfigError(f"empty value for key '{key}'", lineno)
        body[key] = (value, lineno)
    return head, sections


def parse_config(text):
    """Parse and validate a scenario configuration."""
    preamble, sections = _raw_parse(text)
    if preamble:
        raise ConfigError("keys must appear inside a section",
                          next(iter(preamble.values()))[1])
    if not sections or sections[0][0] != "scenario":
        raise ConfigError("scenario kind required: file must begin with "
                          "[scenario] and 'kind = <name>'")
    head = sections[0][1]
    unknown = head.keys() - _SCENARIO_KEYS.keys()
    if unknown:
        raise ConfigError(f"unknown [scenario] keys {sorted(unknown)}",
                          head[sorted(unknown)[0]][1])
    if "kind" not in head:
        raise ConfigError("scenario kind required", sections[0][2])
    kind, kind_line = head["kind"]
    if kind not in KINDS:
        raise ConfigError(f"unknown scenario kind '{kind}' "
                          f"(one of {', '.join(KINDS)})", kind_line)
    seed = (_to_int(head["seed"][0], "seed", head["seed"][1])
            if "seed" in head else 0)
    out = head["out"][0] if "out" in head else None

    schema = SCHEMAS[kind]
    repeatable = {name[:-1] for name in schema if name.endswith("*")}
    plain = {name for name in schema if not name.endswith("*")}
    params = {name: [] for name in repeatable}

    for name, body, line in sections[1:]:
        if name in repeatable:
            spec = schema[name + "*"]
            params[name].append(_validate_section(name, spec, body, line))
        elif name in plain:
            if name in params:
                raise ConfigError(f"section [{name}] may not repeat", line)
            params[name] = _validate_section(name, schema[name], body, line)
        else:
            raise ConfigError(f"unknown section [{name}] for kind '{kind}'", line)

    for name in plain:
        if name not in params:
            params[name] = _validate_section(name, schema[name], {}, None)
    for name in repeatable:
        if not params[name] and any(req for _, req, _ in schema[name + "*"].values()):
            raise ConfigError(f"kind '{kind}' needs at least one [{name}] section")

    cfg = ScenarioConfig(kind, seed, out, params)
    cfg.canonical = serialize_config(cfg)
    return cfg


def _validate_section(name, spec, body, line):
    unknown = body.keys() - spec.keys()
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown key '{key}' in section [{name}]",
                          body[key][1])
    out = {}
    for key, (vtype, required, default) in spec.items():
        if key in body:
            out[key] = _parse_value(vtype, body[key][0], key, body[key][1])
        elif required:
            raise ConfigError(f"section [{name}] is missing required key "
                              f"'{key}'", line)
        else:
            out[key] = default
    return out


def _format_value(v):
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (int,)):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return " ".join(_format_value(p) for p in v)
    raise TypeError(f"cannot serialize {v!r}")


def serialize_config(cfg):
    """Canonical text form; all quantities in SI base units.

    parse_config(serialize_config(c)) reproduces c exactly: serialized
    quantities carry their SI unit strings.
    """
    si_unit = {
        "length": "m", "mass": "kg", "time": "s", "speed": "m/s",
        "energy": "J", "momentum": "kg*m/s", "field": "T", "gradient": "T/m",
        "rate": "1/s", "angle": "rad", "spin": "", "dimensionless": "",
    }
    lines = ["[scenario]", f"kind = {cfg.kind}", f"seed = {cfg.seed}"]
    if cfg.out:
        lines.append(f"out = {cfg.out}")
    schema = SCHEMAS[cfg.kind]

    def emit(name, spec, values):
        lines.append(f"[{name}]")
        for key in spec:
            v = values.get(key)
            if v is None:
                continue
            vtype = spec[key][0]
            if vtype in _SIMPLE or vtype.startswith("choice:"):
                lines.append(f"{key} = {_format_value(v)}")
            else:
                if math.isinf(v):
                    continue
                unit = si_unit[vtype]
                tail = f" {unit}" if unit else ""
                lines.append(f"{key} = {v!r}{tail}")

    for name in sorted(schema):
        base = name[:-1] if name.endswith("*") else name
        if name.endswith("*"):
            for values in cfg.params.get(base, []):
                emit(base, schema[name], values)
        else:
            emit(base, schema[name], cfg.params.get(base, {}))
    return "\n".join(lines) + "\n"
