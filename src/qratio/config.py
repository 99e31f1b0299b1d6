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
from .units import SI_UNITS, parse_quantity

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


def _type_parts(vtype):
    """'energy>0' -> ('energy', None, '>', 0.0); 'ints:2' -> ('ints', 2,
    None, None).  A bound is in SI units and holds for every listed value."""
    op = ">=" if ">=" in vtype else ">" if ">" in vtype else None
    base, bound = vtype.split(op) if op else (vtype, None)
    base, _, count = base.partition(":")
    return (base, int(count) if count else None, op,
            None if bound is None else float(bound))


def _parse_value(vtype, text, key, line):
    if vtype.startswith("choice:"):
        choices = vtype.split(":", 1)[1].split("|")
        if text not in choices:
            raise ConfigError(
                f"key '{key}' must be one of {choices}, got '{text}'", line)
        return text
    base, count, op, bound = _type_parts(vtype)
    value = (_SIMPLE[base](text, key, line) if base in _SIMPLE
             else parse_quantity(text, base, key, line))
    values = value if isinstance(value, tuple) else (value,)
    if count is not None and len(values) != count:
        raise ConfigError(f"key '{key}' needs {count} value(s), "
                          f"got {len(values)}", line)
    if op and not all(v > bound if op == ">" else v >= bound for v in values):
        raise ConfigError(f"key '{key}' must be {op} {bound:g}, got '{text}'",
                          line)
    return value


_C1 = 1.0 / math.sqrt(2.0)   # default first amplitude of a two-band state

# section -> key -> (type, required, default).  A type may carry a lower
# bound ('int>=1', 'energy>0') and a list type a value count ('ints:2').
# ``required`` is True, False, or a condition 'section.key=a|b' on a
# choice key of the same kind.  Sections marked with a trailing '*' may
# repeat.
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
            "mode": ("choice:exact|approx", False, "exact"),
        },
    },
    "sg": {
        "sg": {
            "mode": ("choice:decoupled|coupled-check|bands", True, None),
            "mass": ("mass>0", True, None),
            "b0": ("gradient", True, None),
            "width": ("length", "sg.mode=decoupled|coupled-check", None),
            "duration": ("time", "sg.mode=decoupled|coupled-check", None),
            "c_up": ("float", False, _C1),
            "c_down": ("float", False, None),
            "bias_ratios": ("floats", "sg.mode=coupled-check", None),
            "j": ("spin", "sg.mode=bands", None),
            "theta": ("angle", "sg.mode=bands", None),
            "region_length": ("length>0", "sg.mode=bands", None),
            "speed": ("speed>0", "sg.mode=bands", None),
            "drift_time": ("time", False, 0.0),
        },
        "grid": {
            "points": ("ints", False, (256, 256)),
            "extent": ("length", False, 1e-6),
        },
    },
    "tunnel": {
        "tunnel": {
            "mode": ("choice:sweep|pure|decohered", True, None),
            "mass": ("mass>0", True, None),
        },
        "barrier": {
            "shape": ("choice:rectangular|gaussian", True, None),
            "height": ("energy", True, None),
            "width": ("length", "barrier.shape=rectangular", None),
            "sigma": ("length", "barrier.shape=gaussian", None),
        },
        "sweep": {
            "energy_min": ("energy", "tunnel.mode=sweep", None),
            "energy_max": ("energy", "tunnel.mode=sweep", None),
            "count": ("int>=1", False, 33),
        },
        "beam": {
            "energy": ("energy>0", "tunnel.mode=pure|decohered", None),
            "width": ("length", "tunnel.mode=pure|decohered", None),
            "start": ("length", False, None),
            "transverse_width": ("length", "tunnel.mode=pure|decohered", None),
            "separation": ("length", "tunnel.mode=pure|decohered", None),
            "c1": ("float", False, _C1),
            "c2": ("float", False, None),
        },
        "grid": {
            "points": ("ints:2", False, (2048, 64)),
        },
        "environment": {
            "wavelength": ("length", "tunnel.mode=decohered", None),
            "rate": ("rate", "tunnel.mode=decohered", None),
        },
    },
    "talbot": {
        "talbot": {
            "mode": ("choice:carpet|lau", True, None),
            "wavelength": ("length>0", True, None),
        },
        "grating": {
            "period": ("length>0", True, None),
            "open_fraction": ("float", False, 0.3),
            "slits": ("int>=2", False, 64),
        },
        "carpet": {
            "z_max_talbot": ("float>0", False, 2.2),
            "z_steps": ("int>=1", False, 200),
        },
        "lau": {
            "L1_talbot": ("float>0", False, 1.0),
            "L2_talbot": ("float>0", False, 1.0),
            "source_slits": ("int>=2", False, 16),
            "source_open_fraction": ("float", False, 0.3),
            "scan_open_fraction": ("float", False, 0.3),
            "offsets": ("int>=1", False, 81),
        },
    },
    "decohere": {
        "decohere": {
            "mass": ("mass", True, None),
            "width": ("length", True, None),
            "separation": ("length", True, None),
            "momentum": ("momentum", False, 0.0),
            "c1": ("float", False, _C1),
            "c2": ("float", False, None),
            "duration_rate": ("float>0", False, 5.0),
            "steps": ("int>=1", False, 200),
        },
        "environment": {
            "wavelength": ("length", True, None),
            "rate": ("rate", True, None),
        },
        "grid": {
            "points": ("ints:1", False, (512,)),
            "extent": ("length", True, None),
        },
        "timescales": {
            "transit_length": ("length", False, None),
            "transit_speed": ("speed", False, None),
            "tau_diss": ("time>0", False, math.inf),
        },
    },
}

SCENARIO = {                # the header section of every file
    "kind": ("choice:" + "|".join(KINDS), True, None),
    "out": ("str", False, None),
}


@dataclass
class ScenarioConfig:
    kind: str
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
    _, head, head_line = sections[0]
    header = _validate_section("scenario", SCENARIO, head, head_line)
    _check_required("scenario", SCENARIO, header, head_line, {})
    kind = header["kind"]

    specs = {name.rstrip("*"): spec for name, spec in SCHEMAS[kind].items()}
    params = {name[:-1]: [] for name in SCHEMAS[kind] if name.endswith("*")}
    checked = []            # (name, values, line) in file order
    for name, body, line in sections[1:]:
        if name not in specs:
            raise ConfigError(f"unknown section [{name}] for kind '{kind}'", line)
        values = _validate_section(name, specs[name], body, line)
        if isinstance(params.get(name), list):
            params[name].append(values)
        elif name in params:
            raise ConfigError(f"section [{name}] may not repeat", line)
        else:
            params[name] = values
        checked.append((name, values, line))
    for name, spec in specs.items():
        if params.get(name) == []:
            raise ConfigError(f"kind '{kind}' needs at least one [{name}] section")
        if name not in params:
            params[name] = _validate_section(name, spec, {}, None)
            checked.append((name, params[name], None))
    for name, values, line in checked:
        _check_required(name, specs[name], values, line, params)

    cfg = ScenarioConfig(kind, header["out"], params)
    cfg.canonical = serialize_config(cfg)
    return cfg


def _validate_section(name, spec, body, line):
    """The values of one section: unknown keys, types, bounds and counts
    are checked here, and absent keys take their defaults.  Required keys
    are checked by :func:`_check_required` once every value has parsed."""
    unknown = sorted(body.keys() - spec.keys())
    if unknown:
        raise ConfigError(f"[{name}] unknown keys {unknown}", body[unknown[0]][1])
    return {key: (_parse_value(vtype, body[key][0], key, body[key][1])
                  if key in body else default)
            for key, (vtype, _, default) in spec.items()}


def _check_required(name, spec, values, line, params):
    """Raise for required keys left unset; a condition reads ``params``."""
    missing = [key for key, (_, required, _) in spec.items()
               if values[key] is None and _applies(required, params)]
    if missing:
        raise ConfigError(f"[{name}] missing keys {missing}", line)


def _applies(required, params):
    """A requirement: True, False or a condition 'section.key=a|b'."""
    if isinstance(required, bool):
        return required
    target, _, choices = required.partition("=")
    section, _, key = target.partition(".")
    return params[section][key] in choices.split("|")


def _format_value(v):
    if isinstance(v, str):
        return v
    if isinstance(v, int):
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
    lines = ["[scenario]", f"kind = {cfg.kind}"]
    if cfg.out:
        lines.append(f"out = {cfg.out}")
    schema = SCHEMAS[cfg.kind]

    def emit(name, spec, values):
        lines.append(f"[{name}]")
        for key in spec:
            v = values.get(key)
            if v is None:
                continue
            dim = spec[key][0].partition(":")[0].partition(">")[0]
            unit = SI_UNITS.get(dim)
            if unit is None:
                lines.append(f"{key} = {_format_value(v)}")
            elif not math.isinf(v):
                lines.append(f"{key} = {v!r} {unit}")

    for name in sorted(schema):
        base = name[:-1] if name.endswith("*") else name
        if name.endswith("*"):
            for values in cfg.params.get(base, []):
                emit(base, schema[name], values)
        else:
            emit(base, schema[name], cfg.params.get(base, {}))
    return "\n".join(lines) + "\n"
