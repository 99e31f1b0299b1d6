"""Command-line interface.

Subcommands mirror the scenario kinds:

    qratio ratio --preset Ag
    qratio diffuse --preset table1
    qratio spin-dist --j 13/2 --theta pi/4
    qratio sg --preset sg-split
    qratio tunnel --barrier rect:2eV:0.5nm --energy-sweep 0.5eV:1.9eV:29
    qratio talbot --preset carpet-100nm
    qratio decohere --preset decohere-split

Each run takes --config FILE, --preset NAME (searched in
$QRATIO_PRESET_PATH, then the bundled presets) or inline flags: ratio
--Rq/--L0, spin-dist --j/--theta [--approx] and tunnel
--barrier/--energy-sweep [--mass].  It writes its outputs under --out
(default runs/<preset-or-config-name>), and exits nonzero with an error
JSON on stderr if anything fails.
"""

import argparse
import json
import os
import sys
from importlib import resources

from . import __version__
from .config import parse_config
from .constants import ELECTRON_MASS
from .errors import ConfigError, QRatioError
from .runner import run
from .units import parse_quantity

PRESET_ENV = "QRATIO_PRESET_PATH"


def _preset_text(name):
    for directory in os.environ.get(PRESET_ENV, "").split(os.pathsep):
        if not directory:
            continue
        path = os.path.join(directory, name + ".cfg")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read()
    ref = resources.files("qratio").joinpath(f"presets/{name}.cfg")
    if ref.is_file():
        return ref.read_text()
    raise ConfigError(f"unknown preset {name!r}; bundled presets: "
                      f"{', '.join(preset_names())}")


def preset_names():
    return sorted(p.name[:-4] for p in resources.files("qratio")
                  .joinpath("presets").iterdir() if p.name.endswith(".cfg"))


def _inline_config(args):
    """Build config text from direct flags (spin-dist and tunnel sweeps)."""
    if args.command == "spin-dist" and args.j is not None and args.theta is not None:
        lines = ["[scenario]", "kind = spin-dist", "[spin]",
                 f"j = {args.j}", f"theta = {args.theta}"]
        if args.approx:
            lines.append("mode = approx")
        return "\n".join(lines) + "\n"
    if args.command == "tunnel" and args.barrier:
        shape, height, width = _parse_barrier(args.barrier)
        if not args.energy_sweep:
            raise ConfigError("inline tunnel runs need --energy-sweep lo:hi:n")
        lo, hi, n = _parse_sweep(args.energy_sweep)
        mass_val = (parse_quantity(args.mass, "mass", "--mass")
                    if args.mass else ELECTRON_MASS)
        lines = ["[scenario]", "kind = tunnel", "[tunnel]", "mode = sweep",
                 f"mass = {mass_val!r} kg", "[barrier]", f"shape = {shape}",
                 f"height = {height!r} J"]
        if shape == "rectangular":
            lines.append(f"width = {width!r} m")
        else:
            lines.append(f"sigma = {width!r} m")
        lines += ["[sweep]", f"energy_min = {lo!r} J", f"energy_max = {hi!r} J",
                  f"count = {n}"]
        return "\n".join(lines) + "\n"
    return None


def _parse_barrier(text):
    parts = text.split(":")
    if len(parts) != 3 or parts[0] not in ("rect", "gauss"):
        raise ConfigError("barrier spec must be rect:<height>:<full width> "
                          "or gauss:<height>:<sigma>, e.g. rect:2eV:0.5nm")
    height = parse_quantity(_spaced(parts[1]), "energy", "barrier height")
    width = parse_quantity(_spaced(parts[2]), "length", "barrier width")
    return ("rectangular" if parts[0] == "rect" else "gaussian", height, width)


def _spaced(token):
    """'2eV' -> '2 eV' for the unit parser."""
    for i, ch in enumerate(token):
        if ch.isalpha() and not (ch in "eE" and i and token[i - 1].isdigit()
                                 and i + 1 < len(token)
                                 and (token[i + 1].isdigit() or token[i + 1] in "+-")):
            return token[:i] + " " + token[i:]
    return token


def _parse_sweep(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("energy sweep must be lo:hi:n, e.g. 0.5eV:1.9eV:29")
    lo = parse_quantity(_spaced(parts[0]), "energy", "sweep lo")
    hi = parse_quantity(_spaced(parts[1]), "energy", "sweep hi")
    try:
        n = int(parts[2])
    except ValueError:
        raise ConfigError(f"sweep count must be an integer, got {parts[2]!r}") from None
    return lo, hi, n


class _Parser(argparse.ArgumentParser):
    """Usage errors raise :class:`ConfigError`, so that they too end in the
    JSON diagnostic; the subcommand parsers share the class."""

    def error(self, message):
        raise ConfigError(f"{message} (see {self.prog} --help)")


def build_parser():
    parser = _Parser(
        prog="qratio",
        description="Quantum-ratio toolkit: wave packets, spin coherent "
                    "states, Stern-Gerlach, tunneling, Talbot-Lau, decoherence")
    parser.add_argument("--version", action="version",
                        version="%(prog)s " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, blurb in [
            ("ratio", "quantum ratio Q = R_q/L_0 of a catalog experiment"),
            ("diffuse", "free wave-packet doubling times"),
            ("spin-dist", "spin-coherent-state J_z distribution"),
            ("sg", "Stern-Gerlach spinor dynamics and band histograms"),
            ("tunnel", "barrier transmission and split-beam scenarios"),
            ("talbot", "Talbot carpets and Talbot-Lau scans"),
            ("decohere", "density-matrix localization"),
    ]:
        p = sub.add_parser(kind, help=blurb)
        p.add_argument("--config", help="scenario config file")
        p.add_argument("--preset", help="bundled or $%s preset name" % PRESET_ENV)
        p.add_argument("--out", help="output directory")
        if kind == "ratio":
            p.add_argument("--Rq", help="quantum range, e.g. '0.2 mm'")
            p.add_argument("--L0", help="body size, e.g. '1.44 angstrom'")
        if kind == "spin-dist":
            p.add_argument("--j", help="spin, e.g. 13/2")
            p.add_argument("--theta", help="polar angle, e.g. pi/4")
            p.add_argument("--approx", action="store_true",
                           help="use the large-spin closed form")
        if kind == "tunnel":
            p.add_argument("--barrier",
                           help="inline barrier rect:<E>:<w> or gauss:<E>:<sigma>")
            p.add_argument("--energy-sweep", help="lo:hi:n, e.g. 0.5eV:1.9eV:29")
            p.add_argument("--mass", help="particle mass (default electron)")
    return parser


def _config_text(args):
    if args.command == "ratio" and args.Rq and args.L0:
        rq = parse_quantity(args.Rq, "length", "--Rq")
        l0 = parse_quantity(args.L0, "length", "--L0")
        return (f"[scenario]\nkind = ratio\n[ratio]\nRq = {rq!r} m\n"
                f"L0 = {l0!r} m\n"), "ratio-custom"
    inline = _inline_config(args)
    if inline is not None:
        return inline, f"{args.command}-inline"
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: "
                              f"{exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {args.config!r} is not UTF-8: "
                              f"{exc.reason} at byte {exc.start}") from None
        return text, os.path.splitext(os.path.basename(args.config))[0]
    if args.preset:
        return _preset_text(args.preset), args.preset
    raise ConfigError(f"'{args.command}' needs --config, --preset, or inline "
                      "flags (see --help)")


def main(argv=None):
    # the subcommand is set before its own arguments are parsed, so that a
    # usage error within them names its scenario
    args = argparse.Namespace(command=None)
    try:
        build_parser().parse_args(argv, args)
        text, label = _config_text(args)
        cfg = parse_config(text)
        if cfg.kind != args.command:
            raise ConfigError(f"config kind '{cfg.kind}' does not match "
                              f"subcommand '{args.command}'")
        outdir = args.out or cfg.out or os.path.join("runs", label)
        run(cfg, outdir)
    except QRatioError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc),
                   "scenario": args.command}, sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 2 if isinstance(exc, ConfigError) else 1
    with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    json.dump({"out": outdir, "summary": summary}, sys.stdout, indent=2,
              sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
