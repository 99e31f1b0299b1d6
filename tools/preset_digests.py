"""The ledger of every data file of every bundled preset, as JSON.

    python3 tools/preset_digests.py [ROOT] > tests/data/preset_digests.json

Runs each bundled preset through ``qratio.runner.run`` into a temporary
directory, importing qratio from ``ROOT/src`` (default: the source tree
this script belongs to), and prints the :func:`fingerprint` of this
machine and, per data file, its SHA-256 and the numeric summary of
:func:`file_entry`.  ``tests/test_outputs.py`` checks every tree against
the committed ledger; a change that moves an output on purpose rewrites
it.  A refactor that must keep every output byte is also checked by
running this on the trees before and after it on one machine and
comparing the two outputs with ``cmp``.
"""

import hashlib
import json
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

# a decimal number as the text outputs write it (repr floats, ints, %.2f)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def fingerprint():
    """What the bytes of an output may depend on besides the source: the
    versions, the machine, the C library and the CPU features numpy's
    kernels dispatch on (its SIMD exp, sin and cos round differently)."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "system": platform.system(),
            "libc": " ".join(platform.libc_ver()),
            "cpu_features": sorted(k for k, on in __cpu_features__.items()
                                   if on)}


def _values(name, data):
    """The numbers one data file holds: the doubles of a ``*.bin`` payload,
    the pixels of a ``*.pgm`` image, every number written in a text file."""
    if name.endswith(".bin"):
        ndim = int(np.frombuffer(data, "<u4", 1, 8)[0])
        return np.frombuffer(data, "<f8", offset=12 + 20 * ndim)
    if name.endswith(".pgm"):
        return np.frombuffer(data.split(b"\n", 3)[3], np.uint8).astype(float)
    return np.array(NUMBER.findall(data.decode()), dtype=float)


def file_entry(path):
    """SHA-256, value count, sum, sum of squares and largest magnitude of
    one data file."""
    path = Path(path)
    data = path.read_bytes()
    values = _values(path.name, data)
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "count": int(values.size), "sum": float(values.sum()),
            "sum_sq": float(np.square(values).sum()),
            "max_abs": float(np.abs(values).max(initial=0.0))}


def run_presets(root, outroot):
    """Run every bundled preset of the tree at ``root`` into
    ``outroot/<preset>``; returns ``{preset: manifest}``.  Exits with a
    message unless ``root`` is a qratio tree with presets and qratio is
    imported from its ``src``: an empty ledger, or one of another tree,
    would compare equal to the wrong thing."""
    src = Path(root).resolve() / "src"
    presets = sorted((src / "qratio" / "presets").glob("*.cfg"))
    if not presets:
        sys.exit(f"{root}: not a qratio tree, no src/qratio/presets/*.cfg")
    sys.path.insert(0, str(src))
    import qratio
    from qratio.config import parse_config
    from qratio.runner import run

    if not Path(qratio.__file__).resolve().is_relative_to(src):
        sys.exit(f"qratio was imported from {qratio.__file__}, not from {src}")
    return {path.stem: run(parse_config(path.read_text(encoding="utf-8")),
                           str(Path(outroot) / path.stem))
            for path in presets}


def ledger(root):
    with tempfile.TemporaryDirectory() as outroot:
        manifests = run_presets(root, outroot)
        return {"fingerprint": fingerprint(),
                "presets": {preset: {e["name"]: file_entry(
                    Path(outroot) / preset / e["name"]) for e in m.outputs}
                    for preset, m in manifests.items()}}


if __name__ == "__main__":
    root = sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    json.dump(ledger(root), sys.stdout, indent=1, sort_keys=True)
    print()
