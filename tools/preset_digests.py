"""SHA-256 of every data file of every bundled preset, as JSON.

    python3 tools/preset_digests.py [ROOT] > digests.json

Runs each bundled preset through ``qratio.runner.run`` into a temporary
directory, importing qratio from ``ROOT/src`` (default: the source tree
this script belongs to), and prints ``{preset: {file: sha256}}`` with the
digests of the run's manifest.  A refactor that must keep every output
byte is checked by running this on the trees before and after it and
comparing the two outputs.  Standard library only.
"""

import json
import sys
import tempfile
from pathlib import Path


def digests(root):
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    from qratio.config import parse_config
    from qratio.runner import run

    out = {}
    for path in sorted((src / "qratio" / "presets").glob("*.cfg")):
        with tempfile.TemporaryDirectory() as outdir:
            manifest = run(parse_config(path.read_text(encoding="utf-8")), outdir)
        out[path.stem] = {e["name"]: e["sha256"] for e in manifest.outputs}
    return out


if __name__ == "__main__":
    root = sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    json.dump(digests(root), sys.stdout, indent=1, sort_keys=True)
    print()
