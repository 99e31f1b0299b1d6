"""Every script in demos/ runs to its end in a fresh interpreter, from a
temporary working directory, and writes nothing into the repository."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _files(root):
    """Every file under ``root`` but .git, with its size and mtime."""
    found = {}
    for top, dirs, names in os.walk(root):
        dirs[:] = [d for d in dirs if d != ".git"]
        for name in names:
            st = os.stat(os.path.join(top, name))
            found[os.path.join(top, name)] = (st.st_size, st.st_mtime_ns)
    return found


def test_the_demos_are_found():
    # an empty glob would leave the runs below with nothing to check
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_and_writes_nothing_into_the_repository(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    # the interpreter's own bytecode cache is not the script's output
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    before = _files(ROOT)
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert _files(ROOT) == before
