import pytest

from qratio.cli import _preset_text, preset_names
from qratio.config import parse_config
from qratio.runner import run


@pytest.fixture(scope="session")
def preset_runs(tmp_path_factory):
    """Every bundled preset run once: ``{preset: (outdir, manifest)}``."""
    root = tmp_path_factory.mktemp("presets")
    return {name: (root / name, run(parse_config(_preset_text(name)),
                                    str(root / name)))
            for name in preset_names()}
