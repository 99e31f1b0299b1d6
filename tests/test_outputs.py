"""The output writer: streamed payloads keep every byte of the one-shot
encoding, the manifest describes the files on disk, writing stays small,
and every preset's outputs match the committed ledger."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qratio import runner
from qratio.cli import _preset_text
from qratio.config import parse_config
from qratio.errors import DomainError
from qratio.grid import BLOCK_BYTES, field_array_bytes

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import preset_digests  # noqa: E402

LEDGER = Path(__file__).resolve().parent / "data" / "preset_digests.json"
# off the ledger's machine, each summary figure may move by this much of
# its scale: rounding differences of libm and FFT builds, grown over a run
RTOL = 1e-8


def _joined(chunks):
    # each chunk is copied before the next is taken
    return b"".join(map(bytes, chunks))


def _field_reference(data, spacings, origins):
    """The one-shot encoding the streamed writer replaced."""
    data = np.asarray(data).astype(complex)
    return b"".join([b"QRARRAY1",
                     np.asarray((data.ndim,) + data.shape, dtype="<u4").tobytes(),
                     np.asarray(spacings, dtype="<f8").tobytes(),
                     np.asarray(origins, dtype="<f8").tobytes(),
                     data.astype("<c16").tobytes()])


def _pgm_reference(image):
    """The one-shot PGM the streamed writer replaced."""
    arr = np.asarray(image, dtype=float)
    peak = arr.max()
    pix = np.zeros(arr.shape, dtype=np.uint8) if peak <= 0 else \
        np.round(255.0 * arr / peak).astype(np.uint8)
    head = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode()
    return head + pix.tobytes()


RNG = np.random.default_rng(5)
# 1000 columns make blocks of 65 complex or 131 real rows, which divide
# neither 300 rows nor 70,001 points
REAL_2D = RNG.random((300, 1000))
COMPLEX_2D = REAL_2D + 1j * RNG.standard_normal((300, 1000))


@pytest.mark.parametrize("data", [
    RNG.standard_normal(70_001),
    RNG.standard_normal(70_001) + 1j * RNG.standard_normal(70_001),
    REAL_2D,
    COMPLEX_2D,
    COMPLEX_2D.T,
    REAL_2D[::3, 7:],
    COMPLEX_2D[:, ::2],
    COMPLEX_2D.astype(np.complex64),
    COMPLEX_2D.astype(">c16"),
    np.zeros((0, 5)),
], ids=["real-1d", "complex-1d", "real-2d", "complex-2d", "transposed",
        "sliced-real", "sliced-complex", "complex64", "big-endian", "empty"])
def test_field_array_bytes_match_the_one_shot_encoding(data):
    spacings, origins = (0.5,) * data.ndim, (-1.0,) * data.ndim
    assert _joined(field_array_bytes(data, spacings, origins)) == \
        _field_reference(data, spacings, origins)


def test_widened_blocks_stay_within_the_block_size():
    chunks = field_array_bytes(REAL_2D, (1.0, 1.0), (0.0, 0.0))
    next(chunks)
    sizes = [memoryview(c).nbytes for c in chunks]
    assert sum(sizes) == 16 * REAL_2D.size
    assert max(sizes) <= BLOCK_BYTES and len(sizes) > 1


@pytest.mark.parametrize("image", [
    REAL_2D, REAL_2D.T, REAL_2D[::3, 7:], np.abs(COMPLEX_2D),
    np.zeros((300, 1000)), np.ones((1, 1)),
], ids=["random", "transposed", "sliced", "modulus", "all-zero", "one-pixel"])
def test_pgm_bytes_match_the_one_shot_encoding(image):
    assert _joined(runner._pgm_bytes(image)) == _pgm_reference(image)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e306])
def test_an_image_that_cannot_be_scaled_is_refused_before_writing(bad):
    # the one-shot encoding raised on each of these inside run's errstate;
    # 1e306 overflows 255 * value
    image = np.ones((4, 4))
    image[2, 1] = bad
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        with pytest.raises(FloatingPointError):
            _pgm_reference(image)
    with pytest.raises(DomainError, match="cannot scale"):
        runner._pgm_bytes(image)


def test_manifest_describes_the_files_on_disk(preset_runs):
    for preset, (outdir, manifest) in preset_runs.items():
        names = sorted(p.name for p in outdir.iterdir())
        assert names == sorted([e["name"] for e in manifest.outputs]
                               + ["manifest.json"]), preset
        on_disk = json.loads((outdir / "manifest.json").read_text())
        assert on_disk["outputs"] == manifest.outputs
        for entry in manifest.outputs:
            data = (outdir / entry["name"]).read_bytes()
            assert entry["bytes"] == len(data), (preset, entry["name"])
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()


def test_writing_a_carpet_allocates_little(tmp_path):
    # the 13.2 MB intensity is the largest array; the one-shot encoding
    # peaked at 88 MB
    cfg = parse_config(_preset_text("carpet-100nm"))
    tracemalloc.start()
    try:
        runner.run(cfg, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def _gaps(ledger, current, exact):
    """Where ``current`` departs from ``ledger``: in the digests if
    ``exact``, else in a count or beyond RTOL in a summary figure."""
    gaps = []
    if sorted(current) != sorted(ledger):
        gaps.append(f"presets {sorted(current)} != {sorted(ledger)}")
    for preset in sorted(set(current) & set(ledger)):
        got, want = current[preset], ledger[preset]
        if sorted(got) != sorted(want):
            gaps.append(f"{preset}: files {sorted(got)} != {sorted(want)}")
        for name in sorted(set(got) & set(want)):
            g, w = got[name], want[name]
            if exact:
                if g["sha256"] != w["sha256"]:
                    gaps.append(f"{preset}/{name}: sha256 differs")
                continue
            if g["count"] != w["count"]:
                gaps.append(f"{preset}/{name}: {g['count']} values, "
                            f"ledger {w['count']}")
                continue
            # a sum of signed values is judged against their magnitude
            scales = {"sum": (w["count"] * w["sum_sq"]) ** 0.5,
                      "sum_sq": w["sum_sq"], "max_abs": w["max_abs"]}
            for key, scale in scales.items():
                if not abs(g[key] - w[key]) <= RTOL * scale:
                    gaps.append(f"{preset}/{name}: {key} {g[key]!r}, "
                                f"ledger {w[key]!r}")
    return gaps


@pytest.fixture(scope="module")
def ledger_runs(preset_runs):
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    current = {preset: {e["name"]: preset_digests.file_entry(outdir / e["name"])
                        for e in manifest.outputs}
               for preset, (outdir, manifest) in preset_runs.items()}
    return ledger, current


def test_outputs_match_the_ledger(ledger_runs):
    ledger, current = ledger_runs
    same = ledger["fingerprint"] == preset_digests.fingerprint()
    gaps = _gaps(ledger["presets"], current, exact=same)
    assert not gaps, (f"{'byte' if same else 'summary'} gaps against "
                      f"{LEDGER.name}: {gaps}")


def test_outputs_match_the_ledger_summaries(ledger_runs):
    # the check made off the ledger's machine, made here too
    ledger, current = ledger_runs
    assert not _gaps(ledger["presets"], current, exact=False)


def test_ledger_gaps_are_found():
    entry = {"sha256": "0" * 64, "count": 4, "sum": 0.0, "sum_sq": 4.0,
             "max_abs": 1.0}
    ledger = {"p": {"a.csv": entry}}
    assert not _gaps(ledger, {"p": {"a.csv": dict(entry)}}, exact=True)
    moved = {"p": {"a.csv": dict(entry, sha256="1" * 64, sum=5e-8)}}
    assert _gaps(ledger, moved, exact=True) == ["p/a.csv: sha256 differs"]
    assert _gaps(ledger, moved, exact=False) == [
        "p/a.csv: sum 5e-08, ledger 0.0"]
    close = {"p": {"a.csv": dict(entry, sum=3e-8, max_abs=1.0 + 5e-9)}}
    assert not _gaps(ledger, close, exact=False)
    assert _gaps(ledger, {"p": {"a.csv": dict(entry, count=5)}}, exact=False)
    assert _gaps(ledger, {"p": {}, "q": {}}, exact=True) == [
        "presets ['p', 'q'] != ['p']", "p: files [] != ['a.csv']"]


@pytest.mark.parametrize("tree", ["missing", "presets-only"])
def test_ledger_refuses_a_root_that_is_not_a_qratio_tree(tmp_path, tree):
    # a ledger of no presets, or of the presets of one tree run by another
    # tree's qratio, would compare cmp-equal to the wrong thing
    root = tmp_path / "root"
    if tree == "presets-only":
        presets = root / "src" / "qratio" / "presets"
        presets.mkdir(parents=True)
        (presets / "Ag.cfg").write_text(_preset_text("Ag"), encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, preset_digests.__file__, str(root)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode != 0 and done.stdout == ""
    assert ("not a qratio tree" if tree == "missing" else
            f"not from {root / 'src'}") in done.stderr

