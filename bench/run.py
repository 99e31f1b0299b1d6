"""Benchmark of qratio's bundled presets.

Run from the root of a qratio source tree:

    python3 bench/run.py --workload tunnel-pure --seed 1 --seconds 15 --trace 0

One caller runs each workload's presets back to back through
``qratio.runner.run`` on parsed configs (closed loop, ``threads=1``), in
whole rounds: at least two, and another only while it is expected to end
within ``--seconds``.  Every output is checked (see checks.py) and every
data file's SHA-256 must repeat across the rounds of the run.  The last
line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` count ``runner.run`` calls, and ``metrics`` holds the
end-to-end figures (``--trace 0``) or the per-layer figures of one extra,
traced round (``--trace 1``).  See README.md.
"""

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent

PRESET_BATCH = [
    "sg-split", "tunnel-decohered", "carpet-100nm", "tunnel-sweep-rect",
    "spin-large-2e5", "lau-resonant", "Ag", "Na", "C70-cold", "C70-hot",
    "table1", "spin-13half-pi2", "spin-13half-pi4", "sg-bands-13half",
]

WORKLOADS = {
    "tunnel-pure": ["tunnel-pure"],
    "decohere-split": ["decohere-split"],
    "sg-coupled": ["sg-coupled-check"],
    "preset-batch": PRESET_BATCH,
}

MIN_ROUNDS = 2          # the digest check needs a second execution
IMPORT_REPEATS = 3

# fresh-interpreter set-up: import qratio, parse and validate the configs
SETUP_CODE = """\
import os, sys
sys.path.insert(0, sys.argv[1])
import qratio.cli
from qratio.config import parse_config
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        parse_config(fh.read())
os._exit(0)
"""

IMPORT_LINES = {"qratio.cli": "import_s",
                "qratio.spin": "import.qratio.spin_s",
                "qratio.tunneling": "import.qratio.tunneling_s"}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def spawn_setup(root, paths, importtime=False):
    """Wall time of one fresh interpreter's set-up, and its stderr."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += ["-c", SETUP_CODE, str(root / "src")] + [str(p) for p in paths]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"set-up interpreter failed:\n{proc.stderr[-2000:]}")
    return wall, proc.stderr


def import_times(stderr):
    """Cumulative import seconds of the lines in IMPORT_LINES."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line.split("|")
        key = IMPORT_LINES.get(name.strip())
        if key is not None:
            out[key] = int(cumulative) * 1e-6
    return out


class Workload:
    def __init__(self, root, name, seed):
        import qratio.config
        import qratio.runner
        self.config, self.runner = qratio.config, qratio.runner
        self.presets = WORKLOADS[name]
        self.paths = [root / "src" / "qratio" / "presets" / f"{p}.cfg"
                      for p in self.presets]
        self.texts = {p: path.read_text(encoding="utf-8")
                      for p, path in zip(self.presets, self.paths)}
        self.outroot = root / ".bench_runs" / name
        shutil.rmtree(self.outroot, ignore_errors=True)
        # the seed only orders the presets of a multi-preset pass
        self.rng = random.Random(seed)
        self.digests = {}
        self.attempted = self.failed = 0

    def execute(self):
        """One pass over the presets; returns [(preset, outdir, error)]
        and the seconds spent inside runner.run."""
        order = list(self.presets)
        self.rng.shuffle(order)
        done, run_s = [], 0.0
        for preset in order:
            outdir = self.outroot / preset
            shutil.rmtree(outdir, ignore_errors=True)
            try:
                cfg = self.config.parse_config(self.texts[preset])
                t0 = time.perf_counter()
                manifest = self.runner.run(cfg, str(outdir))
                run_s += time.perf_counter() - t0
                done.append((preset, outdir, manifest, None))
            except Exception:                 # counted, reported, run goes on
                done.append((preset, outdir, None, traceback.format_exc()))
        return done, run_s

    def verify(self, done):
        """Check each call's outputs; count attempts and failures."""
        for preset, outdir, _, error in done:
            self.attempted += 1
            if error is None:
                try:
                    out = checks.Outputs.read(outdir)
                except (OSError, KeyError, ValueError) as exc:
                    fails = [f"unreadable output: {exc!r}"]
                else:
                    fails = checks.check(preset, out, self.digests.get(preset))
                    self.digests.setdefault(preset, out.digests())
            else:
                fails = [error]
            if fails:
                self.failed += 1
                print(f"bench: {preset}: " + "; ".join(fails), file=sys.stderr)


def measure(work, seconds, between=None):
    """Untraced rounds; returns each round's runner.run seconds and what
    ``between`` returned when called before, between and after them."""
    run_s, walls = [], []
    extra = [between()] if between else []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        done, spent = work.execute()
        work.verify(done)
        run_s.append(spent)
        if between:
            extra.append(between())
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(run_s) >= MIN_ROUNDS and elapsed + statistics.median(walls) > seconds:
            return run_s, extra


def traced_round(work):
    """One round under the tracer; returns its metrics and its spans."""
    tracing = tracer.Tracer().install()
    try:
        done, _ = tracing.wrap(work.execute, "bench.round")()
    finally:
        tracing.uninstall()
    work.verify(done)
    m = tracer.layer_metrics(tracing)
    self_sum = sum(tracing.self_times())
    wall = m["bench.round_s"]
    if abs(self_sum - wall) > 1e-9 * wall:
        fail(f"span self times sum to {self_sum} s, traced wall is {wall} s")
    m["runner.self_s"] = m["runner.run_self_s"]
    m["runner.output_bytes"] = sum(e["bytes"] for _, _, manifest, _ in done
                                   if manifest is not None
                                   for e in manifest.outputs)
    m["trace.wall_s"], m["trace.self_sum_s"] = wall, self_sum
    return m, tracing.spans


def per_layer_units():
    """Name -> unit of every per-layer metric BENCHMARK.json declares."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "qratio" / "__init__.py").is_file():
        fail(f"no qratio source tree under {root}/src; run from the "
             "repository root")
    sys.path.insert(0, str(root / "src"))
    import qratio
    if root / "src" not in Path(qratio.__file__).resolve().parents:
        fail(f"imported qratio from {qratio.__file__}, not from {root}/src")

    work = Workload(root, args.workload, args.seed)
    if args.trace:
        imports = [import_times(spawn_setup(root, work.paths, True)[1])
                   for _ in range(IMPORT_REPEATS)]
        untraced = statistics.median(measure(work, args.seconds)[0])
        layers, spans = traced_round(work)
        for key in IMPORT_LINES.values():
            layers[key] = statistics.median(r[key] for r in imports)
        layers["trace.untraced_run_s"] = untraced
        layers["trace.run_s"] = layers["runner.run_s"]
        layers["trace.overhead_s"] = layers["runner.run_s"] - untraced
        tracedir = root / ".bench_trace"
        tracedir.mkdir(exist_ok=True)
        with open(tracedir / f"{args.workload}-seed{args.seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": spans, "metrics": layers}, fh)
        units = per_layer_units()
        metrics = {name: layers.get(name, 0) for name in units}
    else:
        # set-up is timed before, between and after the rounds, so that its
        # samples spread over the run like the rounds do
        run_s, setups = measure(
            work, args.seconds, lambda: spawn_setup(root, work.paths)[0])
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"run_s": statistics.median(run_s),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": rss_kb / 1024.0}
        units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    result = {"correct": work.failed == 0, "attempted": work.attempted,
              "failed": work.failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
