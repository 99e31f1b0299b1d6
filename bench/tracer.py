"""Outside-in tracing of qratio's layers.

:class:`Tracer` replaces public functions of the qratio modules with
wrappers that record a span (name, start, end, parent) per call, and
replaces each module's ``_fft`` reference and ``qratio.runner.hashlib``
with proxies whose transforms and digests are spans too.  A function that
another module imported by name is replaced in that module's namespace as
well, so the span is recorded whichever namespace the caller used.  No
library code changes; :meth:`Tracer.uninstall` restores every attribute.

Spans stay in memory; :func:`layer_metrics` turns them into the per-layer
figures once the traced round is over.
"""

import sys
import time
from collections import Counter

import numpy as np

# (module, attribute, span name); spans named here give <name>_s and
# <name>_calls figures
TRACED = [
    ("config", "parse_config", "config.parse"),
    ("runner", "run", "runner.run"),
    ("runner", "_csv_bytes", "runner.encode"),
    ("runner", "_json_bytes", "runner.encode"),
    ("runner", "_pgm_bytes", "runner.encode"),
    ("runner", "_svg_bands", "runner.encode"),
    ("grid", "field_array_bytes", "runner.encode"),
    ("grid", "propagate", "grid.propagate"),
    ("grid", "observables", "grid.observables"),
    ("grid", "initialize_gaussian", "grid.initialize_gaussian"),
    ("stern_gerlach", "propagate_coupled", "stern_gerlach.propagate_coupled"),
    ("stern_gerlach", "propagate_decoupled",
     "stern_gerlach.propagate_decoupled"),
    ("tunneling", "run_tunnel_scenario", "tunneling.run_tunnel_scenario"),
    ("tunneling", "exact_transmission", "tunneling.exact_transmission"),
    ("tunneling", "wkb_transmission", "tunneling.wkb_transmission"),
    ("decoherence", "decohered_sg_scenario",
     "decoherence.decohered_sg_scenario"),
    ("decoherence", "_apply_unitary", "decoherence.unitary"),
    ("decoherence", "decohere_step", "decoherence.decohere_step"),
    ("decoherence", "damping_kernel", "decoherence.damping_kernel"),
    ("decoherence", "coherence", "decoherence.coherence"),
    ("talbot", "propagate_carpet", "talbot.propagate_carpet"),
    ("talbot", "lau_scan", "talbot.lau_scan"),
    ("spin", "distribution", "spin.distribution"),
    ("spin", "approximate_distribution", "spin.approximate_distribution"),
]

FFT_MODULES = ("grid", "stern_gerlach", "decoherence", "talbot")
TRANSFORMS = frozenset({"fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
                        "rfft", "irfft", "rfftn", "irfftn"})


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_propagate(args, kwargs, parent):
    counts = {"grid.steps": _arg(args, kwargs, 3, "steps")}
    if (parent == "tunneling.run_tunnel_scenario"
            and type(args[1]).__name__ != "FreePotential"):
        counts["tunneling.chunks"] = 1       # one convergence-loop iteration
    return counts


COUNTERS = {
    "grid.propagate": _count_propagate,
    "stern_gerlach.propagate_coupled": lambda a, k, p: {
        "stern_gerlach.coupled_steps": _arg(a, k, 3, "steps")},
    "tunneling.exact_transmission": lambda a, k, p: {
        "tunneling.transmission_energies": int(np.size(_arg(a, k, 1, "energy")))},
}


class _Proxy:
    """Stands in for a module; the listed callables are traced."""

    def __init__(self, tracer, real, traced, name, count=None):
        self._tracer, self._real = tracer, real
        self._traced, self._name, self._count = traced, name, count

    def __getattr__(self, attr):
        value = getattr(self._real, attr)
        if attr in self._traced:
            value = self._tracer.wrap(value, self._name, self._count)
        setattr(self, attr, value)
        return value


def _count_points(name):
    key = name + "_points"
    return lambda args, kwargs, parent: {key: int(np.size(args[0]))}


class Tracer:
    """Span recorder over the qratio modules."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def wrap(self, fn, name, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if count is not None:
                counts.update(count(args, kwargs,
                                    spans[parent][0] if parent >= 0 else None))
            span = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _set(self, mod, attr, value):
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def _replace(self, original, replacement):
        """Replace ``original`` in every qratio namespace that holds it."""
        for mod in [m for n, m in sys.modules.items()
                    if n == "qratio" or n.startswith("qratio.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self):
        import qratio.runner          # loads every traced module
        for module, attr, name in TRACED:
            original = getattr(sys.modules[f"qratio.{module}"], attr)
            self._replace(original, self.wrap(original, name,
                                              COUNTERS.get(name)))
        for module in FFT_MODULES:
            mod = sys.modules[f"qratio.{module}"]
            name = f"{module}.fft"
            self._set(mod, "_fft", _Proxy(self, mod._fft, TRANSFORMS, name,
                                          _count_points(name)))
        self._set(qratio.runner, "hashlib",
                  _Proxy(self, qratio.runner.hashlib, {"sha256"},
                         "runner.hash"))
        return self

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def layer_metrics(tracer):
    """Per-layer totals of one traced round: ``<span>_s`` and
    ``<span>_calls`` for every span name, ``<span>_self_s`` for its self
    time, plus the counters the wrappers kept."""
    own = tracer.self_times()
    out = Counter()
    for (name, start, end, _), self_s in zip(tracer.spans, own):
        out[name + "_s"] += end - start
        out[name + "_self_s"] += self_s
        out[name + "_calls"] += 1
    out.update(tracer.counts)
    return out
