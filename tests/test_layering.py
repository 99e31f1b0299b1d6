"""The package's import graph is layered: every import sits at module level
and no chain of package-internal imports leads back to where it started.
Every function the package defines is used by the package, or kept for a
stated reason, and every name a source, test, demo or tool file imports is
read there."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qratio"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _imports(node):
    return [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]


def _internal_targets(imp):
    """Package modules named by one import statement."""
    if isinstance(imp, ast.Import):
        names = [a.name.split(".") for a in imp.names]
        return {parts[1] if len(parts) > 1 else "__init__"
                for parts in names if parts[0] == "qratio"}
    if imp.level == 0:
        if imp.module == "qratio":
            return {a.name if a.name in MODULES else "__init__" for a in imp.names}
        if imp.module and imp.module.startswith("qratio."):
            return {imp.module.split(".")[1]}
        return set()
    if imp.module:
        return {imp.module.split(".")[0]}
    return {a.name if a.name in MODULES else "__init__" for a in imp.names}


def _graph():
    return {name: sorted(set().union(*map(_internal_targets, _imports(tree))) - {name})
            for name, tree in MODULES.items()}


def test_sees_the_package():
    assert {"__init__", "grid", "runner", "cli"} <= MODULES.keys()
    graph = _graph()
    assert "grid" in graph["stern_gerlach"] and "__init__" in graph["runner"]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_function_local_imports(name):
    local = sorted({imp.lineno for fn in ast.walk(MODULES[name])
                    if isinstance(fn, FUNCTIONS) for imp in _imports(fn)})
    assert not local, f"{name}.py imports inside functions at lines {local}"


def test_internal_imports_are_acyclic():
    graph = _graph()
    state = {}          # name -> "open" while on the DFS stack, "done" after

    def visit(name, path):
        state[name] = "open"
        for dep in graph.get(name, []):
            if state.get(dep) == "open":
                cycle = path[path.index(dep):] + [dep]
                pytest.fail("import cycle: " + " -> ".join(cycle))
            if dep not in state:
                visit(dep, path + [dep])
        state[name] = "done"

    for name in graph:
        if name not in state:
            visit(name, [name])


@pytest.mark.parametrize("name", ["stern_gerlach", "decoherence", "tunneling"])
def test_only_grid_steps(name):
    # every transform of a step runs in grid: the fourier_multiply of
    # propagate and of the Chebyshev expansion, or the density matrix's
    # liouville_step
    uses = sorted({n.lineno for n in ast.walk(MODULES[name])
                   if isinstance(n, ast.Name) and n.id == "_fft"})
    assert not uses, f"{name}.py uses _fft at lines {uses}"


def test_one_density_matrix_loop():
    # every density-matrix step runs in decoherence.propagate_density, as
    # the one packed step of grid
    calls = sorted(n.lineno for n in ast.walk(MODULES["decoherence"])
                   if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == "liouville_step")
    assert len(calls) == 1, f"decoherence.py calls liouville_step at lines {calls}"


def _parameters(module, function):
    fn, = (fn for fn in ast.walk(MODULES[module])
           if isinstance(fn, ast.FunctionDef) and fn.name == function)
    return [a.arg for a in fn.args.posonlyargs + fn.args.args
            + fn.args.kwonlyargs]


def test_density_matrices_fly_freely():
    # a density matrix only ever flies freely: no potential, no kick, and
    # no kicked Strang step beside fourier_multiply, which steps the wave
    # functions' kinetic part
    assert _parameters("decoherence", "propagate_density") == [
        "rho", "env", "dt", "steps", "observe"]
    assert _parameters("grid", "liouville_step") == ["r", "kin"]
    named = sorted(path.name for path in PACKAGE.glob("*.py")
                   if "strang_step" in path.read_text(encoding="utf-8"))
    assert not named, f"strang_step is named in {named}"


def test_one_chebyshev_loop():
    # every Chebyshev expansion runs in grid.chebyshev_propagate: it alone
    # calls chebyshev_coefficients, and no other module reads the Bessel
    # function J_k that the recurrence's coefficients are made of
    outside = sorted(name for name, tree in MODULES.items() if name != "grid"
                     and {"chebyshev_coefficients", "bessel_j"} & set(_names(tree)))
    assert not outside, f"Chebyshev coefficients read in {outside}"
    callers = [fn.name for fn in ast.walk(MODULES["grid"])
               if isinstance(fn, ast.FunctionDef)
               for n in ast.walk(fn) if isinstance(n, ast.Call)
               and isinstance(n.func, ast.Name)
               and n.func.id == "chebyshev_coefficients"]
    assert callers == ["chebyshev_propagate"], callers


def test_no_thread_count_parameters():
    # every transform runs on numpy.fft, which has one thread
    params = sorted(f"{name}.py:{fn.lineno}"
                    for name, tree in MODULES.items() for fn in ast.walk(tree)
                    if isinstance(fn, FUNCTIONS)
                    for a in ast.walk(fn.args) if isinstance(a, ast.arg)
                    and a.arg in ("workers", "threads"))
    assert not params, f"thread-count parameters at {params}"
    passing = sorted(f"{name}.py:{call.lineno}"
                     for name, tree in MODULES.items() for call in ast.walk(tree)
                     if isinstance(call, ast.Call)
                     and any(k.arg == "workers" for k in call.keywords))
    assert not passing, f"workers= passed at {passing}"


def test_cli_imports_no_scipy():
    # qratio runs on numpy alone; a fresh interpreter, since this session's
    # own imports (scipy is a test oracle) would hide a regression
    code = ("import sys, qratio.cli; print(sorted(m for m in sys.modules if "
            "m == 'scipy' or m.startswith('scipy.')))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.stdout.strip() == "[]"


# functions no other package code names, each with the reason it stays
# (besides qratio.__all__ and the dunder methods Python calls)
KEPT = {
    "grid.read_field_array": "oracle: the reader of the documented array format",
    "tunneling.rectangular_transmission": "oracle: the closed-form barrier",
    "decoherence._apply_unitary": "bench/tracer.py traces it by name",
    "decoherence.decohere_step": "bench/tracer.py traces it by name",
    "grid.ehrenfest_residual": "gauge: the Ehrenfest defect of a trace",
    "decoherence.smallest_eigenvalue": "gauge: the positivity of a density matrix",
    "cli.error": "hook: argparse calls it on a usage error",
}


def _names(node):
    """Every name read under ``node``: bare names and attribute names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _public_api():
    for node in MODULES["__init__"].body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    pytest.fail("qratio/__init__.py defines no __all__")


def test_every_function_is_used_or_kept():
    refs = Counter(n for tree in MODULES.values() for n in _names(tree))
    api = _public_api()
    defined, unused = set(), []
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            key = f"{name}.{fn.name}"
            defined.add(key)
            # a name read only inside its own body, as by recursion, is unused
            used = refs[fn.name] > Counter(_names(fn))[fn.name]
            dunder = fn.name.startswith("__") and fn.name.endswith("__")
            if not (used or dunder or fn.name in api or key in KEPT):
                unused.append(f"{name}.py:{fn.lineno} {fn.name}")
    assert not unused, f"functions no package code uses: {unused}"
    assert set(KEPT) <= defined, f"kept but gone: {sorted(set(KEPT) - defined)}"


# parameters with a default that no package call passes, each with the
# reason it stays
UNPASSED = {
    "cli.main.argv": "hook: the console script calls main() with none",
    "tunneling.exact_transmission.slices": "oracle: its resolution, which "
                                           "tests vary",
    "spin.SpinCoherentState.from_j.phi": "public API: the azimuth that "
                                         "coefficient reads",
}


def _defaulted():
    """``(key, called as, parameters, defaulted)`` of every function and
    method: the parameters a call fills, so without a method's self or
    cls, and those with a default.  A class's ``__init__`` is called as
    the class."""
    for module, tree in MODULES.items():
        owner = {id(fn): cls for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args]
            cls = owner.get(id(fn))
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in fn.decorator_list)
            if cls is not None and not static:
                params = params[1:]
            defaulted = params[len(params) - len(args.defaults):] if \
                args.defaults else []
            defaulted += [a.arg for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults) if d]
            params += [a.arg for a in args.kwonlyargs]
            key = f"{module}.{cls.name + '.' if cls else ''}{fn.name}"
            called = cls.name if cls and fn.name == "__init__" else fn.name
            yield key, called, params, defaulted


def _calls():
    """name -> ``(positional count, keywords, unpacks)`` of every package
    call by that bare or attribute name."""
    calls = {}
    for tree in MODULES.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            unpacks = (any(isinstance(a, ast.Starred) for a in call.args)
                       or any(k.arg is None for k in call.keywords))
            calls.setdefault(name, []).append(
                (len(call.args), {k.arg for k in call.keywords}, unpacks))
    return calls


def test_every_default_is_passed_or_kept():
    # a default no package call overrides restates a value in a second
    # place, or keeps a knob nothing turns
    calls = _calls()
    unpassed = []
    for key, called, params, defaulted in _defaulted():
        for name in defaulted:
            i = params.index(name)
            if not any(unpacks or count > i or name in keywords
                       for count, keywords, unpacks in calls.get(called, [])):
                unpassed.append(f"{key}.{name}")
    extra = sorted(set(unpassed) - UNPASSED.keys())
    assert not extra, f"defaults no package call passes: {extra}"
    gone = sorted(UNPASSED.keys() - set(unpassed))
    assert not gone, f"kept but passed or gone: {gone}"


ROOT = PACKAGE.parents[1]
# imports no code of their file reads, each with the reason it stays
UNREAD_IMPORTS = {
    "src/qratio/decoherence.py:_fft": "bench/tracer.py proxies it",
    "src/qratio/stern_gerlach.py:_fft": "bench/tracer.py proxies it",
}


def _unread_imports(path):
    """``file:name`` of each name ``path`` imports and never reads; a name
    listed in the file's ``__all__`` is read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    rel = path.relative_to(ROOT).as_posix()
    return [f"{rel}:{name}" for imp in _imports(tree)
            if not (isinstance(imp, ast.ImportFrom) and imp.module == "__future__")
            for alias in imp.names
            for name in [alias.asname or alias.name.split(".")[0]]
            if name != "*" and name not in read]


def test_every_import_is_read_or_kept():
    files = sorted(p for d in ("src", "tests", "demos", "tools")
                   for p in (ROOT / d).rglob("*.py"))
    assert PACKAGE / "grid.py" in files and Path(__file__).resolve() in files
    unread = [key for path in files for key in _unread_imports(path)]
    extra = sorted(set(unread) - UNREAD_IMPORTS.keys())
    assert not extra, f"imports their file never reads: {extra}"
    gone = sorted(UNREAD_IMPORTS.keys() - set(unread))
    assert not gone, f"kept but read or gone: {gone}"
