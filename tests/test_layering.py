"""The package's import graph is layered: every import sits at module level
and no chain of package-internal imports leads back to where it started."""

import ast
import os
import subprocess
import sys
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


@pytest.mark.parametrize("name", ["stern_gerlach", "decoherence"])
def test_only_grid_steps(name):
    # every split-operator step goes through grid.strang_step
    uses = sorted({n.lineno for n in ast.walk(MODULES[name])
                   if isinstance(n, ast.Name) and n.id == "_fft"})
    assert not uses, f"{name}.py uses _fft at lines {uses}"


def test_one_density_matrix_loop():
    # every density-matrix step runs in decoherence.propagate_density
    calls = sorted(n.lineno for n in ast.walk(MODULES["decoherence"])
                   if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == "strang_step")
    assert len(calls) == 1, f"decoherence.py calls strang_step at lines {calls}"


def test_cli_imports_no_scipy_integrate_or_optimize():
    # a fresh interpreter: this session's own imports would hide a regression
    code = ("import sys, qratio.cli; print(sorted(m for m in sys.modules if "
            "m.startswith(('scipy.integrate', 'scipy.optimize'))))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.stdout.strip() == "[]"
