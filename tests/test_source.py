"""Checks of the package source as a whole."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "hangarplan"
PERFBENCH = Path(__file__).parent.parent / "perfbench"


def unread_parameters(source: str) -> list[str]:
    """``function.parameter`` for each parameter that its function never
    reads, ``self``, ``cls``, ``*args`` and ``**kwargs`` aside.  A read in a
    nested function or lambda counts."""
    unread = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = fn.args
            read = {node.id for node in ast.walk(fn)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{getattr(fn, 'name', 'lambda')}.{a.arg}"
                       for a in args.posonlyargs + args.args + args.kwonlyargs
                       if a.arg not in read and a.arg not in ("self", "cls")]
    return unread


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def test_finds_an_unread_parameter():
    source = "def f(a, b, *args, c, **kwargs):\n    return a + (lambda d: c)(0)\n"
    assert unread_parameters(source) == ["f.b", "lambda.d"]


def test_bench_traced_names_resolve(monkeypatch):
    # The benchmark's traced run installs its wrappers with getattr, so a
    # function renamed or deleted under src/ crashes that worker.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("workloads")._layers()
    assert layers
    for module, attr, name, _ in layers:
        fn = getattr(module, attr, None)
        assert callable(fn), name
        source = Path(inspect.getsourcefile(inspect.unwrap(fn))).resolve()
        assert source.is_relative_to(SRC.resolve()), name


#: The module-level functions that nothing under ``src/`` calls: the
#: benchmark's and the tests' own entry points.  A new function joins this
#: list only on purpose; otherwise it needs a caller.
UNCALLED = ["ach.resolve_roll_out", "milp.check_satisfaction", "milp.derive_binaries",
            "milp.objective_value"]


def uncalled_functions(sources: dict[str, str]) -> list[str]:
    """``module.function`` for each module-level function, click commands
    aside, whose name no ``Name`` or ``Attribute`` in ``sources`` loads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)

    def is_command(fn):
        return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                   and d.func.attr in ("command", "group") for d in fn.decorator_list)

    return sorted(f"{module}.{fn.name}" for module, tree in trees.items() for fn in tree.body
                  if isinstance(fn, ast.FunctionDef) and not is_command(fn)
                  and fn.name not in loaded)


def test_uncalled_functions_are_the_entry_points():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert uncalled_functions(sources) == UNCALLED


def test_finds_an_uncalled_function():
    sources = {"a": "import click\n@click.command()\ndef cmd():\n    pass\n"
                    "def f():\n    return g\ndef g():\n    pass\ndef h():\n    pass\n",
               "b": "import a\na.f()\n"}
    assert uncalled_functions(sources) == ["a.h"]


#: The README's chain of commands, run in one fresh process: none of them
#: loads numpy.  The point is the heuristic plan's.
NUMPY_FREE_CHAIN = """
import sys
from hangarplan import cli, io, milp

def hangarplan(*args):
    cli.main(list(args), standalone_mode=False)

hangarplan("gen", "--n", "4", "--n-current", "2", "--seed", "1", "-o", "inst.json")
hangarplan("solve-ach", "-i", "inst.json", "-o", "sol.json")
hangarplan("validate", "-i", "inst.json", "-s", "sol.json", "--json")
hangarplan("export-milp", "-i", "inst.json", "-o", "model.lp")
instance = io.load_instance("inst.json")
point = milp.derive_binaries(instance, io.load_solution("sol.json"), milp.build_model(instance))
with open("point.txt", "w", encoding="utf-8") as f:
    f.writelines(f"{k} {v!r}\\n" for k, v in point.items())
hangarplan("import", "-i", "inst.json", "-m", "model.lp", "-p", "point.txt", "-o", "imported.json")
hangarplan("render", "-i", "inst.json", "-s", "imported.json", "-o", "frames", "--html")
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy"))
"""

#: The array form's one caller in the package loads numpy when it runs.
NUMPY_ON_DEMAND = """
import sys
from hangarplan import ach, instgen, milp

instance = instgen.generate(instgen.GeneratorConfig(n_future=3, n_current=1, seed=2))
model = milp.build_model(instance)
point = milp.derive_binaries(instance, ach.solve(instance), model)
assert "numpy" not in sys.modules
assert milp.check_satisfaction(model, point) == []
assert "numpy" in sys.modules
"""


@pytest.mark.parametrize("script", [NUMPY_FREE_CHAIN, NUMPY_ON_DEMAND],
                         ids=["chain", "check_satisfaction"])
def test_numpy_loads_only_for_the_array_form(tmp_path, script):
    res = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                         capture_output=True, encoding="utf-8", timeout=120)
    assert res.returncode == 0, res.stderr
