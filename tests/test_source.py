"""Checks of the package source as a whole."""

import ast
import importlib
import inspect
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
