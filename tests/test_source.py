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
