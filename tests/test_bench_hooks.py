"""Every span name the benchmark tracer reads names a function the tracer wraps.

``bench/tracer.py`` wraps fieldlab's functions by name and reads its
per-layer metrics back by span name, so a renamed function would leave a
metric reading zero with no error.  The tracer is loaded by file path and
its source is only read.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# read by the tracer but no fieldlab attribute: classical.splu times scipy's splu
# through the scipy module attribute, which classical no longer calls
STALE = {"classical.splu"}


def load_tracer(source: str):
    """The tracer module, compiled from its text so that no bytecode is written beside it."""
    module = types.ModuleType("bench_tracer")
    exec(compile(source, str(TRACER), "exec"), module.__dict__)
    return module


def literal_span_names(source: str) -> set[str]:
    """The string literals ``layer_metrics`` passes to t, n, own.get, work.get and
    _inside, and compares with ``name ==``."""
    func = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics")
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in ("t", "n", "_inside"):
                args = node.args
            elif (isinstance(f, ast.Attribute) and f.attr == "get"
                  and isinstance(f.value, ast.Name) and f.value.id in ("own", "work")):
                args = node.args[:1]
            else:
                continue
        elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
              and node.left.id == "name" and isinstance(node.ops[0], ast.Eq)):
            args = node.comparators
        else:
            continue
        names.update(arg.value for arg in args
                     if isinstance(arg, ast.Constant) and isinstance(arg.value, str))
    return names


def wrapped_function(name: str):
    """The function the tracer wraps under span ``name``, or None.

    The tracer wraps functions defined in a fieldlab module and the
    functions a class defines itself, so the lookup goes through ``vars``.
    """
    short, *path = name.split(".")
    owner = importlib.import_module(f"fieldlab.{short}")
    for attr in path:
        owner = getattr(owner, "__dict__", {}).get(attr)
    if not inspect.isfunction(owner):
        return None
    if len(path) == 1 and owner.__module__ != f"fieldlab.{short}":
        return None  # imported from elsewhere: the tracer wraps it under its own module
    return owner


def test_tracer_span_names_resolve():
    source = TRACER.read_text()
    names = set(load_tracer(source).MEASURES) | literal_span_names(source)
    assert {"lagrangian.parse_lagrangian", "lagrangian.legendre_transform",
            "operators.compile_hamiltonian", "classical.solve_extremal"} <= names
    assert STALE <= names
    unresolved = {name for name in names if wrapped_function(name) is None}
    assert unresolved == STALE
