"""The benchmark's tracer wraps package functions by name: every name it
lists must resolve, or only a traced benchmark run would notice."""

import ast
import functools
import importlib
import os

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def _traced() -> dict:
    """The TRACED table of perfbench/tracer.py, read without importing it."""
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED table")


def test_every_traced_name_resolves():
    traced = _traced()
    assert "objective" in traced
    missing = []
    for mod_name, names in traced.items():
        module = importlib.import_module(f"patternconv.{mod_name}")
        for qual in names:
            try:
                target = functools.reduce(getattr, qual.split("."), module)
            except AttributeError:
                missing.append(f"{mod_name}.{qual}")
                continue
            assert callable(target), f"{mod_name}.{qual}"
    assert missing == []
