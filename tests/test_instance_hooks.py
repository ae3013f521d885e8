"""Instance knowledge stays in the instances.

The span calculus is written once for every category; what differs from
one instance to the next sits behind `Category` hooks that the instances
override. These tests parse the generic modules and fail on a type switch
against a class that an instance module defines, and on an instance
import in the span and class layers, so such branches cannot creep back.
"""

import ast
import inspect
import pathlib

import pytest

import spanalg
from spanalg import fincat, finset, tablecat, thin

SRC = pathlib.Path(spanalg.__file__).parent
INSTANCE_MODULES = (finset, thin, fincat, tablecat)
INSTANCE_CLASSES = {name for mod in INSTANCE_MODULES
                    for name, obj in vars(mod).items()
                    if inspect.isclass(obj) and obj.__module__ == mod.__name__}


def _names(node):
    """Class names in the second argument of isinstance/issubclass."""
    if isinstance(node, ast.Tuple):
        return [n for elt in node.elts for n in _names(elt)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


@pytest.mark.parametrize("module", ["spans", "classes", "systems", "cli", "allegory"])
def test_no_type_switch_on_an_instance_class(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    switches = [f"{module}.py:{node.lineno}: {name}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2
                for name in _names(node.args[1]) if name in INSTANCE_CLASSES]
    assert not switches


@pytest.mark.parametrize("module", ["spans", "classes"])
def test_span_and_class_layers_import_no_instance(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    instance_names = {mod.__name__.rsplit(".", 1)[1] for mod in INSTANCE_MODULES}
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [m for m in imported if m.rsplit(".", 1)[-1] in instance_names]
