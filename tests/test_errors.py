"""Every exception the package raises is defined in `cpdistill.errors`, and
every `raise` in the package names one of those classes."""
import ast
import builtins
from pathlib import Path

import numpy as np
import pytest

import cpdistill
from cpdistill import errors
from cpdistill.metrics import MetricsMatrix
from cpdistill.taskctx import ContextProvider, TaskEncoder

SRC = Path(cpdistill.__file__).resolve().parent
ERRORS = set(errors.__all__)
BUILTIN_EXCEPTIONS = {
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}
# the CLI's usage error is argparse's exit, not a package error
ALLOWED = {("cli.py", "SystemExit")}


def _name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _nodes(kind):
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, kind):
                yield path.name, node


def test_errors_module_defines_the_five_classes():
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == errors.__name__}
    assert defined == ERRORS == {
        "ConfigError", "InputError", "StateError", "DimensionError", "NumericError"}


def test_only_errors_defines_exception_classes():
    for module, node in _nodes(ast.ClassDef):
        if module == "errors.py":
            continue
        bases = {_name(b) for b in node.bases}
        assert not bases & (BUILTIN_EXCEPTIONS | ERRORS), f"{module}: class {node.name}"


def test_every_raise_names_an_errors_class():
    for module, node in _nodes(ast.Raise):
        if node.exc is None:  # a bare re-raise
            continue
        name = _name(node.exc)
        assert name in ERRORS or (module, name) in ALLOWED, (
            f"{module}:{node.lineno} raises {name}")


@pytest.mark.parametrize("call,name", [
    (lambda: MetricsMatrix().record(1, "nope", 0.5), "nope"),
    (lambda: MetricsMatrix().value(1, "nope"), "nope"),
    (lambda: MetricsMatrix(["a"], [1]).value(2, "a"), "stage 2"),
    (lambda: ContextProvider(
        TaskEncoder(8, 64, 16, rng=np.random.default_rng(0), dtype=np.float64), n_chunks=8,
    ).refresh(["nope"]),
     "nope"),
], ids=["record", "value", "value-stage", "refresh"])
def test_an_unknown_task_or_stage_raises_input_error(call, name):
    with pytest.raises(errors.InputError, match=name):
        call()
