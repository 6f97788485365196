"""Every exception the package raises is defined in `cpdistill.errors`,
every `raise` in the package names one of those classes, and each class is
raised only where its rule enters: no function re-checks data the program
made itself."""
import ast
import builtins
from pathlib import Path

import cpdistill
from cpdistill import errors

SRC = Path(cpdistill.__file__).resolve().parent
ERRORS = set(errors.__all__)
BUILTIN_EXCEPTIONS = {
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}
# the CLI's usage error is argparse's exit, not a package error
ALLOWED = {("cli.py", "SystemExit")}
# where each class may be raised: a whole module, or one function of one
RAISED_AT = {
    # a config rule, and the run seed (the CLI's --seed)
    "ConfigError": {"config.py", "model.py:ModelConfig.__post_init__",
                    "continual.py:ProtocolRunner.__init__"},
    # a run-record rule: the codec, the record parsers, the report's reads,
    # and continual's load path
    "StateError": {"checkpoint.py", "report.py", "metrics.py:MetricsMatrix._parse",
                   "model.py:_parse_header", "teachers.py:_trajectory",
                   "continual.py:ProtocolRunner.run", "continual.py:_require",
                   "continual.py:_stage_state", "continual.py:open_stage"},
    # the tensor kernels' shapes and values
    "DimensionError": {"tensor.py"},
    "NumericError": {"tensor.py"},
}


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


def test_errors_module_defines_the_four_classes():
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == errors.__name__}
    assert defined == ERRORS == {"ConfigError", "StateError", "DimensionError", "NumericError"}


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


def _raises():
    """(module, enclosing class and function path, class raised) of each
    `raise` of an exception in the package."""
    def walk(module, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                yield from walk(module, child, (*scope, child.name))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                yield module, ".".join(scope), _name(child.exc)
            yield from walk(module, child, scope)

    for path in sorted(SRC.glob("*.py")):
        yield from walk(path.name, ast.parse(path.read_text()), ())


def test_each_error_class_is_raised_only_where_its_rule_enters():
    used = set()
    for module, scope, name in _raises():
        if name not in RAISED_AT:
            continue
        site = module if module in RAISED_AT[name] else f"{module}:{scope}"
        assert site in RAISED_AT[name], f"{site} raises {name}"
        used.add((name, site))
    # every allowed site still raises its class
    assert used == {(name, site) for name, sites in RAISED_AT.items() for site in sites}
