"""Rules the package source keeps, checked on its syntax tree."""
import ast
import importlib
import inspect
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "cmlab").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so a correctness gate written as
    # one would vanish; gates raise explicitly instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses_or_typing_imports(path):
    # importing dataclasses pulls in inspect, and every dataclass execs
    # generated code when its class is built; records derive from
    # cmlab.record instead, so start-up pays for neither
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    banned = [(line, name) for line, name in found if name.split(".")[0] in ("dataclasses", "typing")]
    assert not banned, f"{path.name} imports {banned}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_functions_and_classes_are_imported_from_their_defining_module(path):
    # a name imported through a module that merely re-imports it hides the
    # module that defines it, and makes the importer load both
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(".".join(filter(None, ("cmlab", node.module))))
            for alias in node.names:
                obj = getattr(module, alias.name)
                if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ != module.__name__:
                    found.append((node.lineno, alias.name, module.__name__, obj.__module__))
    assert not found, f"{path.name} re-imports (line, name, via, defined in): {found}"
