"""Rules the package source keeps, checked on its syntax tree."""
import ast
import importlib
import inspect
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "cmlab").glob("*.py"))
ORACLES = pathlib.Path(__file__).parent / "oracles.py"
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", [*SOURCES, ORACLES], ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so a correctness gate written as
    # one would vanish; gates raise explicitly instead.  pytest rewrites
    # asserts only in test modules, so the oracles keep the rule too
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


def _is_object_setattr(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object")


@pytest.mark.parametrize("path", [*(p for p in SOURCES if p.name != "record.py"), ORACLES], ids=lambda p: p.name)
def test_only_record_bypasses_immutability(path):
    # object.__setattr__ writes a field past Record.__setattr__; only
    # Record.__init__ fills fields, so every type goes through it and its
    # check
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if _is_object_setattr(node)]
    assert not lines, f"{path.name} names object.__setattr__ at lines {lines}"


def _calls_super_init(function) -> bool:
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "__init__" and isinstance(node.func.value, ast.Call)
               and getattr(node.func.value.func, "id", None) == "super"
               for node in ast.walk(function))


@pytest.mark.parametrize("path", [*SOURCES, ORACLES], ids=lambda p: p.name)
def test_a_record_constructor_ends_in_record_init(path):
    # a Record subclass that writes its own __init__ (to normalise its
    # arguments) still fills its fields through super().__init__, which
    # runs the type's check
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(getattr(base, "id", None) == "Record" for base in node.bases):
            found += [f"{node.name}.__init__" for item in node.body
                      if isinstance(item, ast.FunctionDef) and item.name == "__init__" and not _calls_super_init(item)]
    assert not found, f"{path.name}: {found} fill fields without super().__init__"


# exceptions a handler may not catch: a bug raises them (a missing key, a
# bad index, a wrong type), or, for Exception and BaseException, one of
# them, and catching it turns the traceback into an ordinary refusal
BUG_EXCEPTIONS = {"Exception", "BaseException", "KeyError", "IndexError", "TypeError"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_except_clauses_catch_no_bugs(path):
    # every input field is checked before it is indexed, so the package
    # catches only what it raises for bad input (ValueError and the I/O
    # errors); a bare except would also catch KeyboardInterrupt
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = ["bare" if t is None else getattr(t, "id", getattr(t, "attr", None)) for t in types]
            found += [(node.lineno, name) for name in names if name == "bare" or name in BUG_EXCEPTIONS]
    assert not found, f"{path.name} catches {found}"


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _loads_its_own_name(function) -> bool:
    return any(isinstance(node, ast.Name) and node.id == function.name and isinstance(node.ctx, ast.Load)
               for node in ast.walk(function))


@pytest.mark.parametrize("path", [*SOURCES, ORACLES], ids=lambda p: p.name)
def test_no_recursive_closures(path):
    # a function defined inside another that calls itself holds its own
    # cell, a reference cycle left for the cyclic collector; the garbage
    # tests see such a cycle only on the commands they run
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = sorted({(inner.lineno, inner.name) for outer in ast.walk(tree) if isinstance(outer, FUNCTIONS)
                    for inner in ast.walk(outer)
                    if inner is not outer and isinstance(inner, FUNCTIONS) and _loads_its_own_name(inner)})
    assert not found, f"{path.name} has recursive closures: {found}"


def _inexact(node):
    """What makes node inexact arithmetic, or None: a float or complex
    literal, a true division, or a call of float or complex."""
    if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
        return f"literal {node.value!r}"
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return "true division"
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("float", "complex"):
        return f"{node.func.id}()"
    return None


@pytest.mark.parametrize("path", [*SOURCES, ORACLES], ids=lambda p: p.name)
def test_arithmetic_is_exact(path):
    # no floats and no tolerances: integers and Fractions only, with //
    # where a quotient is meant to be exact
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [(node.lineno, what) for node in ast.walk(tree) if (what := _inexact(node))]
    assert not found, f"{path.name} has inexact arithmetic: {found}"


def _absolute_imports(path) -> list:
    """(line, module name) of every absolute import in the file at path,
    at module level or inside a definition."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    # pyproject.toml declares no runtime dependencies: the package imports
    # its own modules relatively and nothing else but the standard library
    outside = [(line, name) for line, name in _absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports {outside}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses_or_typing_imports(path):
    # importing dataclasses pulls in inspect, and every dataclass execs
    # generated code when its class is built; records derive from
    # cmlab.record instead, so start-up pays for neither.  __future__ is a
    # module a job would import for these lines alone: an annotation that
    # names a class bound later is quoted instead.  argparse (with gettext
    # and locale) is a second reader of the command line, which cli reads,
    # helps and refuses from its own tables.  The package's arithmetic is
    # int; fractions pulls in decimal and numbers, about 4 ms a job on a
    # 2-vCPU machine
    banned = [(line, name) for line, name in _absolute_imports(path) if name.split(".")[0] in ("__future__", "argparse", "dataclasses", "fractions", "typing")]
    assert not banned, f"{path.name} imports {banned}"


@pytest.mark.parametrize("path", [*SOURCES, *TESTS], ids=lambda p: p.name)
def test_functions_and_classes_are_imported_from_their_defining_module(path):
    # a name imported through a module that merely re-imports it hides the
    # module that defines it, and makes the importer load both; the package
    # imports its own modules relatively, the tests by absolute cmlab names
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            name = ".".join(filter(None, ("cmlab", node.module)))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "cmlab":
            name = node.module
        else:
            continue
        module = importlib.import_module(name)
        for alias in node.names:
            obj = getattr(module, alias.name)
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ != module.__name__:
                found.append((node.lineno, alias.name, module.__name__, obj.__module__))
    assert not found, f"{path.name} re-imports (line, name, via, defined in): {found}"


def _code(node):
    """What runs when a definition is used: a function's decorators,
    defaults and body; a class's decorators, bases and the statements of its
    body other than methods.  Annotations never run."""
    if isinstance(node, ast.FunctionDef):
        return node.decorator_list + node.args.defaults + node.body
    return node.decorator_list + node.bases + [s for s in node.body if not isinstance(s, ast.FunctionDef)]


# the owner of an attribute whose class is not known
ANY = "*"


def _names(nodes, classes, returns):
    """(owner, name) for each name the nodes load: owner None for a bare
    name, which can only be a module-level definition; for an attribute the
    class where it is known (Class.attr, Class(...).attr and f(...).attr
    with f annotated to return a class), else ANY."""
    found = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            found.add((None, node.id))
        elif isinstance(node, ast.Attribute):
            base = node.value.func if isinstance(node.value, ast.Call) else node.value
            name = getattr(base, "id", None)
            cls = returns.get(name, name)
            found.add((cls if cls in classes else ANY, node.attr))
    return found


def unreached_public_definitions(package):
    """The public functions, classes and methods of package that no command
    reaches, as 'module.name (N lines)'.

    Reachability goes by name from cli.main, the handlers that the first two
    fields of each cli._COMMANDS row name, and module-level code: a reached
    definition reaches each definition that its code names bare, in its own
    module or imported into it by `from .x import name`, each definition
    that it names as an attribute (only the member of the class, where the
    class is known and has one), and a reached class its dunder methods.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    defs = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module, node.name] = (node, None)
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef):
                        defs[module, f"{node.name}.{item.name}"] = (item, node.name)
    classes = {node.name for node, _ in defs.values() if isinstance(node, ast.ClassDef)}
    returns = {node.name: getattr(node.returns, "id", getattr(node.returns, "value", None))
               for node, owner in defs.values() if owner is None and isinstance(node, ast.FunctionDef)}
    by_name = {}
    for key, (node, owner) in defs.items():
        for cls in {ANY, owner} - {None}:
            by_name.setdefault((cls, node.name), []).append(key)
    # the bare names of each module: its own and those it imports, function-level imports included
    scope = {module: {} for module in trees}
    for (module, name), (_, owner) in defs.items():
        if owner is None:
            scope[module][name] = (module, name)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                source = node.module or "__init__"
                scope[module].update((a.asname or a.name, (source, a.name)) for a in node.names
                                     if (source, a.name) in defs)

    def targets(names, module):
        bare = [scope[module][name] for cls, name in names if cls is None and name in scope[module]]
        return bare + [key for cls, name in names if cls is not None
                       for key in by_name.get((cls, name)) or by_name.get((ANY, name), [])]

    commands = next(node.value for node in trees["cli"].body
                    if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_COMMANDS")
    # a row's first two fields name its handler; a later one may hold a JSON
    # shape such as {"g": int}, which is no literal
    todo = [("cli", "main"), *((row.elts[0].value, row.elts[1].value) for row in commands.values)]
    for module, tree in trees.items():
        module_code = [node for node in tree.body
                       if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom))]
        todo += targets(_names(module_code, classes, returns), module)
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            node = defs[key][0]
            todo += targets(_names(_code(node), classes, returns), key[0])
            if isinstance(node, ast.ClassDef):
                todo += [(key[0], f"{node.name}.{item.name}") for item in node.body
                         if isinstance(item, ast.FunctionDef) and item.name.startswith("__")]

    return [f"{module}.{name} ({node.end_lineno - node.lineno + 1} lines)"
            for (module, name), (node, _) in sorted(defs.items())
            if (module, name) not in reached and not any(part.startswith("_") for part in name.split("."))]


def test_a_bare_name_reaches_no_method(tmp_path):
    # a local variable that shares a method's name does not reach the method
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "cli.py").write_text(
        '_COMMANDS = {"go": ("cli_go", "cmd_go", "go somewhere", {"g": int})}\n\n\ndef main():\n    return 0\n')
    (package / "cli_go.py").write_text(
        "class Box:\n    def full(self):\n        return 1\n\n    def used(self):\n        return 2\n\n\n"
        "def cmd_go(read, args, as_json):\n    full = Box()\n    return full.used()\n")
    assert unreached_public_definitions(package) == ["cli_go.Box.full (2 lines)"]


def test_a_bare_name_reaches_only_its_own_module_and_imports(tmp_path):
    # a local variable named like another module's function does not reach it
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "cli.py").write_text(
        'from .helpers import used\n\n_COMMANDS = {"go": ("cli", "cmd_go", "go somewhere", {"g": int})}\n\n\n'
        "def main():\n    return 0\n\n\ndef cmd_go(read, args, as_json):\n    members = used()\n    return members\n")
    (package / "helpers.py").write_text("def members():\n    return 1\n\n\ndef used():\n    return 2\n")
    assert unreached_public_definitions(package) == ["helpers.members (2 lines)"]


def test_every_public_definition_is_run_by_a_command():
    # the package holds what the command line runs; reference code that
    # tests compare against lives in tests/oracles.py
    assert unreached_public_definitions(SOURCES[0].parent) == []
