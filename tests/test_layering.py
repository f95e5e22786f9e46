"""Import hygiene of the package: no module imports another module's
private names, every imported name is used, every public function,
class and method has a user outside its own unit tests, no two classes
share a public method name, and some user passes every defaulted
parameter."""

import argparse
import ast
from pathlib import Path

from relhyp.cli import build_parser

SRC = Path(__file__).resolve().parent.parent / "src" / "relhyp"
TESTS = Path(__file__).resolve().parent


def _private_imports(path):
    """Private names imported from another package module, relatively
    (from .x import _y) or absolutely (from relhyp.x import _y)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.module):
            continue
        if node.level or node.module.split(".")[0] == "relhyp":
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield (f"{path.name}:{node.lineno}: from "
                           f"{'.' * node.level}{node.module} import "
                           f"{alias.name}")


def test_no_private_name_imported_across_modules():
    # the acceptance criteria use the package as a user would
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [hit for path in modules + [TESTS / "test_acceptance.py"]
             for hit in _private_imports(path)]
    assert found == []


def _relative_imports_in_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and node.level:
                    yield (f"{path.name}:{node.lineno}: from "
                           f"{'.' * node.level}{node.module or ''} import "
                           f"in {fn.name}")


def test_no_relative_import_inside_a_function():
    # package imports go at the top of the module; a function may still
    # import from the standard library (measure_thinness defers array)
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {hit for path in modules
             for hit in _relative_imports_in_functions(path)}
    assert found == set()


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    yield f"{path.name}:{node.lineno}: {name}"


def test_every_imported_name_is_used():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in _unused_imports(path)]
    assert found == []


def _names_outside_own_definition(path):
    """Identifiers a module names, except a top-level definition's own
    name inside its body."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = set()
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        used |= names
    return used


# public definitions that no command or acceptance criterion reaches,
# each kept for the one reason given
KEPT = {
    "replay_certificate": "the independent check of the oracle's "
                          "'trivial' certificates",
    "WordProblemOracle.decide": "perfbench/spans.py wraps it to count "
                                "the oracle's verdicts",
}


def _attributes(path):
    """Attribute names a module reads or calls, except a top-level
    class's method names inside that method's own body."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = set()
    for stmt in tree.body:
        is_class = isinstance(stmt, ast.ClassDef)
        for part in stmt.body if is_class else [stmt]:
            names = {node.attr for node in ast.walk(part)
                     if isinstance(node, ast.Attribute)}
            if is_class and isinstance(part, ast.FunctionDef):
                names.discard(part.name)
            used |= names
    return used


def test_every_public_definition_is_named():
    # a public function, class or method earns its place through a user:
    # package code, a subcommand's cmd_<name>, or an acceptance criterion;
    # a unit test of its own is not a user
    modules = sorted(SRC.glob("*.py"))
    used = set()
    attributes = set()
    for path in modules + [TESTS / "test_acceptance.py"]:
        used |= _names_outside_own_definition(path)
        attributes |= _attributes(path)
    # main runs each subcommand's cmd_<name> by its string name
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            used |= {"cmd_" + name.replace("-", "_")
                     for name in action.choices}
    dead = {}
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        dead |= {stmt.name: path.name for stmt in tree.body
                 if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                 and not stmt.name.startswith("_") and stmt.name not in used}
        # a method is used through an attribute of that name
        dead |= {f"{cls.name}.{fn.name}": path.name for cls in tree.body
                 if isinstance(cls, ast.ClassDef) for fn in cls.body
                 if isinstance(fn, ast.FunctionDef)
                 and not fn.name.startswith("_")
                 and fn.name not in attributes}
    # a kept name that gains a user leaves KEPT
    assert sorted(dead) == sorted(KEPT), dead


def test_no_two_classes_share_a_public_method_name():
    # the check above finds a method's users by attribute name alone, so a
    # name that two classes define hides an unused one behind the other
    owners = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) \
                            and not fn.name.startswith("_"):
                        owners.setdefault(fn.name, []).append(
                            f"{path.name}:{cls.name}")
    shared = {name: where for name, where in owners.items()
              if len(where) > 1}
    assert shared == {}


def _defaulted_parameters(path):
    """(callable name, parameter, positional index or None) for every
    parameter with a default; a method's index counts its receiver, and
    a class's __init__ is called by the class name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owners = {id(fn): cls for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) for fn in cls.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owners.get(id(fn))
        name = cls.name if cls and fn.name == "__init__" else fn.name
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list)
        skip = 1 if cls and not static else 0
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield name, arg.arg, i - skip
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _passed_parameters(paths):
    """Callable name -> set of keywords and positional indices that some
    call passes; "*" when a call spreads a sequence or a mapping."""
    passed = {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            got = passed.setdefault(name, set())
            for i, arg in enumerate(call.args):
                got.add("*" if isinstance(arg, ast.Starred) else i)
            for kw in call.keywords:
                got.add("*" if kw.arg is None else kw.arg)
    return passed


# defaulted parameters that only unit tests set, each kept for the one
# reason given
SET_BY_TESTS = {
    "WordProblemOracle(budget)": "the rule budget waits for its flag "
                                 "(ROADMAP item 1)",
    "electric_area_exact(node_budget)": "the search-node budget waits for "
                                        "its flag (ROADMAP item 1)",
    "build_fftp_automaton(state_cap)": "the state cap waits for its flag "
                                       "(ROADMAP item 1)",
    "main(argv)": "the console script calls main() to read sys.argv; "
                  "tests and the benchmark pass argv",
    "surgery_solve(requested)": "the free choice of -alpha . x_j in the "
                                "surgery construction, which no command "
                                "exposes yet",
}


def test_every_defaulted_parameter_is_set():
    # a default that no user overrides is a constant spelled as a
    # parameter: package code, a subcommand's cmd_<name> or an acceptance
    # criterion must pass each one; a unit test is not a user
    modules = sorted(SRC.glob("*.py"))
    passed = _passed_parameters(modules + [TESTS / "test_acceptance.py"])
    never = [f"{name}({param})"
             for path in modules
             for name, param, index in _defaulted_parameters(path)
             if not passed.get(name, set()) & {param, index, "*"}]
    # a kept default that gains a user leaves SET_BY_TESTS
    assert sorted(never) == sorted(SET_BY_TESTS)
