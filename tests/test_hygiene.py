"""Dead-code checks over src/zpoly, with the standard library's `ast` only.

Every name a module imports is used in that module, and every module-level
function and class, and every method, defined in src/zpoly is named
somewhere in src/, tests/ or bench/ (dunder methods are called by the
language and are exempt; `__init__.py` re-exports through `__all__`).
No module reads a `_`-prefixed name of another module of the package.
Every `SearchBudget` field is read somewhere in src/zpoly.  No public
function or method takes a `_`-prefixed parameter: a private knob belongs
to a private helper, not to the public signature.  No module binds a
dict, list or set at module level (`__all__` aside): a memo belongs to
`functools.cache`, and a module's state to no one.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zpoly"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def referenced_names(tree):
    """Identifiers a tree refers to: names, attributes, imported names, and
    dotted words in string constants (bench/tracer.py wraps functions by
    their names given as strings)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def imported_names(tree):
    """(name bound by an import, line) for every import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Names a module uses: loaded names, and the strings of `__all__`."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def definitions(tree):
    """(qualified name, name) of module-level functions and classes and of
    the methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield "%s.%s" % (node.name, item.name), item.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = parse(path)
    used = used_names(tree)
    unused = ["%s (line %d)" % (name, line) for name, line in imported_names(tree)
              if name not in used]
    assert not unused, "unused imports in %s: %s" % (path.name, ", ".join(unused))


def test_every_definition_is_named_somewhere():
    named = set()
    for directory in ("src", "tests", "bench"):
        for path in (ROOT / directory).rglob("*.py"):
            named |= referenced_names(parse(path))
    dead = ["%s.%s" % (path.stem, qualified)
            for path in MODULES
            for qualified, name in definitions(parse(path))
            if name not in named and not (name.startswith("__") and name.endswith("__"))]
    assert not dead, "defined in src/zpoly but named nowhere: %s" % ", ".join(dead)


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_a_private_name_of_another(path):
    """`from .m import _x` and `m._x`, where `m` is bound to a module of
    the package by `from . import m`, are both reads of a private name."""
    tree = parse(path)
    siblings = {p.stem for p in MODULES}
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None and alias.name in siblings:
                    modules.add(alias.asname or alias.name)
                elif is_private(alias.name):
                    private.append("%s.%s (line %d)" % (node.module, alias.name, node.lineno))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and is_private(node.attr)):
            private.append("%s.%s (line %d)" % (node.value.id, node.attr, node.lineno))
    assert not private, "%s reads private names: %s" % (path.name, ", ".join(private))


def test_every_search_budget_field_is_read():
    """Each `SearchBudget` field is read as an attribute somewhere in
    src/zpoly, so no budget knob is left without a reader."""
    [budget] = [node for node in parse(PACKAGE / "analysis.py").body
                if isinstance(node, ast.ClassDef) and node.name == "SearchBudget"]
    fields = [item.target.id for item in budget.body if isinstance(item, ast.AnnAssign)]
    read = {node.attr for path in MODULES for node in ast.walk(parse(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [name for name in fields if name not in read]
    assert fields and not unread, "SearchBudget fields read nowhere: %s" % ", ".join(unread)


def public_functions(tree):
    """(qualified name, node) of the public module-level functions and the
    public methods (dunder methods included) of public module-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not is_private(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef) and not is_private(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not is_private(item.name):
                    yield "%s.%s" % (node.name, item.name), item


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_public_function_takes_a_private_parameter(path):
    found = []
    for qualified, node in public_functions(parse(path)):
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        found.extend("%s(%s)" % (qualified, p.arg) for p in params if p.arg.startswith("_"))
    assert not found, "%s: public functions with private parameters: %s" % (
        path.name, ", ".join(found))


MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTABLE_TYPES = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


def is_mutable_container(node):
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in MUTABLE_TYPES
    return isinstance(node, MUTABLE_DISPLAYS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_binds_a_mutable_container(path):
    found = []
    for node in parse(path).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        names = [ast.unparse(t) for t in targets]
        if names != ["__all__"] and is_mutable_container(node.value):
            found.append("%s (line %d)" % (" = ".join(names), node.lineno))
    assert not found, "%s binds module-level containers: %s" % (path.name, ", ".join(found))
