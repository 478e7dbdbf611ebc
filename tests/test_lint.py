"""Static checks over the sources: no assert in src/, no unused imports, no
function in src/ that mutates a module-level container, and no function or
class in src/ that only tests use."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "lanecert").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _name(path: Path) -> str:
    return str(path.relative_to(ROOT))


def assert_lines(tree: ast.Module):
    """The line numbers of the tree's assert statements."""
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]


def unused_imports(tree: ast.Module):
    """Names bound by an import that the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


MUTATORS = {"setdefault", "update", "append", "add"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
SCOPES = FUNCTIONS + (ast.ClassDef,)


def _scope_nodes(scope):
    """The nodes of scope's own body: nested functions and classes are
    yielded but not entered."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _bound_names(scope):
    """Names a scope binds (stores, imports, defs), less those it declares
    global.  For a function, its parameters too."""
    names, declared = set(), set()
    if isinstance(scope, FUNCTIONS):
        a = scope.args
        names |= {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
        names |= {x.arg for x in (a.vararg, a.kwarg) if x is not None}
    for node in _scope_nodes(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Global):
            declared |= set(node.names)
    return names - declared


def _mutated_name(node):
    """The name a statement-level node mutates in place: X[...] = / del
    X[...], or X.setdefault/update/append/add(...); else None."""
    if (
        isinstance(node, ast.Subscript)
        and not isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
    ):
        return node.value.id
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MUTATORS
        and isinstance(node.func.value, ast.Name)
    ):
        return node.func.value.id
    return None


def module_state_mutations(tree: ast.Module):
    """(line, name) of every place a function mutates a module-level name:
    one the module binds that neither the function nor an enclosing function
    binds.  Module-level code may build its own tables."""
    module = _bound_names(tree)
    found = []

    def visit(scope, local):
        for node in _scope_nodes(scope):
            if isinstance(node, FUNCTIONS):
                visit(node, (local or set()) | _bound_names(node))
            elif isinstance(node, ast.ClassDef):
                visit(node, local)  # class names are not visible in methods
            elif local is not None:
                name = _mutated_name(node)
                if name in module and name not in local:
                    found.append((node.lineno, name))

    visit(tree, None)
    return sorted(found)


@pytest.mark.parametrize("path", SRC, ids=_name)
def test_no_assert_in_src(path):
    lines = assert_lines(_tree(path))
    assert not lines, "assert statements at lines %s (python -O strips them)" % lines


def test_assert_detector():
    tree = ast.parse("def f(x):\n    assert x > 0\n    return x\n")
    assert assert_lines(tree) == [2]


@pytest.mark.parametrize(
    "path", [p for p in SRC + TESTS if p.name != "__init__.py"], ids=_name
)
def test_no_unused_imports(path):
    assert unused_imports(_tree(path)) == []


def test_unused_import_detector():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import List as L, Dict\n"
        "x: L = sys.argv\n"
    )
    assert unused_imports(tree) == [(2, "os"), (3, "Dict")]


@pytest.mark.parametrize("path", SRC, ids=_name)
def test_no_module_state_in_src(path):
    # Memos belong to one run; a module-level one would outlive it.
    assert module_state_mutations(_tree(path)) == []


def test_module_state_detector():
    tree = ast.parse(
        "import os\n"
        "CACHE, SEEN, ALL = {}, [], set()\n"
        "def f(key, seen=None):\n"
        "    CACHE[key] = 1\n"
        "    SEEN.append(key)\n"
        "    os.environ.update({})\n"
        "    local = {}\n"
        "    local[key] = CACHE.get(key)\n"
        "    def g():\n"
        "        local.setdefault(key, 2)\n"
        "        del CACHE[key]\n"
        "        return lambda x: ALL.add(x)\n"
        "    return g\n"
        "def h(SEEN):\n"
        "    SEEN.append(1)\n"
        "    CACHE = {}\n"
        "    CACHE.update(a=1)\n"
        "def k():\n"
        "    global ALL\n"
        "    ALL = set()\n"
        "    ALL.add(1)\n"
        "class C:\n"
        "    SEEN = []\n"
        "    def m(self):\n"
        "        SEEN.append(self)\n"
        "CACHE['top'] = 0\n"
    )
    assert module_state_mutations(tree) == [
        (4, "CACHE"),
        (5, "SEEN"),
        (11, "CACHE"),
        (12, "ALL"),
        (21, "ALL"),
        (25, "SEEN"),
    ]


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of top-level classes
    except dunders, which Python calls implicitly."""
    for node in tree.body:
        if isinstance(node, SCOPES):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item


def _references(tree: ast.Module):
    """(name, line) of every name or attribute read, imported name and string
    literal in tree; a string counts because code can call by name
    (certify._fold, perfbench's tracer)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def unreferenced_definitions(defined, using):
    """(module, line, name) of each definition in the defined modules whose
    name no module in using references outside that definition's own lines.
    Both arguments map a module name to its tree."""
    refs = {}
    for mod, tree in using.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((mod, line))
    found = []
    for mod, tree in defined.items():
        for d in _definitions(tree):
            if all(
                m == mod and d.lineno <= line <= d.end_lineno
                for m, line in refs.get(d.name, ())
            ):
                found.append((mod, d.lineno, d.name))
    return sorted(found)


# Definitions that no src/ or perfbench/ code uses yet, with why each stays.
TEST_ONLY_ALLOWED = {
    "degeneracy_orientation": "vertex-label transform, wired in by ROADMAP item 4",
    "edge_labels_to_vertex_labels": "vertex-label transform, ROADMAP item 4",
    "vertex_labels_to_edge_labels": "vertex-label transform, ROADMAP item 4",
}


def test_no_test_only_code_in_src():
    src = {_name(p): _tree(p) for p in SRC}
    using = {**src, **{_name(p): _tree(p) for p in PERFBENCH}}
    found = unreferenced_definitions(src, using)
    assert [f for f in found if f[2] not in TEST_ONLY_ALLOWED] == [], "only tests use these"
    stale = set(TEST_ONLY_ALLOWED) - {name for _, _, name in found}
    assert not stale, "used outside tests now; drop from TEST_ONLY_ALLOWED"


def test_test_only_code_detector():
    lib = ast.parse(
        "import os\n"
        "def used(): return helper()\n"
        "def helper(): return os.sep\n"
        "def stored(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def by_string(): pass\n"
        "def imported(): pass\n"
        "def tests_only(): pass\n"
        "class C:\n"
        "    def __init__(self): self.m()\n"
        "    def m(self): pass\n"
        "    def dead(self): return self.dead()\n"
        "    @property\n"
        "    def prop(self): return 1\n"
        "class Unused:\n"
        "    pass\n"
    )
    other = ast.parse(
        "from lib import imported as alias\n"
        "OPS = ('by_string',)\n"
        "stored = C().stored = 1\n"
        "print(used(), C().prop, alias)\n"
    )
    test = ast.parse("from lib import tests_only\ntests_only()\n")
    found = unreferenced_definitions({"lib": lib}, {"lib": lib, "other": other})
    assert found == [
        ("lib", 4, "stored"),
        ("lib", 5, "recursive"),
        ("lib", 8, "tests_only"),
        ("lib", 12, "dead"),
        ("lib", 15, "Unused"),
    ]
    # Test modules are not users: counting them hides tests_only.
    found = unreferenced_definitions(
        {"lib": lib}, {"lib": lib, "other": other, "test": test}
    )
    assert ("lib", 8, "tests_only") not in found


def test_section_names_cover_every_section_type():
    # label_size_stats and `lanecert stats` name each section by
    # SECTION_NAMES, which must name each of the four 2-bit types.
    from lanecert import certify

    types = {value for name, value in vars(certify).items() if name.startswith("SEC_")}
    assert set(certify.SECTION_NAMES) == types == {0, 1, 2, 3}
    assert len(set(certify.SECTION_NAMES.values())) == len(types)


def test_traced_entry_points_exist():
    # perfbench's tracer rebinds each (owner, attribute) of ENTRY_POINTS and
    # fails when one is missing, so renaming or removing a traced entry
    # point must fail here, not only in the benchmark.
    import importlib.util

    spec = importlib.util.spec_from_file_location("_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.ENTRY_POINTS
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _ in tracer.ENTRY_POINTS
        if attr not in owner.__dict__
    ]
    assert missing == []
