"""Every module-level import and private name in the package is used.

Also: no hash-consed class restates, by a decorator, the dataclass rule
that its base `syntax.Interned` applies, no `json.dumps`/`json.dump`
call passes `indent=`, which sends it to the pure-Python encoder, and
only `semantics.take` passes `order=` to `step`, so that every replay of
a recorded fork lays out the recorded order alone in one place.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "filesafe"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that no `ast.Name` in `source` reads."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def unread_private_names(source: str) -> list[str]:
    """Module-level `_x` functions, classes and variables `source` never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.extend(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        name for name in bound
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def decorated_interned_classes(source: str) -> list[str]:
    """Classes in `source` that subclass `Interned` by name and have a decorator."""
    return [
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.decorator_list
        and any(isinstance(base, ast.Name) and base.id == "Interned" for base in node.bases)
    ]


def indented_json_calls(source: str) -> list[int]:
    """Lines of `json.dumps(...)`/`json.dump(...)` calls in `source` that pass `indent=`."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
        and node.func.attr in ("dumps", "dump")
        and any(keyword.arg == "indent" for keyword in node.keywords)
    ]


def order_passing_callers(source: str) -> list[str]:
    """Functions in `source` that call `step` with `order=`, by name; `<module>` outside any."""
    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Call) and any(k.arg == "order" for k in node.keywords)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "step"):
            yield owner
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    return list(visit(ast.parse(source), "<module>"))


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd(b)\n") == ["os"]


def test_the_check_sees_an_unread_private_name():
    source = "_a = 1\n_b, c = 2, 3\n__all__ = []\ndef _f(): return _a\nclass _K: pass\n_K()\n"
    assert unread_private_names(source) == ["_b", "_f"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []


def test_the_check_sees_a_decorated_interned_class():
    source = "@dataclass\nclass A(Interned): pass\nclass B(Interned): pass\n@dataclass\nclass C: pass\n"
    assert decorated_interned_classes(source) == ["A"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_interned_classes_have_no_decorator(path):
    assert decorated_interned_classes(path.read_text()) == []


def test_the_check_sees_an_indented_json_call():
    source = (
        "json.dumps(a, indent=2)\njson.dumps(a, separators=(',', ':'))\n"
        "json.dump(a, f, indent=None)\nother.dumps(a, indent=2)\n"
    )
    assert indented_json_calls(source) == [1, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_passes_no_indent_to_json(path):
    assert indented_json_calls(path.read_text()) == []


def test_the_check_sees_a_call_of_step_with_an_order():
    source = (
        "def f():\n    step(c, b, order=o)\n    step(c, b)\n"
        "def g():\n    def h():\n        semantics.step(c, b, order=())\n"
        "step(c, b, order=x)\nother(c, order=x)\n"
    )
    assert order_passing_callers(source) == ["f", "h", "<module>"]


def test_only_take_passes_an_order_to_step():
    callers = [
        (path.name, caller)
        for path in sorted(SRC.glob("*.py")) for caller in order_passing_callers(path.read_text())
    ]
    assert callers == [("semantics.py", "take")]
