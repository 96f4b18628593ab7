"""Source hygiene of the package, checked on the syntax tree alone."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fria"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imports(tree):
    """(bound name, imported name, from-module) of every import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, None
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, node


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(bound for bound, _, _ in _imports(tree) if bound not in used)
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_from_another_module(path):
    tree = ast.parse(path.read_text())
    private = sorted(
        name
        for _, name, origin in _imports(tree)
        if origin is not None
        and (origin.level > 0 or (origin.module or "").split(".")[0] == "fria")
        and name.startswith("_")
    )
    assert private == [], f"{path.name} imports private names: {private}"


def test_every_constant_is_read():
    # a module-level UPPER_CASE name that no module of the package reads is dead
    trees = {p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = sorted(
        (name, target.id)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.lstrip("_").isupper()
    )
    assert len(defined) >= 10, defined
    unread = [f"{name}:{const}" for name, const in defined if const not in read]
    assert unread == [], f"constants no module reads: {unread}"


def _decorator_names(node):
    """Names of a definition's decorators, called or not, bare or dotted."""
    calls = (getattr(d, "func", d) for d in node.decorator_list)
    return {d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None) for d in calls}


PROPERTIES = {"property", "cached_property"}


def _attributes_read(tree):
    """Names read as ``obj.name`` or by ``getattr(obj, "name", ...)`` / ``hasattr``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in {"getattr", "hasattr"}
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.args[1].value


def test_every_member_is_read():
    """A public dataclass field or property that no code of the package, the
    benchmark or the tools reads as an attribute is kept for tests alone.
    Names are matched, not types."""
    root = PACKAGE.parents[1]
    sources = [p for d in (PACKAGE, root / "perfbench", root / "tools") for p in d.glob("*.py")]
    read = {name for path in sources for name in _attributes_read(ast.parse(path.read_text()))}
    members = []
    for path in PACKAGE.glob("*.py"):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            is_dataclass = "dataclass" in _decorator_names(cls)
            for node in cls.body:
                if is_dataclass and isinstance(node, ast.AnnAssign):
                    members.append((cls.name, node.target.id))
                elif isinstance(node, ast.FunctionDef) and _decorator_names(node) & PROPERTIES:
                    members.append((cls.name, node.name))
    assert len(members) >= 30, members
    unread = sorted(f"{cls}.{name}" for cls, name in members if name not in read)
    assert unread == [], f"members nothing outside the tests reads: {unread}"


def test_every_module_is_imported():
    # a module that neither another module nor an entry point imports is left over
    scripts = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    imported = set(re.findall(r'"fria\.(\w+):', scripts))
    for path in PACKAGE.glob("*.py"):
        for _, name, origin in _imports(ast.parse(path.read_text())):
            if origin is not None and origin.level == 1:
                imported.add(origin.module or name)
            elif origin is not None and (origin.module or "").startswith("fria."):
                imported.add(origin.module.split(".")[1])
    leftover = sorted(p.name for p in MODULES if p.stem not in imported)
    assert leftover == [], f"modules nothing imports: {leftover}"


def _names_read(tree):
    """Names read as a bare name, as ``obj.name`` or by ``from m import name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_function_is_read():
    """A public top-level function or class that neither the package (its
    ``__init__`` exports included), the benchmark nor the tools reads is
    kept for tests alone.  Names are matched, not modules."""
    root = PACKAGE.parents[1]
    sources = [p for d in (PACKAGE, root / "perfbench", root / "tools") for p in d.glob("*.py")]
    read = {name for path in sources for name in _names_read(ast.parse(path.read_text()))}
    defined = [
        (path.stem, node.name)
        for path in MODULES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert len(defined) >= 40, defined
    unread = sorted(f"{module}.{name}" for module, name in defined if name not in read)
    assert unread == [], f"public definitions nothing outside the tests reads: {unread}"
