"""Every name a `recipe` module imports is used in that module, and every
private module-level name is used somewhere in the package.

No linter runs on this code, and deleting a second copy of some job tends
to strand the imports and helpers it needed.  An import statement that
carries `# noqa: F401` on any of its lines is exempt: the package's
re-exports, and names imported only so that outside code can find them on
a module.  A private name (`_x`) is for the package's own use, so one that
no module references outside its definition is dead code.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "recipe"


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in ln for ln in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def _defined_names(node) -> list[str]:
    """Names a module-level statement binds: a def or class, or assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _referenced_names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


_STATEMENTS = [(path, node) for path in sorted(SRC.glob("*.py"))
               for node in ast.parse(path.read_text(encoding="utf-8")).body]


def _unreferenced_private_names(path: Path) -> list[str]:
    missing = []
    for owner, node in _STATEMENTS:
        if owner != path:
            continue
        for name in _defined_names(node):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in _referenced_names(other)
                       for _, other in _STATEMENTS if other is not node):
                missing.append(f"{path.name}:{node.lineno}: {name}")
    return missing


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_private_name_is_used(path):
    assert _unreferenced_private_names(path) == []


def test_decoder_imports_no_private_name():
    # The destination replays the protocols through their public objects; a
    # private name would put another module's internals (a hash's bit
    # layout, a walk's tables) on both sides of that boundary.
    tree = ast.parse((SRC / "decoder.py").read_text(encoding="utf-8"))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names
               if alias.name.startswith("_")]
    assert private == []
