"""Lints over the source of `recipe`: each name it defines or imports has
a user.

No linter runs on this code, and deleting a second copy of some job tends
to strand the imports and helpers it needed.
- Every name a module imports is used in that module.  An import statement
  that carries `# noqa: F401` on any of its lines is exempt: the package's
  re-exports, and names imported only so that outside code can find them
  on a module.  Outside `__init__.py` that outside code is `bench/`, so
  such a name must still appear in some `bench/*.py` file.
- A private module-level name (`_x`) is for the package's own use, so one
  that no module references outside its definition is dead code.
- A public function, or a public method of a module-level class, serves
  the package, the demos, the benchmark or the acceptance criteria.  One
  that none of those references outside its own `def` is surface kept
  alive only by its own unit tests.  A docstring that mentions a name does
  not use it.
The module also holds the lints on defaulted parameters, on the decoder's
imports and on the exceptions the package raises.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "recipe"
BENCH = SRC.parent.parent / "bench"


def _imports(path: Path, exempt: bool):
    """(name, line) of each name the module imports, from the statements
    that carry `# noqa: F401` if `exempt`, else from the others."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if exempt != any("# noqa: F401" in ln
                         for ln in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            yield alias.asname or alias.name.split(".")[0], node.lineno


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = dict(_imports(path, exempt=False))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def test_every_shim_has_a_user_in_bench():
    # Outside __init__.py, an exempt import is a shim kept so that bench/
    # finds a name on a module; once no bench file names it, it goes.
    bench_text = "\n".join(p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py")))
    unused = [f"{path.name}:{line}: {name}"
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
              for name, line in _imports(path, exempt=True)
              if not re.search(rf"\b{name}\b", bench_text)]
    assert unused == []


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


# Where a public function's users may be: the package outside its
# re-exports, the demos, the benchmark and the acceptance criteria.
_ROOT = SRC.parent.parent
_USERS = [node for path, node in _STATEMENTS if path.name != "__init__.py"] + [
    node for path in [*sorted((_ROOT / "demos").glob("*.py")), *sorted(BENCH.glob("*.py")),
                      _ROOT / "tests" / "test_acceptance.py"]
    for node in ast.parse(path.read_text(encoding="utf-8")).body]


def _used_names(node) -> set[str]:
    """Names a statement references or imports; a docstring that mentions
    a name does not use it."""
    return _referenced_names(node) | {part for n in ast.walk(node) if isinstance(n, ast.alias)
                                      for part in n.name.split(".")}


def _public_functions_without_user() -> list[str]:
    used = [(node, _used_names(node)) for node in _USERS]
    missing = []
    for path, node in _STATEMENTS:
        if path.name == "__init__.py":
            continue
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in members:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name.startswith("_"):
                continue
            # A method's class siblings may use it; its own body does not count.
            if any(fn.name in names for other, names in used if other is not node):
                continue
            if any(fn.name in _used_names(m) for m in members if m is not fn):
                continue
            owner = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            missing.append(f"{path.name}: {owner}{fn.name}")
    return missing


def test_every_public_function_has_a_user():
    assert _public_functions_without_user() == []


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


_CALLERS = [path for top in ("src", "tests", "bench", "demos")
            for path in sorted((SRC.parent.parent / top).rglob("*.py"))]


def _defaulted_parameters():
    """(module, function, parameter, positional index or None) for every
    parameter with a default of a module-level function in the package."""
    for path, node in _STATEMENTS:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        for idx in range(len(positional) - len(args.defaults), len(positional)):
            yield path.name, node.name, positional[idx].arg, idx
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield path.name, node.name, arg.arg, None


def _passes(call: ast.Call, param: str, idx) -> bool:
    """Whether the call sets the parameter: by keyword, by position, or
    possibly through *args or **kwargs."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return idx is not None and len(call.args) > idx


def test_every_defaulted_parameter_is_set_by_some_caller():
    # A default that no caller overrides is a constant written as an option.
    calls: dict[str, list[ast.Call]] = {}
    for path in _CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    never_set = [f"{module}: {fn}({param})" for module, fn, param, idx in _defaulted_parameters()
                 if not any(_passes(call, param, idx) for call in calls.get(fn, []))]
    assert never_set == []


_ERRORS = {node.name for node in ast.parse((SRC / "errors.py").read_text(encoding="utf-8")).body
           if isinstance(node, ast.ClassDef)}
# argparse's own protocol in cli.py: (enclosing function, exception raised).
_ARGPARSE_RAISES = {("error", "SystemExit"), ("_path_lengths", "ArgumentTypeError")}


def _name_of(exc) -> str | None:
    """The name `X` of an expression `X`, `X(...)`, `mod.X` or `mod.X(...)`."""
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return exc.id if isinstance(exc, ast.Name) else None


def _foreign_raises(node, path: Path, function=None, guarded=False, caught=None):
    """`file:line` of each raise under `node` whose exception is not a
    recipe error; see test_every_raise_is_a_recipe_error."""
    if isinstance(node, ast.Raise):
        name = _name_of(node.exc) if node.exc else None
        ok = (guarded or name in _ERRORS
              or (node.exc is None and caught is not None and set(caught) <= _ERRORS)
              or (path.name == "cli.py" and (function, name) in _ARGPARSE_RAISES))
        if not ok:
            yield f"{path.name}:{node.lineno}: {ast.unparse(node)}"
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.With) and any(
            isinstance(item.context_expr, ast.Call)
            and _name_of(item.context_expr) == "malformed" for item in node.items):
        guarded = True
    if isinstance(node, ast.ExceptHandler):
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        caught = tuple(_name_of(t) for t in types)
    for child in ast.iter_child_nodes(node):
        yield from _foreign_raises(child, path, function, guarded, caught)


def test_every_raise_is_a_recipe_error():
    # The CLI maps a RecipeError to its exit code and one stderr line; any
    # other exception escapes as a traceback.  So every raise names a class
    # of recipe.errors, re-raises one, sits in a `with malformed(...)`
    # block (which converts it), or is argparse's own protocol in cli.py.
    foreign = [line for path in sorted(SRC.glob("*.py"))
               for line in _foreign_raises(ast.parse(path.read_text(encoding="utf-8")), path)]
    assert foreign == []
