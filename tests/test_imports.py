"""Every name a ``repro`` module imports is used in that module.

A static check with the standard library's ``ast``: a name bound by
``import`` / ``from … import`` counts as used when the module's code
reads it, including inside string annotations (``"Optional[Session]"``)
and ``__all__``.  Package ``__init__`` modules (lazy re-export maps),
``from __future__`` lines and lines marked ``# noqa`` (deliberate
re-exports) are exempt.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _names_in(node: ast.AST) -> "set[str]":
    """Names read by an expression, parsing string annotations too."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _names_in(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass  # a plain string, not an annotation
    return names


def unused_imports(path: pathlib.Path) -> "list[str]":
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            exempt = (getattr(node, "module", None) == "__future__"
                      or any("# noqa" in line for line in
                             lines[node.lineno - 1:node.end_lineno]))
            for alias in () if exempt else node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _names_in(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used |= _names_in(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _names_in(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            used |= _names_in(node.value)
    return [f"{path.relative_to(SRC.parent)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in used]


def test_every_import_is_used():
    dead = [entry for path in sorted(SRC.rglob("*.py"))
            if path.name != "__init__.py"
            for entry in unused_imports(path)]
    assert not dead, "unused imports:\n" + "\n".join(dead)
