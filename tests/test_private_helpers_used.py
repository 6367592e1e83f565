"""Every private module-level name in the package is used by the package.

A `_`-prefixed function, class or constant defined at module level in
`src/smallpoints` must be referenced somewhere in the package outside its own
definition.  Callers in tests do not count: a helper that only tests call is
dead code that the tests keep alive.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "smallpoints"


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _referenced_names(stmt: ast.stmt) -> set[str]:
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_private_module_name_is_used_in_the_package():
    definitions = []  # (name, where) with where = (module, statement index)
    users: dict[str, set] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for i, stmt in enumerate(tree.body):
            where = (path.name, i)
            definitions += [(n, where) for n in _defined_names(stmt)]
            for n in _referenced_names(stmt):
                users.setdefault(n, set()).add(where)
    assert definitions, f"no modules found under {PACKAGE}"
    unused = [
        f"{where[0]}: {name}"
        for name, where in definitions
        if name.startswith("_")
        and not name.startswith("__")
        and not users.get(name, set()) - {where}
    ]
    assert not unused, f"private names the package never uses: {unused}"
