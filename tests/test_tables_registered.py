"""Every module-level cache in the package is made by `numeric.table`, so
`clear_tables()` empties it and tests/test_history.py covers it; a cache
made inside a function lives for one call and is not counted."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "smallpoints"


def _is_cache(node: ast.AST) -> bool:
    """lru_cache or cache, called or not, bare or as functools.<name>."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("lru_cache", "cache")


def test_every_module_level_cache_is_a_registered_table():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    found = []
    for path in modules:
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef):
                nodes = stmt.decorator_list
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value:
                nodes = list(ast.walk(stmt.value))
            else:
                continue
            if any(map(_is_cache, nodes)):
                found.append(f"{path.name}:{stmt.lineno}")
    assert found == [], f"module-level caches not made by numeric.table: {found}"
