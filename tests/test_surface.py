"""The package surface: every export exists, every import is stdlib, and
only `superspace` imports `heapq`, for the one mod-p row reduction."""

import ast
import importlib
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qschur"


def test_exports_exist_and_imports_are_stdlib_or_qschur():
    sources = sorted(PACKAGE.glob("*.py"))
    # a name left in __all__ after its definition was deleted
    for path in sources:
        if path.stem == "__main__":
            continue  # importing it runs the CLI
        name = "qschur" if path.stem == "__init__" else f"qschur.{path.stem}"
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ())
                   if not hasattr(module, n)]
        assert not missing, (name, missing)
    # zero runtime dependencies; `Echelon.add` is the only heap reduction
    heap_users = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root in sys.stdlib_module_names or root == "qschur", \
                    (path.name, root)
                if root == "heapq":
                    heap_users.add(path.stem)
    assert heap_users == {"superspace"}
