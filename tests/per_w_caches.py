"""The per-w caches of the package, found by reading its source: each
function decorated with `lru_cache` whose first parameter is annotated
`Permutation`.  Such a cache fills one entry per w of a sweep."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hesscells"


def per_w_cache_decorators() -> list:
    """(module stem, function name, its lru_cache decorator node) of each."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.FunctionDef) or not node.args.args:
                continue
            first = node.args.args[0].annotation
            if first is None or ast.unparse(first) != "Permutation":
                continue
            for dec in node.decorator_list:
                call = dec.func if isinstance(dec, ast.Call) else dec
                if ast.unparse(call).split(".")[-1] == "lru_cache":
                    found.append((path.stem, node.name, dec))
    return found


def per_w_caches() -> list:
    """The cached functions themselves, as their modules bind them."""
    return [getattr(importlib.import_module(f"hesscells.{stem}"), name)
            for stem, name, _ in per_w_cache_decorators()]
