import ast
import doctest
from pathlib import Path

import hesscells.combinat
import hesscells.polyring

SRC = Path(__file__).resolve().parent.parent / "src" / "hesscells"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements; internal invariants must raise
    # AssertionError explicitly instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_doctests_pass():
    for module in (hesscells.polyring, hesscells.combinat):
        result = doctest.testmod(module)
        assert result.attempted > 0, module.__name__
        assert result.failed == 0, module.__name__
