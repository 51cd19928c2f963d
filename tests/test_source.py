"""Properties of the package source itself."""
import ast
from pathlib import Path

import ugsos

SRC = Path(ugsos.__file__).parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements; every runtime check must raise
    # an explicit error instead, so it still runs under -O
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in ugsos: {found}"
