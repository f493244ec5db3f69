"""The public namespace: every name in logmut.__all__ resolves, once; and
the package's source holds no assert statement."""
import ast
from pathlib import Path

import logmut


def test_every_public_name_resolves_once():
    names = logmut.__all__
    assert len(names) == len(set(names))
    namespace: dict = {}
    exec("from logmut import *", namespace)  # fails on a stale export
    assert set(names) <= set(namespace)
    assert all(getattr(logmut, name) is namespace[name] for name in names)


def test_src_has_no_assert_statement():
    """Internal consistency checks raise explicitly, so they still run under
    `python -O`, which strips assert statements."""
    src = Path(logmut.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert found == [], f"{path.name}: assert on lines {found}"
