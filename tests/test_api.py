"""The public namespace: every name in logmut.__all__ resolves, once; the
package's source holds no assert statement and parses at the declared
Python floor."""
import ast
from pathlib import Path

import pytest

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


def test_src_parses_at_the_declared_python_floor():
    """Every module of the package parses with the grammar of the oldest
    Python that pyproject.toml's requires-python admits.  This checks
    grammar only (syntax such as `except*` or `match` past the floor), not
    the standard library or the dependencies' support for that version."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        spec = tomllib.load(fh)["project"]["requires-python"]
    assert spec.startswith(">=")
    floor = tuple(int(part) for part in spec[2:].split("."))
    assert floor[0] == 3 and len(floor) == 2
    src = Path(logmut.__file__).parent
    for path in sorted(src.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
