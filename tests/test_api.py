"""The public namespace: every name in logmut.__all__ resolves, once."""
import logmut


def test_every_public_name_resolves_once():
    names = logmut.__all__
    assert len(names) == len(set(names))
    namespace: dict = {}
    exec("from logmut import *", namespace)  # fails on a stale export
    assert set(names) <= set(namespace)
    assert all(getattr(logmut, name) is namespace[name] for name in names)
