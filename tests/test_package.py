"""Tests for the package's public surface."""

import circleops


def test_every_exported_name_resolves_and_star_import_succeeds():
    missing = [name for name in circleops.__all__ if not hasattr(circleops, name)]
    assert missing == []
    assert len(set(circleops.__all__)) == len(circleops.__all__)
    namespace = {}
    exec("from circleops import *", namespace)
    assert set(circleops.__all__) <= set(namespace)
