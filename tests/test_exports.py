"""The package export list names each public object once, and all of them exist."""

import sketchlr


def test_all_is_unique():
    assert len(sketchlr.__all__) == len(set(sketchlr.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in sketchlr.__all__ if not hasattr(sketchlr, name)]
    assert missing == []


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from sketchlr import *", namespace)
    assert set(sketchlr.__all__) <= namespace.keys()
