"""The stage microbenchmarks in ``tests/bench_*.py`` still import.

pytest collects only ``test_*.py`` files, so without this check a deleted or
renamed name that a microbenchmark imports would go unnoticed until someone
ran it with ``--benchmark-only``.
"""

import importlib.util
from pathlib import Path

import pytest

BENCHES = sorted(Path(__file__).parent.glob("bench_*.py"))


def test_microbenchmarks_are_found():
    assert BENCHES


@pytest.mark.parametrize("path", BENCHES, ids=lambda path: path.stem)
def test_microbenchmark_imports(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert any(name.startswith("test_") for name in vars(module))
