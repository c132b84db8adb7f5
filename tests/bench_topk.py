"""Stage microbenchmark: the top-k kernel and the CountSketch that feeds it.

``top_singular`` is timed on the two shapes the benchmark workloads give it:
the dense 100x20000 CountSketch ``SA`` of a seeded 20000x20000 matrix with
200k nonzeros at k=10 (simplified mode), and a sparse 1200x900 ``SA`` with
32400 nonzeros at k=5 (a clipped row sample); the tall 20000x100 ``SA^T``
times the other dense branch. ``apply_countsketch_left`` is
timed on the 20000x20000 input. The file name keeps it out of the test
suite; run it with

    PYTHONPATH=src python -m pytest tests/bench_topk.py --benchmark-only
"""

import numpy as np
import pytest

from sketchlr import RandomStream, SparseMatrix, build_countsketch
from sketchlr.matrixcore import top_singular
from sketchlr.sketches import apply_countsketch_left


def _seeded(m, n, nnz, seed):
    gen = np.random.default_rng(seed)
    flat = np.sort(gen.choice(m * n, size=nnz, replace=False))
    return SparseMatrix(m, n, flat // n, flat % n, 1.0 - gen.random(nnz))


@pytest.fixture(scope="module")
def large():
    a = _seeded(20000, 20000, 200_000, 20000)
    return a, build_countsketch(a.nrows, 10 * 10, RandomStream(7))


def test_countsketch_left(benchmark, large):
    a, op = large
    sa = benchmark(apply_countsketch_left, a, op)
    assert sa.shape == (100, 20000)


def test_top_singular_dense_sa(benchmark, large):
    sa = apply_countsketch_left(*large)
    res = benchmark(top_singular, sa, 10)
    assert res.v.shape == (20000, 10)


def test_top_singular_dense_tall_sa(benchmark, large):
    sat = np.ascontiguousarray(apply_countsketch_left(*large).T)
    res = benchmark(top_singular, sat, 10)
    assert res.u.shape == (20000, 10)


def test_top_singular_sparse_sa(benchmark):
    sa = _seeded(1200, 900, 32400, 1200)
    res = benchmark(top_singular, sa, 5)
    assert res.v.shape == (900, 5)
