"""Stage microbenchmark: exact against sketched ridge leverage scores.

The input is the row sampler's view of a 1200x900 matrix with 32400
nonzeros (its 900x1200 transpose), at k=5, eps=0.5, eta=0.3, which gives a
score sketch of w=54 columns. The file name keeps it out of the test suite;
run it with

    PYTHONPATH=src python -m pytest tests/bench_scores.py --benchmark-only
"""

import math

import numpy as np
import pytest

from sketchlr import SketchConstants, SparseMatrix
from sketchlr.rng import generator_from_seed
from sketchlr.sketches import ridge_leverage_scores, sketched_ridge_leverage_scores

K, EPS, ETA = 5, 0.5, 0.3
WIDTH = math.ceil(SketchConstants().c_lev * (K + EPS / ETA))


@pytest.fixture(scope="module")
def rows() -> SparseMatrix:
    m, n, nnz = 1200, 900, 32400
    gen = np.random.default_rng(1200)
    flat = gen.choice(m * n, size=nnz, replace=False)
    return SparseMatrix(m, n, flat // n, flat % n, 1.0 - gen.random(nnz)).transpose()


def test_exact_scores(benchmark, rows):
    benchmark(ridge_leverage_scores, rows, K, ETA / EPS)


def test_sketched_scores(benchmark, rows):
    benchmark(
        lambda: sketched_ridge_leverage_scores(
            rows, K, ETA / EPS, WIDTH, generator_from_seed(7)
        )
    )
