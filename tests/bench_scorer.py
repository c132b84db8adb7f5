"""Stage microbenchmark: building the exact-error scorer and scoring one factor pair.

``OracleScorer(a)`` and one ``residual_spectrum`` are timed at bench_oracle's
800x600 shape (24000 nonzeros, k=20) and at a tall-skinny 20000x400 with
200000 nonzeros, where applying Q^T by ``dormqr`` costs more per score than
two products with an explicit Q would, and the in-place build saves more.
The factor pairs are seeded Gaussians; only their shapes matter to the time.
The file name keeps it out of the test suite; run it with

    PYTHONPATH=src python -m pytest tests/bench_scorer.py --benchmark-only
"""

import numpy as np
import pytest

from sketchlr import SparseMatrix
from sketchlr.solver import OracleScorer

SHAPES = [(800, 600, 24_000), (20_000, 400, 200_000)]
K = 20


def _seeded(m, n, nnz, seed):
    gen = np.random.default_rng(seed)
    flat = np.sort(gen.choice(m * n, size=nnz, replace=False))
    return SparseMatrix(m, n, flat // n, flat % n, 1.0 - gen.random(nnz))


@pytest.fixture(scope="module", params=SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def scored(request):
    m, n, nnz = request.param
    gen = np.random.default_rng(m + n)
    z = np.linalg.qr(gen.standard_normal((n, K)))[0]
    return _seeded(m, n, nnz, m), gen.standard_normal((m, K)), z


def test_build(benchmark, scored):
    a = scored[0]
    scorer = benchmark(OracleScorer, a)
    assert scorer.spectrum.shape == (min(a.shape),)


def test_residual_spectrum(benchmark, scored):
    a, y, z = scored
    sigma = benchmark(OracleScorer(a).residual_spectrum, y, z)
    assert sigma.shape == (min(a.shape),)
