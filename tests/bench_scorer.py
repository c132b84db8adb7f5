"""Stage microbenchmark: building the exact-error scorer and scoring one factor pair.

``OracleScorer(a)`` and one ``residual_spectrum`` are timed at bench_oracle's
800x600 shape (24000 nonzeros), at a tall-skinny 20000x400 with 200000
nonzeros, and at perfbench's 100000x400 with 1M nonzeros (generator seed
900), where the build's cost in m shows. A trial is timed at each of
bench_oracle's ranks, k = 5, 10 and 20. Each factor pair is a
projection, ``(A Z, Z)`` for a seeded orthonormal Z, the form every solve
returns; only its shape matters to the time. The tracemalloc peak of one
more call, apart from the timed ones, goes to
``benchmark.extra_info["peak_mib"]``, and the traced bytes the build leaves
held, the scorer's own, to ``["held_mib"]``. The file name keeps it out of
the test suite; run it with

    PYTHONPATH=src python -m pytest tests/bench_scorer.py --benchmark-only
"""

import tracemalloc

import numpy as np
import pytest

from perfbench.inputs import sparse_triplets
from sketchlr import SparseMatrix
from sketchlr.solver import OracleScorer

SHAPES = [(800, 600, 24_000), (20_000, 400, 200_000), (100_000, 400, 1_000_000)]
KS = [5, 10, 20]  # bench_oracle's k_list


def _seeded(m, n, nnz, seed):
    gen = np.random.default_rng(seed)
    flat = np.sort(gen.choice(m * n, size=nnz, replace=False))
    return SparseMatrix(m, n, flat // n, flat % n, 1.0 - gen.random(nnz))


def _traced_mib(call):
    """``call()``, the traced peak during it and the traced bytes left after it, in MiB."""
    tracemalloc.start()
    try:
        out = call()
        held, peak = tracemalloc.get_traced_memory()
        return out, peak / 2**20, held / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module", params=SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def matrix(request):
    m, n, nnz = request.param
    if m == 100_000:
        return SparseMatrix(m, n, *sparse_triplets(m, n, nnz, 900))
    return _seeded(m, n, nnz, m)


def test_build(benchmark, matrix):
    a = matrix
    info = benchmark.extra_info
    scorer, info["peak_mib"], info["held_mib"] = _traced_mib(lambda: OracleScorer(a))
    assert benchmark(OracleScorer, a).spectrum.tobytes() == scorer.spectrum.tobytes()


@pytest.mark.parametrize("k", KS)
def test_residual_spectrum(benchmark, matrix, k):
    a = matrix
    m, n = a.shape
    z = np.linalg.qr(np.random.default_rng(m + n).standard_normal((n, k)))[0]
    y = a.csr @ z
    scorer = OracleScorer(a)
    sigma, benchmark.extra_info["peak_mib"], _ = _traced_mib(
        lambda: scorer.residual_spectrum(y, z)
    )
    assert sigma.shape == (min(a.shape),)
    assert benchmark(scorer.residual_spectrum, y, z).tobytes() == sigma.tobytes()
