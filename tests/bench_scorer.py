"""Stage microbenchmark: building the exact-error scorer and scoring one factor pair.

``OracleScorer(a)`` and one ``residual_spectrum`` are timed at bench_oracle's
800x600 shape (24000 nonzeros, k=20), at a tall-skinny 20000x400 with
200000 nonzeros, and at perfbench's 100000x400 with 1M nonzeros (generator
seed 900), where the build's cost in m shows. Each factor pair is a
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
K = 20


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
def scored(request):
    m, n, nnz = request.param
    if m == 100_000:
        a = SparseMatrix(m, n, *sparse_triplets(m, n, nnz, 900))
    else:
        a = _seeded(m, n, nnz, m)
    z = np.linalg.qr(np.random.default_rng(m + n).standard_normal((n, K)))[0]
    return a, a.csr @ z, z


def test_build(benchmark, scored):
    a = scored[0]
    info = benchmark.extra_info
    scorer, info["peak_mib"], info["held_mib"] = _traced_mib(lambda: OracleScorer(a))
    assert benchmark(OracleScorer, a).spectrum.tobytes() == scorer.spectrum.tobytes()


def test_residual_spectrum(benchmark, scored):
    a, y, z = scored
    scorer = OracleScorer(a)
    sigma, benchmark.extra_info["peak_mib"], _ = _traced_mib(
        lambda: scorer.residual_spectrum(y, z)
    )
    assert sigma.shape == (min(a.shape),)
    assert benchmark(scorer.residual_spectrum, y, z).tobytes() == sigma.tobytes()
