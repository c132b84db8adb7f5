"""Stage microbenchmark: the row sampler as the solver calls it, and its score kernels.

``build_row_sampler`` is timed at default constants on the matrix the solver
passes it, read in place: full_desk's 1200x900 with 32400 nonzeros at k=5,
eps=0.5, eta=0.3 (619 rows drawn), and perfbench's 100000x400 with 1M
nonzeros (generator seed 900) at k=2, eps=0.5 and the p=1 plan's eta. The
kernel that scored the rows (``norms`` when the squared row norms certify
the ridge scores, else ``sketched`` or ``exact``) goes to
``benchmark.extra_info["scores"]``, and the tracemalloc peak of one more
call, apart from the timed ones, to ``benchmark.extra_info["peak_mib"]``.

The sketched and exact ridge scores of the rows are timed through their
public reference functions on a transposed copy of the same matrix, made
outside the timing: ``sketched_ridge_leverage_scores`` on the score sketch
of ``w = ceil(c_lev (k + eps/eta))`` columns the sampler would draw
(w=54 at 1200x900, w=272 at 100000x400), and ``ridge_leverage_scores``
from the Gram matrix of the smaller side. The file name keeps it out of the
test suite; run it with

    PYTHONPATH=src python -m pytest tests/bench_scores.py --benchmark-only
"""

import math
import tracemalloc

import pytest

from perfbench.inputs import sparse_triplets
from sketchlr import RandomStream, SketchConstants, SparseMatrix
from sketchlr.rng import generator_from_seed
from sketchlr.sketches import (
    build_row_sampler,
    make_sketch_plan,
    ridge_leverage_scores,
    sketched_ridge_leverage_scores,
)

EPS = 0.5


def _input(m, n, nnz, seed):
    return SparseMatrix(m, n, *sparse_triplets(m, n, nnz, seed))


@pytest.fixture(scope="module", params=["1200x900", "100000x400"])
def case(request):
    if request.param == "1200x900":
        return _input(1200, 900, 32400, 1200), 5, 0.3
    a = _input(100_000, 400, 1_000_000, 900)
    return a, 2, make_sketch_plan(*a.shape, 2, EPS, 1.0).eta1


def _peak_mib(call):
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_build_row_sampler(benchmark, case):
    a, k, eta = case

    def build():
        return build_row_sampler(a, k, EPS, eta, RandomStream(7))

    sk, benchmark.extra_info["peak_mib"] = _peak_mib(build)
    benchmark.extra_info["rows_drawn"] = sk.sample_count
    benchmark.extra_info["scores"] = sk.score_kernel
    assert not sk.clipped
    assert benchmark(build).indices.tobytes() == sk.indices.tobytes()


@pytest.mark.parametrize("kernel", ["sketched", "exact"])
def test_score_kernel(benchmark, case, kernel):
    a, k, eta = case
    at = a.transpose()
    width = math.ceil(SketchConstants().c_lev * (k + EPS / eta))

    def score():
        if kernel == "exact":
            return ridge_leverage_scores(at, k, eta / EPS)
        return sketched_ridge_leverage_scores(at, k, eta / EPS, width, generator_from_seed(7))

    tau, benchmark.extra_info["peak_mib"] = _peak_mib(score)
    benchmark.extra_info["width"] = width
    assert tau.shape == (a.nrows,)
    assert benchmark(score).tobytes() == tau.tobytes()
