"""Stage microbenchmark: the row sampler, by sketched and by exact ridge scores.

``build_row_sampler`` is timed on the matrix the solver passes it, read in
place: full_desk's 1200x900 with 32400 nonzeros at k=5, eps=0.5, eta=0.3
(a score sketch of w=54 columns, 618 rows drawn), and perfbench's
100000x400 with 1M nonzeros (generator seed 900) at k=2, eps=0.5 and the
p=1 plan's eta (w=272). ``exact`` raises c_lev so the sketch would not be
narrower than the input and the exact Gram-side scores run instead. The
tracemalloc peak of one more call, apart from the timed ones, goes to
``benchmark.extra_info["peak_mib"]``. The file name keeps it out of the
test suite; run it with

    PYTHONPATH=src python -m pytest tests/bench_scores.py --benchmark-only
"""

import tracemalloc

import pytest

from perfbench.inputs import sparse_triplets
from sketchlr import RandomStream, SketchConstants, SparseMatrix
from sketchlr.sketches import build_row_sampler, make_sketch_plan

EPS = 0.5
PATHS = {"sketched": SketchConstants(), "exact": SketchConstants(c_lev=1e4)}


def _input(m, n, nnz, seed):
    return SparseMatrix(m, n, *sparse_triplets(m, n, nnz, seed))


@pytest.fixture(scope="module", params=["1200x900", "100000x400"])
def case(request):
    if request.param == "1200x900":
        return _input(1200, 900, 32400, 1200), 5, 0.3
    a = _input(100_000, 400, 1_000_000, 900)
    return a, 2, make_sketch_plan(*a.shape, 2, EPS, 1.0).eta1


@pytest.mark.parametrize("path", sorted(PATHS))
def test_build_row_sampler(benchmark, case, path):
    a, k, eta = case

    def build():
        return build_row_sampler(a, k, EPS, eta, RandomStream(7), PATHS[path])

    tracemalloc.start()
    try:
        sk = build()
        benchmark.extra_info["peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    benchmark.extra_info["rows_drawn"] = sk.sample_count
    assert not sk.clipped
    assert benchmark(build).indices.tobytes() == sk.indices.tobytes()
