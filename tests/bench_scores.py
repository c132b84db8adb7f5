"""Stage microbenchmark: the row sampler as the solver calls it.

``build_row_sampler`` is timed at the default ``c_s`` on the matrix the solver
passes it, read in place: full_desk's 1200x900 with 32400 nonzeros at k=5,
eps=0.5, eta=0.3 (a 619-row budget; the norms certify a mass of 2.05, so
113 rows are drawn), and perfbench's 100000x400 with 1M nonzeros
(generator seed 900) at k=2, eps=0.5 and the p=1 plan's eta. On both the
squared row norms certify the ridge scores. The third input is the
100000x400 one under a planted head (``conftest.plant_head``), which fails
the norm certificate, so the Krylov scores run. The kernel that scored the
rows goes to ``benchmark.extra_info["scores"]``, the rows it drew and the
mass that sized them to ``"rows_drawn"`` and ``"mass"``, and the
tracemalloc peak of one more call, apart from the timed ones, to
``benchmark.extra_info["peak_mib"]``. The file name keeps it out of the
test suite; run it with

    PYTHONPATH=src python -m pytest tests/bench_scores.py --benchmark-only
"""

import tracemalloc

import pytest
from conftest import plant_head

from perfbench.inputs import sparse_triplets
from sketchlr import RandomStream, SparseMatrix
from sketchlr.sketches import build_row_sampler, make_sketch_plan

EPS = 0.5


def _input(m, n, nnz, seed):
    return SparseMatrix(m, n, *sparse_triplets(m, n, nnz, seed))


@pytest.fixture(scope="module", params=["1200x900", "100000x400", "100000x400-planted"])
def case(request):
    if request.param == "1200x900":
        return _input(1200, 900, 32400, 1200), 5, 0.3, "norms"
    a = _input(100_000, 400, 1_000_000, 900)
    eta = make_sketch_plan(*a.shape, 2, EPS, 1.0).eta1
    if request.param == "100000x400":
        return a, 2, eta, "norms"
    return plant_head(a), 2, eta, "krylov"


def _peak_mib(call):
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_build_row_sampler(benchmark, case):
    a, k, eta, kernel = case

    def build():
        return build_row_sampler(a, k, EPS, eta, RandomStream(7))

    sk, benchmark.extra_info["peak_mib"] = _peak_mib(build)
    benchmark.extra_info["rows_drawn"] = sk.sample_count
    benchmark.extra_info["mass"] = sk.mass
    benchmark.extra_info["scores"] = sk.score_kernel
    assert not sk.clipped and sk.score_kernel == kernel
    assert benchmark(build).indices.tobytes() == sk.indices.tobytes()
