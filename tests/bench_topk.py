"""Stage microbenchmark: the top-k kernels and the CountSketch that feeds one.

The two kernels are timed on the shapes the benchmark workloads give them:
``top_singular`` on the dense 100x20000 CountSketch ``SA`` of a seeded
20000x20000 matrix with 200k nonzeros at k=10 and on the dense 400x600
``SA`` of an 800x600 matrix with 24000 nonzeros at k=20 (simplified mode,
the largest rank of the bench_oracle workload), and
``block_krylov`` at k=5 and the depth ``q = ceil(ln d / sqrt(eps))`` a
full_pipeline solve at eps=0.5 gives it, on two inputs: the sparse 1200x900
``SA`` with 32400 nonzeros that a clipped row sample passes through (the p=1
and p=3 solves, q=10), and the wide 112x900 row sample of it that a Huber
solve passes (taken from the solve itself, q=7): the norms certify a mass of
2.04, so the sampler draws 112 of its 617-row budget. A third
``block_krylov`` input is the clipped 199998x150 ``SA`` of a tall-skinny
200000x150 input with 2M nonzeros at k=20 (p=1, q=8): its ``(q + 1) k =
180`` columns reach the side ``d = 150``, so the space stops at all 150 and
its top-k is exact, from sparse products only; ``extra_info["solve_peak_mib"]``
holds the tracemalloc peak of that whole solve. Next to it, the exact route
on the same ``SA``: its sparse ``150 x 150`` Gram matrix ``SA^T SA`` and an
``eigh``. The Gram matrix costs 27 times fewer multiply-adds than the
capped Krylov space, but scipy's sparse-sparse product spends all of that
saving: with one OpenBLAS thread on a 2-core VM the exact route took
383-429 ms against 337-343 ms for ``block_krylov``; ``extra_info["sigma_gap"]``
holds the largest gap between the two routes' sigma, relative to sigma_1
(2.9e-16). The tall 20000x100
``SA^T`` times the other dense branch of ``top_singular``.
``apply_countsketch_left`` is timed on the 20000x20000 input. For it, the
simplified-mode top-k of the 100x20000 and 400x600 ``SA`` and the clipped
tall-skinny ``SA``, the tracemalloc peak of one more call, apart from the
timed ones, goes to ``benchmark.extra_info["peak_mib"]``. The file name
keeps it out of the test suite; run it with

    PYTHONPATH=src python -m pytest tests/bench_topk.py --benchmark-only
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from perfbench.inputs import sparse_triplets
from sketchlr import RandomStream, SparseMatrix, build_countsketch, parse_loss, solver
from sketchlr.matrixcore import block_krylov, top_singular
from sketchlr.sketches import apply_countsketch_left

def _depth(d):
    return math.ceil(math.log(d) / math.sqrt(0.5))


def _peak_mib(call):
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


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
    sa, benchmark.extra_info["peak_mib"] = _peak_mib(lambda: apply_countsketch_left(a, op))
    assert benchmark(apply_countsketch_left, a, op).tobytes() == sa.tobytes()
    assert sa.shape == (100, 20000)


def test_top_singular_dense_sa(benchmark, large):
    sa = apply_countsketch_left(*large)
    _, benchmark.extra_info["peak_mib"] = _peak_mib(lambda: top_singular(sa, 10))
    sigma, v = benchmark(top_singular, sa, 10)
    assert v.shape == (20000, 10)


def test_top_singular_dense_sa_bench_oracle_shape(benchmark):
    a = SparseMatrix(800, 600, *sparse_triplets(800, 600, 24000, 800))
    sa = apply_countsketch_left(a, build_countsketch(800, 20 * 20, RandomStream(7)))
    assert sa.shape == (400, 600)
    _, benchmark.extra_info["peak_mib"] = _peak_mib(lambda: top_singular(sa, 20))
    sigma, v = benchmark(top_singular, sa, 20)
    assert v.shape == (600, 20)


def test_top_singular_dense_tall_sa(benchmark, large):
    sat = np.ascontiguousarray(apply_countsketch_left(*large).T)
    sigma, v = benchmark(top_singular, sat, 10)
    assert v.shape == (100, 10)


def test_block_krylov_sparse_sa(benchmark):
    sa = _seeded(1200, 900, 32400, 1200)
    sigma, v = benchmark(block_krylov, sa, 5, _depth(900))
    assert v.shape == (900, 5)


def test_block_krylov_wide_huber_sample(benchmark):
    a = _seeded(1200, 900, 32400, 1200)
    with mock.patch.object(solver, "block_krylov", wraps=block_krylov) as spy:
        rep = solver.solve_generalized(a, 5, parse_loss("huber:1.0"), 0.5, RandomStream(19))
    sa, k, depth = spy.call_args.args[:3]
    assert rep.plan.s_rows == 617 and rep.score_kernel == "norms"
    assert sa.shape == (rep.rows_drawn, 900) == (112, 900)
    assert (k, depth) == (5, _depth(112))
    sigma, v = benchmark(block_krylov, sa, k, depth)
    assert v.shape == (900, 5)


@pytest.fixture(scope="module")
def clipped_tall_skinny():
    """The clipped ``SA`` a full_pipeline solve passes ``block_krylov``, its k and
    depth, and the tracemalloc peak of that solve."""
    a = SparseMatrix(200000, 150, *sparse_triplets(200000, 150, 2_000_000, 900))
    with mock.patch.object(solver, "block_krylov", wraps=block_krylov) as spy:
        rep, solve_peak = _peak_mib(lambda: solver.solve_schatten(a, 20, 1.0, 0.5, RandomStream(1)))
    sa, k, depth = spy.call_args.args[:3]
    assert rep.clipped and sa.shape == (rep.rows_drawn, 150) == (199998, 150)
    assert (k, depth) == (20, _depth(150))
    return sa, k, depth, solve_peak


def test_block_krylov_clipped_tall_skinny_sa(benchmark, clipped_tall_skinny):
    sa, k, depth, benchmark.extra_info["solve_peak_mib"] = clipped_tall_skinny
    _, benchmark.extra_info["peak_mib"] = _peak_mib(lambda: block_krylov(sa, k, depth))
    sigma, v = benchmark(block_krylov, sa, k, depth)
    assert v.shape == (150, 20)


def _sparse_gram_top(x, k):
    """Top-k singular values of a tall sparse ``x`` from an ``eigh`` of its exact Gram matrix."""
    gram = (x.T @ x).toarray()
    d = gram.shape[0]
    return np.sqrt(scipy.linalg.eigh(gram, eigvals_only=True, subset_by_index=[d - k, d - 1])[::-1])


def test_sparse_gram_clipped_tall_skinny_sa(benchmark, clipped_tall_skinny):
    sa, k, depth, _ = clipped_tall_skinny
    sigma = benchmark(_sparse_gram_top, sa.csr, k)
    krylov = block_krylov(sa, k, depth)[0]
    benchmark.extra_info["sigma_gap"] = float(np.max(np.abs(sigma - krylov)) / krylov[0])
    assert benchmark.extra_info["sigma_gap"] <= 1e-12
