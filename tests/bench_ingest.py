"""Stage microbenchmark: ``load_matrix`` on a 20000x20000 file with 200k nonzeros.

The same seeded matrix is written once as Matrix Market (values at 17
significant digits) and once as bag-of-words triplets (integer counts), the
row-major layout both writers produce. The tracemalloc peak of one more
call, apart from the timed ones, goes to ``benchmark.extra_info["peak_mib"]``.
The file name keeps it out of the test suite; run it with

    PYTHONPATH=src python -m pytest tests/bench_ingest.py --benchmark-only
"""

import tracemalloc

import numpy as np
import pytest

from sketchlr import SparseMatrix, load_matrix, write_matrix_market

M = N = 20000
NNZ = 200_000


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    gen = np.random.default_rng(20000)
    flat = np.sort(gen.choice(M * N, size=NNZ, replace=False))
    rows, cols = flat // N, flat % N
    base = tmp_path_factory.mktemp("ingest")
    mtx = base / "a.mtx"
    write_matrix_market(mtx, SparseMatrix(M, N, rows, cols, 1.0 - gen.random(NNZ)))
    bow = base / "a.bow"
    counts = gen.integers(1, 50, NNZ)
    body = "".join(f"{i} {j} {c}\n" for i, j, c in zip(rows + 1, cols + 1, counts))
    bow.write_text(f"{M}\n{N}\n{NNZ}\n" + body)
    return {"matrix_market": mtx, "bag_of_words_triplets": bow}


def _peak_mib(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["matrix_market", "bag_of_words_triplets"])
def test_load_matrix(benchmark, files, fmt):
    mat = benchmark(load_matrix, files[fmt], fmt)
    assert mat.shape == (M, N) and mat.nnz == NNZ
    benchmark.extra_info["peak_mib"] = _peak_mib(lambda: load_matrix(files[fmt], fmt))
