"""Stage microbenchmark: the sketched regression with and without a formed AR.

The input is a 1200x900 matrix with 32400 nonzeros and a random orthonormal
900x5 basis Z, at the regression widths r_embed = 400 and 773 that
``make_sketch_plan`` gives a 1200x900 input at k=5, eps=0.5 for p=1 and
p=3. The reference forms the dense ``m x r_embed`` AR and solves
``lstsq((Z^T R)^T, (AR)^T)``; ``solve_regression_sketched`` computes the same
minimizer as ``A (R (Z^T R)^+)``. The file name keeps it out of the test
suite; run it with

    PYTHONPATH=src python -m pytest tests/bench_regression.py --benchmark-only
"""

import numpy as np
import pytest

from sketchlr import RandomStream, SparseMatrix, solve_regression_sketched
from sketchlr.sketches import apply_countsketch_right, build_countsketch

K = 5
WIDTHS = [400, 773]


@pytest.fixture(scope="module")
def problem() -> tuple[SparseMatrix, np.ndarray]:
    m, n, nnz = 1200, 900, 32400
    gen = np.random.default_rng(1200)
    flat = gen.choice(m * n, size=nnz, replace=False)
    a = SparseMatrix(m, n, flat // n, flat % n, 1.0 - gen.random(nnz))
    z, _ = np.linalg.qr(gen.standard_normal((n, K)))
    return a, z


def formed_ar(a, z, r_embed):
    r_op = build_countsketch(a.ncols, r_embed, RandomStream(7))
    ar = apply_countsketch_right(a, r_op)
    zr = apply_countsketch_right(z.T, r_op)
    return np.linalg.lstsq(zr.T, ar.T, rcond=None)[0].T


@pytest.mark.parametrize("r_embed", WIDTHS)
def test_formed_ar_lstsq(benchmark, problem, r_embed):
    benchmark(formed_ar, *problem, r_embed)


@pytest.mark.parametrize("r_embed", WIDTHS)
def test_reassociated(benchmark, problem, r_embed):
    a, z = problem
    benchmark(lambda: solve_regression_sketched(a, z, r_embed, RandomStream(7)))
