"""Shared helpers for the test suite: seeded generators, random matrices and the
dense references (spectra, best rank-k factors, exact ridge leverage scores)
that the tests compare the package's kernels against."""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import sketchlr.sketches as sketches
from sketchlr import (
    CountSketchOperator,
    LowRankFactors,
    OracleScorer,
    ScalarLoss,
    SparseMatrix,
    phi_objective,
    schatten_norm,
    svd,
)


def make_gen(seed: int = 20240817) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_orthonormal(gen: np.random.Generator, n: int, k: int) -> np.ndarray:
    q, _ = np.linalg.qr(gen.standard_normal((n, k)))
    return q


def random_rank_k(gen: np.random.Generator, m: int, n: int, k: int) -> np.ndarray:
    return gen.standard_normal((m, k)) @ gen.standard_normal((k, n))


def random_sparse(
    gen: np.random.Generator, m: int, n: int, density: float = 0.2
) -> SparseMatrix:
    mask = gen.random((m, n)) < density
    vals = gen.standard_normal((m, n))
    dense = np.where(mask & (vals != 0.0), vals, 0.0)
    return SparseMatrix.from_dense(dense)


def lowrank_plus_noise(
    gen: np.random.Generator, m: int, n: int, rank: int, noise: float = 0.05
) -> np.ndarray:
    core = gen.standard_normal((m, rank)) @ gen.standard_normal((rank, n)) / np.sqrt(rank)
    return core + noise * gen.standard_normal((m, n))


def plant_head(a: SparseMatrix) -> SparseMatrix:
    """``a`` with its leading 5x5 block set to 100.

    The block is a dominant rank-one part, so the squared row norms no longer
    certify the ridge leverage scores (``sketches.build_row_sampler``) and the
    row sampler scores by the Krylov kernel.
    """
    size, scale = 5, 100.0
    rows, cols, vals = a.triplets()
    keep = (rows >= size) | (cols >= size)
    head_rows, head_cols = np.divmod(np.arange(size * size), size)
    return SparseMatrix(
        a.nrows,
        a.ncols,
        np.concatenate([rows[keep], head_rows]),
        np.concatenate([cols[keep], head_cols]),
        np.concatenate([vals[keep], np.full(size * size, scale)]),
    )


def sample_constant(c_s: float):
    """A context manager that sets the row sample constant ``sketches.C_S`` to ``c_s``.

    A small ``c_s`` makes the row sampler draw on inputs small enough for a
    test, where the default clips. It patches with ``mock.patch.object``
    rather than the ``monkeypatch`` fixture, which hypothesis refuses inside
    ``@given``.
    """
    return mock.patch.object(sketches, "C_S", c_s)


def oracle_error(a, rep, objective) -> float:
    """The exact relative error of a solve's factors against ``a``, as the harness scores it.

    ``objective`` is a Schatten order p or a :class:`~sketchlr.ScalarLoss`.
    """
    scorer = OracleScorer(a)
    if isinstance(objective, ScalarLoss):
        return scorer.relative_error(rep.factors, lambda s: phi_objective(s, objective))
    return scorer.relative_error(rep.factors, lambda s: schatten_norm(s, objective))


def singular_values(a) -> np.ndarray:
    """The singular values of a dense array, non-increasing: the exact reference spectrum."""
    return np.linalg.svd(np.asarray(a, dtype=np.float64), compute_uv=False)


def best_rank_k(a: np.ndarray, k: int) -> LowRankFactors:
    """The best rank-k factors of a dense ``a``, from its verified thin :func:`~sketchlr.svd`.

    ``y = u_k sigma_k`` and ``z = v_k``: optimal in every Schatten p-norm
    (Mirsky).
    """
    res = svd(a)
    if not 1 <= k <= res.sigma.size:
        raise ValueError(f"k must be in [1, {res.sigma.size}], got {k}")
    return LowRankFactors(y=res.u[:, :k] * res.sigma[:k], z=res.v[:, :k].copy(), k=k)


def ridge_leverage_scores(a, k: int, ridge_scale: float) -> np.ndarray:
    """Exact column ridge leverage scores ``a_j^T (A A^T + lam I)^+ a_j`` of a dense or sparse A.

    The ridge is ``lam = ridge_scale * ||A - A_k||_F^2``. Both the scores and
    the tail come from an eigendecomposition of the Gram matrix of the
    smaller side (``A A^T`` or ``A^T A``), formed from the sparse input.
    Eigenvalues below ``d * eps_mach * lambda_max`` count as null, which
    floors the rounding tail at zero.
    """
    x = (a if isinstance(a, SparseMatrix) else SparseMatrix.from_dense(a)).csr
    m, n = x.shape
    d = min(m, n)
    gram = (x @ x.T if m <= n else x.T @ x).toarray()
    lam, vecs = scipy.linalg.eigh(gram, overwrite_a=True, driver="evd")
    lam, vecs = lam[::-1], vecs[:, ::-1]
    lam = np.where(lam > d * np.finfo(float).eps * lam[0], lam, 0.0)
    ridge = ridge_scale * float(np.sum(lam[k:]))
    live = lam > 0.0
    lam, vecs = lam[live], vecs[:, live]
    if m <= n:
        # A A^T = U diag(lam) U^T: tau_j = sum_i (u_i^T a_j)^2 / (lam_i + ridge)
        return ((x.T @ vecs) ** 2) @ (1.0 / (lam + ridge))
    # A^T A = V diag(lam) V^T: tau_j = sum_i v_ji^2 lam_i / (lam_i + ridge)
    return (vecs**2) @ (lam / (lam + ridge))


def countsketch_matrix(op: CountSketchOperator) -> sp.csr_array:
    """The ``input_dim x sketch_dim`` matrix a CountSketch implies, as scipy sparse storage."""
    return sp.csr_array(
        (op.sign, (np.arange(op.input_dim), op.bucket)), shape=(op.input_dim, op.sketch_dim)
    )


def whole_sketch(sa):
    """A dense ``sa`` in the form :func:`~sketchlr.sketches.countsketch_columns` gives a
    sketch it holds whole: ``([sa], right, cost)``, with ``right(U) = sa^T U`` at ``cost``
    multiply-adds a column of U for a wide ``sa``, ``None`` for a tall one."""
    sa = np.ascontiguousarray(sa, dtype=np.float64)
    return [sa], (lambda u: (u.T @ sa).T) if sa.shape[0] < sa.shape[1] else None, sa.size


@pytest.fixture
def gen() -> np.random.Generator:
    return make_gen()
