"""Shared helpers for the test suite: seeded generators and random matrices."""

from unittest import mock

import numpy as np
import pytest

import sketchlr.sketches as sketches
from sketchlr import OracleScorer, ScalarLoss, SparseMatrix, phi_objective, schatten_norm


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


@pytest.fixture
def gen() -> np.random.Generator:
    return make_gen()
