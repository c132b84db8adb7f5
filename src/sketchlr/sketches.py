"""Randomized sketch operators: CountSketch embeddings and leverage samplers.

All operators are immutable, record the 64-bit seed they were drawn from, and
are rebuilt bit-exactly from (dims, seed). Applications are pure and report
their exact multiply-add counts through an optional counter.

The fast recursive constructions behind the sampling sketches are replaced by
exact ridge leverage scores, computed from an eigendecomposition of the Gram
matrix of the smaller side. This preserves the spectral guarantees at the
cost of the asymptotic construction time. A sampler whose budget covers every
nonzero column needs no scores at all and factorizes nothing.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .matrixcore import (
    DENSE_GUARD,
    MultiplyAddCounter,
    SparseMatrix,
    _check_dense,
    svd,  # noqa: F401  (stays importable as sketches.svd; perfbench's tests read it)
)
from .rng import RandomStream, generator_from_seed

MODES = ("full_pipeline", "simplified_experiment")


@dataclass(frozen=True)
class SketchConstants:
    """Tunable constants behind the Theta(.) sketch-dimension formulas.

    Defaults are calibrated so the desk-scale acceptance suite passes. The
    overall failure budget is split uniformly across the S, T and R sketches;
    the source analysis only fixes per-sketch constant success probabilities.
    """

    c1: float = 1.0  # eta1 scale
    c2: float = 1.0  # eta2 scale
    c_s: float = 8.0  # row/column sample count
    c_t: float = 4.0  # subspace-embedding width
    c_r: float = 4.0  # regression embedding width
    c3: float = 1.0  # eta1 scale for generalized losses


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
class IdentitySketch:
    """Pass-through stand-in used when a sketch width reaches its input size."""

    dim: int

    @property
    def input_dim(self) -> int:
        return self.dim

    @property
    def sketch_dim(self) -> int:
        return self.dim


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


def apply_countsketch_right(
    a, op, counter: MultiplyAddCounter | None = None
) -> np.ndarray:
    """``A @ R`` as a dense array; costs exactly one MAC per stored entry of A."""
    ncols = a.ncols if isinstance(a, SparseMatrix) else np.asarray(a).shape[1]
    if isinstance(op, IdentitySketch):
        if ncols != op.dim:
            raise ValueError(f"dimension mismatch: {ncols} columns vs sketch {op.dim}")
        return a.to_dense() if isinstance(a, SparseMatrix) else np.asarray(a, float)
    if ncols != op.input_dim:
        raise ValueError(
            f"dimension mismatch: {ncols} columns vs sketch input {op.input_dim}"
        )
    if counter is not None:
        counter.add(_operand_nnz(a))
    r = op.matrix()
    if isinstance(a, SparseMatrix):
        return (a.csr @ r).toarray()
    a = np.asarray(a, dtype=np.float64)
    return (r.T @ a.T).T


def apply_countsketch_left(
    a, op, counter: MultiplyAddCounter | None = None
) -> np.ndarray:
    """``R^T @ A`` as a dense array (the left-sketch ``SA`` with ``S = R^T``)."""
    nrows = a.nrows if isinstance(a, SparseMatrix) else np.asarray(a).shape[0]
    if isinstance(op, IdentitySketch):
        if nrows != op.dim:
            raise ValueError(f"dimension mismatch: {nrows} rows vs sketch {op.dim}")
        return a.to_dense() if isinstance(a, SparseMatrix) else np.asarray(a, float)
    if nrows != op.input_dim:
        raise ValueError(
            f"dimension mismatch: {nrows} rows vs sketch input {op.input_dim}"
        )
    if counter is not None:
        counter.add(_operand_nnz(a))
    rt = op.matrix().T
    if isinstance(a, SparseMatrix):
        return (rt @ a.csr).toarray()
    return rt @ np.asarray(a, dtype=np.float64)


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
    rounding tail at zero. Refuses, before building any dense array, when the
    Gram matrix would exceed ``DENSE_GUARD``.
    """
    m, n = a.shape
    d = min(m, n)
    if d > DENSE_GUARD:
        raise ValueError(
            f"exact leverage scores need a dense {d}x{d} Gram matrix; min dim {d} "
            f"exceeds the guard {DENSE_GUARD}"
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
) -> SamplingSketch:
    """Column sampler whose rescaled samples C satisfy the two-sided bound
    ``(1-eps) A A^T - eta * ||A - A_k||_F^2 I <= C C^T <= (1+eps) A A^T + ...``.

    When the sample budget covers every structurally nonzero column, the
    sketch keeps all of them with unit weight (``clipped``), which satisfies
    the bound exactly; this path densifies and factorizes nothing. Otherwise
    sampling probabilities are proportional to the exact ridge leverage
    scores of :func:`ridge_leverage_scores` with ridge
    ``(eta/eps) * ||A - A_k||_F^2``, whose total mass is at most
    ``k + eps/eta``, and samples are drawn without replacement. The zero
    matrix gets a uniform sample (``degenerate``).
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
        tau = ridge_leverage_scores(a, k, eta / eps)
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
) -> SamplingSketch:
    """Row sampler: the column sampler applied to the transposed matrix."""
    at = a.transpose() if isinstance(a, SparseMatrix) else np.asarray(a, float).T
    return build_column_sampler(at, k, eps, eta, stream, constants)


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
) -> np.ndarray:
    """Select and rescale the sampled rows; one MAC per retained entry."""
    nrows = a.nrows if isinstance(a, SparseMatrix) else np.asarray(a).shape[0]
    if nrows != sk.source_dim:
        raise ValueError(f"dimension mismatch: {nrows} rows vs sampler {sk.source_dim}")
    if isinstance(a, SparseMatrix):
        sub = a.csr[sk.indices, :]
        if counter is not None:
            counter.add(sub.nnz)
        return sub.toarray() * sk.weights[:, None]
    a = np.asarray(a, dtype=np.float64)
    if counter is not None:
        counter.add(a.shape[1] * sk.sample_count)
    return a[sk.indices, :] * sk.weights[:, None]


def build_row_sampler_T(
    sa: np.ndarray,
    eps: float,
    stream: RandomStream,
    mode: str = "full_pipeline",
    constants: SketchConstants = DEFAULT_CONSTANTS,
):
    """Right-applied subspace embedding for the row space of ``sa``.

    Realized as a CountSketch of width ``ceil(c_t * s (1 + ln s) / eps^2)``
    (any oblivious subspace embedding works here). Returns an
    :class:`IdentitySketch` when the width reaches the number of columns,
    or always in simplified-experiment mode.
    """
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must lie in (0, 1/2], got {eps}")
    sa = _check_dense(sa, "sketched matrix")
    s, n = sa.shape
    if mode == "simplified_experiment":
        return IdentitySketch(n)
    t_cols = int(math.ceil(constants.c_t * s * (1.0 + math.log(s)) / (eps * eps)))
    if t_cols >= n:
        return IdentitySketch(n)
    return build_countsketch(n, t_cols, stream)


@dataclass(frozen=True)
class SketchPlan:
    """Sketch dimensions and error splits for one solve.

    ``t_cols``/``r_embed`` of ``None`` mark identity pass-throughs (always
    the case in simplified-experiment mode).
    """

    eta1: float
    eta2: float
    r_kyfan: int
    s_rows: int
    t_cols: int | None
    r_embed: int | None
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

    The additive error splits are
    ``eta1 = c1 (eps^2/k)^{2/p}``, ``eta2 = c2 eps^2 / k^{2/p-1}`` for p < 2 and
    ``eta1 = c1 eps^{1+2/p} / (k^{2/p} n^{1-2/p})``,
    ``eta2 = c2 eps^2 / n^{1-2/p}`` for p >= 2.
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
        eta1 = constants.c1 * (eps * eps / k) ** (2.0 / p)
        eta2 = constants.c2 * eps * eps / k ** (2.0 / p - 1.0)
    else:
        eta1 = constants.c1 * eps ** (1.0 + 2.0 / p) / (
            k ** (2.0 / p) * n ** (1.0 - 2.0 / p)
        )
        eta2 = constants.c2 * eps * eps / n ** (1.0 - 2.0 / p)
    eta1 = min(eta1, 1.0)
    eta2 = min(eta2, 1.0)
    r_kyfan = int(math.ceil(k / eps))

    if mode == "simplified_experiment":
        return SketchPlan(
            eta1=eta1,
            eta2=eta2,
            r_kyfan=r_kyfan,
            s_rows=k * k,
            t_cols=None,
            r_embed=None,
            mode=mode,
        )
    s_rows = min(sample_count(k, eps, eta1, constants.c_s), m)
    t_cols = int(
        math.ceil(constants.c_t * s_rows * (1.0 + math.log(s_rows)) / (eps * eps))
    )
    r_embed = int(math.ceil(constants.c_r * k / eta2))
    return SketchPlan(
        eta1=eta1,
        eta2=eta2,
        r_kyfan=r_kyfan,
        s_rows=s_rows,
        t_cols=t_cols,
        r_embed=r_embed,
        mode=mode,
    )
