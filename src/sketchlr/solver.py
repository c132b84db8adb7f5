"""Sketch-then-solve rank-k approximation under Schatten and generalized losses.

The pipeline for ``min_X ||A - X||_p`` over rank-k ``X``:

1. pick the additive error split eta1 and the sketch dimensions from
   :func:`sketchlr.sketches.make_sketch_plan`;
2. left-sketch ``A`` with a row sampler ``S`` whose Gram sandwich carries the
   eta1 additive term (a CountSketch of ``k^2`` rows in simplified mode);
3. take the top-k right block V of ``SA``: the Ritz vectors of a block
   Krylov space of depth ``q = ceil(ln d / sqrt(eps))``, ``d = min(SA.shape)``
   (:func:`~sketchlr.matrixcore.block_krylov`) in full_pipeline mode, on
   the sparse ``SA``, the exact :func:`~sketchlr.matrixcore.top_singular`
   on the dense CountSketch ``SA`` of simplified mode. The Krylov space
   stops at d, where its Rayleigh-Ritz step is exact, so no solve densifies
   its input or its sketch. ``Z`` is V cut at ``RANK_TOL``, put through one
   Cholesky-QR step and padded to k columns;
4. regress exactly: ``Y = A Z``, ``k nnz(A)`` multiply-adds. With Z
   orthonormal, ``A Z`` minimizes ``||A - Y Z^T||`` in every unitarily
   invariant norm, the Schatten norms included, because
   ``A - Y Z^T = A (I - Z Z^T) + (A Z - Y) Z^T`` and right-multiplying by
   the projector ``I - Z Z^T`` is a contraction. The source analysis's
   sketched regression, ``A (R (Z^T R)^+)`` for a CountSketch R, costs the
   same ``k nnz(A)`` and only adds error, so no solve runs it.

The source analysis right-sketches ``SA`` with a subspace embedding T so
that the SVD is of a small matrix. Block Krylov on the sparse ``SA`` costs
``2 k nnz(SA) <= 2 k nnz(A)`` multiply-adds a product with G, so T saves
nothing here and is not applied. The acceptance checks C6-C8 still test
the CountSketch and sampler properties the analysis rests on, through the
kernels the solves run (:mod:`sketchlr.sketches`).

:func:`solve_generalized` runs the same steps 2-4 with its own ``eta1``.
The returned pair never materializes ``Y @ Z.T``. Wide inputs are solved on
the transpose and the factors swapped back.
"""

import contextlib
import functools
import math
import time
from collections.abc import Hashable
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from .matrixcore import (
    DENSE_GUARD,
    RANK_TOL,
    SVD_TOL,
    LowRankFactors,
    MultiplyAddCounter,
    ScaleLimitError,
    SparseMatrix,
    _check_dense,
    _ensure_sparse,
    _singular_values,
    block_krylov,
    complete_basis,
    sparse_dense_multiply,
    svd,  # noqa: F401  (stays importable as solver.svd; perfbench's tests read it)
    top_singular,
)
from .norms import (
    ConditionReport,
    ScalarLoss,
    check_phi_conditions,
    cpe_constant,
    kyfan_pr_norm,
    schatten_norm,
)
from .rng import RandomStream
from .sketches import (
    SketchPlan,
    _ceil_count,
    _positive_split,
    _sized_plan,
    apply_countsketch_left,
    apply_row_sampler,
    build_countsketch,
    build_row_sampler,
    make_sketch_plan,
)

# relative threshold below which the optimal residual counts as zero and the
# reported error switches to residual / ||A|| instead of a 0/0 ratio
DEGENERATE_OPTIMUM_RTOL = 1e-12
# rows of the tall input OracleScorer densifies at a time to build its R, and
# rows of a trial's factor it multiplies at a time to score a pair
R_BLOCK_ROWS = 256


@dataclass
class SolveReport:
    """Factors plus the bookkeeping needed to audit one solve.

    Both solvers fill it in one shared body, so their reports have the same
    keys for the same stages. ``plan`` is the solve's
    :class:`~sketchlr.sketches.SketchPlan`, and ``condition_report`` is the
    loss-regularity report of a generalized solve, ``None`` otherwise.
    ``multiply_add_counts`` holds exact per-stage counts for the sketch
    applications and explicit factor products. ``krylov`` is the block
    Krylov top-k of a full_pipeline ``SA``, the products that ran:
    ``2 nnz(SA)`` for each basis column's product with the Gram matrix,
    ``2 k nnz(SA)`` for each of the ``q + 1`` blocks of a space that stops
    short of ``d = min(SA.shape)`` and ``2 d nnz(SA)`` in all for one that
    reaches it, plus ``min(k, d) nnz(SA)`` for ``SA^T U`` when ``SA`` is
    wide; ``krylov_depth`` is the rule's q, also for a space that reached
    d first, and ``ritz_values`` the ``min(k, d)`` Ritz values as singular
    values. In simplified mode the top-k is ``top_singular``:
    ``krylov_depth`` is ``None`` and ``wsa`` is ``U^T SA``, ``k s n`` for
    the dense ``s x n`` CountSketch ``SA``, which ``top_singular`` forms or
    checks. ``s_scores`` is the sparse work of
    the scores behind a sampled ``S`` (absent when none ran: ``S`` clipped
    on its row count, A is zero, or the solve is in simplified mode):
    ``3 nnz(A)`` for the squared row norms and the two
    products with ``|A|`` that test whether the norms certify the ridge
    scores, plus, when they do not, the Krylov overestimates:
    ``2 min((q' + 1) k, n) nnz(A)`` for a block Krylov space of A at depth
    ``q' = SCORE_DEPTH``, capped at its side n, and ``3 k nnz(A)`` for
    ``A Z``, ``W^T A`` and ``A V``
    (:func:`~sketchlr.sketches.build_row_sampler`).
    ``score_kernel`` names the kernel that scored the rows
    (:class:`~sketchlr.sketches.SamplingSketch`): ``"norms"``,
    ``"krylov"``, or ``None`` when none ran. ``score_mass`` is the total
    ``K*`` of its overestimates, which sized the sample at
    ``t(min(K, K*))`` rows, ``None`` when none ran. ``rows_drawn`` is the
    row count of ``SA``: the rows the sampler kept, at most the budget
    ``plan.s_rows = t(K)`` (capped at m), or ``s_rows`` in simplified mode.
    ``regression`` is ``k nnz(A)`` for ``Y = A Z``. Not counted: the
    factorizations (the ``eigh`` in ``top_singular``, of each block Krylov
    ``H`` and of the scores' ``k x k`` ``B B^T``, and the QR of ``A Z``),
    the products that feed them, the block Krylov basis work (three
    projections and two QRs a block, about ``3 d k^2 q^2`` multiply-adds,
    and ``Q S_k``) and the ``n k^2`` Cholesky-QR step on ``Z``.
    ``elapsed`` times the stages ``s_apply`` (scores included),
    ``svd_sat`` (the top-k of ``SA``) and ``regression``. The report holds
    no error: :class:`OracleScorer` scores the factors against the input.
    ``clipped`` flags a row sampler ``S`` that kept every nonzero row.
    ``fallback_used`` is always ``False``: the regression is exact and has
    no sketched row space to lose rank. It stays because benchmark records
    and trial CSVs read it.
    """

    factors: LowRankFactors
    plan: SketchPlan
    seeds: dict[str, int] = field(default_factory=dict)
    multiply_add_counts: dict[str, int] = field(default_factory=dict)
    elapsed: dict[str, float] = field(default_factory=dict)
    fallback_used: bool = False
    transposed: bool = False
    clipped: bool = False
    degenerate: bool = False
    warnings: tuple[str, ...] = ()
    condition_report: ConditionReport | None = None
    krylov_depth: int | None = None
    ritz_values: tuple[float, ...] = ()
    score_kernel: str | None = None
    score_mass: float | None = None
    rows_drawn: int = 0


@dataclass(frozen=True)
class DiagnosticReport:
    """Empirical check of the sketched Ky-Fan head preservation inequality."""

    p: float
    r: int
    eta1: float
    eps: float
    trials: int
    violations: int
    max_excess: float

    @property
    def violation_fraction(self) -> float:
        return self.violations / self.trials if self.trials else 0.0


def _guard_dense(shape: tuple[int, int]) -> None:
    if min(shape) > DENSE_GUARD:
        raise ScaleLimitError(
            f"dense factorization refused: min dimension {min(shape)} exceeds "
            f"the guard DENSE_GUARD={DENSE_GUARD}; run full_pipeline without the "
            "oracle flag (--oracle), which never densifies the input"
        )


def relative_error_from(resid_norm: float, opt_norm: float, matrix_norm: float) -> float:
    """``resid/opt - 1`` with a safe convention when the optimum is zero.

    When the optimal residual is numerically zero (below
    ``DEGENERATE_OPTIMUM_RTOL`` times the matrix norm) the ratio is undefined
    and the error is reported relative to the matrix norm instead.
    """
    if matrix_norm == 0.0:
        return 0.0
    if opt_norm <= DEGENERATE_OPTIMUM_RTOL * matrix_norm:
        return resid_norm / matrix_norm
    return resid_norm / opt_norm - 1.0


class OracleScorer:
    """Exact singular-value scores of projections of one input, from its R factor.

    The input is turned tall, ``T`` (``m x n``, ``m >= n``: A, or A^T when
    A is wide), and never densified: its ``n x n`` R factor, ``T = Q R``, is
    built by a streamed TSQR (Demmel, Grigori, Hoemmen & Langou, 2012). Each
    block of ``R_BLOCK_ROWS`` rows of T's CSR is densified alone and folded
    into R in place by ``dtpqrt``, and Q is never formed. A block with no
    stored entries is skipped: its reflectors would be the identity. So the
    build peaks at R and one block (and, for a wide A, the CSR of A^T), and
    the scorer holds R, the spectrum and its reference to the input: about
    ``8 n^2`` bytes for any m. The dense guard bounds n, R's side.

    A trial scores a projection of T on its short side, the form of every
    solve's factors (:meth:`residual_spectrum`): ``T(I - W W^T)`` has the
    singular values of ``R(I - W W^T)`` (Chan's R-SVD), one ``n x n``
    singular-value computation a trial, and no singular vectors of the input.
    Besides the pair, a trial holds the ``n x n`` M it factors, one ``m x k``
    array and one block of ``R_BLOCK_ROWS`` rows.
    """

    def __init__(self, a):
        a = _ensure_sparse(a)
        _guard_dense(a.shape)
        self._a = a
        self.transposed = a.nrows < a.ncols
        csr = (a.transpose() if self.transposed else a).csr
        n, ptr = csr.shape[1], csr.indptr
        r = np.zeros((n, n), order="F")
        for lo in range(0, csr.shape[0], R_BLOCK_ROWS):
            hi = min(lo + R_BLOCK_ROWS, csr.shape[0])
            if ptr[lo] < ptr[hi]:
                # the block is the call's temporary, freed before the next is densified
                lapack.dtpqrt(
                    0, min(n, 16), r, csr[lo:hi].toarray(order="F"), overwrite_a=1, overwrite_b=1
                )
        self._r = r
        self.spectrum = _singular_values(r)  # R of a SparseMatrix, whose entries are finite

    def residual_spectrum(self, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Singular values of ``A - y @ z.T`` for a projection pair, non-increasing.

        The pair is ``(P, V)`` in the tall orientation: ``(y, z)``, or
        ``(z, y)`` when A is wide. Every solve returns ``(T Z, Z)`` there, a
        wide one through its factor swap. With ``V = W D X^T`` the thin SVD
        of V and ``B = P X D``, ``P V^T = sum_j b_j w_j^T``, so for any set J
        of W's columns ``T - P V^T = T(I - W_J W_J^T) + E_J W^T``, where E_J's
        column j is ``T w_j - b_j`` for j in J and ``-b_j`` otherwise. J takes
        each column at the smaller of the two, so a V of lower rank than its
        width (a wide solve of an input of rank below k) drops the singular
        vectors past its rank, whose ``b_j`` are rounding. The pair is
        refused by name unless ``||E_J||_F <= SVD_TOL ||A||_F``, from one
        ``k nnz(A)`` product. Then, by Weyl's inequality, the singular values
        returned, those of ``M = R - (R W_J) W_J^T``, are within that bound
        of the pair's own. Refuses a ``y`` or ``z`` with a NaN or inf entry,
        by name.
        """
        y, z = _check_dense(y, "y"), _check_dense(z, "z")
        p, v = (z, y) if self.transposed else (y, z)
        w, d, xt = np.linalg.svd(v, full_matrices=False)
        xd = xt.T * d  # B = P X D
        dropped = np.zeros(d.size)  # B's squared column norms, a block of rows at a time
        for lo in range(0, p.shape[0], R_BLOCK_ROWS):
            block = p[lo : lo + R_BLOCK_ROWS] @ xd
            dropped += np.einsum("ij,ij->j", block, block)
        # E = T W - B in place on T W, through its column-major transpose:
        # the one m x k array a trial holds
        e = (self._a.csr.T if self.transposed else self._a.csr) @ w
        e = blas.dgemm(-1.0, xd, p.T, beta=1.0, c=e.T, trans_a=1, overwrite_c=1).T
        dropped, kept = np.sqrt(dropped), np.sqrt(np.einsum("ij,ij->j", e, e))
        gap = float(np.linalg.norm(np.minimum(kept, dropped)))
        bound = SVD_TOL * float(np.linalg.norm(self.spectrum))
        if not gap <= bound:
            raise ValueError(
                f"y z^T is not a projection of the input: its gap {gap:.3e} "
                f"exceeds SVD_TOL * ||A||_F = {bound:.3e}"
            )
        w = w[:, kept <= dropped]
        m = self._r.copy(order="F")
        blas.dgemm(-1.0, self._r @ w, w, beta=1.0, c=m, trans_b=1, overwrite_c=1)
        return _singular_values(m)

    def relative_error(self, factors: LowRankFactors, objective) -> float:
        """:func:`relative_error_from` for ``objective`` of a spectrum."""
        sigma = self.spectrum
        resid = objective(self.residual_spectrum(factors.y, factors.z))
        return relative_error_from(resid, objective(sigma[factors.k :]), objective(sigma))


@contextlib.contextmanager
def _stage(elapsed: dict, name: str):
    """Add the block's wall time to ``elapsed[name]``, a block that raises included."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        elapsed[name] = elapsed.get(name, 0.0) + (time.perf_counter() - t0)


class _FoldingCounter(MultiplyAddCounter):
    """A counter that folds every count into ``counters[key]`` as it is added."""

    def __init__(self, counters: dict, key: str) -> None:
        super().__init__()
        self.counters, self.key = counters, key

    def add(self, n: int) -> None:
        self.counters[self.key] = self.counters.get(self.key, 0) + int(n)


def _sketched_rowspace(
    work: SparseMatrix,
    k: int,
    eps: float,
    stream: RandomStream,
    report: SolveReport,
) -> SparseMatrix | np.ndarray:
    """Stage 2 under ``report.plan``: returns ``SA`` and fills the report bookkeeping.

    ``SA`` is a :class:`SparseMatrix` from the row sampler and a dense array
    from the simplified-mode CountSketch. The caller hands it straight to
    :func:`_rowspace`, so no other frame holds it.
    """
    plan, counters = report.plan, report.multiply_add_counts
    with _stage(report.elapsed, "s_apply"):
        if plan.mode == "simplified_experiment":
            s_op = build_countsketch(work.nrows, plan.s_rows, stream)
            report.seeds["s"] = s_op.seed
            report.rows_drawn = plan.s_rows
            return apply_countsketch_left(work, s_op, _FoldingCounter(counters, "s_apply"))
        scores = _FoldingCounter(counters, "s_scores")
        s_sk = build_row_sampler(work, k, eps, plan.eta1, stream, scores)
        report.seeds["s"] = s_sk.seed
        report.clipped |= s_sk.clipped
        report.degenerate |= s_sk.degenerate
        report.score_kernel = s_sk.score_kernel
        report.score_mass = s_sk.mass
        report.rows_drawn = s_sk.sample_count
        return apply_row_sampler(work, s_sk, _FoldingCounter(counters, "s_apply"))


def _rowspace(sa, k: int, eps: float, report: SolveReport) -> np.ndarray:
    """Stage 3 (``svd_sat``): Z from the top-k right block V of ``SA``.

    The kernel is chosen by mode (module docstring), and neither densifies
    ``SA``. ``SA`` is released once its top-k is taken, before the Cholesky-QR.
    """
    counters = report.multiply_add_counts
    with _stage(report.elapsed, "svd_sat"):
        if report.plan.mode == "full_pipeline":
            depth = math.ceil(math.log(min(sa.shape)) / math.sqrt(eps))
            sigma, v = block_krylov(sa, k, depth, _FoldingCounter(counters, "krylov"))
            report.krylov_depth, report.ritz_values = depth, tuple(sigma.tolist())
        else:
            top = top_singular(sa, k)
            # U^T SA = diag(sigma) V^T, k per entry of the dense SA, is what
            # top_singular forms or checks, so Z is V
            counters["wsa"] = k * sa.size
            sigma, v = top.sigma, top.v
        # a dense simplified-mode SA is the largest array of the solve: the
        # caller holds no reference, so this frees it for the steps below
        del sa
    v = v[:, : int(np.sum(sigma > RANK_TOL * sigma[0]))]
    # Cholesky-QR, V R^-1 for V^T V = R^T R: SA^T U / sigma drifts like eps (s1/sk)^2
    return complete_basis(v @ np.linalg.inv(np.linalg.cholesky(v.T @ v)).T, k)


def _solve(
    work: SparseMatrix, k: int, eps: float, stream: RandomStream, report: SolveReport
) -> SolveReport:
    """Stages 2-4 on the oriented ``work``, then the factors of the input.

    Both solvers call this once their plan is in ``report``.
    """
    z = _rowspace(_sketched_rowspace(work, k, eps, stream, report), k, eps, report)
    with _stage(report.elapsed, "regression"):
        counter = _FoldingCounter(report.multiply_add_counts, "regression")
        y = sparse_dense_multiply(work, z, counter)
    factors = LowRankFactors(y=y, z=z, k=k)
    report.factors = _swap_transposed(factors) if report.transposed else factors
    return report


def clamp_eps(eps: float) -> tuple[float, tuple[str, ...]]:
    """``eps`` clamped to 1/2, the largest the sketch guarantees assume, and the warnings.

    Refuses a non-positive ``eps``. Every command that sizes a sketch from a
    user's ``eps`` goes through here, so each clamps it the same way.
    """
    if not eps > 0:  # NaN fails it too
        raise ValueError("eps must be positive")
    if eps > 0.5:
        return 0.5, (f"eps={eps:g} clamped to 0.5",)
    return eps, ()


def _prologue(
    a: SparseMatrix, k: int, eps: float
) -> tuple[SparseMatrix, bool, float, tuple[str, ...]]:
    """Check k and eps, clamp eps to 1/2, and solve a wide input on its transpose.

    Returns ``(work, transposed, eps, warnings)`` with ``work`` the tall input.
    """
    if not isinstance(k, (int, np.integer)):  # k sizes arrays; a float fails deep inside
        raise ValueError(f"k must be an integer, got k={k!r}")
    if not 1 <= k < min(a.shape):
        raise ValueError(f"k={k} out of range 1..{min(a.shape) - 1}")
    eps, warnings = clamp_eps(eps)
    transposed = a.nrows < a.ncols
    return (a.transpose() if transposed else a), transposed, eps, warnings


def _swap_transposed(factors: LowRankFactors) -> LowRankFactors:
    """Factors of A^T -> factors of A with the orthonormal side restored."""
    q, r = np.linalg.qr(factors.y)
    return LowRankFactors(y=factors.z @ r.T, z=q, k=factors.k)


def solve_schatten(
    a,
    k: int,
    p: float,
    eps: float,
    stream: RandomStream,
    mode: str = "full_pipeline",
) -> SolveReport:
    """Rank-k approximation of ``a`` under the Schatten p-norm.

    Returns factors ``(Y, Z)`` with ``Z`` orthonormal such that
    ``||A - Y Z^T||_p <= (1 + O(eps)) ||A - A_k||_p`` with high probability.
    ``eps`` above 1/2 is clamped (the sketch guarantees assume it).
    :class:`OracleScorer` measures the relative error from the ``n x n`` R
    factor of ``a``, built a block of rows at a time.
    """
    a = _ensure_sparse(a)
    p = float(p)
    work, transposed, eps, warnings = _prologue(a, k, eps)
    report = SolveReport(
        factors=None,  # type: ignore[arg-type]
        plan=make_sketch_plan(*work.shape, k, eps, p, mode),
        transposed=transposed,
        warnings=warnings,
    )
    return _solve(work, k, eps, stream, report)


@functools.lru_cache(maxsize=32)
def _default_grid_conditions(loss: ScalarLoss, eps: float) -> ConditionReport:
    # the grid estimate depends on nothing but the loss and eps, and costs
    # more than a solve's own regression, so solves of one loss share it
    return check_phi_conditions(loss, eps)


def solve_generalized(
    a,
    k: int,
    loss: ScalarLoss,
    eps: float,
    stream: RandomStream,
) -> SolveReport:
    """Rank-k approximation under an increasing singular-value loss.

    ``loss`` must be a :class:`~sketchlr.norms.ScalarLoss` that passes the
    regularity checks (growth, perturbation, scaling, subadditivity) of
    :func:`~sketchlr.norms.check_phi_conditions`; otherwise the solve
    refuses and names the violated condition. With ``alpha`` the grid
    estimate of the growth constant and ``r = ceil(k/eps)``, the additive
    split is ``eta1 = min((eps/r)^{1/alpha}, eps)``. The row sample ``S``
    and ``Z`` are those of :func:`solve_schatten`, and the output is
    ``(A Z, Z)``.

    The regularity report of a hashable loss is computed once per
    ``(loss, eps)`` and shared by later solves, so a loss must not change
    once it has been solved with.
    """
    a = _ensure_sparse(a)
    if not isinstance(loss, ScalarLoss):
        raise ValueError(f"loss must be a ScalarLoss, got {type(loss).__name__}")
    work, transposed, eps, warnings = _prologue(a, k, eps)
    # eta1 = min(base^(1/alpha), eps) is 0 for every alpha once base
    # underflows, so eps is sized first: the grid estimate fails at such an
    # eps too, and would be blamed on the loss
    base = _positive_split(eps, eps / _ceil_count(k, eps))
    if isinstance(loss, Hashable):
        cond = _default_grid_conditions(loss, float(eps))
    else:
        cond = check_phi_conditions(loss, eps)
    if not cond.finite:
        raise ValueError(
            f"{loss.describe()} fails loss condition(s): "
            + "; ".join(cond.violated_conditions())
        )
    alpha = max(cond.alpha, 1e-6)
    eta1 = min(base ** (1.0 / alpha), eps)
    report = SolveReport(
        factors=None,  # type: ignore[arg-type]
        plan=_sized_plan(work.nrows, k, eps, eta1, "full_pipeline"),
        transposed=transposed,
        warnings=warnings,
        condition_report=cond,
    )
    return _solve(work, k, eps, stream, report)


def _square_of_rows(a: SparseMatrix) -> SparseMatrix:
    """A wide ``a`` as the square matrix of its rows over empty ones, else ``a`` itself.

    Its right projections then have the short side the scorer takes, and
    its empty row blocks cost the scorer nothing.
    """
    if a.nrows >= a.ncols:
        return a
    _guard_dense((a.ncols, a.ncols))
    csr = a.csr
    indptr = np.concatenate([csr.indptr, np.full(a.ncols - a.nrows, csr.indptr[-1])])
    return SparseMatrix._wrap(
        type(csr)((csr.data, csr.indices, indptr), shape=(a.ncols, a.ncols))
    )


def diagnose_kyfan_preservation(
    a,
    sa,
    k: int,
    p: float,
    r: int,
    eta1: float,
    trials: int,
    stream: RandomStream,
    *,
    eps: float = 0.5,
) -> DiagnosticReport:
    """Check the two-sided Ky-Fan head inequality on random projections.

    For each random rank-k projection ``Q`` the sketched head norm
    ``||SA(I-Q)||_(p,r)^p`` must land inside the band
    ``(1 -/+ eps) ||A(I-Q)||_(p,r)^p -/+ slack`` where the additive slack is
    ``r eta1^{p/2} ||A-A_k||_p^p`` for p <= 2 and
    ``C_{p/2,eps} r eta1^{p/2} ||A-A_k||_F^p`` for p > 2. Reports the
    violation fraction; this is a diagnostic, not an assertion. ``sa`` may be dense or the
    :class:`SparseMatrix` that :func:`~sketchlr.sketches.apply_row_sampler`
    returns. Both it and ``a`` are scored by an :class:`OracleScorer` of
    their columns' side: one with fewer rows than columns as the square
    matrix of its rows, padded with empty rows, so the column count is held
    to the dense guard.
    """
    a, sa = _ensure_sparse(a), _ensure_sparse(sa)
    if sa.ncols != a.ncols:
        raise ValueError("sketched matrix must keep the column dimension")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    r_eff = min(r, min(a.shape), min(sa.shape))
    a, sa = _square_of_rows(a), _square_of_rows(sa)
    scorer_a, scorer_s = OracleScorer(a), OracleScorer(sa)
    sigma = scorer_a.spectrum
    tail_p = schatten_norm(sigma[k:], p) if k < sigma.size else 0.0
    tail_f = float(np.sqrt(np.sum(sigma[k:] ** 2))) if k < sigma.size else 0.0
    if p <= 2.0:
        slack = r * eta1 ** (p / 2.0) * tail_p**p
    else:
        slack = cpe_constant(p / 2.0, eps) * r * eta1 ** (p / 2.0) * tail_f**p

    gen = stream.generator()
    violations = 0
    max_excess = 0.0
    for _ in range(trials):
        q, _ = np.linalg.qr(gen.standard_normal((a.ncols, k)))
        head_a = kyfan_pr_norm(scorer_a.residual_spectrum(a.csr @ q, q), p, r_eff) ** p
        head_s = kyfan_pr_norm(scorer_s.residual_spectrum(sa.csr @ q, q), p, r_eff) ** p
        lo = (1.0 - eps) * head_a - slack
        hi = (1.0 + eps) * head_a + slack
        tol = 1e-9 * max(1.0, head_a)
        if not (lo - tol <= head_s <= hi + tol):
            violations += 1
            max_excess = max(max_excess, lo - head_s, head_s - hi)
    return DiagnosticReport(
        p=p,
        r=r,
        eta1=eta1,
        eps=eps,
        trials=trials,
        violations=violations,
        max_excess=max_excess,
    )
