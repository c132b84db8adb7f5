"""Sketch-then-solve rank-k approximation under Schatten and generalized losses.

The pipeline for ``min_X ||A - X||_p`` over rank-k ``X``:

1. pick the additive error split eta1 and the sketch dimensions from
   :func:`sketchlr.sketches.make_sketch_plan`;
2. left-sketch ``A`` with a row sampler ``S`` whose Gram sandwich carries the
   eta1 additive term (a CountSketch of ``k^2`` rows in simplified mode);
3. take the top-k right block V of ``SA``: the Ritz vectors of a block
   Krylov space of depth ``q = ceil(ln d / sqrt(eps))``, ``d = min(SA.shape)``
   (:func:`~sketchlr.matrixcore.block_krylov`) in full_pipeline mode, the
   exact :func:`~sketchlr.matrixcore.top_singular` in simplified mode or
   when ``(q + 1) k >= d``. ``Z`` is V cut at ``RANK_TOL``, put through one
   Cholesky-QR step and padded to k columns;
4. regress exactly: ``Y = A Z``, ``k nnz(A)`` multiply-adds. With Z
   orthonormal, ``A Z`` minimizes ``||A - Y Z^T||`` in every unitarily
   invariant norm, the Schatten norms included, because
   ``A - Y Z^T = A (I - Z Z^T) + (A Z - Y) Z^T`` and right-multiplying by
   the projector ``I - Z Z^T`` is a contraction. A sketched regression
   (:func:`solve_regression_sketched`) costs the same ``k nnz(A)`` for
   ``A (R (Z^T R)^+)`` and only adds error.

The source analysis right-sketches ``SA`` with a subspace embedding T so
that the SVD is of a small matrix. Block Krylov on the sparse ``SA`` costs
``2 k nnz(SA) <= 2 k nnz(A)`` multiply-adds a product with G, so T saves
nothing here and is not applied.

:func:`solve_generalized` runs the same steps 2-4 with its own ``eta1``.
The returned pair never materializes ``Y @ Z.T``. Wide inputs are solved on
the transpose and the factors swapped back.
"""

import functools
import math
import time
from collections.abc import Hashable
from dataclasses import dataclass, field

import numpy as np

from .matrixcore import (
    DENSE_GUARD,
    RANK_TOL,
    LowRankFactors,
    MultiplyAddCounter,
    ScaleLimitError,
    SparseMatrix,
    _check_dense,
    block_krylov,
    complete_basis,
    singular_values,
    sparse_dense_multiply,
    svd,
    top_singular,
    truncate_rank,
)
from .norms import (
    ConditionReport,
    ScalarLoss,
    check_phi_conditions,
    cpe_constant,
    kyfan_pr_norm,
    phi_objective,
    schatten_norm,
)
from .rng import RandomStream
from .sketches import (
    DEFAULT_CONSTANTS,
    SketchConstants,
    SketchPlan,
    apply_countsketch_left,
    apply_countsketch_right,
    apply_row_sampler,
    build_countsketch,
    build_row_sampler,
    make_sketch_plan,
    sample_count,
)

# relative threshold below which the optimal residual counts as zero and the
# reported error switches to residual / ||A|| instead of a 0/0 ratio
DEGENERATE_OPTIMUM_RTOL = 1e-12
_ORACLE_ADVICE = (
    "run full_pipeline without the oracle flag (--oracle), which never densifies the input"
)


@dataclass
class SolveReport:
    """Factors plus the bookkeeping needed to audit one solve.

    Both solvers fill it in one shared body, so their reports have the same
    keys for the same stages. ``plan`` is the solve's
    :class:`~sketchlr.sketches.SketchPlan`, and ``condition_report`` is the
    loss-regularity report of a generalized solve, ``None`` otherwise.
    ``multiply_add_counts`` holds exact per-stage counts for the sketch
    applications and explicit factor products. ``krylov`` is the block
    Krylov top-k of ``SA``: ``2 k nnz(SA)`` for each of its ``q + 1``
    products with the Gram matrix, plus ``k nnz(SA)`` for ``SA^T U`` when
    ``SA`` is wide; ``krylov_depth`` is q and ``ritz_values`` the k Ritz
    values as singular values. When the top-k is ``top_singular``
    instead, ``krylov_depth`` is ``None`` and ``wsa`` is ``U^T SA``, the
    width of U (``k``, or the smaller side of a thinner ``SA``) times the
    stored entries of ``SA`` (``k s n`` for a dense CountSketch), which
    ``top_singular`` forms or checks. ``s_scores`` is the sparse work of
    the sketched ridge leverage scores behind a sampled ``S``,
    ``(w + r) nnz(A)`` for the score sketch ``A Omega`` and the projection
    ``U^T A`` (absent when ``S`` clipped or the scores were exact), and
    ``regression`` is ``k nnz(A)`` for ``Y = A Z``. Not counted: the
    factorizations (the ``w x w`` and ``r x r`` Gram eigendecompositions of
    the sketched scores or the full one of the exact scores, and the
    ``eigh`` in ``top_singular`` and of the block Krylov ``H``), the dense
    products that feed them, the block Krylov basis work (three projections
    and two QRs a block, about ``3 d k^2 q^2`` multiply-adds, and
    ``Q S_k``), the ``n k^2`` Cholesky-QR step on ``Z``, and the column
    norms read by the scores. ``elapsed`` times the stages ``s_apply``, ``svd_sat`` (the
    top-k of ``SA``), ``regression`` and, with the oracle, ``oracle``.
    ``relative_error`` is only present when the exact oracle was run.
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
    relative_error: float | None = None
    fallback_used: bool = False
    transposed: bool = False
    clipped: bool = False
    degenerate: bool = False
    warnings: tuple[str, ...] = ()
    condition_report: ConditionReport | None = None
    krylov_depth: int | None = None
    ritz_values: tuple[float, ...] = ()


@dataclass(frozen=True)
class OracleResult:
    """Exact best rank-k factors and the full spectrum of the input."""

    factors: LowRankFactors
    spectrum: np.ndarray


@dataclass(frozen=True)
class RegressionResult:
    """Output of :func:`solve_regression_sketched`."""

    yhat: np.ndarray
    seed: int
    fallback_used: bool


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


def _ensure_sparse(a) -> SparseMatrix:
    if isinstance(a, SparseMatrix):
        return a
    return SparseMatrix.from_dense(np.asarray(a, dtype=np.float64))


def _dense_guarded(a: SparseMatrix, advice: str = _ORACLE_ADVICE) -> np.ndarray:
    if min(a.shape) > DENSE_GUARD:
        raise ScaleLimitError(
            f"dense factorization refused: min dimension {min(a.shape)} exceeds "
            f"the guard DENSE_GUARD={DENSE_GUARD}; {advice}"
        )
    return a.to_dense()


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


def exact_oracle(a, k: int) -> OracleResult:
    """Best rank-k factors by dense SVD; ground truth for every p.

    Desk-scale only: refuses when the smaller dimension exceeds the dense
    guard (the sketched path never needs this call).
    """
    a = _ensure_sparse(a)
    if not 1 <= k <= min(a.shape):
        raise ValueError(f"k={k} out of range 1..{min(a.shape)}")
    res = svd(_dense_guarded(a))
    return OracleResult(factors=truncate_rank(res, k), spectrum=res.sigma)


class OracleScorer:
    """Exact singular-value scores against one input, from one thin QR of it.

    The input is densified under the dense guard and turned tall, ``A = Q R``.
    With ``B = Q^T Y`` and ``Y - Q B = Q2 C``, ``A - Y Z^T`` equals
    ``[Q Q2] [[R - B Z^T], [-C Z^T]]``: the residual spectrum is that of the
    ``(n + k) x n`` stack, exact to rounding (Chan's R-SVD), and no singular
    vectors of the input are computed.
    """

    def __init__(self, a):
        a = _ensure_sparse(a)
        dense = _dense_guarded(a)
        self.transposed = a.nrows < a.ncols
        self.q, self.r = np.linalg.qr(dense.T if self.transposed else dense)
        self.spectrum = singular_values(self.r)

    def residual_spectrum(self, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Singular values of ``A - y @ z.T``, non-increasing."""
        if self.transposed:
            y, z = z, y
        b = self.q.T @ y
        c = np.linalg.qr(y - self.q @ b, mode="r")
        return singular_values(np.vstack([self.r - b @ z.T, -(c @ z.T)]))

    def relative_error(self, factors: LowRankFactors, objective) -> float:
        """:func:`relative_error_from` for ``objective`` of a spectrum."""
        sigma = self.spectrum
        resid = objective(self.residual_spectrum(factors.y, factors.z))
        return relative_error_from(resid, objective(sigma[factors.k :]), objective(sigma))


def solve_regression_sketched(
    a, z: np.ndarray, r_embed: int, stream: RandomStream
) -> RegressionResult:
    """Minimize ``||(A - Y Z^T) R||_F`` over ``Y`` for a CountSketch ``R``.

    The minimizer ``(AR) (Z^T R)^+`` equals ``A (R (Z^T R)^+)``, so it is
    computed in that order and no ``m x r_embed`` array ``AR`` is formed. One
    thin SVD ``Z^T R = U diag(s) V^T`` of the ``k x r_embed`` sketch gives
    the pseudo-inverse ``P = V diag(1/s) U^T``; ``R P`` has row
    ``sign[i] P[bucket[i]]``, ``n k`` multiply-adds, and ``Y = A (R P)``
    costs ``k nnz(A)``. Falls back to the exact minimizer ``A @ Z``
    (flagged) when the sketched row space ``Z^T R`` loses rank. The solvers
    do not call this: they regress exactly (module docstring).
    """
    a = _ensure_sparse(a)
    z = _check_dense(z, "z")
    k = z.shape[1]
    if z.shape[0] != a.ncols:
        raise ValueError(f"z has {z.shape[0]} rows, expected {a.ncols}")
    if r_embed < k:
        raise ValueError(f"r_embed={r_embed} must be at least k={k}")
    r_op = build_countsketch(a.ncols, r_embed, stream)
    u, s, vt = np.linalg.svd(apply_countsketch_right(z.T, r_op), full_matrices=False)
    fallback = bool(s[-1] <= RANK_TOL * s[0])  # s has k values, non-increasing
    if fallback:
        rp = z
    else:
        pinv = (vt.T / s) @ u.T
        rp = r_op.sign[:, None] * pinv[r_op.bucket]
    yhat = sparse_dense_multiply(a, rp)
    return RegressionResult(yhat=yhat, seed=r_op.seed, fallback_used=fallback)


class _Stage:
    """Context manager recording wall time for one pipeline stage."""

    def __init__(self, elapsed: dict, name: str):
        self.elapsed = elapsed
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed[self.name] = self.elapsed.get(self.name, 0.0) + (
            time.perf_counter() - self.t0
        )
        return False


class _FoldingCounter(MultiplyAddCounter):
    """A counter that folds every count into ``counters[key]`` as it is added."""

    def __init__(self, counters: dict, key: str) -> None:
        super().__init__()
        self.counters, self.key = counters, key

    def add(self, n: int) -> None:
        self.counters[self.key] = self.counters.get(self.key, 0) + int(n)


def _counter(counters: dict | None, key: str) -> MultiplyAddCounter | None:
    return None if counters is None else _FoldingCounter(counters, key)


def _sketched_rowspace(
    work: SparseMatrix,
    k: int,
    eps: float,
    stream: RandomStream,
    constants: SketchConstants,
    report: SolveReport,
) -> np.ndarray:
    """Stages 2-3 under ``report.plan``: returns Z and fills the report bookkeeping.

    ``SA`` is a :class:`SparseMatrix` from the row sampler and a dense array
    from the simplified-mode CountSketch. ``SA`` and its top-k are freed on
    return, before the regression.
    """
    plan, counters = report.plan, report.multiply_add_counts
    with _Stage(report.elapsed, "s_apply"):
        if plan.mode == "simplified_experiment":
            s_op = build_countsketch(work.nrows, plan.s_rows, stream)
            report.seeds["s"] = s_op.seed
            sa = apply_countsketch_left(work, s_op, _counter(counters, "s_apply"))
        else:
            s_sk = build_row_sampler(
                work, k, eps, plan.eta1, stream, constants, _counter(counters, "s_scores")
            )
            report.seeds["s"] = s_sk.seed
            report.clipped |= s_sk.clipped
            report.degenerate |= s_sk.degenerate
            sa = apply_row_sampler(work, s_sk, _counter(counters, "s_apply"))
    return _rowspace(sa, k, eps, report)


def _rowspace(sa, k: int, eps: float, report: SolveReport) -> np.ndarray:
    """Stage 3 (``svd_sat``): Z from the top-k right block V of ``SA``.

    The kernel is chosen by mode and size (module docstring), not storage.
    """
    counters = report.multiply_add_counts
    with _Stage(report.elapsed, "svd_sat"):
        d = min(sa.shape)
        depth = math.ceil(math.log(d) / math.sqrt(eps))
        if report.plan.mode == "full_pipeline" and (depth + 1) * k < d:
            sigma, v = block_krylov(sa, k, depth, _counter(counters, "krylov"))
            report.krylov_depth, report.ritz_values = depth, tuple(sigma.tolist())
        else:
            sparse = isinstance(sa, SparseMatrix)
            advice = f"a depth-{depth} Krylov space of k={k} would cover SA; lower k"
            # a clipped sample of a matrix with fewer than k nonzero rows is thin
            top = top_singular(_dense_guarded(sa, advice) if sparse else sa, min(k, d))
            # U^T SA = diag(sigma) V^T, k per stored entry of SA, is what
            # top_singular forms or checks, so Z is V
            counters["wsa"] = top.u.shape[1] * (sa.nnz if sparse else sa.size)
            sigma, v = top.sigma, top.v
    v = v[:, : int(np.sum(sigma > RANK_TOL * sigma[0]))]
    # Cholesky-QR, V R^-1 for V^T V = R^T R: SA^T U / sigma drifts like eps (s1/sk)^2
    return complete_basis(v @ np.linalg.inv(np.linalg.cholesky(v.T @ v)).T, k)


def _solve(
    a: SparseMatrix,
    work: SparseMatrix,
    k: int,
    eps: float,
    stream: RandomStream,
    constants: SketchConstants,
    report: SolveReport,
    objective,
) -> SolveReport:
    """Stages 2-4 on the oriented ``work``, then the factors of ``a``.

    Both solvers call this once their plan is in ``report``. With an
    ``objective`` of a spectrum, the exact oracle scores the factors
    against ``a``.
    """
    z = _sketched_rowspace(work, k, eps, stream, constants, report)
    with _Stage(report.elapsed, "regression"):
        y = sparse_dense_multiply(work, z, _counter(report.multiply_add_counts, "regression"))
    factors = LowRankFactors(y=y, z=z, k=k)
    report.factors = _swap_transposed(factors) if report.transposed else factors
    if objective is not None:
        with _Stage(report.elapsed, "oracle"):
            report.relative_error = OracleScorer(a).relative_error(report.factors, objective)
    return report


def _prologue(
    a: SparseMatrix, k: int, eps: float
) -> tuple[SparseMatrix, bool, float, tuple[str, ...]]:
    """Check k and eps, clamp eps to 1/2, and solve a wide input on its transpose.

    Returns ``(work, transposed, eps, warnings)`` with ``work`` the tall input.
    """
    if not 1 <= k < min(a.shape):
        raise ValueError(f"k={k} out of range 1..{min(a.shape) - 1}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    warnings: tuple[str, ...] = ()
    if eps > 0.5:
        warnings = (f"eps={eps:g} clamped to 0.5",)
        eps = 0.5
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
    *,
    oracle: bool = False,
    constants: SketchConstants = DEFAULT_CONSTANTS,
) -> SolveReport:
    """Rank-k approximation of ``a`` under the Schatten p-norm.

    Returns factors ``(Y, Z)`` with ``Z`` orthonormal such that
    ``||A - Y Z^T||_p <= (1 + O(eps)) ||A - A_k||_p`` with high probability.
    ``eps`` above 1/2 is clamped (the sketch guarantees assume it); with
    ``oracle=True`` the report carries the measured relative error, at the
    cost of densifying ``a``.
    """
    a = _ensure_sparse(a)
    p = float(p)
    if not np.isfinite(p) or p < 1:
        raise ValueError(f"p must be a finite value >= 1, got {p}")
    work, transposed, eps, warnings = _prologue(a, k, eps)
    report = SolveReport(
        factors=None,  # type: ignore[arg-type]
        plan=make_sketch_plan(*work.shape, k, eps, p, mode, constants),
        transposed=transposed,
        warnings=warnings,
    )
    objective = (lambda s: schatten_norm(s, p)) if oracle else None
    return _solve(a, work, k, eps, stream, constants, report, objective)


_solve_schatten = solve_schatten


def solve_frobenius_baseline(
    a,
    k: int,
    stream: RandomStream,
    *,
    oracle: bool = False,
) -> SolveReport:
    """CountSketch-then-SVD Frobenius baseline.

    Simplified-mode :func:`solve_schatten` at p = 1: ``Z`` is the top-k right
    singular vectors of a ``k^2``-row CountSketch ``SA``, cut and padded, and
    ``Y = A @ Z``. The reported relative error is measured in the Schatten
    1-norm, the metric the Schatten pipeline is compared against.
    """
    # the private alias keeps a tracer that rebinds public functions (see
    # perfbench/tracing.py) from nesting a solve_schatten span in this one
    return _solve_schatten(
        a, k, 1.0, 0.5, stream, "simplified_experiment", oracle=oracle
    )


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
    *,
    oracle: bool = False,
    constants: SketchConstants = DEFAULT_CONSTANTS,
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
    r_head = int(math.ceil(k / eps))
    eta1 = min((eps / r_head) ** (1.0 / alpha), eps)
    plan = SketchPlan(
        eta1=eta1,
        r_kyfan=r_head,
        s_rows=min(sample_count(k, eps, eta1, constants.c_s), work.nrows),
        mode="full_pipeline",
    )
    report = SolveReport(
        factors=None,  # type: ignore[arg-type]
        plan=plan,
        transposed=transposed,
        warnings=warnings,
        condition_report=cond,
    )
    objective = (lambda s: phi_objective(s, loss)) if oracle else None
    return _solve(a, work, k, eps, stream, constants, report, objective)


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
    returns; both it and ``a`` are densified under the dense guard.
    """
    dense = _dense_guarded(_ensure_sparse(a))
    if isinstance(sa, SparseMatrix):
        sa = _dense_guarded(sa)
    else:
        sa = _check_dense(sa, "sketched matrix")
    if sa.shape[1] != dense.shape[1]:
        raise ValueError("sketched matrix must keep the column dimension")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = dense.shape[1]
    sigma = singular_values(dense)
    tail_p = schatten_norm(sigma[k:], p) if k < sigma.size else 0.0
    tail_f = float(np.sqrt(np.sum(sigma[k:] ** 2))) if k < sigma.size else 0.0
    if p <= 2.0:
        slack = r * eta1 ** (p / 2.0) * tail_p**p
    else:
        slack = cpe_constant(p / 2.0, eps) * r * eta1 ** (p / 2.0) * tail_f**p
    r_eff = min(r, min(dense.shape), min(sa.shape))

    gen = stream.generator()
    violations = 0
    max_excess = 0.0
    for _ in range(trials):
        q, _ = np.linalg.qr(gen.standard_normal((n, k)))
        res_a = dense - (dense @ q) @ q.T
        res_s = sa - (sa @ q) @ q.T
        head_a = kyfan_pr_norm(singular_values(res_a), p, r_eff) ** p
        head_s = kyfan_pr_norm(singular_values(res_s), p, r_eff) ** p
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
