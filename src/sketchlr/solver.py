"""Sketch-then-solve rank-k approximation under Schatten and generalized losses.

The pipeline for ``min_X ||A - X||_p`` over rank-k ``X``:

1. pick additive error splits (eta1, eta2) and sketch dimensions from
   :func:`sketchlr.sketches.make_sketch_plan`;
2. left-sketch ``A`` with a row sampler ``S`` whose Gram sandwich carries the
   eta1 additive term (a CountSketch of ``k^2`` rows in simplified mode);
3. right-sketch ``SA`` with a subspace embedding ``T``;
4. take the top-k singular triplets of ``SAT``
   (:func:`~sketchlr.matrixcore.top_singular`, by Lanczos when ``SA`` is the
   sparse row sample and T a pass-through). ``Z`` is an orthonormal basis of
   the row space their left block induces on ``SA``: with T a pass-through
   that is their right block V itself, after one Cholesky-QR step;
5. recover ``Y`` by sketched Frobenius regression against ``Z``, computed
   as ``A (R (Z^T R)^+)`` in ``k nnz(A) + n k`` multiply-adds, with no
   ``m x r_embed`` array ``AR``.

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
    complete_basis,
    dense_sparse_multiply,
    orthonormal_rowspace,
    singular_values,
    sparse_dense_multiply,
    svd,
    top_singular,
    truncate_rank,
)
from .norms import (
    ConditionReport,
    LossSpec,
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
    IdentitySketch,
    SketchConstants,
    SketchPlan,
    apply_countsketch_left,
    apply_countsketch_right,
    apply_row_sampler,
    build_countsketch,
    build_row_sampler,
    build_row_sampler_T,
    make_sketch_plan,
    sample_count,
)

# relative threshold below which the optimal residual counts as zero and the
# reported error switches to residual / ||A|| instead of a 0/0 ratio
DEGENERATE_OPTIMUM_RTOL = 1e-12


@dataclass
class SolveReport:
    """Factors plus the bookkeeping needed to audit one solve.

    ``multiply_add_counts`` holds exact per-stage counts for the sketch
    applications and explicit factor products; ``wsa`` is ``W^T SA``, the
    width of W (``k``, or the smaller side of a thinner double sketch) times
    the stored entries of ``SA`` (``k nnz(SA)`` for a sparse row sample,
    ``k s n`` for a dense CountSketch); with T a pass-through it is the
    ``U^T SA`` that ``top_singular`` forms or checks. ``s_scores`` is the
    sparse work of the sketched ridge leverage scores behind a sampled
    ``S``, ``(w + r) nnz(A)`` for the score sketch ``A Omega`` and the
    projection ``U^T A`` (absent when ``S`` clipped or the scores were
    exact). With a regression sketch ``R``,
    ``zr_apply`` is ``k n`` for ``Z^T R``, ``r_apply`` is ``n k`` for
    ``R P`` with ``P = (Z^T R)^+``, and ``regression`` is ``k nnz(A)`` for
    ``Y = A (R P)``, as for the exact ``A Z``. Not counted: the
    factorizations (the ``w x w`` and ``r x r`` Gram eigendecompositions of
    the sketched scores or the full one of the exact scores,
    :func:`~sketchlr.matrixcore.top_singular` on the double sketch, whether
    by Lanczos on a sparse ``SA`` or by a partial dense ``eigh``, the
    row-space SVD behind a real T, and the ``k x r_embed`` SVD of ``Z^T R``
    with the ``r_embed k^2`` product that forms ``P``), the dense products
    and Gram products that feed them (``top_singular`` reads its checks from
    a dense ``SA``'s), the ``n k^2`` Cholesky-QR step on a pass-through
    ``Z``, and the column norms read by the scores.
    ``elapsed`` times the stages; ``rowspace`` is present only with a real
    T. ``relative_error`` is only present when the exact oracle was run.
    Pass-throughs are flagged: ``clipped`` when the row sampler ``S`` kept
    every nonzero row, ``t_identity`` when there was no right sketch ``T``
    (simplified mode, or a width reaching the column count), and
    ``r_identity`` when ``Y`` is the exact regression ``A Z`` with no sketch
    ``R``.
    """

    factors: LowRankFactors
    plan: SketchPlan | None
    seeds: dict[str, int] = field(default_factory=dict)
    multiply_add_counts: dict[str, int] = field(default_factory=dict)
    elapsed: dict[str, float] = field(default_factory=dict)
    relative_error: float | None = None
    fallback_used: bool = False
    transposed: bool = False
    clipped: bool = False
    t_identity: bool = False
    r_identity: bool = False
    degenerate: bool = False
    warnings: tuple[str, ...] = ()
    condition_report: ConditionReport | None = None


@dataclass(frozen=True)
class OracleResult:
    """Exact best rank-k factors and the full spectrum of the input."""

    factors: LowRankFactors
    spectrum: np.ndarray


@dataclass(frozen=True)
class RegressionResult:
    """Output of the sketched regression step."""

    yhat: np.ndarray
    seed: int | None
    fallback_used: bool


@dataclass(frozen=True)
class DiagnosticReport:
    """Empirical check of the sketched Ky-Fan head preservation inequality."""

    p: float
    r: int
    eta1: float
    eps: float
    kp: float
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


def _dense_guarded(a: SparseMatrix) -> np.ndarray:
    if min(a.shape) > DENSE_GUARD:
        raise ScaleLimitError(
            f"dense factorization refused: min dimension {min(a.shape)} exceeds "
            f"the guard DENSE_GUARD={DENSE_GUARD}; run full_pipeline without the "
            "oracle flag (--oracle), which never densifies the input"
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
    a,
    z: np.ndarray,
    r_embed: int | None,
    stream: RandomStream,
    counters: dict | None = None,
) -> RegressionResult:
    """Minimize ``||(A - Y Z^T) R||_F`` over ``Y`` for a CountSketch ``R``.

    The minimizer ``(AR) (Z^T R)^+`` equals ``A (R (Z^T R)^+)``, so it is
    computed in that order and no ``m x r_embed`` array ``AR`` is formed. One
    thin SVD ``Z^T R = U diag(s) V^T`` of the ``k x r_embed`` sketch gives
    the pseudo-inverse ``P = V diag(1/s) U^T``; ``R P`` has row
    ``sign[i] P[bucket[i]]``, ``n k`` multiply-adds counted as ``r_apply``,
    and ``Y = A (R P)`` costs ``k nnz(A)``, counted as ``regression``. With
    ``r_embed=None`` the sketch is the identity and the exact minimizer
    ``A @ Z`` is returned. Falls back to ``A @ Z`` (flagged) when the sketched
    row space ``Z^T R`` loses rank.
    """
    a = _ensure_sparse(a)
    z = _check_dense(z, "z")
    k = z.shape[1]
    if z.shape[0] != a.ncols:
        raise ValueError(f"z has {z.shape[0]} rows, expected {a.ncols}")
    if r_embed is None:
        yhat = sparse_dense_multiply(a, z, _counter(counters, "regression"))
        return RegressionResult(yhat=yhat, seed=None, fallback_used=False)
    if r_embed < k:
        raise ValueError(f"r_embed={r_embed} must be at least k={k}")
    r_op = build_countsketch(a.ncols, r_embed, stream)
    zr = apply_countsketch_right(z.T, r_op, _counter(counters, "zr_apply"))
    u, s, vt = np.linalg.svd(zr, full_matrices=False)
    fallback = bool(s[-1] <= RANK_TOL * s[0])  # s has k values, non-increasing
    if fallback:
        rp = z
    else:
        pinv = (vt.T / s) @ u.T
        rp = r_op.sign[:, None] * pinv[r_op.bucket]
        if counters is not None:
            counters["r_apply"] = counters.get("r_apply", 0) + rp.size
    yhat = sparse_dense_multiply(a, rp, _counter(counters, "regression"))
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
    plan: SketchPlan,
    stream: RandomStream,
    constants: SketchConstants,
    report: SolveReport,
) -> np.ndarray:
    """Stages 2-4: returns Z and fills the report bookkeeping.

    ``SA`` is a :class:`SparseMatrix` from the row sampler and a dense array
    from the simplified-mode CountSketch; every stage below takes either.
    """
    counters, elapsed, seeds = report.multiply_add_counts, report.elapsed, report.seeds
    with _Stage(elapsed, "s_apply"):
        if plan.mode == "simplified_experiment":
            s_op = build_countsketch(work.nrows, plan.s_rows, stream)
            seeds["s"] = s_op.seed
            sa = apply_countsketch_left(work, s_op, _counter(counters, "s_apply"))
        else:
            s_sk = build_row_sampler(
                work, k, eps, plan.eta1, stream, constants, _counter(counters, "s_scores")
            )
            seeds["s"] = s_sk.seed
            report.clipped |= s_sk.clipped
            report.degenerate |= s_sk.degenerate
            sa = apply_row_sampler(work, s_sk, _counter(counters, "s_apply"))
    with _Stage(elapsed, "t_apply"):
        t_op = None
        if plan.mode != "simplified_experiment":
            t_op = build_row_sampler_T(sa, eps, stream, plan.mode, constants)
        report.t_identity = t_op is None or isinstance(t_op, IdentitySketch)
        if report.t_identity:
            sat = sa
        else:
            seeds["t"] = t_op.seed
            sat = apply_countsketch_right(sa, t_op, _counter(counters, "t_apply"))
    with _Stage(elapsed, "svd_sat"):
        # a clipped sample of a matrix with fewer than k nonzero rows is thin
        top = top_singular(sat, min(k, *sat.shape))
    # W^T SA, k per stored entry of SA; with T the identity it is the
    # U^T SA = diag(sigma) V^T that top_singular forms or checks, so Z is V
    sparse = isinstance(sa, SparseMatrix)
    counters["wsa"] = counters.get("wsa", 0) + top.u.shape[1] * (sa.nnz if sparse else sa.size)
    if report.t_identity:  # cut at the rank orthonormal_rowspace would keep
        v = top.v[:, : int(np.sum(top.sigma > RANK_TOL * top.sigma[0]))]
        # Cholesky-QR, V R^-1 for V^T V = R^T R: SA^T U / sigma drifts like eps (s1/sk)^2
        return complete_basis(v @ np.linalg.inv(np.linalg.cholesky(v.T @ v)).T, k)
    with _Stage(elapsed, "rowspace"):
        wsa = dense_sparse_multiply(top.u.T, sa) if sparse else top.u.T @ sa
        return complete_basis(orthonormal_rowspace(wsa), k)


def _swap_transposed(factors: LowRankFactors) -> LowRankFactors:
    """Factors of A^T -> factors of A with the orthonormal side restored."""
    q, r = np.linalg.qr(factors.y)
    return LowRankFactors(y=factors.z @ r.T, z=q, k=factors.k)


def _score_oracle(report: SolveReport, a: SparseMatrix, objective) -> None:
    with _Stage(report.elapsed, "oracle"):
        report.relative_error = OracleScorer(a).relative_error(report.factors, objective)


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
    if not 1 <= k < min(a.shape):
        raise ValueError(f"k={k} out of range 1..{min(a.shape) - 1}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    warnings: list[str] = []
    if eps > 0.5:
        warnings.append(f"eps={eps:g} clamped to 0.5")
        eps = 0.5

    transposed = a.nrows < a.ncols
    work = a.transpose() if transposed else a
    m, n = work.shape
    plan = make_sketch_plan(m, n, k, eps, p, mode, constants)
    report = SolveReport(factors=None, plan=plan, transposed=transposed)  # type: ignore[arg-type]

    z = _sketched_rowspace(work, k, eps, plan, stream, constants, report)
    with _Stage(report.elapsed, "regression"):
        reg = solve_regression_sketched(
            work, z, plan.r_embed, stream, counters=report.multiply_add_counts
        )
        if reg.seed is not None:
            report.seeds["r"] = reg.seed
        report.r_identity = reg.seed is None
        report.fallback_used = reg.fallback_used
    factors = LowRankFactors(y=reg.yhat, z=z, k=k)
    report.factors = _swap_transposed(factors) if transposed else factors
    report.warnings = tuple(warnings)

    if oracle:
        _score_oracle(report, a, lambda s: schatten_norm(s, p))
    return report


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
    loss,
    eps: float,
    stream: RandomStream,
    *,
    oracle: bool = False,
    constants: SketchConstants = DEFAULT_CONSTANTS,
    condition_grid=None,
) -> SolveReport:
    """Rank-k approximation under an increasing singular-value loss.

    Accepts a :class:`~sketchlr.norms.ScalarLoss` or a generalized
    :class:`~sketchlr.norms.LossSpec`. The loss must pass the regularity
    checks (growth, perturbation, scaling, subadditivity); otherwise the
    solve refuses and names the violated condition. The additive split is
    ``eta1 = c3 (eps/r)^{1/alpha}`` and the output is ``(A Z, Z)`` directly.

    On the default condition grid the regularity report of a hashable loss
    is computed once per ``(loss, eps)`` and shared by later solves, so a
    loss must not change once it has been solved with.
    """
    a = _ensure_sparse(a)
    if isinstance(loss, LossSpec):
        if loss.kind != "generalized" or loss.loss is None:
            raise ValueError("solve_generalized needs a generalized LossSpec")
        scalar, alpha_known = loss.loss, loss.alpha
    elif isinstance(loss, ScalarLoss):
        scalar, alpha_known = loss, None
    else:
        raise ValueError("loss must be a ScalarLoss or LossSpec")
    if not 1 <= k < min(a.shape):
        raise ValueError(f"k={k} out of range 1..{min(a.shape) - 1}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    warnings: list[str] = []
    if eps > 0.5:
        warnings.append(f"eps={eps:g} clamped to 0.5")
        eps = 0.5

    if condition_grid is None and isinstance(scalar, Hashable):
        cond = _default_grid_conditions(scalar, float(eps))
    else:
        cond = check_phi_conditions(scalar, eps, grid=condition_grid)
    if not cond.finite:
        raise ValueError(
            f"{scalar.describe()} fails loss condition(s): "
            + "; ".join(cond.violated_conditions())
        )
    alpha = float(alpha_known) if alpha_known is not None else cond.alpha
    alpha = max(alpha, 1e-6)

    transposed = a.nrows < a.ncols
    work = a.transpose() if transposed else a
    m, n = work.shape
    r_head = int(math.ceil(k / eps))
    eta1 = min(constants.c3 * (eps / r_head) ** (1.0 / alpha), eps)
    s_rows = min(sample_count(k, eps, eta1, constants.c_s), m)
    t_cols = int(math.ceil(constants.c_t * s_rows * (1.0 + math.log(s_rows)) / eps**2))
    plan = SketchPlan(
        eta1=eta1,
        eta2=1.0,
        r_kyfan=r_head,
        s_rows=s_rows,
        t_cols=t_cols,
        r_embed=None,
        mode="full_pipeline",
    )
    report = SolveReport(
        factors=None,  # type: ignore[arg-type]
        plan=plan,
        transposed=transposed,
        r_identity=True,
        condition_report=cond,
        warnings=tuple(warnings),
    )
    z = _sketched_rowspace(work, k, eps, plan, stream, constants, report)
    with _Stage(report.elapsed, "regression"):
        y = sparse_dense_multiply(
            work, z, _counter(report.multiply_add_counts, "regression")
        )
    factors = LowRankFactors(y=y, z=z, k=k)
    report.factors = _swap_transposed(factors) if transposed else factors

    if oracle:
        _score_oracle(report, a, lambda s: phi_objective(s, scalar))
    return report


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
    kp: float = 1.0,
) -> DiagnosticReport:
    """Check the two-sided Ky-Fan head inequality on random projections.

    For each random rank-k projection ``Q`` the sketched head norm
    ``||SA(I-Q)||_(p,r)^p`` must land inside the band
    ``(1 -/+ eps) ||A(I-Q)||_(p,r)^p -/+ slack`` where the additive slack is
    ``r eta1^{p/2} ||A-A_k||_p^p`` for p <= 2 and
    ``C_{p/2,eps} r eta1^{p/2} ||A-A_k||_F^p`` for p > 2 (the multiplicative
    band widens to ``kp * eps`` there). Reports the violation fraction; this
    is a diagnostic, not an assertion. ``sa`` may be dense or the
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
        mult = eps
    else:
        slack = cpe_constant(p / 2.0, eps) * r * eta1 ** (p / 2.0) * tail_f**p
        mult = kp * eps
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
        lo = (1.0 - mult) * head_a - slack
        hi = (1.0 + mult) * head_a + slack
        tol = 1e-9 * max(1.0, head_a)
        if not (lo - tol <= head_s <= hi + tol):
            violations += 1
            max_excess = max(max_excess, lo - head_s, head_s - hi)
    return DiagnosticReport(
        p=p,
        r=r,
        eta1=eta1,
        eps=eps,
        kp=kp,
        trials=trials,
        violations=violations,
        max_excess=max_excess,
    )
