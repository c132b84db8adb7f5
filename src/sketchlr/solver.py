"""Sketch-then-solve rank-k approximation under Schatten and generalized losses.

The pipeline for ``min_X ||A - X||_p`` over rank-k ``X``:

1. pick additive error splits (eta1, eta2) and sketch dimensions from
   :func:`sketchlr.sketches.make_sketch_plan`;
2. left-sketch ``A`` with a row sampler ``S`` whose Gram sandwich carries the
   eta1 additive term (a CountSketch of ``k^2`` rows in simplified mode);
3. right-sketch ``SA`` with a subspace embedding ``T``;
4. take the top-k left singular block of ``SAT``
   (:func:`~sketchlr.matrixcore.top_singular`) and an orthonormal basis
   ``Z`` of the row space it induces on ``SA``;
5. recover ``Y`` by sketched Frobenius regression against ``Z``.

The returned pair never materializes ``Y @ Z.T``. Wide inputs are solved on
the transpose and the factors swapped back.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .matrixcore import (
    DENSE_GUARD,
    RANK_TOL,
    LowRankFactors,
    MultiplyAddCounter,
    SparseMatrix,
    _check_dense,
    complete_basis,
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
    applications and explicit factor products. Not counted: the dense
    factorizations (the Gram eigendecomposition behind the leverage scores,
    :func:`~sketchlr.matrixcore.top_singular` on the double sketch and the
    row-space SVD) and the Gram products that feed the first two.
    ``relative_error`` is only present when the exact oracle was run.
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
        raise ValueError(
            f"dense factorization refused: min dimension {min(a.shape)} exceeds "
            f"the guard {DENSE_GUARD}"
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


def solve_regression_sketched(
    a,
    z: np.ndarray,
    r_embed: int | None,
    stream: RandomStream,
    counters: dict | None = None,
) -> RegressionResult:
    """Minimize ``||(A - Y Z^T) R||_F`` over ``Y`` for a CountSketch ``R``.

    ``Y`` is the least-squares minimizer ``(AR) (Z^T R)^+``; with
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
    ar = apply_countsketch_right(a, r_op, _counter(counters, "r_apply"))
    zr = apply_countsketch_right(z.T, r_op, _counter(counters, "zr_apply"))
    sv = singular_values(zr)
    if sv.size < k or sv[0] == 0.0 or np.sum(sv > RANK_TOL * sv[0]) < k:
        yhat = sparse_dense_multiply(a, z, _counter(counters, "regression"))
        return RegressionResult(yhat=yhat, seed=r_op.seed, fallback_used=True)
    yhat = np.linalg.lstsq(zr.T, ar.T, rcond=None)[0].T
    return RegressionResult(yhat=yhat, seed=r_op.seed, fallback_used=False)


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


def _counter(counters: dict | None, key: str) -> MultiplyAddCounter | None:
    """A counter that folds its total into ``counters[key]`` immediately."""
    if counters is None:
        return None

    class _Folding(MultiplyAddCounter):
        def add(inner, n: int) -> None:  # noqa: N805
            counters[key] = counters.get(key, 0) + int(n)

    return _Folding()


def _sketched_rowspace(
    work: SparseMatrix,
    k: int,
    eps: float,
    plan: SketchPlan,
    stream: RandomStream,
    constants: SketchConstants,
    report: SolveReport,
) -> tuple[np.ndarray, np.ndarray]:
    """Stages 2-4: returns (SA, Z) and fills the report bookkeeping."""
    counters, elapsed, seeds = (
        report.multiply_add_counts,
        report.elapsed,
        report.seeds,
    )
    with _Stage(elapsed, "s_apply"):
        if plan.mode == "simplified_experiment":
            s_op = build_countsketch(work.nrows, plan.s_rows, stream)
            seeds["s"] = s_op.seed
            sa = apply_countsketch_left(work, s_op, _counter(counters, "s_apply"))
        else:
            s_sk = build_row_sampler(work, k, eps, plan.eta1, stream, constants)
            seeds["s"] = s_sk.seed
            report.clipped |= s_sk.clipped
            report.degenerate |= s_sk.degenerate
            sa = apply_row_sampler(work, s_sk, _counter(counters, "s_apply"))
    with _Stage(elapsed, "t_apply"):
        if plan.mode == "simplified_experiment":
            sat = sa
        else:
            t_op = build_row_sampler_T(sa, eps, stream, plan.mode, constants)
            if isinstance(t_op, IdentitySketch):
                sat = sa
            else:
                seeds["t"] = t_op.seed
                sat = apply_countsketch_right(sa, t_op, _counter(counters, "t_apply"))
    with _Stage(elapsed, "svd_sat"):
        # a clipped sample of a matrix with fewer than k nonzero rows is thin
        w_top = top_singular(sat, min(k, *sat.shape)).u
    with _Stage(elapsed, "rowspace"):
        wsa = w_top.T @ sa
        counters["wsa"] = counters.get("wsa", 0) + k * sa.shape[0] * sa.shape[1]
        z = orthonormal_rowspace(wsa)
        if z.shape[1] < k:
            z = complete_basis(z, k)
    return sa, z


def _swap_transposed(factors: LowRankFactors) -> LowRankFactors:
    """Factors of A^T -> factors of A with the orthonormal side restored."""
    q, r = np.linalg.qr(factors.y)
    return LowRankFactors(y=factors.z @ r.T, z=q, k=factors.k)


def _schatten_error(a: SparseMatrix, factors: LowRankFactors, k: int, p: float) -> float:
    dense = _dense_guarded(a)
    sigma = singular_values(dense)
    resid = dense - factors.y @ factors.z.T
    resid_norm = schatten_norm(singular_values(resid), p)
    opt_norm = schatten_norm(sigma[k:], p) if k < sigma.size else 0.0
    return relative_error_from(resid_norm, opt_norm, schatten_norm(sigma, p))


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

    _, z = _sketched_rowspace(work, k, eps, plan, stream, constants, report)
    with _Stage(report.elapsed, "regression"):
        reg = solve_regression_sketched(
            work, z, plan.r_embed, stream, counters=report.multiply_add_counts
        )
        if reg.seed is not None:
            report.seeds["r"] = reg.seed
        report.fallback_used = reg.fallback_used
    factors = LowRankFactors(y=reg.yhat, z=z, k=k)
    report.factors = _swap_transposed(factors) if transposed else factors
    report.warnings = tuple(warnings)

    if oracle:
        with _Stage(report.elapsed, "oracle"):
            report.relative_error = _schatten_error(a, report.factors, k, p)
    return report


def solve_frobenius_baseline(
    a,
    k: int,
    stream: RandomStream,
    *,
    oracle: bool = False,
) -> SolveReport:
    """CountSketch-then-SVD Frobenius baseline.

    Left-sketches with ``k^2`` CountSketch rows, takes the top-k right
    singular vectors of ``SA`` as ``Z`` and returns ``Y = A @ Z``. The
    reported relative error is measured in the Schatten 1-norm, the metric
    the Schatten pipeline is compared against.
    """
    a = _ensure_sparse(a)
    if not 1 <= k < min(a.shape):
        raise ValueError(f"k={k} out of range 1..{min(a.shape) - 1}")
    transposed = a.nrows < a.ncols
    work = a.transpose() if transposed else a
    plan = SketchPlan(
        eta1=1.0,
        eta2=1.0,
        r_kyfan=k,
        s_rows=k * k,
        t_cols=None,
        r_embed=None,
        mode="simplified_experiment",
    )
    report = SolveReport(factors=None, plan=plan, transposed=transposed)  # type: ignore[arg-type]
    with _Stage(report.elapsed, "s_apply"):
        s_op = build_countsketch(work.nrows, plan.s_rows, stream)
        report.seeds["s"] = s_op.seed
        sa = apply_countsketch_left(
            work, s_op, _counter(report.multiply_add_counts, "s_apply")
        )
    with _Stage(report.elapsed, "svd_sat"):
        z = top_singular(sa, k).v
    with _Stage(report.elapsed, "regression"):
        y = sparse_dense_multiply(
            work, z, _counter(report.multiply_add_counts, "regression")
        )
    factors = LowRankFactors(y=y, z=z, k=k)
    report.factors = _swap_transposed(factors) if transposed else factors
    if oracle:
        with _Stage(report.elapsed, "oracle"):
            report.relative_error = _schatten_error(a, report.factors, k, 1.0)
    return report


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
        condition_report=cond,
        warnings=tuple(warnings),
    )
    _, z = _sketched_rowspace(work, k, eps, plan, stream, constants, report)
    with _Stage(report.elapsed, "regression"):
        y = sparse_dense_multiply(
            work, z, _counter(report.multiply_add_counts, "regression")
        )
    factors = LowRankFactors(y=y, z=z, k=k)
    report.factors = _swap_transposed(factors) if transposed else factors

    if oracle:
        with _Stage(report.elapsed, "oracle"):
            dense = _dense_guarded(a)
            sigma = singular_values(dense)
            resid = dense - report.factors.y @ report.factors.z.T
            num = phi_objective(singular_values(resid), scalar)
            opt = phi_objective(sigma[k:], scalar) if k < sigma.size else 0.0
            report.relative_error = relative_error_from(
                num, opt, phi_objective(sigma, scalar)
            )
    return report


def diagnose_kyfan_preservation(
    a,
    sa: np.ndarray,
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
    is a diagnostic, not an assertion.
    """
    dense = _dense_guarded(_ensure_sparse(a))
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
