"""sketchlr: input-sparsity-style rank-k approximation in Schatten norms.

The pipeline sketches the input, extracts a candidate row space from the
sketch, and recovers the left factor by exact regression onto it, giving factors
``(Y, Z)`` with ``||A - Y Z^T||_p`` close to the best rank-k error for every
Schatten p-norm (and a family of generalized singular-value losses). The exact
error scorer ``OracleScorer``, a Frobenius baseline and an experiment harness
round out the package.
"""

from .harness import (
    ExperimentConfig,
    ParseError,
    SummaryRow,
    TrialRecord,
    emit_csv,
    generate_synthetic,
    load_matrix,
    read_summary_csv,
    read_trials_csv,
    run_experiment,
    summarize,
    write_matrix_market,
)
from .matrixcore import (
    ConvergenceError,
    LowRankFactors,
    MultiplyAddCounter,
    ScaleLimitError,
    SparseMatrix,
    SvdResult,
    complete_basis,
    sparse_dense_multiply,
    svd,
)
from .norms import (
    ConditionReport,
    HuberLoss,
    L1L2Loss,
    ScalarLoss,
    TukeyPLoss,
    check_phi_conditions,
    cpe_constant,
    kyfan_pr_norm,
    parse_loss,
    phi_objective,
    schatten_norm,
)
from .rng import RandomStream, generator_from_seed
from .sketches import (
    CountSketchOperator,
    SamplingSketch,
    SketchPlan,
    apply_countsketch_left,
    apply_row_sampler,
    build_countsketch,
    build_row_sampler,
    make_sketch_plan,
    sample_count,
)
from .solver import (
    DiagnosticReport,
    OracleScorer,
    SolveReport,
    diagnose_kyfan_preservation,
    relative_error_from,
    solve_generalized,
    solve_schatten,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionReport",
    "ConvergenceError",
    "CountSketchOperator",
    "DiagnosticReport",
    "ExperimentConfig",
    "HuberLoss",
    "L1L2Loss",
    "LowRankFactors",
    "MultiplyAddCounter",
    "OracleScorer",
    "ParseError",
    "RandomStream",
    "SamplingSketch",
    "ScaleLimitError",
    "ScalarLoss",
    "SketchPlan",
    "SolveReport",
    "SparseMatrix",
    "SummaryRow",
    "SvdResult",
    "TrialRecord",
    "TukeyPLoss",
    "apply_countsketch_left",
    "apply_row_sampler",
    "build_countsketch",
    "build_row_sampler",
    "check_phi_conditions",
    "complete_basis",
    "cpe_constant",
    "diagnose_kyfan_preservation",
    "emit_csv",
    "generate_synthetic",
    "generator_from_seed",
    "kyfan_pr_norm",
    "load_matrix",
    "make_sketch_plan",
    "parse_loss",
    "phi_objective",
    "read_summary_csv",
    "read_trials_csv",
    "relative_error_from",
    "run_experiment",
    "sample_count",
    "schatten_norm",
    "solve_generalized",
    "solve_schatten",
    "sparse_dense_multiply",
    "summarize",
    "svd",
    "write_matrix_market",
]
