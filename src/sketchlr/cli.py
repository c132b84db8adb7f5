"""Command-line front end: gen / solve / bench / diagnose.

Exit codes: 0 success, 2 configuration or parse error, 3 numerical failure.
"""

import argparse
import sys

import numpy as np

from .harness import (
    FORMATS,
    ExperimentConfig,
    ParseError,
    emit_csv,
    generate_synthetic,
    load_matrix,
    run_experiment,
    write_matrix_market,
)
from .matrixcore import ConvergenceError
from .norms import parse_loss, phi_objective, schatten_norm
from .rng import RandomStream
from .sketches import MODES, make_sketch_plan, build_row_sampler, apply_row_sampler
from .solver import (
    OracleScorer,
    _prologue,
    clamp_eps,
    diagnose_kyfan_preservation,
    solve_generalized,
    solve_schatten,
)


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="path to a matrix file")
    p.add_argument("--format", default="matrix_market", choices=FORMATS, help="input file layout")
    p.add_argument("--m", type=int, help="synthetic row count")
    p.add_argument("--n", type=int, help="synthetic column count")
    p.add_argument("--density", type=float, default=0.05, help="synthetic fill fraction")


def _source_matrix(args, stream: RandomStream):
    if args.input is not None:
        return load_matrix(args.input, args.format)
    if args.m is None or args.n is None:
        raise ValueError("either --input or both --m and --n are required")
    return generate_synthetic(args.m, args.n, args.density, stream)


def _cmd_gen(args) -> int:
    stream = RandomStream(args.seed)
    mat = generate_synthetic(args.m, args.n, args.density, stream)
    write_matrix_market(args.out, mat)
    print(f"wrote {mat.nrows}x{mat.ncols} matrix with nnz={mat.nnz} to {args.out}")
    return 0


def _mass(mass: float | None) -> str:
    """The certified mass of a sample's overestimates, or ``None`` when no scores ran."""
    return "None" if mass is None else f"{mass:.4g}"


def _cmd_solve(args) -> int:
    if args.loss is not None and args.mode != "full_pipeline":
        raise ValueError(f"--loss solves in full_pipeline mode only, not --mode {args.mode}")
    stream = RandomStream(args.seed)
    mat = _source_matrix(args, stream)
    if args.loss is not None:
        loss = parse_loss(args.loss)
        report = solve_generalized(mat, args.k, loss, args.eps, stream)
        objective = f"generalized({args.loss})"
        norm = lambda s: phi_objective(s, loss)
    else:
        report = solve_schatten(mat, args.k, args.p, args.eps, stream, args.mode)
        objective = f"schatten p={args.p:g}"
        norm = lambda s: schatten_norm(s, args.p)
    f = report.factors
    print(f"matrix: {mat.nrows}x{mat.ncols} nnz={mat.nnz}")
    print(f"objective: {objective}, k={args.k}, eps={args.eps:g}, mode={args.mode}")
    print(f"factors: Y {f.y.shape[0]}x{f.y.shape[1]}, Z {f.z.shape[0]}x{f.z.shape[1]}")
    approx_sigma = np.linalg.svd(f.y, compute_uv=False)
    print(f"approximation Schatten-1 mass: {schatten_norm(approx_sigma, 1.0):.6g}")
    print(f"seeds: {report.seeds}")
    print(
        "flags: "
        f"fallback={report.fallback_used} transposed={report.transposed} "
        f"clipped={report.clipped} "
        f"degenerate={report.degenerate} "
        f"scores={report.score_kernel} "
        f"rows={report.rows_drawn}/{report.plan.s_rows} mass={_mass(report.score_mass)}"
    )
    for w in report.warnings:
        print(f"warning: {w}")
    if args.oracle:
        error = OracleScorer(mat).relative_error(f, norm)
        print(f"relative error vs exact rank-{args.k}: {error:.6g}")
    total = sum(report.elapsed.values())
    stages = ", ".join(f"{k}={v * 1e3:.2f}ms" for k, v in report.elapsed.items())
    print(f"elapsed: total={total * 1e3:.2f}ms ({stages})")
    return 0


def _cmd_bench(args) -> int:
    eps, warnings = clamp_eps(args.eps)
    cfg = ExperimentConfig(
        k_list=[int(v) for v in args.k.split(",")],
        p=args.p,
        eps=eps,
        trials=args.trials,
        seed=args.seed,
        mode=args.mode,
        oracle=args.oracle,
        nrows=args.m if args.input is None else None,
        ncols=args.n if args.input is None else None,
        density=args.density if args.input is None else None,
        input_path=args.input,
        input_format=args.format,
    )
    records, summary = run_experiment(cfg)
    if args.out:
        emit_csv(records, summary, args.out)
        print(f"wrote {args.out}.trials.csv and {args.out}.summary.csv")
    header = f"{'k':>4} {'algo':>20} {'median rel_error':>18} {'median wall_ms':>15} {'trials':>7}"
    print(header)
    for row in summary:
        err = f"{row.median_rel_error:.6g}" if row.median_rel_error is not None else "-"
        print(
            f"{row.k:>4} {row.algo:>20} {err:>18} "
            f"{row.median_wall_ms:>15.3f} {row.n_trials:>7}"
        )
    for w in warnings:
        print(f"warning: {w}")
    return 0


def _cmd_diagnose(args) -> int:
    stream = RandomStream(args.seed)
    mat = _source_matrix(args, stream)
    work, _, eps, warnings = _prologue(mat, args.k, args.eps)
    plan = make_sketch_plan(*work.shape, args.k, eps, args.p, "full_pipeline")
    sampler = build_row_sampler(work, args.k, eps, plan.eta1, stream)
    sa = apply_row_sampler(work, sampler)
    report = diagnose_kyfan_preservation(
        work,
        sa,
        args.k,
        args.p,
        plan.r_kyfan,
        plan.eta1,
        args.trials,
        stream,
        eps=eps,
    )
    print(
        f"head preservation at p={report.p:g}, r={report.r}, eta1={report.eta1:.3g}, "
        f"eps={report.eps:g}"
    )
    print(
        f"sampler rows: {sampler.sample_count}/{sampler.source_dim} "
        f"(clipped={sampler.clipped}, scores={sampler.score_kernel}) "
        f"mass={_mass(sampler.mass)}"
    )
    print(
        f"violations: {report.violations}/{report.trials} "
        f"(fraction {report.violation_fraction:.3f}, max excess {report.max_excess:.3g})"
    )
    for w in warnings:
        print(f"warning: {w}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchlr",
        description="Sketch-based rank-k low-rank approximation in Schatten norms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a synthetic sparse matrix")
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--density", type=float, default=0.05)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="solve one instance and print a summary")
    _add_source_args(p_solve)
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--p", type=float, default=1.0)
    p_solve.add_argument("--eps", type=float, default=0.5)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--mode", default="full_pipeline", choices=MODES)
    p_solve.add_argument(
        "--loss", help="generalized loss instead of a Schatten norm (e.g. huber:1.0)"
    )
    p_solve.add_argument(
        "--oracle",
        action="store_true",
        help="also score the factors exactly against the input and report the relative error",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="multi-trial benchmark with CSV output")
    _add_source_args(p_bench)
    p_bench.add_argument("--k", default="5,10,20", help="comma-separated ranks")
    p_bench.add_argument("--p", type=float, default=1.0)
    p_bench.add_argument("--eps", type=float, default=0.5)
    p_bench.add_argument("--trials", type=int, default=50)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--mode", default="simplified_experiment", choices=MODES)
    p_bench.add_argument("--oracle", action="store_true")
    p_bench.add_argument("--out", help="CSV basename")
    p_bench.set_defaults(func=_cmd_bench)

    p_diag = sub.add_parser(
        "diagnose", help="empirical Ky-Fan head preservation check"
    )
    _add_source_args(p_diag)
    p_diag.add_argument("--k", type=int, required=True)
    p_diag.add_argument("--p", type=float, default=1.0)
    p_diag.add_argument("--eps", type=float, default=0.5)
    p_diag.add_argument("--trials", type=int, default=100)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.set_defaults(func=_cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
