"""End-to-end tests of the command-line interface and its exit codes."""

from dataclasses import replace

import numpy as np
import pytest

import sketchlr.cli
import sketchlr.matrixcore
import sketchlr.sketches
import sketchlr.solver
from sketchlr import (
    ConvergenceError,
    RandomStream,
    build_row_sampler,
    generate_synthetic,
    load_matrix,
    make_sketch_plan,
    parse_loss,
    run_experiment,
    solve_generalized,
)
from sketchlr.cli import main


def test_gen_writes_loadable_matrix(tmp_path, capsys):
    out = tmp_path / "synthetic.mtx"
    code = main(["gen", "--m", "30", "--n", "20", "--density", "0.2", "--out", str(out)])
    assert code == 0
    assert "nnz=" in capsys.readouterr().out
    mat = load_matrix(out)
    assert mat.shape == (30, 20)


def test_solve_synthetic(capsys):
    code = main(
        ["solve", "--m", "40", "--n", "25", "--density", "0.3", "--k", "3", "--p", "1.5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "factors: Y 40x3, Z 25x3" in out
    assert "elapsed" in out


def test_solve_with_oracle_and_file(tmp_path, capsys):
    out = tmp_path / "m.mtx"
    assert main(["gen", "--m", "25", "--n", "20", "--out", str(out)]) == 0
    code = main(
        ["solve", "--input", str(out), "--k", "2", "--oracle", "--mode", "simplified_experiment"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "relative error" in out
    assert "flags: fallback=False transposed=False clipped=False degenerate=False" in out


@pytest.mark.parametrize("mode", ["simplified_experiment", "full_pipeline"])
def test_solve_oracle_on_a_wide_input_matches_a_dense_reference(tmp_path, capsys, mode):
    # a wide solve runs on the transpose and swaps its factors back; its
    # error is scored from the R of the tall orientation, and must equal the
    # one from the dense residual's singular values
    out = tmp_path / "wide.mtx"
    assert main(["gen", "--m", "30", "--n", "70", "--density", "0.2", "--out", str(out)]) == 0
    reports = []
    real = sketchlr.cli.solve_schatten

    def capture(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sketchlr.cli, "solve_schatten", capture)
        mp.setattr(sketchlr.sketches, "C_S", 0.2)  # a sampled S, not a clipped one
        argv = ["solve", "--input", str(out), "--k", "3", "--p", "1", "--oracle", "--mode", mode]
        assert main(argv) == 0
    printed = capsys.readouterr().out
    assert "transposed=True" in printed
    error = float(printed.split("relative error vs exact rank-3: ")[1].split()[0])
    a = load_matrix(out).to_dense()
    f = reports[0].factors
    sigma = np.linalg.svd(a, compute_uv=False)
    resid = np.linalg.svd(a - f.y @ f.z.T, compute_uv=False).sum()
    want = resid / sigma[3:].sum() - 1.0
    assert want > 1e-5  # a relative tolerance needs an error away from 0
    assert error == pytest.approx(want, rel=1e-5)


def test_solve_generalized_loss(capsys):
    code = main(
        ["solve", "--m", "30", "--n", "20", "--k", "2", "--loss", "huber:1.0"]
    )
    assert code == 0
    assert "generalized(huber:1.0)" in capsys.readouterr().out


def test_loss_with_simplified_mode_is_refused(capsys):
    code = main(
        ["solve", "--m", "30", "--n", "20", "--k", "2", "--loss", "huber:1.0",
         "--mode", "simplified_experiment"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--loss" in captured.err and "--mode simplified_experiment" in captured.err


@pytest.mark.parametrize("loss", ["huber:1:2", "tukey_p:1:2:3", "huber:nan"])
def test_bad_loss_is_config_error(loss, capsys):
    code = main(["solve", "--m", "50", "--n", "40", "--k", "2", "--loss", loss])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bench_writes_csv(tmp_path, capsys):
    base = tmp_path / "bench"
    code = main(
        [
            "bench",
            "--m", "40",
            "--n", "30",
            "--density", "0.3",
            "--k", "2,3",
            "--trials", "2",
            "--oracle",
            "--out", str(base),
        ]
    )
    assert code == 0
    assert (tmp_path / "bench.trials.csv").exists()
    assert (tmp_path / "bench.summary.csv").exists()
    out = capsys.readouterr().out
    assert "schatten_p" in out and "frobenius_baseline" in out


def test_bench_clamps_eps_like_solve(monkeypatch, capsys):
    runs = []

    def spy(cfg):
        runs.append(run_experiment(cfg))
        return runs[-1]

    monkeypatch.setattr(sketchlr.cli, "run_experiment", spy)
    source = ["--m", "40", "--n", "30", "--density", "0.3", "--k", "2", "--trials", "2"]
    for eps in ("0.9", "0.5"):
        assert main(["bench", *source, "--mode", "full_pipeline", "--oracle", "--eps", eps]) == 0
        warned = "warning: eps=0.9 clamped to 0.5\n" in capsys.readouterr().out
        assert warned == (eps == "0.9")
    # the solves clamp to the same eps, so only the wall times differ
    clamped, plain = ([replace(r, wall_ms=0.0) for r in records] for records, _ in runs)
    assert clamped == plain


def test_repeated_rank_is_config_error(tmp_path, capsys):
    base = tmp_path / "bench"
    argv = ["bench", "--m", "30", "--n", "20", "--k", "2,2", "--trials", "1", "--out", str(base)]
    code = main(argv)
    assert code == 2
    captured = capsys.readouterr()
    assert "error: k_list repeats rank 2" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "bench.trials.csv").exists()


def test_diagnose_runs(capsys):
    code = main(
        ["diagnose", "--m", "30", "--n", "20", "--density", "0.5", "--k", "2", "--trials", "10"]
    )
    assert code == 0
    assert "violations:" in capsys.readouterr().out


def test_diagnose_clamps_eps_like_solve(capsys):
    source = ["--m", "2000", "--n", "400", "--density", "0.01", "--k", "1", "--eps", "0.8"]
    assert main(["diagnose", *source, "--trials", "5"]) == 0
    diagnose = capsys.readouterr().out
    assert main(["solve", *source, "--loss", "huber:1.0"]) == 0
    solve = capsys.readouterr().out
    for out in (diagnose, solve):
        assert "warning: eps=0.8 clamped to 0.5" in out
    assert "eps=0.5\n" in diagnose
    # both name the kernel that scored the rows the sampler drew
    assert "(clipped=False, scores=norms)" in diagnose
    assert "clipped=False degenerate=False scores=norms" in solve


@pytest.mark.parametrize(
    "command",
    [["solve"], ["solve", "--loss", "huber:1.0"], ["diagnose", "--trials", "2"]],
    ids=["schatten", "generalized", "diagnose"],
)
def test_nan_eps_is_refused_alike(command, capsys):
    # NaN fails every comparison, so it must be refused before any sizing
    assert main([*command, "--m", "30", "--n", "20", "--k", "2", "--eps", "nan"]) == 2
    assert capsys.readouterr().err == "error: eps must be positive\n"


def test_solve_and_diagnose_report_the_rows_drawn_and_their_mass(capsys):
    # the row norms certify a mass below K = k + eps/eta, so both commands
    # draw fewer rows than the plan's budget and print the mass that sized them
    m, n, density, k, eps = 2000, 400, 0.01, 1, 0.5
    source = ["--m", str(m), "--n", str(n), "--density", str(density), "--k", str(k)]
    assert main(["solve", *source, "--loss", "huber:1.0"]) == 0
    [flags] = [line for line in capsys.readouterr().out.splitlines() if line.startswith("flags:")]
    stream = RandomStream(0)
    a = generate_synthetic(m, n, density, stream)
    report = solve_generalized(a, k, parse_loss("huber:1.0"), eps, stream)
    assert report.score_kernel == "norms" and report.rows_drawn < report.plan.s_rows
    assert flags.endswith(
        f" scores=norms rows={report.rows_drawn}/{report.plan.s_rows} "
        f"mass={report.score_mass:.4g}"
    )

    assert main(["diagnose", *source, "--trials", "2"]) == 0
    [rows] = [line for line in capsys.readouterr().out.splitlines() if "sampler rows:" in line]
    stream = RandomStream(0)
    a = generate_synthetic(m, n, density, stream)
    plan = make_sketch_plan(m, n, k, eps, 1.0)
    sampler = build_row_sampler(a, k, eps, plan.eta1, stream)
    assert sampler.sample_count < plan.s_rows
    assert rows == (
        f"sampler rows: {sampler.sample_count}/{m} (clipped=False, scores=norms) "
        f"mass={sampler.mass:.4g}"
    )


@pytest.mark.parametrize(
    "args",
    [
        ["--loss", "huber:1", "--eps", "1e-17"],
        ["--loss", "huber:1", "--eps", "1e-310"],
        ["--eps", "1e-81"],
    ],
    ids=["loss", "loss-subnormal", "p1"],
)
def test_an_eps_too_small_to_size_is_config_error(args, capsys):
    # at 1e-17, 1 + eps == 1 reads the growth constant alpha as 0, whose
    # floor underflows eta1; at 1e-310, eps / ceil(k / eps) underflows
    # before the loss's grid estimate, which diverges there, is taken; at
    # 1e-81, (eps^2 / k)^2 underflows
    assert main(["solve", "--m", "50", "--n", "40", "--k", "2", *args]) == 2
    eps = args[-1]
    assert capsys.readouterr().err.startswith(f"error: eps={eps} is too small: ")


def test_a_loss_that_does_not_grow_is_refused_by_name(capsys):
    # tukey_p with tau below the condition grid is constant on it, so its
    # growth constant alpha is 0 and no error split is positive
    assert main(["solve", "--m", "60", "--n", "40", "--k", "3", "--loss", "tukey_p:2:1e-7"]) == 2
    assert capsys.readouterr().err == (
        "error: tukey_p(p=2, tau=1e-07) does not grow: growth constant alpha=0 on the grid\n"
    )


def test_an_eps_whose_count_overflows_solves_on_every_row(capsys):
    source = ["--m", "50", "--n", "40", "--density", "0.5"]
    assert main(["solve", *source, "--k", "2", "--eps", "1e-66"]) == 0
    out = capsys.readouterr().out
    assert " clipped=True " in out and " rows=50/50 " in out


@pytest.mark.parametrize("command", ["diagnose", "solve"])
@pytest.mark.parametrize("p", ["nan", "inf"])
def test_non_finite_p_is_config_error(command, p, capsys):
    code = main([command, "--m", "60", "--n", "40", "--k", "2", "--p", p])
    assert code == 2
    assert f"error: p must be a finite value >= 1, got {p}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve"], ["diagnose", "--trials", "3"]])
def test_k_at_min_shape_is_refused_alike(command, capsys):
    # at k = min(shape) the head check is vacuous, so diagnose refuses it as solve does
    assert main([*command, "--m", "30", "--n", "20", "--density", "0.5", "--k", "20"]) == 2
    assert capsys.readouterr().err == "error: k=20 out of range 1..19\n"


def test_missing_source_is_config_error(capsys):
    code = main(["solve", "--k", "3"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_k_is_config_error(capsys):
    code = main(["solve", "--m", "10", "--n", "10", "--k", "10"])
    assert code == 2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n9 9 1.0\n")
    code = main(["solve", "--input", str(bad), "--k", "1"])
    assert code == 2
    assert "bad.mtx:3" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [10**13, 10**20])
def test_unstorable_size_line_exit_code(tmp_path, monkeypatch, capsys, rows):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 72.8 TiB")

    # injected: scipy's row pointers of 10^13 rows would ask for 72.8 TiB
    monkeypatch.setattr(sketchlr.matrixcore.sp, "csr_array", out_of_memory)
    big = tmp_path / "big.mtx"
    big.write_text(f"%%MatrixMarket matrix coordinate real general\n{rows} 3 1\n1 1 1.0\n")
    assert main(["solve", "--input", str(big), "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert "big.mtx:2: " in err and f"{rows}x3" in err


@pytest.mark.parametrize("rows", [10**13, 10**20])
def test_unstorable_gen_shape_exit_code(tmp_path, monkeypatch, capsys, rows):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 72.8 TiB")

    # injected, as above; the refusal comes before the first row block is drawn
    monkeypatch.setattr(sketchlr.matrixcore.sp, "csr_array", out_of_memory)
    out = tmp_path / "big.mtx"
    assert main(["gen", "--m", str(rows), "--n", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and f"{rows}x3" in captured.err
    assert captured.out == "" and not out.exists()


def test_numerical_failure_exit_code(monkeypatch, capsys):
    def broken_top_singular(*_):
        raise ConvergenceError("did not converge", residual=np.inf)

    # a simplified-mode solve takes the top-k of its dense SA through top_singular
    monkeypatch.setattr(sketchlr.solver, "top_singular", broken_top_singular)
    code = main(["solve", "--m", "20", "--n", "10", "--k", "2", "--mode", "simplified_experiment"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
