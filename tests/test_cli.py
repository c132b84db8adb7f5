"""End-to-end tests of the command-line interface and its exit codes."""

import numpy as np

import sketchlr.solver
from sketchlr import ConvergenceError, load_matrix
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


def test_diagnose_runs(capsys):
    code = main(
        ["diagnose", "--m", "30", "--n", "20", "--density", "0.5", "--k", "2", "--trials", "10"]
    )
    assert code == 0
    assert "violations:" in capsys.readouterr().out


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


def test_numerical_failure_exit_code(monkeypatch, capsys):
    def broken_top_singular(*_):
        raise ConvergenceError("did not converge", residual=np.inf)

    # SA of a 20x10 input is too small for a block Krylov space, so the
    # sketched solve takes its top-k through top_singular
    monkeypatch.setattr(sketchlr.solver, "top_singular", broken_top_singular)
    code = main(["solve", "--m", "20", "--n", "10", "--k", "2"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
