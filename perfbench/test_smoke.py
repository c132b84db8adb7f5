"""Smoke tests: each workload at a tiny shape emits every named metric and runs every check."""

import json
import math

import numpy as np
import pytest

from perfbench import run as cli
from perfbench.bench import run, tail
from perfbench.inputs import sparse_triplets
from perfbench.workloads import BenchOracle, FullDesk, SparseLarge
from sketchlr import matrixcore, sketches, solver

SPEC = json.loads(cli.SPEC.read_text())

TINY = {
    "full_desk": lambda: FullDesk(nrows=60, ncols=40, nnz=240, k=3, setup_reps=2, panel=3),
    "sparse_large": lambda: SparseLarge(nrows=300, ncols=300, nnz=1500, k=3, setup_reps=2, panel=2),
    "bench_oracle": lambda: BenchOracle(
        nrows=50, ncols=40, nnz=200, k_list=(2, 3), trials=2, setup_reps=2, panel=2
    ),
}
FACTOR_CHECKS = {"factors_shape_finite", "z_orthonormal", "rel_error_valid", "beats_zero"}
CHECKS = {
    "full_desk": FACTOR_CHECKS,
    "sparse_large": FACTOR_CHECKS,
    "bench_oracle": {"records_complete", "rel_error_valid", "records_match"},
}


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(cli.NAMES) == list(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_emits_every_metric_and_runs_every_check(name, trace, tmp_path):
    metrics, details, _ = run(TINY[name](), seed=3, seconds=0.01, trace=bool(trace), workdir=tmp_path)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(metrics) == sorted(m["name"] for m in spec)
    assert all(math.isfinite(v) for v in metrics.values())
    assert details["failed"] == 0, details["errors"]
    rerun = "trace_identical" if trace else "deterministic_rerun"
    assert set(details["checks_ran"]) == CHECKS[name] | {rerun}
    if not trace:
        assert metrics["ok_frac"] == 1.0 and metrics["setup_s"] > 0 and metrics["op_ref_p50"] > 0
    assert list(tmp_path.iterdir()) == []  # the written input file is removed


def test_tracer_restores_every_binding(tmp_path):
    run(TINY["full_desk"](), seed=3, seconds=0.01, trace=True, workdir=tmp_path)
    for fn in (solver.svd, sketches.svd, solver.build_row_sampler, matrixcore.SparseMatrix.to_dense):
        assert not hasattr(fn, "__wrapped__")


def test_inputs_are_seeded_distinct_and_in_range():
    r, c, v = sparse_triplets(40, 30, 500, seed=9)
    again = sparse_triplets(40, 30, 500, seed=9)
    assert all(np.array_equal(x, y) for x, y in zip((r, c, v), again))
    assert np.unique(r * 30 + c).size == 500
    assert r.max() < 40 and c.max() < 30
    assert v.min() > 0.0 and v.max() <= 1.0


def test_tail_keeps_ten_ops_beyond():
    assert tail([float(i) for i in range(40)]) == (29.0, 75.0, 10)
    assert tail([float(i) for i in range(12)]) == (8.0, 75.0, 3)  # never below p75
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_refuses_without_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "SRC", tmp_path / "src")
    assert cli.main(["--workload", "full_desk", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
