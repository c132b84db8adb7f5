"""The three workloads: inputs, the program-side set-up, one op, and its checks.

Every workload drives sketchlr's public entry points through module attributes
(``solver.solve_schatten``, ``harness.load_matrix``, ...) so a traced run sees
the calls. Inputs come from :mod:`perfbench.inputs`; references for the error
are computed here with numpy/scipy directly, outside the timed ops.
"""

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sketchlr import harness, solver
from sketchlr.matrixcore import SparseMatrix
from sketchlr.norms import parse_loss
from sketchlr.rng import RandomStream

from .inputs import seed_for, sparse_triplets, write_matrix_market

ORTHO_TOL = 1e-9  # the tolerance LowRankFactors itself enforces on Z^T Z
ROUNDING = 1e-12  # slack for "rel_error >= 0" and "beats the zero approximation"
EPS = 0.5


class CheckFailed(Exception):
    """An op returned, but its output failed a check."""


class Checks:
    """Counts how often each named check ran, so tests can see that all did."""

    def __init__(self) -> None:
        self.ran: dict[str, int] = {}

    def require(self, name: str, ok: bool, detail: str = "") -> None:
        self.ran[name] = self.ran.get(name, 0) + 1
        if not ok:
            raise CheckFailed(f"{name}: {detail}" if detail else name)


def _factors(report):
    return report.factors.y, report.factors.z


def _factors_digest(report) -> str:
    y, z = _factors(report)
    return hashlib.sha256(y.tobytes() + z.tobytes()).hexdigest()


def check_factors(checks: Checks, y, z, shape, k) -> None:
    m, n = shape
    checks.require(
        "factors_shape_finite",
        y.shape == (m, k) and z.shape == (n, k) and np.isfinite(y).all() and np.isfinite(z).all(),
        f"y{y.shape} z{z.shape}",
    )
    gap = float(np.max(np.abs(z.T @ z - np.eye(k))))
    checks.require("z_orthonormal", gap <= ORTHO_TOL, f"|Z^T Z - I| = {gap:.3e}")


def check_error(checks: Checks, rel: float, ceiling: float) -> None:
    """``rel`` is finite and non-negative, and below what Y = 0 would score."""
    checks.require("rel_error_valid", math.isfinite(rel) and rel >= -ROUNDING, f"{rel!r}")
    checks.require("beats_zero", rel < ceiling + ROUNDING, f"{rel!r} >= {ceiling!r}")


@dataclass
class FullDesk:
    """``full_pipeline`` Schatten p=1, p=3 and a Huber solve on a desk-size input."""

    nrows: int = 1200
    ncols: int = 900
    nnz: int = 32400
    k: int = 5
    setup_reps: int = 11
    panel: int = 12  # four cycles
    ref_reps: int = 2

    name = "full_desk"
    tag = 1
    kinds = ("schatten_p1", "schatten_p3", "huber")
    identical_ops = False

    def prepare(self, seed: int, workdir) -> None:
        self.seed = seed
        self.rows, self.cols, self.vals = sparse_triplets(
            self.nrows, self.ncols, self.nnz, seed_for(seed, self.tag)
        )
        self.loss = parse_loss("huber:1.0")

    def setup(self) -> SparseMatrix:
        return SparseMatrix(self.nrows, self.ncols, self.rows, self.cols, self.vals)

    def reference(self, a: SparseMatrix) -> None:
        self.a = a
        dense = np.zeros((self.nrows, self.ncols))
        dense[self.rows, self.cols] = self.vals
        self.dense = dense
        self.sigma = np.linalg.svd(dense, compute_uv=False)

    def _objective(self, kind: str, sigma: np.ndarray) -> float:
        if kind == "huber":
            return float(np.sum(self.loss(sigma)))
        p = 1.0 if kind == "schatten_p1" else 3.0
        return float(np.sum(sigma**p) ** (1.0 / p))

    def op(self, i: int):
        kind = self.kinds[i % len(self.kinds)]
        stream = RandomStream(seed_for(self.seed, self.tag, i))
        if kind == "huber":
            return solver.solve_generalized(self.a, self.k, self.loss, EPS, stream)
        p = 1.0 if kind == "schatten_p1" else 3.0
        return solver.solve_schatten(self.a, self.k, p, EPS, stream, "full_pipeline")

    def check(self, checks: Checks, i: int, report) -> float:
        y, z = _factors(report)
        check_factors(checks, y, z, (self.nrows, self.ncols), self.k)
        kind = self.kinds[i % len(self.kinds)]
        resid = np.linalg.svd(self.dense - y @ z.T, compute_uv=False)
        opt = self._objective(kind, self.sigma[self.k :])
        rel = self._objective(kind, resid) / opt - 1.0
        check_error(checks, rel, self._objective(kind, self.sigma) / opt - 1.0)
        return rel

    def digest(self, report) -> str:
        return _factors_digest(report)

    def cleanup(self) -> None:
        pass


@dataclass
class SparseLarge:
    """``simplified_experiment`` solves on a 20000^2 file-backed sparse input."""

    nrows: int = 20000
    ncols: int = 20000
    nnz: int = 200_000
    k: int = 10
    setup_reps: int = 7
    panel: int = 10
    ref_reps: int = 1

    name = "sparse_large"
    tag = 2
    kinds = ("schatten_p1",)
    identical_ops = False

    def prepare(self, seed: int, workdir) -> None:
        self.seed = seed
        rows, cols, vals = sparse_triplets(self.nrows, self.ncols, self.nnz, seed_for(seed, self.tag))
        self.csr = sp.csr_array((vals, (rows, cols)), shape=(self.nrows, self.ncols))
        self.path = os.path.join(workdir, f"{self.name}-{seed}-{os.getpid()}.mtx")
        write_matrix_market(self.path, self.nrows, self.ncols, rows, cols, vals)

    def setup(self) -> SparseMatrix:
        return harness.load_matrix(self.path, "matrix_market")

    def reference(self, a: SparseMatrix) -> None:
        self.a = a
        v0 = np.random.default_rng(seed_for(self.seed, self.tag, 0xFFFF)).random(min(self.csr.shape))
        top = spla.svds(self.csr, k=self.k, v0=v0, return_singular_vectors=False)
        self.fro2 = float(np.sum(self.csr.data**2))
        self.opt2 = self.fro2 - float(np.sum(top**2))

    def op(self, i: int):
        stream = RandomStream(seed_for(self.seed, self.tag, i))
        return solver.solve_schatten(self.a, self.k, 1.0, EPS, stream, "simplified_experiment")

    def check(self, checks: Checks, i: int, report) -> float:
        y, z = _factors(report)
        check_factors(checks, y, z, (self.nrows, self.ncols), self.k)
        # ||A - Y Z^T||_F^2 = ||A||^2 - 2 tr(Y^T A Z) + ||Y||^2 for orthonormal Z
        resid2 = self.fro2 - 2.0 * float(np.sum(y * (self.csr @ z))) + float(np.sum(y * y))
        rel = math.sqrt(max(resid2, 0.0) / self.opt2) - 1.0
        check_error(checks, rel, math.sqrt(self.fro2 / self.opt2) - 1.0)
        return rel

    def digest(self, report) -> str:
        return _factors_digest(report)

    def cleanup(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)


@dataclass
class BenchOracle:
    """``sketchlr bench --input ... --oracle`` as one ``harness.run_experiment`` op."""

    nrows: int = 800
    ncols: int = 600
    nnz: int = 24000
    k_list: tuple = (5, 10, 20)
    trials: int = 2  # 4 would leave a 30 s run only five timed ops
    setup_reps: int = 9
    panel: int = 2
    ref_reps: int = 2

    name = "bench_oracle"
    tag = 3
    kinds = ("run_experiment",)
    identical_ops = True  # one configuration per run, so ops must agree

    def prepare(self, seed: int, workdir) -> None:
        self.seed = seed
        rows, cols, vals = sparse_triplets(self.nrows, self.ncols, self.nnz, seed_for(seed, self.tag))
        self.path = os.path.join(workdir, f"{self.name}-{seed}-{os.getpid()}.mtx")
        write_matrix_market(self.path, self.nrows, self.ncols, rows, cols, vals)

    def setup(self) -> SparseMatrix:
        return harness.load_matrix(self.path, "matrix_market")

    def reference(self, a: SparseMatrix) -> None:
        pass  # trial errors come scored by the harness's own oracle

    def op(self, i: int):
        # every op repeats one configuration, so records must match across ops
        cfg = harness.ExperimentConfig(
            k_list=list(self.k_list),
            p=1.0,
            eps=EPS,
            trials=self.trials,
            seed=seed_for(self.seed, self.tag) % 2**31,
            mode="simplified_experiment",
            oracle=True,
            input_path=self.path,
        )
        return harness.run_experiment(cfg)

    def check(self, checks: Checks, i: int, result) -> float:
        records, _ = result
        expected = len(self.k_list) * self.trials * 2  # both algorithms
        checks.require("records_complete", len(records) == expected, f"{len(records)} records")
        errors = [r.rel_error for r in records]
        checks.require(
            "rel_error_valid",
            all(e is not None and math.isfinite(e) and e >= -ROUNDING for e in errors),
            "a trial error is missing, non-finite or negative",
        )
        return float(np.median([r.rel_error for r in records if r.algo == "schatten_p"]))

    def digest(self, result) -> str:
        records, _ = result
        fields = [(r.k, r.trial_index, r.algo, r.rel_error, r.seed, r.fallback_used) for r in records]
        return hashlib.sha256(repr(fields).encode()).hexdigest()

    def cleanup(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)


WORKLOADS = {w.name: w for w in (FullDesk, SparseLarge, BenchOracle)}
