"""Tests for the rank-k pipeline, baseline, generalized losses and oracle."""

import math
import tracemalloc
from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg
from conftest import (
    best_rank_k,
    lowrank_plus_noise,
    make_gen,
    oracle_error,
    plant_head,
    random_orthonormal,
    random_rank_k,
    random_sparse,
    sample_constant,
    singular_values,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from perfbench.inputs import sparse_triplets

import sketchlr.matrixcore as matrixcore
import sketchlr.sketches as sketches
import sketchlr.solver as solver
from sketchlr import (
    ExperimentConfig,
    HuberLoss,
    L1L2Loss,
    RandomStream,
    ScalarLoss,
    ScaleLimitError,
    SketchPlan,
    SparseMatrix,
    cpe_constant,
    diagnose_kyfan_preservation,
    kyfan_pr_norm,
    make_sketch_plan,
    parse_loss,
    phi_objective,
    relative_error_from,
    run_experiment,
    sample_count,
    schatten_norm,
    solve_generalized,
    solve_schatten,
    sparse_dense_multiply,
)
from sketchlr.harness import generate_synthetic
from sketchlr.matrixcore import DENSE_GUARD, LowRankFactors
from sketchlr.sketches import apply_row_sampler, build_row_sampler
from sketchlr.solver import OracleScorer

GOLDEN = np.array([[20.0, 20.0], [1.0, 2.0]])


class TestExactOracle:
    """The exact oracle of an oracle run: the scorer's spectra of the input
    and of its residual, scored at the best rank-k factors."""

    def test_residual_spectrum(self):
        a = np.diag([5.0, 3.0, 1.0])
        scorer = OracleScorer(SparseMatrix.from_dense(a))
        np.testing.assert_allclose(scorer.spectrum, [5.0, 3.0, 1.0], atol=1e-12)
        f = best_rank_k(a, 2)
        np.testing.assert_allclose(scorer.residual_spectrum(f.y, f.z), [1.0, 0.0, 0.0], atol=1e-12)

    def test_golden_nuclear_residual(self):
        f = best_rank_k(GOLDEN, 1)
        resid = OracleScorer(SparseMatrix.from_dense(GOLDEN)).residual_spectrum(f.y, f.z)
        assert schatten_norm(resid, 1.0) == pytest.approx(0.7051, abs=1e-4)

    def test_beats_random_projections(self):
        gen = make_gen(61)
        a = gen.standard_normal((15, 10))
        f = best_rank_k(a, 3)
        opt = schatten_norm(OracleScorer(a).residual_spectrum(f.y, f.z), 1.7)
        for _ in range(500):
            q = random_orthonormal(gen, 10, 3)
            cand = schatten_norm(singular_values(a - (a @ q) @ q.T), 1.7)
            assert opt <= cand + 1e-9

    def test_size_guard(self):
        # the guard bounds min(m, n), the side of R, in either orientation
        tall = SparseMatrix(20000, 5001, [0], [0], [1.0])
        for big in (tall, tall.transpose()):
            with pytest.raises(ValueError, match="guard"):
                OracleScorer(big)

    def test_size_guard_is_a_typed_scale_limit(self):
        big = SparseMatrix(5001, 5001, [0], [0], [1.0])
        with pytest.raises(ScaleLimitError, match="DENSE_GUARD=5000") as info:
            OracleScorer(big)
        assert isinstance(info.value, ValueError)
        assert "full_pipeline without the oracle flag (--oracle)" in str(info.value)

    def test_k_range(self):
        # an oracle run refuses a rank outside [1, min(m, n) - 1] before it scores
        for k in (0, 5):
            cfg = ExperimentConfig(
                k_list=[k], trials=1, oracle=True, nrows=4, ncols=4, density=1.0
            )
            with pytest.raises(ValueError):
                run_experiment(cfg)


def _dense_formula_error(dense, factors, objective):
    """Oracle score from two dense spectra: the input's and the residual's."""
    sigma = singular_values(dense)
    k = factors.k
    resid = objective(singular_values(dense - factors.y @ factors.z.T))
    return relative_error_from(resid, objective(sigma[k:]), objective(sigma))


def _projection_pair(gen, dense, k):
    """The short-side projection a solve returns: ``(A z, z)`` when tall, ``(W, A^T W)`` when wide."""
    m, n = dense.shape
    if m >= n:
        z = random_orthonormal(gen, n, k)
        return dense @ z, z
    w = random_orthonormal(gen, m, k)
    return w, dense.T @ w


class _Drivers:
    """Records each values-only LAPACK SVD that ``matrixcore`` runs, by name.

    ``fail[name]`` holds the ``info`` codes that the next calls of that
    driver return in place of factoring, after spoiling the array they were
    handed with NaN, as a failed in-place attempt may.
    """

    def __init__(self, monkeypatch):
        self.calls, self.fail = [], {"gesdd": [], "gesvd": []}
        for name in self.fail:
            real = getattr(matrixcore.lapack, "d" + name)
            monkeypatch.setattr(matrixcore.lapack, "d" + name, self._spy(name, real))

    def _spy(self, name, real):
        def driver(a, **kwargs):
            self.calls.append(name)
            if not self.fail[name]:
                return real(a, **kwargs)
            a[...] = np.nan
            spoilt = np.full(min(a.shape), np.nan)
            return np.zeros((1, 1)), spoilt, np.zeros((1, 1)), self.fail[name].pop(0)

        return driver


@pytest.fixture
def drivers(monkeypatch):
    return _Drivers(monkeypatch)


class TestOracleScorer:
    @pytest.mark.parametrize("shape", [(30, 20), (20, 30), (25, 25)])
    def test_spectrum_matches_dense(self, shape):
        dense = make_gen(sum(shape)).standard_normal(shape)
        np.testing.assert_allclose(
            OracleScorer(dense).spectrum, singular_values(dense), rtol=1e-12
        )

    def test_size_guard(self):
        with pytest.raises(ValueError, match="guard"):
            OracleScorer(SparseMatrix(5001, 5001, [0], [0], [1.0]))

    @pytest.mark.parametrize("shape", [(600, 400), (400, 600)])
    def test_memory_is_one_dense_copy(self, shape):
        # R is built from one densified block of rows at a time, so the build
        # peaks at R and a block (with the sliced rows and dtpqrt's T and
        # workspace), plus the transposed storage of a wide input; a trial
        # unpacks R once, beside O((m + n) k) of factor products
        gen = make_gen(23)
        a = random_sparse(gen, *shape, density=0.05)
        m, n = max(shape), min(shape)
        k = 10
        y, z = _projection_pair(gen, a.to_dense(), k)
        tracemalloc.start()
        try:
            scorer = OracleScorer(a)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            scorer.residual_spectrum(y, z)
            trial_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        transposed = a.nbytes if shape[0] < shape[1] else 0
        assert build_peak <= 1.1 * 8 * (n * n + 2 * solver.R_BLOCK_ROWS * n) + transposed
        assert trial_peak <= 1.1 * 8 * (n * n + 3 * (m + n) * k)
        # R and the spectrum
        arrays = [v for v in vars(scorer).values() if isinstance(v, np.ndarray)]
        assert sum(v.nbytes for v in arrays) <= 8 * n * n + 8 * n

    def test_keeps_no_mask_of_the_triangle(self):
        # the scorer keeps only the n x n R of the input and its spectrum
        a = random_sparse(make_gen(30), 800, 600, density=0.05)
        tracemalloc.start()
        try:
            scorer = OracleScorer(a)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert scorer.spectrum.size == 600
        assert held <= 8 * 600 * 600 + 64 * 1024

    @pytest.mark.parametrize("shape", [(800, 600), (400, 600)], ids=["tall", "wide"])
    def test_keeps_only_packed_r_and_spectrum(self, shape):
        # R's upper triangle in packed storage and the spectrum: no full R
        a = random_sparse(make_gen(33), *shape, density=0.05)
        n = min(shape)
        bound = 8 * (n * (n + 1) // 2 + n)
        tracemalloc.start()
        try:
            scorer = OracleScorer(a)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        arrays = [v for v in vars(scorer).values() if isinstance(v, np.ndarray)]
        assert sum(v.nbytes for v in arrays) <= bound
        assert held <= bound + 64 * 1024

    @pytest.mark.parametrize(
        "shape, rank",
        [((300, 40), 40), ((40, 300), 40), ((300, 40), 5), ((3 * solver.R_BLOCK_ROWS, 30), 0)],
        ids=["tall", "wide", "exact-rank", "all-empty-blocks"],
    )
    def test_gesvd_fallback_rebuilds_the_consumed_input(self, shape, rank, drivers):
        # gesdd fails once at the build and once in a trial, after spoiling
        # the array it was handed, as a failed in-place attempt may: gesvd
        # must get a fresh R, and a fresh M, and the packed R must survive
        gen = make_gen(34 + sum(shape))
        dense = random_rank_k(gen, *shape, rank)
        pairs = [_projection_pair(gen, dense, 4) for _ in range(2)]
        want = [singular_values(dense)] + [singular_values(dense - y @ z.T) for y, z in pairs]
        drivers.fail["gesdd"].append(1)
        scorer = OracleScorer(dense)
        drivers.fail["gesdd"].append(1)
        got = [scorer.spectrum, scorer.residual_spectrum(*pairs[0])]
        assert drivers.calls == ["gesdd", "gesvd", "gesdd", "gesvd"]
        got.append(scorer.residual_spectrum(*pairs[1]))
        assert drivers.calls[4:] == ["gesdd"]
        tol = 1e-12 * np.linalg.norm(dense)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0.0, atol=tol)

    def test_gesvd_fallback_holds_one_array(self, drivers):
        # the M a failed gesdd spoilt is dropped before the trial unpacks
        # and updates another for gesvd: the fall-back's peak is the main
        # path's, give or take gesvd's default workspace, not one M more
        m, n, k = 400, 300, 10
        gen = make_gen(35)
        a = random_sparse(gen, m, n, density=0.05)
        y, z = _projection_pair(gen, a.to_dense(), k)
        scorer = OracleScorer(a)
        peaks, got = [], []
        for fail in ([], [1]):
            drivers.fail["gesdd"].extend(fail)
            tracemalloc.start()
            try:
                got.append(scorer.residual_spectrum(y, z))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert drivers.calls == ["gesdd", "gesdd", "gesdd", "gesvd"]
        assert peaks[1] <= peaks[0] + 8 * 5 * n
        np.testing.assert_allclose(got[1], got[0], rtol=0.0, atol=1e-12 * np.linalg.norm(got[0]))

    def test_trial_svd_runs_at_the_default_workspace(self):
        # beyond M and the O((m + n) k) factor products, a trial holds
        # dgesdd's default workspace, 15n + 4 doubles and 8n ints for an
        # n x n M, with the n values and 16 KiB of small objects: not the
        # 67n doubles the optimal workspace takes at n = 600
        m, n, k = 700, 600, 2
        gen = make_gen(36)
        a = random_sparse(gen, m, n, density=0.02)
        y, z = _projection_pair(gen, a.to_dense(), k)
        scorer = OracleScorer(a)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            scorer.residual_spectrum(y, z)
            beyond = tracemalloc.get_traced_memory()[1] - held - 8 * (n * n + 3 * (m + n) * k)
        finally:
            tracemalloc.stop()
        assert beyond <= 8 * (15 * n + 4) + 4 * 8 * n + 8 * n + 16 * 1024

    @pytest.mark.parametrize("shape", [(30, 20), (20, 30)])
    def test_both_drivers_failing_is_a_typed_error(self, shape, drivers):
        drivers.fail["gesdd"].append(1)
        drivers.fail["gesvd"].append(1)
        with pytest.raises(matrixcore.ConvergenceError, match="dgesdd.*dgesvd.*20x20"):
            OracleScorer(make_gen(37).standard_normal(shape))
        assert drivers.calls == ["gesdd", "gesvd"]

    def test_illegal_argument_is_raised_not_retried(self, drivers):
        # info < 0 names a bad call, which the other driver would not mend
        drivers.fail["gesdd"].append(-4)
        with pytest.raises(ValueError, match="dgesdd was passed an illegal argument 4"):
            OracleScorer(make_gen(38).standard_normal((30, 20)))
        assert drivers.calls == ["gesdd"]

    def test_tall_build_peak_does_not_grow_with_m(self):
        # a dense copy of this 20000x50 input would be 8 MB, and R with one
        # block of rows is 120 KB
        gen = make_gen(31)
        a = random_sparse(gen, 20000, 50, density=0.05)
        tracemalloc.start()
        try:
            scorer = OracleScorer(a)
            build_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert build_peak <= 1.1 * 8 * (50 * 50 + 2 * solver.R_BLOCK_ROWS * 50)
        dense = a.to_dense()
        y, z = _projection_pair(gen, dense, 5)
        np.testing.assert_allclose(
            scorer.residual_spectrum(y, z),
            singular_values(dense - y @ z.T),
            rtol=0.0,
            atol=1e-12 * np.linalg.norm(dense),
        )

    def test_tall_trial_peak_is_one_factor_sized_array(self):
        # B = P X D and T W are each 20000x5 (800 KB): a trial holds M, one
        # of them and one block of B's rows, not both
        m, n, k = 20000, 50, 5
        gen = make_gen(32)
        a = random_sparse(gen, m, n, density=0.05)
        scorer = OracleScorer(a)
        dense = a.to_dense()
        y, z = _projection_pair(gen, dense, k)
        tracemalloc.start()
        try:
            sigma = scorer.residual_spectrum(y, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * (n * n + m * k + solver.R_BLOCK_ROWS * k)
        np.testing.assert_allclose(
            sigma, singular_values(dense - y @ z.T), rtol=0.0, atol=1e-12 * np.linalg.norm(dense)
        )

    @pytest.mark.parametrize(
        "shape, rank, empty",
        [
            ((300, 40), 5, None),
            ((4 * solver.R_BLOCK_ROWS, 30), None, (solver.R_BLOCK_ROWS, 3 * solver.R_BLOCK_ROWS)),
            ((2 * solver.R_BLOCK_ROWS + 1, 20), None, None),
            ((600, 1), None, None),
            ((1, 600), None, None),
        ],
        ids=["exact-rank", "empty-blocks", "last-block-one-row", "n1-tall", "n1-wide"],
    )
    def test_streamed_r_matches_dense_qr(self, shape, rank, empty, monkeypatch):
        gen = make_gen(sum(shape))
        dense = random_rank_k(gen, *shape, rank) if rank else gen.standard_normal(shape)
        if empty is not None:
            dense[slice(*empty)] = 0.0
        tall = dense if shape[0] >= shape[1] else dense.T
        folds = []

        def dtpqrt(*args, **kwargs):
            folds.append(args[3].shape[0])
            return real(*args, **kwargs)

        real = solver.lapack.dtpqrt
        monkeypatch.setattr(solver.lapack, "dtpqrt", dtpqrt)
        scorer = OracleScorer(dense)
        # one fold per block that holds an entry: the two empty blocks are
        # skipped, and a last block of one row is folded
        assert folds == [
            min(solver.R_BLOCK_ROWS, tall.shape[0] - lo)
            for lo in range(0, tall.shape[0], solver.R_BLOCK_ROWS)
            if np.any(tall[lo : lo + solver.R_BLOCK_ROWS])
        ]
        want = singular_values(np.linalg.qr(tall, mode="r"))
        tol = 1e-13 * np.linalg.norm(dense)
        np.testing.assert_allclose(scorer.spectrum, want, rtol=0.0, atol=tol)
        np.testing.assert_allclose(scorer.spectrum, singular_values(dense), rtol=0.0, atol=tol)
        if rank:
            assert np.all(scorer.spectrum[rank:] <= tol)

    @pytest.mark.parametrize("transposed", [False, True], ids=["tall", "wide"])
    def test_zero_factor_scores_the_input_spectrum(self, transposed):
        # Y Z^T = 0 is the projection on no columns: its residual is A
        gen = make_gen(26)
        dense = gen.standard_normal((30, 20))
        z = random_orthonormal(gen, 20, 3)
        y = np.zeros((30, 3))
        if transposed:
            dense, y, z = dense.T, z, y
        np.testing.assert_allclose(
            OracleScorer(dense).residual_spectrum(y, z),
            singular_values(dense),
            rtol=0.0,
            atol=1e-12 * np.linalg.norm(dense),
        )

    def test_rank_deficient_wide_swap_is_scored(self):
        # a wide solve whose Z has a column in the null space of T = A^T:
        # T Z = q r has a singular r, so the swapped factor y = Z r^T has a
        # zero column, and a QR of it would add a direction outside range(y)
        gen = make_gen(27)
        dense = random_rank_k(gen, 12, 30, 6)
        dense[11] = 0.0
        head = random_orthonormal(gen, 11, 3)
        z = np.zeros((12, 4))
        z[:11, :3], z[11, 3] = head, 1.0
        factors = solver._swap_transposed(LowRankFactors(y=dense.T @ z, z=z, k=4))
        assert not np.any(factors.y[:, 3])
        np.testing.assert_allclose(
            OracleScorer(dense).residual_spectrum(factors.y, factors.z),
            singular_values(dense - factors.y @ factors.z.T),
            rtol=0.0,
            atol=1e-12 * np.linalg.norm(dense),
        )

    @pytest.mark.parametrize("transposed", [False, True], ids=["tall", "wide"])
    def test_non_finite_factors_are_refused_by_name(self, transposed):
        gen = make_gen(24)
        shape = (20, 12)[:: -1 if transposed else 1]
        scorer = OracleScorer(random_sparse(gen, *shape, density=0.3))
        y = gen.standard_normal((shape[0], 2))
        z = random_orthonormal(gen, shape[1], 2)
        y[3, 1] = np.nan
        with pytest.raises(ValueError, match="^y contains non-finite entries$"):
            scorer.residual_spectrum(y, z)
        y[3, 1] = 0.0
        z[5, 0] = np.inf
        with pytest.raises(ValueError, match="^z contains non-finite entries$"):
            scorer.residual_spectrum(y, z)

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 30),
        n=st.integers(1, 30),
        rank_frac=st.floats(0.0, 1.0),
        k=st.integers(1, 6),
        y_kind=st.sampled_from(["inside", "outside", "mixed", "exact"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_residual_spectrum(self, m, n, rank_frac, k, y_kind, seed):
        # tall, wide and square inputs, rank-deficient ones included, scored
        # at their short-side projection; then a pair of the drawn kind: Y in
        # range(A), outside it, or both, which is no projection and is
        # refused, or "exact", A = Y Z^T, whose residual is 0
        gen = make_gen(seed)
        k = min(k, n)
        z = random_orthonormal(gen, n, k)
        if y_kind == "exact":
            y = gen.standard_normal((m, k))
            dense = y @ z.T
        else:
            dense = random_rank_k(gen, m, n, int(rank_frac * min(m, n)))
            inside = dense @ gen.standard_normal((n, k))
            outside = gen.standard_normal((m, k))
            y = {"inside": inside, "outside": outside, "mixed": inside + outside}[y_kind]
        scorer = OracleScorer(dense)
        py, pz = _projection_pair(gen, dense, min(k, m))
        got = scorer.residual_spectrum(py, pz)
        want = singular_values(dense - py @ pz.T)
        tol = 1e-12 * (np.linalg.norm(dense) + np.linalg.norm(py))
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)
        if y_kind != "exact" and np.any(y):
            with pytest.raises(ValueError, match="^y z\\^T is not a projection of the input: "):
                scorer.residual_spectrum(y, z)
            return
        # A = Y Z^T, or A = 0 scored at Y = 0
        got = scorer.residual_spectrum(y, z)
        tol = 1e-12 * (np.linalg.norm(dense) + np.linalg.norm(y))
        np.testing.assert_allclose(got, singular_values(dense - y @ z.T), rtol=0.0, atol=tol)

    @pytest.mark.parametrize("shape", [(120, 90), (90, 120)])
    @pytest.mark.parametrize(
        "p, mode", [(1.0, "simplified_experiment"), (3.0, "full_pipeline")]
    )
    def test_solve_schatten_error_unchanged(self, shape, p, mode):
        a = generate_synthetic(*shape, 0.1, RandomStream(1))
        # at the default c_s the sampler clips here, so in full_pipeline
        # only a sampled S keeps the error away from 0
        with sample_constant(0.2):
            rep = solve_schatten(a, 3, p, 0.5, RandomStream(2), mode)
        assert not rep.clipped
        want = _dense_formula_error(
            a.to_dense(), rep.factors, lambda s: schatten_norm(s, p)
        )
        assert want > 1e-6  # a relative tolerance needs an error away from 0
        assert oracle_error(a, rep, p) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("shape", [(120, 90), (90, 120)])
    def test_solve_schatten_error_with_default_constants(self, shape):
        # the default c_s: the sampler clips, so Z is the block Krylov
        # top-k of A, near the optimum, and both scores read the same small error
        a = generate_synthetic(*shape, 0.1, RandomStream(1))
        rep = solve_schatten(a, 3, 3.0, 0.5, RandomStream(2))
        assert rep.clipped and rep.krylov_depth is not None
        want = _dense_formula_error(
            a.to_dense(), rep.factors, lambda s: schatten_norm(s, 3.0)
        )
        assert 0.0 <= want <= 1e-4
        assert oracle_error(a, rep, 3.0) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("shape", [(600, 40), (60, 800)])
    def test_solve_generalized_error_unchanged(self, shape):
        # tall enough that the row sampler does not clip, so the error is not 0
        a = generate_synthetic(*shape, 0.2, RandomStream(1))
        loss = HuberLoss(1.0)
        rep = solve_generalized(a, 2, loss, 0.5, RandomStream(2))
        want = _dense_formula_error(
            a.to_dense(), rep.factors, lambda s: phi_objective(s, loss)
        )
        assert want > 1e-6
        assert oracle_error(a, rep, loss) == pytest.approx(want, rel=1e-12)


class TestExactRegression:
    @pytest.mark.parametrize("p", [1.0, 3.0])
    @pytest.mark.parametrize("wide", [False, True])
    def test_y_is_exactly_a_z(self, p, wide, monkeypatch):
        # 5000x400 at k=3 is where a sketched regression would be narrower
        # than n (144 columns at p=1, 354 at p=3); S clips at p=1 and samples at p=3
        tall = generate_synthetic(5000, 400, 0.05, RandomStream(1))
        a = tall.transpose() if wide else tall
        seen = []
        swap = solver._swap_transposed

        def spy(factors):
            seen.append(factors)
            return swap(factors)

        monkeypatch.setattr(solver, "_swap_transposed", spy)
        rep = solve_schatten(a, 3, p, 0.5, RandomStream(2))
        assert rep.transposed == wide and len(seen) == wide
        y, z = (seen[0].y, seen[0].z) if wide else (rep.factors.y, rep.factors.z)
        assert y.tobytes() == sparse_dense_multiply(tall, z).tobytes()
        assert list(rep.seeds) == ["s"] and not rep.fallback_used
        assert rep.clipped == (p == 1.0)
        scores = set() if rep.clipped else {"s_scores"}
        assert set(rep.multiply_add_counts) == {"s_apply", "krylov", "regression"} | scores
        assert rep.multiply_add_counts["regression"] == 3 * a.nnz
        dense = tall.to_dense()
        assert np.linalg.norm(dense - y @ z.T) <= np.linalg.norm(dense)

    def test_full_pipeline_flags_match_drawn_seeds(self):
        # S samples: one seed, nothing drawn for the regression
        a = generate_synthetic(300, 200, 0.1, RandomStream(1))
        with sample_constant(0.05):
            rep = solve_schatten(a, 2, 1.0, 0.5, RandomStream(2))
        assert not rep.clipped and not rep.fallback_used
        assert list(rep.seeds) == ["s"]
        assert rep.factors.y.tobytes() == sparse_dense_multiply(a, rep.factors.z).tobytes()

    def test_simplified_mode_draws_only_s(self):
        a = generate_synthetic(120, 90, 0.1, RandomStream(1))
        rep = solve_schatten(a, 3, 1.0, 0.5, RandomStream(2), "simplified_experiment")
        assert list(rep.seeds) == ["s"]

    def test_baseline_and_generalized_regress_exactly(self):
        a = generate_synthetic(120, 90, 0.1, RandomStream(1))
        base = solve_schatten(a, 3, 1.0, 0.5, RandomStream(2), "simplified_experiment")
        gen_rep = solve_generalized(a, 3, HuberLoss(1.0), 0.5, RandomStream(2))
        assert list(base.seeds) == list(gen_rep.seeds) == ["s"]
        for rep in (base, gen_rep):
            want = sparse_dense_multiply(a, rep.factors.z)
            assert rep.factors.y.tobytes() == want.tobytes()


def _align_signs(ref, got):
    """``got``'s factors with each (y_i, z_i) column pair sign-matched to ``ref``."""
    signs = np.where(np.sum(ref.z * got.z, axis=0) < 0, -1.0, 1.0)
    return got.y * signs, got.z * signs


def _full_solves(a, stream_seed, c_s):
    with sample_constant(c_s):
        return [
            solve_schatten(a, 3, p, 0.5, RandomStream(stream_seed)) for p in (1.0, 3.0)
        ] + [solve_generalized(a, 3, HuberLoss(1.0), 0.5, RandomStream(stream_seed))]


class TestSparseSketchedRowspace:
    CLIPPED, SAMPLED = True, False

    @pytest.mark.parametrize(
        "shape, density, c_s, kinds",
        [
            ((300, 200), 0.05, sketches.C_S, [CLIPPED] * 3),
            ((200, 300), 0.05, sketches.C_S, [CLIPPED] * 3),
            ((900, 40), 0.2, sketches.C_S, [CLIPPED, CLIPPED, SAMPLED]),
            ((300, 200), 0.1, 0.05, [SAMPLED] * 3),
        ],
    )
    def test_factors_match_the_dense_kernels(self, shape, density, c_s, kinds, monkeypatch):
        # p=1, p=3 and Huber solves, each checked for a clipped S; the
        # factors of one column pair may differ in sign between the kernels
        a = generate_synthetic(*shape, density, RandomStream(1))
        sparse = _full_solves(a, 5, c_s)
        sample = solver.apply_row_sampler  # rerun on a dense SA, as before
        monkeypatch.setattr(
            solver, "apply_row_sampler", lambda *args: sample(*args).to_dense()
        )
        dense = _full_solves(a, 5, c_s)
        assert [rep.clipped for rep in sparse] == kinds
        for got, ref in zip(sparse, dense):
            assert got.seeds == ref.seeds
            assert got.clipped == ref.clipped
            y, z = _align_signs(ref.factors, got.factors)
            scale = np.linalg.norm(ref.factors.y)
            np.testing.assert_allclose(z, ref.factors.z, rtol=0, atol=1e-10)
            np.testing.assert_allclose(y, ref.factors.y, rtol=0, atol=1e-10 * scale)

    def test_clipped_solve_neither_densifies_nor_factors_sa(self, monkeypatch):
        a = generate_synthetic(300, 200, 0.05, RandomStream(1))
        calls = {"to_dense": 0, "svd": [], "block_krylov": 0}
        full, krylov = matrixcore.svd, solver.block_krylov

        def densify(*_):
            calls["to_dense"] += 1
            raise AssertionError("a clipped solve must not densify")

        def svd_spy(x):
            calls["svd"].append(np.shape(x))
            return full(x)

        def krylov_spy(*args, **kwargs):
            calls["block_krylov"] += 1
            return krylov(*args, **kwargs)

        monkeypatch.setattr(SparseMatrix, "to_dense", densify)
        monkeypatch.setattr(matrixcore, "svd", svd_spy)
        monkeypatch.setattr(solver, "block_krylov", krylov_spy)
        for p in (1.0, 3.0):
            rep = solve_schatten(a, 3, p, 0.5, RandomStream(9))
            assert rep.clipped
        # one block Krylov run per solve, on the sparse SA
        assert calls["to_dense"] == 0 and calls["block_krylov"] == 2
        # Z is the Krylov Ritz block: no full SVD at all
        assert calls["svd"] == []

    def test_krylov_costs_k_per_stored_entry_of_sa_a_product(self, monkeypatch):
        a = generate_synthetic(900, 40, 0.2, RandomStream(1))
        shapes, krylov = [], solver.block_krylov

        def spy(sa, *args):
            shapes.append(sa.shape)
            return krylov(sa, *args)

        monkeypatch.setattr(solver, "block_krylov", spy)
        # a clipped tall SA, a sampled tall SA and a sampled wide SA
        for c_s, clipped, wide in ((8.0, True, False), (0.05, False, False), (0.02, False, True)):
            with sample_constant(c_s):
                rep = solve_schatten(a, 3, 1.0, 0.5, RandomStream(3))
            assert rep.clipped == clipped
            assert (shapes[-1][0] < shapes[-1][1]) == wide
            counts = rep.multiply_add_counts
            assert (counts["s_apply"] == a.nnz) == clipped  # s_apply is nnz(SA)
            # 2 k nnz(SA) per product with the Gram matrix, k nnz(SA) for SA^T U
            products = 2 * (rep.krylov_depth + 1) + wide
            assert counts["krylov"] == 3 * counts["s_apply"] * products
            assert "wsa" not in counts


_PASS_THROUGH_SOLVES = {
    "simplified": lambda a, k, s: solve_schatten(
        a, k, 1.0, 0.5, RandomStream(s), mode="simplified_experiment"
    ),
    "clipped_p1": lambda a, k, s: solve_schatten(a, k, 1.0, 0.5, RandomStream(s)),
    "clipped_p3": lambda a, k, s: solve_schatten(a, k, 3.0, 0.5, RandomStream(s)),
    "huber": lambda a, k, s: solve_generalized(a, k, HuberLoss(1.0), 0.5, RandomStream(s)),
}


def _pass_through_input(gen, m, n, k, kind):
    """A small input of one kind: sparse, with fewer than k nonzero rows, or of
    rank below k up to noise 1e-13 of its scale (the sketch inherits it, far
    below the kernels' rounding floor, so both bases drop the same directions)."""
    r = int(gen.integers(1, max(k, 2)))  # 1 <= r < k when k > 1
    if kind == "deficient":
        dense = gen.standard_normal((m, r)) @ gen.standard_normal((r, n))
        dense += 1e-13 * gen.standard_normal((m, n))
        return SparseMatrix.from_dense(dense)
    dense = np.where(gen.random((m, n)) < 0.3, gen.standard_normal((m, n)), 0.0)
    if kind == "few_rows":
        dense[gen.choice(m, size=m - r, replace=False)] = 0.0
    return SparseMatrix.from_dense(dense)


class TestPassThroughRowspace:
    """Z is the top-k kernel's V on ``SA``, rank-cut and padded."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(4, 40),
        n=st.integers(4, 40),
        k=st.integers(1, 5),
        kind=st.sampled_from(["sparse", "few_rows", "deficient"]),
        solve=st.sampled_from(sorted(_PASS_THROUGH_SOLVES)),
    )
    # fewer than k nonzero columns: some e_i the padding walks lies in span(V)
    @example(seed=0, m=31, n=38, k=4, kind="few_rows", solve="clipped_p1")
    def test_z_spans_the_kernel_block_of_sa(self, seed, m, n, k, kind, solve):
        k = min(k, min(m, n) - 1)
        a = _pass_through_input(make_gen(seed), m, n, k, kind)
        seen, made = [], []
        real_top, real_krylov = solver.top_singular, solver.block_krylov
        real_complete = solver.complete_basis

        def top_spy(x, kk):
            seen.append((x, *real_top(x, kk)))
            return seen[-1][1:]

        def krylov_spy(x, *args):
            seen.append((x, *real_krylov(x, *args)))
            return seen[-1][1:]

        def complete_spy(z, kk):
            made.append(real_complete(z, kk))
            return made[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "top_singular", top_spy)
            mp.setattr(solver, "block_krylov", krylov_spy)
            mp.setattr(solver, "complete_basis", complete_spy)
            rep = _PASS_THROUGH_SOLVES[solve](a, k, seed)
        assert set(rep.elapsed) == {"s_apply", "svd_sat", "regression"}
        assert len(seen) == len(made) == 1
        (sa, sigma, v), z = seen[0], made[0]
        sa = sa.to_dense() if isinstance(sa, SparseMatrix) else sa
        # the kernel's block without the values it floored to 0, like Z
        rank = np.count_nonzero(sigma)
        z_ref = real_complete(np.linalg.qr(v[:, :rank])[0], k)
        assert z.shape == z_ref.shape == (sa.shape[1], k)
        assert np.linalg.norm(z @ z.T - z_ref @ z_ref.T) <= 1e-9
        assert np.max(np.abs(z.T @ z - np.eye(k))) <= 1e-9
        counts = rep.multiply_add_counts
        stored = np.count_nonzero(sa) if solve != "simplified" else sa.size
        assert rep.ritz_values == tuple(sigma)
        if rep.krylov_depth is None:
            # k per entry of SA for the right block (U^T SA)^T of a wide SA
            wide = sa.shape[0] < sa.shape[1]
            assert "krylov" not in counts and counts.get("wsa") == (k * stored if wide else None)
        else:
            assert "wsa" not in counts
            # 2 per stored entry and basis column, capped at d; r for SA^T U of a wide SA
            d, wide = min(sa.shape), sa.shape[0] < sa.shape[1]
            r = min(k, d)
            width = min((rep.krylov_depth + 1) * r, d)
            assert counts["krylov"] == stored * (2 * width + r * wide)

    @pytest.mark.parametrize("solve", ["clipped_p1", "clipped_p3", "huber"])
    def test_z_is_the_top_direction_of_two_nonzero_rows(self, solve):
        # S keeps both rows, so SA is exact and Z is A's top right singular
        # vector, whatever the loss
        gen = make_gen(0)
        dense = np.zeros((500, 150))
        dense[gen.choice(500, 2, replace=False)] = gen.standard_normal((2, 150))
        rep = _PASS_THROUGH_SOLVES[solve](SparseMatrix.from_dense(dense), 1, 3)
        v1 = np.linalg.svd(dense)[2][:1].T
        z = rep.factors.z
        assert rep.clipped
        assert np.linalg.norm(z @ z.T - v1 @ v1.T) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 5),
        extra=st.integers(10, 400),
        log_ratio=st.floats(0.0, 3.0),
    )
    def test_z_orthonormal_on_ill_conditioned_wide_sa(self, seed, k, extra, log_ratio):
        # k^2 dense rows of an (n+1) x n input, with sigma_1 / sigma_k up to
        # 1000 over a 1e-3 tail, give the simplified CountSketch a wide SA
        # whose top-k V is derived as SA^T U / sigma
        gen = make_gen(seed)
        r, n = k * k, k * k + extra
        sigma = np.concatenate([np.geomspace(10.0**log_ratio, 1.0, k), 1e-3 * gen.random(r - k)])
        block = (random_orthonormal(gen, r, r) * sigma) @ random_orthonormal(gen, n, r).T
        rows = np.sort(gen.choice(n + 1, r, replace=False))
        a = SparseMatrix(n + 1, n, np.repeat(rows, n), np.tile(np.arange(n), r), block.ravel())
        rep = solve_schatten(a, k, 1.0, 0.5, RandomStream(seed), "simplified_experiment")
        z = rep.factors.z
        assert np.max(np.abs(z.T @ z - np.eye(k))) <= 1e-13

    def test_gram_noise_past_the_floor_is_cut(self):
        # a 5x4 input of rank 2 at k = 3: its wide 3x4 SA's third Ritz value
        # is 0, but the partial eigh of H returned theta_3 = 7 eps theta_1,
        # past the floor, and SA^T u_3 / sigma_3 was a column of norm 6e-9
        # that the Cholesky-QR refused
        a = _pass_through_input(make_gen(4), 5, 4, 3, "sparse")
        rep = solve_schatten(a, 3, 1.0, 0.5, RandomStream(4))
        z = rep.factors.z
        assert rep.ritz_values[2] == 0.0
        assert np.max(np.abs(z.T @ z - np.eye(3))) <= 1e-13
        dense = a.to_dense()
        assert np.linalg.norm(dense - dense @ z @ z.T) <= 1e-14 * np.linalg.norm(dense)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(4, 40),
        n=st.integers(4, 40),
        kind=st.sampled_from(["sparse", "few_rows", "deficient"]),
        solve=st.sampled_from(sorted(_PASS_THROUGH_SOLVES)),
    )
    def test_reruns_are_bit_identical(self, seed, m, n, kind, solve):
        k = min(3, min(m, n) - 1)
        a = _pass_through_input(make_gen(seed), m, n, k, kind)
        r1, r2 = (_PASS_THROUGH_SOLVES[solve](a, k, seed) for _ in range(2))
        assert r1.factors.y.tobytes() == r2.factors.y.tobytes()
        assert r1.factors.z.tobytes() == r2.factors.z.tobytes()
        assert r1.seeds == r2.seeds
        assert r1.multiply_add_counts == r2.multiply_add_counts


def _full_pipeline_report(k):
    plan = SketchPlan(eta1=1.0, r_kyfan=k, s_rows=1, mode="full_pipeline")
    return solver.SolveReport(factors=None, plan=plan)


# spectra of SA for k = 3 that the Gram kernel cannot split by its gap at k
_RANK_K_SPECTRA = {
    "tied": lambda d: np.r_[4.0, 2.0, 1.0, 1.0, np.geomspace(0.5, 0.1, d - 4)],
    "rank_below_k": lambda d: np.r_[4.0, 2.0, np.zeros(d - 2)],
    # sigma_k^2 / sigma_1^2 = 1e-18 lies under the d eps floor, so its value reads 0
    "sigma_k_at_1e-9": lambda d: np.r_[1.0, 0.5, np.geomspace(1e-9, 1e-10, d - 2)],
}


class TestSimplifiedRowspace:
    """Z from ``top_singular`` on a dense simplified-mode ``SA``, wide or tall."""

    @pytest.mark.parametrize("shape", [(9, 40), (9, 6)], ids=["wide", "tall"])
    @pytest.mark.parametrize("kind", sorted(_RANK_K_SPECTRA))
    def test_z_is_a_best_rank_k_row_space(self, kind, shape):
        # a Ritz value at or below the d eps sigma_1^2 rounding floor reads 0
        # and its column is replaced by padding, which may lose up to that
        # floor of energy for each of the k columns; above it, Z leaves SA
        # its tail spectrum to 1e-9, whatever ties sigma has at k
        k, gen = 3, make_gen(sum(shape))
        d = min(shape)
        sigma = _RANK_K_SPECTRA[kind](d)
        sa = (random_orthonormal(gen, shape[0], d) * sigma) @ random_orthonormal(gen, shape[1], d).T
        plan = SketchPlan(eta1=1.0, r_kyfan=k, s_rows=shape[0], mode="simplified_experiment")
        report = solver.SolveReport(factors=None, plan=plan)
        z = solver._rowspace(sa, k, 0.5, report)
        assert report.krylov_depth is None and len(report.ritz_values) == k
        assert np.max(np.abs(z.T @ z - np.eye(k))) <= 1e-13
        exact = singular_values(sa)
        floor = k * d * np.finfo(float).eps * exact[0] ** 2
        resid = np.linalg.norm(sa - (sa @ z) @ z.T) ** 2
        assert resid <= (1.0 + 1e-9) * np.sum(exact[k:] ** 2) + floor


def _spy_kernels(mp, seen):
    """Record ``(kernel name, SA)`` for every top-k kernel call of the solver."""
    for name in ("top_singular", "block_krylov"):
        real = getattr(solver, name)

        def spy(sa, *args, _name=name, _real=real):
            seen.append((_name, sa.to_dense() if isinstance(sa, SparseMatrix) else sa))
            return _real(sa, *args)

        mp.setattr(solver, name, spy)


class TestKrylovRowspace:
    """Z from the block Krylov top-k of ``SA`` in full_pipeline solves."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(30, 80),
        n=st.integers(30, 80),
        k=st.integers(1, 3),
        rank_frac=st.floats(0.0, 1.0),
        solve=st.sampled_from(["clipped_p1", "clipped_p3", "huber"]),
    )
    def test_property_z_contains_the_row_space_of_a_rank_k_sa(
        self, seed, m, n, k, rank_frac, solve
    ):
        # the Krylov space is used up after one block; its later blocks are noise
        gen = make_gen(seed)
        r = 1 + int(rank_frac * (k - 1))
        a = SparseMatrix.from_dense(gen.standard_normal((m, r)) @ gen.standard_normal((r, n)))
        seen, made = [], []
        real_complete = solver.complete_basis

        def complete_spy(z, kk):
            made.append(real_complete(z, kk))
            return made[-1]

        with pytest.MonkeyPatch.context() as mp:
            _spy_kernels(mp, seen)
            mp.setattr(solver, "complete_basis", complete_spy)
            rep = _PASS_THROUGH_SOLVES[solve](a, k, seed)
        [(kernel, sa)], [z] = seen, made
        assert kernel == "block_krylov" and rep.krylov_depth is not None
        assert np.linalg.norm(sa - (sa @ z) @ z.T) <= 1e-9 * np.linalg.norm(sa)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 5),
        rows=st.integers(40, 200),
        n=st.integers(40, 200),
        log_ratio=st.floats(0.0, 3.0),
        sparse=st.booleans(),
    )
    def test_property_z_orthonormal_on_ill_conditioned_sa(
        self, seed, k, rows, n, log_ratio, sparse
    ):
        # sigma_1 / sigma_k up to 1000 over a 1e-3 tail; a wide SA gives its
        # right block as SA^T U / sigma, which drifts like eps (s1/sk)^2
        gen = make_gen(seed)
        d = min(rows, n)
        sigma = np.concatenate([np.geomspace(10.0**log_ratio, 1.0, k), 1e-3 * gen.random(d - k)])
        sa = (random_orthonormal(gen, rows, d) * sigma) @ random_orthonormal(gen, n, d).T
        report = _full_pipeline_report(k)
        z = solver._rowspace(SparseMatrix.from_dense(sa) if sparse else sa, k, 0.5, report)
        assert report.krylov_depth is not None
        assert np.max(np.abs(z.T @ z - np.eye(k))) <= 1e-13

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 40),
        n=st.integers(2, 40),
        k=st.integers(1, 6),
        eps=st.floats(0.05, 0.9),
        mode=st.sampled_from(["full_pipeline", "simplified_experiment"]),
    )
    def test_property_small_sa_takes_the_exact_top_k(self, seed, m, n, k, eps, mode):
        k = min(k, min(m, n) - 1)
        a = random_sparse(make_gen(seed), m, n, density=0.5)
        seen, made = [], []
        real_complete = solver.complete_basis

        def complete_spy(z, kk):
            made.append(real_complete(z, kk))
            return made[-1]

        with pytest.MonkeyPatch.context() as mp:
            _spy_kernels(mp, seen)
            mp.setattr(solver, "complete_basis", complete_spy)
            rep = solve_schatten(a, k, 1.0, eps, RandomStream(seed), mode)
        [(kernel, sa)], [z] = seen, made
        d = min(sa.shape)
        depth = math.ceil(math.log(d) / math.sqrt(min(eps, 0.5)))
        if mode == "full_pipeline":
            assert kernel == "block_krylov"
            assert rep.krylov_depth == depth and len(rep.ritz_values) == min(k, d)
        else:
            assert kernel == "top_singular"
            assert rep.krylov_depth is None and len(rep.ritz_values) == k
        if mode == "simplified_experiment" or (depth + 1) * k >= d:
            # the exact top-k, or a Krylov space capped at all of SA's side:
            # Z leaves SA exactly its tail spectrum, whatever ties sigma has
            exact = np.linalg.svd(sa, compute_uv=False)
            resid = np.linalg.svd(sa - (sa @ z) @ z.T, compute_uv=False)
            tail = np.concatenate([exact[k:], np.zeros(min(k, d))])
            np.testing.assert_allclose(resid, tail, atol=1e-9 * max(exact[0], 1.0))

    def test_clipped_tall_skinny_solve_never_densifies(self, monkeypatch):
        # the clipped SA is the 19156 nonzero rows of A, and (q + 1) k = 30 at
        # q = 5 covers its 30 columns: an exact top-5 from sparse products only
        rows, cols, vals = sparse_triplets(20000, 30, 60000, 5)
        a = SparseMatrix(20000, 30, rows, cols, vals)
        v5 = np.linalg.svd(a.to_dense(), full_matrices=False)[2][:5].T

        def densify(*_):
            raise AssertionError("a full_pipeline solve must not densify")

        monkeypatch.setattr(SparseMatrix, "to_dense", densify)
        rep = solve_schatten(a, 5, 1.0, 0.5, RandomStream(5))
        z = rep.factors.z
        assert rep.clipped and rep.rows_drawn == 19156 and rep.krylov_depth == 5
        assert np.linalg.norm(z @ z.T - v5 @ v5.T) <= 1e-9

    def test_fallback_above_the_guard_is_a_scale_limit(self, monkeypatch):
        # q = 13 at d = 5001, so a Krylov space of k = 360 would need 5040 columns
        n, k = DENSE_GUARD + 1, 360
        idx = np.arange(n)
        sa = SparseMatrix(n, n, idx, idx, 1.0 + idx)
        report = _full_pipeline_report(k)

        def densify(*_):
            raise AssertionError("the fallback must not densify above the guard")

        monkeypatch.setattr(SparseMatrix, "to_dense", densify)
        with pytest.raises(ScaleLimitError, match="DENSE_GUARD=5000.*lower k"):
            solver._rowspace(sa, k, 0.5, report)


def _krylov_s_scores(k, a):
    """``s_scores`` of a Krylov-scored solve of A: its oriented work is tall,
    and the space's basis stops at ``d = min(A.shape)`` columns."""
    width = min((sketches.SCORE_DEPTH + 1) * k, min(a.shape))
    return (3 + 2 * width + 3 * k) * a.nnz


LARGE_SQUARE_SOLVES = pytest.mark.parametrize(
    "n, nnz, k, solve",
    [
        (20_000, 200_000, 10, lambda a, k: solve_generalized(
            a, k, parse_loss("huber:1.0"), 0.5, RandomStream(5))),
        (120_000, 240_000, 1, lambda a, k: solve_schatten(a, k, 1.0, 0.5, RandomStream(5))),
    ],
    ids=["huber_20000", "p1_120000"],
)


def _large_square(n, nnz):
    gen = make_gen(n)
    flat = gen.choice(n * n, size=nnz, replace=False)
    return SparseMatrix(n, n, flat // n, flat % n, gen.uniform(0.5, 1.5, flat.size))


def _traced_solve(solve, a, k, monkeypatch):
    """``solve(a, k)`` and its tracemalloc peak.

    Every matrix given to ``scipy.linalg.eigh`` is a Krylov space's ``H``, as
    wide as that space's basis: the scores' space when they ran, then
    ``SA``'s. No factorization is n-sized.
    """
    shapes = []
    eigh = scipy.linalg.eigh

    def eigh_spy(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return eigh(x, *args, **kwargs)

    def densify(*_):
        raise AssertionError(f"a {a.nrows}^2 solve must not densify")

    monkeypatch.setattr(scipy.linalg, "eigh", eigh_spy)
    monkeypatch.setattr(SparseMatrix, "to_dense", densify)
    tracemalloc.start()
    try:
        rep = solve(a, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.factors.y.shape == a.shape[:1] + (k,) and rep.factors.z.shape == (a.ncols, k)
    np.testing.assert_allclose(rep.factors.z.T @ rep.factors.z, np.eye(k), atol=1e-10)
    widths = [min((rep.krylov_depth + 1) * k, rep.rows_drawn, a.ncols)]
    if rep.score_kernel == "krylov":
        widths.insert(0, min((sketches.SCORE_DEPTH + 1) * k, min(a.shape)))
    assert shapes == [(w, w) for w in widths]
    return rep, peak


class TestSketchedScores:
    # the planted head fails the norm certificate, so these score by the
    # Krylov kernel; the failed certificate's 3 nnz(A) multiply-adds are counted too
    @pytest.mark.parametrize("shape", [(400, 200), (200, 400)])
    def test_s_scores_counts_the_krylov_scores(self, shape):
        a = plant_head(generate_synthetic(*shape, 0.1, RandomStream(1)))
        rep = solve_generalized(a, 3, HuberLoss(1.0), 0.5, RandomStream(2))
        assert not rep.clipped and rep.score_kernel == "krylov"
        assert rep.multiply_add_counts["s_scores"] == _krylov_s_scores(3, a)
        clipped = solve_schatten(a, 3, 1.0, 0.5, RandomStream(2))
        assert clipped.clipped and "s_scores" not in clipped.multiply_add_counts
        assert clipped.score_kernel is None

    @pytest.mark.parametrize("shape", [(400, 200), (200, 400)])
    def test_s_scores_counts_the_certified_norms(self, shape):
        a = generate_synthetic(*shape, 0.1, RandomStream(1))
        rep = solve_generalized(a, 3, HuberLoss(1.0), 0.5, RandomStream(2))
        assert not rep.clipped and rep.score_kernel == "norms"
        assert rep.multiply_add_counts["s_scores"] == 3 * a.nnz

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_sampled_solve_under_a_planted_head_is_within_one_plus_eps(self, p):
        # S samples at the default c_s (921 and 589 of the 3000 rows) by
        # the Krylov scores, and the exact Schatten error meets the bound;
        # Y = 0 would miss it, by the head's weight
        a = plant_head(random_sparse(make_gen(41), 3000, 40, density=0.05))
        rep = solve_schatten(a, 1, p, 0.5, RandomStream(3))
        assert not rep.clipped and rep.score_kernel == "krylov"
        assert rep.plan.s_rows < a.nrows
        assert 0.0 <= oracle_error(a, rep, p) <= 0.5

    @LARGE_SQUARE_SOLVES
    def test_large_square_solves_run_in_sketch_memory(self, n, nnz, k, solve, monkeypatch):
        m = n
        a = plant_head(_large_square(n, nnz))
        rep, peak = _traced_solve(solve, a, k, monkeypatch)
        assert not rep.clipped and rep.score_kernel == "krylov"
        assert rep.multiply_add_counts["s_scores"] == _krylov_s_scores(k, a)
        # 11.7 MB measured at 20000^2 (7.3 nnz doubles) and 9.5 MB at
        # 120000^2 (4.9); the Gaussian score sketch these scores replace
        # took 32.0 and 141.1 MB, a dense A 3.2 GB at 20000^2
        assert peak < 8 * (4 * nnz + 3 * (m + n) * k)

    @LARGE_SQUARE_SOLVES
    def test_large_square_solves_certify_the_row_norms(self, n, nnz, k, solve, monkeypatch):
        a = _large_square(n, nnz)
        rep, peak = _traced_solve(solve, a, k, monkeypatch)
        assert not rep.clipped and rep.score_kernel == "norms"
        assert rep.multiply_add_counts["s_scores"] == 3 * a.nnz
        # about 3.4 nnz doubles measured at either size: the row norms'
        # index and square temporaries (2 nnz), then SA's Krylov space and
        # the factors
        assert peak < 4 * 8 * nnz + 2 * 8 * (a.nrows + a.ncols) * k


class TestRelativeErrorConvention:
    def test_plain_ratio(self):
        assert relative_error_from(1.2, 1.0, 10.0) == pytest.approx(0.2)

    def test_degenerate_denominator(self):
        # optimum numerically zero: error is reported against the matrix norm
        assert relative_error_from(1e-13, 1e-15, 1.0) == pytest.approx(1e-13)

    def test_zero_matrix(self):
        assert relative_error_from(0.0, 0.0, 0.0) == 0.0


def test_a_stage_that_raises_is_still_timed():
    elapsed = {"s_apply": 0.0}
    for name in ("s_apply", "svd_sat"):
        with pytest.raises(RuntimeError, match="^stage failed$"):
            with solver._stage(elapsed, name):
                raise RuntimeError("stage failed")
    assert set(elapsed) == {"s_apply", "svd_sat"}
    assert all(v >= 0.0 for v in elapsed.values())


class TestSolveSchatten:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_exact_rank_k_recovered(self, p):
        gen = make_gen(int(80 + p))
        a = SparseMatrix.from_dense(random_rank_k(gen, 40, 25, 4))
        rep = solve_schatten(a, 4, p, 0.5, RandomStream(7))
        assert oracle_error(a, rep, p) <= 1e-6

    def test_motivating_diagonal_spectrum(self):
        # top value 1, then 2k values 1/sqrt(k): the pipeline must latch onto
        # leading directions and stay below relative error 1
        k = 4
        n = 2 * k + 6
        diag = np.zeros(n)
        diag[0] = 1.0
        diag[1 : 2 * k + 1] = 1.0 / np.sqrt(k)
        a = SparseMatrix.from_dense(np.diag(diag))
        rep = solve_schatten(a, k, 1.0, 0.5, RandomStream(3))
        assert oracle_error(a, rep, 1.0) < 1.0
        capture = np.abs(rep.factors.z[: 2 * k + 1, :]).max()
        assert capture >= 0.9

    def test_flat_input_certifies_by_norms_below_krylov_cost(self):
        # the flat input of the first measured win, at a size tier-1 affords:
        # the norms certify, S samples, and the whole solve counts fewer
        # multiply-adds per stored entry than Krylov on A at q = 1,
        # 2k(q + 1) + k = 50. The sample does not grow with m, so its cost
        # per entry falls as m grows; at 20000x400 it is above 50.
        m, n, k = 40000, 400, 10
        a = SparseMatrix(m, n, *sparse_triplets(m, n, 200000, 903))
        rep = solve_schatten(a, k, 2.0, 0.5, RandomStream(0))
        assert rep.score_kernel == "norms" and not rep.clipped
        assert sum(rep.multiply_add_counts.values()) < (2 * k * 2 + k) * a.nnz

    def test_simplified_mode_reasonable_error(self):
        gen = make_gen(82)
        a = SparseMatrix.from_dense(lowrank_plus_noise(gen, 80, 60, 10, noise=0.02))
        rep = solve_schatten(a, 5, 1.0, 0.5, RandomStream(11), "simplified_experiment")
        assert -1e-9 <= oracle_error(a, rep, 1.0) <= 0.5
        assert rep.plan.s_rows == 25

    def test_simplified_mode_frees_sa_before_the_cholesky_qr(self):
        # the dense k^2 x n SA is the largest array; the top-k's n x k block
        # is the one array besides it, and SA is gone before Z's Cholesky-QR
        # and the regression allocate theirs (1.047 of the bound's base
        # measured; 1.157 with SA held through the Cholesky-QR)
        m = n = 4000
        k = 10
        gen = make_gen(93)
        flat = np.sort(gen.choice(m * n, size=20_000, replace=False))
        a = SparseMatrix(m, n, flat // n, flat % n, 1.0 - gen.random(flat.size))

        def solve():
            return solve_schatten(a, k, 1.0, 0.5, RandomStream(12), "simplified_experiment")

        solve()  # a first call's lazy imports are not the solve's
        tracemalloc.start()
        try:
            rep = solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.rows_drawn == k * k and not rep.transposed
        assert peak <= 1.1 * 8 * (k * k * n + n * k)

    def test_wide_matrix_transposed(self):
        gen = make_gen(83)
        a = SparseMatrix.from_dense(gen.standard_normal((10, 25)))
        rep = solve_schatten(a, 3, 1.0, 0.5, RandomStream(6))
        assert rep.transposed
        assert rep.factors.y.shape == (10, 3)
        assert rep.factors.z.shape == (25, 3)
        assert oracle_error(a, rep, 1.0) <= 0.5
        zz = rep.factors.z.T @ rep.factors.z
        np.testing.assert_allclose(zz, np.eye(3), atol=1e-9)

    def test_determinism_bit_identical(self):
        gen = make_gen(84)
        a = SparseMatrix.from_dense(gen.standard_normal((30, 20)))
        r1 = solve_schatten(a, 3, 1.5, 0.4, RandomStream(21))
        r2 = solve_schatten(a, 3, 1.5, 0.4, RandomStream(21))
        assert r1.factors.y.tobytes() == r2.factors.y.tobytes()
        assert r1.factors.z.tobytes() == r2.factors.z.tobytes()
        assert r1.seeds == r2.seeds

    def test_eps_clamped_with_warning(self):
        gen = make_gen(85)
        a = SparseMatrix.from_dense(gen.standard_normal((20, 10)))
        rep = solve_schatten(a, 2, 1.0, 0.9, RandomStream(1))
        assert any("clamped" in w for w in rep.warnings)

    def test_validation(self):
        gen = make_gen(86)
        a = SparseMatrix.from_dense(gen.standard_normal((20, 10)))
        with pytest.raises(ValueError):
            solve_schatten(a, 10, 1.0, 0.5, RandomStream(1))
        with pytest.raises(ValueError):
            solve_schatten(a, 2, 0.5, 0.5, RandomStream(1))
        with pytest.raises(ValueError):
            solve_schatten(a, 2, np.inf, 0.5, RandomStream(1))
        with pytest.raises(ValueError):
            solve_schatten(a, 2, 1.0, 0.0, RandomStream(1))

    def test_regression_optimality_identity_mode(self):
        # Y = A Z exactly, so the residual matches the projected residual
        # in every norm
        gen = make_gen(87)
        dense = gen.standard_normal((25, 18))
        a = SparseMatrix.from_dense(dense)
        rep = solve_schatten(a, 4, 1.3, 0.5, RandomStream(9), "simplified_experiment")
        z = rep.factors.z
        np.testing.assert_allclose(rep.factors.y, dense @ z, atol=1e-12)
        for p in (1.0, 1.3, 2.0, 3.0):
            lhs = schatten_norm(
                singular_values(dense - rep.factors.y @ z.T), p
            )
            rhs = schatten_norm(singular_values(dense - dense @ z @ z.T), p)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_head_tail_property(self, p):
        gen = make_gen(int(88 + p))
        dense = gen.standard_normal((30, 20))
        k, eps = 3, 0.5
        rep = solve_schatten(SparseMatrix.from_dense(dense), k, p, eps, RandomStream(5))
        r = rep.plan.r_kyfan
        z = rep.factors.z
        sig_resid = singular_values(dense - (dense @ z) @ z.T)
        sig_a = singular_values(dense)
        lhs = float(np.sum(sig_resid[r:] ** p))
        rhs = float(np.sum(sig_a[r:] ** p)) + (k / r) * schatten_norm(
            sig_a[k:], p
        ) ** p
        assert lhs <= rhs + 1e-9

    def test_counters_and_seeds_present(self):
        gen = make_gen(89)
        dense = gen.standard_normal((40, 30))
        a = SparseMatrix.from_dense(dense)
        rep = solve_schatten(a, 3, 1.0, 0.5, RandomStream(13))
        assert rep.multiply_add_counts["s_apply"] > 0
        assert "s" in rep.seeds
        assert all(v >= 0 for v in rep.multiply_add_counts.values())
        assert all(v >= 0 for v in rep.elapsed.values())


class TestFrobeniusBaseline:
    """The harness's Frobenius baseline: simplified-mode ``solve_schatten`` at p = 1."""

    def test_exact_rank_k(self):
        gen = make_gen(90)
        dense = random_rank_k(gen, 50, 30, 5)
        a = SparseMatrix.from_dense(dense)
        rep = solve_schatten(a, 5, 1.0, 0.5, RandomStream(17), "simplified_experiment")
        assert oracle_error(a, rep, 1.0) <= 1e-6  # Schatten-1 metric
        resid = dense - rep.factors.y @ rep.factors.z.T
        assert np.linalg.norm(resid) <= 1e-6 * np.linalg.norm(dense)

    def test_motivating_spectrum_gap_closed_form(self):
        # a Frobenius-acceptable solution that keeps only the top direction is
        # nearly 2x worse in Schatten-1; the actual sketched baseline is not
        k = 25
        n = 2 * k + 10
        diag = np.zeros(n)
        diag[0] = 1.0
        diag[1 : 2 * k + 1] = 1.0 / np.sqrt(k)
        a = np.diag(diag)
        top_only = np.zeros_like(a)
        top_only[0, 0] = 1.0
        sig = singular_values(a)
        opt_1 = schatten_norm(sig[k:], 1.0)
        opt_f = schatten_norm(sig[k:], 2.0)
        cand_1 = schatten_norm(singular_values(a - top_only), 1.0)
        cand_f = schatten_norm(singular_values(a - top_only), 2.0)
        assert cand_f <= 1.5 * opt_f  # acceptable in Frobenius
        assert cand_1 >= 1.5 * opt_1  # bad in the nuclear norm
        rep = solve_schatten(
            SparseMatrix.from_dense(a), k, 1.0, 0.5, RandomStream(23), "simplified_experiment"
        )
        assert oracle_error(a, rep, 1.0) <= 0.5  # the sketch does not collapse to top-1

    def test_wide_input(self):
        gen = make_gen(91)
        a = SparseMatrix.from_dense(gen.standard_normal((8, 30)))
        rep = solve_schatten(a, 2, 1.0, 0.5, RandomStream(19), "simplified_experiment")
        assert rep.transposed
        assert rep.factors.y.shape == (8, 2)
        assert oracle_error(a, rep, 1.0) >= -1e-9


class TestSolveGeneralized:
    @pytest.mark.parametrize("loss", [HuberLoss(1.0), L1L2Loss()], ids=["huber", "l1_l2"])
    @pytest.mark.parametrize("eps", [1e-310, 5e-324])
    def test_an_eps_too_small_to_size_is_blamed_on_eps(self, loss, eps):
        # the grid estimate diverges at such an eps too (the loss of its
        # smallest shifts underflows), but eps is sized first
        a = random_sparse(make_gen(94), 100, 50, density=0.2)
        refusal = rf"^eps={eps:g} is too small: the error split eta=0 is not positive$"
        with pytest.raises(ValueError, match=refusal):
            solve_generalized(a, 2, loss, eps, RandomStream(30))

    @pytest.mark.parametrize("p, tau", [(2.0, 1e-7), (1.0, 5e-7)])
    def test_a_loss_that_does_not_grow_is_refused_by_name(self, p, tau):
        # constant on the condition grid: alpha = 0 sizes no error split;
        # only where 1 + eps == 1, which reads every loss so, is eps refused
        from sketchlr import TukeyPLoss

        a = random_sparse(make_gen(97), 60, 40, density=0.2)
        loss = TukeyPLoss(p, tau)
        assert solver.check_phi_conditions(loss, 0.5).alpha == 0.0
        refusal = rf"^tukey_p\(p={p:g}, tau={tau:g}\) does not grow: growth constant alpha=0 on "
        with pytest.raises(ValueError, match=refusal):
            solve_generalized(a, 3, loss, 0.5, RandomStream(30))
        with pytest.raises(ValueError, match=r"^eps=1e-17 is too small: "):
            solve_generalized(a, 3, loss, 1e-17, RandomStream(30))

    def test_exact_rank_k_huber(self):
        gen = make_gen(92)
        dense = random_rank_k(gen, 30, 20, 3)
        rep = solve_generalized(
            SparseMatrix.from_dense(dense), 3, HuberLoss(1.0), 0.5, RandomStream(29)
        )
        resid = dense - rep.factors.y @ rep.factors.z.T
        assert phi_objective(singular_values(resid), HuberLoss(1.0)) <= 1e-9

    @pytest.mark.parametrize(
        "loss", [HuberLoss(1.0), L1L2Loss()], ids=["huber", "l1_l2"]
    )
    def test_exact_rank_k_every_loss(self, loss):
        from sketchlr import TukeyPLoss

        gen = make_gen(hash(loss.name) % 1000)
        dense = random_rank_k(gen, 25, 18, 3)
        for phi in (loss, TukeyPLoss(2.0, 5.0)):
            rep = solve_generalized(
                SparseMatrix.from_dense(dense), 3, phi, 0.5, RandomStream(1)
            )
            resid = dense - rep.factors.y @ rep.factors.z.T
            assert phi_objective(singular_values(resid), phi) <= 1e-9

    def test_quadratic_regime_matches_top_direction(self):
        a = SparseMatrix.from_dense(np.diag([5.0, 3.0, 1.0]))
        rep = solve_generalized(a, 1, HuberLoss(10.0), 0.5, RandomStream(31))
        assert abs(rep.factors.z[0, 0]) == pytest.approx(1.0, abs=1e-9)

    def test_l1l2_near_optimal(self):
        gen = make_gen(93)
        stream = RandomStream(37)
        for t in range(3):
            a = SparseMatrix.from_dense(lowrank_plus_noise(gen, 80, 60, 30, noise=0.05))
            rep = solve_generalized(a, 5, L1L2Loss(), 0.5, stream)
            assert oracle_error(a, rep, L1L2Loss()) <= 0.5
        assert rep.condition_report is not None and rep.condition_report.finite

    def test_condition_report_computed_once_per_loss_and_eps(self, monkeypatch):
        real = solver.check_phi_conditions
        calls = []

        def spy(loss, eps):
            calls.append((loss, eps))
            return real(loss, eps)

        monkeypatch.setattr(solver, "check_phi_conditions", spy)
        solver._default_grid_conditions.cache_clear()
        a = SparseMatrix.from_dense(random_rank_k(make_gen(100), 20, 15, 2))
        first = solve_generalized(a, 2, HuberLoss(1.0), 0.9, RandomStream(3))  # eps clamped
        second = solve_generalized(a, 2, HuberLoss(1.0), 0.5, RandomStream(5))
        assert calls == [(HuberLoss(1.0), 0.5)]
        assert second.condition_report == first.condition_report == real(HuberLoss(1.0), 0.5)

    def test_unhashable_loss_is_checked_on_every_solve(self):
        @dataclass  # not frozen, so its __hash__ is None
        class MutableHuber(ScalarLoss):
            tau: float = 1.0
            name = "mutable_huber"

            def __call__(self, x):
                return HuberLoss(self.tau)(x)

        loss = MutableHuber()
        assert not isinstance(loss, Hashable)
        a = SparseMatrix.from_dense(random_rank_k(make_gen(101), 20, 15, 2))
        before = solver._default_grid_conditions.cache_info()
        rep = solve_generalized(a, 2, loss, 0.5, RandomStream(3))
        assert solver._default_grid_conditions.cache_info() == before
        assert rep.condition_report == solver.check_phi_conditions(loss, 0.5)

    def test_refuses_divergent_loss(self):
        class ExpLoss(ScalarLoss):
            name = "exp"

            def __call__(self, x):
                x = np.asarray(x, dtype=np.float64)
                with np.errstate(over="ignore"):
                    return np.expm1(x)

        gen = make_gen(95)
        a = SparseMatrix.from_dense(gen.standard_normal((10, 8)))
        with pytest.raises(ValueError, match=r"condition"):
            solve_generalized(a, 2, ExpLoss(), 0.5, RandomStream(43))

    def test_plan_is_sized_as_make_sketch_plan_sizes_it(self):
        # its own eta1, then the rows and Ky-Fan rank of make_sketch_plan
        a = generate_synthetic(900, 40, 0.2, RandomStream(1))
        for k, eps in ((1, 0.5), (3, 0.3), (5, 0.5)):
            plan = solve_generalized(a, k, HuberLoss(1.0), eps, RandomStream(2)).plan
            assert plan.r_kyfan == math.ceil(k / eps) and plan.mode == "full_pipeline"
            assert plan.s_rows == min(sample_count(k, eps, plan.eta1), a.nrows)

    @pytest.mark.parametrize("loss", ["huber:1.0", 1.0, np.abs], ids=["text", "number", "ufunc"])
    def test_rejects_a_loss_that_is_not_a_scalar_loss(self, loss):
        gen = make_gen(96)
        a = SparseMatrix.from_dense(gen.standard_normal((10, 8)))
        with pytest.raises(ValueError, match="^loss must be a ScalarLoss, got "):
            solve_generalized(a, 2, loss, 0.5, RandomStream(47))


_PROLOGUE_SOLVES = {
    "schatten": lambda a, k, eps, seed: solve_schatten(a, k, 1.0, eps, RandomStream(seed)),
    "generalized": lambda a, k, eps, seed: solve_generalized(
        a, k, HuberLoss(1.0), eps, RandomStream(seed)
    ),
}


@pytest.mark.parametrize("solve", sorted(_PROLOGUE_SOLVES))
class TestSharedPrologue:
    """Both solvers check k and eps, clamp eps and orient the input alike."""

    def test_k_out_of_range_message(self, solve):
        a = SparseMatrix.from_dense(make_gen(88).standard_normal((20, 10)))
        for k in (0, 10):
            with pytest.raises(ValueError, match=rf"^k={k} out of range 1\.\.9$"):
                _PROLOGUE_SOLVES[solve](a, k, 0.5, 1)
        with pytest.raises(ValueError, match="^eps must be positive$"):
            _PROLOGUE_SOLVES[solve](a, 2, -0.1, 1)

    def test_non_integral_k_is_refused(self, solve):
        a = SparseMatrix.from_dense(make_gen(87).standard_normal((20, 10)))
        for k in (2.0, 2.5):
            with pytest.raises(ValueError, match=rf"^k must be an integer, got k={k}$"):
                _PROLOGUE_SOLVES[solve](a, k, 0.5, 1)
        # a numpy integer is an integer
        want = _PROLOGUE_SOLVES[solve](a, 2, 0.5, 1).factors
        got = _PROLOGUE_SOLVES[solve](a, np.int64(2), 0.5, 1).factors
        assert got.z.tobytes() == want.z.tobytes()

    def test_k_is_checked_before_eps(self, solve):
        a = SparseMatrix.from_dense(make_gen(89).standard_normal((20, 10)))
        with pytest.raises(ValueError, match="out of range"):
            _PROLOGUE_SOLVES[solve](a, 0, 0.0, 1)

    def test_clamped_eps_solves_as_one_half(self, solve):
        a = generate_synthetic(120, 90, 0.1, RandomStream(1))
        clamped = _PROLOGUE_SOLVES[solve](a, 2, 0.9, 7)
        half = _PROLOGUE_SOLVES[solve](a, 2, 0.5, 7)
        assert clamped.warnings == ("eps=0.9 clamped to 0.5",)
        assert half.warnings == ()
        assert clamped.factors.y.tobytes() == half.factors.y.tobytes()
        assert clamped.factors.z.tobytes() == half.factors.z.tobytes()
        assert clamped.seeds == half.seeds

    def test_wide_input_is_solved_on_its_transpose(self, solve):
        tall = generate_synthetic(120, 90, 0.1, RandomStream(1))
        wide = tall.transpose()
        from_tall = _PROLOGUE_SOLVES[solve](tall, 2, 0.5, 7)
        from_wide = _PROLOGUE_SOLVES[solve](wide, 2, 0.5, 7)
        assert not from_tall.transposed and from_wide.transposed
        assert from_wide.seeds == from_tall.seeds
        # Z of the wide solve is orthonormal and spans the tall solve's Y
        y, z = from_wide.factors.y, from_wide.factors.z
        assert y.shape == (90, 2) and z.shape == (120, 2)
        np.testing.assert_allclose(z.T @ z, np.eye(2), atol=1e-10)
        ref = from_tall.factors.y @ from_tall.factors.z.T
        np.testing.assert_allclose(
            y @ z.T, ref.T, rtol=0, atol=1e-10 * np.linalg.norm(ref)
        )


class TestDiagnostics:
    @pytest.mark.parametrize(
        "sa, trials, message",
        [
            (np.ones((4, 14)), 5, "sketched matrix must keep the column dimension"),
            (np.ones((4, 15)), 0, "trials must be >= 1"),
        ],
        ids=["columns", "trials"],
    )
    def test_refusals_name_what_is_wrong(self, sa, trials, message):
        a = SparseMatrix.from_dense(make_gen(96).standard_normal((20, 15)))
        with pytest.raises(ValueError, match=f"^{message}$"):
            diagnose_kyfan_preservation(a, sa, 2, 1.0, 4, 0.01, trials, RandomStream(53))

    @pytest.mark.parametrize(
        "cols, trials, message",
        [
            (DENSE_GUARD, 5, "sketched matrix must keep the column dimension"),
            (DENSE_GUARD + 1, 0, "trials must be >= 1"),
        ],
        ids=["columns", "trials"],
    )
    def test_refusals_come_before_any_densify(self, cols, trials, message, monkeypatch):
        # read off the sparse inputs, so even above the guard the refusal
        # names the bad argument, and neither A nor SA is densified
        n = DENSE_GUARD + 1
        idx = np.arange(n)
        a = SparseMatrix(n, n, idx, idx, 1.0 + idx)
        sa = SparseMatrix(4, cols, [0], [0], [1.0])

        def densify(*_):
            raise AssertionError("a refused diagnosis must not densify")

        monkeypatch.setattr(SparseMatrix, "to_dense", densify)
        with pytest.raises(ValueError, match=f"^{message}$"):
            diagnose_kyfan_preservation(a, sa, 2, 1.0, 4, 0.01, trials, RandomStream(53))

    def test_wide_side_above_the_guard_is_a_scale_limit(self, monkeypatch):
        # a wide matrix is scored as the square matrix of its rows, so its
        # long side is held to the guard, refused before any block is densified
        n = DENSE_GUARD + 1
        a = SparseMatrix(4, n, [0, 3], [0, n - 1], [1.0, 2.0])

        def densify(*_):
            raise AssertionError("a refused diagnosis must not densify")

        monkeypatch.setattr(solver.lapack, "dtpqrt", densify)
        with pytest.raises(ScaleLimitError, match=f"min dimension {n} exceeds the guard"):
            diagnose_kyfan_preservation(a, a, 2, 1.0, 4, 0.01, 1, RandomStream(53))

    def test_unsketched_input_never_violates(self):
        gen = make_gen(97)
        dense = gen.standard_normal((20, 15))
        a = SparseMatrix.from_dense(dense)
        rep = diagnose_kyfan_preservation(
            a, dense, 2, 1.0, 4, 0.01, 50, RandomStream(53), eps=0.5
        )
        assert rep.violations == 0

    def test_zero_sketch_violates(self):
        gen = make_gen(98)
        dense = gen.standard_normal((20, 15))
        a = SparseMatrix.from_dense(dense)
        rep = diagnose_kyfan_preservation(
            a, np.zeros((4, 15)), 2, 1.0, 4, 1e-8, 20, RandomStream(59), eps=0.1
        )
        assert rep.violation_fraction == 1.0

    @pytest.mark.parametrize("p, rows, eps", [(1.0, 20, 0.05), (3.0, 40, 0.3)])
    def test_counts_match_dense_residual_svds(self, p, rows, eps):
        # the band recomputed from the m x n residuals A(I - QQ^T) and
        # SA(I - QQ^T), with the projections the diagnosis draws from its stream
        dense = make_gen(101).standard_normal((60, 40))
        kept = np.linspace(0, 59, rows).astype(int)
        sa = dense[kept] * np.sqrt(60 / rows)  # a uniform row sample, rescaled
        k, r, eta1, trials = 2, 4, 1e-4, 30
        rep = diagnose_kyfan_preservation(
            SparseMatrix.from_dense(dense), sa, k, p, r, eta1, trials, RandomStream(71), eps=eps
        )
        tail = np.linalg.svd(dense, compute_uv=False)[k:]
        if p <= 2.0:
            slack = r * eta1 ** (p / 2) * schatten_norm(tail, p) ** p
        else:
            slack = cpe_constant(p / 2, eps) * r * eta1 ** (p / 2) * np.linalg.norm(tail) ** p
        gen = RandomStream(71).generator()
        violations, max_excess = 0, 0.0
        for _ in range(trials):
            q, _ = np.linalg.qr(gen.standard_normal((40, k)))
            head_a, head_s = (
                kyfan_pr_norm(np.linalg.svd(x - x @ q @ q.T, compute_uv=False), p, r) ** p
                for x in (dense, sa)
            )
            lo, hi = (1 - eps) * head_a - slack, (1 + eps) * head_a + slack
            tol = 1e-9 * max(1.0, head_a)
            if not lo - tol <= head_s <= hi + tol:
                violations += 1
                max_excess = max(max_excess, lo - head_s, head_s - hi)
        assert violations > 0
        assert rep.violations == violations
        assert rep.max_excess == pytest.approx(max_excess, rel=1e-9)

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_proper_sampler_small(self, p):
        gen = make_gen(int(99 + p))
        dense = lowrank_plus_noise(gen, 50, 40, 10)
        a = SparseMatrix.from_dense(dense)
        plan = make_sketch_plan(50, 40, 3, 0.5, p)
        sampler = build_row_sampler(a, 3, 0.5, plan.eta1, RandomStream(61))
        sa = apply_row_sampler(a, sampler)
        rep = diagnose_kyfan_preservation(
            a, sa, 3, p, plan.r_kyfan, plan.eta1, 50, RandomStream(67), eps=0.5
        )
        assert rep.violation_fraction <= 0.1
