"""Tests for CountSketch operators, leverage samplers and the sketch plan."""

import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from conftest import (
    countsketch_matrix,
    lowrank_plus_noise,
    make_gen,
    plant_head,
    random_sparse,
    ridge_leverage_scores,
    sample_constant,
    singular_values,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import sketchlr.matrixcore as matrixcore
import sketchlr.sketches as sketches
from sketchlr import (
    CountSketchOperator,
    MultiplyAddCounter,
    OracleScorer,
    RandomStream,
    ScaleLimitError,
    SparseMatrix,
    apply_countsketch_left,
    apply_row_sampler,
    build_countsketch,
    build_row_sampler,
    make_sketch_plan,
    sample_count,
    solve_schatten,
    sparse_dense_multiply,
)
from sketchlr.matrixcore import DENSE_GUARD
from sketchlr.rng import generator_from_seed


def materialize(op: CountSketchOperator) -> np.ndarray:
    """Dense oracle for the implied sketch matrix, built entry by entry."""
    dense = np.zeros((op.input_dim, op.sketch_dim))
    for i in range(op.input_dim):
        dense[i, op.bucket[i]] = op.sign[i]
    return dense


def transposed(a):
    """``A^T`` of a dense or sparse A: the row sampler on it samples A's columns."""
    return a.transpose() if isinstance(a, SparseMatrix) else a.T


class TestCountSketch:
    def test_single_bucket_is_sign_column(self):
        op = build_countsketch(4, 1, RandomStream(3))
        dense = materialize(op)
        assert dense.shape == (4, 1)
        assert set(np.unique(dense)) <= {-1.0, 1.0}

    def test_deterministic_given_seed(self):
        a = CountSketchOperator.from_seed(50, 7, 123456)
        b = CountSketchOperator.from_seed(50, 7, 123456)
        np.testing.assert_array_equal(a.bucket, b.bucket)
        np.testing.assert_array_equal(a.sign, b.sign)

    def test_stream_records_rebuildable_seed(self):
        op = build_countsketch(20, 5, RandomStream(9))
        clone = CountSketchOperator.from_seed(op.input_dim, op.sketch_dim, op.seed)
        np.testing.assert_array_equal(op.bucket, clone.bucket)
        np.testing.assert_array_equal(op.sign, clone.sign)

    def test_one_nonzero_per_input_row(self):
        op = build_countsketch(30, 6, RandomStream(4))
        assert np.count_nonzero(materialize(op)) == 30

    def test_bucket_uniformity_chi_square(self):
        # pooled over 50 seeds; significance 1e-4
        stream = RandomStream(5)
        counts = np.zeros(100)
        for _ in range(50):
            op = build_countsketch(1000, 100, stream)
            counts += np.bincount(op.bucket, minlength=100)
        expected = 50 * 1000 / 100
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < stats.chi2.ppf(1 - 1e-4, 99)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            CountSketchOperator.from_seed(0, 3, 1)
        with pytest.raises(ValueError):
            CountSketchOperator.from_seed(3, 0, 1)


class TestCountSketchApply:
    def test_matches_dense_materialization(self):
        gen = make_gen(42)
        a = random_sparse(gen, 50, 40, density=0.2)
        left = build_countsketch(50, 10, RandomStream(12))
        np.testing.assert_allclose(
            apply_countsketch_left(a, left),
            materialize(left).T @ a.to_dense(),
            atol=1e-12,
        )

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 40),
        n=st.integers(1, 40),
        sketch_dim=st.sampled_from([1, 2, 3, 7, 50]),
        density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        empty=st.integers(0, 3),
    )
    def test_scatter_is_bit_identical_to_the_sparse_product(
        self, seed, m, n, sketch_dim, density, empty
    ):
        # values spread over 20 decades make every summation order show in
        # the last bits; sketch_dim 1 sends every entry to one output row
        gen = make_gen(seed)
        mag = 10.0 ** gen.integers(-10, 10, size=(m, n))
        dense = np.where(gen.random((m, n)) < density, gen.standard_normal((m, n)) * mag, 0.0)
        dense[gen.choice(m, size=min(empty, m), replace=False)] = 0.0
        dense[:, gen.choice(n, size=min(empty, n), replace=False)] = 0.0
        a = SparseMatrix.from_dense(dense)
        left = build_countsketch(m, sketch_dim, RandomStream(seed))
        got_left = apply_countsketch_left(a, left)
        ref_left = (countsketch_matrix(left).T @ a.csr).toarray()
        assert got_left.dtype == ref_left.dtype and got_left.shape == (sketch_dim, n)
        assert got_left.tobytes() == ref_left.tobytes()

    def test_scatter_memory_does_not_grow_with_nnz(self):
        # tall inputs with nnz far above s n: besides the s x n result the
        # scatter holds one block's index and weight arrays and the row
        # counts of the rows it spans (17.1 bytes per entry of a block
        # measured, at 8 entries a row), not 16 bytes per stored entry
        for m in (20_000, 80_000):
            a = tall_sparse(45, m, 20, 8 * m)
            op = build_countsketch(m, 4, RandomStream(17))
            apply_countsketch_left(a, op)  # a first call's lazy imports are not the scatter's
            tracemalloc.start()
            try:
                out = apply_countsketch_left(a, op)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - out.nbytes <= 24 * sketches._SCATTER_BLOCK < 16 * a.nnz

    def test_counter_equals_nnz(self):
        gen = make_gen(44)
        a = random_sparse(gen, 30, 25, density=0.15)
        counter = MultiplyAddCounter()
        left = build_countsketch(30, 9, RandomStream(15))
        apply_countsketch_left(a, left, counter)
        assert counter.count == a.nnz

    def test_dimension_mismatch(self):
        op = build_countsketch(7, 3, RandomStream(16))
        with pytest.raises(ValueError, match="mismatch"):
            apply_countsketch_left(np.ones((6, 4)), op)


class TestCountSketchColumns:
    """``SA`` by column chunks: the same scatter as the whole sketch, a chunk at a time."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 40),
        n=st.integers(2, 40),
        sketch_dim=st.sampled_from([1, 2, 3, 7]),
        width=st.integers(1, 39),
        nnz=st.integers(0, 60),
        empty=st.integers(0, 3),
    )
    def test_chunks_are_the_columns_of_the_whole_sketch_bit_for_bit(
        self, seed, m, n, sketch_dim, width, nnz, empty
    ):
        # n need not be a multiple of the width; values over 20 decades make
        # every summation order show in the last bits
        gen = make_gen(seed)
        flat = gen.choice(m * n, size=min(nnz, m * n), replace=False)
        rows, cols = flat // n, flat % n
        keep = ~np.isin(rows, gen.choice(m, min(empty, m), replace=False))
        keep &= ~np.isin(cols, gen.choice(n, min(empty, n), replace=False))
        vals = gen.standard_normal(flat.size) * 10.0 ** gen.integers(-10, 10, flat.size)
        a = SparseMatrix(m, n, rows[keep], cols[keep], vals[keep])
        op = build_countsketch(m, sketch_dim, RandomStream(seed))
        width = min(width, n - 1)
        counter = MultiplyAddCounter()
        with mock.patch.object(sketches, "SKETCH_BUDGET", 8 * sketch_dim * width):
            chunks, right, cost = sketches.countsketch_columns(a, op, counter)
        whole = apply_countsketch_left(a, op)
        u = gen.standard_normal((sketch_dim, 3))
        if sketch_dim >= n or 8 * sketch_dim * n <= 16 * a.nnz:  # tall, or no lighter than grouping
            [sa] = chunks
            assert sa.tobytes() == whole.tobytes()
            assert counter.count == a.nnz
            if sketch_dim >= n:  # a tall SA's Ritz vectors are its right block
                assert right is None
            else:
                assert cost == sketch_dim * n
                assert right(u).tobytes() == (u.T @ whole).T.tobytes()
            return
        assert counter.count == 0  # the grouping is no multiply-add
        # the fewest chunks within the budget, of one width, the last padded with zeros
        count = -(-n // width)
        parts = [c.copy() for c in chunks]
        assert chunks.gi_frame is None  # the spent chunks hold no grouping
        stacked = np.hstack(parts)
        assert len(parts) == count and stacked.shape == (sketch_dim, count * -(-n // count))
        assert np.ascontiguousarray(stacked[:, :n]).tobytes() == whole.tobytes()
        assert not np.any(stacked[:, n:])
        assert counter.count == a.nnz  # the pass scatters, and counts, each entry once
        assert cost == a.nnz + m
        scale = max(np.abs(whole).max(), 1.0)
        np.testing.assert_allclose(right(u), whole.T @ u, rtol=0, atol=1e-12 * scale)

    def test_a_sketch_within_the_budget_or_no_heavier_than_grouping_is_dense(self):
        a = tall_sparse(46, 300, 200, 600)
        op = build_countsketch(300, 10, RandomStream(18))
        whole = apply_countsketch_left(a, op)

        def chunks_of(a, op):
            chunks, _, cost = sketches.countsketch_columns(a, op)
            return [c.copy() for c in chunks], cost

        # 8 s n = 16000 bytes against 16 nnz = 9600: grouping is the lighter
        for budget, streamed in ((16000, False), (15999, True), (2000, True)):
            with mock.patch.object(sketches, "SKETCH_BUDGET", budget):
                parts, cost = chunks_of(a, op)
            assert (len(parts) > 1) == streamed
            assert cost == (a.nnz + a.nrows if streamed else 10 * 200)
            if not streamed:
                assert parts[0].tobytes() == whole.tobytes()
        with mock.patch.object(sketches, "SKETCH_BUDGET", 2000):
            denser = tall_sparse(47, 300, 200, 1000)  # 16 nnz = 16000 bytes
            assert len(chunks_of(denser, op)[0]) == 1
            # a tall SA, s >= n, stays whole
            tall = build_countsketch(300, 200, RandomStream(19))
            assert len(chunks_of(a, tall)[0]) == 1
        with pytest.raises(ValueError, match="mismatch"):
            sketches.countsketch_columns(tall_sparse(48, 301, 200, 600), op)


class TestColumnSampler:
    """Column samples of A, drawn by the row sampler on ``A^T``."""

    def test_single_nonzero_column_always_chosen(self):
        dense = np.zeros((5, 4))
        dense[:, 2] = [1.0, 2.0, 0.5, 0.0, 1.5]
        sk = build_row_sampler(
            transposed(SparseMatrix.from_dense(dense)), 1, 0.5, 0.1, RandomStream(0)
        )
        np.testing.assert_array_equal(sk.indices, [2])
        np.testing.assert_array_equal(sk.weights, [1.0])
        assert sk.clipped

    def test_eye_gets_uniform_weights(self):
        sk = build_row_sampler(np.eye(8), 2, 0.5, 0.1, RandomStream(1))
        assert sk.clipped  # budget covers all columns at these parameters
        np.testing.assert_array_equal(sk.indices, np.arange(8))
        np.testing.assert_array_equal(sk.weights, np.ones(8))

    def test_eye_gets_uniform_weights_subsampled(self):
        # force genuine sampling; symmetric leverage means equal weights
        with sample_constant(0.05):
            sk = build_row_sampler(np.eye(30), 2, 0.5, 0.1, RandomStream(2))
        assert not sk.clipped
        assert sk.sample_count < 30
        assert len(set(sk.indices.tolist())) == sk.sample_count
        np.testing.assert_allclose(sk.weights, sk.weights[0])

    def test_degenerate_zero_matrix(self):
        sk = build_row_sampler(
            SparseMatrix(6, 6, [], [], []), 1, 0.5, 0.1, RandomStream(3)
        )
        assert sk.degenerate
        assert sk.sample_count >= 1

    def test_rejects_bad_eps_eta(self):
        with pytest.raises(ValueError):
            build_row_sampler(np.eye(4), 1, 0.1, 0.5, RandomStream(4))
        with pytest.raises(ValueError):
            build_row_sampler(np.eye(4), 0, 0.5, 0.1, RandomStream(4))

    def test_reproducible_from_stream_seed(self):
        gen = make_gen(50)
        a = lowrank_plus_noise(gen, 40, 30, 8)
        sk1 = build_row_sampler(transposed(a), 3, 0.5, 0.2, RandomStream(77))
        sk2 = build_row_sampler(transposed(a), 3, 0.5, 0.2, RandomStream(77))
        np.testing.assert_array_equal(sk1.indices, sk2.indices)
        np.testing.assert_array_equal(sk1.weights, sk2.weights)

    def test_apply_and_counter(self):
        gen = make_gen(51)
        a = random_sparse(gen, 12, 10, density=0.5)
        at = a.transpose()
        sk = build_row_sampler(at, 2, 0.5, 0.25, RandomStream(5))
        counter = MultiplyAddCounter()
        c = apply_row_sampler(at, sk, counter).to_dense().T
        assert c.shape == (12, sk.sample_count)
        sub = a.to_dense()[:, sk.indices]
        np.testing.assert_allclose(c, sub * sk.weights[None, :], atol=1e-12)
        assert counter.count == np.count_nonzero(sub)

    def test_row_sampler_transposes(self):
        gen = make_gen(52)
        a = random_sparse(gen, 15, 9, density=0.4)
        sk = build_row_sampler(a, 2, 0.5, 0.25, RandomStream(6))
        assert sk.source_dim == 15
        out = apply_row_sampler(a, sk)
        np.testing.assert_allclose(
            out.to_dense(), a.to_dense()[sk.indices, :] * sk.weights[:, None], atol=1e-12
        )

    @pytest.mark.parametrize("c_s", [0.02, 8.0])  # sampled and clipped
    def test_row_sampler_output_is_sparse_and_counted(self, c_s):
        a = random_sparse(make_gen(53), 60, 20, density=0.3)
        with sample_constant(c_s):
            sk = build_row_sampler(a, 2, 0.5, 0.25, RandomStream(7))
        assert sk.clipped == (c_s == 8.0)
        counter = MultiplyAddCounter()
        out = apply_row_sampler(a, sk, counter)
        assert isinstance(out, SparseMatrix)
        assert out.shape == (sk.sample_count, 20)
        want = a.to_dense()[sk.indices, :] * sk.weights[:, None]
        np.testing.assert_array_equal(out.to_dense(), want)
        assert counter.count == out.nnz == np.count_nonzero(want)
        # a dense input is read as the sparse matrix of its nonzeros
        counter = MultiplyAddCounter()
        again = apply_row_sampler(a.to_dense(), sk, counter)
        np.testing.assert_array_equal(again.to_dense(), want)
        assert counter.count == out.nnz

    def test_row_sampler_dimension_mismatch(self):
        a = random_sparse(make_gen(54), 15, 9, density=0.4)
        sk = build_row_sampler(a, 2, 0.5, 0.25, RandomStream(6))
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_row_sampler(a.transpose(), sk)

    def test_psd_sandwich_subsampled(self):
        # genuine sampling path (small c_s): two-sided Gram bound at >= 90/100
        eps, eta, k = 0.5, 0.1, 5
        stream = RandomStream(4242)
        hits = 0
        for t in range(100):
            gen = make_gen(2000 + t)
            a = lowrank_plus_noise(gen, 120, 100, 20)
            with sample_constant(0.5):
                sk = build_row_sampler(a.T, k, eps, eta, stream)
            assert not sk.clipped
            c = apply_row_sampler(a.T, sk).to_dense().T
            sig = singular_values(a)
            slack = eta * float(np.sum(sig[k:] ** 2))
            aat = a @ a.T
            cct = c @ c.T
            eye = np.eye(a.shape[0])
            upper_ok = (
                np.linalg.eigvalsh((1 + eps) * aat + slack * eye - cct).min() >= -1e-8
            )
            lower_ok = (
                np.linalg.eigvalsh(cct - (1 - eps) * aat + slack * eye).min() >= -1e-8
            )
            hits += upper_ok and lower_ok
        assert hits >= 90

    def test_psd_sandwich_at_the_certified_mass(self):
        # default c_s on flat, sparse inputs whose column norms certify a
        # mass K' < K: the t(K') columns drawn (about 680, against
        # t(K) = 1222) keep the two-sided Gram bound at >= 90/100. At
        # eps = 0.25 the slack eta ||A - A_k||_F^2 (1.0-2.8 sigma_1^2 here)
        # does not imply the lower side; at c_s = 0.125 (11 columns) the
        # bound held in 10 of these 100 draws, at c_s = 0.25 in 95
        eps, eta, k = 0.25, 0.125, 2
        stream = RandomStream(4343)
        hits = 0
        for t in range(100):
            gen = make_gen(3000 + t)
            a = random_sparse(gen, 1500, 40, density=0.1).to_dense().T
            a *= np.exp(0.5 * gen.standard_normal(1500))  # uneven column norms
            sk = build_row_sampler(a.T, k, eps, eta, stream)
            assert not sk.clipped and sk.score_kernel == "norms"
            assert sk.sample_count < sample_count(k, eps, eta)
            c = apply_row_sampler(a.T, sk).to_dense().T
            slack = eta * float(np.sum(singular_values(a)[k:] ** 2))
            aat, cct, eye = a @ a.T, c @ c.T, np.eye(40)
            upper_ok = np.linalg.eigvalsh((1 + eps) * aat + slack * eye - cct).min() >= -1e-8
            lower_ok = np.linalg.eigvalsh(cct - (1 - eps) * aat + slack * eye).min() >= -1e-8
            hits += upper_ok and lower_ok
        assert hits >= 90


def svd_ridge_leverage(dense, k, ridge_scale):
    """Reference scores ``(V^2) (sigma^2 / (sigma^2 + lam))`` through a full SVD."""
    _, sigma, vt = np.linalg.svd(dense, full_matrices=False)
    s2 = sigma**2
    lam = ridge_scale * float(np.sum(s2[k:]))
    return (vt.T**2) @ (s2 / (s2 + lam))


def random_input(seed, m, n, sparse):
    gen = make_gen(seed)
    if sparse:
        a = random_sparse(gen, m, n, density=0.3)
        return a, a.to_dense()
    a = lowrank_plus_noise(gen, m, n, 6)
    return a, a


class TestRidgeLeverage:
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("shape", [(40, 70), (70, 40), (50, 50)])
    def test_gram_scores_equal_svd_formula(self, shape, sparse):
        a, dense = random_input(sum(shape) + sparse, *shape, sparse)
        for k, ridge_scale in ((1, 1.0), (3, 0.2), (10, 0.005)):
            np.testing.assert_allclose(
                ridge_leverage_scores(a, k, ridge_scale),
                svd_ridge_leverage(dense, k, ridge_scale),
                rtol=1e-10,
                atol=0,
            )

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(2, 30),
        n=st.integers(2, 30),
        k=st.integers(1, 4),
        ridge_scale=st.floats(1e-3, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_gram_scores_equal_svd_formula(self, m, n, k, ridge_scale, seed):
        dense = make_gen(seed).standard_normal((m, n))
        d = min(m, n)
        k = min(k, d - 1)
        # the Gram path resolves (AA^T + lam I)^+ to about eps times its
        # condition number; a tiny tail (k = d - 1) can push that past 1e-10
        s2 = np.linalg.svd(dense, compute_uv=False) ** 2
        cond = s2[0] / (s2[-1] + ridge_scale * float(np.sum(s2[k:])))
        np.testing.assert_allclose(
            ridge_leverage_scores(dense, k, ridge_scale),
            svd_ridge_leverage(dense, k, ridge_scale),
            rtol=max(1e-10, d * np.finfo(float).eps * cond),
            atol=0,
        )


def drawn_count(k, eps, eta, c_s, mass):
    """``t(min(K, K*))``, ``K = k + eps/eta``: the rows drawn at certified mass ``K* >= 1``."""
    big_k = min(k + eps / eta, max(mass, 1.0))
    return math.ceil(c_s * big_k * (1.0 + math.log(big_k)) / (eps * eps))


def spy_on_krylov_scores(monkeypatch):
    """A list that gets a copy of each ``(scores, ridge)`` the Krylov kernel returns."""
    out = []
    kernel = sketches._krylov_scores

    def spy(*args, **kwargs):
        tau, ridge = kernel(*args, **kwargs)
        out.append((tau.copy(), ridge))
        return tau, ridge

    monkeypatch.setattr(sketches, "_krylov_scores", spy)
    return out


class TestEmptyRowScores:
    EMPTY = 17

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("shape", [(71, 70), (70, 71)])
    def test_krylov_scores_give_an_empty_row_zero(self, shape, sparse, monkeypatch):
        # the planted head keeps the row norms from certifying the scores,
        # so the Krylov kernel runs, on a wide and on a tall A
        gen = make_gen(sum(shape) + sparse)
        dense = plant_head(random_sparse(gen, *shape, density=0.1)).to_dense()
        dense[self.EMPTY] = 0.0
        a = SparseMatrix.from_dense(dense) if sparse else dense
        out = spy_on_krylov_scores(monkeypatch)
        k, eps, eta = 3, 0.5, 0.2
        with sample_constant(0.3):
            sk = build_row_sampler(a, k, eps, eta, RandomStream(93))
        [(tau, _)] = out
        assert not sk.clipped and sk.score_kernel == "krylov"
        assert tau[self.EMPTY] == 0.0
        assert self.EMPTY not in sk.indices
        # the scores feed the draw unchanged, bit for bit, and their sum sizes it
        assert sk.mass == tau.sum()
        prob = tau / tau.sum()
        t = drawn_count(k, eps, eta, 0.3, sk.mass)
        idx = np.sort(
            generator_from_seed(sk.seed).choice(shape[0], size=t, replace=False, p=prob)
        )
        np.testing.assert_array_equal(sk.indices, idx)
        np.testing.assert_array_equal(sk.weights, 1.0 / np.sqrt(t * prob[idx]))

    def test_rounding_on_an_empty_row_never_enters_a_clipped_sample(self, monkeypatch):
        # scores that are 0 on all but t nonzero rows clip the sample to
        # those t; rounding on the empty row must not add it. A Gaussian
        # fails the norm certificate, so the score kernel runs
        dense = make_gen(94).standard_normal((40, 50))
        dense[self.EMPTY] = 0.0
        with sample_constant(0.3):
            t = sample_count(3, 0.5, 0.2)
        keep = np.arange(20, 20 + t)
        assert 20 + t <= 40

        def scores(*_):
            tau = np.zeros(40)
            tau[keep] = 1.0
            tau[self.EMPTY] = 7.6e-31
            return tau, 1.0

        monkeypatch.setattr(sketches, "_krylov_scores", scores)
        with sample_constant(0.3):
            sk = build_row_sampler(dense, 3, 0.5, 0.2, RandomStream(95))
        assert sk.clipped and sk.score_kernel == "krylov"
        np.testing.assert_array_equal(sk.indices, keep)


class TestCertifiedMass:
    """The sample is sized at ``min(K, K*)`` for the mass ``K*`` its scores certify."""

    K, EPS, ETA = 2, 0.5, 0.25

    @pytest.mark.parametrize("c_s", [0.3, 1.0])
    @pytest.mark.parametrize("kernel", ["norms", "krylov"])
    def test_count_is_the_sample_count_at_the_smaller_mass(self, kernel, c_s, monkeypatch):
        # as in TestNormCertificate: the plain input certifies its norms, the
        # planted head sends it to the Krylov kernel
        a = random_sparse(make_gen(68), 200, 60, density=0.2)
        if kernel == "krylov":
            a = plant_head(a)
        out = spy_on_krylov_scores(monkeypatch)
        k, eps, eta = self.K, self.EPS, self.ETA
        with sample_constant(c_s):
            sk = build_row_sampler(a, k, eps, eta, RandomStream(19))
            budget = sample_count(k, eps, eta)
        assert not sk.clipped and sk.score_kernel == kernel
        if kernel == "norms":
            col_sq, beta = sketches._norm_bound(a.csr.T)
            fro = col_sq.sum()
            assert sk.mass == pytest.approx(fro / ((eta / eps) * (fro - k * beta)), rel=1e-12)
        else:
            [(tau, _)] = out
            assert sk.mass == tau.sum()
        assert 1.0 <= sk.mass <= (k + eps / eta) * (1.0 + 1e-12)
        assert sk.sample_count == drawn_count(k, eps, eta, c_s, sk.mass) <= budget
        # both kernels certify well below K = 4 on these inputs
        assert sk.sample_count < budget

    def test_a_mass_below_one_over_e_still_draws(self, monkeypatch):
        # 1 + ln K* <= 0 below K* = 1/e: the floor at 1 keeps t = t(1) >= 1
        dense = make_gen(94).standard_normal((40, 50))  # fails the norm certificate

        def scores(*_):
            return np.full(40, 1e-3), 1.0

        monkeypatch.setattr(sketches, "_krylov_scores", scores)
        c_s = 0.3
        with sample_constant(c_s):
            sk = build_row_sampler(dense, self.K, self.EPS, self.ETA, RandomStream(95))
        assert sk.score_kernel == "krylov" and not sk.clipped
        assert sk.mass == pytest.approx(0.04) and sk.mass < 1.0 / math.e
        assert sk.sample_count == math.ceil(c_s / self.EPS**2) == 2
        np.testing.assert_allclose(sk.weights, 1.0 / np.sqrt(2 / 40))

    def test_clipped_budget_computes_no_certificate(self, monkeypatch):
        # a budget covering every nonzero row never scores, so the mass
        # cannot move it: any larger c_s solves to the same bytes
        def boom(*_):
            raise AssertionError("a clipped sample computes no certificate")

        monkeypatch.setattr(sketches, "_norm_bound", boom)
        monkeypatch.setattr(sketches, "_krylov_scores", boom)
        a = random_sparse(make_gen(97), 60, 30, density=0.3)
        reports = []
        for c_s in (sketches.C_S, 10 * sketches.C_S):
            with sample_constant(c_s):
                reports.append(solve_schatten(a, 2, 1.0, 0.5, RandomStream(21)))
        for rep in reports:
            assert rep.clipped and rep.score_kernel is None and rep.score_mass is None
            assert "s_scores" not in rep.multiply_add_counts
            assert rep.rows_drawn == a.nrows <= rep.plan.s_rows
        first, second = (r.factors for r in reports)
        assert first.y.tobytes() == second.y.tobytes()
        assert first.z.tobytes() == second.z.tobytes()


def krylov_counts(k, a):
    """``s_scores`` of a Krylov-scored sample: the norms, the Krylov space and the scores.

    The space's basis stops at ``d = min(a.shape)`` columns, and its block at d.
    """
    d = min(a.shape)
    r = min(k, d)
    width = min((sketches.SCORE_DEPTH + 1) * r, d)
    wide = a.shape[0] < a.shape[1]
    return (3 + 2 * width + r * wide + 3 * r) * a.nnz


class TestNormCertificate:
    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 200),
        n=st.integers(1, 60),
        log_density=st.floats(-2.5, 0.0),
        sign=st.sampled_from([1.0, -1.0, 0.0]),  # 0.0: either sign
        k=st.integers(1, 4),
        eps=st.floats(0.05, 0.5),
        eta_frac=st.floats(0.05, 1.0),
        c_s=st.floats(1e-9, 0.005),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_certified_norms_overestimate_the_ridge_scores(
        self, m, n, log_density, sign, k, eps, eta_frac, c_s, seed
    ):
        # the norms certify on flat spectra: sparse inputs with many rows
        gen = make_gen(seed)
        vals = gen.standard_normal((m, n))
        if sign:
            vals = sign * np.abs(vals)
        mask = gen.random((m, n)) < 10.0**log_density
        dense = np.where(mask & (vals != 0.0), vals, 0.0)
        a = SparseMatrix.from_dense(dense)
        eta = eta_frac * eps
        with sample_constant(c_s):
            sk = build_row_sampler(a, k, eps, eta, RandomStream(seed))
        if sk.clipped or sk.degenerate:
            assert sk.score_kernel is None
        if sk.score_kernel != "norms":
            return
        col_sq, beta = sketches._norm_bound(a.csr.T)
        sigma = np.linalg.svd(dense, compute_uv=False)
        assert beta >= sigma[0] ** 2 * (1.0 - 1e-12)
        # (eta/eps) T is at most the ridge lam; it gives the overestimates
        lam_low = (eta / eps) * (col_sq.sum() - k * beta)
        tau_tilde = col_sq / lam_low
        # the exact scores (at most 1) leave rounding on an empty row
        tau = ridge_leverage_scores(a.transpose(), k, eta / eps)
        assert np.all(tau <= tau_tilde * (1.0 + 1e-9) + 1e-12)
        assert tau_tilde.sum() <= (k + eps / eta) * (1.0 + 1e-12)
        # the draw is by squared row norm, and the first one from the seed
        prob = col_sq / col_sq.sum()
        t = sk.sample_count
        idx = np.sort(generator_from_seed(sk.seed).choice(m, size=t, replace=False, p=prob))
        np.testing.assert_array_equal(sk.indices, idx)
        np.testing.assert_array_equal(sk.weights, 1.0 / np.sqrt(t * prob[idx]))

    def test_certificate_holds_one_nnz_long_array(self):
        # |A|'s values, then their squares in the same array; besides it the
        # sampler holds vectors of m (row counts, support, row sums of |A|)
        m, n, nnz = 20_000, 50, 200_000
        gen = make_gen(46)
        flat = np.sort(gen.choice(m * n, size=nnz, replace=False))
        a = SparseMatrix(m, n, flat // n, flat % n, gen.standard_normal(nnz))

        def build():
            return build_row_sampler(a, 2, 0.5, 0.25, RandomStream(18))

        build()  # a first call's lazy imports are not the sampler's
        tracemalloc.start()
        try:
            sk = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not sk.clipped and sk.score_kernel == "norms"
        # 8 nnz + 3.0 (m + n) doubles measured; each stored entry's row index
        # and squared value at once took 16 nnz + 13 (m + n)
        assert peak <= 1.25 * 8 * (nnz + 3 * (m + n))

    def test_planted_head_falls_back_to_the_krylov_scores(self):
        a = random_sparse(make_gen(68), 200, 60, density=0.2)
        k, eps, eta = 2, 0.5, 0.25
        kernels = []
        for b in (a, plant_head(a)):
            counter = MultiplyAddCounter()
            with sample_constant(0.3):
                sk = build_row_sampler(b, k, eps, eta, RandomStream(19), counter)
            assert not sk.clipped
            kernels.append(sk.score_kernel)
            col_sq, beta = sketches._norm_bound(b.csr.T)
            fro = col_sq.sum()
            if sk.score_kernel == "norms":
                assert counter.count == 3 * b.nnz
                assert fro / ((eta / eps) * (fro - k * beta)) <= k + eps / eta
            else:
                # a dominant rank-one head: k beta exceeds ||A||_F^2
                assert fro - k * beta <= 0.0
                assert counter.count == krylov_counts(k, b)
        assert kernels == ["norms", "krylov"]


def headed_input(m, n, density, empty, seed):
    """A random sparse A under a planted head, with ``empty`` of its rows zeroed."""
    gen = make_gen(seed)
    dense = plant_head(random_sparse(gen, m, n, density)).to_dense()
    dense[gen.choice(np.arange(5, m), size=min(empty, m - 5), replace=False)] = 0.0
    return dense


class TestKrylovScores:
    """The overestimates the row sampler draws by when the norms do not certify."""

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(12, 150),
        n=st.integers(6, 60),
        density=st.floats(0.05, 0.6),
        empty=st.integers(0, 4),
        k=st.integers(1, 4),
        eps=st.floats(0.05, 0.5),
        eta_frac=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_overestimates_fit_the_budget(
        self, m, n, density, empty, k, eps, eta_frac, seed
    ):
        # hypothesis cannot hold a monkeypatch fixture across examples
        with pytest.MonkeyPatch.context() as monkeypatch:
            out = spy_on_krylov_scores(monkeypatch)
            dense = headed_input(m, n, density, empty, seed)
            eta = eta_frac * eps
            with sample_constant(1e-3):
                sk = build_row_sampler(dense, k, eps, eta, RandomStream(seed))
        if sk.score_kernel != "krylov":
            return
        [(tau_tilde, ridge)] = out
        assert tau_tilde.sum() <= (k + eps / eta) * (1.0 + 1e-12)
        zero = ~np.any(dense != 0.0, axis=1)
        assert np.all(tau_tilde[zero] == 0.0) and np.all(tau_tilde[~zero] > 0.0)
        # the exact scores at the kernel's ridge, lam' = (eta/eps) ||(I - W W^T) A||_F^2,
        # from A's SVD: the Gram path of ridge_leverage_scores resolves them
        # only to about eps_mach cond(A^T A), which a planted head makes 1e-8
        u, sigma, _ = np.linalg.svd(dense, full_matrices=False)
        s2 = sigma**2
        tail = float(np.sum(s2[k:]))
        if ridge > 0.0:
            assert ridge >= (eta / eps) * tail * (1.0 - 1e-9)
        else:
            assert tail <= 1e-9 * s2.sum()  # A lies in the Krylov basis's span
        live = s2 > min(m, n) * np.finfo(float).eps * s2[0]
        tau = np.square(u[:, live]) @ (s2[live] / (s2[live] + ridge))
        assert np.all(tau <= tau_tilde * (1.0 + 1e-9) + 1e-12)
        # the draw is by the overestimates, and the first one from the seed
        prob = tau_tilde / tau_tilde.sum()
        t = sk.sample_count
        idx = np.sort(generator_from_seed(sk.seed).choice(m, size=t, replace=False, p=prob))
        np.testing.assert_array_equal(sk.indices, idx)
        np.testing.assert_array_equal(sk.weights, 1.0 / np.sqrt(t * prob[idx]))

    def test_rank_at_most_k_has_zero_ridge(self):
        gen = make_gen(70)
        a = SparseMatrix.from_dense(gen.standard_normal((90, 2)) @ gen.standard_normal((2, 70)))
        k = 3
        row_sq = np.sum(a.to_dense() ** 2, axis=1)
        (tau, ridge), (again, _) = (
            sketches._krylov_scores(a, k, scale, None, row_sq) for scale in (0.2, 0.4)
        )
        # A lies in range(W), so the ridge is 0 at any scale: A's leverage scores
        assert ridge == 0.0
        assert tau.tobytes() == again.tobytes()
        np.testing.assert_allclose(tau, ridge_leverage_scores(a.transpose(), k, 0.2), rtol=1e-8)
        assert tau.sum() == pytest.approx(2.0)

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("shape", [(70, 40), (40, 70)])
    def test_k_reaching_min_dim_gives_the_leverage_scores(self, shape, extra):
        # r = d: W spans range(A), so the ridge is 0 and the scores are exact
        a = random_sparse(make_gen(sum(shape) + extra), *shape, density=0.3)
        d = min(shape)
        k = d + extra
        row_sq = np.sum(a.to_dense() ** 2, axis=1)
        tau, ridge = sketches._krylov_scores(a, k, 0.5, None, row_sq)
        assert ridge == 0.0
        np.testing.assert_allclose(tau, ridge_leverage_scores(a.transpose(), k, 0.5), rtol=1e-8)
        assert tau.sum() == pytest.approx(d)

    @pytest.mark.parametrize("shape", [(120, 100), (100, 120)])
    def test_counter_skips_null_directions(self, shape):
        # rank 2 under r = 3: V has 2 columns, so A V costs 2 nnz, not 3
        gen = make_gen(sum(shape))
        a = SparseMatrix.from_dense(
            gen.standard_normal((shape[0], 2)) @ gen.standard_normal((2, shape[1]))
        )
        counter = MultiplyAddCounter()
        with sample_constant(1e-3):
            sk = build_row_sampler(a, 3, 0.5, 0.25, RandomStream(8), counter)
        assert not sk.clipped and sk.score_kernel == "krylov"
        assert counter.count == krylov_counts(3, a) - a.nnz

    def test_rerun_is_bit_identical(self):
        a = plant_head(random_sparse(make_gen(72), 120, 100, density=0.2))
        with sample_constant(0.5):
            sks = [build_row_sampler(a, 2, 0.5, 0.25, RandomStream(13)) for _ in range(2)]
        assert not sks[0].clipped and sks[0].score_kernel == "krylov"
        assert sks[0].indices.tobytes() == sks[1].indices.tobytes()
        assert sks[0].weights.tobytes() == sks[1].weights.tobytes()

    @pytest.mark.parametrize("shape", [(120, 100), (100, 120), (40, 300)])
    @pytest.mark.parametrize("k", [1, 3, 40])
    def test_counter_is_exact(self, shape, k):
        # tall and wide; k = 40 is a space capped at d: 100 of its 120
        # columns at d = 100, a single block of all d directions at d = 40
        a = plant_head(random_sparse(make_gen(sum(shape) + k), *shape, density=0.2))
        counter = MultiplyAddCounter()
        with sample_constant(1e-3):
            sk = build_row_sampler(a, k, 0.5, 0.25, RandomStream(8), counter)
        assert not sk.clipped and sk.score_kernel == "krylov"
        assert counter.count == krylov_counts(k, a)

    def test_caller_stream_advances_one_child_seed(self):
        # the Krylov start block comes from KRYLOV_SEED, not from the stream
        a = plant_head(random_sparse(make_gen(75), 120, 100, density=0.2))
        streams = RandomStream(14), RandomStream(14)
        with sample_constant(0.5):
            krylov = build_row_sampler(a, 2, 0.5, 0.25, streams[0])
        clipped = build_row_sampler(a, 2, 0.5, 0.25, streams[1])
        assert krylov.score_kernel == "krylov" and not krylov.clipped
        assert clipped.clipped and clipped.score_kernel is None
        assert krylov.seed == clipped.seed
        assert streams[0].child_seed() == streams[1].child_seed()


@pytest.fixture
def no_factorization(monkeypatch):
    """Makes every densifying or factorizing helper of the sampler raise."""

    def boom(*_, **__):
        raise AssertionError("the clipped path must not densify or factorize")

    monkeypatch.setattr(sketches, "_krylov_scores", boom)
    monkeypatch.setattr(matrixcore, "svd", boom)
    monkeypatch.setattr(np.linalg, "svd", boom)
    monkeypatch.setattr(scipy.linalg, "eigh", boom)
    monkeypatch.setattr(SparseMatrix, "to_dense", boom)


class TestClippedShortCircuit:
    def test_runs_no_factorization(self, no_factorization):
        a = random_sparse(make_gen(60), 30, 20, density=0.3)
        sk = build_row_sampler(transposed(a), 2, 0.5, 0.1, RandomStream(8))
        assert sk.clipped and not sk.degenerate
        np.testing.assert_array_equal(sk.indices, np.arange(20))
        np.testing.assert_array_equal(sk.weights, np.ones(20))

    def test_keeps_exactly_the_nonzero_columns(self, no_factorization):
        dense = make_gen(61).standard_normal((12, 9))
        dense[:, [0, 4, 8]] = 0.0
        for a in (SparseMatrix.from_dense(dense), dense):
            sk = build_row_sampler(transposed(a), 2, 0.5, 0.1, RandomStream(9))
            assert sk.clipped and not sk.degenerate
            np.testing.assert_array_equal(sk.indices, [1, 2, 3, 5, 6, 7])
            np.testing.assert_array_equal(sk.weights, np.ones(6))

    def test_seed_drawn_as_on_the_leverage_path(self):
        # the child seed is drawn before the path is chosen, so later seeds agree
        a = random_sparse(make_gen(62), 40, 30, density=0.3)
        streams = RandomStream(10), RandomStream(10)
        at = a.transpose()
        clipped = build_row_sampler(at, 2, 0.5, 0.1, streams[0])
        with sample_constant(0.05):
            sampled = build_row_sampler(at, 2, 0.5, 0.1, streams[1])
        assert clipped.clipped and not sampled.clipped
        assert clipped.seed == sampled.seed
        assert streams[0].child_seed() == streams[1].child_seed()


def tall_sparse(seed, m, n, nnz):
    gen = make_gen(seed)
    flat = np.sort(gen.choice(m * n, size=nnz, replace=False))
    return SparseMatrix(m, n, flat // n, flat % n, 1.0 - gen.random(nnz))


class TestRowSamplerReadsAInPlace:
    # the default c_s clips; c_s=0.3 samples, by the certified row norms, or
    # by the Krylov scores under a planted head
    @pytest.mark.parametrize("path", ["clipped", "norms", "krylov"])
    @pytest.mark.parametrize("empty", [False, True], ids=["nonzero", "zero"])
    def test_no_path_transposes(self, path, empty, monkeypatch):
        a = SparseMatrix(200, 60, [], [], []) if empty else random_sparse(make_gen(64), 200, 60)
        if path == "krylov" and not empty:
            a = plant_head(a)

        def transpose(*_):
            raise AssertionError("the row sampler must read A in place")

        monkeypatch.setattr(SparseMatrix, "transpose", transpose)
        with sample_constant(sketches.C_S if path == "clipped" else 0.3):
            sk = build_row_sampler(a, 2, 0.5, 0.25, RandomStream(15))
        assert sk.clipped == (path == "clipped") and sk.degenerate == empty
        assert sk.score_kernel == (None if empty or path == "clipped" else path)
        out = apply_row_sampler(a, sk)
        assert out.shape == (sk.sample_count, 60)

    def test_clipped_sample_of_every_row_is_a_itself(self):
        a = random_sparse(make_gen(65), 30, 20, density=0.3)
        assert np.all(np.diff(a.csr.indptr) > 0)
        sk = build_row_sampler(a, 2, 0.5, 0.1, RandomStream(16))
        assert sk.clipped and sk.sample_count == a.nrows
        counter = MultiplyAddCounter()
        assert apply_row_sampler(a, sk, counter) is a
        assert counter.count == a.nnz
        # a clipped sample that leaves out an empty row is a new, smaller matrix
        dense = a.to_dense()
        dense[7] = 0.0
        b = SparseMatrix.from_dense(dense)
        sk = build_row_sampler(b, 2, 0.5, 0.1, RandomStream(16))
        assert sk.clipped and sk.sample_count == b.nrows - 1
        counter = MultiplyAddCounter()
        out = apply_row_sampler(b, sk, counter)
        np.testing.assert_array_equal(out.to_dense(), np.delete(dense, 7, axis=0))
        assert counter.count == out.nnz == b.nnz

    def test_peak_memory_is_a_few_m_by_k_arrays(self):
        m, n, nnz = 20000, 100, 60000
        k, eps, eta = 2, 0.5, 0.25
        a = plant_head(tall_sparse(66, m, n, nnz))
        tracemalloc.start()
        try:
            sk = build_row_sampler(a, k, eps, eta, RandomStream(17))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not sk.clipped and sk.score_kernel == "krylov"
        # 1.44 MB measured: the norm certificate's one nnz-long array (8 nnz
        # bytes) and the row counts and support (2 m doubles); the Krylov
        # scores after them peak at 2.5 m k doubles. A transposed copy of A would add 12 nnz
        # bytes; the Gaussian score sketch these scores replace took 6.0 MB
        assert peak <= 1.25 * (16 * nnz + 8 * m * 2 * k)


class TestDenseGuard:
    n = DENSE_GUARD + 1

    def _diagonal(self, ncols):
        return SparseMatrix(self.n, ncols, np.arange(self.n), np.arange(self.n) % ncols, np.ones(self.n))

    @pytest.mark.parametrize("kernel", ["norms", "krylov"])
    def test_small_budget_above_guard_samples_in_sketch_memory(self, kernel, monkeypatch):
        # neither the certified norms nor the Krylov scores build a Gram
        # matrix of the input, so a min dimension above the guard is sampled
        # in O(nnz + (m + n) k) memory; a planted head fails the norm certificate
        a = self._diagonal(self.n)
        if kernel == "krylov":
            a = plant_head(a)
        k, eps, eta = 1, 0.5, 0.1

        def densify(*_):
            raise AssertionError("the row scores must not densify the input")

        monkeypatch.setattr(SparseMatrix, "to_dense", densify)
        tracemalloc.start()
        try:
            with sample_constant(1.0):
                sk = build_row_sampler(transposed(a), k, eps, eta, RandomStream(11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not sk.clipped and not sk.degenerate and sk.score_kernel == kernel
        assert sk.sample_count == drawn_count(k, eps, eta, 1.0, sk.mass) < self.n
        assert np.all(np.isfinite(sk.weights))
        # 5.1 (m + n) k doubles measured for the norms and 6.6 for the Krylov
        # scores (k = 1, nnz = n + 20); a dense n x n array takes 200 MB
        assert peak < 8 * (8 * (a.nrows + a.ncols) * k + 2 * a.nnz)

    def test_exact_scores_above_guard_raise_scale_limit_error(self, monkeypatch):
        # exact scores above the guard come only from the oracle scorer's
        # dense R, which the guard refuses before anything is densified
        def densify(*_):
            raise AssertionError("the guard must refuse before densifying")

        monkeypatch.setattr(SparseMatrix, "to_dense", densify)
        with pytest.raises(ScaleLimitError, match="DENSE_GUARD=5000") as info:
            OracleScorer(self._diagonal(self.n))
        assert isinstance(info.value, ValueError)
        assert "full_pipeline without the oracle flag" in str(info.value)

    def test_large_budget_above_guard_is_clipped(self):
        a = self._diagonal(self.n + 1000)  # the last 1000 columns are empty
        tracemalloc.start()
        try:
            sk = build_row_sampler(transposed(a), 5, 0.5, 0.01, RandomStream(12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sk.clipped and not sk.degenerate
        np.testing.assert_array_equal(sk.indices, np.arange(self.n))
        assert peak < 2**22


class TestSketchPlan:
    def test_p2_formulas(self):
        plan = make_sketch_plan(100, 80, 4, 0.5, 2.0)
        assert plan.eta1 == pytest.approx(0.25 / 4)
        assert plan.r_kyfan == 8

    def test_p1_substitution(self):
        plan = make_sketch_plan(100, 80, 4, 0.5, 1.0)
        assert plan.eta1 == pytest.approx((0.25 / 4) ** 2)
        assert plan.r_kyfan == 8

    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 1.999])
    @pytest.mark.parametrize("k", [1, 3, 10, 20])
    def test_p_below_two_takes_the_generalized_split(self, p, k):
        # solve_generalized's (eps / ceil(k/eps))^(1/alpha) at alpha = p/2:
        # (eps^2/k)^(2/p) bit for bit at eps = 1/2, and no larger elsewhere
        assert make_sketch_plan(5000, 400, k, 0.5, p).eta1 == (0.25 / k) ** (2.0 / p)
        for eps in (0.1, 0.3, 0.45):
            eta1 = make_sketch_plan(5000, 400, k, eps, p).eta1
            assert eta1 == (eps / math.ceil(k / eps)) ** (1.0 / (p / 2.0))
            assert eta1 <= (eps * eps / k) ** (2.0 / p)

    def test_p_above_two_formulas(self):
        m, n, k, eps, p = 200, 150, 5, 0.5, 4.0
        plan = make_sketch_plan(m, n, k, eps, p)
        assert plan.eta1 == pytest.approx(
            eps ** (1 + 0.5) / (k**0.5 * n**0.5)
        )

    def test_simplified_takes_k_squared_rows(self):
        plan = make_sketch_plan(300, 200, 10, 0.5, 1.0, "simplified_experiment")
        assert plan.s_rows == 100

    def test_exact_dims_follow_sample_count(self):
        m, n, k, eps = 5000, 400, 3, 0.5
        plan = make_sketch_plan(m, n, k, eps, 1.0)
        assert sketches.C_S == 8.0
        assert plan.s_rows == min(sample_count(k, eps, plan.eta1), m)

    def test_sizing_reads_the_patched_constant(self):
        # the counts read C_S at call time: were it bound at import, every
        # test that patches it would silently run at the default
        a = random_sparse(make_gen(99), 300, 40, density=0.2)
        k, eps = 2, 0.5
        eta1 = make_sketch_plan(300, 40, k, eps, 1.0).eta1
        for c_s in (0.01, 0.05, sketches.C_S):
            with sample_constant(c_s):
                want = drawn_count(k, eps, eta1, c_s, math.inf)
                assert sample_count(k, eps, eta1) == want
                rep = solve_schatten(a, k, 1.0, eps, RandomStream(3))
            assert rep.plan.s_rows == min(want, 300)
        assert [min(drawn_count(k, eps, eta1, c, math.inf), 300) for c in (0.01, 0.05)] == [7, 31]
        assert sample_count(k, eps, eta1) == drawn_count(k, eps, eta1, 8.0, math.inf)

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.floats(1.0, 20.0),
        dims=st.lists(st.integers(1, 10**6), min_size=2, max_size=2).map(sorted),
        ks=st.lists(st.integers(1, 100), min_size=2, max_size=2).map(sorted),
        epss=st.lists(st.floats(1e-6, 0.5), min_size=2, max_size=2).map(sorted),
        mode=st.sampled_from(sketches.MODES),
    )
    def test_property_monotone_in_k_and_eps(self, p, dims, ks, epss, mode):
        n, m = dims

        def rows(k, eps):
            return make_sketch_plan(m, n, min(k, n), eps, p, mode).s_rows

        for eps in epss:
            assert rows(ks[0], eps) <= rows(ks[1], eps)
        for k in ks:
            assert rows(k, epss[0]) >= rows(k, epss[1])

    def test_validation(self):
        with pytest.raises(ValueError):
            make_sketch_plan(10, 20, 2, 0.5, 1.0)  # m < n
        with pytest.raises(ValueError):
            make_sketch_plan(20, 10, 0, 0.5, 1.0)
        with pytest.raises(ValueError):
            make_sketch_plan(20, 10, 2, 0.8, 1.0)
        with pytest.raises(ValueError):
            make_sketch_plan(20, 10, 2, 0.5, 0.5)
        with pytest.raises(ValueError):
            make_sketch_plan(20, 10, 2, 0.5, 1.0, "fast_mode")

    @pytest.mark.parametrize("mode", sketches.MODES)
    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_non_finite_p_is_refused(self, p, mode):
        with pytest.raises(ValueError, match=rf"^p must be a finite value >= 1, got {p}$"):
            make_sketch_plan(100, 50, 2, 0.5, p, mode)

    def test_etas_in_unit_interval(self):
        for p in (1.0, 1.5, 2.0, 3.0, 6.0):
            for k in (1, 5, 20):
                plan = make_sketch_plan(500, 300, k, 0.5, p)
                assert 0 < plan.eta1 <= 1

    @pytest.mark.parametrize(
        "eps, p, mode",
        [
            (1e-66, 1.0, "full_pipeline"),  # t(K) overflows the float range
            (1e-160, 3.0, "full_pipeline"),
            (1e-200, 100.0, "full_pipeline"),  # eps^2 underflows to 0
            (1e-310, 100.0, "full_pipeline"),
            (1e-310, 1.0, "simplified_experiment"),  # k / eps overflows
            (5e-324, 3.0, "simplified_experiment"),
        ],
    )
    def test_a_count_past_the_float_range_is_every_row(self, eps, p, mode):
        plan = make_sketch_plan(100, 50, 2, eps, p, mode)
        assert plan.s_rows == (100 if mode == "full_pipeline" else 4)
        assert plan.r_kyfan == (math.ceil(2 / eps) if 2 / eps < math.inf else sys.maxsize)

    @pytest.mark.parametrize("eps, p", [(1e-81, 1.0), (1e-200, 3.0), (5e-324, 100.0)])
    def test_an_error_split_that_underflows_names_eps(self, eps, p):
        refusal = rf"^eps={eps:g} is too small: the error split eta=0 is not positive$"
        with pytest.raises(ValueError, match=refusal):
            make_sketch_plan(100, 50, 2, eps, p)
        with pytest.raises(ValueError, match=rf"^eps={eps:g} is too small"):
            sample_count(2, eps, 0.0)

    def test_a_tiny_eps_sampler_keeps_every_row(self):
        a = random_sparse(make_gen(5), 100, 50, density=0.2)
        sk = build_row_sampler(a, 2, 1e-300, 1e-300, RandomStream(3))
        assert sk.clipped and sk.sample_count == 100


def _bytes_of(x):
    """A comparable image of a kernel's output, down to dtype and bytes."""
    if isinstance(x, SparseMatrix):
        x = (x.shape, x.csr.data, x.csr.indices, x.csr.indptr)
    elif isinstance(x, sketches.SamplingSketch):
        x = (x.source_dim, x.indices, x.weights, x.seed, x.clipped, x.degenerate)
    if isinstance(x, tuple):
        return tuple(_bytes_of(v) for v in x)
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    return x


class TestDenseOperand:
    """A dense A runs as the SparseMatrix of its nonzeros: same bytes, same counts."""

    @classmethod
    def kernels(cls, a, seed):
        """Each kernel that takes either storage, as a function of ``(a, counter)``."""
        right = make_gen(seed).standard_normal((a.shape[1], 2))
        # c_s=0.3 draws 5 of the rows at k=1, eps=eta=0.5, by the certified
        # norms or by the Krylov scores
        def sampler(x, c):
            with sample_constant(0.3):
                return build_row_sampler(x, 1, 0.5, 0.5, RandomStream(seed), c)

        rows = sampler(SparseMatrix.from_dense(a), None)
        op = build_countsketch(a.shape[0], 3, RandomStream(seed))
        return {
            "build_row_sampler": sampler,
            "apply_row_sampler": lambda x, c: apply_row_sampler(x, rows, c),
            "apply_countsketch_left": lambda x, c: apply_countsketch_left(x, op, c),
            "block_krylov": lambda x, c: matrixcore.block_krylov(x, 1, 1, c),
            "sparse_dense_multiply": lambda x, c: sparse_dense_multiply(x, right, c),
        }

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(8, 40),
        n=st.integers(8, 40),
        density=st.floats(0.2, 1.0),
        empty=st.integers(0, 4),
    )
    def test_property_bit_identical_to_its_sparse_matrix(self, seed, m, n, density, empty):
        # values spread over 8 decades make every summation order show in
        # the last bits; one entry is kept so the input is never all zero
        gen = make_gen(seed)
        mag = 10.0 ** gen.integers(-4, 4, size=(m, n))
        dense = np.where(gen.random((m, n)) < density, gen.standard_normal((m, n)) * mag, 0.0)
        dense[gen.choice(np.arange(1, m), size=empty, replace=False)] = 0.0
        dense[:, gen.choice(np.arange(1, n), size=empty, replace=False)] = 0.0
        dense[0, 0] = 1.0
        sparse = SparseMatrix.from_dense(dense)
        for name, kernel in self.kernels(dense, seed).items():
            got, want = MultiplyAddCounter(), MultiplyAddCounter()
            assert _bytes_of(kernel(dense, got)) == _bytes_of(kernel(sparse, want)), name
            assert got.count == want.count, name

    def test_counted_by_its_nonzeros(self):
        gen = make_gen(120)
        dense = np.where(gen.random((120, 100)) < 0.3, gen.standard_normal((120, 100)), 0.0)
        counter = MultiplyAddCounter()
        matrixcore.block_krylov(dense, 3, 4, counter)
        nnz = int(np.count_nonzero(dense))
        assert counter.count == 3 * nnz * (2 * 5) < 3 * dense.size * (2 * 5)
