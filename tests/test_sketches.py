"""Tests for CountSketch operators, leverage samplers and the sketch plan."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from conftest import lowrank_plus_noise, make_gen, random_orthonormal, random_sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import sketchlr.matrixcore as matrixcore
import sketchlr.sketches as sketches
from sketchlr import (
    CountSketchOperator,
    IdentitySketch,
    MultiplyAddCounter,
    RandomStream,
    SketchConstants,
    SparseMatrix,
    apply_column_sampler,
    apply_countsketch_left,
    apply_countsketch_right,
    apply_row_sampler,
    build_column_sampler,
    build_countsketch,
    build_row_sampler,
    build_row_sampler_T,
    make_sketch_plan,
    sample_count,
    singular_values,
)
from sketchlr.matrixcore import DENSE_GUARD
from sketchlr.rng import generator_from_seed
from sketchlr.sketches import ridge_leverage_scores


def materialize(op: CountSketchOperator) -> np.ndarray:
    """Dense oracle for the implied sketch matrix, built entry by entry."""
    dense = np.zeros((op.input_dim, op.sketch_dim))
    for i in range(op.input_dim):
        dense[i, op.bucket[i]] = op.sign[i]
    return dense


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
    def test_identity_input_places_signs(self):
        op = build_countsketch(6, 4, RandomStream(8))
        out = apply_countsketch_right(SparseMatrix.from_dense(np.eye(6)), op)
        for i in range(6):
            expected = np.zeros(4)
            expected[op.bucket[i]] = op.sign[i]
            np.testing.assert_array_equal(out[i], expected)

    def test_zero_matrix(self):
        op = build_countsketch(5, 3, RandomStream(8))
        out = apply_countsketch_right(SparseMatrix(4, 5, [], [], []), op)
        np.testing.assert_array_equal(out, np.zeros((4, 3)))

    def test_matches_dense_materialization(self):
        gen = make_gen(42)
        a = random_sparse(gen, 50, 40, density=0.2)
        op = build_countsketch(40, 20, RandomStream(11))
        np.testing.assert_allclose(
            apply_countsketch_right(a, op), a.to_dense() @ materialize(op), atol=1e-12
        )
        left = build_countsketch(50, 10, RandomStream(12))
        np.testing.assert_allclose(
            apply_countsketch_left(a, left),
            materialize(left).T @ a.to_dense(),
            atol=1e-12,
        )

    def test_dense_operand(self):
        gen = make_gen(43)
        a = gen.standard_normal((9, 12))
        op = build_countsketch(12, 5, RandomStream(13))
        np.testing.assert_allclose(
            apply_countsketch_right(a, op), a @ materialize(op), atol=1e-12
        )

    def test_counter_equals_nnz(self):
        gen = make_gen(44)
        a = random_sparse(gen, 30, 25, density=0.15)
        op = build_countsketch(25, 9, RandomStream(14))
        counter = MultiplyAddCounter()
        apply_countsketch_right(a, op, counter)
        assert counter.count == a.nnz
        counter = MultiplyAddCounter()
        left = build_countsketch(30, 9, RandomStream(15))
        apply_countsketch_left(a, left, counter)
        assert counter.count == a.nnz

    def test_dimension_mismatch(self):
        op = build_countsketch(7, 3, RandomStream(16))
        with pytest.raises(ValueError, match="mismatch"):
            apply_countsketch_right(np.ones((4, 6)), op)
        with pytest.raises(ValueError, match="mismatch"):
            apply_countsketch_left(np.ones((6, 4)), op)

    def test_identity_sketch_passthrough(self):
        a = random_sparse(make_gen(45), 6, 5, density=0.4)
        np.testing.assert_array_equal(
            apply_countsketch_right(a, IdentitySketch(5)), a.to_dense()
        )
        np.testing.assert_array_equal(
            apply_countsketch_left(a, IdentitySketch(6)), a.to_dense()
        )

    def test_product_concentration(self):
        # Frobenius bilinear deviation within eps for >= 90 of 100 seeds
        gen = make_gen(99)
        eps = 0.25
        r = math.ceil(4.0 / eps**2)
        stream = RandomStream(1234)
        hits = 0
        for _ in range(100):
            a = gen.standard_normal((100, 20))
            a /= np.linalg.norm(a)
            b = gen.standard_normal((100, 20))
            b /= np.linalg.norm(b)
            op = build_countsketch(100, r, stream)
            ar = apply_countsketch_right(a.T, op)
            br = apply_countsketch_right(b.T, op)
            hits += np.linalg.norm(ar @ br.T - a.T @ b) <= eps
        assert hits >= 90


class TestColumnSampler:
    def test_single_nonzero_column_always_chosen(self):
        dense = np.zeros((5, 4))
        dense[:, 2] = [1.0, 2.0, 0.5, 0.0, 1.5]
        sk = build_column_sampler(
            SparseMatrix.from_dense(dense), 1, 0.5, 0.1, RandomStream(0)
        )
        np.testing.assert_array_equal(sk.indices, [2])
        np.testing.assert_array_equal(sk.weights, [1.0])
        assert sk.clipped

    def test_identity_uniform_weights(self):
        sk = build_column_sampler(np.eye(8), 2, 0.5, 0.1, RandomStream(1))
        assert sk.clipped  # budget covers all columns at these parameters
        np.testing.assert_array_equal(sk.indices, np.arange(8))
        np.testing.assert_array_equal(sk.weights, np.ones(8))

    def test_identity_uniform_weights_subsampled(self):
        # force genuine sampling; symmetric leverage means equal weights
        sk = build_column_sampler(
            np.eye(30), 2, 0.5, 0.1, RandomStream(2), SketchConstants(c_s=0.05)
        )
        assert not sk.clipped
        assert sk.sample_count < 30
        assert len(set(sk.indices.tolist())) == sk.sample_count
        np.testing.assert_allclose(sk.weights, sk.weights[0])

    def test_degenerate_zero_matrix(self):
        sk = build_column_sampler(
            SparseMatrix(6, 6, [], [], []), 1, 0.5, 0.1, RandomStream(3)
        )
        assert sk.degenerate
        assert sk.sample_count >= 1

    def test_rejects_bad_eps_eta(self):
        with pytest.raises(ValueError):
            build_column_sampler(np.eye(4), 1, 0.1, 0.5, RandomStream(4))
        with pytest.raises(ValueError):
            build_column_sampler(np.eye(4), 0, 0.5, 0.1, RandomStream(4))

    def test_reproducible_from_stream_seed(self):
        gen = make_gen(50)
        a = lowrank_plus_noise(gen, 40, 30, 8)
        sk1 = build_column_sampler(a, 3, 0.5, 0.2, RandomStream(77))
        sk2 = build_column_sampler(a, 3, 0.5, 0.2, RandomStream(77))
        np.testing.assert_array_equal(sk1.indices, sk2.indices)
        np.testing.assert_array_equal(sk1.weights, sk2.weights)

    def test_apply_and_counter(self):
        gen = make_gen(51)
        a = random_sparse(gen, 12, 10, density=0.5)
        sk = build_column_sampler(a, 2, 0.5, 0.25, RandomStream(5))
        counter = MultiplyAddCounter()
        c = apply_column_sampler(a, sk, counter)
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
            out, a.to_dense()[sk.indices, :] * sk.weights[:, None], atol=1e-12
        )

    def test_psd_sandwich_subsampled(self):
        # genuine sampling path (small c_s): two-sided Gram bound at >= 90/100
        eps, eta, k = 0.5, 0.1, 5
        consts = SketchConstants(c_s=0.5)
        stream = RandomStream(4242)
        hits = 0
        for t in range(100):
            gen = make_gen(2000 + t)
            a = lowrank_plus_noise(gen, 120, 100, 20)
            sk = build_column_sampler(a, k, eps, eta, stream, consts)
            assert not sk.clipped
            c = apply_column_sampler(a, sk)
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

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("shape", [(40, 70), (70, 40)])
    def test_samples_equal_svd_formula_samples(self, shape, sparse):
        # the scores feed the same draw: same indices, weights to rounding
        a, dense = random_input(7 * sum(shape) + sparse, *shape, sparse)
        k, eps, eta = 3, 0.5, 0.2
        consts = SketchConstants(c_s=0.3)
        sk = build_column_sampler(a, k, eps, eta, RandomStream(91), consts)
        t = sample_count(k, eps, eta, consts.c_s)
        assert not sk.clipped and t < shape[1]
        prob = svd_ridge_leverage(dense, k, eta / eps)
        prob /= prob.sum()
        idx = np.sort(generator_from_seed(sk.seed).choice(shape[1], size=t, replace=False, p=prob))
        np.testing.assert_array_equal(sk.indices, idx)
        np.testing.assert_allclose(sk.weights, 1.0 / np.sqrt(t * prob[idx]), rtol=1e-10)


@pytest.fixture
def no_factorization(monkeypatch):
    """Makes every densifying or factorizing helper of the sampler raise."""

    def boom(*_, **__):
        raise AssertionError("the clipped path must not densify or factorize")

    monkeypatch.setattr(sketches, "ridge_leverage_scores", boom)
    monkeypatch.setattr(matrixcore, "svd", boom)
    monkeypatch.setattr(np.linalg, "svd", boom)
    monkeypatch.setattr(scipy.linalg, "eigh", boom)
    monkeypatch.setattr(SparseMatrix, "to_dense", boom)


class TestClippedShortCircuit:
    def test_runs_no_factorization(self, no_factorization):
        a = random_sparse(make_gen(60), 30, 20, density=0.3)
        sk = build_column_sampler(a, 2, 0.5, 0.1, RandomStream(8))
        assert sk.clipped and not sk.degenerate
        np.testing.assert_array_equal(sk.indices, np.arange(20))
        np.testing.assert_array_equal(sk.weights, np.ones(20))

    def test_keeps_exactly_the_nonzero_columns(self, no_factorization):
        dense = make_gen(61).standard_normal((12, 9))
        dense[:, [0, 4, 8]] = 0.0
        for a in (SparseMatrix.from_dense(dense), dense):
            sk = build_column_sampler(a, 2, 0.5, 0.1, RandomStream(9))
            assert sk.clipped and not sk.degenerate
            np.testing.assert_array_equal(sk.indices, [1, 2, 3, 5, 6, 7])
            np.testing.assert_array_equal(sk.weights, np.ones(6))

    def test_seed_drawn_as_on_the_leverage_path(self):
        # the child seed is drawn before the path is chosen, so later seeds agree
        a = random_sparse(make_gen(62), 40, 30, density=0.3)
        streams = RandomStream(10), RandomStream(10)
        clipped = build_column_sampler(a, 2, 0.5, 0.1, streams[0])
        sampled = build_column_sampler(a, 2, 0.5, 0.1, streams[1], SketchConstants(c_s=0.05))
        assert clipped.clipped and not sampled.clipped
        assert clipped.seed == sampled.seed
        assert streams[0].child_seed() == streams[1].child_seed()


class TestDenseGuard:
    n = DENSE_GUARD + 1

    def _diagonal(self, ncols):
        return SparseMatrix(self.n, ncols, np.arange(self.n), np.arange(self.n) % ncols, np.ones(self.n))

    def test_small_budget_above_guard_raises_without_allocating(self):
        a = self._diagonal(self.n)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="guard"):
                build_column_sampler(a, 1, 0.5, 0.1, RandomStream(11), SketchConstants(c_s=1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**22  # a dense n x n array would take 200 MB

    def test_large_budget_above_guard_is_clipped(self):
        a = self._diagonal(self.n + 1000)  # the last 1000 columns are empty
        tracemalloc.start()
        try:
            sk = build_column_sampler(a, 5, 0.5, 0.01, RandomStream(12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sk.clipped and not sk.degenerate
        np.testing.assert_array_equal(sk.indices, np.arange(self.n))
        assert peak < 2**22


class TestRowSamplerT:
    def test_width_formula_single_row(self):
        op = build_row_sampler_T(np.ones((1, 500)), 0.3, RandomStream(7))
        assert isinstance(op, CountSketchOperator)
        assert op.sketch_dim == math.ceil(4.0 / 0.3**2)

    def test_identity_when_width_reaches_columns(self):
        op = build_row_sampler_T(np.ones((3, 10)), 0.5, RandomStream(7))
        assert isinstance(op, IdentitySketch)

    def test_simplified_mode_is_identity(self):
        op = build_row_sampler_T(
            np.ones((3, 10_000)), 0.5, RandomStream(7), mode="simplified_experiment"
        )
        assert isinstance(op, IdentitySketch)

    def test_spectral_band(self):
        # singular values of M T within 1 +/- eps for orthonormal-row M
        stream = RandomStream(77)
        eps = 0.3
        hits = 0
        for t in range(100):
            gen = make_gen(1000 + t)
            m = random_orthonormal(gen, 400, 3).T
            op = build_row_sampler_T(m, eps, stream)
            assert isinstance(op, CountSketchOperator)
            sv = singular_values(apply_countsketch_right(m, op))
            hits += sv.min() >= 1 - eps and sv.max() <= 1 + eps
        assert hits >= 95

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            build_row_sampler_T(np.ones((2, 9)), 0.7, RandomStream(1))


class TestSketchPlan:
    def test_p2_formulas(self):
        plan = make_sketch_plan(100, 80, 4, 0.5, 2.0)
        assert plan.eta1 == pytest.approx(0.25 / 4)
        assert plan.eta2 == pytest.approx(0.25)
        assert plan.r_kyfan == 8

    def test_p1_substitution(self):
        plan = make_sketch_plan(100, 80, 4, 0.5, 1.0)
        assert plan.eta1 == pytest.approx((0.25 / 4) ** 2)
        assert plan.eta2 == pytest.approx(0.25 / 4)
        assert plan.r_kyfan == 8

    def test_p_above_two_formulas(self):
        m, n, k, eps, p = 200, 150, 5, 0.5, 4.0
        plan = make_sketch_plan(m, n, k, eps, p)
        assert plan.eta1 == pytest.approx(
            eps ** (1 + 0.5) / (k**0.5 * n**0.5)
        )
        assert plan.eta2 == pytest.approx(eps**2 / n**0.5)

    def test_simplified_marks_identities(self):
        plan = make_sketch_plan(300, 200, 10, 0.5, 1.0, "simplified_experiment")
        assert plan.s_rows == 100
        assert plan.t_cols is None and plan.r_embed is None

    def test_exact_dims_follow_sample_count(self):
        m, n, k, eps = 5000, 400, 3, 0.5
        plan = make_sketch_plan(m, n, k, eps, 1.0)
        assert plan.s_rows == min(sample_count(k, eps, plan.eta1, 8.0), m)
        assert plan.r_embed == math.ceil(4.0 * k / plan.eta2)
        assert plan.t_cols >= plan.s_rows

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

    def test_etas_in_unit_interval(self):
        for p in (1.0, 1.5, 2.0, 3.0, 6.0):
            for k in (1, 5, 20):
                plan = make_sketch_plan(500, 300, k, 0.5, p)
                assert 0 < plan.eta1 <= 1
                assert 0 < plan.eta2 <= 1
