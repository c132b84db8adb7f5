"""Tests for CountSketch operators, leverage samplers and the sketch plan."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from conftest import lowrank_plus_noise, make_gen, random_sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import sketchlr.matrixcore as matrixcore
import sketchlr.sketches as sketches
from sketchlr import (
    CountSketchOperator,
    MultiplyAddCounter,
    RandomStream,
    ScaleLimitError,
    SketchConstants,
    SparseMatrix,
    apply_column_sampler,
    apply_countsketch_left,
    apply_countsketch_right,
    apply_row_sampler,
    build_column_sampler,
    build_countsketch,
    build_row_sampler,
    make_sketch_plan,
    sample_count,
    singular_values,
)
from sketchlr.matrixcore import DENSE_GUARD
from sketchlr.rng import generator_from_seed
from sketchlr.sketches import ridge_leverage_scores, sketched_ridge_leverage_scores


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
    def test_eye_input_places_signs(self):
        op = build_countsketch(6, 4, RandomStream(8))
        out = apply_countsketch_right(np.eye(6), op)
        for i in range(6):
            expected = np.zeros(4)
            expected[op.bucket[i]] = op.sign[i]
            np.testing.assert_array_equal(out[i], expected)

    def test_zero_matrix(self):
        op = build_countsketch(5, 3, RandomStream(8))
        out = apply_countsketch_right(np.zeros((4, 5)), op)
        np.testing.assert_array_equal(out, np.zeros((4, 3)))

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
        ref_left = (left.matrix().T @ a.csr).toarray()
        assert got_left.dtype == ref_left.dtype and got_left.shape == (sketch_dim, n)
        assert got_left.tobytes() == ref_left.tobytes()

    def test_dense_operand(self):
        gen = make_gen(43)
        a = gen.standard_normal((9, 12))
        op = build_countsketch(12, 5, RandomStream(13))
        np.testing.assert_allclose(
            apply_countsketch_right(a, op), a @ materialize(op), atol=1e-12
        )
        with pytest.raises(TypeError, match="dense array, not a SparseMatrix"):
            apply_countsketch_right(SparseMatrix.from_dense(a), op)

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
            apply_countsketch_right(np.ones((4, 6)), op)
        with pytest.raises(ValueError, match="mismatch"):
            apply_countsketch_left(np.ones((6, 4)), op)

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

    def test_eye_gets_uniform_weights(self):
        sk = build_column_sampler(np.eye(8), 2, 0.5, 0.1, RandomStream(1))
        assert sk.clipped  # budget covers all columns at these parameters
        np.testing.assert_array_equal(sk.indices, np.arange(8))
        np.testing.assert_array_equal(sk.weights, np.ones(8))

    def test_eye_gets_uniform_weights_subsampled(self):
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
            out.to_dense(), a.to_dense()[sk.indices, :] * sk.weights[:, None], atol=1e-12
        )

    @pytest.mark.parametrize("c_s", [0.02, 8.0])  # sampled and clipped
    def test_row_sampler_output_is_sparse_and_counted(self, c_s):
        a = random_sparse(make_gen(53), 60, 20, density=0.3)
        sk = build_row_sampler(a, 2, 0.5, 0.25, RandomStream(7), SketchConstants(c_s=c_s))
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


class TestEmptyColumnScores:
    EMPTY = 17

    def _spy(self, monkeypatch):
        raw = []
        kernel = sketches.ridge_leverage_scores

        def spy(*args, **kwargs):
            tau = kernel(*args, **kwargs)
            raw.append(tau.copy())
            return tau

        monkeypatch.setattr(sketches, "ridge_leverage_scores", spy)
        return raw

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("shape", [(71, 70), (70, 71)])
    def test_exact_scores_give_an_empty_column_zero(self, shape, sparse, monkeypatch):
        # 71x70 runs the A^T A branch, which leaves about 1e-30 on the empty
        # column; 70x71 runs the A A^T branch
        gen = make_gen(sum(shape) + sparse)
        dense = random_sparse(gen, *shape, density=0.1).to_dense()
        dense[:, self.EMPTY] = 0.0
        a = SparseMatrix.from_dense(dense) if sparse else dense
        raw = self._spy(monkeypatch)
        k, eps, eta = 3, 0.5, 0.2
        consts = SketchConstants(c_s=0.3, c_lev=1e3)
        sk = build_column_sampler(a, k, eps, eta, RandomStream(93), consts)
        assert len(raw) == 1 and not sk.clipped
        assert abs(raw[0][self.EMPTY]) <= 1e-20 * raw[0].max()
        assert self.EMPTY not in sk.indices
        # the other scores feed the draw unchanged, bit for bit
        tau = raw[0].copy()
        tau[self.EMPTY] = 0.0
        prob = tau / tau.sum()
        t = sample_count(k, eps, eta, consts.c_s)
        idx = np.sort(
            generator_from_seed(sk.seed).choice(shape[1], size=t, replace=False, p=prob)
        )
        np.testing.assert_array_equal(sk.indices, idx)
        np.testing.assert_array_equal(sk.weights, 1.0 / np.sqrt(t * prob[idx]))

    def test_rounding_on_an_empty_column_never_enters_a_clipped_sample(self, monkeypatch):
        # scores that are 0 on all but t nonzero columns clip the sample to
        # those t; rounding on the empty column must not add it
        dense = make_gen(94).standard_normal((50, 40))
        dense[:, self.EMPTY] = 0.0
        consts = SketchConstants(c_s=0.3, c_lev=1e3)
        t = sample_count(3, 0.5, 0.2, consts.c_s)
        keep = np.arange(20, 20 + t)
        assert 20 + t <= 40

        def scores(*_):
            tau = np.zeros(40)
            tau[keep] = 1.0
            tau[self.EMPTY] = 7.6e-31
            return tau

        monkeypatch.setattr(sketches, "ridge_leverage_scores", scores)
        sk = build_column_sampler(dense, 3, 0.5, 0.2, RandomStream(95), consts)
        assert sk.clipped
        np.testing.assert_array_equal(sk.indices, keep)


def score_width(k, eps, eta):
    return math.ceil(SketchConstants().c_lev * (k + eps / eta))


def sketched_scores(a, k, eps, eta, seed, counter=None):
    width = score_width(k, eps, eta)
    assert width < min(a.shape)
    return sketched_ridge_leverage_scores(
        a, k, eta / eps, width, generator_from_seed(seed), counter
    )


def scored_input(family, m, n, rank, seed):
    gen = make_gen(seed)
    if family == "noisy":
        return lowrank_plus_noise(gen, m, n, rank)
    if family == "exact":
        return gen.standard_normal((m, rank)) @ gen.standard_normal((rank, n))
    return random_sparse(gen, m, n, density=0.1)


class TestSketchedRidgeLeverage:
    # Worst sketched/exact probability ratios seen over 36,000 inputs drawn
    # as in the property below: 0.87..1.19 on rank-1..40-plus-noise inputs,
    # 0.97..1.05 on sparse inputs and on exact ranks above w, and 1 to
    # rounding on exact ranks up to w. The bound leaves a margin on both.
    RATIO_BOUNDS = (0.75, 4.0 / 3.0)

    @settings(max_examples=40, deadline=None)
    @given(
        orient=st.sampled_from(["tall", "wide", "square"]),
        family=st.sampled_from(["noisy", "exact", "sparse"]),
        small=st.integers(70, 100),
        extra=st.integers(1, 60),
        rank=st.integers(1, 40),
        k=st.integers(1, 3),
        eta=st.floats(0.1, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_probabilities_near_exact(
        self, orient, family, small, extra, rank, k, eta, seed
    ):
        m, n = {
            "tall": (small + extra, small),
            "wide": (small, small + extra),
            "square": (small, small),
        }[orient]
        a = scored_input(family, m, n, rank, seed)
        eps = 0.5
        exact = ridge_leverage_scores(a, k, eta / eps)
        tau = sketched_scores(a, k, eps, eta, seed)
        dense = a.to_dense() if isinstance(a, SparseMatrix) else a
        live = np.any(dense != 0.0, axis=0)
        assert np.all(tau[~live] == 0.0) and np.all(tau[live] > 0.0)
        ratio = (tau[live] / tau.sum()) / (exact[live] / exact[live].sum())
        lo, hi = self.RATIO_BOUNDS
        assert lo <= ratio.min() and ratio.max() <= hi

    def test_rank_at_most_k_has_zero_ridge(self):
        gen = make_gen(70)
        a = gen.standard_normal((90, 2)) @ gen.standard_normal((2, 70))
        k = 3
        taus = [
            sketched_ridge_leverage_scores(a, k, scale, 40, generator_from_seed(5))
            for scale in (0.2, 0.4)
        ]
        # a zero ridge makes the scores independent of the ridge scale
        assert taus[0].tobytes() == taus[1].tobytes()
        assert np.all(np.isfinite(taus[0]))
        np.testing.assert_allclose(taus[0], ridge_leverage_scores(a, k, 0.2), rtol=1e-8)
        assert taus[0].sum() == pytest.approx(2.0)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_zero_columns_score_exactly_zero(self, sparse):
        dense = lowrank_plus_noise(make_gen(71), 80, 90, 6)
        dense[:, [0, 17, 89]] = 0.0
        a = SparseMatrix.from_dense(dense) if sparse else dense
        tau = sketched_scores(a, 2, 0.5, 0.2, 6)
        np.testing.assert_array_equal(tau[[0, 17, 89]], 0.0)
        assert np.delete(tau, [0, 17, 89]).min() > 0.0

    def test_rerun_is_bit_identical(self):
        a = random_sparse(make_gen(72), 120, 100, density=0.2)
        first, again = (sketched_scores(a, 2, 0.5, 0.25, 7) for _ in range(2))
        assert first.tobytes() == again.tobytes()
        consts = SketchConstants(c_s=0.5)
        sks = [build_column_sampler(a, 2, 0.5, 0.25, RandomStream(13), consts) for _ in range(2)]
        assert not sks[0].clipped
        assert sks[0].indices.tobytes() == sks[1].indices.tobytes()
        assert sks[0].weights.tobytes() == sks[1].weights.tobytes()

    def test_counter_is_w_plus_live_rank_times_nnz(self):
        k, eps, eta = 2, 0.5, 0.25
        width = score_width(k, eps, eta)
        full = random_sparse(make_gen(73), 120, 100, density=0.2)
        gen = make_gen(74)
        rank2 = SparseMatrix.from_dense(
            gen.standard_normal((120, 2)) @ gen.standard_normal((2, 100))
        )
        for a, live in ((full, width), (rank2, 2)):
            counter = MultiplyAddCounter()
            sketched_scores(a, k, eps, eta, 8, counter)
            assert counter.count == (width + live) * a.nnz

    @pytest.mark.parametrize("rows", [40, 41])
    def test_width_reaching_min_dim_passes_through(self, rows, monkeypatch):
        # w = 8 (3 + 0.5/0.25) = 40: exact scores on 40 rows, sketched on 41
        k, eps, eta = 3, 0.5, 0.25
        assert score_width(k, eps, eta) == 40
        a, dense = random_input(rows, rows, 70, False)
        calls = []
        kernel = sketches.sketched_ridge_leverage_scores

        def spy(*args, **kwargs):
            calls.append(args[3])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(sketches, "sketched_ridge_leverage_scores", spy)
        consts = SketchConstants(c_s=0.3)
        sk = build_column_sampler(a, k, eps, eta, RandomStream(92), consts)
        assert not sk.clipped
        assert calls == ([] if rows == 40 else [40])
        if rows == 41:
            return
        t = sample_count(k, eps, eta, consts.c_s)
        prob = svd_ridge_leverage(dense, k, eta / eps)
        prob /= prob.sum()
        idx = np.sort(generator_from_seed(sk.seed).choice(70, size=t, replace=False, p=prob))
        np.testing.assert_array_equal(sk.indices, idx)

    def test_caller_stream_advances_as_on_the_exact_path(self):
        a = lowrank_plus_noise(make_gen(75), 120, 100, 6)
        consts = SketchConstants(c_s=0.5)
        streams = RandomStream(14), RandomStream(14)
        sketched = build_column_sampler(a, 2, 0.5, 0.25, streams[0], consts)
        exact = build_column_sampler(
            a, 2, 0.5, 0.25, streams[1], SketchConstants(c_s=0.5, c_lev=1e3)
        )
        assert not sketched.clipped and not exact.clipped
        assert sketched.seed == exact.seed
        assert streams[0].child_seed() == streams[1].child_seed()


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

    def test_small_budget_above_guard_samples_in_sketch_memory(self, monkeypatch):
        # the sketched scores build no Gram matrix of the input, so a min
        # dimension above the guard is sampled in O((m + n) w) memory
        a = self._diagonal(self.n)
        k, eps, eta = 1, 0.5, 0.1

        def densify(*_):
            raise AssertionError("the sketched scores must not densify the input")

        monkeypatch.setattr(SparseMatrix, "to_dense", densify)
        tracemalloc.start()
        try:
            sk = build_column_sampler(a, k, eps, eta, RandomStream(11), SketchConstants(c_s=1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not sk.clipped and not sk.degenerate
        assert sk.sample_count == sample_count(k, eps, eta, 1.0) < self.n
        assert np.all(np.isfinite(sk.weights))
        # about 1.5 (m + n) w doubles measured; a dense n x n array takes 200 MB
        assert peak < 3 * (a.nrows + a.ncols) * score_width(k, eps, eta) * 8

    def test_exact_scores_above_guard_raise_scale_limit_error(self, monkeypatch):
        def densify(*_):
            raise AssertionError("the guard must refuse before densifying")

        monkeypatch.setattr(SparseMatrix, "to_dense", densify)
        with pytest.raises(ScaleLimitError, match="DENSE_GUARD=5000") as info:
            ridge_leverage_scores(self._diagonal(self.n), 1, 1.0)
        assert isinstance(info.value, ValueError)
        assert "sketched scores" in str(info.value)

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


class TestSketchPlan:
    def test_p2_formulas(self):
        plan = make_sketch_plan(100, 80, 4, 0.5, 2.0)
        assert plan.eta1 == pytest.approx(0.25 / 4)
        assert plan.r_kyfan == 8

    def test_p1_substitution(self):
        plan = make_sketch_plan(100, 80, 4, 0.5, 1.0)
        assert plan.eta1 == pytest.approx((0.25 / 4) ** 2)
        assert plan.r_kyfan == 8

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
        assert plan.s_rows == min(sample_count(k, eps, plan.eta1, 8.0), m)

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

    def test_etas_in_unit_interval(self):
        for p in (1.0, 1.5, 2.0, 3.0, 6.0):
            for k in (1, 5, 20):
                plan = make_sketch_plan(500, 300, k, 0.5, p)
                assert 0 < plan.eta1 <= 1
