"""Tests for CountSketch operators, leverage samplers and the sketch plan."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from conftest import lowrank_plus_noise, make_gen, plant_head, random_sparse
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
    apply_countsketch_left,
    apply_row_sampler,
    build_countsketch,
    build_row_sampler,
    make_sketch_plan,
    sample_count,
    singular_values,
    sparse_dense_multiply,
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
        ref_left = (left.matrix().T @ a.csr).toarray()
        assert got_left.dtype == ref_left.dtype and got_left.shape == (sketch_dim, n)
        assert got_left.tobytes() == ref_left.tobytes()

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
        sk = build_row_sampler(
            np.eye(30), 2, 0.5, 0.1, RandomStream(2), SketchConstants(c_s=0.05)
        )
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
            sk = build_row_sampler(a.T, k, eps, eta, stream, consts)
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
        sk = build_row_sampler(transposed(a), k, eps, eta, RandomStream(91), consts)
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
        kernel = sketches._exact_scores

        def spy(*args, **kwargs):
            tau = kernel(*args, **kwargs)
            raw.append(tau.copy())
            return tau

        monkeypatch.setattr(sketches, "_exact_scores", spy)
        return raw

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("shape", [(71, 70), (70, 71)])
    def test_exact_scores_give_an_empty_column_zero(self, shape, sparse, monkeypatch):
        # 71x70 runs the A^T A branch, which leaves about 1e-30 on the empty
        # column; 70x71 runs the A A^T branch. The planted head keeps the
        # column norms from certifying the scores, so the exact kernel runs
        gen = make_gen(sum(shape) + sparse)
        dense = plant_head(random_sparse(gen, *shape, density=0.1)).to_dense()
        dense[:, self.EMPTY] = 0.0
        a = SparseMatrix.from_dense(dense) if sparse else dense
        raw = self._spy(monkeypatch)
        k, eps, eta = 3, 0.5, 0.2
        consts = SketchConstants(c_s=0.3, c_lev=1e3)
        sk = build_row_sampler(transposed(a), k, eps, eta, RandomStream(93), consts)
        assert len(raw) == 1 and not sk.clipped
        assert sk.score_kernel == "exact"
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

        monkeypatch.setattr(sketches, "_exact_scores", scores)
        sk = build_row_sampler(transposed(dense), 3, 0.5, 0.2, RandomStream(95), consts)
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
        consts = SketchConstants(c_s=c_s)
        sk = build_row_sampler(a, k, eps, eta, RandomStream(seed), consts)
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

    def test_planted_head_falls_back_to_the_sketch(self):
        a = random_sparse(make_gen(68), 200, 60, density=0.2)
        k, eps, eta = 2, 0.5, 0.25
        consts = SketchConstants(c_s=0.3)
        kernels = []
        for b in (a, plant_head(a)):
            counter = MultiplyAddCounter()
            sk = build_row_sampler(b, k, eps, eta, RandomStream(19), consts, counter)
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
                assert counter.count == (3 + 2 * score_width(k, eps, eta)) * b.nnz
        assert kernels == ["norms", "sketched"]


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

    @pytest.mark.parametrize(
        "a", [np.zeros((5, 4)), SparseMatrix(5, 4, [], [], [])], ids=["dense", "sparse"]
    )
    def test_no_stored_entries_score_zero(self, a):
        tau = sketched_ridge_leverage_scores(a, 1, 1.0, 2, generator_from_seed(8))
        np.testing.assert_array_equal(tau, ridge_leverage_scores(a, 1, 1.0))
        np.testing.assert_array_equal(tau, np.zeros(4))

    def test_rerun_is_bit_identical(self):
        a = random_sparse(make_gen(72), 120, 100, density=0.2)
        first, again = (sketched_scores(a, 2, 0.5, 0.25, 7) for _ in range(2))
        assert first.tobytes() == again.tobytes()
        consts = SketchConstants(c_s=0.5)
        at = a.transpose()
        sks = [build_row_sampler(at, 2, 0.5, 0.25, RandomStream(13), consts) for _ in range(2)]
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
        kernel = sketches._sketched_scores

        def spy(*args, **kwargs):
            calls.append(args[3])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(sketches, "_sketched_scores", spy)
        consts = SketchConstants(c_s=0.3)
        sk = build_row_sampler(transposed(a), k, eps, eta, RandomStream(92), consts)
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
        sketched = build_row_sampler(transposed(a), 2, 0.5, 0.25, streams[0], consts)
        exact = build_row_sampler(
            transposed(a), 2, 0.5, 0.25, streams[1], SketchConstants(c_s=0.5, c_lev=1e3)
        )
        assert not sketched.clipped and not exact.clipped
        assert sketched.seed == exact.seed
        assert streams[0].child_seed() == streams[1].child_seed()


@pytest.fixture
def no_factorization(monkeypatch):
    """Makes every densifying or factorizing helper of the sampler raise."""

    def boom(*_, **__):
        raise AssertionError("the clipped path must not densify or factorize")

    monkeypatch.setattr(sketches, "_exact_scores", boom)
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
        sampled = build_row_sampler(at, 2, 0.5, 0.1, streams[1], SketchConstants(c_s=0.05))
        assert clipped.clipped and not sampled.clipped
        assert clipped.seed == sampled.seed
        assert streams[0].child_seed() == streams[1].child_seed()


def tall_sparse(seed, m, n, nnz):
    gen = make_gen(seed)
    flat = np.sort(gen.choice(m * n, size=nnz, replace=False))
    return SparseMatrix(m, n, flat // n, flat % n, 1.0 - gen.random(nnz))


class TestRowSamplerReadsAInPlace:
    # the default c_s clips, c_s=0.3 samples by sketched scores (w=32 < 40 columns),
    # and c_lev=1e3 passes through to the exact scores
    PATHS = {
        "clipped": SketchConstants(),
        "sketched": SketchConstants(c_s=0.3),
        "exact": SketchConstants(c_s=0.3, c_lev=1e3),
    }

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("empty", [False, True], ids=["nonzero", "zero"])
    def test_no_path_transposes(self, path, empty, monkeypatch):
        a = SparseMatrix(90, 40, [], [], []) if empty else random_sparse(make_gen(64), 90, 40, 0.3)

        def transpose(*_):
            raise AssertionError("the row sampler must read A in place")

        monkeypatch.setattr(SparseMatrix, "transpose", transpose)
        sk = build_row_sampler(a, 2, 0.5, 0.25, RandomStream(15), self.PATHS[path])
        assert sk.clipped == (path == "clipped") and sk.degenerate == empty
        out = apply_row_sampler(a, sk)
        assert out.shape == (sk.sample_count, 40)

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

    def test_peak_memory_is_one_m_by_w_array(self):
        m, n, nnz = 20000, 100, 60000
        k, eps, eta = 2, 0.5, 0.25
        a = plant_head(tall_sparse(66, m, n, nnz))
        width = score_width(k, eps, eta)
        tracemalloc.start()
        try:
            sk = build_row_sampler(a, k, eps, eta, RandomStream(17))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not sk.clipped and width < n
        assert sk.score_kernel == "sketched"
        # Omega, m x w, is the largest array; the O(nnz) part is each stored
        # entry's row index and squared value, freed before Omega is drawn.
        # A transposed copy of A and a second Omega would take 2 m w doubles.
        assert peak <= 1.25 * 8 * m * width + 16 * nnz

    @pytest.mark.parametrize("path", ["sketched", "exact"])
    @pytest.mark.parametrize("shape", [(200, 60), (60, 200)])
    def test_row_scores_bit_identical_to_the_column_kernel_on_the_transpose(
        self, shape, path, monkeypatch
    ):
        # the planted head keeps the row norms from certifying the scores
        a = plant_head(random_sparse(make_gen(sum(shape)), *shape, density=0.2))
        assert max(shape) <= sketches.SCORE_BLOCK
        k, eps, eta = 2, 0.5, 0.25
        kernel = getattr(sketches, "_sketched_scores" if path == "sketched" else "_exact_scores")
        raw = []

        def spy(*args):
            raw.append(kernel(*args))
            return raw[-1]

        monkeypatch.setattr(sketches, kernel.__name__, spy)
        sk = build_row_sampler(a, k, eps, eta, RandomStream(18), self.PATHS[path])
        assert len(raw) == 1 and not sk.clipped
        assert sk.score_kernel == path
        if path == "sketched":
            want = sketched_ridge_leverage_scores(
                a.transpose(), k, eta / eps, score_width(k, eps, eta), generator_from_seed(sk.seed)
            )
        else:
            want = ridge_leverage_scores(a.transpose(), k, eta / eps)
        assert raw[0].tobytes() == want.tobytes()

    def test_score_blocks_agree_with_one_block_to_rounding(self, monkeypatch):
        a = random_sparse(make_gen(67), 150, 90, density=0.2).transpose()
        assert a.ncols <= sketches.SCORE_BLOCK
        one = sketched_scores(a, 2, 0.5, 0.25, 9)
        monkeypatch.setattr(sketches, "SCORE_BLOCK", 16)
        np.testing.assert_allclose(sketched_scores(a, 2, 0.5, 0.25, 9), one, rtol=1e-13)


class TestDenseGuard:
    n = DENSE_GUARD + 1

    def _diagonal(self, ncols):
        return SparseMatrix(self.n, ncols, np.arange(self.n), np.arange(self.n) % ncols, np.ones(self.n))

    @pytest.mark.parametrize("kernel", ["norms", "sketched"])
    def test_small_budget_above_guard_samples_in_sketch_memory(self, kernel, monkeypatch):
        # neither the certified norms nor the sketched scores build a Gram
        # matrix of the input, so a min dimension above the guard is sampled
        # in O((m + n) w) memory; a planted head fails the norm certificate
        a = self._diagonal(self.n)
        if kernel == "sketched":
            a = plant_head(a)
        k, eps, eta = 1, 0.5, 0.1

        def densify(*_):
            raise AssertionError("the row scores must not densify the input")

        monkeypatch.setattr(SparseMatrix, "to_dense", densify)
        tracemalloc.start()
        try:
            sk = build_row_sampler(
                transposed(a), k, eps, eta, RandomStream(11), SketchConstants(c_s=1.0)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not sk.clipped and not sk.degenerate and sk.score_kernel == kernel
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

    # c_s=0.3 draws 5 of the columns at k=1, eps=eta=0.5; c_lev=1 sketches
    # the scores at width 2, c_lev=100 passes through to the exact scores
    CONSTANTS = {
        "sketched": SketchConstants(c_s=0.3, c_lev=1.0),
        "exact": SketchConstants(c_s=0.3, c_lev=100.0),
    }

    @classmethod
    def kernels(cls, a, seed):
        """Each kernel that takes either storage, as a function of ``(a, counter)``."""
        right = make_gen(seed).standard_normal((a.shape[1], 2))

        def sampler(consts):
            return lambda x, c: build_row_sampler(x, 1, 0.5, 0.5, RandomStream(seed), consts, c)

        out = {f"build_row_sampler[{name}]": sampler(c) for name, c in cls.CONSTANTS.items()}
        rows = out["build_row_sampler[exact]"](SparseMatrix.from_dense(a), None)
        op = build_countsketch(a.shape[0], 3, RandomStream(seed))
        return out | {
            "apply_row_sampler": lambda x, c: apply_row_sampler(x, rows, c),
            "apply_countsketch_left": lambda x, c: apply_countsketch_left(x, op, c),
            "ridge_leverage_scores": lambda x, c: ridge_leverage_scores(x, 1, 0.5),
            "sketched_ridge_leverage_scores": lambda x, c: sketched_ridge_leverage_scores(
                x, 1, 0.5, 2, generator_from_seed(seed), c
            ),
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
