"""Tests for sparse storage, the SVD primitive and its derived operations."""

import numpy as np
import pytest
from conftest import make_gen, random_orthonormal, random_rank_k, random_sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import sketchlr.matrixcore as matrixcore
from sketchlr import (
    MultiplyAddCounter,
    SparseMatrix,
    complete_basis,
    dense_sparse_multiply,
    orthonormal_rowspace,
    schatten_norm,
    singular_values,
    sparse_dense_multiply,
    svd,
    truncate_rank,
)
from sketchlr.matrixcore import SVD_TOL, top_singular

GOLDEN = np.array([[20.0, 20.0], [1.0, 2.0]])


def jacobi_singular_values(a, sweeps=60, tol=1e-13):
    """Independent one-sided Jacobi oracle for small matrices."""
    a = np.array(a, dtype=np.float64)
    if a.shape[0] < a.shape[1]:
        a = a.T
    w = a.copy()
    n = w.shape[1]
    for _ in range(sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                alpha = w[:, p] @ w[:, p]
                beta = w[:, q] @ w[:, q]
                gamma = w[:, p] @ w[:, q]
                if abs(gamma) <= tol * np.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = (1.0 if zeta >= 0 else -1.0) / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                wp = w[:, p].copy()
                w[:, p] = c * wp - s * w[:, q]
                w[:, q] = s * wp + c * w[:, q]
        if not rotated:
            break
    return np.sort(np.linalg.norm(w, axis=0))[::-1]


class TestSparseMatrix:
    def test_round_trip_and_counts(self):
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, -3.0]])
        mat = SparseMatrix.from_dense(dense)
        assert mat.shape == (2, 3)
        assert mat.nnz == 3
        np.testing.assert_array_equal(mat.to_dense(), dense)
        rows, cols, vals = mat.triplets()
        np.testing.assert_array_equal(rows, [0, 0, 1])
        np.testing.assert_array_equal(cols, [0, 2, 2])
        np.testing.assert_array_equal(vals, [1.0, 2.0, -3.0])

    def test_transpose(self):
        gen = make_gen()
        mat = random_sparse(gen, 7, 4)
        np.testing.assert_array_equal(mat.transpose().to_dense(), mat.to_dense().T)

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError, match="out of bounds"):
            SparseMatrix(2, 2, [0, 2], [0, 0], [1.0, 1.0])
        with pytest.raises(ValueError, match="out of bounds"):
            SparseMatrix(2, 2, [0], [-1], [1.0])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseMatrix(3, 3, [1, 1], [2, 2], [1.0, 2.0])

    def test_rejects_explicit_zero_and_nonfinite(self):
        with pytest.raises(ValueError, match="zero"):
            SparseMatrix(2, 2, [0], [0], [0.0])
        with pytest.raises(ValueError, match="finite"):
            SparseMatrix(2, 2, [0], [0], [np.nan])

    def test_empty_matrix_allowed(self):
        mat = SparseMatrix(3, 4, [], [], [])
        assert mat.nnz == 0
        np.testing.assert_array_equal(mat.to_dense(), np.zeros((3, 4)))


class TestSvd:
    def test_diagonal_sorted(self):
        res = svd(np.diag([3.0, 4.0]))
        np.testing.assert_allclose(res.sigma, [4.0, 3.0], atol=1e-12)

    def test_golden_pair(self):
        # the two published digitised values are truncated, hence atol=1e-4
        res = svd(GOLDEN)
        np.testing.assert_allclose(res.sigma, [28.3637, 0.7051], atol=1e-4)

    def test_reconstruction_identity(self):
        gen = make_gen()
        a = gen.standard_normal((8, 5))
        res = svd(a)
        recon = (res.u * res.sigma) @ res.v.T
        assert np.linalg.norm(recon - a) <= 1e-10 * np.linalg.norm(a)

    def test_orthonormal_factors(self):
        gen = make_gen(3)
        a = gen.standard_normal((9, 6))
        res = svd(a)
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(6), atol=1e-9)
        np.testing.assert_allclose(res.v.T @ res.v, np.eye(6), atol=1e-9)
        assert np.all(np.diff(res.sigma) <= 1e-12)
        assert np.all(res.sigma >= 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            svd(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            svd(np.zeros((0, 3)))

    def test_matches_jacobi_oracle(self):
        gen = make_gen(11)
        for shape in [(8, 5), (6, 6), (5, 9)]:
            a = gen.standard_normal(shape)
            np.testing.assert_allclose(
                singular_values(a), jacobi_singular_values(a), rtol=1e-9, atol=1e-9
            )
        np.testing.assert_allclose(
            singular_values(GOLDEN), jacobi_singular_values(GOLDEN), rtol=1e-10
        )

    def test_unitary_invariance(self):
        gen = make_gen(5)
        a = gen.standard_normal((7, 6))
        q1 = random_orthonormal(gen, 7, 7)
        q2 = random_orthonormal(gen, 6, 6)
        np.testing.assert_allclose(
            singular_values(q1 @ a @ q2), singular_values(a), atol=1e-10
        )


def assert_verified(a, res, k):
    """The factor checks ``top_singular`` promises, at ``SVD_TOL``."""
    assert res.u.shape == (a.shape[0], k) and res.v.shape == (a.shape[1], k)
    assert res.sigma.shape == (k,) and np.all(np.diff(res.sigma) <= 0)
    for block in (res.u, res.v):
        assert np.max(np.abs(block.T @ block - np.eye(k))) <= SVD_TOL
    scale = max(np.linalg.norm(a), 1.0)
    assert np.linalg.norm(a.T @ res.u - res.v * res.sigma) <= SVD_TOL * scale
    assert np.linalg.norm(a @ res.v - res.u * res.sigma) <= SVD_TOL * scale


def assert_matches_svd(a, res, k, gap_rtol=1e-3):
    """sigma equals svd's top k; where sigma_k is separated, so are the subspaces."""
    full = svd(a)
    s1 = max(full.sigma[0], 1e-300)
    np.testing.assert_allclose(res.sigma, full.sigma[:k], rtol=0, atol=1e-9 * s1)
    if k == full.sigma.size or full.sigma[k - 1] - full.sigma[k] > gap_rtol * s1:
        for mine, ref in ((res.u, full.u[:, :k]), (res.v, full.v[:, :k])):
            np.testing.assert_allclose(mine @ mine.T, ref @ ref.T, atol=1e-8)


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts calls of the full ``svd`` that ``top_singular`` falls back to."""
    calls = []
    full = matrixcore.svd

    def spy(a):
        calls.append(np.shape(a))
        return full(a)

    monkeypatch.setattr(matrixcore, "svd", spy)
    return calls


class TestTopSingular:
    @pytest.mark.parametrize("shape", [(60, 40), (40, 60), (50, 50)])
    @pytest.mark.parametrize("k", [1, 5, 39])
    def test_matches_svd_on_random_shapes(self, shape, k, svd_calls):
        a = make_gen(sum(shape) + k).standard_normal(shape)
        res = top_singular(a, k)
        assert svd_calls == []  # a generic input needs no fallback
        assert_verified(a, res, k)
        assert_matches_svd(a, res, k)

    def test_k_equal_to_min_dimension(self, svd_calls):
        a = make_gen(21).standard_normal((12, 7))
        res = top_singular(a, 7)
        assert svd_calls == []
        assert_verified(a, res, 7)
        assert_matches_svd(a, res, 7)

    def test_sparse_like_input(self):
        a = random_sparse(make_gen(22), 80, 30, density=0.1).to_dense()
        res = top_singular(a, 4)
        assert_verified(a, res, 4)
        assert_matches_svd(a, res, 4)

    def test_rank_deficient_falls_back(self, svd_calls):
        a = random_rank_k(make_gen(23), 30, 20, 3)
        res = top_singular(a, 4)  # sigma_4 = 0
        assert svd_calls == [(30, 20)]
        assert_verified(a, res, 4)
        assert res.sigma[3] <= 1e-12 * res.sigma[0]
        assert_matches_svd(a, res, 4, gap_rtol=np.inf)

    def test_repeated_singular_values_fall_back(self, svd_calls):
        gen = make_gen(24)
        sigma = np.array([5.0, 3.0, 3.0, 3.0, 1.0, 0.5])
        a = (random_orthonormal(gen, 9, 6) * sigma) @ random_orthonormal(gen, 6, 6).T
        res = top_singular(a, 2)  # sigma_2 ties with sigma_3
        assert svd_calls == [(9, 6)]
        assert_verified(a, res, 2)
        np.testing.assert_allclose(res.sigma, [5.0, 3.0], rtol=1e-12)

    def test_zero_matrix_falls_back(self, svd_calls):
        a = np.zeros((6, 4))
        res = top_singular(a, 2)
        assert svd_calls == [(6, 4)]
        assert_verified(a, res, 2)
        np.testing.assert_array_equal(res.sigma, [0.0, 0.0])

    def test_k_out_of_range(self):
        a = np.ones((5, 3))
        for k in (0, 4, -1):
            with pytest.raises(ValueError, match="out of range"):
                top_singular(a, k)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            top_singular(np.array([[1.0, np.nan], [0.0, 1.0]]), 1)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 40),
        n=st.integers(1, 40),
        k_frac=st.floats(0.0, 1.0),
        decay=st.floats(0.0, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_verified_and_matches_svd(self, m, n, k_frac, decay, seed):
        # spectra from flat to eight decades of decay, so that some draws
        # take the Gram path and the ill-conditioned ones fall back
        gen = make_gen(seed)
        d = min(m, n)
        k = 1 + int(k_frac * (d - 1))
        sigma = 10.0 ** (-decay * gen.random(d))
        a = (random_orthonormal(gen, m, d) * np.sort(sigma)[::-1]) @ random_orthonormal(gen, n, d).T
        res = top_singular(a, k)
        assert_verified(a, res, k)
        assert_matches_svd(a, res, k)


class TestTruncateRank:
    def test_top_direction(self):
        res = svd(np.diag([5.0, 3.0, 1.0]))
        f = truncate_rank(res, 1)
        np.testing.assert_allclose(f.y @ f.z.T, np.diag([5.0, 0.0, 0.0]), atol=1e-12)

    def test_full_rank_reproduces(self):
        a = np.diag([5.0, 3.0, 1.0])
        f = truncate_rank(svd(a), 3)
        np.testing.assert_allclose(f.y @ f.z.T, a, atol=1e-12)

    def test_golden_residual(self):
        f = truncate_rank(svd(GOLDEN), 1)
        resid_sigma = singular_values(GOLDEN - f.y @ f.z.T)
        np.testing.assert_allclose(resid_sigma[0], 0.7051, atol=1e-4)
        assert resid_sigma[1] < 1e-12

    def test_k_out_of_range(self):
        res = svd(np.diag([5.0, 3.0]))
        with pytest.raises(ValueError):
            truncate_rank(res, 0)
        with pytest.raises(ValueError):
            truncate_rank(res, 3)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    def test_mirsky_beats_random_candidates(self, p):
        gen = make_gen(int(p * 100))
        for _ in range(3):
            m, n, k = 12, 10, int(gen.integers(1, 5))
            a = gen.standard_normal((m, n))
            opt = schatten_norm(singular_values(a - _best(a, k)), p)
            for _ in range(200):
                q = random_orthonormal(gen, n, k)
                cand = schatten_norm(singular_values(a - (a @ q) @ q.T), p)
                assert opt <= cand + 1e-9 * max(1.0, cand)


def _best(a, k):
    f = truncate_rank(svd(a), k)
    return f.y @ f.z.T


class TestGoldenCounterexample:
    """Published spectra of the 2x2 matrix whose rank-1 projection behaves
    well for A but badly for A^T A; a fixed reference vector for the SVD."""

    def test_all_published_values(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        q = np.outer(v, v)
        eye = np.eye(2)
        np.testing.assert_allclose(
            singular_values(GOLDEN), [28.3637, 0.7051], atol=1e-4
        )
        np.testing.assert_allclose(
            singular_values(GOLDEN @ (eye - q)), [0.7071, 0.0], atol=1e-4
        )
        gram = GOLDEN.T @ GOLDEN
        np.testing.assert_allclose(
            singular_values(gram - q @ gram @ q), [1.7707, 1.2707], atol=1e-4
        )
        eigs = np.sort(np.linalg.eigvalsh(gram - (eye - q) @ gram @ (eye - q)))[::-1]
        np.testing.assert_allclose(eigs, [804.503, -0.0028], atol=1e-3)


class TestOrthonormalRowspace:
    def test_single_direction(self):
        z = orthonormal_rowspace(np.array([[2.0, 0.0], [0.0, 0.0]]))
        assert z.shape == (2, 1)
        np.testing.assert_allclose(np.abs(z[:, 0]), [1.0, 0.0], atol=1e-12)

    def test_idempotent_on_orthonormal_rows(self):
        gen = make_gen(7)
        q = random_orthonormal(gen, 6, 3).T  # 3x6 with orthonormal rows
        z = orthonormal_rowspace(q)
        assert z.shape == (6, 3)
        np.testing.assert_allclose(z.T @ z, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(q @ z @ z.T, q, atol=1e-10)

    def test_projection_residual(self):
        gen = make_gen(9)
        m = random_rank_k(gen, 4, 10, 4)
        z = orthonormal_rowspace(m)
        assert z.shape[1] == 4
        assert np.linalg.norm(m - m @ z @ z.T) <= 1e-10 * np.linalg.norm(m)

    def test_zero_matrix(self):
        z = orthonormal_rowspace(np.zeros((3, 5)))
        assert z.shape == (5, 0)

    def test_complete_basis(self):
        gen = make_gen(13)
        z = random_orthonormal(gen, 8, 2)
        full = complete_basis(z, 5)
        assert full.shape == (8, 5)
        np.testing.assert_allclose(full.T @ full, np.eye(5), atol=1e-10)
        np.testing.assert_allclose(full[:, :2], z)


class TestProducts:
    def test_identity_times_dense(self):
        gen = make_gen(2)
        b = gen.standard_normal((4, 3))
        eye = SparseMatrix.from_dense(np.eye(4))
        np.testing.assert_array_equal(sparse_dense_multiply(eye, b), b)

    def test_zero_times_dense(self):
        zero = SparseMatrix(3, 4, [], [], [])
        out = sparse_dense_multiply(zero, np.ones((4, 2)))
        np.testing.assert_array_equal(out, np.zeros((3, 2)))

    def test_matches_dense_oracle(self):
        gen = make_gen(21)
        a = random_sparse(gen, 6, 6, density=0.5)
        b = gen.standard_normal((6, 3))
        np.testing.assert_allclose(
            sparse_dense_multiply(a, b), a.to_dense() @ b, atol=1e-12
        )
        c = gen.standard_normal((5, 6))
        np.testing.assert_allclose(
            dense_sparse_multiply(c, a), c @ a.to_dense(), atol=1e-12
        )

    def test_counter_is_exact(self):
        gen = make_gen(22)
        a = random_sparse(gen, 10, 8, density=0.3)
        b = gen.standard_normal((8, 5))
        counter = MultiplyAddCounter()
        sparse_dense_multiply(a, b, counter)
        assert counter.count == a.nnz * 5
        counter2 = MultiplyAddCounter()
        dense_sparse_multiply(gen.standard_normal((7, 10)), a, counter2)
        assert counter2.count == a.nnz * 7

    def test_dimension_mismatch(self):
        a = SparseMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError, match="dimensions"):
            sparse_dense_multiply(a, np.ones((4, 2)))
        with pytest.raises(ValueError, match="dimensions"):
            dense_sparse_multiply(np.ones((2, 4)), a)
