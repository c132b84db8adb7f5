"""Tests for sparse storage, the SVD primitive and its derived operations."""

import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from conftest import (
    best_rank_k,
    make_gen,
    random_orthonormal,
    random_sparse,
    singular_values,
    whole_sketch,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import sketchlr.matrixcore as matrixcore
from sketchlr import (
    LowRankFactors,
    MultiplyAddCounter,
    RandomStream,
    SparseMatrix,
    build_countsketch,
    complete_basis,
    schatten_norm,
    sparse_dense_multiply,
    svd,
)
from sketchlr.matrixcore import SVD_TOL, ScaleLimitError, block_krylov, top_singular
from sketchlr.sketches import apply_countsketch_left

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
    def test_nbytes_counts_the_stored_arrays(self):
        mat = SparseMatrix.from_dense(np.array([[1.0, 0.0, 2.0], [0.0, 0.0, -3.0]]))
        # three float64 values, three column indices, three row pointers
        c = mat.csr
        assert mat.nbytes == 3 * 8 + 3 * c.indices.itemsize + 3 * c.indptr.itemsize

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

    def test_rejects_non_integral_indices_by_name(self):
        # an int64 cast would build the entries (0, 0) and (1, 2)
        with pytest.raises(ValueError, match=r"row index 0\.7 is not an integer"):
            SparseMatrix(3, 3, [0.7, 1.2], [0, 2.9], [1.0, 2.0])
        with pytest.raises(ValueError, match=r"column index 2\.9 is not an integer"):
            SparseMatrix(3, 3, [0.0, 1.0], [0, 2.9], [1.0, 2.0])
        with pytest.raises(ValueError, match="row index nan is not an integer"):
            SparseMatrix(3, 3, [np.nan], [0], [1.0])
        # whole floats are indices; inf and values past int64 stay out of bounds
        mat = SparseMatrix(3, 3, [0.0, 1.0], np.array([0.0, 2.0]), [1.0, 2.0])
        np.testing.assert_array_equal(mat.to_dense(), [[1, 0, 0], [0, 0, 2], [0, 0, 0]])
        for bad in (np.inf, -np.inf, 1e30):
            with pytest.raises(ValueError, match="row index out of bounds"):
                SparseMatrix(3, 3, [bad], [0], [1.0])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseMatrix(3, 3, [1, 1], [2, 2], [1.0, 2.0])

    def test_unordered_input_reports_the_smallest_duplicate(self):
        with pytest.raises(ValueError, match=r"duplicate coordinate \(1, 0\)"):
            SparseMatrix(5, 5, [3, 1, 0, 3, 1], [2, 0, 4, 2, 0], [1.0, 2.0, 3.0, 4.0, 5.0])

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 30),
        n=st.integers(1, 30),
        fill=st.floats(0.0, 0.5),
        planted=st.integers(1, 4),
    )
    def test_property_shuffled_repeats_name_the_smallest(self, seed, m, n, fill, planted):
        # distinct coordinates, some of them repeated once or more, in any
        # order; a value depends only on its coordinate, up to its sign, so a
        # repeat may cancel the first
        gen = make_gen(seed)
        distinct = gen.choice(m * n, size=max(1, int(fill * m * n)), replace=False)
        repeated = gen.choice(distinct, size=min(planted, distinct.size), replace=False)
        lin = np.concatenate([distinct, repeated, gen.choice(repeated, size=planted)])
        values = 1.0 + lin % 3
        values[distinct.size :] *= gen.choice([-1.0, 1.0], size=lin.size - distinct.size)
        perm = gen.permutation(lin.size)
        smallest = int(repeated.min())
        refusal = rf"^duplicate coordinate \({smallest // n}, {smallest % n}\)$"
        with pytest.raises(ValueError, match=refusal):
            SparseMatrix(m, n, lin[perm] // n, lin[perm] % n, values[perm])

    def test_ordered_and_shuffled_input_build_the_same_storage(self):
        a = random_sparse(make_gen(7), 30, 20)
        rows, cols, vals = a.triplets()
        perm = make_gen(8).permutation(a.nnz)
        b = SparseMatrix(30, 20, rows[perm], cols[perm], vals[perm])
        for x, y in ((a.csr.data, b.csr.data), (a.csr.indices, b.csr.indices), (a.csr.indptr, b.csr.indptr)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    def test_rejects_explicit_zero_and_nonfinite(self):
        with pytest.raises(ValueError, match="zero"):
            SparseMatrix(2, 2, [0], [0], [0.0])
        with pytest.raises(ValueError, match="finite"):
            SparseMatrix(2, 2, [0], [0], [np.nan])

    def test_empty_matrix_allowed(self):
        mat = SparseMatrix(3, 4, [], [], [])
        assert mat.nnz == 0
        np.testing.assert_array_equal(mat.to_dense(), np.zeros((3, 4)))

    @pytest.mark.parametrize("shape", [(10**20, 3), (3, 2**63 - 1)])
    def test_shape_past_int64_is_refused_by_shape(self, shape):
        with pytest.raises(ScaleLimitError, match=rf"shape {shape[0]}x{shape[1]} exceeds the int64"):
            SparseMatrix(*shape, [0], [0], [1.0])

    def test_storage_that_cannot_be_allocated_is_refused_by_shape(self, monkeypatch):
        # a stand-in for scipy's row pointers of a 10^13-row shape (72.8 TiB)
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB")

        wide = SparseMatrix(3, 10**13, [0], [10**13 - 1], [1.0])  # four row pointers
        monkeypatch.setattr(matrixcore.sp, "csr_array", out_of_memory)
        with pytest.raises(ScaleLimitError, match="a 10000000000000x3 matrix cannot be stored: Unable"):
            SparseMatrix(10**13, 3, [0], [0], [1.0])
        monkeypatch.setattr(matrixcore.sp.csc_array, "tocsr", out_of_memory)
        with pytest.raises(ScaleLimitError, match="a 10000000000000x3 matrix cannot be stored"):
            wide.transpose()


@st.composite
def _coordinate_lists(draw):
    """A shape and distinct (row, col, value) triplets in drawn order."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cells = draw(st.lists(st.integers(0, m * n - 1), unique=True, max_size=m * n))
    values = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False).filter(bool),
            min_size=len(cells),
            max_size=len(cells),
        )
    )
    rows, cols = np.divmod(np.array(cells, dtype=np.int64), n)
    return m, n, rows, cols, np.array(values, dtype=np.float64)


def _assert_same_storage(a, b):
    assert a.shape == b.shape
    assert a.csr.data.tobytes() == b.csr.data.tobytes()
    np.testing.assert_array_equal(a.csr.indices, b.csr.indices)
    np.testing.assert_array_equal(a.csr.indptr, b.csr.indptr)


class TestSparseMatrixProperties:
    @settings(max_examples=150, deadline=None)
    @given(case=_coordinate_lists(), order=st.sampled_from(["drawn", "row_major"]))
    def test_property_canonical_storage_and_round_trips(self, case, order):
        m, n, rows, cols, values = case
        if order == "row_major":
            perm = np.lexsort((cols, rows))
            rows, cols, values = rows[perm], cols[perm], values[perm]
        dense = np.zeros((m, n))
        dense[rows, cols] = values
        mat = SparseMatrix(m, n, rows, cols, values)
        for x, ref in ((mat, dense), (mat.transpose(), dense.T)):
            c = x.csr
            # column indices strictly increase within each row: sorted, no duplicates
            for i in range(x.nrows):
                assert np.all(np.diff(c.indices[c.indptr[i] : c.indptr[i + 1]]) > 0)
            assert np.all(c.data != 0.0)
            r, k, v = x.triplets()
            assert x.nnz == c.data.size == r.size == np.count_nonzero(ref) == values.size
            assert np.all(np.diff(r * x.ncols + k) > 0)  # row-major, distinct
            assert v.tobytes() == ref[r, k].tobytes()
            assert x.to_dense().tobytes() == ref.tobytes()
            _assert_same_storage(SparseMatrix.from_dense(ref), x)
            _assert_same_storage(SparseMatrix(*x.shape, r, k, v), x)
            shuffled = np.random.default_rng(x.nnz).permutation(x.nnz)
            _assert_same_storage(SparseMatrix(*x.shape, r[shuffled], k[shuffled], v[shuffled]), x)


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


def assert_ritz_pairs(a, sigma, v, k):
    """The pair ``top_singular`` returns: k non-increasing values, an orthonormal
    ``n x k`` block, and ``A^T A v = v sigma^2`` at ``SVD_TOL`` of ``||A||^2``."""
    assert sigma.shape == (k,) and v.shape == (a.shape[1], k)
    assert np.all(np.diff(sigma) <= 0)
    assert np.max(np.abs(v.T @ v - np.eye(k))) <= SVD_TOL
    scale = max(np.linalg.norm(a), 1.0) ** 2
    assert np.linalg.norm(a.T @ (a @ v) - v * sigma**2) <= SVD_TOL * scale


def assert_matches_svd(a, sigma, v, k, gap_rtol=1e-3):
    """sigma equals svd's top k; where sigma_k is separated, so is the right subspace."""
    full = svd(a)
    s1 = max(full.sigma[0], 1e-300)
    np.testing.assert_allclose(sigma, full.sigma[:k], rtol=0, atol=1e-9 * s1)
    if k == full.sigma.size or full.sigma[k - 1] - full.sigma[k] > gap_rtol * s1:
        ref = full.v[:, :k]
        np.testing.assert_allclose(v @ v.T, ref @ ref.T, atol=1e-8)


def top_k(a, k):
    """:func:`top_singular` of a dense A, read as one whole chunk."""
    chunks, right, _ = whole_sketch(a)
    return top_singular(chunks, k, right)


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts calls of every SVD routine; ``top_singular`` takes none."""
    calls = []
    for owner, name in ((matrixcore, "svd"), (np.linalg, "svd"), (scipy.linalg, "svd")):

        def spy(a, *args, _real=getattr(owner, name), **kwargs):
            calls.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    return calls


class TestTopSingular:
    @pytest.mark.parametrize("shape", [(60, 40), (40, 60), (50, 50)])
    @pytest.mark.parametrize("k", [1, 5, 39])
    def test_matches_svd_on_random_shapes(self, shape, k, svd_calls):
        a = make_gen(sum(shape) + k).standard_normal(shape)
        sigma, v = top_k(a, k)
        assert svd_calls == []
        assert_ritz_pairs(a, sigma, v, k)
        assert_matches_svd(a, sigma, v, k)

    def test_k_equal_to_min_dimension(self, svd_calls):
        a = make_gen(21).standard_normal((12, 7))
        sigma, v = top_k(a, 7)
        assert svd_calls == []
        assert_ritz_pairs(a, sigma, v, 7)
        assert_matches_svd(a, sigma, v, 7)

    def test_sparse_like_input(self):
        a = random_sparse(make_gen(22), 80, 30, density=0.1).to_dense()
        sigma, v = top_k(a, 4)
        assert_ritz_pairs(a, sigma, v, 4)
        assert_matches_svd(a, sigma, v, 4)

    def test_k_out_of_range(self):
        a = np.ones((5, 3))
        for k in (0, 4, -1):
            with pytest.raises(ValueError, match="out of range"):
                top_k(a, k)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="is not a double"):
            top_k(np.array([[1.0, np.nan], [0.0, 1.0]]), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(6, 15), (15, 6)])
    def test_rejects_nonfinite_on_either_side(self, bad, shape):
        # finiteness is read from the Gram matrix's trace alone
        a = make_gen(25).standard_normal(shape)
        a[4, 5] = bad
        with pytest.raises(ValueError, match="is not a double"):
            top_k(a, 2)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("shape", [(6, 15), (15, 6)])
    def test_rejects_finite_entries_that_overflow_the_gram(self, shape):
        a = 1e200 * make_gen(26).random(shape)
        with pytest.raises(ValueError, match="overflow"):
            top_k(a, 2)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("wide", [True, False])
    def test_frobenius_overflow_boundary(self, wide):
        # every entry of G is finite here; only their sum ||A||_F^2 may not be
        def pair(sq0, sq1):
            a = np.zeros((2, 4))
            a[0, 0], a[1, 1] = math.sqrt(sq0), math.sqrt(sq1)
            return a if wide else a.T.copy()

        sigma, _ = top_k(pair(0.8e308, 0.5e308), 1)  # ||A||_F^2 = 1.3e308
        assert sigma[0] == pytest.approx(math.sqrt(0.8e308), rel=1e-12)
        with pytest.raises(ValueError, match="Frobenius norm overflows"):
            top_k(pair(1e308, 1e308), 1)  # ||A||_F^2 = 2e308

    @pytest.mark.parametrize("wide", [True, False])
    def test_dense_input_is_never_scanned_for_finiteness(self, wide, monkeypatch, svd_calls):
        # the 100x20000 CountSketch SA of a 20000x20000 input with 200k entries
        gen = make_gen(27)
        flat = np.unique(gen.integers(0, 20000 * 20000, 200_000))
        a = SparseMatrix(20000, 20000, flat // 20000, flat % 20000, 1.0 - gen.random(flat.size))
        sa = apply_countsketch_left(a, build_countsketch(20000, 100, RandomStream(7)))
        sa = sa if wide else np.ascontiguousarray(sa.T)
        sizes = []

        def spy(scan):
            def counted(x, *args, **kwargs):
                sizes.append(np.size(x))
                return scan(x, *args, **kwargs)

            return counted

        # np.asarray_chkfinite is the scan scipy's check_finite runs
        for name in ("isfinite", "asarray_chkfinite"):
            monkeypatch.setattr(np, name, spy(getattr(np, name)))
        sigma, v = top_k(sa, 10)
        assert svd_calls == []
        assert sizes == []
        # a NaN spoils G's trace, which refuses it with no scan of A
        bad = sa.copy()
        bad[3, 5] = np.nan
        with pytest.raises(ValueError, match="is not a double"):
            top_k(bad, 10)
        assert sizes == []
        monkeypatch.undo()
        assert_ritz_pairs(sa, sigma, v, 10)

    @pytest.mark.parametrize("shape", [(400, 600), (600, 400)])
    def test_gram_is_factored_in_place(self, shape, svd_calls):
        # eigh overwrites G, so the working set stays below one and a half
        # d x d arrays, and the pair is that of a partial eigh of a copy of G
        a = make_gen(29).standard_normal(shape)
        d, k = 400, 20
        top_k(a, k)  # the first call's one-time allocations are not the kernel's
        tracemalloc.start()
        try:
            sigma, v = top_k(a, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * d * d
        assert svd_calls == []
        wide = shape[0] < shape[1]
        gram = a @ a.T if wide else a.T @ a
        lam, vecs = scipy.linalg.eigh(gram.copy(), subset_by_index=[d - k, d - 1])
        side = vecs[:, ::-1]
        want = np.sqrt(lam[::-1])
        assert np.array_equal(sigma, want)
        assert np.array_equal(v, (side.T @ a).T / want if wide else side)


def _spectrum_input(gen, m, n, sigma):
    d = min(m, n)
    return (random_orthonormal(gen, m, d) * sigma) @ random_orthonormal(gen, n, d).T


def _krylov_input(gen, m, n, rank, log_ratio, sparse):
    """An m x n input of the given rank with a top-k spread of ``10^log_ratio``."""
    d = min(m, n)
    sigma = np.zeros(d)
    sigma[:rank] = np.geomspace(1.0, 10.0**-log_ratio, rank)
    dense = _spectrum_input(gen, m, n, sigma)
    return SparseMatrix.from_dense(dense) if sparse else dense


def _qr_input(name):
    gen = make_gen(43)
    if name == "all_zero":
        return np.zeros((900, 5))
    shapes = {"617x5": (617, 5), "900x40": (900, 40), "2000x64": (2000, 64)}
    w = gen.standard_normal(shapes.get(name, (900, 5)))
    if name == "zero_column":
        w[:, 2] = 0.0
    elif name == "repeated_column":
        w[:, 3] = w[:, 1]
    return w


class TestOrthonormal:
    # 900x40 and 2000x64 are wider than LAPACK's block size of 32
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "name",
        ["900x5", "617x5", "900x40", "2000x64", "zero_column", "repeated_column", "all_zero"],
    )
    def test_q_is_scipy_economic_qr_byte_for_byte(self, name, order):
        w = np.asarray(_qr_input(name), order=order)
        before = w.copy()
        q = matrixcore._orthonormal(w)
        want = scipy.linalg.qr(w, mode="economic", check_finite=False)[0]
        assert q.shape == want.shape == w.shape
        assert q.tobytes() == want.tobytes()
        assert w.tobytes() == before.tobytes()  # the input is not overwritten
        assert np.max(np.abs(q.T @ q - np.eye(w.shape[1]))) <= 1e-13


class TestBlockKrylov:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 40),
        n=st.integers(2, 40),
        k=st.integers(1, 4),
        depth=st.integers(0, 8),
        rank_frac=st.floats(0.0, 1.0),
        log_ratio=st.floats(0.0, 1.0),
        sparse=st.booleans(),
    )
    def test_property_ritz_values_never_exceed_singular_values(
        self, seed, m, n, k, depth, rank_frac, log_ratio, sparse
    ):
        # ranks from 1 to min(m, n) include spaces that are used up after a
        # few blocks, whose later blocks are rounding noise. H is formed from
        # the Gram matrix, so its rounding is relative to sigma_1^2: a
        # relative bound at 1e-12 holds where sigma_k / sigma_1 >= 0.1.
        d = min(m, n)
        k = min(k, d)
        depth = min(depth, d // k - 1)
        rank = 1 + int(rank_frac * (d - 1))
        a = _krylov_input(make_gen(seed), m, n, rank, log_ratio, sparse)
        sigma, v = block_krylov(a, k, depth)
        exact = np.linalg.svd(a.to_dense() if sparse else a, compute_uv=False)[:k]
        assert sigma.shape == (k,) and v.shape == (n, k)
        assert np.all(np.diff(sigma) <= 0)
        head = min(k, rank)
        assert np.all(sigma[:head] <= exact[:head] * (1.0 + 1e-12))
        # past the rank the Ritz values are square roots of rounding
        assert np.all(sigma[head:] <= 1e-7 * exact[0])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 40),
        n=st.integers(2, 40),
        k=st.integers(1, 4),
        sparse=st.booleans(),
    )
    def test_property_reruns_are_bit_identical(self, seed, m, n, k, sparse):
        a = random_sparse(make_gen(seed), m, n, density=0.3)
        a = a if sparse else a.to_dense()
        k = min(k, min(m, n))
        depth = min(m, n) // k - 1
        (s1, v1), (s2, v2) = block_krylov(a, k, depth), block_krylov(a, k, depth)
        assert s1.tobytes() == s2.tobytes() and v1.tobytes() == v2.tobytes()

    @pytest.mark.parametrize("shape", [(70, 45), (45, 70)])
    def test_both_storage_forms_run_one_algorithm(self, shape):
        a = random_sparse(make_gen(40), *shape, density=0.2)
        (s_sp, v_sp), (s_de, v_de) = (block_krylov(x, 4, 5) for x in (a, a.to_dense()))
        np.testing.assert_allclose(s_sp, s_de, rtol=1e-12)
        np.testing.assert_allclose(v_sp @ v_sp.T, v_de @ v_de.T, atol=1e-10)

    @pytest.mark.parametrize("shape", [(70, 45), (45, 70)])
    def test_counts_every_product_with_a(self, shape):
        a = random_sparse(make_gen(41), *shape, density=0.2)
        counter = MultiplyAddCounter()
        block_krylov(a, 4, 5, counter)
        wide = shape[0] < shape[1]
        # six products with the Gram matrix, and A^T U for a wide A
        assert counter.count == 4 * a.nnz * (2 * 6 + wide)

    @pytest.mark.parametrize("shape", [(70, 45), (45, 70)])
    def test_no_qr_queries_a_workspace(self, shape, monkeypatch):
        # every QR runs at LAPACK's default workspaces, and each Q stays byte
        # for byte scipy's (whose own calls go to LAPACK past these spies)
        a = random_sparse(make_gen(43), *shape, density=0.2)
        calls, queries = [], []
        lapack, orthonormal = matrixcore.lapack, matrixcore._orthonormal

        def spy(name):
            real = getattr(lapack, name)

            def call(*args, **kwargs):
                calls.append(name)
                if name.endswith("_lwork") or "lwork" in kwargs:
                    queries.append((name, kwargs.get("lwork")))
                return real(*args, **kwargs)

            return call

        def checked(w):
            want = scipy.linalg.qr(w, mode="economic")[0]
            q = orthonormal(w)
            assert q.tobytes() == want.tobytes()
            return q

        for name in ("dgeqrf", "dgeqrf_lwork", "dorgqr"):
            monkeypatch.setattr(lapack, name, spy(name))
        monkeypatch.setattr(matrixcore, "_orthonormal", checked)
        block_krylov(a, 4, 5)
        assert queries == []
        # the start block, then two QRs for each of the five blocks after it
        assert calls == ["dgeqrf", "dorgqr"] * 11

    @pytest.mark.parametrize("wide", [True, False])
    def test_rank_below_k(self, wide):
        # the space is used up after one block, and G Q_j has zero columns
        a = SparseMatrix(30, 50, [0, 1], [3, 7], [2.0, 1.0])
        a = a if wide else a.transpose()
        sigma, v = block_krylov(a, 3, 4)
        np.testing.assert_allclose(sigma[:2], [2.0, 1.0], rtol=1e-12)
        assert sigma[2] <= 1e-7
        dense = a.to_dense()
        assert np.linalg.norm(dense - dense @ v[:, :2] @ v[:, :2].T) <= 1e-12

    def test_zero_input_gives_zero_values_and_columns(self):
        sigma, v = block_krylov(SparseMatrix(30, 50, [], [], []), 3, 4)
        assert not np.any(sigma) and not np.any(v)

    @pytest.mark.parametrize("shape", [(30, 9), (9, 30)])
    @pytest.mark.parametrize("k, depth", [(3, 2), (3, 3), (4, 2), (12, 0)])
    def test_space_wider_than_the_smaller_side_is_capped_and_exact(self, shape, k, depth):
        # (2 + 1) 3 = 9 columns fit d = 9; wider spaces stop at all 9, the
        # last block cut short, and k = 12 is cut to a block of 9
        a = random_sparse(make_gen(44), *shape, density=0.5)
        counter = MultiplyAddCounter()
        sigma, v = block_krylov(a, k, depth, counter)
        r = min(k, 9)
        exact = svd(a.to_dense())
        assert sigma.shape == (r,) and v.shape == (shape[1], r)
        np.testing.assert_allclose(sigma, exact.sigma[:r], rtol=1e-12)
        # the top-r right singular subspace, compared by its projector
        ref = exact.v[:, :r]
        assert np.linalg.norm(v @ v.T - ref @ ref.T) <= 1e-9
        wide = shape[0] < shape[1]
        assert counter.count == a.nnz * (2 * 9 + r * wide)


class TestTruncateRank:
    """The best rank-k reference the oracle tests compare against: the
    package's verified :func:`svd`, truncated into :class:`LowRankFactors`."""

    def test_top_direction(self):
        f = best_rank_k(np.diag([5.0, 3.0, 1.0]), 1)
        np.testing.assert_allclose(f.y @ f.z.T, np.diag([5.0, 0.0, 0.0]), atol=1e-12)

    def test_full_rank_reproduces(self):
        a = np.diag([5.0, 3.0, 1.0])
        f = best_rank_k(a, 3)
        np.testing.assert_allclose(f.y @ f.z.T, a, atol=1e-12)

    def test_golden_residual(self):
        f = best_rank_k(GOLDEN, 1)
        resid_sigma = singular_values(GOLDEN - f.y @ f.z.T)
        np.testing.assert_allclose(resid_sigma[0], 0.7051, atol=1e-4)
        assert resid_sigma[1] < 1e-12

    def test_k_out_of_range(self):
        a = np.diag([5.0, 3.0])
        with pytest.raises(ValueError):
            best_rank_k(a, 0)
        with pytest.raises(ValueError):
            best_rank_k(a, 3)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    def test_mirsky_beats_random_candidates(self, p):
        gen = make_gen(int(p * 100))
        for _ in range(3):
            m, n, k = 12, 10, int(gen.integers(1, 5))
            a = gen.standard_normal((m, n))
            f = best_rank_k(a, k)
            opt = schatten_norm(singular_values(a - f.y @ f.z.T), p)
            for _ in range(200):
                q = random_orthonormal(gen, n, k)
                cand = schatten_norm(singular_values(a - (a @ q) @ q.T), p)
                assert opt <= cand + 1e-9 * max(1.0, cand)


class TestLowRankFactors:
    def _valid(self):
        gen = make_gen(140)
        return gen.standard_normal((6, 2)), random_orthonormal(gen, 5, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_y(self, bad):
        y, z = self._valid()
        y[3, 1] = bad
        with pytest.raises(ValueError, match="y contains non-finite entries"):
            LowRankFactors(y=y, z=z, k=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_z(self, bad):
        y, z = self._valid()
        # an all-NaN z has a NaN gap |Z^T Z - I|, which no "gap > tol" rejects
        with pytest.raises(ValueError, match="z does not have orthonormal columns"):
            LowRankFactors(y=y, z=np.full_like(z, bad), k=2)


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


class TestCompleteBasis:
    def test_complete_basis(self):
        gen = make_gen(13)
        z = random_orthonormal(gen, 8, 2)
        # a random block, then blocks holding the first standard basis
        # vectors the padding starts from, and a zero-width block
        eye = np.eye(8)
        for block in (z, eye[:, :1], eye[:, :3], eye[:, :0]):
            full = complete_basis(block, 5)
            assert full.shape == (8, 5)
            np.testing.assert_allclose(full.T @ full, np.eye(5), atol=1e-10)
            np.testing.assert_allclose(full[:, : block.shape[1]], block)
        with pytest.raises(ValueError, match="cannot pick 9 orthonormal columns"):
            complete_basis(z, 9)


class TestProducts:
    def test_eye_times_dense(self):
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

    def test_counter_is_exact(self):
        gen = make_gen(22)
        a = random_sparse(gen, 10, 8, density=0.3)
        b = gen.standard_normal((8, 5))
        counter = MultiplyAddCounter()
        sparse_dense_multiply(a, b, counter)
        assert counter.count == a.nnz * 5

    def test_dimension_mismatch(self):
        a = SparseMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError, match="dimensions"):
            sparse_dense_multiply(a, np.ones((4, 2)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SparseMatrix(0, 3, [], [], []), "matrix shape must be positive, got 0x3"),
        (
            lambda: SparseMatrix(3, 3, [0, 1], [0], [1.0]),
            "rows, cols and values must have equal length",
        ),
        (lambda: SparseMatrix.from_dense(np.ones(3)), "expected a 2-D array"),
        (
            lambda: LowRankFactors(y=np.ones((4, 2)), z=np.eye(3, 2), k=3),
            "factor width does not match k",
        ),
        (
            lambda: sparse_dense_multiply(SparseMatrix.from_dense(np.eye(3)), np.ones(3)),
            "dense factor must be 2-D",
        ),
    ],
    ids=["shape", "lengths", "from_dense_1d", "factor_width", "multiply_1d"],
)
def test_refusals_name_what_is_wrong(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
