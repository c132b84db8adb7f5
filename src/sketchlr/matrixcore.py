"""Matrix primitives: sparse storage, SVDs, rank truncation, row spaces.

Dense matrices are plain float64 numpy arrays (row-major) and spectra are 1-D
arrays of singular values sorted non-increasing. The one wrapped type is
:class:`SparseMatrix`, which validates its triplets on construction and routes
every product through an exact multiply-add count so nnz-proportionality can
be asserted rather than estimated.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

SVD_TOL = 1e-9    # relative factorization / orthonormality tolerance
RANK_TOL = 1e-10  # singular values below RANK_TOL * sigma_max count as zero
DENSE_GUARD = 5000  # largest min-dimension any exact dense factorization accepts
LANCZOS_SEED = 0x1A2C  # seeds every Lanczos start vector, so reruns are bit-identical


class ConvergenceError(RuntimeError):
    """A factorization missed its tolerance; carries the measured residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = float(residual)


class ScaleLimitError(ValueError):
    """An exact dense step refused an input above ``DENSE_GUARD``.

    The message names the guard and the sketched alternative to run instead.
    """


class MultiplyAddCounter:
    """Accumulates exact scalar multiply-add counts of sparse-side kernels."""

    def __init__(self) -> None:
        self.count = 0

    def add(self, n: int) -> None:
        self.count += int(n)

    def __repr__(self) -> str:
        return f"MultiplyAddCounter({self.count})"


class SparseMatrix:
    """Row-compressed sparse real matrix.

    Immutable after construction: no duplicate coordinates, no explicitly
    stored zeros, all values finite, and ``nnz`` is exactly the number of
    stored entries.
    """

    __slots__ = ("nrows", "ncols", "_csr")

    def __init__(self, nrows: int, ncols: int, rows, cols, values):
        nrows, ncols = int(nrows), int(ncols)
        if nrows < 1 or ncols < 1:
            raise ValueError(f"matrix shape must be positive, got {nrows}x{ncols}")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.float64).ravel()
        if not (rows.size == cols.size == values.size):
            raise ValueError("rows, cols and values must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows:
                raise ValueError("row index out of bounds")
            if cols.min() < 0 or cols.max() >= ncols:
                raise ValueError("column index out of bounds")
            if not np.all(np.isfinite(values)):
                raise ValueError("non-finite value in sparse matrix")
            if np.any(values == 0.0):
                raise ValueError("explicitly stored zero in sparse matrix")
            # row-major input (files, np.nonzero) is strictly increasing in
            # (row, col) and so has no duplicates; compared by differences,
            # which cannot overflow the way row * ncols + col can
            dr = np.diff(rows)
            if not np.all((dr > 0) | ((dr == 0) & (np.diff(cols) > 0))):
                order = np.lexsort((cols, rows))
                rs, cs = rows[order], cols[order]
                dup = (rs[1:] == rs[:-1]) & (cs[1:] == cs[:-1])
                if np.any(dup):
                    i = int(np.argmax(dup))
                    raise ValueError(f"duplicate coordinate ({rs[i + 1]}, {cs[i + 1]})")
        self.nrows = nrows
        self.ncols = ncols
        csr = sp.csr_array((values, (rows, cols)), shape=(nrows, ncols))
        csr.sort_indices()
        self._csr = csr

    @classmethod
    def _wrap(cls, csr: sp.csr_array) -> "SparseMatrix":
        # trusted path for internally produced matrices (transpose, slices)
        out = object.__new__(cls)
        out.nrows, out.ncols = (int(d) for d in csr.shape)
        csr.sort_indices()
        out._csr = csr
        return out

    @classmethod
    def from_dense(cls, dense) -> "SparseMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("expected a 2-D array")
        rows, cols = np.nonzero(dense)
        return cls(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return int(self._csr.nnz)

    @property
    def nbytes(self) -> int:
        """Bytes held by the stored values, column indices and row pointers."""
        c = self._csr
        return int(c.data.nbytes + c.indices.nbytes + c.indptr.nbytes)

    @property
    def csr(self) -> sp.csr_array:
        """Underlying scipy storage; treat as read-only."""
        return self._csr

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix._wrap(self._csr.T.tocsr())

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) in row-major coordinate order."""
        coo = self._csr.tocoo()
        order = np.lexsort((coo.col, coo.row))
        return coo.row[order], coo.col[order], coo.data[order]

    def __repr__(self) -> str:
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``A = u @ diag(sigma) @ v.T`` with min(m, n) columns."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class LowRankFactors:
    """Rank-k factor pair; the approximation ``y @ z.T`` stays implicit."""

    y: np.ndarray
    z: np.ndarray
    k: int

    def __post_init__(self):
        if self.z.shape[1] != self.k or self.y.shape[1] != self.k:
            raise ValueError("factor width does not match k")
        gram = self.z.T @ self.z
        if np.max(np.abs(gram - np.eye(self.k))) > 1e-9:
            raise ValueError("z does not have orthonormal columns")


def _check_dense(a, name: str = "matrix", finite: bool = True) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or min(a.shape) < 1:
        raise ValueError(f"{name} must be 2-D with positive dimensions")
    if finite and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def svd(a) -> SvdResult:
    """Thin SVD with verified tolerances.

    Raises :class:`ConvergenceError` if the factorization misses ``SVD_TOL``
    (relative reconstruction error or column orthonormality).
    """
    a = _check_dense(a)
    try:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; gesvd is slower but sturdier
        try:
            u, sigma, vt = scipy.linalg.svd(
                a, full_matrices=False, lapack_driver="gesvd"
            )
        except Exception as exc:
            raise ConvergenceError(f"SVD did not converge: {exc}", np.inf) from exc
    fro = float(np.linalg.norm(a))
    recon = float(np.linalg.norm((u * sigma) @ vt - a))
    k = sigma.size
    orth_u = float(np.max(np.abs(u.T @ u - np.eye(k))))
    orth_v = float(np.max(np.abs(vt @ vt.T - np.eye(k))))
    worst = max(recon / fro if fro > 0 else recon, orth_u, orth_v)
    if worst > SVD_TOL:
        raise ConvergenceError(
            f"SVD residual {worst:.3e} exceeds tolerance {SVD_TOL:.1e}", worst
        )
    return SvdResult(u=u, sigma=sigma, v=vt.T)


def singular_values(a) -> np.ndarray:
    """Singular values only (non-increasing); cheaper than :func:`svd`."""
    a = _check_dense(a)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:
        return scipy.linalg.svd(a, compute_uv=False, lapack_driver="gesvd")


def _gram_triplets(x, lam, vecs, k: int, fro: float, gram=None) -> SvdResult | None:
    """Verified top-k triplets of ``x`` from the leading Gram eigenpairs.

    ``lam``/``vecs`` are the top eigenpairs of the Gram matrix ``gram`` of the
    smaller side (its products are formed from ``x`` when it is absent),
    non-increasing, with one pair past k when there is one. Returns ``None``
    when sigma_k is numerically zero, ties with sigma_(k+1), or a triplet
    misses ``SVD_TOL``.
    """
    m, n = x.shape
    d = min(m, n)
    wide = m < n
    top = min(k + 1, d)
    # dsyevr may return fewer pairs than asked for on a tight cluster
    separated = (
        lam.size == top
        and lam[k - 1] > d * np.finfo(float).eps * lam[0]
        and (top == k or lam[k - 1] - lam[k] > SVD_TOL * lam[0])
    )
    if not separated:
        return None
    sigma = np.sqrt(lam[:k])
    side = np.ascontiguousarray(vecs[:, :k])
    prod = x.T @ side if wide else x @ side
    # the other product's residual X other - side sigma is (G side - side Lambda)/sigma
    g_side = gram @ side if gram is not None else (x @ prod if wide else x.T @ prod)
    u, v = (side, prod / sigma) if wide else (prod / sigma, side)
    worst = max(
        float(np.max(np.abs(u.T @ u - np.eye(k)))),
        float(np.max(np.abs(v.T @ v - np.eye(k)))),
        float(np.linalg.norm((g_side - side * lam[:k]) / sigma)) / fro,
    )
    return SvdResult(u=u, sigma=sigma, v=v) if worst <= SVD_TOL else None


def _lanczos_top(a: SparseMatrix, k: int) -> SvdResult | None:
    """Top-k triplets of sparse ``a`` by Lanczos on its smaller Gram operator."""
    x = a.csr
    m, n = x.shape
    d = min(m, n)
    top = k + 1
    if top >= d - 1 or x.nnz == 0:  # ARPACK needs fewer pairs than d
        return None
    xt = x.T
    gram = (lambda w: x @ (xt @ w)) if m < n else (lambda w: xt @ (x @ w))
    op = LinearOperator((d, d), matvec=gram, dtype=np.float64)
    starts = np.random.default_rng(LANCZOS_SEED)
    try:
        lam, vecs = eigsh(op, k=top, which="LA", tol=0, v0=starts.standard_normal(d))
        lam, vecs = lam[::-1], vecs[:, ::-1]
        # One Krylov space holds a single direction of each repeated
        # eigenvalue (up to rounding), so the pairs found may skip a copy of
        # one of the top k. Outside the span of the top k found, the largest
        # eigenvalue is lambda_(k+1) exactly when they are the top k; a second
        # start vector finds it on the deflated operator. Its Ritz value is
        # within the residual, at most SVD_TOL times itself, of an eigenvalue,
        # so a skipped copy fails the tie test of _gram_triplets.
        basis = vecs[:, :k]

        def deflated(w):
            w = gram(w - basis @ (basis.T @ w))
            return w - basis @ (basis.T @ w)

        rest = LinearOperator((d, d), matvec=deflated, dtype=np.float64)
        beyond = eigsh(
            rest, k=1, which="LA", tol=SVD_TOL, v0=starts.standard_normal(d)
        )[0]
    except ArpackError:
        return None
    lam = np.append(lam[:k], max(lam[k], beyond[0]))
    fro = float(np.linalg.norm(x.data))
    return _gram_triplets(x, lam, vecs, k, fro)


def top_singular(a, k: int) -> SvdResult:
    """Top-k singular triplets from the Gram matrix of the smaller side.

    Takes the top eigenpairs of ``G = A^T A`` (``A A^T`` when A is wide) and
    derives the other side by one product, a fraction of a full :func:`svd`
    when k is small. A dense input gets a partial ``eigh`` of G and is read
    twice, by G and by that product; G's trace ``||A||_F^2`` stands for A's
    finiteness (a NaN or inf entry spoils it), and an ``||A||_F^2`` beyond
    the double range is refused too. A :class:`SparseMatrix` gets ARPACK's
    Lanczos (``eigsh``) on ``x -> A^T (A x)``, ``2 nnz(A)`` multiply-adds a
    step, and a second run deflated by the top k found checks that they are
    the top k (one Krylov space misses a copy of a repeated eigenvalue); both
    start vectors come from ``LANCZOS_SEED``. Every triplet is verified at
    ``SVD_TOL``: both ``d x k`` blocks orthonormal, and the residual of the
    other product (``A V - U diag(sigma)`` wide, ``A^T U - V diag(sigma)``
    tall), read as ``(G S - S Lambda) diag(sigma)^-1`` for the eigenvector
    block S (formed by one more product on the sparse path), small against
    ``||A||_F``. The Gram matrix squares the conditioning, so when sigma_k
    is numerically zero, ties with sigma_(k+1), or a check fails, the sparse
    path falls back to the dense one and the dense one to the k-column
    truncation of the verified full :func:`svd`. A sparse input whose
    smaller side exceeds ``DENSE_GUARD`` is refused with
    :class:`ConvergenceError` instead of densified.
    """
    sparse = isinstance(a, SparseMatrix)
    if not sparse:
        a = _check_dense(a, finite=False)
    d = min(a.shape)
    if not 1 <= k <= d:
        raise ValueError(f"k={k} out of range 1..{d}")
    if sparse:
        res = _lanczos_top(a, k)
        if res is not None:
            return res
        if d > DENSE_GUARD:
            raise ConvergenceError(
                f"Lanczos top-{k} triplets failed to verify, and the dense fallback "
                f"refuses min dimension {d} above the guard DENSE_GUARD={DENSE_GUARD}",
                np.inf,
            )
        a = a.to_dense()
    wide = a.shape[0] < a.shape[1]
    gram = a @ a.T if wide else a.T @ a
    fro = math.sqrt(np.trace(gram))
    if not math.isfinite(fro):  # a NaN or inf entry spoils its diagonal entry
        _check_dense(a)
        raise ValueError("matrix Frobenius norm overflows: ||A||_F^2 is not a double")
    # one eigenpair past k exposes the gap that separates the top-k subspace
    top = min(k + 1, d)
    lam, vecs = scipy.linalg.eigh(gram, subset_by_index=[d - top, d - 1])
    res = _gram_triplets(a, lam[::-1], vecs[:, ::-1], k, fro, gram)
    if res is not None:
        return res
    res = svd(a)
    return SvdResult(
        u=res.u[:, :k].copy(), sigma=res.sigma[:k].copy(), v=res.v[:, :k].copy()
    )


def truncate_rank(res: SvdResult, k: int) -> LowRankFactors:
    """Best rank-k factors from a thin SVD: ``y = u_k sigma_k``, ``z = v_k``.

    By rotational invariance of singular-value norms this pair is optimal for
    every Schatten p-norm, not only Frobenius.
    """
    if not 1 <= k <= res.sigma.size:
        raise ValueError(f"k={k} out of range 1..{res.sigma.size}")
    y = res.u[:, :k] * res.sigma[:k]
    z = res.v[:, :k].copy()
    return LowRankFactors(y=y, z=z, k=int(k))


def orthonormal_rowspace(m) -> np.ndarray:
    """Orthonormal basis (ncols x rank) of the row space of ``m``.

    Rank is cut at ``RANK_TOL`` times the top singular value.
    """
    m = _check_dense(m)
    res = svd(m)
    if res.sigma.size == 0 or res.sigma[0] == 0.0:
        return np.zeros((m.shape[1], 0))
    rank = int(np.sum(res.sigma > RANK_TOL * res.sigma[0]))
    return res.v[:, :rank].copy()


def complete_basis(z: np.ndarray, k: int) -> np.ndarray:
    """Pad an orthonormal column block to exactly ``k`` columns.

    Padding directions come from Gram-Schmidt over the standard basis, so the
    completion is deterministic. Used when a sketched row space has rank < k.
    """
    n, have = z.shape
    if have >= k:
        return z[:, :k]
    if k > n:
        raise ValueError(f"cannot pick {k} orthonormal columns in dimension {n}")
    cols = [z]
    width = have
    basis = z
    for i in range(n):
        if width == k:
            break
        e = np.zeros(n)
        e[i] = 1.0
        w = e - basis @ (basis.T @ e)
        nw = np.linalg.norm(w)
        if nw > 1e-8:
            w = w / nw
            # re-orthogonalize once against accumulated columns for stability
            w = w - basis @ (basis.T @ w)
            w = w / np.linalg.norm(w)
            cols.append(w[:, None])
            basis = np.hstack(cols)
            width += 1
    if width < k:
        raise ValueError("failed to complete orthonormal basis")
    return basis


def sparse_dense_multiply(
    a: SparseMatrix, b: np.ndarray, counter: MultiplyAddCounter | None = None
) -> np.ndarray:
    """``A @ B`` for sparse A, dense B; exactly ``nnz(A) * ncols(B)`` MACs."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError("dense factor must be 2-D")
    if a.ncols != b.shape[0]:
        raise ValueError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
    if counter is not None:
        counter.add(a.nnz * b.shape[1])
    return a.csr @ b


def dense_sparse_multiply(
    b: np.ndarray, a: SparseMatrix, counter: MultiplyAddCounter | None = None
) -> np.ndarray:
    """``B @ A`` for dense B, sparse A; exactly ``nnz(A) * nrows(B)`` MACs."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError("dense factor must be 2-D")
    if b.shape[1] != a.nrows:
        raise ValueError(f"inner dimensions disagree: {b.shape} @ {a.shape}")
    if counter is not None:
        counter.add(a.nnz * b.shape[0])
    return (a.csr.T @ b.T).T
