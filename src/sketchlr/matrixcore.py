"""Matrix primitives: sparse storage, SVDs, rank truncation, orthonormal bases.

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

SVD_TOL = 1e-9    # relative factorization / orthonormality tolerance
RANK_TOL = 1e-10  # singular values below RANK_TOL * sigma_max count as zero
DENSE_GUARD = 5000  # largest min-dimension any exact dense factorization accepts
KRYLOV_SEED = 0x1A2C  # seeds the block Krylov start block, so reruns are bit-identical


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
    if isinstance(a, SparseMatrix):
        raise TypeError(f"{name} must be a dense array, not a SparseMatrix; densify it first")
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


def _orthonormal(w: np.ndarray) -> np.ndarray:
    """The Q factor of a thin Householder QR (orthonormal for any rank of ``w``)."""
    return scipy.linalg.qr(w, mode="economic", check_finite=False)[0]


def block_krylov(
    a, k: int, depth: int, counter: MultiplyAddCounter | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k right Ritz pairs of A from a block Krylov space of depth q.

    The space, on the smaller side of A (``d = min(A.shape)``), is spanned
    by ``X, G X, ..., G^q X`` for ``G = A^T A`` (``A A^T`` when A is wide)
    and a ``d x k`` Gaussian X from ``KRYLOV_SEED``, so reruns are
    bit-identical. Each ``G Q_j`` is projected off the basis Q, whose
    coefficients fill column block j of ``H = Q^T G Q``, normalized by QR,
    projected off twice more and normalized again: once the space is used
    up, a new block is rounding noise (or QR's completion of a zero column)
    largely inside span(Q), and those two projections keep Q orthonormal.
    An ``eigh`` of H is the Rayleigh-Ritz step. The span needs no gap at k
    to be near-optimal for rank-k approximation (Musco & Musco, 2015).

    ``a`` is a :class:`SparseMatrix` or dense. Returns ``(sigma, v)``: the
    k largest Ritz values as singular values, non-increasing (0 for a
    ``theta`` at or below ``d eps theta_1``, as in :func:`top_singular`),
    and the ``n x k`` right block, ``Q S_k`` for a tall A and
    ``A^T U diag(sigma)^-1`` for the Ritz vectors U of a wide one (zero
    where sigma is). ``counter`` gets ``2 k nnz(A)`` per product with G and
    ``k nnz(A)`` for ``A^T U`` (a dense A counts every entry).
    """
    sparse = isinstance(a, SparseMatrix)
    x = a.csr if sparse else _check_dense(a)
    d = min(x.shape)
    wide = x.shape[0] < x.shape[1]
    inner, outer = (x.T, x) if wide else (x, x.T)  # G w = outer @ (inner @ w)
    width = (depth + 1) * k
    if k < 1 or depth < 0 or width > d:
        raise ValueError(f"a depth-{depth} Krylov space of k={k} does not fit dimension {d}")
    basis = np.zeros((d, width), order="F")  # column-major: each block is contiguous
    h = np.zeros((width, width))
    basis[:, :k] = _orthonormal(np.random.default_rng(KRYLOV_SEED).standard_normal((d, k)))
    for j in range(depth + 1):
        lo, hi = j * k, (j + 1) * k
        w = outer @ (inner @ basis[:, lo:hi])
        done = basis[:, :hi]
        h[:hi, lo:hi] = done.T @ w
        if hi == width:
            break
        block = _orthonormal(w - done @ h[:hi, lo:hi])
        for _ in range(2):
            block -= done @ (done.T @ block)
        basis[:, hi : hi + k] = _orthonormal(block)
    theta, s = np.linalg.eigh(h, UPLO="U")  # ascending
    theta = theta[: -k - 1 : -1]
    # below the rounding floor of a Gram eigenvalue a Ritz value is noise
    sigma = np.sqrt(np.where(theta > d * np.finfo(float).eps * theta[0], theta, 0.0))
    side = basis @ s[:, : -k - 1 : -1]
    if counter is not None:  # 2 k nnz(A) per product with G, k nnz(A) for A^T U
        counter.add(k * (x.nnz if sparse else x.size) * (2 * (depth + 1) + wide))
    if not wide:
        return sigma, side
    # U^T G U = diag(theta) for Ritz vectors U, so these columns are orthonormal
    v = x.T @ side
    return sigma, np.divide(v, sigma, out=np.zeros_like(v), where=sigma > 0)


def top_singular(a, k: int) -> SvdResult:
    """Top-k singular triplets of a dense matrix from the Gram matrix of its smaller side.

    Takes the top eigenpairs of ``G = A^T A`` (``A A^T`` when A is wide) by
    a partial ``eigh`` and derives the other side by one product, a fraction
    of a full :func:`svd` when k is small. A is read twice, by G and by that
    product; G's trace ``||A||_F^2`` stands for A's finiteness (a NaN or inf
    entry spoils it), and an ``||A||_F^2`` beyond the double range is
    refused too. Every triplet is verified at ``SVD_TOL``: both ``d x k``
    blocks orthonormal, and the residual of the other product
    (``A V - U diag(sigma)`` wide, ``A^T U - V diag(sigma)`` tall), read as
    ``(G S - S Lambda) diag(sigma)^-1`` for the eigenvector block S, small
    against ``||A||_F``. The Gram matrix squares the conditioning, so when
    sigma_k is numerically zero, ties with sigma_(k+1), or a check fails,
    the result is the k-column truncation of the verified full :func:`svd`.
    """
    a = _check_dense(a, finite=False)
    d = min(a.shape)
    if not 1 <= k <= d:
        raise ValueError(f"k={k} out of range 1..{d}")
    wide = a.shape[0] < a.shape[1]
    gram = a @ a.T if wide else a.T @ a
    fro = math.sqrt(np.trace(gram))
    if not math.isfinite(fro):  # a NaN or inf entry spoils its diagonal entry
        _check_dense(a)
        raise ValueError("matrix Frobenius norm overflows: ||A||_F^2 is not a double")
    # one eigenpair past k exposes the gap that separates the top-k subspace
    top = min(k + 1, d)
    lam, vecs = scipy.linalg.eigh(gram, subset_by_index=[d - top, d - 1])
    lam, vecs = lam[::-1], vecs[:, ::-1]
    # dsyevr may return fewer pairs than asked for on a tight cluster
    if (
        lam.size == top
        and lam[k - 1] > d * np.finfo(float).eps * lam[0]
        and (top == k or lam[k - 1] - lam[k] > SVD_TOL * lam[0])
    ):
        sigma = np.sqrt(lam[:k])
        side = np.ascontiguousarray(vecs[:, :k])
        prod = a.T @ side if wide else a @ side
        # the other product's residual A other - side sigma is (G side - side Lambda)/sigma
        u, v = (side, prod / sigma) if wide else (prod / sigma, side)
        worst = max(
            float(np.max(np.abs(u.T @ u - np.eye(k)))),
            float(np.max(np.abs(v.T @ v - np.eye(k)))),
            float(np.linalg.norm((gram @ side - side * lam[:k]) / sigma)) / fro,
        )
        if worst <= SVD_TOL:
            return SvdResult(u=u, sigma=sigma, v=v)
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
