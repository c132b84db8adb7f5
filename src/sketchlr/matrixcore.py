"""Matrix primitives: sparse storage, SVDs, orthonormal bases.

Dense matrices are plain float64 numpy arrays (row-major) and spectra are 1-D
arrays of singular values sorted non-increasing. The one wrapped type is
:class:`SparseMatrix`, which validates its triplets on construction and routes
every product through an exact multiply-add count so nnz-proportionality can
be asserted rather than estimated.

A kernel that reads A by its stored entries converts a dense A once, on entry
(``_ensure_sparse``), and runs and counts as on its nonzeros; a dense-only
kernel refuses a :class:`SparseMatrix` (``_check_dense``).
"""

import contextlib
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import blas, lapack

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
    """An input too large for a step: a side above ``DENSE_GUARD`` for an exact
    dense step, or a sparse shape whose storage cannot be allocated.

    The message names the guard and the sketched alternative to run instead,
    or the shape.
    """


@contextlib.contextmanager
def _storable(nrows: int, ncols: int):
    """Turn a ``MemoryError`` from building sparse storage into a :class:`ScaleLimitError`.

    scipy allocates ``nrows + 1`` row pointers whatever the entries, so a
    shape alone can exhaust memory.
    """
    try:
        yield
    except MemoryError as exc:
        raise ScaleLimitError(f"a {nrows}x{ncols} matrix cannot be stored: {exc}") from None


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
        if max(nrows, ncols) >= np.iinfo(np.int64).max:
            raise ScaleLimitError(f"matrix shape {nrows}x{ncols} exceeds the int64 index range")
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
        with _storable(nrows, ncols):
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
        with _storable(self.ncols, self.nrows):
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
        if not np.all(np.isfinite(self.y)):
            raise ValueError("y contains non-finite entries")
        gram = self.z.T @ self.z
        # written so that a NaN gap, from a non-finite z or an overflowing
        # Gram matrix, fails the check too
        if not np.max(np.abs(gram - np.eye(self.k))) <= 1e-9:
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


def _ensure_sparse(a) -> SparseMatrix:
    """``a`` itself when sparse, else the :class:`SparseMatrix` of its nonzeros."""
    if isinstance(a, SparseMatrix):
        return a
    return SparseMatrix.from_dense(a)


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


def _singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values only (non-increasing) of a 2-D float64 array, with no scan for finiteness.

    For a caller whose array is finite by construction, such as one built
    from inputs it checked: the scan reads every entry once more.
    """
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:
        return scipy.linalg.svd(a, compute_uv=False, lapack_driver="gesvd")


def _orthonormal(w: np.ndarray, lwork: list[int] | None = None) -> np.ndarray:
    """The Q factor of a thin Householder QR of a tall ``w`` (orthonormal for any rank).

    ``dgeqrf`` and ``dorgqr`` are called directly, at the workspace each
    queries, and R is never formed: byte for byte the Q of
    ``scipy.linalg.qr(w, mode="economic")``, whose wrapper (a copy of ``w``
    for the workspace query, routine lookups, a ``triu`` of the unused R)
    costs several times the factorization of the ``d x k`` blocks
    :func:`block_krylov` passes it. The workspaces depend only on the
    shape, so a caller that factors many blocks of one shape passes one
    ``lwork`` list to every call: the first fills it, the rest reuse it.
    They grow with the width, so they serve a narrower block too.
    """
    lwork = [] if lwork is None else lwork
    if not lwork:
        lwork.append(int(lapack.dgeqrf_lwork(*w.shape)[0]))
    qr, tau = lapack.dgeqrf(w, lwork=lwork[0])[:2]
    if len(lwork) == 1:
        lwork.append(int(lapack.dorgqr(qr, tau, lwork=-1, overwrite_a=1)[1][0]))
    return lapack.dorgqr(qr, tau, lwork=lwork[1], overwrite_a=1)[0]


def block_krylov(
    a, k: int, depth: int, counter: MultiplyAddCounter | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k right Ritz pairs of A from a block Krylov space of depth q, capped at A's side.

    The space, on the smaller side of A (``d = min(A.shape)``), is spanned
    by ``X, G X, ..., G^q X`` for ``G = A^T A`` (``A A^T`` when A is wide)
    and a ``d x r`` Gaussian X from ``KRYLOV_SEED``, ``r = min(k, d)``, so
    reruns are bit-identical. Its basis stops at ``min((q + 1) r, d)``
    columns, the last block cut short: a space that reaches d is all of
    that side, so its Rayleigh-Ritz step is exact. Each ``G Q_j`` is
    projected off the basis Q, whose
    coefficients fill column block j of ``H = Q^T G Q``, normalized by QR,
    projected off twice more and normalized again: once the space is used
    up, a new block is rounding noise (or QR's completion of a zero column)
    largely inside span(Q), and those two projections keep Q orthonormal.
    An ``eigh`` of H is the Rayleigh-Ritz step. The span needs no gap at k
    to be near-optimal for rank-k approximation (Musco & Musco, 2015).
    A space that covers a side above ``DENSE_GUARD`` would hold a dense
    ``d x d`` basis and H, and is refused with :class:`ScaleLimitError`.

    A dense ``a`` is read as its :class:`SparseMatrix`. Returns ``(sigma, v)``: the
    r largest Ritz values as singular values, non-increasing (0 for a
    ``theta`` at or below ``d eps theta_1``, as in :func:`top_singular`),
    and the ``n x r`` right block, ``Q S_r`` for a tall A and
    ``A^T U diag(sigma)^-1`` for the Ritz vectors U of a wide one (zero
    where sigma is). ``counter`` gets ``2 nnz(A)`` per basis column, the
    products with G, and ``r nnz(A)`` for ``A^T U``.
    """
    if k < 1 or depth < 0:
        raise ValueError(f"a Krylov space needs k >= 1 and depth >= 0, got k={k}, depth={depth}")
    x = _ensure_sparse(a).csr
    d = min(x.shape)
    wide = x.shape[0] < x.shape[1]
    inner, outer = (x.T, x) if wide else (x, x.T)  # G w = outer @ (inner @ w)
    k, width = min(k, d), min((depth + 1) * k, d)
    if width == d > DENSE_GUARD:  # a dense d x d basis
        raise ScaleLimitError(
            f"a Krylov space of k={k} covers d={d} > DENSE_GUARD={DENSE_GUARD}; lower k"
        )
    basis = np.zeros((d, width), order="F")  # column-major: each block is contiguous
    h = np.zeros((width, width))
    # every QR is of a d x k block, or a narrower last one that a d x k
    # block's workspaces serve too: one pair of workspace queries
    lwork = []
    basis[:, :k] = _orthonormal(
        np.random.default_rng(KRYLOV_SEED).standard_normal((d, k)), lwork
    )
    for lo in range(0, width, k):
        hi = min(lo + k, width)
        w = outer @ (inner @ basis[:, lo:hi])
        done = basis[:, :hi]
        h[:hi, lo:hi] = done.T @ w
        if hi == width:
            break
        cols = min(k, width - hi)  # the block that reaches d is cut short
        block = _orthonormal(w[:, :cols] - done @ h[:hi, lo : lo + cols], lwork)
        for _ in range(2):  # block -= done @ (done.T @ block), in place on the column-major Q
            block = blas.dgemm(-1.0, done, done.T @ block, beta=1.0, c=block, overwrite_c=True)
        basis[:, hi : hi + cols] = _orthonormal(block, lwork)
    theta, s = np.linalg.eigh(h, UPLO="U")  # ascending
    theta = theta[: -k - 1 : -1]
    # below the rounding floor of a Gram eigenvalue a Ritz value is noise
    sigma = np.sqrt(np.where(theta > d * np.finfo(float).eps * theta[0], theta, 0.0))
    side = basis @ s[:, : -k - 1 : -1]
    if counter is not None:  # 2 nnz(A) per basis column, k nnz(A) for A^T U
        counter.add(x.nnz * (2 * width + k * wide))
    if not wide:
        return sigma, side
    # U^T G U = diag(theta) for Ritz vectors U, so these columns are orthonormal
    v = inner @ side
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
    G is the one ``d x d`` array: ``eigh`` factors it in place, and the
    residual's ``G S`` is read from the triangle it leaves and the saved
    diagonal. Besides A, G and the eigenvector block, it holds one more
    ``d' x k`` block, the other side, divided by sigma in place (``d'`` the
    larger dimension).
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
    diag = gram.diagonal().copy()
    # G is exactly symmetric, so its column-major view is G itself: dsyevr factors
    # it in place, destroying the view's lower triangle and the diagonal
    lam, vecs = scipy.linalg.eigh(gram.T, overwrite_a=True, subset_by_index=[d - top, d - 1])
    lam, vecs = lam[::-1], vecs[:, ::-1]
    # dsyevr may return fewer pairs than asked for on a tight cluster
    if (
        lam.size == top
        and lam[k - 1] > d * np.finfo(float).eps * lam[0]
        and (top == k or lam[k - 1] - lam[k] > SVD_TOL * lam[0])
    ):
        sigma = np.sqrt(lam[:k])
        side = np.ascontiguousarray(vecs[:, :k])
        # (side^T A)^T reads the row-major A along its rows, as a.T @ side does not
        prod = (side.T @ a).T if wide else a @ side
        prod /= sigma  # in place: the other side is the one d x k block besides side
        # the other product's residual A other - side sigma is (G side - side Lambda)/sigma;
        # G side from the view's upper triangle, which dsyevr left, and the saved diagonal,
        # as (side^T G)^T: side.T is column-major, so dsymm takes it without a copy
        np.fill_diagonal(gram, diag)
        u, v = (side, prod) if wide else (prod, side)
        worst = max(
            float(np.max(np.abs(u.T @ u - np.eye(k)))),
            float(np.max(np.abs(v.T @ v - np.eye(k)))),
            float(np.linalg.norm(
                (blas.dsymm(1.0, gram.T, side.T, side=1, lower=0).T - side * lam[:k]) / sigma
            )) / fro,
        )
        if worst <= SVD_TOL:
            return SvdResult(u=u, sigma=sigma, v=v)
    res = svd(a)
    return SvdResult(
        u=res.u[:, :k].copy(), sigma=res.sigma[:k].copy(), v=res.v[:, :k].copy()
    )


def complete_basis(z: np.ndarray, k: int) -> np.ndarray:
    """Pad an orthonormal column block to exactly ``k`` columns.

    ``z``'s columns are kept, and the padding is Gram-Schmidt over the
    standard basis in order, ``e_1, e_2, ...``, each projected off the
    columns so far; an ``e_i`` whose residual is below ``1e-8``, the
    rounding left on a vector in their span, is skipped. The projector
    ``I - z z^T`` depends only on span(z), so the padding does too, not on
    z's basis of it. Used when a sketched row space has rank < k.
    """
    n, have = z.shape
    if have >= k:
        return z[:, :k]
    if k > n:
        raise ValueError(f"cannot pick {k} orthonormal columns in dimension {n}")
    basis = z
    for i in range(n):
        w = -(basis @ basis[i])  # e_i - basis basis^T e_i
        w[i] += 1.0
        if np.linalg.norm(w) > 1e-8:
            w -= basis @ (basis.T @ w)  # re-orthogonalize once
            basis = np.hstack([basis, (w / np.linalg.norm(w))[:, None]])
            if basis.shape[1] == k:
                return basis
    raise ValueError("failed to complete orthonormal basis")


def sparse_dense_multiply(
    a: SparseMatrix, b: np.ndarray, counter: MultiplyAddCounter | None = None
) -> np.ndarray:
    """``A @ B`` for sparse A, dense B; exactly ``nnz(A) * ncols(B)`` MACs."""
    a = _ensure_sparse(a)
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError("dense factor must be 2-D")
    if a.ncols != b.shape[0]:
        raise ValueError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
    if counter is not None:
        counter.add(a.nnz * b.shape[1])
    return a.csr @ b

