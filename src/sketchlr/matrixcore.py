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


def _indices(idx, name: str, bound: int) -> np.ndarray:
    """``idx`` as a flat int64 array; refuses a non-integral entry by name.

    An integer array is cast with no check. Any other is read as float64
    and must hold whole numbers, clipped to ``[-1, bound]`` before the cast
    so that an inf or a value past the int64 range stays out of bounds.
    """
    idx = np.asarray(idx)
    if idx.dtype.kind in "iu":
        return idx.astype(np.int64, copy=False).ravel()
    idx = np.asarray(idx, dtype=np.float64).ravel()
    bad = idx != np.trunc(idx)  # NaN compares unequal too
    if np.any(bad):
        raise ValueError(f"{name} index {float(idx[bad][0])!r} is not an integer")
    return np.clip(idx, -1, bound).astype(np.int64)


class SparseMatrix:
    """Row-compressed sparse real matrix.

    Immutable after construction: no duplicate coordinates, no explicitly
    stored zeros, all values finite, and ``nnz`` is exactly the number of
    stored entries. scipy's CSR sums repeated coordinates, and no value is
    zero, so it stores fewer entries exactly when a coordinate repeats; the
    smallest one is then named.
    """

    __slots__ = ("nrows", "ncols", "_csr")

    def __init__(self, nrows: int, ncols: int, rows, cols, values):
        nrows, ncols = int(nrows), int(ncols)
        if nrows < 1 or ncols < 1:
            raise ValueError(f"matrix shape must be positive, got {nrows}x{ncols}")
        if max(nrows, ncols) >= np.iinfo(np.int64).max:
            raise ScaleLimitError(f"matrix shape {nrows}x{ncols} exceeds the int64 index range")
        rows, cols = _indices(rows, "row", nrows), _indices(cols, "column", ncols)
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
        with _storable(nrows, ncols):
            csr = sp.csr_array((values, (rows, cols)), shape=(nrows, ncols))
        if csr.nnz < values.size:
            order = np.lexsort((cols, rows))
            rs, cs = rows[order], cols[order]
            i = int(np.argmax((rs[1:] == rs[:-1]) & (cs[1:] == cs[:-1])))
            raise ValueError(f"duplicate coordinate ({rs[i + 1]}, {cs[i + 1]})")
        self.nrows = nrows
        self.ncols = ncols
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
        """(rows, cols, values) in row-major order, the storage's own: no sort needed."""
        coo = self._csr.tocoo()
        return coo.row, coo.col, coo.data

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


def _singular_values(make) -> np.ndarray:
    """Singular values only (non-increasing) of the 2-D float64 array ``make()`` returns.

    LAPACK's ``dgesdd`` is called directly, at the wrapper's default
    workspace (about ``15n`` doubles and ``8n`` ints for an ``n x n``
    array), and overwrites a column-major array in place, with no copy and
    no scan for finiteness: for a caller whose array is finite by
    construction, such as one built from inputs it checked. If ``dgesdd``
    fails to converge (``info > 0``), the array it spoilt is dropped before
    ``make()`` builds a fresh one, so one array is held at a time, and
    ``dgesvd``, slower but sturdier, factors that in the same way. Raises
    :class:`ConvergenceError` naming the shape when both fail, and
    ``ValueError`` on an illegal argument (``info < 0``), a bug no other
    driver would mend.
    """
    for name in ("dgesdd", "dgesvd"):
        a = make()
        shape = a.shape
        _, sigma, _, info = getattr(lapack, name)(a, compute_uv=0, overwrite_a=1)
        del a  # spoilt unless info == 0, and freed before make() runs again
        if info < 0:
            raise ValueError(f"{name} was passed an illegal argument {-info}")
        if info == 0:
            return sigma
    raise ConvergenceError(
        f"neither dgesdd nor dgesvd converged on a {shape[0]}x{shape[1]} array", np.inf
    )


def _orthonormal(w: np.ndarray) -> np.ndarray:
    """The Q factor of a thin Householder QR of a tall ``w`` (orthonormal for any rank).

    ``dgeqrf`` and ``dorgqr`` are called directly, at the wrappers' default
    workspaces, and R is never formed: byte for byte the Q of
    ``scipy.linalg.qr(w, mode="economic")``, whose wrapper (a copy of ``w``
    for a workspace query, routine lookups, a ``triu`` of the unused R)
    costs several times the factorization of the ``d x k`` blocks
    :func:`block_krylov` passes it. No workspace is queried: LAPACK's
    default one gives the same Q in the same time.
    """
    qr, tau = lapack.dgeqrf(w)[:2]
    return lapack.dorgqr(qr, tau, overwrite_a=1)[0]


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
    A partial ``eigh`` of H is the Rayleigh-Ritz step, the one
    :func:`top_singular` takes on all of a side. The span needs no gap at k
    to be near-optimal for rank-k approximation (Musco & Musco, 2015).
    A space that covers a side above ``DENSE_GUARD`` would hold a dense
    ``d x d`` basis and H, and is refused with :class:`ScaleLimitError`.

    A dense ``a`` is read as its :class:`SparseMatrix`. Returns ``(sigma, v)``: the
    r largest Ritz values as singular values, non-increasing (0 at the
    rounding floor, as ``_rayleigh_ritz`` says),
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
    basis[:, :k] = _orthonormal(np.random.default_rng(KRYLOV_SEED).standard_normal((d, k)))
    for lo in range(0, width, k):
        hi = min(lo + k, width)
        w = outer @ (inner @ basis[:, lo:hi])
        done = basis[:, :hi]
        h[:hi, lo:hi] = done.T @ w
        if hi == width:
            break
        cols = min(k, width - hi)  # the block that reaches d is cut short
        block = _orthonormal(w[:, :cols] - done @ h[:hi, lo : lo + cols])
        for _ in range(2):  # block -= done @ (done.T @ block), in place on the column-major Q
            block = blas.dgemm(-1.0, done, done.T @ block, beta=1.0, c=block, overwrite_c=True)
        basis[:, hi : hi + cols] = _orthonormal(block)
    if counter is not None:  # 2 nnz(A) per basis column, k nnz(A) for A^T U
        counter.add(x.nnz * (2 * width + k * wide))
    # (U^T A)^T reads the row-major CSR along its rows, as A.T @ U does not
    return _rayleigh_ritz(h, basis, k, (lambda u: (u.T @ x).T) if wide else None)


def _rayleigh_ritz(h, basis, k: int, right=None) -> tuple[np.ndarray, np.ndarray]:
    """The top-k Ritz pairs of a space on the smaller side of A, from ``H = Q^T G Q``.

    ``G`` is the Gram matrix of that side, of dimension d, and Q an
    orthonormal basis of the space, ``None`` for all of the side (Q = I).
    H's upper triangle is read, and a partial ``eigh`` factors it in place.
    Returns ``(sigma, side)``: the k largest Ritz values as singular values,
    non-increasing, and the ``Q S`` block of the k Ritz vectors U; for a
    wide A, given ``right(U) = A^T U``, the block ``A^T U diag(sigma)^-1``
    instead, zero where sigma is. sigma is 0 where ``theta <= d eps theta_1``,
    and for a wide A from the first ``||A^T u||^2`` at or below that on.
    """
    w = h.shape[0]
    d = w if basis is None else basis.shape[0]
    # h.T is column-major, so dsyevr factors it without a copy; its lower
    # triangle is h's upper one
    theta, s = scipy.linalg.eigh(
        h.T, overwrite_a=True, check_finite=False, subset_by_index=[w - k, w - 1]
    )
    theta, s = theta[::-1], s[:, ::-1]  # eigh's order is ascending
    # below the rounding floor of a Gram eigenvalue a Ritz value is noise
    floor = d * np.finfo(float).eps * theta[0]
    sigma = np.sqrt(np.where(theta > floor, theta, 0.0))
    side = s if basis is None else basis @ s
    if right is None:
        return sigma, side
    # U^T G U = diag(theta) for Ritz vectors U, so these columns are orthonormal
    v = right(side)
    # eigh's error can lift a zero theta past the floor, but not ||A^T u||^2
    sigma[~np.logical_and.accumulate(np.einsum("ij,ij->j", v, v) > floor)] = 0.0
    v /= np.where(sigma > 0, sigma, np.inf)  # in place: v is the one n x k block
    return sigma, v


def top_singular(chunks, k: int, right=None) -> tuple[np.ndarray, np.ndarray]:
    """Top-k right Ritz pairs of A from the Gram matrix of its smaller side.

    :func:`block_krylov`'s Rayleigh-Ritz step on a space that covers all of
    that side, so that step is exact: a partial ``eigh`` of ``G = A^T A``
    (``A A^T`` when A is wide), with no start block and no basis.
    ``chunks`` is A as its column chunks in order, dense row-major
    ``d x w`` blocks that may share one buffer, as
    :func:`~sketchlr.sketches.countsketch_columns` gives them. Given
    ``right(U) = A^T U``, A is wide, and G is summed from ``syrk`` products
    ``C C^T``, one a chunk; without it, A is tall, its one chunk C gives
    ``G = C^T C`` by one ``syrk``, and its Ritz vectors are its right
    block. Returns ``(sigma, v)`` as :func:`block_krylov` does: the k
    largest singular values, non-increasing (0 at the Gram matrix's
    rounding floor, as ``_rayleigh_ritz`` says), and the ``n x k`` right
    block, the eigenvectors of G for a tall A and ``A^T U
    diag(sigma)^-1`` for a wide one. Like the Krylov span, the block is a
    near-optimal rank-k row space of A whatever gap sigma has at k. G's
    trace ``||A||_F^2`` stands for A's finiteness, which no chunk is
    scanned for: a NaN or inf entry spoils it, and it is refused, as is an
    ``||A||_F^2`` beyond the double range. G is the one ``d x d`` array,
    and ``eigh`` factors it in place.
    """
    gram, trans = None, int(right is not None)  # syrk allocates G, column-major
    for chunk in chunks:  # G += C C^T (C^T C when tall) into G's lower triangle
        gram = blas.dsyrk(1.0, chunk.T, beta=1.0, c=gram, trans=trans, lower=1, overwrite_c=1)
    chunks = chunk = None  # a chunk may view a buffer, freed before the right block
    d = gram.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"k={k} out of range 1..{d}")
    if not math.isfinite(np.trace(gram)):  # a NaN or inf entry spoils its diagonal entry
        raise ValueError("matrix Frobenius norm overflows: ||A||_F^2 is not a double")
    return _rayleigh_ritz(gram.T, None, k, right)  # H's upper triangle is G's lower one


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

