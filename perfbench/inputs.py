"""Benchmark-owned input matrices.

The program only ever sees the triplets or the file made here, never its own
generator, so a change to ``harness.generate_synthetic`` cannot silently change
a workload's input.
"""

import numpy as np


def seed_for(*key: int) -> int:
    """A 64-bit seed derived from a tuple of non-negative integers."""
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0])


def sparse_triplets(nrows: int, ncols: int, nnz: int, seed: int):
    """``nnz`` distinct positions drawn uniformly, values uniform in (0, 1].

    Positions are drawn directly as linear indices (no dense mask), so the
    cost grows with ``nnz`` rather than with ``nrows * ncols``. Returns
    ``(rows, cols, values)`` in row-major order.
    """
    cells = nrows * ncols
    if not 0 < nnz <= cells // 2:
        raise ValueError(f"nnz={nnz} must lie in 1..{cells // 2}")
    gen = np.random.default_rng(seed)
    lin = np.empty(0, dtype=np.int64)
    while lin.size < nnz:
        extra = gen.integers(0, cells, size=nnz - lin.size + nnz // 32 + 16)
        lin = np.unique(np.concatenate([lin, extra]))
    lin = np.sort(lin[gen.permutation(lin.size)[:nnz]])
    values = 1.0 - gen.random(nnz)
    return lin // ncols, lin % ncols, values


def write_matrix_market(path, nrows: int, ncols: int, rows, cols, values) -> None:
    """Coordinate ``real general`` Matrix Market text, 1-based, full precision."""
    body = "".join(
        f"{i} {j} {v!r}\n" for i, j, v in zip((rows + 1).tolist(), (cols + 1).tolist(), values.tolist())
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{nrows} {ncols} {len(values)}\n")
        fh.write(body)
