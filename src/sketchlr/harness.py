"""Experiment harness: data sources, multi-trial runs and CSV emission.

A run draws one matrix (a fixed matrix seed, separate from the trial seeds),
solves both the Schatten-p pipeline and the Frobenius baseline ``trials``
times per requested rank, optionally scores both against the exact oracle
(one :class:`~sketchlr.solver.OracleScorer` per run, built before the first
rank), and writes per-trial and median summary tables.
"""

import codecs
import csv
import itertools
import lzma
import math
import os
import stat
import time
from dataclasses import astuple, dataclass

import numpy as np

from .matrixcore import ScaleLimitError, SparseMatrix
from .norms import schatten_norm
from .rng import RandomStream
from .sketches import MODES
from .solver import OracleScorer, clamp_eps, solve_schatten

FORMATS = ("matrix_market", "bag_of_words_triplets")


class ParseError(ValueError):
    """Malformed input file; carries the path and 1-based line number."""

    def __init__(self, path, line: int | None, message: str):
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line


@dataclass
class ExperimentConfig:
    """One benchmark run: a matrix source, ranks, and trial bookkeeping."""

    k_list: list[int]
    p: float = 1.0
    eps: float = 0.5
    trials: int = 50
    seed: int = 0
    mode: str = "simplified_experiment"
    oracle: bool = False
    # synthetic source
    nrows: int | None = None
    ncols: int | None = None
    density: float | None = None
    # file source
    input_path: str | None = None
    input_format: str = "matrix_market"

    def validate(self) -> None:
        if not self.k_list:
            raise ValueError("k_list must not be empty")
        for i, k in enumerate(self.k_list):
            if not isinstance(k, (int, np.integer)) or k < 1:  # the solve refuses it only later
                raise ValueError(f"k_list holds rank {k!r}: each rank must be an integer >= 1")
            if k in self.k_list[:i]:
                raise ValueError(f"k_list repeats rank {k}: each rank is one set of trials")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # the solve's own refusals, made before the matrix is read or densified
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 1.0 <= self.p < math.inf:  # NaN fails both comparisons
            raise ValueError(f"p must be a finite value >= 1, got {float(self.p)}")
        clamp_eps(self.eps)
        synthetic = self.nrows is not None or self.ncols is not None
        if synthetic and self.input_path is not None:
            raise ValueError("choose either a synthetic source or an input file")
        if synthetic:
            if self.nrows is None or self.ncols is None or self.density is None:
                raise ValueError("synthetic source needs nrows, ncols and density")
            if not 0.0 < self.density <= 1.0:
                raise ValueError("density must lie in (0, 1]")
        elif self.input_path is None:
            raise ValueError("no matrix source configured")
        if self.input_format not in FORMATS:
            raise ValueError(f"unknown format {self.input_format!r}")


@dataclass(frozen=True)
class TrialRecord:
    k: int
    trial_index: int
    algo: str
    rel_error: float | None
    wall_ms: float
    seed: int
    fallback_used: bool


@dataclass(frozen=True)
class SummaryRow:
    k: int
    algo: str
    median_rel_error: float | None
    median_wall_ms: float
    n_trials: int


def generate_synthetic(
    nrows: int, ncols: int, density: float, stream: RandomStream
) -> SparseMatrix:
    """Matrix with i.i.d. entries: nonzero with probability ``density``,
    value uniform in [0, 1]."""
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    if nrows < 1 or ncols < 1:
        raise ValueError("matrix shape must be positive")
    # the empty matrix of the shape runs its refusals (past the int64 index
    # range, row pointers that cannot be allocated) before any block is drawn
    SparseMatrix(nrows, ncols, [], [], [])
    gen = stream.generator()
    rows_acc, cols_acc, vals_acc = [], [], []
    block = max(1, min(nrows, 4_000_000 // max(ncols, 1)))
    for start in range(0, nrows, block):
        stop = min(start + block, nrows)
        mask = gen.random((stop - start, ncols)) < density
        vals = gen.random((stop - start, ncols))
        mask &= vals > 0.0  # a drawn 0.0 would be an explicit stored zero
        r, c = np.nonzero(mask)
        rows_acc.append(r + start)
        cols_acc.append(c)
        vals_acc.append(vals[mask])
    return SparseMatrix(
        nrows,
        ncols,
        np.concatenate(rows_acc),
        np.concatenate(cols_acc),
        np.concatenate(vals_acc),
    )


# Bytes a plain file holds: printable ASCII, tab and newline, and carriage
# return, which universal newlines turn into a newline. str.split and
# str.splitlines break at some other control and non-ASCII characters where
# np.loadtxt does not (and np.loadtxt stops at a NUL), so a file with any of
# them is read by the per-line rules alone.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n\r"


@dataclass(frozen=True)
class _Body:
    """What a format's header says about the triplet lines that follow it."""

    nrows: int
    ncols: int
    declared: int  # entries the header promises
    size_line: int  # the line that declares them; the body starts after it
    fields: tuple[str, ...]  # tokens of an entry; two mean a pattern entry of value 1
    comments: bool = False  # lines starting with '%' are skipped
    symmetric: bool = False  # entries lie on or below the diagonal and are mirrored


def _newline_split(data: bytes):
    """The lines of plain bytes, each decoded only when it is reached."""
    start = 0
    while (end := data.find(b"\n", start)) >= 0:
        yield data[start:end].decode("ascii")
        start = end + 1
    yield data[start:].decode("ascii")


def _numbered_lines(text: str | bytes, plain: bool):
    """Stripped non-blank lines, numbered as ``str.splitlines`` numbers them.

    A plain file stays bytes that break only at newlines, so it is split and
    decoded lazily: reading the header neither splits nor decodes the body.
    """
    raw = _newline_split(text) if plain else text.splitlines()
    for lineno, line in enumerate(raw, start=1):
        line = line.strip()
        if line:
            yield lineno, line


def _past_end(text: str | bytes) -> int:
    # the line a missing header or size line would have been on
    return len(text.splitlines()) + 1


_MM_SUPPORTED = (
    "supported: 'matrix coordinate' with field real, integer or pattern "
    "and symmetry general or symmetric"
)


def _matrix_market_header(path, text: str | bytes, lines) -> tuple[_Body, bool]:
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError(path, 1, "empty file") from None
    tokens = header.lower().split()
    if len(tokens) != 5 or tokens[0] != "%%matrixmarket":
        raise ParseError(path, lineno, "missing %%MatrixMarket header")
    if tokens[1:3] != ["matrix", "coordinate"] or tokens[4] not in ("general", "symmetric"):
        raise ParseError(path, lineno, f"unsupported layout {header!r}; {_MM_SUPPORTED}")
    if tokens[3] not in ("real", "integer", "pattern"):
        raise ParseError(path, lineno, f"unsupported field type {tokens[3]!r}; {_MM_SUPPORTED}")
    fields = ("row", "col") if tokens[3] == "pattern" else ("row", "col", "value")
    symmetric = tokens[4] == "symmetric"

    for lineno, line in lines:
        if line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(path, lineno, "expected 'nrows ncols nnz'")
        try:
            nrows, ncols, declared = (int(v) for v in parts)
        except ValueError:
            raise ParseError(path, lineno, "size line is not integral") from None
        if nrows < 1 or ncols < 1:
            raise ParseError(path, lineno, f"matrix shape must be positive, got {nrows}x{ncols}")
        if symmetric and nrows != ncols:
            raise ParseError(path, lineno, f"symmetric matrix must be square, got {nrows}x{ncols}")
        return _Body(nrows, ncols, declared, lineno, fields, True, symmetric), False
    raise ParseError(path, _past_end(text), "missing size line")


def _bag_of_words_header(path, text: str | bytes, lines) -> tuple[_Body, bool]:
    header = []
    for _ in range(3):
        try:
            lineno, line = next(lines)
        except StopIteration:
            raise ParseError(
                path, _past_end(text), "missing header (need D, W, NNZ lines)"
            ) from None
        try:
            header.append(int(line))
        except ValueError:
            raise ParseError(path, lineno, f"header line is not an integer: {line!r}") from None
        if len(header) < 3 and header[-1] < 1:
            raise ParseError(path, lineno, "document and word counts must be positive")
    n_docs, n_words, declared = header
    # keep the taller orientation so downstream solves see m >= n
    return _Body(n_docs, n_words, declared, lineno, ("docID", "wordID", "count")), n_docs < n_words


def _parse_whole_body(path, body: _Body) -> SparseMatrix | None:
    """The matrix of a plain body, or None when only the per-line pass can tell.

    numpy parses a path with its chunked C reader, but any file object, even
    one over bytes already in memory, one Python line at a time, which is
    slower. So a plain regular file is read twice: as bytes for the header,
    dropped before this read, and here; the per-line pass reads it once more
    if this one returns None. It holds only printable ASCII, tab and newline,
    so the lines numpy skips are the lines ``_numbered_lines`` numbers. numpy
    picks a decompressor by the path's extension (``.gz``, ``.bz2``, ``.xz``,
    ``.lzma``); a plain file of such a name fails to decompress, and the
    per-line pass reads it. Indices out of range are refused by
    :class:`~sketchlr.matrixcore.SparseMatrix`, whose ``ValueError`` returns
    None too.
    """
    dtype = np.dtype(list(zip(body.fields, (np.int64, np.int64, np.float64))))
    try:
        entries = np.loadtxt(
            os.fsdecode(path),  # numpy iterates a bytes path as a file object
            dtype=dtype,
            comments=None,
            ndmin=1,
            skiprows=body.size_line,
            encoding="latin-1",
        )
    except (ValueError, OSError, lzma.LZMAError):
        # a line numpy refuses, or a plain file named like a compressed one
        return None
    rows, cols = entries[body.fields[0]], entries[body.fields[1]]
    if entries.size != body.declared or (body.symmetric and np.any(cols > rows)):
        return None
    # contiguous columns, so the structured array is freed before assembly
    vals = entries[body.fields[2]].copy() if len(body.fields) == 3 else np.ones(entries.size)
    rows, cols = rows - 1, cols - 1
    del entries
    try:
        return _assemble(body, rows, cols, vals)
    except ScaleLimitError:
        raise  # the shape is at fault, not a line
    except (ValueError, OverflowError):
        return None


def _parse_per_line(path, lines, body: _Body) -> SparseMatrix:
    """The body read one line at a time; raises at the first line at fault."""
    pattern = len(body.fields) == 2
    rows, cols, vals = [], [], []
    seen = set()
    for lineno, line in lines:
        if lineno <= body.size_line or (body.comments and line.startswith("%")):
            continue
        parts = line.split()
        if len(parts) != len(body.fields):
            raise ParseError(path, lineno, f"expected '{' '.join(body.fields)}'")
        try:
            i, j = int(parts[0]), int(parts[1])
            v = 1.0 if pattern else float(parts[2])
        except ValueError:
            raise ParseError(path, lineno, f"malformed entry {line!r}") from None
        if not (1 <= i <= body.nrows and 1 <= j <= body.ncols):
            raise ParseError(path, lineno, f"index ({i}, {j}) out of range")
        if body.symmetric and j > i:
            raise ParseError(path, lineno, f"entry ({i}, {j}) lies above the diagonal")
        if not math.isfinite(v):
            raise ParseError(path, lineno, "non-finite value in sparse matrix")
        if v == 0.0:
            raise ParseError(path, lineno, "explicitly stored zero in sparse matrix")
        if (i, j) in seen:
            raise ParseError(path, lineno, f"duplicate coordinate ({i - 1}, {j - 1})")
        seen.add((i, j))
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
    if len(rows) != body.declared:
        raise ParseError(
            path, body.size_line, f"declared {body.declared} entries but found {len(rows)}"
        )
    try:
        return _assemble(
            body,
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(vals, dtype=np.float64),
        )
    except (ValueError, OverflowError) as exc:
        raise ParseError(path, body.size_line, str(exc)) from exc


def _assemble(body: _Body, rows, cols, vals) -> SparseMatrix:
    """Zero-based stored entries as a matrix, mirrored when symmetric."""
    if body.symmetric:
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
    return SparseMatrix(body.nrows, body.ncols, rows, cols, vals)


def load_matrix(path, fmt: str = "matrix_market") -> SparseMatrix:
    """Read a sparse matrix from Matrix Market coordinate text (``general``
    or ``symmetric``; ``real``, ``integer`` or ``pattern``) or the UCI
    bag-of-words triplet layout (transposed to m >= n when needed).

    Malformed input raises :class:`ParseError` naming the line at fault.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    header = _matrix_market_header if fmt == "matrix_market" else _bag_of_words_header
    text, plain = _read_text(path)
    lines = _numbered_lines(text, plain)
    body, transpose = header(path, text, lines)
    # numpy reads the body of a path it can open again, not of a descriptor or pipe the
    # text read closed or emptied, and warns on a body without rows: the per-line pass reads those
    regular = isinstance(path, (str, bytes, os.PathLike)) and stat.S_ISREG(os.stat(path).st_mode)
    try:
        mat = None
        if plain and regular and next(lines, None) is not None:
            del text, lines  # no copy of the file is held while numpy reads it
            if (mat := _parse_whole_body(path, body)) is None:
                lines = _numbered_lines(*_read_text(path))
        if mat is None:
            mat = _parse_per_line(path, lines, body)
        return mat.transpose() if transpose else mat
    except ScaleLimitError as exc:
        # a shape that cannot be stored is refused at the size line, in either pass
        raise ParseError(path, body.size_line, str(exc)) from None


def _read_text(path) -> tuple[str | bytes, bool]:
    """The file's text past a UTF-8 byte order mark, and whether it is plain.

    A plain file stays bytes, with universal newlines, and is decoded a line
    at a time (``_newline_split``); any other is decoded whole as UTF-8, and
    a byte that is not UTF-8 is refused at its line.
    """
    with open(path, "rb") as fh:
        text = fh.read().removeprefix(codecs.BOM_UTF8)
    # 64 KiB at a time: translate allocates its output at its input's length
    plain = not any(
        text[i : i + 2**16].translate(None, _PLAIN_BYTES) for i in range(0, len(text), 2**16)
    )
    if not plain:
        # decoded whole: str.splitlines breaks at "\r\n" and "\r" as universal newlines do
        try:
            return text.decode("utf-8"), False
        except UnicodeDecodeError as exc:
            # the line is numbered as the per-line pass numbers it
            line = len((text[: exc.start].decode("utf-8") + ".").splitlines())
            raise ParseError(path, line, f"byte 0x{text[exc.start]:02x} is not UTF-8") from None
    if b"\r" in text:
        text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return text, True


def write_matrix_market(path, mat: SparseMatrix) -> None:
    """Write coordinate-format Matrix Market text (full float precision)."""
    rows, cols, vals = mat.triplets()
    entries = zip((rows + 1).tolist(), (cols + 1).tolist(), vals.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{mat.nrows} {mat.ncols} {mat.nnz}\n")
        fh.write("%d %d %.17g\n" * mat.nnz % tuple(itertools.chain.from_iterable(entries)))


def _load_source(cfg: ExperimentConfig, matrix_stream: RandomStream) -> SparseMatrix:
    if cfg.input_path is not None:
        return load_matrix(cfg.input_path, cfg.input_format)
    return generate_synthetic(cfg.nrows, cfg.ncols, cfg.density, matrix_stream)


def run_experiment(
    cfg: ExperimentConfig,
) -> tuple[list[TrialRecord], list[SummaryRow]]:
    """Run the benchmark described by ``cfg``.

    Both algorithms see the same matrix; every (k, trial, algo) cell gets its
    own split stream, so reruns with the same config are bit-identical.
    """
    cfg.validate()
    root = RandomStream(cfg.seed)
    matrix_stream, trial_root = root.split(2)
    a = _load_source(cfg, matrix_stream)
    if any(k >= min(a.shape) for k in cfg.k_list):
        raise ValueError(f"every k must be below min(shape) = {min(a.shape)}")

    scorer = OracleScorer(a) if cfg.oracle else None
    # the Frobenius baseline is simplified mode at p = 1: Z from the
    # top-k of a k^2-row CountSketch of A, and Y = A Z
    algos = (
        ("schatten_p", cfg.p, cfg.eps, cfg.mode),
        ("frobenius_baseline", 1.0, 0.5, "simplified_experiment"),
    )
    records: list[TrialRecord] = []
    for k in cfg.k_list:
        for trial in range(cfg.trials):
            for (algo, p, eps, mode), stream in zip(algos, trial_root.split(2)):
                t0 = time.perf_counter()
                rep = solve_schatten(a, k, p, eps, stream, mode)
                wall_ms = (time.perf_counter() - t0) * 1e3
                rel_error = None
                if scorer is not None:
                    rel_error = scorer.relative_error(rep.factors, lambda s: schatten_norm(s, p))
                records.append(
                    TrialRecord(k, trial, algo, rel_error, wall_ms, stream.seed, rep.fallback_used)
                )

    summary = summarize(records)
    return records, summary


def summarize(records: list[TrialRecord]) -> list[SummaryRow]:
    """Median rel-error and wall time per (k, algo), in canonical order."""
    cells: dict[tuple[int, str], list[TrialRecord]] = {}
    for rec in records:
        cells.setdefault((rec.k, rec.algo), []).append(rec)
    rows = []
    for (k, algo), cell in sorted(cells.items()):
        errs = [r.rel_error for r in cell if r.rel_error is not None]
        med_err = float(np.median(errs)) if errs else None
        med_wall = float(np.median([r.wall_ms for r in cell]))
        rows.append(
            SummaryRow(
                k=k,
                algo=algo,
                median_rel_error=med_err,
                median_wall_ms=med_wall,
                n_trials=len(cell),
            )
        )
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


TRIALS_HEADER = ["k", "trial", "algo", "rel_error", "wall_ms", "seed", "fallback"]
SUMMARY_HEADER = ["k", "algo", "median_rel_error", "median_wall_ms", "n_trials"]


def emit_csv(records, summary, path) -> None:
    """Write ``<path>.trials.csv`` and ``<path>.summary.csv``.

    A row is its record's fields in order, the order of the header.
    Floats are serialized at 6 significant digits; rows are sorted by
    (k, algo, trial) so output is bit-stable for a fixed seed.
    """
    path = str(path)
    tables = (
        ("trials", TRIALS_HEADER, sorted(records, key=lambda r: (r.k, r.algo, r.trial_index))),
        ("summary", SUMMARY_HEADER, sorted(summary, key=lambda r: (r.k, r.algo))),
    )
    try:
        for suffix, header, rows in tables:
            with open(f"{path}.{suffix}.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows([_fmt(v) for v in astuple(row)] for row in rows)
    except OSError as exc:
        raise OSError(f"failed to write CSV at {path!r}: {exc}") from exc


def _read_csv(path, header: list[str], record, fields) -> list:
    """The rows of a CSV written by :func:`emit_csv`, field i read by ``fields[i]``."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first != header:
            found = "an empty file" if first is None else repr(first)
            raise ParseError(path, 1, f"expected header {header!r}, found {found}")
        out = []
        for row in reader:
            if len(row) != len(header):
                raise ParseError(
                    path, reader.line_num, f"expected {len(header)} fields, found {len(row)}"
                )
            try:
                out.append(record(*(read(v) for read, v in zip(fields, row))))
            except ValueError as exc:
                raise ParseError(path, reader.line_num, str(exc)) from None
    return out


def _float_or_none(text: str) -> float | None:
    return float(text) if text else None


def read_trials_csv(path) -> list[TrialRecord]:
    """Parse a trials CSV back into records (inverse of :func:`emit_csv`)."""
    fields = (int, int, str, _float_or_none, float, int, lambda v: v == "1")
    return _read_csv(path, TRIALS_HEADER, TrialRecord, fields)


def read_summary_csv(path) -> list[SummaryRow]:
    """Parse a summary CSV back into rows (inverse of :func:`emit_csv`)."""
    fields = (int, str, _float_or_none, float, int)
    return _read_csv(path, SUMMARY_HEADER, SummaryRow, fields)
