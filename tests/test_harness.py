"""Tests for synthetic generation, file ingestion, trial runs and CSV I/O."""

import math
import os
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import make_gen, random_rank_k, random_sparse, singular_values
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sketchlr.harness as harness
import sketchlr.matrixcore as matrixcore
import sketchlr.sketches as sketches
import sketchlr.solver as solver
from sketchlr import (
    ExperimentConfig,
    ParseError,
    RandomStream,
    ScaleLimitError,
    SparseMatrix,
    SummaryRow,
    TrialRecord,
    emit_csv,
    generate_synthetic,
    load_matrix,
    read_summary_csv,
    read_trials_csv,
    relative_error_from,
    run_experiment,
    schatten_norm,
    summarize,
    write_matrix_market,
)

DATA = Path(__file__).parent / "data"


class TestGenerateSynthetic:
    def test_full_density(self):
        mat = generate_synthetic(12, 9, 1.0, RandomStream(1))
        dense = mat.to_dense()
        assert mat.nnz == 12 * 9
        assert dense.min() > 0.0 and dense.max() <= 1.0

    def test_zero_density_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(5, 5, 0.0, RandomStream(1))

    def test_nnz_within_binomial_band(self):
        n = m = 300
        density = 0.05
        mat = generate_synthetic(m, n, density, RandomStream(7))
        mean = m * n * density
        band = 3.0 * np.sqrt(m * n * density * (1 - density))
        assert abs(mat.nnz - mean) <= band

    def test_reproducible(self):
        a = generate_synthetic(20, 15, 0.3, RandomStream(11))
        b = generate_synthetic(20, 15, 0.3, RandomStream(11))
        np.testing.assert_array_equal(a.to_dense(), b.to_dense())

    @pytest.mark.parametrize(
        "nrows, message",
        [
            (2**63, "matrix shape 9223372036854775808x3 exceeds the int64 index range"),
            (10**13, "a 10000000000000x3 matrix cannot be stored: Unable"),
        ],
    )
    def test_unstorable_shape_is_refused_before_any_block(self, monkeypatch, nrows, message):
        # scipy's row pointers of 10^13 rows would ask for 72.8 TiB; that
        # failure is injected, and the stream refuses every draw
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB")

        class NoDraws(RandomStream):
            def generator(self):
                raise AssertionError("a refused shape must not draw a block")

        monkeypatch.setattr(matrixcore.sp, "csr_array", out_of_memory)
        with pytest.raises(ScaleLimitError, match=f"^{message}"):
            generate_synthetic(nrows, 3, 0.5, NoDraws(0))

    def test_matrix_seed_gives_identical_matrix(self):
        # the harness derives the matrix from its own split of the run seed,
        # so every algorithm in a run sees the bit-identical matrix
        def draw(seed):
            matrix_stream, _ = RandomStream(seed).split(2)
            mat = generate_synthetic(30, 25, 0.2, matrix_stream)
            return hash(mat.triplets()[2].tobytes())

        assert draw(123) == draw(123)
        assert draw(123) != draw(124)


class TestLoadMatrixMarket:
    def test_single_entry(self):
        mat = load_matrix(DATA / "tiny.mtx")
        assert mat.shape == (1, 1)
        rows, cols, vals = mat.triplets()
        np.testing.assert_array_equal(rows, [0])
        np.testing.assert_array_equal(cols, [0])
        np.testing.assert_array_equal(vals, [2.5])

    def test_write_read_round_trip(self, tmp_path):
        gen = make_gen(3)
        mat = SparseMatrix.from_dense(
            np.where(gen.random((7, 5)) < 0.4, gen.standard_normal((7, 5)), 0.0)
        )
        path = tmp_path / "rt.mtx"
        write_matrix_market(path, mat)
        back = load_matrix(path)
        np.testing.assert_array_equal(back.to_dense(), mat.to_dense())

    def test_out_of_range_index_reports_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5.0\n"
        )
        with pytest.raises(ParseError, match=r"bad\.mtx:3"):
            load_matrix(path)

    def test_malformed_value_reports_line(self, tmp_path):
        path = tmp_path / "bad2.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n"
        )
        with pytest.raises(ParseError, match="bad2.mtx:3"):
            load_matrix(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 1 1.0\n1 1 2.0\n"
        )
        with pytest.raises(ParseError, match="duplicate"):
            load_matrix(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n")
        with pytest.raises(ParseError, match="unsupported layout"):
            load_matrix(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "cnt.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n"
        )
        with pytest.raises(ParseError, match="declared 3"):
            load_matrix(path)

    def test_integer_field_accepted(self, tmp_path):
        path = tmp_path / "int.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate integer general\n2 2 1\n2 1 7\n"
        )
        mat = load_matrix(path)
        assert mat.to_dense()[1, 0] == 7.0


class TestLoadBagOfWords:
    def test_fixture_exact_triplets(self):
        # 3 docs x 4 words transposes to 4x3 so the tall orientation holds
        mat = load_matrix(DATA / "tiny_bow.txt", "bag_of_words_triplets")
        assert mat.shape == (4, 3)
        rows, cols, vals = mat.triplets()
        np.testing.assert_array_equal(rows, [0, 0, 1, 2, 3])
        np.testing.assert_array_equal(cols, [0, 2, 1, 0, 2])
        np.testing.assert_array_equal(vals, [2.0, 1.0, 5.0, 1.0, 3.0])

    def test_tall_input_not_transposed(self, tmp_path):
        path = tmp_path / "bow.txt"
        path.write_text("4\n2\n2\n1 1 3\n4 2 1\n")
        mat = load_matrix(path, "bag_of_words_triplets")
        assert mat.shape == (4, 2)

    def test_out_of_range_doc(self, tmp_path):
        path = tmp_path / "bow_bad.txt"
        path.write_text("2\n2\n1\n3 1 1\n")
        with pytest.raises(ParseError, match="bow_bad.txt:4"):
            load_matrix(path, "bag_of_words_triplets")

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bow_short.txt"
        path.write_text("2\n2\n")
        with pytest.raises(ParseError, match="header"):
            load_matrix(path, "bag_of_words_triplets")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            load_matrix(DATA / "tiny.mtx", "hdf5")


MM_HEADER = "%%MatrixMarket matrix coordinate real general\n"


class TestParseErrorLines:
    """Every parse error names ``file:LINE``, also those the whole-array
    checks find, which the per-line pass then places."""

    @pytest.mark.parametrize(
        "text, fmt, line, message",
        [
            (
                MM_HEADER + "% note\n3 3 3\n1 2 1.0\n2 2 1.0\n\n1 2 5.0\n",
                "matrix_market",
                7,
                r"duplicate coordinate \(0, 1\)",
            ),
            (MM_HEADER + "3 3 2\n1 1 1.0\n3 2 0.0\n", "matrix_market", 4, "explicitly stored zero"),
            (MM_HEADER + "3 3 2\n1 1 1.0\n3 2 -inf\n", "matrix_market", 4, "non-finite value"),
            (MM_HEADER + "3 3 2\n1 1 nan\n3 2 1.0\n", "matrix_market", 3, "non-finite value"),
            (MM_HEADER + "% note\n3 3 4\n1 1 1.0\n3 2 1.0\n", "matrix_market", 3, "declared 4 entries but found 2"),
            (MM_HEADER + "0 3 0\n", "matrix_market", 2, "shape must be positive"),
            (
                MM_HEADER + "100000000000000000000 3 1\n1 1 1.0\n",
                "matrix_market",
                2,
                "matrix shape 100000000000000000000x3 exceeds the int64 index range",
            ),
            ("2\n3\n3\n1 1 1\n2 3 1\n", "bag_of_words_triplets", 3, "declared 3 entries but found 2"),
            ("2\n3\n2\n1 1 1\n1 1 4\n", "bag_of_words_triplets", 5, "duplicate coordinate"),
            ("2\n0\n1\n1 1 1\n", "bag_of_words_triplets", 2, "counts must be positive"),
            (
                "3\n100000000000000000000\n1\n1 1 2\n",
                "bag_of_words_triplets",
                3,
                "matrix shape 3x100000000000000000000 exceeds the int64 index range",
            ),
            ("2\n3\n", "bag_of_words_triplets", 3, "missing header"),
            (MM_HEADER + "% no size line\n", "matrix_market", 3, "missing size line"),
        ],
    )
    def test_message_names_its_line(self, tmp_path, text, fmt, line, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=rf"bad\.txt:{line}: .*{message}") as info:
            load_matrix(path, fmt)
        assert info.value.line == line

    def test_control_character_splits_lines_as_the_per_line_rules_do(self, tmp_path):
        # str.splitlines breaks at a form feed, where np.loadtxt sees a space
        path = tmp_path / "ff.mtx"
        path.write_text(MM_HEADER + "2 2 1\n1 1\x0c2.0\n")
        with pytest.raises(ParseError, match=r"ff\.mtx:3: expected 'row col value'"):
            load_matrix(path)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, newline):
        path = tmp_path / "bin.mtx"
        lines = [MM_HEADER.strip().encode(), b"2 2 1", b"1 1 \xff1.0", b""]
        path.write_bytes(newline.join(lines))
        with pytest.raises(ParseError, match=r"bin\.mtx:3: byte 0xff is not UTF-8") as info:
            load_matrix(path)
        assert info.value.line == 3


class TestUnstorableShape:
    """A shape the size line declares whose storage cannot be allocated is
    refused at that line, by shape, in either pass. scipy allocates a row
    pointer per row, so a 10^13-row shape asks for 72.8 TiB; here that
    failure is injected, not provoked."""

    @pytest.fixture
    def out_of_memory(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB")

        return lambda owner, name: monkeypatch.setattr(owner, name, refuse)

    @pytest.mark.parametrize(
        "comment, line", [("", 2), ("% caf\u00e9\n", 3)], ids=["whole-body", "per-line"]
    )
    def test_matrix_market_storage_out_of_memory(self, tmp_path, out_of_memory, comment, line):
        path = tmp_path / "big.mtx"
        path.write_text(MM_HEADER + comment + "10000000000000 3 1\n1 1 1.0\n", encoding="utf-8")
        out_of_memory(matrixcore.sp, "csr_array")
        message = rf"big\.mtx:{line}: a 10000000000000x3 matrix cannot be stored: Unable"
        with pytest.raises(ParseError, match=message) as info:
            load_matrix(path)
        assert info.value.line == line

    def test_bag_of_words_transpose_out_of_memory(self, tmp_path, out_of_memory):
        path = tmp_path / "big.txt"
        path.write_text("3\n10000000000000\n1\n1 1 2\n")
        out_of_memory(matrixcore.sp.csc_array, "tocsr")  # the 3-row matrix itself is small
        with pytest.raises(ParseError, match=r"big\.txt:3: a 10000000000000x3 matrix cannot"):
            load_matrix(path, "bag_of_words_triplets")


class TestMatrixMarketHeaders:
    def _load(self, tmp_path, text):
        path = tmp_path / "m.mtx"
        path.write_text(text)
        return load_matrix(path)

    @pytest.mark.parametrize(
        "text, dense",
        [
            (
                "%%MatrixMarket matrix coordinate pattern general\n3 2 3\n1 1\n2 2\n3 1\n",
                [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
            ),
            (
                "%%MatrixMarket matrix coordinate real symmetric\n"
                "3 3 4\n1 1 2.0\n2 1 -1.5\n3 2 4.0\n3 3 1.0\n",
                [[2.0, -1.5, 0.0], [-1.5, 0.0, 4.0], [0.0, 4.0, 1.0]],
            ),
            (
                "%%MatrixMarket matrix coordinate integer symmetric\n3 3 2\n3 1 7\n2 2 -3\n",
                [[0.0, 0.0, 7.0], [0.0, -3.0, 0.0], [7.0, 0.0, 0.0]],
            ),
            (
                "%%MatrixMarket Matrix Coordinate Pattern Symmetric\n"
                "% comment\n3 3 3\n2 1\n3 3\n3 2\n",
                [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
            ),
        ],
        ids=["pattern", "real-symmetric", "integer-symmetric", "pattern-symmetric"],
    )
    def test_against_dense(self, tmp_path, text, dense):
        np.testing.assert_array_equal(self._load(tmp_path, text).to_dense(), dense)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 1.0\n1 3 2.0\n",
                r"m\.mtx:4: entry \(1, 3\) lies above the diagonal",
            ),
            (
                # the declared count is of stored entries, not of mirrored ones
                "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 1.0\n2 1 2.0\n",
                r"m\.mtx:2: declared 3 entries but found 2",
            ),
            (
                "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n",
                r"m\.mtx:2: symmetric matrix must be square",
            ),
            (
                "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1 1.0\n",
                r"m\.mtx:3: expected 'row col'",
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
                r"m\.mtx:3: expected 'row col value'",
            ),
        ],
    )
    def test_rejected_with_line(self, tmp_path, text, message):
        with pytest.raises(ParseError, match=message):
            self._load(tmp_path, text)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("matrix coordinate real skew-symmetric", "unsupported layout"),
            ("matrix coordinate complex hermitian", "unsupported layout"),
            ("matrix coordinate complex general", "unsupported field type"),
            ("matrix array real general", "unsupported layout"),
        ],
    )
    def test_unsupported_headers(self, tmp_path, header, message):
        with pytest.raises(ParseError, match=rf"m\.mtx:1: {message}") as info:
            self._load(tmp_path, f"%%MatrixMarket {header}\n2 2 1\n1 1 1.0\n")
        # the message names what is read
        assert str(info.value).endswith(
            "supported: 'matrix coordinate' with field real, integer or pattern "
            "and symmetry general or symmetric"
        )


def _per_line_rules(text: str, fmt: str):
    """Reference reader: applies the ingest rules one line at a time and
    returns ``(line, None)`` at the first line they reject, else
    ``(None, matrix)``. General real/integer Matrix Market and bag-of-words
    only."""
    raw = text.splitlines()
    lines = iter([(n, s.strip()) for n, s in enumerate(raw, 1) if s.strip()])
    past_end = len(raw) + 1
    if fmt == "matrix_market":
        first = next(lines, None)
        if first is None:
            return 1, None
        t = first[1].lower().split()
        if len(t) != 5 or t[:3] != ["%%matrixmarket", "matrix", "coordinate"]:
            return first[0], None
        if t[3] not in ("real", "integer") or t[4] != "general":
            return first[0], None
        size = next(((n, s) for n, s in lines if not s.startswith("%")), None)
        if size is None:
            return past_end, None
        try:
            m, n, declared = (int(v) for v in size[1].split())
        except ValueError:
            return size[0], None
        if m < 1 or n < 1:
            return size[0], None
        count_line, comments = size[0], True
    else:
        head = []
        for _ in range(3):
            nxt = next(lines, None)
            if nxt is None:
                return past_end, None
            try:
                head.append(int(nxt[1]))
            except ValueError:
                return nxt[0], None
            if len(head) < 3 and head[-1] < 1:
                return nxt[0], None
        (m, n, declared), count_line, comments = head, nxt[0], False
    entries = {}
    for lineno, line in lines:
        if comments and line.startswith("%"):
            continue
        parts = line.split()
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except (ValueError, IndexError):
            return lineno, None
        if (
            len(parts) != 3
            or not (1 <= i <= m and 1 <= j <= n)
            or not math.isfinite(v)
            or v == 0.0
            or (i, j) in entries
        ):
            return lineno, None
        entries[(i, j)] = v
    if len(entries) != declared:
        return count_line, None
    rows, cols = (np.array([c[k] - 1 for c in entries], dtype=np.int64) for k in (0, 1))
    try:
        mat = SparseMatrix(m, n, rows, cols, np.array(list(entries.values())))
    except (OverflowError, ScaleLimitError):  # a dimension past int64 fails the matrix as a whole
        return count_line, None
    return None, mat.transpose() if fmt != "matrix_market" and m < n else mat


def _old_writer_text(mat: SparseMatrix) -> str:
    # the per-entry f-string writer that write_matrix_market replaced
    rows, cols, vals = mat.triplets()
    out = ["%%MatrixMarket matrix coordinate real general\n", f"{mat.nrows} {mat.ncols} {mat.nnz}\n"]
    out += [f"{i + 1} {j + 1} {v:.17g}\n" for i, j, v in zip(rows, cols, vals)]
    return "".join(out)


def _same_csr(a: SparseMatrix, b: SparseMatrix) -> bool:
    x, y = a.csr, b.csr
    return a.shape == b.shape and all(
        u.dtype == v.dtype and u.tobytes() == v.tobytes()
        for u, v in ((x.data, y.data), (x.indices, y.indices), (x.indptr, y.indptr))
    )


EXTREME = st.sampled_from(
    [5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.7976931348623157e308, -8.98e307]
)
VALUES = st.one_of(
    EXTREME, st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0.0)
)
MM_BASE = MM_HEADER + "4 3 5\n1 1 2.5\n1 3 -1e-3\n2 2 7\n3 1 4.9e-324\n4 3 1.7976931348623157e308\n"
BOW_BASE = (DATA / "tiny_bow.txt").read_text()
TOKENS = [
    "", "0", "-1", "1", "2", "3", "4", "+2", "007", "99", "1.0", "-2.5", "1_0", "nan", "inf",
    "1e400", "1e-400", "%", "%x", "abc", "0x1", "1 1", "2\t3", "-0", "9" * 20, "٣",
]
CHARS = list("\x00\t\n\x0b\x0c\r\x1c\x1f %0123456789.-+e_xnaif#") + ["\x85", " ", "\xa0"]


class TestIngestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 9),
        n=st.integers(1, 9),
        cells=st.lists(st.tuples(st.integers(0, 80), VALUES), max_size=40),
    )
    def test_write_then_load_is_bit_identical(self, tmp_path_factory, m, n, cells):
        coords = {(c // 9 % m, c % 9 % n): v for c, v in cells}
        mat = SparseMatrix(
            m, n, [r for r, _ in coords], [c for _, c in coords], list(coords.values())
        )
        path = tmp_path_factory.mktemp("rt") / "a.mtx"
        write_matrix_market(path, mat)
        assert path.read_bytes() == _old_writer_text(mat).encode()
        assert _same_csr(load_matrix(path), mat)

    @settings(max_examples=150, deadline=None)
    @given(
        fmt=st.sampled_from(["matrix_market", "bag_of_words_triplets"]),
        kind=st.sampled_from(["token", "replace", "insert", "delete"]),
        where=st.integers(0, 10**6),
        token=st.sampled_from(TOKENS),
        char=st.sampled_from(CHARS),
    )
    # the size line's row count past int64: refused at that line, by shape
    @example(fmt="matrix_market", kind="token", where=5, token="9" * 20, char="\x00")
    def test_mutated_file_follows_the_per_line_rules(
        self, tmp_path_factory, fmt, kind, where, token, char
    ):
        base = MM_BASE if fmt == "matrix_market" else BOW_BASE
        if kind == "token":
            pieces = re.split(r"(\s+)", base)
            words = [k for k, p in enumerate(pieces) if p and not p.isspace()]
            pieces[words[where % len(words)]] = token
            text = "".join(pieces)
        else:
            at = where % len(base)
            tail = base[at + 1 :] if kind != "insert" else base[at:]
            text = base[:at] + ("" if kind == "delete" else char) + tail
        path = tmp_path_factory.mktemp("mut") / "m.txt"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with open(path, encoding="utf-8") as fh:
            line, want = _per_line_rules(fh.read(), fmt)
        if line is None:
            assert _same_csr(load_matrix(path, fmt), want)
        else:
            with pytest.raises(ParseError) as info:
                load_matrix(path, fmt)
            assert info.value.line == line


class TestWholeBodyParse:
    def test_successful_loads_run_no_per_line_pass(self, tmp_path, monkeypatch):
        def forbidden(*args):
            raise AssertionError("per-line pass ran on a valid file")

        path = tmp_path / "a.mtx"
        write_matrix_market(path, random_sparse(make_gen(41), 60, 45, density=0.2))
        sym = tmp_path / "s.mtx"
        sym.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 3\n")
        monkeypatch.setattr(harness, "_parse_per_line", forbidden)
        for p, fmt in [
            (DATA / "tiny.mtx", "matrix_market"),
            (DATA / "tiny_bow.txt", "bag_of_words_triplets"),
            (path, "matrix_market"),
            (sym, "matrix_market"),
        ]:
            load_matrix(p, fmt)

    @pytest.mark.parametrize(
        "name, fmt",
        [("tiny.mtx", "matrix_market"), ("tiny_bow.txt", "bag_of_words_triplets")],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, name, fmt):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + (DATA / name).read_bytes())
        want = load_matrix(DATA / name, fmt)
        monkeypatch.setattr(harness, "_parse_per_line", None)  # the whole-body parse reads it
        got = load_matrix(path, fmt)
        assert got.shape == want.shape
        for g, w in zip(got.triplets(), want.triplets()):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize(
        "body",
        ["1 1 1_0\n2 1 -2.5\n", "1 1 10\n% a comment among the entries\n2 1 -2.5\n"],
        ids=["underscore", "comment"],
    )
    def test_what_loadtxt_refuses_still_loads(self, tmp_path, body):
        path = tmp_path / "slow.mtx"
        path.write_text(MM_HEADER + "2 2 2\n" + body)
        np.testing.assert_array_equal(load_matrix(path).to_dense(), [[10.0, 0.0], [-2.5, 0.0]])

    @pytest.fixture(scope="class")
    def megabyte(self, tmp_path_factory):
        # about 1 MB of Matrix Market text, and the same entries as bag-of-words triplets
        gen = make_gen(20000)
        m = n = 20000
        flat = np.sort(gen.choice(m * n, size=33_000, replace=False))
        mat = SparseMatrix(m, n, flat // n, flat % n, 1.0 - gen.random(flat.size))
        base = tmp_path_factory.mktemp("ingest")
        mtx, bow = base / "a.mtx", base / "a.bow"
        write_matrix_market(mtx, mat)
        bow.write_text(f"{m}\n{n}\n{mat.nnz}\n" + mtx.read_text().split("\n", 2)[2])
        return mat, {"matrix_market": mtx, "bag_of_words_triplets": bow}

    @pytest.mark.parametrize("fmt", ["matrix_market", "bag_of_words_triplets"])
    def test_traced_peak_stays_below_five_times_the_file(self, megabyte, fmt):
        # numpy reads the body from the path, so no copy of the text is made for it
        mat, paths = megabyte
        path = paths[fmt]
        load_matrix(path, fmt)  # the imports a first read makes are not the read's memory
        tracemalloc.start()
        try:
            got = load_matrix(path, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _same_csr(got, mat)
        assert peak < 5 * path.stat().st_size

    @pytest.mark.parametrize("fmt", ["matrix_market", "bag_of_words_triplets"])
    def test_no_copy_of_the_file_is_held_while_numpy_reads(self, megabyte, fmt, monkeypatch):
        # the header's bytes and the lines over them are dropped before numpy
        # reads the body from the path; the per-line pass would read it again
        mat, paths = megabyte
        path = paths[fmt]
        held, loadtxt = [], np.loadtxt

        def spy(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        load_matrix(path, fmt)  # the imports a first read makes are not the read's memory
        tracemalloc.start()
        try:
            got = load_matrix(path, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _same_csr(got, mat)
        assert len(held) == 2 and held[1] < path.stat().st_size / 10
        # 1.71 times the file measured, the structured array numpy returns
        # and the CSR built from it; 2.72 while the bytes were held
        assert peak < 2 * path.stat().st_size

    @staticmethod
    def _feed(data: bytes, target) -> threading.Thread:
        # a pipe holds 64 KiB, so its writer runs beside the reader
        def write():
            with open(target, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=write)
        writer.start()
        return writer

    @pytest.mark.parametrize("fmt", ["matrix_market", "bag_of_words_triplets"])
    @pytest.mark.parametrize("source", ["descriptor", "pipe", "fifo"])
    def test_a_file_that_cannot_be_read_again_loads(self, megabyte, tmp_path, fmt, source):
        # the text read closes a descriptor and empties a pipe, so their
        # body is read from the lines already held
        mat, paths = megabyte
        data = paths[fmt].read_bytes()
        writer = None
        if source == "descriptor":
            target = os.open(paths[fmt], os.O_RDONLY)
        elif source == "pipe":
            target, w = os.pipe()
            writer = self._feed(data, w)
        else:
            target = tmp_path / "fifo"
            os.mkfifo(target)
            writer = self._feed(data, target)
        try:
            got = load_matrix(target, fmt)
        finally:
            if writer is not None:
                writer.join()
        assert _same_csr(got, mat)
        assert _same_csr(got, load_matrix(paths[fmt], fmt))

    @pytest.mark.parametrize("source", ["descriptor", "pipe"])
    def test_a_pipe_names_the_line_at_fault(self, tmp_path, source):
        path = tmp_path / "bad.mtx"
        path.write_text(MM_HEADER + "3 3 3\n1 1 1.0\n2 x 2.0\n3 3 3.0\n")
        with pytest.raises(ParseError) as want:
            load_matrix(path)
        if source == "descriptor":
            target = os.open(path, os.O_RDONLY)
        else:
            target, w = os.pipe()
            self._feed(path.read_bytes(), w).join()
        with pytest.raises(ParseError) as got:
            load_matrix(target)
        assert got.value.line == want.value.line == 4
        assert str(got.value).split(": ", 1)[1] == str(want.value).split(": ", 1)[1]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_file_named_like_a_compressed_one_loads(self, megabyte, tmp_path, suffix):
        # numpy opens such a path with a decompressor, which fails on plain text
        mat, paths = megabyte
        path = tmp_path / f"x.mtx{suffix}"
        path.write_bytes(paths["matrix_market"].read_bytes())
        assert _same_csr(load_matrix(path), mat)


class TestRunExperiment:
    def _config(self, **kw):
        base = dict(
            k_list=[2],
            p=1.0,
            eps=0.5,
            trials=2,
            seed=123,
            mode="simplified_experiment",
            oracle=True,
            nrows=40,
            ncols=30,
            density=0.3,
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_deterministic_records(self):
        # everything except measured wall time must be bit-identical
        r1, s1 = run_experiment(self._config())
        r2, s2 = run_experiment(self._config())
        strip = [(r.k, r.trial_index, r.algo, r.rel_error, r.seed, r.fallback_used) for r in r1]
        strip2 = [(r.k, r.trial_index, r.algo, r.rel_error, r.seed, r.fallback_used) for r in r2]
        assert strip == strip2
        assert [(x.k, x.algo, x.median_rel_error, x.n_trials) for x in s1] == [
            (x.k, x.algo, x.median_rel_error, x.n_trials) for x in s2
        ]

    def test_exact_rank_k_input(self, tmp_path):
        gen = make_gen(5)
        dense = random_rank_k(gen, 30, 20, 2)
        path = tmp_path / "rank2.mtx"
        write_matrix_market(path, SparseMatrix.from_dense(dense))
        cfg = self._config(
            nrows=None, ncols=None, density=None, input_path=str(path), trials=3
        )
        records, summary = run_experiment(cfg)
        assert all(rec.rel_error <= 1e-6 for rec in records)
        assert {row.algo for row in summary} == {"schatten_p", "frobenius_baseline"}

    def test_summary_shape(self):
        cfg = self._config(k_list=[2, 3])
        records, summary = run_experiment(cfg)
        assert len(records) == 2 * 2 * 2  # k x algo x trials
        assert [(r.k, r.algo) for r in summary] == [
            (2, "frobenius_baseline"),
            (2, "schatten_p"),
            (3, "frobenius_baseline"),
            (3, "schatten_p"),
        ]
        assert all(r.n_trials == 2 for r in summary)

    def test_no_oracle_leaves_errors_empty(self):
        cfg = self._config(oracle=False)
        records, summary = run_experiment(cfg)
        assert all(rec.rel_error is None for rec in records)
        assert all(row.median_rel_error is None for row in summary)

    def test_one_factorization_per_oracle_run(self, tmp_path, monkeypatch):
        a = random_sparse(make_gen(17), 60, 45, density=0.3)
        path = tmp_path / "a.mtx"
        write_matrix_market(path, a)
        dense = a.to_dense()
        real_scorer, real_svd = harness.OracleScorer, matrixcore.svd
        real_top = solver.top_singular

        built = []

        def scorer_spy(mat):
            built.append(mat.shape)
            return real_scorer(mat)

        svd_shapes, factored = [], []

        def svd_spy(x):
            svd_shapes.append(np.shape(x))
            return real_svd(x)

        def top_spy(chunks, k, right=None):
            [x] = chunks = list(chunks)  # a small SA is held whole: one chunk
            factored.append(np.shape(x))
            return real_top(chunks, k, right)

        reports = []

        def capture(solve):
            def wrapped(*args, **kwargs):
                reports.append(solve(*args, **kwargs))
                return reports[-1]

            return wrapped

        monkeypatch.setattr(harness, "OracleScorer", scorer_spy)
        for module in (matrixcore, sketches, solver):
            monkeypatch.setattr(module, "svd", svd_spy)
        monkeypatch.setattr(solver, "top_singular", top_spy)
        monkeypatch.setattr(harness, "solve_schatten", capture(harness.solve_schatten))

        cfg = self._config(
            k_list=[2, 4, 6],
            p=1.5,
            nrows=None,
            ncols=None,
            density=None,
            input_path=str(path),
        )
        records, _ = run_experiment(cfg)
        assert built == [a.shape]
        # every solve factors its k^2 x n CountSketch SA once, never A itself
        assert factored == [(rec.k * rec.k, a.shape[1]) for rec in records]
        assert a.shape not in svd_shapes and a.shape[::-1] not in svd_shapes
        # reference: dense spectra of A and of each residual
        sigma = singular_values(dense)
        assert len(records) == len(reports) == 3 * 2 * 2
        for rec, rep in zip(records, reports):
            p = 1.5 if rec.algo == "schatten_p" else 1.0
            resid = singular_values(dense - rep.factors.y @ rep.factors.z.T)
            want = relative_error_from(
                schatten_norm(resid, p),
                schatten_norm(sigma[rec.k :], p),
                schatten_norm(sigma, p),
            )
            assert want > 1e-6
            assert rec.rel_error == pytest.approx(want, rel=1e-12)

    def test_oracle_guard_guidance(self):
        cfg = self._config(nrows=5001, ncols=5001, density=0.0001, k_list=[2])
        with pytest.raises(ValueError, match="oracle flag"):
            run_experiment(cfg)

    def test_k_validation(self):
        cfg = self._config(k_list=[40])
        with pytest.raises(ValueError, match="below min"):
            run_experiment(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="k_list"):
            ExperimentConfig(k_list=[]).validate()
        with pytest.raises(ValueError, match="source"):
            ExperimentConfig(k_list=[2]).validate()
        with pytest.raises(ValueError, match="density"):
            ExperimentConfig(k_list=[2], nrows=5, ncols=5, density=1.5).validate()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"mode": "bogus"}, "unknown mode 'bogus'"),
            ({"p": 0.5}, "p must be a finite value >= 1, got 0.5"),
            ({"eps": -1.0}, "eps must be positive"),
            ({"eps": math.nan}, "eps must be positive"),
        ],
        ids=["mode", "p", "eps_negative", "eps_nan"],
    )
    def test_a_bad_solve_setting_is_refused_before_the_matrix_is_read(
        self, setting, message, monkeypatch
    ):
        # the solve refuses each of these too, but only after the matrix is
        # drawn and the oracle has densified and factored it
        called = []

        def spy(name, real):
            def wrapped(*args, **kwargs):
                called.append(name)
                return real(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(harness, "generate_synthetic", spy("read", harness.generate_synthetic))
        monkeypatch.setattr(harness, "OracleScorer", spy("oracle", harness.OracleScorer))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_experiment(self._config(**setting))
        assert called == []

    @pytest.mark.parametrize(
        "k_list, rank", [([0], "0"), ([2.5], "2.5"), ([2, -1], "-1"), ([3, "4"], "'4'")]
    )
    def test_a_rank_not_an_integer_of_at_least_one_is_refused_before_the_matrix_is_read(
        self, k_list, rank, tmp_path, monkeypatch
    ):
        # the solve refuses it too, but only after the file is read and the
        # oracle has densified and factored it
        path = tmp_path / "a.mtx"
        write_matrix_market(path, random_sparse(make_gen(7), 12, 10, density=0.5))
        called = []

        def spy(name, real):
            def wrapped(*args, **kwargs):
                called.append(name)
                return real(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(harness, "load_matrix", spy("read", harness.load_matrix))
        monkeypatch.setattr(harness, "OracleScorer", spy("oracle", harness.OracleScorer))
        cfg = ExperimentConfig(k_list=k_list, oracle=True, input_path=str(path))
        message = f"k_list holds rank {rank}: each rank must be an integer >= 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_experiment(cfg)
        assert called == []

    @pytest.mark.parametrize("k_list, rank", [([2, 2], 2), ([3, 2, 3], 3), ([2, 5, 4, 5, 4], 5)])
    def test_repeated_rank_is_refused(self, k_list, rank):
        cfg = self._config(k_list=k_list)
        with pytest.raises(ValueError, match=f"k_list repeats rank {rank}:"):
            cfg.validate()
        with pytest.raises(ValueError, match="repeats rank"):
            run_experiment(cfg)


def _independent_median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


class TestCsvEmission:
    def test_empty_records_header_only(self, tmp_path):
        base = tmp_path / "empty"
        emit_csv([], [], base)
        assert (tmp_path / "empty.trials.csv").read_text().strip() == (
            "k,trial,algo,rel_error,wall_ms,seed,fallback"
        )
        assert read_trials_csv(tmp_path / "empty.trials.csv") == []

    def test_single_record_two_lines(self, tmp_path):
        rec = TrialRecord(2, 0, "schatten_p", 0.125, 3.5, 42, False)
        emit_csv([rec], summarize([rec]), tmp_path / "one")
        lines = (tmp_path / "one.trials.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_round_trip_to_serialized_precision(self, tmp_path):
        cfg = ExperimentConfig(
            k_list=[2],
            trials=3,
            seed=9,
            oracle=True,
            nrows=25,
            ncols=20,
            density=0.4,
        )
        records, summary = run_experiment(cfg)
        emit_csv(records, summary, tmp_path / "run")
        back = read_trials_csv(tmp_path / "run.trials.csv")
        assert len(back) == len(records)
        by_key = {(r.k, r.algo, r.trial_index): r for r in records}
        for rec in back:
            orig = by_key[(rec.k, rec.algo, rec.trial_index)]
            assert rec.seed == orig.seed
            assert rec.fallback_used == orig.fallback_used
            assert rec.rel_error == pytest.approx(orig.rel_error, rel=1e-5, abs=1e-11)
            assert rec.wall_ms == pytest.approx(orig.wall_ms, rel=1e-5)
        back_summary = read_summary_csv(tmp_path / "run.summary.csv")
        assert [(r.k, r.algo, r.n_trials) for r in back_summary] == [
            (r.k, r.algo, r.n_trials) for r in summary
        ]

    def test_median_matches_independent_oracle(self):
        gen = make_gen(31)
        for n in (1, 2, 5, 8, 50):
            vals = gen.random(n).tolist()
            records = [
                TrialRecord(1, i, "schatten_p", v, 1.0, 0, False)
                for i, v in enumerate(vals)
            ]
            row = summarize(records)[0]
            assert row.median_rel_error == pytest.approx(
                _independent_median(vals), rel=1e-12
            )

    def test_rows_are_byte_exact(self, tmp_path):
        # None is an empty field, True is 1, a float has 6 significant digits
        rec = TrialRecord(3, 7, "schatten_p", None, 1234.56789, 2**40, True)
        row = SummaryRow(3, "schatten_p", 0.000123456789, 2.0, 5)
        emit_csv([rec], [row], tmp_path / "b")
        assert (tmp_path / "b.trials.csv").read_bytes() == (
            b"k,trial,algo,rel_error,wall_ms,seed,fallback\r\n"
            b"3,7,schatten_p,,1234.57,1099511627776,1\r\n"
        )
        assert (tmp_path / "b.summary.csv").read_bytes() == (
            b"k,algo,median_rel_error,median_wall_ms,n_trials\r\n"
            b"3,schatten_p,0.000123457,2,5\r\n"
        )

    def test_deterministic_row_order(self, tmp_path):
        recs = [
            TrialRecord(3, 1, "schatten_p", 0.1, 1.0, 1, False),
            TrialRecord(2, 0, "schatten_p", 0.1, 1.0, 2, False),
            TrialRecord(2, 0, "frobenius_baseline", 0.1, 1.0, 3, True),
            TrialRecord(2, 1, "schatten_p", 0.1, 1.0, 4, False),
        ]
        emit_csv(recs, summarize(recs), tmp_path / "ord")
        rows = (tmp_path / "ord.trials.csv").read_text().strip().splitlines()[1:]
        keys = [tuple(r.split(",")[:3]) for r in rows]
        assert keys == sorted(keys, key=lambda t: (int(t[0]), t[2], int(t[1])))

    def test_write_failure_has_path_context(self):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_csv([], [], "/no/such/dir/base")


class TestCsvParseErrors:
    TABLES = {
        "trials": (read_trials_csv, harness.TRIALS_HEADER, "2,0,schatten_p,0.1,1.5,7,0"),
        "summary": (read_summary_csv, harness.SUMMARY_HEADER, "2,schatten_p,0.1,1.5,3"),
    }

    @pytest.mark.parametrize("table", sorted(TABLES))
    @pytest.mark.parametrize(
        "case", ["empty file", "short row", "bad int", "bad float", "no header"]
    )
    def test_error_names_its_line(self, tmp_path, table, case):
        read, header, row = self.TABLES[table]
        head = ",".join(header)
        text, line, message = {
            "empty file": ("", 1, "expected header .*, found an empty file"),
            "short row": (f"{head}\n{row}\n2,0\n", 3, f"expected {len(header)} fields, found 2"),
            "bad int": (f"{head}\n{row}\nx{row[1:]}\n", 3, "invalid literal for int"),
            "bad float": (f"{head}\n{row.replace('1.5', 'fast')}\n", 2, "could not convert"),
            "no header": (f"{row}\n", 1, "expected header"),
        }[case]
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=rf"t\.csv:{line}: {message}") as info:
            read(path)
        assert info.value.line == line
        path.write_text(f"{head}\n{row}\n")
        assert len(read(path)) == 1


def _empty_file(tmp_path):
    path = tmp_path / "empty.mtx"
    path.write_text("")
    return load_matrix(path)


_SYNTHETIC = {"k_list": [2], "nrows": 5, "ncols": 5, "density": 0.5}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda _: ExperimentConfig(**_SYNTHETIC, trials=0).validate(), "trials must be >= 1"),
        (
            lambda _: ExperimentConfig(**_SYNTHETIC, input_path="a.mtx").validate(),
            "choose either a synthetic source or an input file",
        ),
        (
            lambda _: ExperimentConfig(k_list=[2], nrows=5).validate(),
            "synthetic source needs nrows, ncols and density",
        ),
        (
            lambda _: ExperimentConfig([2], input_path="a.mtx", input_format="csv").validate(),
            "unknown format 'csv'",
        ),
        (
            lambda _: generate_synthetic(0, 5, 0.5, RandomStream(0)),
            "matrix shape must be positive",
        ),
        (_empty_file, "empty.mtx:1: empty file"),
    ],
    ids=["trials", "two_sources", "partial_shape", "format", "synthetic_shape", "empty_file"],
)
def test_refusals_name_what_is_wrong(call, message, tmp_path):
    with pytest.raises(ValueError, match=f"{re.escape(message)}$"):
        call(tmp_path)
