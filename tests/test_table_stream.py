"""Table files read in chunks: the file reader against the whole-text reference.

``load_table`` reads a file CHUNK_BYTES bytes at a time, on to the end of
the line, and decodes each chunk alone; ``loads_table`` cuts its string the
same way.  Patching the chunk size down to a few bytes makes the reads end
inside tokens, inside multi-byte characters and between "\\r" and "\\n".
"""

import io
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rootsets import kernel
from rootsets.catalog import generalized_quaternion
from rootsets.kernel import TableFormatError, dumps_table, load_table, loads_table
from test_table_io import (
    MALFORMED,
    ROW_TEXT,
    Z4,
    outcome,
    reference_outcome,
    table_lines,
    with_rows,
)

CHUNKS = [1, 2, 7, kernel.CHUNK_BYTES]


def reference_file_outcome(data):
    """The reference's outcome on a file's bytes, decoded whole: a byte that
    is not UTF-8 is refused before anything else is read."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return TableFormatError, f"invalid UTF-8 at byte {exc.start}"
    return reference_outcome(text)


def file_outcome(path, data, chunk):
    """``load_table``'s outcome on ``data`` written to ``path``, read in
    chunks of ``chunk`` bytes."""
    path.write_bytes(data)
    with mock.patch.object(kernel, "CHUNK_BYTES", chunk):
        return outcome(load_table, path)


def text_outcome(text, chunk):
    with mock.patch.object(kernel, "CHUNK_BYTES", chunk):
        return outcome(loads_table, text)


def assert_both_match(path, text, chunk):
    """The file and the string reader each give the reference's outcome."""
    want = reference_outcome(text)
    assert file_outcome(path, text.encode("utf-8"), chunk) == want
    assert text_outcome(text, chunk) == want


# the Z4 table with one of each kind of line break in place of every "\n"
LINE_BREAKS = {"crlf": "\r\n", "cr": "\r", "line-separator": "\u2028",
               "paragraph-separator": "\u2029", "nel": "\x85", "vt": "\x0b", "ff": "\x0c",
               "file-separator": "\x1c"}
NAMES = {"accented": "e é ٣ ç", "wide": "e 三 é٣ 𝔸"}


@pytest.mark.parametrize("chunk", CHUNKS)
class TestSameOutcomeAsTheReference:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed(self, case, chunk, tmp_path):
        assert_both_match(tmp_path / "t.tbl", MALFORMED[case], chunk)

    @pytest.mark.parametrize("brk", sorted(LINE_BREAKS))
    @pytest.mark.parametrize("case", ["trailing-line", "comment-between-rows", "ragged-short",
                                      "x", "not-latin"])
    def test_line_breaks(self, brk, case, chunk, tmp_path):
        text = MALFORMED[case].replace("\n", LINE_BREAKS[brk])
        assert_both_match(tmp_path / "t.tbl", text, chunk)
        assert_both_match(tmp_path / "t.tbl", Z4.replace("\n", LINE_BREAKS[brk]), chunk)

    def test_mixed_line_breaks(self, chunk, tmp_path):
        text = "4\r\ne a b c\r0 1 2 3\u20281 2 3 0\n\r\n2 3 0 1\r\r\n3 0 1 2"
        assert_both_match(tmp_path / "t.tbl", text, chunk)
        assert text_outcome(text, chunk)[0] == loads_table(Z4).table.tolist()

    @pytest.mark.parametrize("names", sorted(NAMES))
    def test_multi_byte_names(self, names, chunk, tmp_path):
        text = Z4.replace("e a b c", NAMES[names])
        assert_both_match(tmp_path / "t.tbl", text, chunk)
        assert file_outcome(tmp_path / "t.tbl", text.encode("utf-8"), chunk)[1] == (
            NAMES[names].split())

    def test_a_leading_byte_order_mark(self, chunk, tmp_path):
        text = "\ufeff" + Z4
        assert_both_match(tmp_path / "t.tbl", text, chunk)
        assert text_outcome(text, chunk) == (TableFormatError, "bad order line: '\\ufeff4'")

    @pytest.mark.parametrize("text, message", [
        (Z4.replace("2 3 0 1", "2 x 0 1") + "0 1 2 3\n", "expected 6 content lines, got 7"),
        (Z4.replace("1 2 3 0", "1 2 3").replace("3 0 1 2\n", ""),
         "expected 6 content lines, got 5"),
        (Z4.replace("e a b c", "e a b").replace("2 3 0 1", "2 x 0 1"), "expected 4 names, got 3"),
    ], ids=["extra-line", "missing-line", "names"])
    def test_the_first_error_wins(self, text, message, chunk, tmp_path):
        """The line count is checked before the names and the rows, though a
        bad row comes first in the file."""
        assert_both_match(tmp_path / "t.tbl", text, chunk)
        assert text_outcome(text, chunk) == (TableFormatError, message)

    @pytest.mark.parametrize("text", ["-1\n", "0\ne\n", "0\n# no names\n\n1 2\n"])
    def test_an_order_below_one(self, text, chunk, tmp_path):
        # the reference has no such check: it fails on "-1" with an IndexError
        want = (TableFormatError, "group order must be at least 1")
        assert file_outcome(tmp_path / "t.tbl", text.encode("utf-8"), chunk) == want
        assert text_outcome(text, chunk) == want


class TestDrawnRows:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.dictionaries(st.integers(0, n - 1), ROW_TEXT,
                                                        max_size=n))),
           st.sampled_from(CHUNKS), st.sampled_from(["\n", "\r\n", "\r", "\u2028"]))
    def test_drawn_rows_from_a_file(self, tmp_path_factory, drawn, chunk, brk):
        n, rows = drawn
        text = with_rows(table_lines(n), rows).replace("\n", brk)
        path = tmp_path_factory.getbasetemp() / "drawn.tbl"
        assert file_outcome(path, text.encode("utf-8"), chunk) == (
            reference_outcome(text))
        assert text_outcome(text, chunk) == reference_outcome(text)

    @settings(max_examples=20, deadline=None)
    @given(st.dictionaries(st.integers(0, 199), ROW_TEXT, max_size=4), st.sampled_from(CHUNKS))
    def test_drawn_rows_across_blocks_from_a_file(self, tmp_path_factory, rows, chunk):
        text = with_rows(table_lines(200), rows)
        path = tmp_path_factory.getbasetemp() / "drawn200.tbl"
        assert file_outcome(path, text.encode("utf-8"), chunk) == reference_outcome(text)


LINE_TEXT = st.lists(st.sampled_from(["\n", "\r", "\r\n", "\u2028", "\x85", "é", "٣", "x",
                                      " ", "1"]), max_size=40).map("".join)


class TestChunks:
    """The argument of ``loads_table``'s docstring, checked directly."""

    @settings(max_examples=300, deadline=None)
    @given(LINE_TEXT, st.sampled_from(CHUNKS[:3]))
    def test_chunks_split_into_the_lines_of_the_whole(self, text, chunk):
        with mock.patch.object(kernel, "CHUNK_BYTES", chunk):
            for chunks in (list(kernel._text_chunks(text)),
                           list(kernel._file_chunks(io.BytesIO(text.encode("utf-8"))))):
                assert "".join(chunks) == text
                assert all(c.endswith("\n") for c in chunks[:-1]) and "" not in chunks
                assert [ln for c in chunks for ln in c.splitlines()] == text.splitlines()

    def test_a_file_chunk_is_its_read_carried_to_the_end_of_the_line(self):
        data = b"12345\n6789\n\n0\n"
        with mock.patch.object(kernel, "CHUNK_BYTES", 7):
            assert list(kernel._file_chunks(io.BytesIO(data))) == ["12345\n6789\n", "\n0\n"]
        with mock.patch.object(kernel, "CHUNK_BYTES", 6):
            assert list(kernel._file_chunks(io.BytesIO(data))) == ["12345\n6789\n", "\n0\n"]


class TestNotUTF8:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xe2\x80", b"\xed\xa0\x80", b"\x80"])
    @pytest.mark.parametrize("where", ["order", "names", "row", "last-row", "trailing-comment"])
    def test_the_first_bad_byte_is_named(self, chunk, bad, where, tmp_path):
        data = Z4.encode("utf-8") + b"# end\n"
        at = {"order": 1, "names": 6, "row": data.index(b"2 3 0 1") + 2,
              "last-row": data.index(b"3 0 1 2") + 6, "trailing-comment": len(data) - 2}[where]
        data = data[:at] + bad + data[at:]
        got = file_outcome(tmp_path / "t.tbl", data, chunk)
        assert got == reference_file_outcome(data) == (
            TableFormatError, f"invalid UTF-8 at byte {at}")

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("case", ["bad-order", "trailing-line", "few-names", "x",
                                      "ragged-short", "not-associative"])
    def test_a_bad_byte_wins_over_every_other_fault(self, chunk, case, tmp_path):
        data = MALFORMED[case].encode("utf-8") + b"\xff\n"
        assert file_outcome(tmp_path / "t.tbl", data, chunk) == reference_file_outcome(data) == (
            TableFormatError, f"invalid UTF-8 at byte {len(data) - 2}")


def pipe_outcome(text):
    """``load_table``'s outcome on ``text`` read from a pipe, which
    ``os.fstat`` gives no size."""
    r, w = os.pipe()
    try:
        os.write(w, text.encode("utf-8"))  # a small text fits in the pipe's buffer
        os.close(w)
        return outcome(load_table, f"/dev/fd/{r}")
    finally:
        os.close(r)


def test_a_pipe_is_read_whole():
    assert pipe_outcome(Z4) == outcome(loads_table, Z4)
    assert pipe_outcome(MALFORMED["ragged-short"]) == outcome(loads_table,
                                                               MALFORMED["ragged-short"])


@pytest.mark.parametrize("order", ["100000000", "3000000000", "1" + "0" * 30])
@pytest.mark.parametrize("rows", ["", "0\n"])
def test_a_huge_order_fails_the_count_and_allocates_nothing(order, rows, tmp_path):
    """An order above the text's length fails the line count, and no row is
    allocated for it: one row would outweigh the text, or numpy refuses it.
    A pipe has no size, so there the allocation is tried, and its error
    waits for the count."""
    text = f"{order}\ne\n{rows}"
    want = (TableFormatError, f"expected {int(order) + 2} content lines, got {2 + bool(rows)}")
    tracemalloc.start()
    try:
        assert file_outcome(tmp_path / "t.tbl", text.encode("utf-8"), kernel.CHUNK_BYTES) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert text_outcome(text, kernel.CHUNK_BYTES) == want
    assert pipe_outcome(text) == want


def test_a_failed_allocation_waits_for_the_line_count(tmp_path, monkeypatch):
    """The line count is checked before the array is allocated: a
    MemoryError there is raised only on a file whose count is right."""
    def refuse(shape, dtype):
        raise MemoryError(f"cannot allocate {shape}")

    monkeypatch.setattr(kernel.np, "empty", refuse)
    assert file_outcome(tmp_path / "t.tbl", (Z4 + "0 1 2 3\n").encode("utf-8"),
                        kernel.CHUNK_BYTES) == (
        TableFormatError, "expected 6 content lines, got 7")
    assert file_outcome(tmp_path / "t.tbl", Z4.encode("utf-8"), kernel.CHUNK_BYTES) == (
        MemoryError, "cannot allocate (4, 4)")


# ---------------------------------------------------------------------------
# memory

def test_q1024_file_loads_in_the_array_plus_one_block(tmp_path):
    """Loading holds the n x n int32 array and about one chunk besides: no
    whole text and no list of lines (the whole-text reader peaked at 16.9 MB)."""
    G = generalized_quaternion(1024)
    path = tmp_path / "q1024.tbl"
    path.write_text(dumps_table(G), encoding="utf-8")
    tracemalloc.start()
    try:
        back = load_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.table, G.table) and back.names == G.names
    assert peak < back.table.nbytes + 2 * 2 ** 20


def test_a_short_file_claiming_a_huge_order_allocates_no_square_array(tmp_path):
    """The short-input guard on a file: its size comes from ``os.fstat``."""
    n = 20_000  # an n x n int64 array would take 3.2 GB
    path = tmp_path / "huge.tbl"
    path.write_text(f"{n}\n" + " ".join(f"g{i}" for i in range(n)) + "\n" + "0\n" * n,
                    encoding="utf-8")
    tracemalloc.start()
    try:
        got = outcome(load_table, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (TableFormatError, f"row 0 has 1 entries, expected {n}")
    assert peak < 16 * 2 ** 20
