"""Cayley-table text I/O: round trips, malformed input and memory."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rootsets import kernel
from rootsets.catalog import corpus, cyclic, dihedral, generalized_quaternion, symmetric
from rootsets.cli import build_tower, main, parse_spec
from rootsets.kernel import FiniteGroupTable, TableFormatError, dumps_table, loads_table

SPECS = Path(__file__).resolve().parent.parent / "specs"


def reference_loads_table(text, *, label=""):
    """The per-token parser the row-wise reader replaced, kept as the reference."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise TableFormatError("empty table file")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise TableFormatError(f"bad order line: {lines[0]!r}") from None
    if len(lines) != n + 2:
        raise TableFormatError(f"expected {n + 2} content lines, got {len(lines)}")
    names = lines[1].split()
    if len(names) != n:
        raise TableFormatError(f"expected {n} names, got {len(names)}")
    rows = []
    for i in range(n):
        row = lines[2 + i].split()
        if len(row) != n:
            raise TableFormatError(f"row {i} has {len(row)} entries, expected {n}")
        try:
            rows.append([int(x) for x in row])
        except ValueError:
            raise TableFormatError(f"non-integer entry in row {i}") from None
    return FiniteGroupTable(rows, names, label=label)


def reference_dumps_table(G):
    """The per-row writer the block writer replaced, kept as the reference."""
    digits = np.array([str(i) for i in range(G.order)], dtype=object)
    lines = [str(G.order), " ".join(G.names)]
    lines += [" ".join(digits[row]) for row in G.table]
    return "\n".join(lines) + "\n"


def outcome(loads, text):
    """The table and names a parser returns, or the type and message it raises."""
    try:
        G = loads(text)
    except Exception as exc:  # the outcome is compared, not handled
        return type(exc), str(exc)
    return G.table.tolist(), G.names


def tower_level_groups(max_order=512):
    for path in sorted(SPECS.glob("*.json")):
        spec = parse_spec(path.read_text(encoding="utf-8"), SPECS)
        if not spec.kind.endswith("tower"):
            continue
        tower = build_tower(spec, SPECS)
        k = tower.k0
        while tower.level(k).n <= max_order:
            yield f"{path.stem}@{k}", tower.level(k).group()
            k += 1


@pytest.fixture(scope="module")
def q1024():
    return generalized_quaternion(1024)


Z4 = "4\ne a b c\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n"
MALFORMED = {
    "empty": "",
    "only-comments": "# nothing\n  # here\n",
    "bad-order": "four\na b c d\n",
    "order-minus-two": "-2\n",
    "too-few-lines": "4\ne a b c\n0 1 2 3\n",
    "trailing-line": Z4 + "0 1 2 3\n",
    "trailing-comment": Z4 + "# done\n\n",
    "comment-between-rows": Z4.replace("1 2 3 0\n", "# row one\n1 2 3 0\n\n"),
    "few-names": Z4.replace("e a b c", "e a b"),
    "duplicate-names": Z4.replace("e a b c", "e a b a"),
    "ragged-short": Z4.replace("1 2 3 0", "1 2 3"),
    "ragged-long": Z4.replace("1 2 3 0", "1 2 3 0 1"),
    "x": Z4.replace("2 3 0 1", "2 x 0 1"),
    "float": Z4.replace("2 3 0 1", "2 3 1.5 1"),
    "hex": Z4.replace("2 3 0 1", "0x2 3 0 1"),
    "exponent": Z4.replace("2 3 0 1", "2 3 0 1e0"),
    "plus": Z4.replace("1 2 3 0", "+1 2 +3 0"),
    "underscore": "12\n" + " ".join(map(str, range(12))) + "\n" + "\n".join(
        " ".join(str((i + j) % 12) for j in range(12)) for i in range(12)
    ).replace("10", "1_0") + "\n",
    "double-underscore": Z4.replace("2 3 0 1", "2 3 0 0__1"),
    "arabic-indic": Z4.replace("3 0 1 2", "٣ 0 1 2"),
    "fullwidth": Z4.replace("3 0 1 2", "3 ０ 1 2"),
    "nul": Z4.replace("2 3 0 1", "2 3\x00 0 1"),
    "minus-one": Z4.replace("3 0 1 2", "3 0 1 -1"),
    "minus-zero": Z4.replace("0 1 2 3\n1", "-0 1 2 3\n1"),
    "too-large": Z4.replace("3 0 1 2", "3 0 1 4"),
    "tabs-and-spaces": Z4.replace("1 2 3 0", "\t1  2\t3 0  "),
    "leading-zeros": Z4.replace("1 2 3 0", "01 002 3 0"),
    "x-before-ragged": Z4.replace("1 2 3 0", "1 x 3 0").replace("2 3 0 1", "2 3"),
    "ragged-before-x": Z4.replace("1 2 3 0", "1 2 3").replace("2 3 0 1", "2 x 0 1"),
    "not-latin": Z4.replace("2 3 0 1", "2 3 1 1"),
    "not-identity": Z4.replace("0 1 2 3\n1", "0 1 3 2\n1"),
    "not-associative": "5\n0 1 2 3 4\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n"
                       "3 2 4 0 1\n4 3 1 2 0\n",
}


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(corpus()))
    def test_corpus(self, name, groups):
        text = dumps_table(groups[name])
        assert dumps_table(loads_table(text)) == text

    def test_tower_levels(self):
        seen = 0
        for where, G in tower_level_groups():
            text = dumps_table(G)
            assert dumps_table(loads_table(text)) == text, where
            seen += 1
        assert seen >= 20

    def test_large_tables(self, q1024):
        for G in (symmetric(5), q1024, dihedral(256)):
            text = dumps_table(G)
            back = loads_table(text)
            assert np.array_equal(back.table, G.table) and back.names == G.names
            assert dumps_table(back) == text

    def test_dumps_matches_the_per_entry_writer(self, groups):
        for G in list(groups.values()) + [generalized_quaternion(256)]:
            rows = [" ".join(str(int(x)) for x in G.table[i]) for i in range(G.order)]
            assert dumps_table(G) == "\n".join([str(G.order), " ".join(G.names)] + rows) + "\n"

    # token widths change at 10, 100 and 1000; from n = 1000 the rows span blocks
    @pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 1000, 1001])
    def test_dumps_matches_the_per_row_writer_where_widths_change(self, n):
        assert len(kernel._row_blocks(n, n)) == (16 if n >= 1000 else 1)
        rng = np.random.default_rng(n)
        perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])  # new -> old
        G = FiniteGroupTable(np.argsort(perm)[cyclic(n).table[perm][:, perm]])
        assert dumps_table(G) == reference_dumps_table(G)


class TestMalformed:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_same_outcome_as_the_per_token_parser(self, case):
        text = MALFORMED[case]
        assert outcome(loads_table, text) == outcome(reference_loads_table, text)

    @pytest.mark.parametrize("case", ["plus", "underscore", "arabic-indic", "fullwidth",
                                      "minus-zero", "tabs-and-spaces", "leading-zeros",
                                      "comment-between-rows", "trailing-comment"])
    def test_int_spellings_are_accepted(self, case):
        assert loads_table(MALFORMED[case]).order in (4, 12)

    @pytest.mark.parametrize("case", ["x", "float", "hex", "exponent", "double-underscore",
                                      "nul"])
    def test_non_integers_are_rejected(self, case):
        with pytest.raises(TableFormatError, match="non-integer entry in row 2"):
            loads_table(MALFORMED[case])

    @pytest.mark.parametrize("big", ["99999999999999999999", "-99999999999999999999",
                                     "9223372036854775808", "-9223372036854775809"])
    def test_beyond_int64_is_out_of_range(self, big):
        text = Z4.replace("3 0 1 2", f"3 0 {big} 2")
        with pytest.raises(TableFormatError, match="^table entries out of range$"):
            loads_table(text)

    @pytest.mark.parametrize("case", ["x-before-ragged", "ragged-before-x", "duplicate-names",
                                      "ragged-long", "x", "plus"])
    @pytest.mark.parametrize("row", ["0 1 2 3\n", "3 0 1 2\n"])
    def test_beyond_int64_is_reported_like_any_out_of_range_entry(self, case, row):
        # in place of an entry, a number beyond int64 gives the outcome that 11 gives
        text = MALFORMED[case]
        assert text.count(row) == 1
        entry = row.replace(" 1 ", " {} ")
        big = text.replace(row, entry.format("99999999999999999999"))
        assert outcome(loads_table, big) == outcome(reference_loads_table,
                                                    text.replace(row, entry.format(11)))

    def test_beyond_int64_then_non_integer_in_the_same_row(self):
        text = Z4.replace("3 0 1 2", "99999999999999999999 0 x 2")
        with pytest.raises(TableFormatError, match="non-integer entry in row 3"):
            loads_table(text)

    def test_order_minus_one(self):
        # one content line passes the line count; it ended in an IndexError
        with pytest.raises(TableFormatError, match="^group order must be at least 1$"):
            loads_table("-1\n")

    def test_short_text_claiming_a_huge_order_allocates_no_square_array(self):
        n = 20_000  # an n x n int64 array would take 3.2 GB
        text = f"{n}\n" + " ".join(f"g{i}" for i in range(n)) + "\n" + "0\n" * n
        tracemalloc.start()
        try:
            expected = outcome(reference_loads_table, text)
            tracemalloc.reset_peak()
            assert outcome(loads_table, text) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert expected == (TableFormatError, f"row 0 has 1 entries, expected {n}")
        assert peak < 16 * 2 ** 20


def test_q1024_parse_and_validate_memory(q1024):
    text = dumps_table(q1024)
    tracemalloc.start()
    try:
        G = loads_table(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == 1024
    assert peak < 24 * 2 ** 20


def test_q1024_dumps_memory(q1024):
    tracemalloc.start()
    try:
        text = dumps_table(q1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == reference_dumps_table(q1024)
    # the text, the blocks it is joined from, and one block's byte copies
    assert peak < 2 * len(text) + 2 ** 20


def test_emit_table_rejects_an_entry_beyond_int64(tmp_path, capsys):
    (tmp_path / "z4.tbl").write_text(Z4.replace("3 0 1 2", "3 0 99999999999999999999 2"),
                                     encoding="utf-8")
    (tmp_path / "z4.json").write_text(json.dumps({"kind": "table", "path": "z4.tbl"}),
                                      encoding="utf-8")
    code = main(["emit-table", str(tmp_path / "z4.json"), "--out", str(tmp_path / "out.tbl")])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report == {"command": "emit-table", "errors": ["table entries out of range"]}
    assert not (tmp_path / "out.tbl").exists()


# ---------------------------------------------------------------------------
# the byte-level reader of plain rows against the per-token reference

def table_lines(n):
    """The lines of the cyclic group's table text, header included."""
    return dumps_table(cyclic(n)).splitlines()


def with_rows(lines, rows):
    """The table text with the rows {index: text} replaced."""
    lines = list(lines)
    for i, row in rows.items():
        lines[2 + i] = row
    return "\n".join(lines) + "\n"


def reference_outcome(text):
    """The reference's outcome, where an entry beyond int64 is out of range.

    The reference reads every row before it builds the int64 table, so its
    OverflowError means that every row was read; the reader clamps such an
    entry, and the table's range check is the first to fail.
    """
    got = outcome(reference_loads_table, text)
    return (TableFormatError, "table entries out of range") if got[0] is OverflowError else got


PIECES = st.one_of(
    st.sampled_from([" ", "  ", "\t", "+", "-", "_", "#", "x", "\x00", "\x1f", "\xa0",
                     "\u0663", "\uff10"]),
    st.integers(0, 12).map(str),
    st.integers(0, 12).map(lambda v: "00" + str(v)),
    st.integers(17, 22).flatmap(lambda k: st.text("0123456789", min_size=k, max_size=k)),
)
ROW_TEXT = st.lists(PIECES, min_size=1, max_size=14).map("".join)


@pytest.fixture()
def int_rows_calls(monkeypatch):
    """A list that gets one entry per call of ``kernel._int_rows``."""
    calls = []
    monkeypatch.setattr(kernel, "_int_rows",
                        lambda *args, real=kernel._int_rows: calls.append(1) or real(*args))
    return calls


class TestByteReader:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.dictionaries(st.integers(0, n - 1), ROW_TEXT,
                                                        max_size=n))))
    def test_drawn_rows_match_the_reference(self, drawn):
        n, rows = drawn
        text = with_rows(table_lines(n), rows)
        assert outcome(loads_table, text) == reference_outcome(text)

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.integers(0, 199), ROW_TEXT, max_size=4))
    def test_drawn_rows_across_blocks_match_the_reference(self, rows):
        text = with_rows(table_lines(200), rows)
        assert outcome(loads_table, text) == reference_outcome(text)

    # n = 200: a block holds 81 rows, so rows 0, 80 | 81, 161 | 162, 199 open and close blocks
    EDGES = [0, 80, 81, 161, 162, 199]

    @pytest.mark.parametrize("row", EDGES)
    @pytest.mark.parametrize("fault", ["ragged", "non-integer", "beyond-int64"])
    def test_a_fault_at_a_block_edge(self, row, fault):
        assert kernel._row_blocks(200, 200, kernel.BLOCK_ENTRIES >> 2)[1] == slice(81, 162)
        lines = table_lines(200)
        entries = lines[2 + row].split()
        if fault == "ragged":
            entries = entries[:-1]
        elif fault == "non-integer":
            entries[-1] = "x"
        else:
            entries[0] = "9" * 19
        text = with_rows(lines, {row: " ".join(entries)})
        expected = {"ragged": f"row {row} has 199 entries, expected 200",
                    "non-integer": f"non-integer entry in row {row}",
                    "beyond-int64": "table entries out of range"}[fault]
        assert outcome(loads_table, text) == reference_outcome(text) == (
            TableFormatError, expected)

    # values beyond int32, as functions of the entry v they replace: the
    # table is int32, and narrowed unchecked, 2^32 + v would read as v
    WIDE = {"2^31": lambda v: 2 ** 31, "2^32+1": lambda v: 2 ** 32 + 1,
            "-2^32": lambda v: -2 ** 32, "2^32+v": lambda v: 2 ** 32 + v,
            "v-2^32": lambda v: v - 2 ** 32, "14-digits": lambda v: 10 ** 13 + v,
            "19-digits": lambda v: 10 ** 18 + v, "20-digits": lambda v: 2 ** 64 + v}

    @pytest.mark.parametrize("cell", [(81, 0), (161, 199)])  # a block's first and last cell
    @pytest.mark.parametrize("reader", ["plain", "per-token"])
    @pytest.mark.parametrize("wide", sorted(WIDE))
    def test_a_value_beyond_int32_never_wraps_into_range(self, wide, reader, cell, monkeypatch):
        row, col = cell
        assert kernel._row_blocks(200, 200, kernel.BLOCK_ENTRIES >> 2)[1] == slice(81, 162)
        lines = table_lines(200)
        entries = lines[2 + row].split()
        value = str(self.WIDE[wide](int(entries[col])))
        entries[col] = value
        if reader == "per-token":  # a '+' elsewhere in the row sends its block to _int_rows
            other = 1 if col == 0 else col - 1
            entries[other] = "+" + entries[other]
        text = with_rows(lines, {row: " ".join(entries)})
        plain = []

        def spy(block, n, read=kernel._plain_rows):
            values = read(block, n)
            plain.append(values is not None)
            return values

        monkeypatch.setattr(kernel, "_plain_rows", spy)
        assert outcome(loads_table, text) == reference_outcome(text) == (
            TableFormatError, "table entries out of range")
        # blocks 0 and 2 are plain; block 1 (rows 81 .. 161) holds the wide value
        assert plain == [True, reader == "plain" and value.isdigit() and len(value) <= 9, True]

    def test_an_int64_entry_that_would_wrap_onto_its_value_is_refused(self):
        T = cyclic(4).table.astype(np.int64)
        T[2, 3] += 2 ** 32  # 2^32 + 1, whose low 32 bits are the right entry 1
        with pytest.raises(TableFormatError, match="^table entries out of range$"):
            FiniteGroupTable(T)

    @pytest.mark.parametrize("spelling", [("15 ", "+15 "), ("15 ", "1_5 "), ("15 ", "1\u0665 "),
                                          ("15 ", "015\x1f"), ("15 ", "15\xa0"),
                                          ("15 ", "#5 ")])
    def test_a_fallback_block_then_a_plain_block_with_a_ragged_row(self, spelling):
        lines = table_lines(200)
        row5 = lines[2 + 5].replace(*spelling, 1)
        text = with_rows(lines, {5: row5, 100: lines[2 + 100].rsplit(maxsplit=1)[0]})
        message = ("non-integer entry in row 5" if "#" in row5
                   else "row 100 has 199 entries, expected 200")
        assert outcome(loads_table, text) == reference_outcome(text) == (
            TableFormatError, message)

    def test_a_lone_surrogate(self):
        text = Z4.replace("2 3 0 1", "2 3 0 \ud800")
        assert outcome(loads_table, text) == outcome(reference_loads_table, text) == (
            TableFormatError, "non-integer entry in row 2")

    def test_a_plain_text_never_reads_token_by_token(self, q1024, monkeypatch):
        def refuse(*args):
            raise AssertionError("a plain block was read token by token")

        text = dumps_table(q1024)
        monkeypatch.setattr(kernel, "_int_rows", refuse)
        assert np.array_equal(loads_table(text).table, q1024.table)
        tabs = text.replace(" ", "\t").replace("\n0\t", "\n00\t")
        assert np.array_equal(loads_table(tabs).table, q1024.table)

    @pytest.mark.parametrize("tokens", [
        ["999999999", "0", "1", "2"],                    # 9 digits: read as bytes
        ["1000000000", "0", "1", "2"],                   # 10 digits: token by token
        ["0000000003", "2", "000000001", "0"],           # leading zeros on both sides of 9
        ["2147483647", "2147483648", "4294967296", "3"],  # the int32 and uint32 edges
        ["999999999", "1", "1000000000", "99999999999"],
    ])
    def test_runs_of_9_and_10_digits_read_as_int_does(self, tokens):
        lines = [" ".join(tokens), "3 0 1 2", "\t".join(reversed(tokens))]
        expected = np.zeros((3, 4), dtype=np.int64)
        kernel._int_rows(expected, lines, 0, 4)
        got = kernel._plain_rows(lines, 4)
        if max(map(len, tokens)) > 9:  # a 10-digit run leaves the block to _int_rows
            assert got is None
        else:
            assert got is not None and np.array_equal(got, expected)
        assert expected[0].tolist() == [int(x) for x in tokens]

    @pytest.mark.parametrize("digits", [9, 10])
    def test_a_table_with_a_long_run_reads_as_the_reference(self, digits):
        entry = "0" * (digits - 1) + "3"
        text = Z4.replace("2 3 0 1", f"2 {entry} 0 1")
        assert outcome(loads_table, text) == reference_outcome(text)
        assert outcome(loads_table, text)[0] == [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1],
                                                  [3, 0, 1, 2]]
        big = Z4.replace("2 3 0 1", "2 " + "9" * digits + " 0 1")
        assert outcome(loads_table, big) == reference_outcome(big) == (
            TableFormatError, "table entries out of range")

    def test_runs_of_9_digits_are_plain_and_10_are_not(self, int_rows_calls):
        plain = Z4.replace("3 0 1 2", "3 0 1 " + "0" * 7 + "02")
        assert loads_table(plain).order == 4 and not int_rows_calls
        long = Z4.replace("3 0 1 2", "3 0 1 " + "0" * 8 + "02")
        assert outcome(loads_table, long) == outcome(reference_loads_table, long) and int_rows_calls

    def test_a_plain_block_with_a_ragged_row_is_read_token_by_token(self, int_rows_calls):
        lines = table_lines(200)
        text = with_rows(lines, {100: lines[2 + 100].rsplit(maxsplit=1)[0]})
        assert outcome(loads_table, text) == reference_outcome(text) == (
            TableFormatError, "row 100 has 199 entries, expected 200")
        assert int_rows_calls == [1]  # block 1 alone; block 0 was plain and block 2 never read

    @pytest.mark.parametrize("token", ["0000000003", "2147483648"])
    def test_a_plain_block_with_a_10_digit_run_is_read_token_by_token(self, token,
                                                                    int_rows_calls):
        text = Z4.replace("2 3 0 1", f"2 {token} 0 1")
        assert outcome(loads_table, text) == reference_outcome(text)
        assert int_rows_calls == [1]
