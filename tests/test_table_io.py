"""Cayley-table text I/O: round trips, malformed input and memory."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rootsets.catalog import corpus, dihedral, generalized_quaternion, symmetric
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
