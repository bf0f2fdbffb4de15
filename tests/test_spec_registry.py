"""The spec-kind registry: field checks, parsed children, builders, and the
commands' handling of inputs they cannot compute on."""

import json
import re
from pathlib import Path

import pytest

from rootsets import cli
from rootsets.catalog import cyclic
from rootsets.cli import KINDS, SpecError, build_group, build_tower, main, parse_spec, run_command
from rootsets.kernel import dumps_table
from rootsets.towers import DEFAULT_BIRTH_CAP, DEFAULT_WINDOW

SPECS = Path(__file__).resolve().parent.parent / "specs"

C2 = {"kind": "cyclic", "n": 2}
T2 = json.loads((SPECS / "t2.json").read_text(encoding="utf-8"))

# one valid document per kind, using every field the kind checks
EXAMPLES = {
    "table": {"kind": "table", "path": "c2.tbl"},
    "cyclic": C2,
    "direct_product": {"kind": "direct_product", "left": C2, "right": C2},
    "heisenberg": {"kind": "heisenberg", "p": 3},
    "cocycle_extension": {"kind": "cocycle_extension", "base": C2, "p": 2,
                          "w": [[0, 0], [0, 1]]},
    "tree_vw": {"kind": "tree_vw", "depth": 1},
    "quotient": {"kind": "quotient", "group": {"kind": "cyclic", "n": 4}, "normal": ["2"]},
    "prufer_tower": {"kind": "prufer_tower", "p": 2},
    "t1_tower": {"kind": "t1_tower", "H": C2, "p": 2, "a_gen": "0"},
    "t2_tower": T2,
    "quaternion_tower": {"kind": "quaternion_tower"},
    "quotient_tower": {"kind": "quotient_tower", "base": {"kind": "quaternion_tower"},
                       "normal": ["1/2"]},
}


@pytest.fixture()
def spec_dir(tmp_path):
    (tmp_path / "c2.tbl").write_text(dumps_table(cyclic(2)), encoding="utf-8")
    return tmp_path


def run(argv, capsys):
    code = main(argv)
    return json.loads(capsys.readouterr().out), code


def write(directory, doc, name="doc.json"):
    p = directory / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def test_examples_cover_every_kind():
    assert set(EXAMPLES) == set(KINDS)


@pytest.mark.parametrize("kind", list(KINDS))
def test_example_builds(kind, spec_dir):
    spec = parse_spec(json.dumps(EXAMPLES[kind]), spec_dir)
    built = (build_tower if KINDS[kind].tower else build_group)(spec, spec_dir)
    assert built is not None


@pytest.mark.parametrize("kind, field", [(k, f) for k in KINDS for f in KINDS[k].fields],
                         ids=lambda v: str(v))
def test_dropped_field_is_missing(kind, field, spec_dir, capsys):
    doc = {k: v for k, v in EXAMPLES[kind].items() if k != field}
    report, code = run(["k-estimate", write(spec_dir, doc)], capsys)
    assert code == 1
    assert f"spec.{field}: missing" in report["errors"]


def test_readme_kind_table_matches_registry():
    readme = (SPECS.parent / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 4 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = (cells[1], re.findall(r"`(\w+)`", cells[2]))
    assert rows == {kind: ("tower" if s.tower else "finite group", list(s.fields))
                    for kind, s in KINDS.items()}


@pytest.mark.parametrize("path", sorted(SPECS.glob("*.json")), ids=lambda p: p.name)
def test_bundled_spec_round_trips(path):
    text = path.read_text(encoding="utf-8")
    assert parse_spec(text, SPECS).to_json() == json.loads(text)


def _t2_alpha(alpha):
    return {**T2, "alpha": alpha}


@pytest.mark.parametrize("doc, message", [
    (_t2_alpha({"0": "bad", "1": ["1", "1/2"]}),
     "spec.alpha: entry '0': expected [name, \"num/den\"]"),
    (_t2_alpha({"0": ["0", "x"], "1": ["1", "1/2"]}), "spec.alpha: entry '0': expected"),
    (_t2_alpha({"0": ["0", "0/0"], "1": ["1", "1/2"]}), "spec.alpha: entry '0': expected"),
    (_t2_alpha({"0": ["0", "0/1"], "1": ["nope", "1/2"]}),
     "recipe target 'nope' is not a transversal rep"),
    ({**T2, "base": {"kind": "prufer_tower", "p": 2}, "y": "1/4",
      "alpha": {"1": ["0", "0/1"]}}, "recipe missing transversal rep '0'"),
    ({**T2, "base": {"kind": "prufer_tower", "p": 2}, "y": "1/2", "m": 1,
      "alpha": {"0": ["0", "1/3"]}}, "recipe offset 1/3 not expressible at level 1"),
    ({**T2, "base": {"kind": "prufer_tower", "p": 2}, "y": "1/2", "m": 1,
      "alpha": {"0": ["1/2", "0/1"]}}, "recipe target '1/2' is not a transversal rep"),
    ({**EXAMPLES["cocycle_extension"], "w": [[0, 0], [0]]}, "spec.w: expected a matrix of rows"),
    ({**EXAMPLES["cocycle_extension"], "w": [[0, 0], [0, "a"]]},
     "spec.w: expected a matrix of rows"),
    ({**EXAMPLES["cocycle_extension"], "w": [[0, 0], [0, True]]},
     "spec.w: expected a matrix of rows"),
    ({**EXAMPLES["cocycle_extension"], "w": [[0, 0], [0, 1.0]]},
     "spec.w: expected a matrix of rows"),
    ({"kind": "cyclic", "n": True}, "spec.n: expected an integer >= 1 (got True)"),
    ({"kind": "prufer_tower", "p": True}, "spec.p: expected a prime (got True)"),
    ({"kind": "tree_vw", "depth": True}, "spec.depth: expected depth 1..4 (got True)"),
    ({**T2, "m": True}, "spec.m: expected an integer >= 1 (got True)"),
], ids=["alpha-not-pair", "alpha-bad-fraction", "alpha-zero-denominator",
        "alpha-unknown-target", "alpha-prufer-without-0", "alpha-prufer-offset-not-expressible",
        "alpha-prufer-target-not-a-rep", "w-ragged", "w-non-integer",
        "w-bool", "w-float",
        "n-bool", "p-bool", "depth-bool", "m-bool"])
def test_malformed_field_exits_one(doc, message, tmp_path, capsys):
    report, code = run(["eta", write(tmp_path, doc), "--element", "0",
                        "--max-level", "5"], capsys)
    assert code == 1
    assert any(message in e for e in report["errors"]), report["errors"]


def int64_error(field, value):
    return f"spec.{field}: expected an integer in int64 range (got {value})"


BIG_M = {"kind": "t2_tower", "base": {"kind": "prufer_tower", "p": 2}, "y": "1/2",
         "alpha": "inversion", "m": 10 ** 30 + 1}


@pytest.mark.parametrize("doc, argv, error", [
    (BIG_M, ["k-estimate", "--max-level", "3"], int64_error("m", 10 ** 30 + 1)),
    (BIG_M, ["reduce-t2", "--level", "3"], int64_error("m", 10 ** 30 + 1)),
    ({"kind": "cocycle_extension", "base": C2, "p": 2, "w": [[0, 0], [0, 10 ** 23]]},
     ["k-estimate"], int64_error("w", 10 ** 23)),
    ({"kind": "cyclic", "n": 2 ** 64}, ["k-estimate"], int64_error("n", 2 ** 64)),
], ids=["t2-m-k-estimate", "t2-m-reduce-t2", "cocycle-w", "cyclic-n"])
def test_an_integer_beyond_int64_exits_one(doc, argv, error, tmp_path, capsys):
    report, code = run(argv[:1] + [write(tmp_path, doc)] + argv[1:], capsys)
    assert (code, report["errors"]) == (1, [error])


W = EXAMPLES["cocycle_extension"]


@pytest.mark.parametrize("doc, error", [
    ({"kind": "cyclic", "n": 2 ** 63 - 1}, None),
    ({"kind": "cyclic", "n": 2 ** 63}, int64_error("n", 2 ** 63)),
    ({**W, "w": [[0, 0], [0, -2 ** 63]]}, None),
    ({**W, "w": [[0, 0], [-2 ** 63 - 1, 2 ** 63]]}, int64_error("w", -2 ** 63 - 1)),
    ({**T2, "m": 2 ** 63 - 1}, None),
    ({"kind": "prufer_tower", "p": 2 ** 61 - 1}, None),
    ({"kind": "prufer_tower", "p": 2 ** 64 - 59}, int64_error("p", 2 ** 64 - 59)),
    ({"kind": "heisenberg", "p": 2 ** 64 - 59}, int64_error("p", 2 ** 64 - 59)),
], ids=["n-max", "n-above", "w-min", "w-below", "m-max", "p-max", "p-prime-above",
        "heisenberg-p-prime-above"])
def test_spec_integers_are_read_up_to_int64(doc, error):
    """The field's own check runs first, so a prime above PRIME_BOUND keeps
    its message; a value that passes it and int64 cannot hold is refused."""
    if error is None:
        assert parse_spec(json.dumps(doc)).values
    else:
        with pytest.raises(SpecError) as exc:
            parse_spec(json.dumps(doc))
        assert exc.value.errors == [error]


def test_nested_unknown_kind_reports_both_errors():
    doc = {"kind": "quotient_tower", "base": {"kind": "bogus"}, "normal": ["0"]}
    with pytest.raises(SpecError) as exc:
        parse_spec(json.dumps(doc))
    assert exc.value.errors == ["spec.base: unknown kind 'bogus'",
                                "spec.base: must be a tower document"]


@pytest.mark.parametrize("argv", [
    ["eta", "--element", "1/4", "--window", "-1", "--max-level", "5"],
    ["k-estimate", "--window", "0", "--max-level", "5"],
], ids=["eta", "k-estimate"])
def test_window_below_one_exits_one(argv, capsys):
    report, code = run(argv[:1] + [str(SPECS / "quat.json")] + argv[1:], capsys)
    assert code == 1
    assert report["errors"] == ["window must be >= 1, got " + argv[argv.index("--window") + 1]]


TREE3 = {"kind": "tree_vw", "depth": 3}


@pytest.mark.parametrize("doc", [TREE3, {"kind": "direct_product", "left": TREE3, "right": C2}],
                         ids=["top-level", "nested"])
@pytest.mark.parametrize("args", [["eta", "--element", "v0.w0"], ["k-estimate"],
                                  ["lemmas", "--suite", "3.1"], ["emit-table", "--out", "x.tbl"]],
                         ids=lambda a: a[0])
def test_oracle_tree_group_exits_one(doc, args, tmp_path, capsys):
    report, code = run(args[:1] + [write(tmp_path, doc)] + args[1:], capsys)
    assert code == 1
    assert "no Cayley table" in report["errors"][0]


def test_omega1_census_accepts_depth_three(tmp_path, capsys):
    report, code = run(["omega1-census", write(tmp_path, TREE3)], capsys)
    assert code == 0
    assert report["result"]["omega1_order"] == 128


def test_memory_error_exits_one(monkeypatch, capsys):
    def boom(n):
        raise MemoryError("Unable to allocate the table")
    monkeypatch.setattr(cli, "cyclic", boom)
    report, code = run(["k-estimate", str(SPECS / "z8.json")], capsys)
    assert code == 1
    assert report["errors"] == ["out of memory: Unable to allocate the table"]


def test_lemmas_on_a_spec_without_paths():
    spec = parse_spec((SPECS / "z8.json").read_text(encoding="utf-8"))
    report, code = run_command("lemmas", spec, {"suite": "3.1"})
    assert code == 0
    assert report["result"]["groups"] == ["Z8"]
    assert len(report["assertions"]) == 4


@pytest.mark.parametrize("command, flags", [
    ("lemmas", {"suite": "3.1"}), ("eta", {"element": "0"}), ("k-estimate", {}),
    ("reduce-t2", {"level": 5}), ("emit-table", {"out": "x.tbl"}),
])
def test_missing_spec_exits_one(command, flags):
    report, code = run_command(command, None, flags)
    assert code == 1
    assert report["errors"]


def test_run_command_echoes_flags_without_defaults():
    spec = parse_spec((SPECS / "quat.json").read_text(encoding="utf-8"))
    report, code = run_command("k-estimate", spec, {"max_level": 5})
    assert code == 0
    assert report["flags"] == {"max_level": 5}
    assert report["result"]["window"] == DEFAULT_WINDOW
    assert report["result"]["birth_level"] == DEFAULT_BIRTH_CAP
