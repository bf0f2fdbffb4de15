"""The JSON spec / report interface, driven through main() like a user would."""

import importlib
import json
from pathlib import Path

import pytest

from rootsets.cli import SpecError, build_group, main, parse_spec, run_command
from rootsets.eta import check_lemma31, check_lemma32, check_lemma39
from rootsets.kernel import load_table

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"


@pytest.fixture()
def specs(tmp_path):
    docs = {
        "z8.json": {"kind": "cyclic", "n": 8, "label": "Z8"},
        "q8.json": {
            "kind": "cocycle_extension", "label": "Q8",
            "base": {"kind": "direct_product",
                     "left": {"kind": "cyclic", "n": 2},
                     "right": {"kind": "cyclic", "n": 2}},
            "p": 2,
            "w": [[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]],
        },
        "prufer2.json": {"kind": "prufer_tower", "p": 2},
        "quat.json": {"kind": "quaternion_tower"},
        "t2.json": {
            "kind": "t2_tower", "label": "inverting-extension",
            "base": {"kind": "t1_tower", "p": 2, "a_gen": "0",
                     "H": {"kind": "cyclic", "n": 2}},
            "y": "1.1/4", "m": 2,
            "alpha": {"0": ["0", "0/1"], "1": ["1", "1/2"]},
        },
        "quot.json": {"kind": "quotient_tower",
                      "base": {"kind": "quaternion_tower"}, "normal": ["1/2"]},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    return tmp_path


def run(argv, capsys):
    code = main(argv)
    return json.loads(capsys.readouterr().out), code


class TestParseSpec:
    def test_all_errors_collected(self):
        doc = {"kind": "t2_tower",
               "base": {"kind": "cyclic", "n": 0},
               "m": 0}
        with pytest.raises(SpecError) as exc:
            parse_spec(json.dumps(doc))
        messages = "\n".join(exc.value.errors)
        assert len(exc.value.errors) >= 4
        assert "base" in messages and ".y" in messages and ".m" in messages \
            and "alpha" in messages

    def test_syntax_error_reports_position(self):
        with pytest.raises(SpecError) as exc:
            parse_spec("{\n  bad\n}")
        assert "line 2" in exc.value.errors[0]

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown kind"):
            parse_spec('{"kind": "dodecahedral"}')

    def test_nested_paths_in_messages(self):
        doc = {"kind": "direct_product",
               "left": {"kind": "cyclic", "n": 3},
               "right": {"kind": "heisenberg", "p": 4}}
        with pytest.raises(SpecError) as exc:
            parse_spec(json.dumps(doc))
        assert any("spec.right.p" in e for e in exc.value.errors)

    def test_missing_table_file(self, tmp_path):
        with pytest.raises(SpecError, match="not found"):
            parse_spec('{"kind": "table", "path": "nope.tbl"}', tmp_path)

    def test_valid_roundtrip(self):
        doc = parse_spec('{"kind": "cyclic", "n": 6, "label": "Z6"}')
        assert doc.to_json() == {"kind": "cyclic", "n": 6, "label": "Z6"}


class TestExitCodes:
    def test_pass_is_zero(self, specs, capsys):
        _, code = run(["eta", str(specs / "z8.json"), "--element", "4"], capsys)
        assert code == 0

    def test_input_error_is_one(self, specs, capsys):
        report, code = run(["eta", str(specs / "z8.json"), "--element", "nope"], capsys)
        assert code == 1
        assert report["errors"]

    def test_invalid_spec_is_one(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"kind": "cyclic", "n": -1}', encoding="utf-8")
        report, code = run(["k-estimate", str(p)], capsys)
        assert code == 1
        assert any(".n" in e for e in report["errors"])

    def test_disagreement_is_two(self, specs, capsys):
        # a window too wide to certify within the level budget: the theory
        # comparison fails, which the tool reports as a disagreement
        report, code = run(["k-estimate", str(specs / "quat.json"),
                            "--max-level", "4", "--window", "6"], capsys)
        assert code == 2
        assert any(a["status"] != "pass" for a in report["assertions"])

    @pytest.mark.parametrize("path, birth_cap", [("prufer2.json", 5), ("prufer2.json", 6),
                                                  ("heis_t1.json", 5), ("heis_t1.json", 6)])
    def test_undetermined_names_are_no_disagreement(self, path, birth_cap, capsys):
        # a birth cap above max_level - window leaves names too young to
        # certify; K is still the predicted one
        report, code = run(["k-estimate", str(SPECS / path), "--max-level", "6",
                            "--birth-cap", str(birth_cap)], capsys)
        assert code == 0 and report["result"]["agrees"] is True
        assert report["result"]["undetermined"]


class TestReports:
    def test_schema(self, specs, capsys):
        report, code = run(["k-estimate", str(specs / "quat.json"),
                            "--max-level", "5"], capsys)
        assert code == 0
        assert set(report) == {"spec", "command", "flags", "result",
                               "assertions", "metadata"}
        assert report["spec"]["kind"] == "quaternion_tower"
        assert report["metadata"]["tool_version"]
        assert report["result"]["members"] == ["0", "1/2"]

    def test_body_is_deterministic(self, specs, capsys):
        argv = ["eta", str(specs / "prufer2.json"), "--element", "1/4",
                "--max-level", "5"]
        r1, _ = run(argv, capsys)
        r2, _ = run(argv, capsys)
        r1.pop("metadata")
        r2.pop("metadata")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_eta_certificate(self, specs, capsys):
        report, code = run(["eta", str(specs / "t2.json"), "--element", "0.1/2",
                            "--max-level", "6"], capsys)
        assert code == 0
        body = report["result"]
        assert body["stabilized"] is True
        assert body["certificate"]["window"] == 2
        # a is in neither <z> nor <z a>, both of order 2, so eta(a) settles
        # on exactly those plus the identity
        assert body["stable_set"] == ["0.0", "1.0", "1.1/2"]

    def test_k_estimate_on_finite_group_degenerates(self, specs, capsys):
        report, code = run(["k-estimate", str(specs / "z8.json")], capsys)
        assert code == 0
        assert report["result"]["warning"].startswith("degenerate-for-finite-groups:")
        assert len(report["result"]["members"]) == 8

    def test_reduce_t2(self, specs, capsys):
        report, code = run(["reduce-t2", str(specs / "t2.json"), "--level", "5"], capsys)
        assert code == 0
        assert [s["parity"] for s in report["result"]["steps"]] == ["even", "odd"]
        assert report["result"]["level_independent"] is True

    def test_quotient_tower_k(self, specs, capsys):
        report, code = run(["k-estimate", str(specs / "quot.json"),
                            "--max-level", "5"], capsys)
        assert code == 0
        assert report["result"]["members"] == ["[0]"]


class TestLemmasCommand:
    def test_directory_of_specs(self, specs, tmp_path, capsys):
        d = tmp_path / "lemma-specs"
        d.mkdir()
        for name in ("z8.json", "q8.json"):
            (d / name).write_text((specs / name).read_text(), encoding="utf-8")
        report, code = run(["lemmas", str(d), "--suite", "3.1"], capsys)
        assert code == 0
        assert sorted(report["result"]["groups"]) == ["Q8", "Z8"]
        assert len(report["assertions"]) == 8  # four clauses per group

    def test_single_spec(self, specs, capsys):
        report, code = run(["lemmas", str(specs / "q8.json"), "--suite", "3.9"], capsys)
        assert code == 0
        assert all(a["status"] == "pass" for a in report["assertions"])

    def test_lemma39_suite_runs_once_for_each_prime_divisor(self, tmp_path, capsys):
        spec = tmp_path / "z60.json"
        spec.write_text(json.dumps({"kind": "cyclic", "n": 60, "label": "Z60"}), encoding="utf-8")
        report, code = run(["lemmas", str(spec), "--suite", "3.9"], capsys)
        assert code == 0
        assert [a["name"] for a in report["assertions"]] == [
            "Z60:p=2:lemma39", "Z60:p=3:lemma39", "Z60:p=5:lemma39"]

    def test_closed_form_suite(self, specs, capsys):
        _, code = run(["lemmas", str(specs / "z8.json"), "--suite", "3.8"], capsys)
        assert code == 0

    @pytest.mark.parametrize("suite, check", [("3.1", check_lemma31), ("3.2", check_lemma32),
                                              ("3.9", lambda G: check_lemma39(G, 2))],
                             ids=["3.1", "3.2", "3.9"])
    def test_a_failing_suite_reports_its_witnesses(self, suite, check, specs, capsys,
                                                   monkeypatch):
        """One flipped entry of the roots matrix fails the suite, and each
        failing assertion carries the witness its checker found."""
        eta_module = importlib.import_module("rootsets.eta")  # rootsets.eta is also a function
        path = specs / "q8.json"
        G = build_group(parse_spec(path.read_text(encoding="utf-8")))
        R = eta_module.roots_matrix(G)
        R[2, 1] = ~R[2, 1]
        monkeypatch.setattr(eta_module, "roots_matrix", lambda G: R.copy())
        want = [a for a in check(G).assertions if a.status == "fail"]
        assert want and all(a.witness is not None for a in want)
        report, code = run(["lemmas", str(path), "--suite", suite], capsys)
        assert code == 2
        got = [a for a in report["assertions"] if a["status"] == "fail"]
        assert [(a["name"].rpartition(":")[2], a.get("witness")) for a in got] == [
            (a.name, list(a.witness)) for a in want]


REPORT_BODIES = json.loads((ROOT / "tests" / "data" / "report_bodies.json").read_text(
    encoding="utf-8"))


@pytest.mark.parametrize("command_line", sorted(REPORT_BODIES))
def test_report_bodies_are_pinned(command_line, capsys):
    """Bodies without ``metadata``, as printed, and exit codes, as captured
    before every report was serialized by ``report.Report.to_json``:
    ``k-estimate`` on every spec at the default and the perfbench flags,
    ``eta`` on two names per tower, the five lemma suites on q8, z8 and
    tree2, and the census.  The pinned file's keys are sorted as printed."""
    argv = [str(ROOT / a) if a.startswith("specs/") else a for a in command_line.split(" ")]
    report, code = run(argv, capsys)
    report.pop("metadata")
    want = REPORT_BODIES[command_line]
    assert code == want["code"]
    assert json.dumps(report, indent=2) == json.dumps(want["report"], indent=2)


class TestEmitTable:
    def test_round_trip(self, specs, tmp_path, capsys):
        out = tmp_path / "q8.tbl"
        report, code = run(["emit-table", str(specs / "q8.json"),
                            "--out", str(out)], capsys)
        assert code == 0
        G = load_table(out)
        assert G.order == 8
        assert report["result"]["order"] == 8
        # the emitted file round-trips through the table spec kind
        spec_doc = {"kind": "table", "path": "q8.tbl"}
        p = tmp_path / "fromtable.json"
        p.write_text(json.dumps(spec_doc), encoding="utf-8")
        report2, code2 = run(["eta", str(p), "--element", G.names[1]], capsys)
        assert code2 == 0
        assert report2["result"]["size"] >= 1


class TestRunCommand:
    def test_unknown_command(self):
        report, code = run_command("frobnicate", None, {})
        assert code == 1
        assert "unknown command" in report["errors"][0]

    def test_missing_flag(self, specs):
        doc = parse_spec((specs / "z8.json").read_text(), specs)
        report, code = run_command("eta", doc, {})
        assert code == 1
