"""Checks on the program's source and on the names outside code hooks into.

No linter is installed here, so unused imports are found with ``ast``.  The
benchmark's tracer (``perfbench/spans.py``) wraps functions and methods of
rootsets by name, and a target it cannot find is left untraced, while one
that is not callable would be wrapped as if it were; these tests fail
instead.
"""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rootsets"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the package's modules, then the scripts and tests; no two share a file name
SOURCES = MODULES + sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("tests/*.py"))
SPANS_PY = ROOT / "perfbench" / "spans.py"


def unused_imports(source):
    """Names a module imports and never mentions again, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os, numpy as np\nfrom a.b import c, d as e\nnp.x(e)\n") == [
        "os", "c"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def run_traced(code, *args):
    """Run ``code`` in a child with rootsets and perfbench's ``spans`` on the
    path, since ``Tracer.install`` rewraps the modules it loads; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_tracer_target_resolves():
    """``Tracer.install`` records each span or counter target it cannot resolve."""
    code = "import rootsets.cli, spans\nt = spans.Tracer()\nt.install()\nprint(t.missing)\n"
    assert run_traced(code) == "[]\n"


TRACED_LEMMAS = """
import json, pathlib, sys, rootsets.cli, spans
t = spans.Tracer()
t.install()
paths = sorted(pathlib.Path(sys.argv[1]).glob("*.json"))
for suite in ("3.3", "3.8"):
    report, code = rootsets.cli.run_command("lemmas", None, {"suite": suite},
                                            base_dir=sys.argv[1], spec_paths=paths)
    assert code == 0, report
print(json.dumps([[name, parent] for name, _, _, parent, _ in t.spans]))
"""


def test_a_traced_lemmas_run_times_suites_3_3_and_3_8(tmp_path):
    """The tracer times 3.3 and 3.8 by their ``cli`` names, rebinding module
    attributes: ``cli.SUITES`` must look each check up when it runs, or no
    span is recorded.  Each suite's roots matrix is timed inside it."""
    for name in ("q8.json", "z8.json"):
        (tmp_path / name).write_text((ROOT / "specs" / name).read_text(encoding="utf-8"),
                                     encoding="utf-8")
    spans = json.loads(run_traced(TRACED_LEMMAS, tmp_path))
    for suite in ("eta.lemma33", "eta.lemma38"):
        at = [i for i, (name, _) in enumerate(spans) if name == suite]
        assert len(at) == 2, suite  # one per group
        assert all(["eta.roots_matrix", i] in spans for i in at), suite


def tracer_targets():
    """Every "module:attribute" string of perfbench/spans.py: the ``SPANS``
    targets and the counter targets ``Tracer.install`` names."""
    tree = ast.parse(SPANS_PY.read_text(encoding="utf-8"))
    return sorted({node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and re.fullmatch(r"rootsets(\.\w+)*:\w+(\.\w+)*", node.value)})


def test_tracer_targets_include_every_span_target():
    spec = importlib.util.spec_from_file_location("spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    span_targets = {t for targets in spans.SPANS.values() for t in targets}
    assert span_targets < set(tracer_targets())


@pytest.mark.parametrize("target", tracer_targets())
def test_every_tracer_target_is_callable(target):
    mod_name, attr = target.split(":")
    obj = importlib.import_module(mod_name)  # the module, though rootsets.eta is also a function
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj), target


def test_level_defines_no_attribute_of_its_own():
    """``towers.Level`` is an ``OracleGroup`` under its own name, kept so the
    tracer can wrap tower levels' ``mul_vec`` and ``group`` apart."""
    towers = importlib.import_module("rootsets.towers")
    assert [k for k in vars(towers.Level) if not (k.startswith("__") and k.endswith("__"))] == []


def code_references(source, name):
    """Where ``name`` appears in code (not in prose): "def <qualname>" for its
    definition, else the qualified name of the enclosing def or class."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name == name:
                found.append("def " + ".".join(scope + [name]))
            scope = scope + [node.name]
        elif (isinstance(node, ast.Name) and node.id == name
              or isinstance(node, ast.Attribute) and node.attr == name
              or isinstance(node, ast.alias) and name in (node.name, node.asname)):
            found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_only_oracle_orders_calls_element_orders():
    """Descent runs only on groups with no closed-form orders of their own:
    every derived group and tower level hands its orders down."""
    refs = {p.name: code_references(p.read_text(encoding="utf-8"), "element_orders")
            for p in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in refs.items() if v} == {
        "kernel.py": ["OracleGroup.orders", "def element_orders"]}


def test_only_first_witness_takes_a_first_hit():
    """Every exact check that reports a first failure scans through
    ``kernel.first_witness``: the first-hit calls are named in code in
    ``src/rootsets/`` only there, so no check forks a scan of its own."""
    refs = {}
    for p in sorted(PACKAGE.glob("*.py")):
        source = p.read_text(encoding="utf-8")
        found = code_references(source, "argmax") + code_references(source, "argwhere")
        if found:
            refs[p.name] = found
    assert refs == {"kernel.py": ["first_witness"]}


def call_sites(source, name):
    """Where ``name`` is called, as a function or a method: the qualified
    name of each enclosing def or class, in source order."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        elif isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                     getattr(node.func, "attr", None)):
            found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_the_eta_engine_parses_no_name():
    """The tower eta engine takes its targets as ids of one level, for
    ``eta`` and ``k-estimate`` alike: neither ``towers._eta_engine`` nor
    ``towers._targets_below`` calls a name reader, so no target is read by
    name inside the engine."""
    source = (PACKAGE / "towers.py").read_text(encoding="utf-8")
    calls = [f"{site}: {name}" for name in ("ids_of", "lookup", "id_of", "has")
             for site in call_sites(source, name)]
    assert calls and [c for c in calls
                      if c.startswith(("_eta_engine", "_targets_below"))] == []


def test_tower_coordinates_are_stated_once():
    """Every tower kind but the quotient is on the ids r p^k + m, named
    "prefix + m/p^k": fractions are formatted and read in ``src/rootsets/``
    only by ``coordinate_names``, and the embedding (the id times p) and
    C's size p^k are defined only on ``Tower`` and, for the quotient's own
    embedding, on ``QuotientTower``.  A kind states its label and closed
    forms, and ``Tower._coordinate_level`` alone names the ids and makes
    the ``Level``: no module-level function builds a level, the quotient's
    is ``Level.derived``, and ``towers.py`` multiplies in a group only
    through its protocol, never reading a ``.table``."""
    uses, defs = [], []
    for p in sorted(PACKAGE.glob("*.py")):
        source = p.read_text(encoding="utf-8")
        for name in ("prufer_fractions", "fraction_id"):
            uses += [f"{p.name}: {r}" for r in code_references(source, name)]
        for name in ("embed_vec", "c_part_count"):
            defs += [f"{p.name}: {r}" for r in code_references(source, name)
                     if r.startswith("def ")]
    assert uses == ["towers.py: def prufer_fractions", "towers.py: coordinate_names.fmt",
                    "towers.py: def fraction_id", "towers.py: coordinate_names.read"]
    assert defs == ["towers.py: def Tower.embed_vec", "towers.py: def QuotientTower.embed_vec",
                    "towers.py: def Tower.c_part_count"]
    calls = {}
    for p in sorted(PACKAGE.glob("*.py")):
        source = p.read_text(encoding="utf-8")
        for name in ("coordinate_names", "Level", "derived", "_coordinate_level"):
            calls.setdefault(name, []).extend(f"{p.name}: {r}" for r in call_sites(source, name))
    assert calls["coordinate_names"] == calls["Level"] == ["towers.py: Tower._coordinate_level"]
    assert [c for c in calls["derived"] if c.startswith("towers.py")] == [
        "towers.py: QuotientTower._build_level"]
    assert calls["_coordinate_level"] == [f"towers.py: {kind}._build_level" for kind in (
        "PruferTower", "T1Tower", "T2Tower", "QuaternionTower")]
    towers = (PACKAGE / "towers.py").read_text(encoding="utf-8")
    assert [node.name for node in ast.parse(towers).body if isinstance(node, ast.FunctionDef)
            and node.name.endswith("_level")] == []
    assert code_references(towers, "table") == []


def test_reports_are_serialized_by_one_rule():
    """Every report is written to JSON by ``report.Report.to_json``; the
    spec echo, which flattens its params, is the one other ``to_json``."""
    defs = []
    for p in sorted(PACKAGE.glob("*.py")):
        defs += [f"{p.name}: {r}" for r in code_references(p.read_text(encoding="utf-8"), "to_json")
                 if r.startswith("def ")]
    assert defs == ["cli.py: def GroupSpecDocument.to_json", "report.py: def Report.to_json"]


def test_lemma_suites_live_in_eta():
    """``cli.py`` dispatches the lemma suites and computes none: it imports
    no numpy and defines no check, and every ``check_lemma3N`` is defined in
    ``eta.py`` and nowhere else in ``src/rootsets/``."""
    nodes = list(ast.walk(ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))))
    modules = [a.name for n in nodes if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module for n in nodes if isinstance(n, ast.ImportFrom) and n.module]
    assert [m for m in modules if m.partition(".")[0] == "numpy"] == []
    assert [n.name for n in nodes if isinstance(n, ast.FunctionDef)
            and n.name.startswith(("check_", "_lemma"))] == []
    where = {}
    for p in sorted(PACKAGE.glob("*.py")):
        source = p.read_text(encoding="utf-8")
        for n in ("31", "32", "33", "38", "39"):
            where.setdefault(n, []).extend(
                f"{p.name}: {r}" for r in code_references(source, f"check_lemma{n}")
                if r.startswith("def "))
    assert where == {n: [f"eta.py: def check_lemma{n}"] for n in ("31", "32", "33", "38", "39")}


def test_text_is_decoded_in_one_place():
    """Every text the package and the scripts read is decoded by
    ``kernel.decode_utf8``, which turns a byte that is not UTF-8 into an
    input error: no module in ``src/rootsets/`` or ``scripts/`` calls
    ``read_text``, ``write_text`` or ``.decode`` anywhere else, so no reader
    bypasses that mapping or the chunked read."""
    refs = {}
    for p in sorted(PACKAGE.glob("*.py")) + sorted(ROOT.glob("scripts/*.py")):
        source = p.read_text(encoding="utf-8")
        found = [r for name in ("read_text", "write_text", "decode")
                 for r in code_references(source, name)]
        if found:
            refs[p.name] = found
    assert refs == {"kernel.py": ["decode_utf8"]}
