"""Checks on the program's source and on the names outside code hooks into.

No linter is installed here, so unused imports are found with ``ast``.  The
benchmark's tracer (``perfbench/spans.py``) wraps functions and methods of
rootsets by name, and a target it cannot find is left untraced; this test
fails instead.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rootsets"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_tracer_target_resolves():
    """``Tracer.install`` records each span or counter target it cannot
    resolve; run it in a child, since it rewraps the modules it loads."""
    code = "import rootsets.cli, spans\nt = spans.Tracer()\nt.install()\nprint(t.missing)\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
