"""Smoke tests for the runnable experiments in scripts/, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# eta_growth_sweep.py specs/quat.json --max-level 6, as the T x n engine printed it
QUAT_SWEEP = """\
tower=quat  kind=quaternion  birth-level=4  window=2
element             L2      L3      L4      L5      L6
------------------------------------------------------
* 0                  0       0       0       0       0
* 1/2                1       1       1       1       1
  1/16               -       -      24      40      72
  1/4                6      10      18      34      66
  1/8                -      12      20      36      68
  11/16              -       -      24      40      72
  13/16              -       -      24      40      72
  15/16              -       -      24      40      72
  3/16               -       -      24      40      72
  3/4                6      10      18      34      66
  3/8                -      12      20      36      68
  5/16               -       -      24      40      72
  5/8                -      12      20      36      68
  7/16               -       -      24      40      72

* stabilized (2 total); growing: 30; undetermined: 0
theory [K = <a> (unique involution)]: agrees
"""

# tree_depth_profile.py --max-depth 3: every element of each group, by its order
TREE_PROFILE = """\
depth 1: order 2^3 (V dim 2, W dim 1), exhaustive
  element orders: {1: 1, 2: 1, 4: 6}
depth 2: order 2^7 (V dim 4, W dim 3), exhaustive
  element orders: {1: 1, 2: 7, 4: 120}
depth 3: order 2^15 (V dim 8, W dim 7), exhaustive
  element orders: {1: 1, 2: 127, 4: 32640}
"""


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name,args", [
    ("eta_growth_sweep.py", ["specs/t2.json", "--max-level", "5", "--limit", "3"]),
    ("cocycle_census.py", ["--base", "z4"]),
    ("tree_depth_profile.py", ["--max-depth", "3"]),
    ("tree_depth_profile.py", ["--max-depth", "4"]),
])
def test_script_runs(name, args):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_eta_growth_sweep_output_is_unchanged():
    proc = run_script("eta_growth_sweep.py", "specs/quat.json", "--max-level", "6")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == QUAT_SWEEP


@pytest.mark.parametrize("spec,message", [
    ("specs/q8.json", "cocycle_extension is a finite-group kind, not a tower kind"),
    ("bad-utf8", "invalid UTF-8 at byte 40"),
    ("specs/missing.json", "No such file or directory: 'specs/missing.json'"),
])
def test_eta_growth_sweep_refuses_a_bad_spec_in_one_line(spec, message, tmp_path):
    """A spec that is not a tower, not UTF-8, or not there exits 1 with one
    line on stderr, not a traceback."""
    if spec == "bad-utf8":
        spec = tmp_path / "quat.json"
        spec.write_bytes(b'{"kind": "quaternion_tower", "label": "q\xff"}')
    proc = run_script("eta_growth_sweep.py", str(spec))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.endswith(f"{message}\n") and proc.stderr.count("\n") == 1, proc.stderr


def test_tree_depth_profile_is_exhaustive_to_depth_three():
    proc = run_script("tree_depth_profile.py", "--max-depth", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == TREE_PROFILE


def test_tree_depth_profile_is_exact_at_depth_four():
    proc = run_script("tree_depth_profile.py", "--max-depth", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == TREE_PROFILE + (
        "depth 4: order 2^31 (V dim 16, W dim 15), exhaustive\n"
        "  element orders: {1: 1, 2: 32767, 4: 2147450880}\n")
