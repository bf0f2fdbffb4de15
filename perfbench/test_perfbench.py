"""Self-tests of the benchmark: deterministic inputs, real defects, smoke runs.

    python3 -m pytest -q -p no:cacheprovider perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402

ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_work" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def scratch():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    yield SCRATCH
    shutil.rmtree(SCRATCH, ignore_errors=True)


def _files(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload, scratch):
    a = inputs.build(workload, 7, scratch / "a", ROOT / "specs")
    b = inputs.build(workload, 7, scratch / "b", ROOT / "specs")
    assert a == b
    assert _files(scratch / "a") == _files(scratch / "b")


def test_other_seed_other_order(scratch):
    a = [j["id"] for j in inputs.build("tower-eta", 1, scratch / "a", ROOT / "specs")]
    b = [j["id"] for j in inputs.build("tower-eta", 2, scratch / "b", ROOT / "specs")]
    assert a != b


@pytest.mark.parametrize("name", [g for g in inputs.GROUPS if len(inputs.GROUPS[g]()[1]) <= 512])
def test_generated_groups_are_groups(name):
    table, names = inputs.GROUPS[name]()
    assert inputs.is_group_table(table)
    assert len(set(names)) == len(names)
    relabeled, new_names = inputs.relabel(table, names, random.Random(0))
    assert inputs.is_group_table(relabeled)
    assert inputs.order_profile(relabeled) == inputs.order_profile(table)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["Q256", "D64", "Q1024"])
def test_planted_defects_are_real(name, seed):
    rng = random.Random(seed)
    table, _ = inputs.relabel(*inputs.GROUPS[name](), rng)
    bad, info = inputs.plant_latin_break(table, rng)
    assert inputs.latin_defect(bad) == ("row", info["row"])
    bad, info = inputs.plant_intercalate(table, rng)
    assert inputs.latin_defect(bad) is None
    assert inputs.assoc_fails(bad, *info["witness"])
    assert (bad != table).sum() == 4
    assert np.array_equal(bad[0], table[0]) and np.array_equal(bad[:, 0], table[:, 0])


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run(workload):
    trace = "1" if workload == "finite-groups" else "0"
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    units = {m["name"]: m["unit"] for m in wanted}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    assert "error_rate" in proc.stdout


def test_refuses_without_the_program(scratch):
    shutil.copytree(BENCH, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    proc = _run(scratch, "--workload", "tower-eta", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
