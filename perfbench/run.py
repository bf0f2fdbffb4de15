"""Benchmark of the rootsets CLI: seeded closed-loop workloads, checked reports.

    python3 perfbench/run.py --workload tower-eta --seed 1 --seconds 20 --trace 0

Run from any directory; the program is imported from ``src/`` next to this
directory and nowhere else.  Each workload runs in fresh single-threaded
processes, one caller each.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced process, plus the tracing overhead.
``--workload all`` runs every workload, one after the other.  The lines
before it are the same numbers for people, with units and sample counts.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs
import oracle
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPECS = ROOT / "specs"
WORK = ROOT / ".bench_work"
SETUP_PROCESSES = 11
WORKER_TIMEOUT_S = 150
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
KINDS = ["k_estimate", "eta", "lemmas", "emit_table", "reject", "reduce_t2", "omega1_census"]


class BenchError(Exception):
    pass


def run_worker(mode, jobs_file, seconds, work):
    env = dict(os.environ, **{k: "1" for k in THREAD_ENV})
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), mode, str(jobs_file), str(seconds), str(SRC)],
        cwd=work, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _check(jobs, out, work, digests):
    """Check every job of every pass; return (attempted, failures).

    The first pass's reports go through the oracle; a later pass fails a job
    whose outcome differs from the first pass, and repeats its verdict if not.
    """
    verdicts = [oracle.check(job, code, report, work, digests)
                for job, (code, report) in zip(jobs, out["reports"])]
    reference = out["passes"][0]["outcomes"]
    failures = []
    for p in out["passes"]:
        for job, why, outcome, ref in zip(jobs, verdicts, p["outcomes"], reference):
            if outcome != ref:
                why = "report differs from the first pass"
            if why:
                failures.append((job, why))
    return len(jobs) * len(out["passes"]), failures


def run_workload(workload, seed, seconds, trace):
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs = inputs.build(workload, seed, work, SPECS)
        jobs_file = work / "jobs.json"
        jobs_file.write_text(json.dumps(jobs), encoding="utf-8")
        digests = oracle.load_digests()
        setups = [run_worker("setup", jobs_file, 0, work)["setup_s"]
                  for _ in range(SETUP_PROCESSES - 1)]
        timed = run_worker("timed", jobs_file, seconds / 2 if trace else seconds, work)
        setups.append(timed["setup_s"])
        runs = [timed]
        if trace:
            runs.append(run_worker("traced", jobs_file, seconds / 2, work))
        attempted, failures = 0, []
        for out in runs:
            a, f = _check(jobs, out, work, digests)
            attempted += a
            failures += f
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"workload": workload, "seed": seed, "jobs": jobs, "setups": setups,
            "timed": timed, "traced": runs[1] if trace else None,
            "attempted": attempted, "failures": failures}


def end_to_end(res):
    passes = res["timed"]["passes"]
    return {
        "setup_s": (statistics.median(res["setups"]), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (res["timed"]["peak_rss_mb"], "MB"),
    }


def per_layer(res):
    passes = res["traced"]["passes"]
    out = {n: (statistics.median(p["layers"][n] for p in passes),
               "count" if n in spans.COUNTERS else "s")
           for n in passes[0]["layers"]}
    overhead = (statistics.median(p["wall_s"] for p in passes)
                - statistics.median(p["wall_s"] for p in res["timed"]["passes"]))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def per_command(res):
    """Median time of each job kind over all passes, with its sample count."""
    times = {}
    for p in res["timed"]["passes"]:
        for job, t in zip(res["jobs"], p["job_s"]):
            times.setdefault(job["kind"], []).append(t)
    return {f"{k}_s": (statistics.median(times[k]), len(times[k])) for k in KINDS if k in times}


def machine():
    cpu = "unknown cpu"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"machine: nproc {os.cpu_count()}, {cpu}, Python {platform.python_version()}, "
            f"numpy {np.__version__}")


def report_lines(res, trace):
    t = res["timed"]
    n_pass = len(t["passes"])
    lines = [f"workload {res['workload']} seed {res['seed']}: {len(res['jobs'])} jobs a pass, "
             f"{n_pass} timed passes, 1 caller, single-threaded"]
    samples = {"setup_s": f"median of {len(res['setups'])} processes",
               "wall_s": f"median of {n_pass} passes", "cpu_s": f"median of {n_pass} passes",
               "peak_rss_mb": "1 process"}
    for name, (value, unit) in end_to_end(res).items():
        lines.append(f"  {name:<18} {value:12.4f} {unit:<5} ({samples[name]})")
    for name, (value, n) in per_command(res).items():
        lines.append(f"  {name:<18} {value:12.4f} s     (median of {n} jobs)")
    failed = len(res["failures"])
    lines.append(f"  {'error_rate':<18} {failed / res['attempted']:12.4f}       "
                 f"({failed} failed / {res['attempted']} attempted)")
    seen = set()
    for job, why in res["failures"]:
        if job["id"] not in seen:
            seen.add(job["id"])
            tag = f" [known issue: {job['known_issue']}]" if job["known_issue"] else ""
            lines.append(f"  FAILED {job['id']}: {why}{tag}")
    if trace:
        n = len(res["traced"]["passes"])
        lines.append(f"  per layer (traced process, median of {n} passes):")
        for name, (value, unit) in per_layer(res).items():
            lines.append(f"    {name:<30} {value:16.4f} {unit}")
        share = statistics.median(p["k_estimate_tower_share"] for p in res["traced"]["passes"])
        if any(j["command"] == "k-estimate" for j in res["jobs"]):
            lines.append(f"  towers.* self time is {share:.1f}% of k-estimate job wall time")
        if res["traced"]["unwrapped"]:
            lines.append(f"  not traced (missing): {', '.join(res['traced']['untraced'])}")
    return lines


def result_json(results, trace):
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        for name, (value, unit) in (per_layer(res) if trace else end_to_end(res)).items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {
        "correct": not any(not job["known_issue"] for r in results for job, _ in r["failures"]),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(len(r["failures"]) for r in results),
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(inputs.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rootsets" / "cli.py").is_file() or not SPECS.is_dir():
        print(f"error: no rootsets sources at {SRC} or no specs at {SPECS}", file=sys.stderr)
        return 2
    names = inputs.WORKLOADS if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(machine())
    for res in results:
        print("\n".join(report_lines(res, args.trace)))
    print(json.dumps(result_json(results, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
