"""Capture the report-body digests that the oracle holds later commits to.

    python3 perfbench/capture_digests.py

Runs every seed-independent job the workloads can draw (every pool element,
not a seeded choice) once, checks each against the oracle's own expectations,
and writes digests.json.  Run it only at a commit whose reports are known to
be right; a later commit whose report bodies differ then fails those jobs.
"""

from __future__ import annotations

import json
import shutil
import sys

import inputs
import oracle
import run


def main():
    digests, bad = {}, []
    for workload in inputs.WORKLOADS:
        work = run.WORK / f"capture-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            jobs = [j for j in inputs.build(workload, 0, work, run.SPECS, full=True) if j["digest"]]
            (work / "jobs.json").write_text(json.dumps(jobs), encoding="utf-8")
            out = run.run_worker("timed", work / "jobs.json", 0, work)
            for job, (code, report) in zip(jobs, out["reports"]):
                why = oracle.check(dict(job, digest=False), code, report, work, {})
                if why:
                    bad.append(f"{job['id']}: {why}")
                digests[job["key"]] = oracle.body_digest(report)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    if bad:
        print("not captured, the oracle rejects these reports:\n  " + "\n  ".join(bad),
              file=sys.stderr)
        return 1
    oracle.DIGESTS.write_text(json.dumps(
        {"about": "sha256 of report bodies without metadata, keyed by job key",
         "digests": dict(sorted(digests.items()))}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {oracle.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
