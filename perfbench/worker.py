"""One fresh benchmark process: set up, then run a workload's jobs back to back.

    python3 worker.py MODE JOBS_JSON SECONDS SRC_DIR

MODE is ``setup`` (import and parse only), ``timed`` (run whole passes over
the job list until SECONDS have passed, at least one) or ``traced`` (the same
with the outside-in tracer installed).  Jobs go through
``rootsets.cli.run_command`` exactly as the ``rootsets`` command line sends
them, and each report is serialized as the command line prints it.  The
result is one JSON object on standard output.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb():
    """High-water resident set of this process.

    ru_maxrss is not used: Linux carries it over from the parent across
    fork and exec, so it would report the peak of run.py itself.
    """
    with open("/proc/self/status", encoding="utf-8") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _spec_arg(parse_spec, path):
    """What the command line makes of its spec argument: a document or a directory."""
    p = Path(path)
    if p.is_dir():
        return None, sorted(p.glob("*.json")), p
    return parse_spec(p.read_text(encoding="utf-8"), p.parent), [p], p.parent


def main(argv):
    mode, jobs_file, seconds, src = argv[1], argv[2], float(argv[3]), Path(argv[4])
    jobs = json.loads(Path(jobs_file).read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    from rootsets import cli
    if Path(cli.__file__).resolve().parent != (src / "rootsets").resolve():
        raise SystemExit(f"imported rootsets from {cli.__file__}, not from {src}")
    for job in jobs:
        _spec_arg(cli.parse_spec, job["spec"])
    setup_s = time.perf_counter() - t0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from oracle import body_digest  # this script's directory is on sys.path
    tracer = None
    if mode == "traced":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    def run(i, job):
        if tracer:
            tracer.job = i
            tracer.open("cli.run")
        spec, paths, base = _spec_arg(cli.parse_spec, job["spec"])
        if job["command"] == "lemmas":
            spec = None  # lemmas always runs over the file list
        report, code = cli.run_command(job["command"], spec, dict(job["flags"]),
                                       base_dir=base, spec_paths=paths)
        if tracer:
            tracer.close()
            tracer.open("cli.serialize")
        json.dumps(report, indent=2, sort_keys=True)
        if tracer:
            tracer.close()
        return report, code

    passes, first = [], None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if tracer:
            tracer.reset()
        job_s, results = [], []
        p_wall, p_cpu = time.perf_counter(), _cpu()
        for i, job in enumerate(jobs):
            t = time.perf_counter()
            results.append(run(i, job))
            job_s.append(time.perf_counter() - t)
        entry = {"wall_s": time.perf_counter() - p_wall, "cpu_s": _cpu() - p_cpu,
                 "job_s": job_s,
                 "outcomes": [[code, body_digest(report)] for report, code in results]}
        if tracer:
            entry["layers"] = tracer.layer_metrics()
            entry["k_estimate_tower_share"] = tracer.tower_share(
                job_s, [j["command"] for j in jobs])
        if first is None:
            first = [[code, report] for report, code in results]
        passes.append(entry)

    print(json.dumps({
        "setup_s": setup_s,
        "passes": passes,
        "reports": first,
        "peak_rss_mb": _peak_rss_mb(),
        "unwrapped": tracer.missing if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
