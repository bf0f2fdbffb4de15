"""Expected outcomes of benchmark jobs, derived without running rootsets.

Each job carries an ``expect`` entry from inputs.py.  ``check`` compares a
job's exit code and report body with it, and, for jobs whose body does not
depend on the seed, with the body digest captured at the seed commit in
digests.json (the ROADMAP's byte-identity rule).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

import inputs

DIGESTS = Path(__file__).with_name("digests.json")


def body_digest(report):
    """sha256 of the report with its metadata (timing) removed."""
    body = {k: v for k, v in report.items() if k != "metadata"}
    return hashlib.sha256(json.dumps(body, indent=2, sort_keys=True).encode()).hexdigest()


def load_digests():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))["digests"]


def _passes(report):
    return all(a["status"] == "pass" for a in report.get("assertions", []))


def _check_table_output(work, out, expect):
    table, _ = inputs.parse_table_text((work / out).read_text(encoding="utf-8"))
    if len(table) != expect["group_order"]:
        return f"emitted order {len(table)}, expected {expect['group_order']}"
    if not inputs.is_group_table(table):
        return "emitted table is not a group"
    if inputs.order_profile(table) != expect["profile"]:
        return "emitted group has the wrong order profile"
    return None


def _mismatch(job, code, report, work):
    """Why the job's outcome is wrong, or None when it is right."""
    exp = job["expect"]
    res = report.get("result") or {}
    if "reject" in exp:
        if code != 1:
            return f"defect table accepted (exit {code})"
        err = report["errors"][0]
        if exp["reject"] == "latin":
            want = f"row {exp['row']} is not a permutation"
            return None if err == want else f"error {err!r}, expected {want!r}"
        m = re.fullmatch(r"associativity fails at \((\d+),(\d+),(\d+)\)", err)
        if not m:
            return f"error {err!r} is not an associativity failure"
        table, _ = inputs.parse_table_text((work / exp["table"]).read_text(encoding="utf-8"))
        return None if inputs.assoc_fails(table, *map(int, m.groups())) else \
            f"reported triple {m.groups()} is associative"
    if code != 0:
        return f"exit {code}: {report.get('errors')}"
    if not _passes(report):
        return "an assertion did not pass"
    if "tower_k" in exp:
        want, members = exp["tower_k"], res["members"]
        if res.get("agrees") is not True or res["undetermined"]:
            return "estimate does not agree with the tower theory"
        if "names" in want and members != sorted(want["names"]):
            return f"K = {members}, expected {want['names']}"
        if "prefix" in want and not all(nm.startswith(want["prefix"]) for nm in members):
            return "K has members outside the central part"
        if "count" in want and len(members) != want["count"]:
            return f"|K| = {len(members)}, expected {want['count']}"
    elif "stabilized" in exp:
        if res["stabilized"] != exp["stabilized"]:
            return f"stabilized = {res['stabilized']}, theory says {exp['stabilized']}"
    elif "k_members" in exp:
        if res["members"] != exp["k_members"]:
            return "finite K is not the whole group"
    elif "eta_members" in exp:
        if res["members"] != exp["eta_members"]:
            return "eta differs from the brute-force set"
    elif "groups" in exp:
        if res["groups"] != exp["groups"]:
            return f"lemma groups {res['groups']}, expected {exp['groups']}"
    elif "round_trip" in exp:
        got = inputs.parse_table_text((work / job["flags"]["out"]).read_text(encoding="utf-8"))
        want = inputs.parse_table_text((work / exp["round_trip"]).read_text(encoding="utf-8"))
        if got[1] != want[1] or not np.array_equal(got[0], want[0]):
            return "emitted table differs from the input table"
    elif "profile" in exp:
        return _check_table_output(work, job["flags"]["out"], exp)
    elif "section_order" in exp:
        if res["section_order"] != exp["section_order"]:
            return f"section order {res['section_order']}, expected {exp['section_order']}"
        if res["section_profile"] != inputs.quaternion_profile(exp["section_order"]):
            return "section is not generalized quaternion"
        if not (res["recognizer_passed"] and res["eta_trivial"] and res["level_independent"]):
            return "reduction flags are not all true"
    elif "w_dim" in exp:
        w = exp["w_dim"]
        if (res["omega1_order"], res["involutions"]) != (2 ** w, 2 ** w - 1):
            return f"census {res}, expected omega1 of order 2^{w}"
    return None


def check(job, code, report, work, digests):
    """None if the job's outcome is right, else the reason it is wrong."""
    why = _mismatch(job, code, report, Path(work))
    if why is None and job["digest"]:
        want = digests.get(job["key"])
        if want is None:
            why = f"no captured digest for {job['key']!r}"
        elif body_digest(report) != want:
            why = "report body differs from the one captured at the seed commit"
    return why
