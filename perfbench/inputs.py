"""Seeded inputs for the rootsets benchmark, built without rootsets itself.

Everything here is plain numpy and stdlib: the group tables, their
relabelings, the planted defects and the brute-force checks that prove each
defect real.  The program under test only ever sees the files written here
and the spec documents that point at them.

A job is a dict the worker can run and the oracle can check:

    id       unique within the workload
    kind     the per-command metric it feeds (k_estimate, eta, ...)
    command  the rootsets CLI command
    spec     path of a spec document or directory, relative to the work dir
             unless absolute
    flags    the command's flags, as run_command takes them
    key      stable name of the job, used to look up its report digest
    digest   true when the report body must not depend on the seed
    expect   what the oracle checks (see oracle.py)
    known_issue   set on jobs whose failure is a documented defect
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("tower-eta", "finite-groups")

# ---------------------------------------------------------------------------
# groups, as (table, names) with element 0 the identity


def cyclic(n, prefix="z"):
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n, [f"{prefix}{i}" for i in range(n)]


def dihedral(m):
    """Order 2m: index i + m*e is r^i s^e, and s r s = r^-1."""
    idx = np.arange(2 * m)
    e, i = np.divmod(idx, m)
    e1, i1, e2, i2 = e[:, None], i[:, None], e[None, :], i[None, :]
    rot = (i1 + np.where(e1 == 1, -i2, i2)) % m
    return (e1 ^ e2) * m + rot, [f"r{i}" for i in range(m)] + [f"s{i}" for i in range(m)]


def quaternion(order):
    """Generalized quaternion of order 2^k >= 8: a^i b^e with b^2 = a^(n/2)."""
    n = order // 2
    idx = np.arange(order)
    e, i = np.divmod(idx, n)
    e1, i1, e2, i2 = e[:, None], i[:, None], e[None, :], i[None, :]
    rot = (i1 + np.where(e1 == 1, -i2, i2) + (e1 & e2) * (n // 2)) % n
    return (e1 ^ e2) * n + rot, [f"a{i}" for i in range(n)] + [f"a{i}b" for i in range(n)]


def symmetric(k):
    perms = sorted(itertools.permutations(range(k)))
    pos = {p: i for i, p in enumerate(perms)}
    table = np.array([[pos[tuple(p[q[j]] for j in range(k))] for q in perms] for p in perms])
    return table, ["p" + "".join(map(str, p)) for p in perms]


def direct_product(left, right):
    (tl, nl), (tr, nr) = left, right
    m = len(nr)
    table = np.kron(tl, np.ones((m, m), dtype=np.int64)) * m + np.tile(tr, (len(nl), len(nl)))
    return table, [f"{a}{b}" for a in nl for b in nr]


GROUPS = {
    "Q8": lambda: quaternion(8),
    "Q16": lambda: quaternion(16),
    "Q32": lambda: quaternion(32),
    "Q128": lambda: quaternion(128),
    "Q256": lambda: quaternion(256),
    "Q1024": lambda: quaternion(1024),
    "D4": lambda: dihedral(4),
    "D6": lambda: dihedral(6),
    "D64": lambda: dihedral(64),
    "D256": lambda: dihedral(256),
    "S4": lambda: symmetric(4),
    "S5": lambda: symmetric(5),
    "Z12": lambda: cyclic(12),
    "Z2xZ2": lambda: direct_product(cyclic(2, "x"), cyclic(2, "y")),
    "Z2xZ4": lambda: direct_product(cyclic(2, "x"), cyclic(4, "y")),
    "Z3xZ3": lambda: direct_product(cyclic(3, "x"), cyclic(3, "y")),
}


def relabel(table, names, rng):
    """The same group under a random permutation of indices 1..n-1.

    Names travel with their elements, so reports that print names do not
    depend on the relabeling; the identity stays at index 0.
    """
    n = len(names)
    perm = np.concatenate(([0], 1 + np.array(rng.sample(range(n - 1), n - 1), dtype=np.int64)))
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    new_names = [None] * n
    for old, new in enumerate(perm.tolist()):
        new_names[new] = names[old]
    return out, new_names


# ---------------------------------------------------------------------------
# brute-force facts about a table, used by the defect self-checks and the oracle


def latin_defect(table):
    """The first row (or column) that is not a permutation, or None."""
    n = len(table)
    for axis, label in ((1, "row"), (0, "column")):
        srt = np.sort(table, axis=axis)
        ok = (srt == np.arange(n)[None, :]) if axis == 1 else (srt == np.arange(n)[:, None])
        bad = ~ok.all(axis=axis)
        if bad.any():
            return label, int(np.argmax(bad))
    return None


def assoc_fails(table, a, b, c):
    return int(table[table[a, b], c]) != int(table[a, table[b, c]])


def assoc_witness(table, cells=None):
    """A triple (a, b, c) with (ab)c != a(bc), or None if the table is associative.

    With ``cells`` given, triples through those (row, column) entries are
    searched first, which finds a planted defect in O(n) per cell.
    """
    for a, b in cells or ():
        left = table[table[a, b]]               # (ab)c over all c
        right = table[a, table[b]]              # a(bc) over all c
        bad = np.nonzero(left != right)[0]
        if bad.size:
            return a, b, int(bad[0])
        left = table[table[:, a], b]            # (xa)b over all x
        right = table[:, table[a, b]]           # x(ab) over all x
        bad = np.nonzero(left != right)[0]
        if bad.size:
            return int(bad[0]), a, b
    for a in range(len(table)):
        bad = np.argwhere(table[table[a]] != table[a][table])
        if bad.size:
            return a, int(bad[0][0]), int(bad[0][1])
    return None


def powers_closure(table):
    """Boolean matrix R with R[h, g] true iff g is a power of h."""
    n = len(table)
    R = np.zeros((n, n), dtype=bool)
    R[:, 0] = True
    act = np.arange(n)
    cur = act.copy()
    while act.size:
        R[act, cur] = True
        cur = table[cur, act]
        keep = cur != 0
        act, cur = act[keep], cur[keep]
    return R


def order_profile(table):
    R = powers_closure(table)
    orders = R.sum(axis=1)
    vals, counts = np.unique(orders, return_counts=True)
    return {str(int(v)): int(c) for v, c in zip(vals, counts)}


def quaternion_profile(order):
    """Element orders of the generalized quaternion group of this order."""
    n = order // 2
    prof = {1: 1}
    k = 2
    while k <= n:
        prof[k] = k // 2
        k *= 2
    prof[4] = prof.get(4, 0) + n
    return {str(k): v for k, v in sorted(prof.items())}


def is_group_table(table):
    n = len(table)
    idx = np.arange(n)
    return (np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)
            and latin_defect(table) is None and assoc_witness(table) is None)


# ---------------------------------------------------------------------------
# planted defects


def plant_latin_break(table, rng):
    """Copy one entry of a row over another: that row is no longer a permutation."""
    n = len(table)
    out = table.copy()
    r = rng.randrange(1, n)
    c1, c2 = rng.sample(range(1, n), 2)
    out[r, c1] = out[r, c2]
    if latin_defect(out) != ("row", r):
        raise AssertionError(f"planted latin defect not detected at row {r}")
    return out, {"row": r}


def plant_intercalate(table, rng):
    """Swap the two symbols of an intercalate: still a Latin square, not associative.

    For an involution u and elements a, d, the cells (a, ud), (a, d),
    (au, ud), (au, d) hold x = a.ud twice and y = a.d twice in a 2x2
    pattern; swapping x and y keeps every row and column a permutation.
    Row 0 and column 0 are never touched, so the identity still acts.
    """
    n = len(table)
    invols = [u for u in range(1, n) if table[u, u] == 0]
    u = rng.choice(invols)
    a = rng.choice([g for g in range(1, n) if g != u])
    d = rng.choice([g for g in range(1, n) if g != u])
    b, c = int(table[u, d]), int(table[a, u])
    x, y = int(table[a, b]), int(table[a, d])
    assert table[c, d] == x and table[c, b] == y
    out = table.copy()
    out[a, b], out[a, d], out[c, b], out[c, d] = y, x, x, y
    if latin_defect(out) is not None:
        raise AssertionError("intercalate swap broke the Latin property")
    wit = assoc_witness(out, cells=[(a, b), (a, d), (c, b), (c, d)])
    if wit is None:
        raise AssertionError("intercalate swap left the table associative")
    return out, {"cells": [[a, b], [a, d], [c, b], [c, d]], "witness": list(wit)}


# ---------------------------------------------------------------------------
# files


def table_text(table, names, comment):
    """The rootsets table format, with a leading comment line."""
    rows = "\n".join(" ".join(map(str, row)) for row in table.tolist())
    return f"# {comment}\n{len(names)}\n{' '.join(names)}\n{rows}\n"


def parse_table_text(text):
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    n = int(lines[0])
    names = lines[1].split()
    table = np.array([[int(x) for x in ln.split()] for ln in lines[2:2 + n]], dtype=np.int64)
    return table, names


class WorkDir:
    """Writes the generated files of one run under a root directory."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def write(self, rel, text):
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return rel

    def table(self, rel, table, names, comment):
        self.write(rel, table_text(table, names, comment))
        return rel

    def spec(self, rel, doc):
        return self.write(rel, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _job(jid, kind, command, spec, flags, expect, *, key=None, digest=True, known_issue=None):
    return {"id": jid, "kind": kind, "command": command, "spec": spec, "flags": flags,
            "key": key or f"{command}|{spec}|{json.dumps(flags, sort_keys=True)}",
            "digest": digest, "expect": expect, "known_issue": known_issue}


# ---------------------------------------------------------------------------
# workloads
#
# Sizes are fixed per workload and the seed never changes how much work a job
# does, only which relabeling, defect cell, element and order it gets.  That
# keeps run-to-run spread down to the machine's noise.

# Towers in specs/ with their pinned flags.  The K predicted by each tower's
# classification, as a test on names born by the birth level (4).
TOWER_K = {
    "heis_t1": {"prefix": "000.", "count": 81},
    "t2": {"names": ["0.0", "0.1/2"]},
    "quat": {"names": ["0", "1/2"]},
    "quot": {"names": ["[0]"]},
    "prufer2": {"count": 16},
}
# Flags are spelled out in full, as the CLI's argument parser passes them, so
# report bodies equal those of the corresponding `rootsets` command line.
K_FLAGS = {"window": 2, "birth_cap": 4}
K_ESTIMATE = {"heis_t1": 6, "t2": 8, "quat": 10, "quot": 10, "prufer2": 12}
ETA_MAX_LEVEL = {"heis_t1": 5, "quat": 10, "t2": 8}
# Elements for eta, some inside the predicted K and some outside it.
ETA_POOL = {
    "heis_t1": ["000.1/3", "000.2/9", "010.0", "120.1/27"],
    "quat": ["1/2", "0", "1/4", "x.0", "x.3/8"],
    "t2": ["0.1/2", "0.1/4", "1.1/8", "x.0.3/16"],
}
IN_K = {"heis_t1": lambda nm: nm.startswith("000."),
        "quat": lambda nm: nm in ("0", "1/2"),
        "t2": lambda nm: nm in ("0.0", "0.1/2")}


def tower_eta(work, specs_dir, rng, full=False):
    jobs = []
    for name, ml in K_ESTIMATE.items():
        spec = str(Path(specs_dir) / f"{name}.json")
        jobs.append(_job(f"k-{name}", "k_estimate", "k-estimate", spec,
                         {"max_level": ml, **K_FLAGS},
                         {"tower_k": TOWER_K[name]}, key=f"k-estimate|specs/{name}.json|{ml}"))
    for name, ml in ETA_MAX_LEVEL.items():
        spec = str(Path(specs_dir) / f"{name}.json")
        for el in (ETA_POOL[name] if full else [rng.choice(ETA_POOL[name])]):
            jobs.append(_job(f"eta-{name}-{el}", "eta", "eta", spec,
                             {"element": el, "max_level": ml, "window": 2},
                             {"stabilized": IN_K[name](el)},
                             key=f"eta|specs/{name}.json|{el}|{ml}"))
    return jobs


LEMMA_GROUPS = ["Q8", "Q16", "Q32", "D4", "D6", "S4", "Z12", "Z2xZ4", "Z3xZ3"]
LEMMA_SUITES = ["3.1", "3.2", "3.3", "3.8", "3.9"]
K_FINITE_GROUPS = ["Q128", "D64"]
TABLE_ETA_POOL = {"Q128": ["a1", "a32", "a16", "a5b"], "D64": ["r1", "r32", "s0", "s7"]}
ROUND_TRIP_GROUPS = ["S5", "Q256", "D256"]
# (base group, defect kind, copies).  Order 1024 is above the size where the
# table check samples associativity, so the intercalate there is expected to
# be missed until that check is exact; it stays in the workload as a failure.
# Whether the sampler catches it depends on the seed, and a missed defect
# costs its job an emitted table, so one such job keeps that seed-dependent
# cost small next to a pass.
DEFECTS = [("Q256", "latin", 1), ("D256", "latin", 1),
           ("Q256", "intercalate", 1), ("D64", "intercalate", 1),
           ("Q1024", "intercalate", 1)]


def finite_tables(work, specs_dir, rng, full=False):
    jobs = []
    cache = {}

    def table_spec(gname):
        if gname not in cache:
            table, names = relabel(*GROUPS[gname](), rng)
            rel = work.table(f"tables/{gname.lower()}.tbl", table, names,
                             f"{gname}, relabeled")
            doc = {"kind": "table", "path": Path(rel).name, "label": gname}
            cache[gname] = (work.spec(f"tables/{gname.lower()}.json", doc), table, names)
        return cache[gname]

    for gname in LEMMA_GROUPS:
        table, names = relabel(*GROUPS[gname](), rng)
        work.table(f"lemma-groups/{gname.lower()}.tbl", table, names, gname)
        work.spec(f"lemma-groups/{gname.lower()}.json",
                  {"kind": "table", "path": f"{gname.lower()}.tbl", "label": gname})
    for suite in LEMMA_SUITES:
        jobs.append(_job(f"lemmas-{suite}", "lemmas", "lemmas", "lemma-groups",
                         {"suite": suite}, {"groups": sorted(LEMMA_GROUPS, key=str.lower)}))
    for gname in K_FINITE_GROUPS:
        spec, table, names = table_spec(gname)
        jobs.append(_job(f"k-{gname}", "k_estimate", "k-estimate", spec,
                         {"max_level": 8, **K_FLAGS},
                         {"k_members": sorted(names)}))
        R = powers_closure(table)
        for el in (TABLE_ETA_POOL[gname] if full else rng.sample(TABLE_ETA_POOL[gname], 2)):
            g = names.index(el)
            members = sorted(names[h] for h in range(len(names)) if not R[h, g])
            jobs.append(_job(f"eta-{gname}-{el}", "eta", "eta", spec,
                             {"element": el, "max_level": 8, "window": 2},
                             {"eta_members": members}))
    for gname in ROUND_TRIP_GROUPS:
        spec, table, names = table_spec(gname)
        out = f"out/{gname.lower()}.tbl"
        jobs.append(_job(f"emit-{gname}", "emit_table", "emit-table", spec, {"out": out},
                         {"round_trip": f"tables/{gname.lower()}.tbl"}))
    for gname, kind, copies in DEFECTS:
        for i in range(copies):
            table, names = relabel(*GROUPS[gname](), rng)
            plant = plant_latin_break if kind == "latin" else plant_intercalate
            bad, info = plant(table, rng)
            stem = f"defects/{gname.lower()}-{kind}-{i}"
            work.table(f"{stem}.tbl", bad, names, f"{gname} with a planted {kind} defect")
            spec = work.spec(f"{stem}.json", {"kind": "table", "path": Path(stem).name + ".tbl"})
            known = "sampled-associativity" if kind == "intercalate" and len(names) > 512 else None
            jobs.append(_job(f"reject-{gname}-{kind}-{i}", "reject", "emit-table", spec,
                             {"out": f"out/{Path(stem).name}.tbl"},
                             {"reject": kind, "table": f"{stem}.tbl", **info},
                             digest=False, known_issue=known))
    return jobs


def coboundary(table, p, rng):
    """w(x, y) = f(x) + f(y) - f(xy) mod p for a random f with f(identity) = 0."""
    f = np.array([0] + [rng.randrange(p) for _ in range(len(table) - 1)], dtype=np.int64)
    return (f[:, None] + f[None, :] - f[table]) % p


Q8_COCYCLE = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])


def reduction(work, specs_dir, rng, full=False):
    jobs = []
    t2 = str(Path(specs_dir) / "t2.json")
    # specs/t2.json has m = 2 over Z2 x C: level k has order 2^(k+2), one even
    # halving step divides by the order-4 subgroup {1, z, za, a}, and the odd
    # step's section <z, C> is that whole quotient, a quaternion group of order 2^k
    for level in (4, 5, 6):
        jobs.append(_job(f"reduce-{level}", "reduce_t2", "reduce-t2", t2, {"level": level},
                         {"section_order": 2 ** level},
                         key=f"reduce-t2|specs/t2.json|{level}"))
    tree = str(Path(specs_dir) / "tree2.json")
    for depth in (1, 2, 3):
        jobs.append(_job(f"census-{depth}", "omega1_census", "omega1-census", tree,
                         {"depth": depth}, {"w_dim": 2 ** depth - 1},
                         key=f"omega1-census|specs/tree2.json|{depth}"))
    # cocycle extensions over relabeled bases: the pinned quaternion cocycle
    # over Z2xZ2, and a coboundary over D64 (a split extension).  Both are
    # twisted by a random coboundary, so the spec differs per seed.
    for gname, base_w, profile in (
            ("Z2xZ2", Q8_COCYCLE, quaternion_profile(8)),
            ("D64", None, None)):
        table, names = GROUPS[gname]()
        if profile is None:
            profile = order_profile(direct_product((table, names), cyclic(2))[0])
        w = coboundary(table, 2, rng)
        if base_w is not None:
            w = (w + base_w) % 2
        rtable, rnames = relabel(table, names, rng)
        perm = np.array([rnames.index(nm) for nm in names])
        rw = np.empty_like(w)
        rw[np.ix_(perm, perm)] = w
        base_rel = work.table(f"constructions/{gname.lower()}.tbl", rtable, rnames, gname)
        ext = {"kind": "cocycle_extension", "label": f"ext-{gname}", "p": 2,
               "base": {"kind": "table", "path": Path(base_rel).name},
               "w": rw.tolist()}
        spec = work.spec(f"constructions/ext-{gname.lower()}.json", ext)
        jobs.append(_job(f"emit-ext-{gname}", "emit_table", "emit-table", spec,
                         {"out": f"out/ext-{gname.lower()}.tbl"},
                         {"group_order": 2 * len(names), "profile": profile}, digest=False))
        # the extension modulo its central fiber is the base again
        quo = {"kind": "quotient", "label": f"ext-{gname}-mod-fiber", "group": ext,
               "normal": [f"({rnames[0]},1)"]}
        spec = work.spec(f"constructions/quo-{gname.lower()}.json", quo)
        jobs.append(_job(f"emit-quo-{gname}", "emit_table", "emit-table", spec,
                         {"out": f"out/quo-{gname.lower()}.tbl"},
                         {"group_order": len(names), "profile": order_profile(table)},
                         digest=False))
    return jobs


def finite_groups(work, specs_dir, rng, full=False):
    """Table groups and constructions, no tower engine: the kernel, eta and
    constructions layers, mostly scalar Python loops over table entries."""
    return (finite_tables(work, specs_dir, rng, full=full)
            + reduction(work, specs_dir, rng, full=full))


WORKLOAD_JOBS = {"tower-eta": tower_eta, "finite-groups": finite_groups}


def build(workload, seed, root, specs_dir, *, full=False):
    """Write the workload's inputs under ``root`` and return its job list.

    The same seed gives the same files and jobs.  ``full`` takes every
    element of each pool instead of a seeded choice, for digest capture.
    """
    rng = random.Random(f"{workload}:{seed}")
    work = WorkDir(root)
    (work.root / "out").mkdir(exist_ok=True)
    jobs = WORKLOAD_JOBS[workload](work, specs_dir, rng, full=full)
    rng.shuffle(jobs)
    return jobs
