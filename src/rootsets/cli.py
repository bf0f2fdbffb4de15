"""Batch front door: JSON group/tower spec documents in, JSON reports out.

Exit codes: 0 computed and all checked assertions passed, 2 computed with
reported disagreements (e.g. a theory-tag mismatch), 1 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import __version__
from .catalog import cyclic
from .constructions import (
    TREE_TABLE_DEPTH,
    CocycleTable,
    central_extension,
    heisenberg,
    omega1_census,
    quaternion_reduce,
    tree_vw_group,
)
from .eta import (
    check_lemma31,
    check_lemma32,
    check_lemma33,
    check_lemma38,
    check_lemma39,
    eta,
    k_finite,
)
from .kernel import (
    PRIME_BOUND,
    GroupError,
    closure,
    decode_utf8,
    direct_product,
    is_prime,
    load_table,
    names_at,
    prime_factors,
    quotient,
    table_blocks,
)
from .report import PASS, Assertion
from .towers import (
    DEFAULT_BIRTH_CAP,
    DEFAULT_MAX_LEVEL,
    DEFAULT_WINDOW,
    PruferTower,
    QuaternionTower,
    QuotientTower,
    T1Tower,
    T2Tower,
    eta_stabilized,
    inversion_recipe,
    k_estimate,
)


class SpecError(Exception):
    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass
class GroupSpecDocument:
    kind: str
    params: dict
    label: str = None
    values: dict = field(default_factory=dict, repr=False)  # checked fields, children parsed

    def to_json(self):
        doc = {"kind": self.kind, **self.params}
        if self.label:
            doc["label"] = self.label
        return doc


# ---------------------------------------------------------------------------
# spec-kind registry.  A field check takes (value, base_dir) and returns None
# when the value is fine, else the message reported after the field's path.

def _is_int(v):
    return type(v) is int  # JSON true/false are bools, not integers


def _expect(ok, what):
    return lambda v, base_dir: None if ok(v) else f"{what} (got {v!r})"


def _ints(v):
    """The integers of a field value: the value itself, or its lists' entries."""
    if isinstance(v, list):
        for x in v:
            yield from _ints(x)
    elif _is_int(v):
        yield v


def _int64(v):
    """Refuse an integer that int64, the dtype of every id, order and
    exponent, cannot hold; every field that passes its own check is read
    by this too."""
    wide = next((x for x in _ints(v) if not -2 ** 63 <= x < 2 ** 63), None)
    return None if wide is None else f"expected an integer in int64 range (got {wide!r})"


_POSITIVE = _expect(lambda v: _is_int(v) and v >= 1, "expected an integer >= 1")
_NAME = _expect(lambda v: isinstance(v, str), "expected an element name")
_NAMES = _expect(lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
                 "expected a list of element names")
_MATRIX = _expect(lambda v: isinstance(v, list) and all(
    isinstance(r, list) and len(r) == len(v[0]) and {int}.issuperset(map(type, r)) for r in v),
    "expected a matrix of rows")  # every entry's type is int, as ``_is_int`` asks
_DEPTH = _expect(lambda v: _is_int(v) and 1 <= v <= 4, "expected depth 1..4")


def _table_path(v, base_dir):
    if not isinstance(v, str):
        return f"expected a file path (got {v!r})"
    if not (base_dir / v).is_file():
        return f"file not found: {v}"


def _prime(v, base_dir):
    if _is_int(v) and v >= PRIME_BOUND:
        return f"expected a prime below {PRIME_BOUND} (got {v!r})"
    return None if _is_int(v) and is_prime(v) else f"expected a prime (got {v!r})"


def _odd_prime(v, base_dir):
    return _prime(v, base_dir) or (
        "must be odd (no nonabelian exponent-2 group)" if v == 2 else None)


def _fraction(text):
    """'num/den' or 'num' as (num, den) with den >= 1, else None."""
    num, slash, den = text.partition("/")
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError:
        return None
    return (num, den) if den >= 1 else None


def _alpha(v, base_dir):
    if v == "inversion":
        return None
    if not isinstance(v, dict):
        return "expected \"inversion\" or a recipe object"
    for rep, entry in v.items():
        if not (isinstance(entry, list) and len(entry) == 2
                and all(isinstance(x, str) for x in entry) and _fraction(entry[1])):
            return f"entry {rep!r}: expected [name, \"num/den\"] with den >= 1 (got {entry!r})"


@dataclass(frozen=True)
class Child:
    """A field holding a nested document, built before its parent.

    A tower child must have one of ``kinds`` (default: any tower kind), which
    parsing checks; a finite-group child that is a tower fails when built.
    """

    tower: bool
    kinds: tuple = ()
    message: str = "must be a tower document"


_GROUP = Child(tower=False)


def _tree_vw(depth, **_):
    if depth > TREE_TABLE_DEPTH:
        raise SpecError([f"tree_vw depth {depth} is a multiplication oracle with no Cayley "
                         f"table; only omega1-census accepts depth > {TREE_TABLE_DEPTH}"])
    return tree_vw_group(depth)


def _t2(base, y, m, alpha, label, **_):
    recipe = inversion_recipe(base) if alpha == "inversion" else {
        rep: (tgt, _fraction(frac)) for rep, (tgt, frac) in alpha.items()}
    return T2Tower(base, y, m, recipe, label=label)


@dataclass(frozen=True)
class SpecKind:
    tower: bool
    fields: dict  # name -> check or Child, in the order errors are reported
    build: Callable  # called with the fields (children built), label and base_dir


KINDS = {
    "table": SpecKind(False, {"path": _table_path},
                      lambda path, base_dir, **_: load_table(base_dir / path)),
    "cyclic": SpecKind(False, {"n": _POSITIVE}, lambda n, **_: cyclic(n)),
    "direct_product": SpecKind(False, {"left": _GROUP, "right": _GROUP},
                               lambda left, right, **_: direct_product(left, right)),
    "heisenberg": SpecKind(False, {"p": _odd_prime}, lambda p, **_: heisenberg(p)),
    "cocycle_extension": SpecKind(
        False, {"base": _GROUP, "p": _prime, "w": _MATRIX},
        lambda base, p, w, **_: central_extension(CocycleTable.of(base, p, w))),
    "tree_vw": SpecKind(False, {"depth": _DEPTH}, _tree_vw),
    "quotient": SpecKind(
        False, {"group": _GROUP, "normal": _NAMES},
        lambda group, normal, **_: quotient(
            group, closure(group, [group.id_of(nm) for nm in normal]))[0].group()),
    "prufer_tower": SpecKind(True, {"p": _prime}, lambda p, **_: PruferTower(p)),
    "t1_tower": SpecKind(
        True, {"H": _GROUP, "p": _prime, "a_gen": _NAME},
        lambda H, p, a_gen, label, **_: T1Tower(H, p, H.id_of(a_gen), label=label)),
    "t2_tower": SpecKind(
        True, {"base": Child(True, ("t1_tower", "prufer_tower"),
                             "must be a t1_tower or prufer_tower"),
               "y": _NAME, "m": _POSITIVE, "alpha": _alpha}, _t2),
    "quaternion_tower": SpecKind(True, {}, lambda **_: QuaternionTower()),
    "quotient_tower": SpecKind(
        True, {"base": Child(tower=True), "normal": _NAMES},
        lambda base, normal, label, **_: QuotientTower(base, normal, label=label)),
}


def _validate(doc, errors, base_dir, path="spec"):
    if not isinstance(doc, dict):
        errors.append(f"{path}: expected an object")
        return None
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        errors.append(f"{path}: unknown kind {kind!r}")
        return None
    params = {k: v for k, v in doc.items() if k not in ("kind", "label")}
    values = {}
    for key, check in KINDS[kind].fields.items():
        where, v = f"{path}.{key}", params.get(key)
        if key not in params:
            errors.append(f"{where}: missing")
        elif isinstance(check, Child):
            values[key] = _validate(v, errors, base_dir, where)
            if check.tower and isinstance(v, dict) and v.get("kind") not in (
                    check.kinds or [k for k, s in KINDS.items() if s.tower]):
                errors.append(f"{where}: {check.message}")
        elif (problem := check(v, base_dir) or _int64(v)) is not None:
            errors.append(f"{where}: {problem}")
        else:
            values[key] = v
    return GroupSpecDocument(kind, params, doc.get("label"), values)


def parse_spec(text, base_dir="."):
    """Parse and validate a spec document, collecting all validation errors."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError([f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    errors = []
    parsed = _validate(doc, errors, Path(base_dir))
    if errors:
        raise SpecError(errors)
    return parsed


def read_spec(path, base_dir):
    """Parse the spec document in the file ``path``; a byte that is not
    UTF-8 is a SpecError naming the file."""
    text = decode_utf8(Path(path).read_bytes(),
                       error=lambda message: SpecError([f"{path}: {message}"]))
    return parse_spec(text, base_dir)


def _kind(spec):
    if spec is None:
        raise SpecError(["this command needs a spec document"])
    return KINDS[spec.kind]


def _build(spec, base_dir, tower):
    kind = _kind(spec)
    if kind.tower != tower:
        names = ("finite-group", "tower")
        raise SpecError([f"{spec.kind} is a {names[kind.tower]} kind, "
                         f"not a {names[tower]} kind"])
    args = dict(spec.values)
    for key, check in kind.fields.items():
        if isinstance(check, Child):
            args[key] = (build_tower if check.tower else build_group)(args[key], base_dir)
    return kind.build(**args, label=spec.label or "", base_dir=Path(base_dir))


def build_group(spec, base_dir="."):
    return _build(spec, base_dir, tower=False)


def build_tower(spec, base_dir="."):
    return _build(spec, base_dir, tower=True)


# ---------------------------------------------------------------------------
# commands

def _status(name, ok, witness=None):
    """An assertion entry; the witness is reported only on failure."""
    return Assertion.of(name, ok, witness).to_json()


def _given(flags, *names):
    """The named flags that were set; the rest take the towers.DEFAULT_* values."""
    return {k: flags[k] for k in names if flags.get(k) is not None}


def _cmd_eta(spec, flags, base_dir, spec_paths):
    element = flags.get("element")
    if not element:
        raise SpecError(["eta requires --element"])
    if _kind(spec).tower:
        rep = eta_stabilized(build_tower(spec, base_dir), element,
                             **_given(flags, "max_level", "window"))
        return rep.to_json(), [_status("eta-coherence", True)]
    G = build_group(spec, base_dir)
    es = eta(G, G.id_of(element))
    result = {"element": element, "size": len(es), "members": sorted(names_at(G, es.members))}
    return result, [_status("target-not-in-eta", G.id_of(element) not in es)]


def _cmd_k_estimate(spec, flags, base_dir, spec_paths):
    if _kind(spec).tower:
        rep = k_estimate(build_tower(spec, base_dir),
                         **_given(flags, "max_level", "window", "birth_cap"))
        assertions = []
        if rep.agrees is not None:
            assertions.append(_status("matches-theory", rep.agrees,
                                      {"members": rep.members, "theory": rep.theory}))
        return rep.to_json(), assertions
    G = build_group(spec, base_dir)
    rep = k_finite(G)
    result = {"members": sorted(names_at(G, rep.members)), "warning": rep.warning}
    return result, [_status("k-finite-degenerate-whole-group", len(rep.members) == G.order)]


# the benchmark's tracer (perfbench/spans.py) times suites 3.3 and 3.8 by these names
_lemma33_suite = check_lemma33
_lemma38_suite = check_lemma38


# suite name -> group -> CheckReports by the suffix of their label.  Each check
# is looked up by name when called, so a wrapper later bound to it (the tracer's) runs.
SUITES = {
    "3.1": lambda G: {"": check_lemma31(G)},
    "3.2": lambda G: {"": check_lemma32(G)},
    "3.3": lambda G: {"": check_lemma33(G)},
    "3.8": lambda G: {"": check_lemma38(G)},
    "3.9": lambda G: {f":p={p}": check_lemma39(G, p) for p in prime_factors(G.order)},
}


def _cmd_lemmas(spec, flags, base_dir, spec_paths):
    suite = flags.get("suite")
    if suite not in SUITES:
        raise SpecError([f"unknown lemma suite {suite!r}"])
    if spec_paths == []:
        raise SpecError([f"{base_dir}: the directory holds no *.json spec documents"])
    if spec_paths is not None:
        docs = ((read_spec(p, base_dir), Path(p).stem) for p in spec_paths)
    elif spec is not None:
        docs = [(spec, spec.kind)]
    else:
        raise SpecError(["lemmas requires a spec document or spec paths"])
    result, assertions = {"suite": suite, "groups": []}, []
    for doc, stem in docs:
        G = build_group(doc, base_dir)
        label = doc.label or G.label or stem
        result["groups"].append(label)
        assertions += [Assertion(f"{label}{suffix}:{a.name}", a.status, a.witness).to_json()
                       for suffix, rep in SUITES[suite](G).items() for a in rep.assertions]
    return result, assertions


def _cmd_reduce_t2(spec, flags, base_dir, spec_paths):
    tower = build_tower(spec, base_dir)
    level = flags.get("level")
    if level is None:
        raise SpecError(["reduce-t2 requires --level"])
    trace = quaternion_reduce(tower, level, verify_next_level=True)
    return trace.to_json(), [
        _status("generalized-quaternion-recognizer", trace.recognizer_passed),
        _status("eta-of-a-trivial", trace.eta_trivial),
        _status("level-independent", trace.level_independent),
    ]


def _cmd_omega1_census(spec, flags, base_dir, spec_paths):
    depth = flags.get("depth")
    if depth is None:
        if spec is not None and spec.kind == "tree_vw":
            depth = spec.params["depth"]
        else:
            raise SpecError(["omega1-census requires --depth or a tree_vw spec"])
    rep = omega1_census(depth)
    return rep.result, [a.to_json() for a in rep.assertions]


def _cmd_emit_table(spec, flags, base_dir, spec_paths):
    out = flags.get("out")
    if not out:
        raise SpecError(["emit-table requires --out"])
    G = build_group(spec, base_dir)
    with open(out, "w", encoding="utf-8") as f:
        f.writelines(table_blocks(G))  # one block at a time, never the whole text
    return {"path": str(out), "order": G.order}, []


_LEVELS = {"--max-level": {"type": int, "default": DEFAULT_MAX_LEVEL},
           "--window": {"type": int, "default": DEFAULT_WINDOW}}

# command -> (handler, help, command-line flags)
COMMANDS = {
    "eta": (_cmd_eta, "level-wise eta with stabilization certificate",
            {"--element": {"required": True}, **_LEVELS}),
    "k-estimate": (_cmd_k_estimate, "stabilized-element estimate of K",
                   {**_LEVELS, "--birth-cap": {"type": int, "default": DEFAULT_BIRTH_CAP}}),
    "lemmas": (_cmd_lemmas, "run a lemma suite on a group spec or directory of specs",
               {"--suite": {"required": True, "choices": list(SUITES)}}),
    "reduce-t2": (_cmd_reduce_t2, "generalized quaternion reduction of a t2 tower",
                  {"--level": {"type": int, "required": True}}),
    "omega1-census": (_cmd_omega1_census, "order-2 census of the tree group",
                      {"--depth": {"type": int}}),
    "emit-table": (_cmd_emit_table, "write the group as a Cayley table file",
                   {"--out": {"required": True}}),
}

_INPUT_ERRORS = (SpecError, GroupError, OSError, MemoryError)


def _error_report(command, exc):
    """The report of a command that could not compute, for exit code 1."""
    if isinstance(exc, SpecError):
        return {"command": command, "errors": exc.errors}
    message = f"out of memory: {exc}" if isinstance(exc, MemoryError) else str(exc)
    return {"command": command, "errors": [message]}


def run_command(command, spec, flags, *, base_dir=".", spec_paths=None):
    """Dispatch a command and wrap the outcome in the canonical report shape.

    Returns (report dict, exit code).  The canonical body is timestamp-free;
    timing lives in the metadata field, which comparison mode excludes.
    """
    start = time.perf_counter()
    try:
        if command not in COMMANDS:
            raise SpecError([f"unknown command {command!r}"])
        result, assertions = COMMANDS[command][0](spec, flags, base_dir, spec_paths)
    except _INPUT_ERRORS as exc:
        return _error_report(command, exc), 1
    report = {
        "spec": spec.to_json() if spec is not None else None,
        "command": command,
        "flags": {k: v for k, v in sorted(flags.items()) if v is not None},
        "result": result,
        "assertions": assertions,
        "metadata": {"tool_version": __version__,
                     "timing_seconds": round(time.perf_counter() - start, 6)},
    }
    code = 0 if all(a["status"] == PASS for a in assertions) else 2
    return report, code


def _load_spec_arg(path):
    """A spec path: a single JSON document, or a directory of them (lemmas)."""
    p = Path(path)
    if p.is_dir():
        return None, sorted(p.glob("*.json")), p
    return read_spec(p, p.parent), [p], p.parent


def main(argv=None):
    parser = argparse.ArgumentParser(prog="rootsets",
                                     description="Root sets and the K subgroup in "
                                     "finite groups and towers of finite groups.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("spec", help="path to a JSON spec document")
        for flag, kw in options.items():
            sp.add_argument(flag, **kw)

    args = parser.parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "spec")}
    try:
        spec, spec_paths, base_dir = _load_spec_arg(args.spec)
    except _INPUT_ERRORS as exc:
        report, code = _error_report(args.command, exc), 1
    else:
        if args.command == "lemmas":
            spec = None  # lemmas always runs over the file list
        report, code = run_command(args.command, spec, flags,
                                   base_dir=base_dir, spec_paths=spec_paths)
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
