"""Tower levels on integer coordinates.

Names are parsed and formatted arithmetically (no level builds a name
dict), embeddings and element orders have closed forms, and every report
keeps its bytes.  What the name dict used to guarantee is checked here at
every level of every tower spec up to 2^15 elements: the embedding keeps
names, every name parses back to its id, non-canonical forms are refused,
and a planted wrong embedding image is caught.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest

from rootsets.catalog import corpus
from rootsets.cli import KINDS, build_tower, main, parse_spec, run_command
from rootsets.kernel import (
    FiniteGroupTable,
    NameView,
    OracleGroup,
    center,
    element_orders,
    names_at,
    order_of,
    prime_factors,
)
from rootsets.towers import (
    CoherenceError,
    Level,
    PruferTower,
    QuaternionTower,
    QuotientTower,
    T1Tower,
    T2Tower,
    TowerError,
    k_estimate,
    prufer_name,
)

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
TOWERS = sorted(p.stem for p in SPECS.glob("*.json")
                if KINDS[json.loads(p.read_text(encoding="utf-8"))["kind"]].tower)
MAX_ORDER = 2 ** 15
# names no bundled level has: non-canonical fractions, stray prefixes,
# padding, signs, digits int() reads but the formatter never writes
NON_CANONICAL = ["2/4", "0/1", "x.2/4", "000.3/9", "", "x.x.0", "1/2 ", " 1/2", "1/2\n",
                 "-1/2", "+1/2", "01/2", "1/02", "1/1", "3/2", "１/2", "1_0/16",
                 "0.0.1/2", "x.", "x.[0]", "[2/4]", "[1/2]", "[x.2/4]", "[0", "0]", "00"]


def load(name):
    path = SPECS / f"{name}.json"
    return build_tower(parse_spec(path.read_text(encoding="utf-8"), SPECS), SPECS)


def levels_up_to(tower, max_order):
    """The levels k0, k0 + 1, ... of at most ``max_order`` elements, built upward."""
    k = tower.k0
    while tower.level(k).n <= max_order:
        k += 1
    return range(tower.k0, k)


def reference_names(tower, k):
    """Level k's names as the eager name lists built them, from ``prufer_name``."""
    if isinstance(tower, PruferTower):
        return [prufer_name(m, tower.p, k) for m in range(tower.p ** k)]
    if isinstance(tower, QuaternionTower):
        c = [prufer_name(m, 2, k) for m in range(2 ** k)]
        return c + [f"x.{nm}" for nm in c]
    if isinstance(tower, T1Tower):
        c = [prufer_name(m, tower.p, k) for m in range(tower.p ** k)]
        return [f"{tower.H.names[r]}.{nm}" for r in tower.reps.tolist() for nm in c]
    if isinstance(tower, T2Tower):
        base = reference_names(tower.base, k)
        return base + [f"x.{nm}" for nm in base]
    assert isinstance(tower, QuotientTower)
    return None  # coset names are eager lists already


class _NoLevelDicts:
    """Stands in for ``OracleGroup.index``: refuses to build one for a Level."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        if isinstance(obj, Level):
            raise AssertionError(f"name dict built for {obj!r}")
        return {nm: i for i, nm in enumerate(obj.names)}


@pytest.fixture
def no_level_dicts(monkeypatch):
    monkeypatch.setattr(OracleGroup, "index", _NoLevelDicts())


# ---------------------------------------------------------------------------
# names: stable along the embedding, parsed back exactly


@pytest.mark.parametrize("name", TOWERS)
def test_names_are_stable_and_parse_back(name, no_level_dicts):
    tower = load(name)
    rng = np.random.default_rng(len(name))
    ks = levels_up_to(tower, MAX_ORDER)
    for k in ks:
        lvl = tower.level(k)
        names = list(lvl.names)
        ref = reference_names(tower, k)
        assert ref is None or names == ref, k
        assert len(set(names)) == lvl.n, k
        assert np.array_equal(lvl.ids_of(names), np.arange(lvl.n)), k
        for x in rng.integers(0, lvl.n, size=32).tolist():
            assert lvl.id_of(names[x]) == x and lvl.names[x] == names[x]
        for nm in NON_CANONICAL:
            assert not lvl.has(nm), (k, nm)
        assert np.array_equal(lvl.ids_of(NON_CANONICAL), np.full(len(NON_CANONICAL), -1))
        if k + 1 in ks:
            emb = tower.embed_ids(k)
            assert names_at(tower.level(k + 1), emb) == names, k


@pytest.mark.parametrize("name", [nm for nm in TOWERS if nm != "quot"])  # quot descends
def test_closed_form_orders_match_descent(name):
    tower = load(name)
    for k in levels_up_to(tower, 2 ** 17):
        lvl = tower.level(k)
        assert np.array_equal(lvl.orders, element_orders(lvl)), k


def test_t1_orders_match_descent_on_corpus_amalgams():
    """Amalgams over every central element of prime-power order of the corpus
    groups, the identity included: reps of every order modulo <a>."""
    for gname, H in corpus().items():
        for a in center(H):
            primes = set(prime_factors(order_of(H, a)))
            if len(primes) > 1:
                continue
            for p in primes or {2, 3}:
                tower = T1Tower(H, p, a)
                for k in range(tower.k0, tower.k0 + 2):
                    lvl = tower.level(k)
                    assert np.array_equal(lvl.orders, element_orders(lvl)), (gname, a, p, k)


def test_name_view_reads_as_the_list_of_names():
    lvl = PruferTower(2).level(3)
    names = ["0", "1/8", "1/4", "3/8", "1/2", "5/8", "3/4", "7/8"]
    assert isinstance(lvl.names, NameView)
    assert list(lvl.names) == names and lvl.names == names and len(lvl.names) == 8
    assert lvl.names != names[::-1] and lvl.names != names[:-1] and lvl.names != "0"
    assert lvl.names[-1] == "7/8" and lvl.names[np.int64(2)] == "1/4"
    assert lvl.names[1:6:2] == names[1:6:2] and "3/4" in lvl.names
    with pytest.raises(IndexError):
        lvl.names[8]


def test_base_names_that_start_with_x_are_read_as_a_name_dict_would():
    """H's element "x.z" gives base names "x.z.m/n", which read as "x." and
    the base name "z.m/n" first; with no such rep the plain reading holds."""
    H = FiniteGroupTable([[0, 1], [1, 0]], ["e", "x.z"])
    base = T1Tower(H, 2, 0)
    tower = T2Tower(base, "x.z.1/4", 2, {"e": ("e", (0, 1)), "x.z": ("x.z", (1, 2))})
    for k in range(tower.k0, tower.k0 + 3):
        lvl = tower.level(k)
        names = list(lvl.names)
        assert names[lvl.n // 2 - 1].startswith("x.z.") and names[-1].startswith("x.x.z.")
        assert len(set(names)) == lvl.n
        assert np.array_equal(lvl.ids_of(names), np.arange(lvl.n)), k
        assert lvl.id_of("x.z.1/4") == base.level(k).id_of("x.z.1/4")
        assert not lvl.has("x.x.z.2/4") and not lvl.has("z.1/4")


# ---------------------------------------------------------------------------
# a planted wrong image: caught by embed_ids, or by coherence check (0)


def automorphism(L):
    """A non-trivial automorphism of L: conjugation by a generator that
    moves something, else (L abelian) inversion."""
    ids = np.arange(L.n, dtype=np.int64)
    for g in L.generators:
        conj = L.mul_vec(L.mul_vec(L.inv(g), ids), g)
        if not np.array_equal(conj, ids):
            return conj
    return L.inv_vec(ids)


@pytest.mark.parametrize("name", TOWERS)
def test_a_wrong_image_is_refused_by_embed_ids(name, monkeypatch):
    tower = load(name)
    k = tower.k0 + 1
    true = tower.embed_vec
    emb = true(k, np.arange(tower.level(k).n))
    outside = np.ones(tower.level(k + 1).n, dtype=bool)
    outside[emb] = False
    x, y = 1, int(np.argmax(outside))

    def forged(j, ids):
        out = true(j, ids)
        return np.where(ids == x, y, out) if j == k else out

    monkeypatch.setattr(tower, "embed_vec", forged)
    with pytest.raises(TowerError, match=f"^embedding at level {k} is not a homomorphism$"):
        tower.embed_ids(k)


@pytest.mark.parametrize("name", TOWERS)
def test_an_image_moved_by_an_automorphism_is_refused_by_coherence(name, monkeypatch):
    """An injective homomorphism passes embed_ids; only the targets' parsed
    names show that it does not keep them."""
    tower = load(name)
    k = tower.k0 + 1
    phi = automorphism(tower.level(k + 1))
    assert not np.array_equal(phi, np.arange(phi.size))
    true = tower.embed_vec

    def forged(j, ids):
        out = true(j, ids)
        return phi[out] if j == k else out

    monkeypatch.setattr(tower, "embed_vec", forged)
    tower.embed_ids(k)  # passes: injective, and a homomorphism
    with pytest.raises(CoherenceError, match=f"^eta at level {k} disagrees"):
        k_estimate(tower, max_level=k + 1, birth_cap=k)


def test_an_image_out_of_range_is_refused(monkeypatch):
    tower = PruferTower(2)
    monkeypatch.setattr(tower, "embed_vec", lambda k, ids: ids * 2 - 1)
    with pytest.raises(TowerError, match="^embedding at level 3 leaves level 4$"):
        tower.embed_ids(3)


# ---------------------------------------------------------------------------
# no level builds a name dict, and reports keep their bytes


def _load_bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_tower_eta_job_builds_a_level_name_dict(no_level_dicts):
    import random

    jobs = _load_bench_inputs().tower_eta(None, SPECS, random.Random(0), full=True)
    assert {j["command"] for j in jobs} == {"k-estimate", "eta"}
    for job in jobs:
        path = Path(job["spec"])
        spec = parse_spec(path.read_text(encoding="utf-8"), path.parent)
        report, code = run_command(job["command"], spec, dict(job["flags"]), base_dir=path.parent)
        assert code == 0, (job["id"], report)


REDUCE_T2 = json.loads((ROOT / "tests" / "data" / "reduce_t2_reports.json").read_text(
    encoding="utf-8"))


@pytest.mark.parametrize("level", sorted(REDUCE_T2, key=int))
def test_reduce_t2_reports_are_unchanged_without_level_dicts(level, no_level_dicts):
    """Bodies captured from the implementation that looked names up in dicts."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["reduce-t2", str(SPECS / "t2.json"), "--level", level])
    report = json.loads(out.getvalue())
    report.pop("metadata")
    assert code == 0 and report == REDUCE_T2[level]
