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
import sys
from fractions import Fraction
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
    eta_stabilized,
    example_t2_tower,
    k_estimate,
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


def fractions(p, k):
    """The Prufer names of Z_(p^k): m / p^k mod 1 in lowest terms, "0" for 0."""
    return [str(Fraction(m, p ** k)) for m in range(p ** k)]


def reference_names(tower, k):
    """Level k's names as the eager name lists built them."""
    if isinstance(tower, PruferTower):
        return fractions(tower.p, k)
    if isinstance(tower, QuaternionTower):
        c = fractions(2, k)
        return c + [f"x.{nm}" for nm in c]
    if isinstance(tower, T1Tower):
        c = fractions(tower.p, k)
        return [f"{tower.H.names[r]}.{nm}" for r in tower.reps.tolist() for nm in c]
    if isinstance(tower, T2Tower):
        base = reference_names(tower.base, k)
        return base + [f"x.{nm}" for nm in base]
    assert isinstance(tower, QuotientTower)
    return None  # test_quotient_cosets_are_numbered_by_least_base_id


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


@pytest.mark.parametrize("name", [nm for nm in TOWERS if nm != "quot"])  # test_derived_groups
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


# ---------------------------------------------------------------------------
# cosets: one decomposition behind quotient levels and T1 transversals


def loop_transversal(H, a, order):
    """The T1 transversal as a per-element loop builds it: (reps, dec_t,
    dec_j) with h = reps[dec_t[h]] a^(dec_j[h])."""
    a_powers = H.pow_vec(a, np.arange(order))
    dec_t = np.full(H.order, -1, dtype=np.int64)
    dec_j = np.full(H.order, -1, dtype=np.int64)
    reps = []
    for h in range(H.order):
        if dec_t[h] == -1:
            coset = H.mul_vec(h, a_powers)  # h * a^j
            dec_t[coset], dec_j[coset] = len(reps), np.arange(a_powers.size)
            reps.append(h)
    return np.array(reps, dtype=np.int64), dec_t, dec_j


def test_cosets_give_the_t1_transversal_on_corpus_amalgams():
    for gname, H in corpus().items():
        for a in center(H):
            primes = set(prime_factors(order_of(H, a)))
            if len(primes) > 1:
                continue
            for p in primes or {2, 3}:
                tower = T1Tower(H, p, a)
                reps, dec_t, dec_j = loop_transversal(H, a, order_of(H, a))
                for got, want in ((tower.reps, reps), (tower.dec_t, dec_t),
                                  (tower.dec_j, dec_j)):
                    assert got.dtype == want.dtype and np.array_equal(got, want), (gname, a, p)
                assert tower.transversal_names() == [H.names[r] for r in reps.tolist()]


QUOTIENTS = {"quot": lambda: load("quot"),
             "t2-mod-e.1/4": lambda: QuotientTower(example_t2_tower(), ["e.1/4"])}


@pytest.mark.parametrize("name", QUOTIENTS)
def test_quotient_cosets_are_numbered_by_least_base_id(name):
    """Coset c is the c-th least base id's coset, and its name is the least
    of its members' base names, in brackets, by brute force."""
    tower = QUOTIENTS[name]()
    for k in levels_up_to(tower, MAX_ORDER):
        lvl, base_names = tower.level(k), list(tower.base.level(k).names)
        assert lvl.reps[0] == 0 and np.all(np.diff(lvl.reps) > 0), k
        first, least = {}, {}
        for g, c in enumerate(lvl.projection.tolist()):
            first.setdefault(c, g)
            least[c] = min(least.get(c, base_names[g]), base_names[g])
        assert lvl.reps.tolist() == [first[c] for c in range(lvl.n)], k
        assert list(lvl.names) == [f"[{least[c]}]" for c in range(lvl.n)], k


def test_building_a_quotient_level_formats_at_most_n_base_names():
    for k in levels_up_to(load("quot"), MAX_ORDER):
        tower = load("quot")
        names = tower.base.level(k).names
        formatted, fmt = [], names.format
        names.format = lambda ids: formatted.extend(np.ravel(ids).tolist()) or fmt(ids)
        lvl = tower.level(k)
        assert len(formatted) <= tower.base.level(k).n // lvl.n, (k, len(formatted))


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


@pytest.mark.parametrize("name", TOWERS)
def test_an_image_moved_by_an_automorphism_below_the_birth_level_is_refused(name, monkeypatch):
    """Below k-estimate's birth level no name is parsed: a target is read
    along the embeddings, and each element's name is checked once, at the
    level where it is born.  An automorphism of level k + 1 composed into
    emb_k moves some image, and that image's first ancestor fails there."""
    tower = load(name)
    k, bl = tower.k0 + 1, tower.k0 + 2
    phi = automorphism(tower.level(k + 1))
    true = tower.embed_vec
    emb = true(k, np.arange(tower.level(k).n))
    assert not np.array_equal(phi[emb], emb)  # it moves a name the embedding keeps

    def forged(j, ids):
        out = true(j, ids)
        return phi[out] if j == k else out

    monkeypatch.setattr(tower, "embed_vec", forged)
    tower.embed_ids(k)  # passes: injective, and a homomorphism
    with pytest.raises(CoherenceError, match=rf"^eta at level ({tower.k0}|{k}) disagrees "
                                             rf"with its restriction from level {bl}$"):
        k_estimate(tower, max_level=bl + 1, birth_cap=bl)


def test_an_eta_target_moved_onto_below_its_birth_level_is_refused(monkeypatch):
    """eta reads its name once, at its birth level, and reads the target
    below it along the embeddings, as k-estimate does.  The outer
    automorphism x c^m -> x c^(m + 1) of quaternion level 4, composed into
    emb_3, moves the image of x.0 onto x.1/16, which is born at level 4;
    x.0 is born at level 2 and is not named x.1/16.  (A Prüfer level cannot
    host this case: its index-p image is characteristic.)"""
    tower = QuaternionTower()
    ck = tower.c_part_count(4)
    true = tower.embed_vec

    def forged(j, ids):
        out = true(j, ids)
        return np.where(out >= ck, ck + (out + 1) % ck, out) if j == 3 else out

    monkeypatch.setattr(tower, "embed_vec", forged)
    tower.embed_ids(3)  # passes: injective, and a homomorphism
    assert tower.birth_level("x.1/16", 5) == 4
    with pytest.raises(CoherenceError, match="^eta at level 2 disagrees "
                                             "with its restriction from level 4$"):
        eta_stabilized(tower, "x.1/16", max_level=5)


def test_an_image_out_of_range_is_refused(monkeypatch):
    tower = PruferTower(2)
    monkeypatch.setattr(tower, "embed_vec", lambda k, ids: ids * 2 - 1)
    with pytest.raises(TowerError, match="^embedding at level 3 leaves level 4$"):
        tower.embed_ids(3)


# ---------------------------------------------------------------------------
# no level builds a name dict, and reports keep their bytes


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_tower_eta_job_builds_a_level_name_dict(no_level_dicts, monkeypatch):
    """Every job of the full tower-eta pool exits 0 with no level name
    dict, and its body has the digest the benchmark holds it to."""
    import random

    inputs = _load_bench_module("inputs")
    with monkeypatch.context() as m:
        m.setitem(sys.modules, "inputs", inputs)  # oracle.py imports its sibling
        oracle = _load_bench_module("oracle")
    digests = oracle.load_digests()
    jobs = inputs.tower_eta(None, SPECS, random.Random(0), full=True)
    assert {j["command"] for j in jobs} == {"k-estimate", "eta"}
    for job in jobs:
        path = Path(job["spec"])
        spec = parse_spec(path.read_text(encoding="utf-8"), path.parent)
        report, code = run_command(job["command"], spec, dict(job["flags"]), base_dir=path.parent)
        assert code == 0, (job["id"], report)
        assert oracle.body_digest(report) == digests[job["key"]], job["key"]


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
