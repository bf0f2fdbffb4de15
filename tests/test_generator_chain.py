"""Tower levels inherit their generators along the validated embedding.

Above k0, ``Tower.embed_ids(k)`` gives level k + 1 the generators g, the
least element outside the image, and the images of level k's generators
outside <g>, whenever the index is prime.  These tests check that the sets
span each level, that a non-homomorphic embedding is still refused when the
check reads inherited generators, and that other indices, and generators a
level already holds, keep the greedy ``generating_set``.  Since each
embedding validates the chain below it first, a guard runs the tower
commands on the bundled specs and allows a greedy search only at a chain's
k0, whatever order the command builds levels in.  The last two sections
check the quaternion reduction's C ids and its one-span sections,
and ``root_images``'s blocked power images against the unblocked form.
"""

import importlib
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rootsets import cli
from rootsets.cli import build_tower, parse_spec, run_command
from rootsets.constructions import quaternion_reduce
from rootsets.kernel import (
    _span,
    closure,
    generated_subgroup,
    generating_set,
    is_subgroup,
    root_images,
    subgroup_table,
)
from rootsets.towers import (
    Level,
    PruferTower,
    QuaternionTower,
    Tower,
    TowerError,
    k_estimate,
    prufer_level,
)

kernel = importlib.import_module("rootsets.kernel")
ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
NAMES = ["heis_t1", "prufer2", "quat", "quot", "t2"]
MAX_ORDER = 2 ** 15


def load(name):
    path = SPECS / f"{name}.json"
    return build_tower(parse_spec(path.read_text(encoding="utf-8"), SPECS), SPECS)


def levels_up_to(tower, max_order):
    """The levels k0, k0 + 1, ... of at most ``max_order`` elements, built upward."""
    k = tower.k0
    while tower.level(k).n <= max_order:
        k += 1
    return range(tower.k0, k)


@pytest.fixture
def greedy_calls(monkeypatch):
    """Every tower level ``generating_set`` runs on, in order."""
    calls = []

    def recording(G):
        if isinstance(G, Level):
            calls.append(G)
        return generating_set(G)

    monkeypatch.setattr(kernel, "generating_set", recording)
    return calls


@pytest.mark.parametrize("name", NAMES)
def test_inherited_generators_span_every_level(name, greedy_calls):
    tower = load(name)
    ks = levels_up_to(tower, MAX_ORDER)
    for k in ks[:-1]:
        emb = tower.embed_ids(k)
        lvl = tower.level(k + 1)
        gens = lvl.generators
        outside = np.ones(lvl.n, dtype=bool)
        outside[emb] = False
        assert gens[0] == np.argmax(outside)
        assert _span(lvl, np.array(gens, dtype=np.int64))[0].all(), (name, k + 1)
    # the embedding checks ran one greedy search, at k0; a T2 tower adds its
    # base level k0, whose generators the extension check at k0 reads
    chain = tower.level(ks[0])
    assert greedy_calls[-1] is chain
    assert len(greedy_calls) == (2 if name == "t2" else 1)


@pytest.mark.parametrize("name", NAMES)
def test_inherited_sets_are_no_larger_than_the_greedy_ones(name):
    tower = load(name)
    ks = levels_up_to(tower, 2 ** 12)
    for k in ks[:-1]:
        tower.embed_ids(k)
    for k in ks[1:]:
        lvl = tower.level(k)
        assert len(lvl.generators) <= len(generating_set(lvl)), (name, k)


@pytest.mark.parametrize("name", NAMES)
def test_a_swapped_pair_of_names_is_refused_on_inherited_generators(name, monkeypatch):
    truth = load(name)
    k = truth.k0 + 2
    emb = truth.embed_ids(k)
    g = truth.level(k).generators[0]
    outside = np.ones(truth.level(k + 1).n, dtype=bool)
    outside[emb] = False
    b = int(np.argmax(outside))  # an element outside the image

    tower = load(name)
    for j in range(tower.k0, k):
        tower.embed_ids(j)
    assert "generators" in vars(tower.level(k))
    true = tower.embed_vec

    def forged(j, ids):
        # the map now sends g outside the image and nothing else moves: still
        # injective, but x * g for x != 1 lands inside while f(x) f(g) does not
        emb = true(j, ids)
        return np.where(ids == g, b, emb) if j == k else emb

    monkeypatch.setattr(tower, "embed_vec", forged)

    def refuse(G):
        raise AssertionError(f"greedy generators computed for {G!r}")

    monkeypatch.setattr(kernel, "generating_set", refuse)
    with pytest.raises(TowerError, match=f"^embedding at level {k} is not a homomorphism$"):
        tower.embed_ids(k)


class SquaredPrufer(Tower):
    """Z_(2^(2k)) at level k: every embedding has index 4."""

    kind = "squared-prufer"
    k0 = 1

    def __init__(self):
        super().__init__()
        self.base = PruferTower(2)

    def _build_level(self, k):
        return self.base.level(2 * k)

    def embed_vec(self, k, ids):
        return ids * 4


def test_an_index_4_level_keeps_the_greedy_set():
    tower = SquaredPrufer()
    for k in range(1, 5):
        tower.embed_ids(k)
        lvl = tower.level(k + 1)
        assert lvl.n == 4 * tower.level(k).n
        assert "generators" not in vars(lvl)
        assert lvl.generators == generating_set(lvl)


@pytest.mark.parametrize("name", NAMES)
def test_generators_a_level_already_holds_are_kept(name):
    tower = load(name)
    k = tower.k0 + 1
    lvl = tower.level(k + 1)
    gens = lvl.generators
    tower.embed_ids(k - 1)
    tower.embed_ids(k)
    assert lvl.generators is gens
    assert gens == generating_set(lvl)


def test_a_t2_k_estimate_takes_its_base_generators_from_the_chain(greedy_calls):
    tower = load("t2")
    k_estimate(tower, max_level=8)
    k0 = tower.k0
    # k_estimate builds the birth level, 4, first; its base level still
    # inherits, since building it validates the base chain from base level 1
    assert greedy_calls == [tower.base.level(1), tower.level(k0)]
    for k in range(k0, 9):
        blvl = tower.base.level(k)
        assert "generators" in vars(blvl)
        assert _span(blvl, np.array(blvl.generators, dtype=np.int64))[0].all(), k


def test_a_t2_reduction_builds_the_next_base_level_from_the_chain(greedy_calls):
    """reduce-t2 builds T2 levels L and L + 1 only; the base chain is
    validated from its k0, so base level L is not greedy either."""
    tower = load("t2")
    assert quaternion_reduce(tower, 7, verify_next_level=True).level_independent
    assert tower.base.level(7) not in greedy_calls
    assert tower.base.level(8) not in greedy_calls


def tower_commands():
    """(command, spec path, flags): k-estimate on every spec at the default
    flags, the benchmark's k-estimate and eta jobs, and reduce-t2 at 3-9."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "perfbench" / "inputs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    yield from (("k-estimate", path, {}) for path in sorted(SPECS.glob("*.json")))
    for job in bench.tower_eta(None, SPECS, random.Random(0), full=True):
        yield job["command"], Path(job["spec"]), dict(job["flags"])
    yield from (("reduce-t2", SPECS / "t2.json", {"level": level}) for level in range(3, 10))


def test_greedy_searches_run_only_at_each_chain_k0(greedy_calls, monkeypatch):
    towers = []

    def building(spec, base_dir="."):
        towers.append(build_tower(spec, base_dir))
        return towers[-1]

    monkeypatch.setattr(cli, "build_tower", building)
    for command, path, flags in tower_commands():
        towers.clear()
        greedy_calls.clear()
        spec = parse_spec(path.read_text(encoding="utf-8"), path.parent)
        report, code = run_command(command, spec, flags, base_dir=path.parent)
        assert code == 0, (command, path.name, flags, report)
        # every tower of a spec, a base tower included, is built by build_tower
        starts = [t.level(t.k0) for t in towers]
        assert all(any(G is s for s in starts) for G in greedy_calls), (command, path.name, flags)
        if command == "k-estimate" and path.name == "t2.json":
            top = towers[-1]
            assert greedy_calls == [top.base.level(1), top.level(2)], flags


# ---------------------------------------------------------------------------
# the quaternion reduction: C is the first c_part_count ids, and one span
# gives each section


@pytest.mark.parametrize("tower", [load("t2"), QuaternionTower()], ids=["t2", "quat"])
def test_the_c_part_is_the_first_ids(tower):
    for k in levels_up_to(tower, MAX_ORDER):
        G = tower.level(k)
        C = np.arange(tower.c_part_count(k), dtype=np.int64)
        # C's names are those of the same ids in the group C comes from
        c_level = tower.base.level(k) if hasattr(tower, "base") else prufer_level(2, k)
        assert [G.names[c] for c in C] == [c_level.names[c] for c in C], k
        assert is_subgroup(G, C) and G.orders[C].max() == C.size, k  # cyclic


@pytest.mark.parametrize("tower", [load("t2"), QuaternionTower()], ids=["t2", "quat"])
def test_generated_subgroup_is_subgroup_table_of_the_closure(tower):
    """generated_subgroup(G, seed) is subgroup_table(G, closure(G, seed)), up
    to its generators, which must still generate H."""
    rng = np.random.default_rng(5)
    for k in levels_up_to(tower, 2 ** 10):
        G = tower.level(k)
        C = np.arange(tower.c_part_count(k), dtype=np.int64)
        x = G.id_of(tower.x_name)
        seeds = [np.concatenate(([x], C)), np.concatenate(([G.mul(x, 1)], C))]
        seeds += [rng.integers(0, G.n, size=s) for s in (1, 2, 3)]
        for seed in seeds:
            H, old = generated_subgroup(G, seed)
            ref, ref_old = subgroup_table(G, closure(G, seed))
            assert old == ref_old and H.names == ref.names
            ids = np.arange(H.n, dtype=np.int64)
            assert np.array_equal(H.mul_vec(ids[:, None], ids), ref.mul_vec(ids[:, None], ids))
            assert _span(H, np.array(H.generators, dtype=np.int64))[0].all()


# ---------------------------------------------------------------------------
# root_images fills P in row blocks


def unblocked_power_images(G, ds):
    orders = G.orders
    e, rem = np.divmod(orders[:, None], ds)
    return G.pow_vec(np.arange(orders.size)[:, None], np.where(rem == 0, e % orders[:, None], 0))


@pytest.mark.parametrize("name,k", [("heis_t1", 7), ("t2", 13), ("quot", 14), ("prufer2", 3)])
def test_blocked_power_images_equal_the_unblocked_form(name, k):
    G = load(name).level(k)
    ds, _, _, P = root_images(G, np.arange(G.n))
    assert G.n * ds.size > kernel.BLOCK_ENTRIES or name == "prufer2"
    assert np.array_equal(P, unblocked_power_images(G, ds))


def test_root_images_memory_is_p_plus_blocks():
    """Unblocked, the n x D temporaries took the peak to 63.5 MB here."""
    tower = load("heis_t1")
    G = tower.level(9)
    ids = np.array([G.id_of(nm) for nm in tower.level(4).names], dtype=np.int64)
    G.orders
    tracemalloc.start()
    try:
        P = root_images(G, ids)[3]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P.nbytes > 6 * 2 ** 20
    assert peak < P.nbytes + 8 * 2 ** 20, peak / 2 ** 20
