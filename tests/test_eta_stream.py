"""The streaming eta engine: histogram sizes, pairwise levels, exact coherence.

The engine holds two levels at a time, each as ``root_images`` of its
targets (n x D), counts roots with one bincount per target order, and checks
coherence in n x D form.  Its reports are compared with a T x n reference
that reads every eta set from ``kernel.roots``, as the engine did before;
planted faults in the keys or power images of level k + 1 must raise
``CoherenceError`` whenever the eta sets they imply disagree.
"""

import importlib
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rootsets.cli import build_tower, parse_spec
from rootsets.kernel import roots
from rootsets.towers import (
    Certificate,
    CoherenceError,
    EtaReport,
    LevelEta,
    PruferTower,
    TowerError,
    eta_stabilized,
    k_estimate,
)

towers = importlib.import_module("rootsets.towers")
SPECS = Path(__file__).resolve().parent.parent / "specs"
NAMES = ["heis_t1", "prufer2", "quat", "quot", "t2"]


def load(name):
    path = SPECS / f"{name}.json"
    return build_tower(parse_spec(path.read_text(encoding="utf-8"), SPECS), SPECS)


TOWERS = {name: load(name) for name in NAMES}


def reference_reports(tower, names, max_level, window, member_cap):
    """Per-level eta from the full roots matrix of every level, certificates read at k*."""
    etas = {}
    for k in range(tower.k0, max_level + 1):
        lvl = tower.level(k)
        live = [nm for nm in names if lvl.has(nm)]
        if live:
            R = roots(lvl, [lvl.id_of(nm) for nm in live])
            etas[k] = {nm: ~R[:, j] for j, nm in enumerate(live)}
    out = {}
    for nm in names:
        lives = [k for k in sorted(etas) if nm in etas[k]]
        sizes = {k: int(etas[k][nm].sum()) for k in lives}
        eta_names = lambda k: sorted(tower.level(k).names[i] for i in np.flatnonzero(etas[k][nm]))
        per_level = [LevelEta(k, sizes[k], eta_names(k) if sizes[k] <= member_cap else None)
                     for k in lives]
        rep = EtaReport(nm, tower.kind, per_level, False)
        for k_star in range(lives[0], max_level - window + 1):
            if all(sizes[k_star + i] == sizes[k_star] for i in range(window + 1)):
                rep = EtaReport(nm, tower.kind, per_level, True, Certificate(k_star, window),
                                eta_names(k_star))
                break
        out[nm] = rep.to_json()
    return out


@pytest.mark.parametrize("name,max_level", [("heis_t1", 5), ("prufer2", 9), ("quat", 8),
                                            ("quot", 8), ("t2", 7)])
@pytest.mark.parametrize("window,member_cap", [(1, 128), (2, 128), (3, 4)])
def test_reports_equal_the_roots_matrix_reference(name, max_level, window, member_cap):
    tower = load(name)
    rep = k_estimate(tower, max_level=max_level, window=window, member_cap=member_cap)
    names = sorted(rep.eta_reports)
    got = {nm: rep.eta_reports[nm].to_json() for nm in names}
    assert got == reference_reports(tower, names, max_level, window, member_cap)


def test_a_target_born_late_joins_the_stream():
    tower = TOWERS["quat"]
    rep = eta_stabilized(tower, "3/64", max_level=9)
    assert [pl.level for pl in rep.per_level] == [6, 7, 8, 9]
    assert rep.to_json() == reference_reports(tower, ["3/64"], 9, 2, 128)["3/64"]


@pytest.mark.parametrize("name,max_level", [("heis_t1", 6), ("prufer2", 9), ("quat", 8),
                                            ("quot", 8), ("t2", 7)])
def test_a_name_is_read_only_up_to_its_birth_level(name, max_level, monkeypatch):
    """Above the level where it is born, a target's id is carried along the
    embedding and its name is not read again."""
    tower = TOWERS[name]
    targets = list(tower.level(min(max(4, tower.k0), max_level)).names)
    births = {nm: tower.birth_level(nm, max_level) for nm in targets}
    own = {id(tower.level(k)) for k in range(tower.k0, max_level + 1)}
    reads = Counter()
    real = towers.Level.ids_of

    def counted(self, names):
        names = list(names)
        if id(self) in own:  # not the reads a level makes through its base level
            reads.update(names)
        return real(self, names)

    monkeypatch.setattr(towers.Level, "ids_of", counted)
    k_estimate(tower, max_level=max_level, window=2)
    assert reads == {nm: births[nm] - tower.k0 + 1 for nm in targets}


# ---------------------------------------------------------------------------
# planted faults at level k + 1

def run_with_fault(monkeypatch, tower, k, fault):
    """k_estimate up to level k + 1, with ``fault(key, P, ds)`` applied to copies
    of level k + 1's root images.  Returns the root images both levels used,
    and whether CoherenceError was raised."""
    real = towers.root_images
    seen = {}

    def faulty(G, targets):
        ds, col_of, key, P = real(G, targets)
        if G is tower.level(k + 1):
            key, P = key.copy(), P.copy()
            fault(key, P, ds)
        seen[G.label] = (np.asarray(targets), ds, col_of, key, P)
        return ds, col_of, key, P

    monkeypatch.setattr(towers, "root_images", faulty)
    try:
        k_estimate(tower, max_level=k + 1, window=1)
        raised = False
    except CoherenceError:
        raised = True
    finally:
        monkeypatch.undo()
    return seen, raised


def eta_sets_disagree(tower, k, seen):
    """Whether the eta sets the two levels' root images imply break the restriction law."""
    lo, hi = tower.level(k), tower.level(k + 1)
    emb = tower.embed_ids(k)

    def rootsets(lvl):
        targets, ds, col_of, key, P = seen[lvl.label]
        R = key[P[:, col_of]] == key[targets]
        return {lvl.names[g]: R[:, j] for j, g in enumerate(targets.tolist())}

    r_lo, r_hi = rootsets(lo), rootsets(hi)
    return any(not np.array_equal(r_lo[nm], r_hi[nm][emb]) for nm in r_lo if nm in r_hi)


def lower_root_images(tower, k):
    """Level k's targets in k_estimate(max_level=k + 1), and its keys."""
    lvl = tower.level(k)
    bl = min(max(4, tower.k0), k + 1)
    ids = [lvl.id_of(nm) for nm in tower.level(bl).names if lvl.has(nm)]
    return towers.root_images(lvl, ids)


@pytest.mark.parametrize("name", NAMES)
def test_no_fault_no_error(name, monkeypatch):
    tower = TOWERS[name]
    seen, raised = run_with_fault(monkeypatch, tower, tower.k0 + 1, lambda *_: None)
    assert not raised and not eta_sets_disagree(tower, tower.k0 + 1, seen)


@pytest.mark.parametrize("name", NAMES)
def test_a_single_key_fault_is_caught(name, monkeypatch):
    tower = TOWERS[name]
    k = tower.k0 + 1
    emb = tower.embed_ids(k)
    key_lo = lower_root_images(tower, k)[2]
    keyed = np.flatnonzero(key_lo >= 0)
    rng = np.random.default_rng(len(name))
    for x in rng.choice(keyed, size=min(12, keyed.size), replace=False).tolist():
        y = int(keyed[np.argmax(key_lo[keyed] != key_lo[x])])  # another cyclic subgroup

        def fault(key, P, ds):
            key[emb[x]] = key[emb[y]]

        assert run_with_fault(monkeypatch, tower, k, fault)[1], (name, x, y)


@pytest.mark.parametrize("name", NAMES)
def test_a_single_power_image_fault_is_caught(name, monkeypatch):
    tower = TOWERS[name]
    k = tower.k0 + 1
    emb = tower.embed_ids(k)
    n_hi = tower.level(k + 1).n
    ds_lo = lower_root_images(tower, k)[0]
    rng = np.random.default_rng(len(name))
    for h in rng.choice(tower.level(k).n, size=12).tolist():
        d = int(rng.choice(ds_lo))

        def fault(key, P, ds):
            i = int(np.searchsorted(ds, d))
            P[emb[h], i] = (P[emb[h], i] + 1 + rng.integers(n_hi - 1)) % n_hi

        assert run_with_fault(monkeypatch, tower, k, fault)[1], (name, h, d)


def test_an_embedding_that_is_not_injective_is_refused(monkeypatch):
    tower = PruferTower(2)
    true = tower.embed_vec

    def colliding(k, ids):
        emb = true(k, ids)
        return np.where(ids == 3, emb[1], emb)  # two level-2 ids now have one level-3 image

    monkeypatch.setattr(tower, "embed_vec", colliding)
    with pytest.raises(TowerError, match="^embedding at level 2 is not injective$"):
        tower.embed_ids(2)


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(NAMES), st.booleans(), st.integers(0, 2 ** 32), st.integers(0, 2 ** 32))
def test_every_fault_that_changes_an_eta_set_is_caught(name, in_key, pos, value):
    """A random entry of level k + 1's keys or power images, anywhere, set to any
    valid value: the engine raises whenever today's T x n compare would."""
    tower = TOWERS[name]
    k = tower.k0 + 1
    n_hi = tower.level(k + 1).n

    def fault(key, P, ds):
        if in_key:
            key[pos % n_hi] = value % (n_hi + 1) - 1
        else:
            P.flat[pos % P.size] = value % n_hi

    with pytest.MonkeyPatch.context() as mp:
        seen, raised = run_with_fault(mp, tower, k, fault)
    if eta_sets_disagree(tower, k, seen):
        assert raised


def test_k_estimate_memory_is_n_by_orders():
    """heis_t1 holds 729 targets; a T x n matrix per level peaked at 51.7 MB here."""
    tower = load("heis_t1")
    tracemalloc.start()
    try:
        k_estimate(tower, max_level=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20, peak / 2 ** 20
