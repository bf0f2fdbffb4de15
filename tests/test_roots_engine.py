"""The roots/orders engine against brute force, and its cost in mul_vec calls.

The engine finds element orders by prime-factor descent from |G| and decides
g in <h> by one power of h per distinct target order.  The reference here
walks the powers of every element one product at a time, which is what the
engine replaced.  Closure and the greedy generating set also step by the
squares of the generators; the reference for them is the plain search by
right products.
"""

import importlib
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rootsets.catalog import cyclic, dihedral, generalized_quaternion, symmetric
from rootsets.cli import build_tower, parse_spec
from rootsets.constructions import tree_vw_group
from rootsets.eta import check_lemma31, check_lemma39, k_finite, roots_matrix
from rootsets.kernel import (
    GroupError,
    OracleGroup,
    closure,
    direct_product,
    element_orders,
    exponent,
    generating_set,
    order_of,
    order_profile,
    roots,
    subgroup_table,
)
from rootsets.towers import prufer_fractions

SPECS = Path(__file__).resolve().parent.parent / "specs"
# the highest level each tower in specs/ reaches in the benchmark's k-estimate jobs
TOWER_MAX_LEVEL = {"heis_t1": 6, "t2": 8, "quat": 10, "quot": 10, "prufer2": 12}
BIRTH_LEVEL = 4  # k-estimate's default birth cap: its targets are the names born by here


def walk(G, targets):
    """Element orders and R[h, j] = (targets[j] in <h>), one product per power step."""
    n = len(G.names)
    col = np.full(n, -1, dtype=np.int64)
    col[targets] = np.arange(len(targets))
    R = np.zeros((n, len(targets)), dtype=bool)
    if col[0] >= 0:
        R[:, col[0]] = True
    orders = np.zeros(n, dtype=np.int64)
    h = np.arange(n, dtype=np.int64)
    cur, step = h.copy(), 1  # cur = h^step
    while h.size:
        hit = col[cur] >= 0
        R[h[hit], col[cur[hit]]] = True
        done = cur == 0
        orders[h[done]] = step
        h, cur = h[~done], cur[~done]
        cur, step = G.mul_vec(cur, h), step + 1
    return orders, R


def greedy_by_right_products(G):
    """The greedy generating set, searching by right products with the generators alone."""
    seen = np.zeros(len(G.names), dtype=bool)
    seen[0] = True
    gens = []
    while not seen.all():
        gens.append(int(np.argmin(seen)))
        frontier = np.flatnonzero(seen)
        while frontier.size:
            prods = G.mul_vec(np.repeat(frontier, len(gens)), np.tile(gens, frontier.size))
            frontier = np.unique(prods[~seen[prods]])
            seen[frontier] = True
    return gens


def tower_levels():
    for name, max_level in TOWER_MAX_LEVEL.items():
        tower = build_tower(parse_spec((SPECS / f"{name}.json").read_text()), SPECS)
        for k in range(tower.k0, max_level + 1):
            yield name, k, tower.level(k), tower.level(min(k, max(BIRTH_LEVEL, tower.k0)))


def test_engine_matches_the_power_walk_on_every_tower_level():
    for name, k, lvl, birth in tower_levels():
        targets = np.array([lvl.id_of(nm) for nm in birth.names], dtype=np.int64)
        orders, R = walk(lvl, targets)
        assert np.array_equal(lvl.orders, orders), (name, k)
        assert np.array_equal(roots(lvl, targets), R), (name, k)


@pytest.mark.parametrize("G", [symmetric(4), symmetric(5), cyclic(12),
                               direct_product(cyclic(3), cyclic(3)), dihedral(6),
                               direct_product(cyclic(2), cyclic(4))],
                         ids=["S4", "S5", "Z12", "Z3xZ3", "D6", "Z2xZ4"])
def test_engine_matches_the_power_walk_on_mixed_orders(G):
    orders, R = walk(G, np.arange(G.order))
    assert np.array_equal(element_orders(G), orders)
    assert np.array_equal(roots_matrix(G), R)
    assert [order_of(G, g) for g in G.elements()] == orders.tolist()
    assert exponent(G) == math.lcm(*orders.tolist())
    vals, counts = np.unique(orders, return_counts=True)
    assert order_profile(G) == dict(zip(vals.tolist(), counts.tolist()))


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=3).filter(
    lambda ns: math.prod(ns) <= 300))
def test_engine_matches_the_power_walk_on_cyclic_products(ns):
    G = cyclic(ns[0])
    for m in ns[1:]:
        G = direct_product(G, cyclic(m))
    orders, R = walk(G, np.arange(G.order))
    assert np.array_equal(G.orders, orders)
    assert np.array_equal(roots_matrix(G), R)
    # any target order, in any order, with repeats of a cyclic subgroup
    targets = np.random.default_rng(G.order).permutation(G.order)[: max(1, G.order // 3)]
    assert np.array_equal(roots(G, targets), R[:, targets])


def test_power_vec_matches_repeated_products():
    G = symmetric(4)
    x = np.arange(G.order)
    e = np.arange(G.order) % 7
    expect = []
    for g, m in zip(x.tolist(), e.tolist()):
        cur = 0
        for _ in range(m):
            cur = G.mul(cur, g)
        expect.append(cur)
    assert G.pow_vec(x, e).tolist() == expect


def counting_prufer_level(k):
    """The cyclic group of order 2^k, with no closed form for powers, as an
    OracleGroup that records each mul_vec call."""
    n = 2 ** k
    calls = []

    def mul_vec(a, b):
        calls.append(np.size(a))
        return (a + b) % n

    names = prufer_fractions(np.arange(n), n)
    return OracleGroup(n, names, mul_vec, lambda a: (-a) % n, label=f"Z{n}"), calls


def test_roots_take_logarithmic_mul_vec_calls():
    lvl, calls = counting_prufer_level(12)
    R = roots(lvl, np.arange(lvl.n))
    log_n = 12
    assert len(calls) <= 8 * log_n  # the walk took one call per step: 4,096
    assert R[:, 1].sum() == lvl.n // 2 and R[1].sum() == lvl.n


def test_generating_set_takes_log_rounds():
    lvl, calls = counting_prufer_level(13)
    assert generating_set(lvl) == [1]
    assert len(calls) <= 3 * 13  # the search by generators alone took 8,192 rounds
    assert len(closure(lvl, [2 ** 12 + 2])) == 2 ** 12


def test_generating_sets_are_unchanged():
    for G in [symmetric(4), symmetric(5), generalized_quaternion(64), dihedral(12),
              direct_product(cyclic(6), cyclic(4))]:
        assert generating_set(G) == greedy_by_right_products(G) == G.generators
    for name, k, lvl, _ in tower_levels():
        if lvl.n <= 4096:
            assert generating_set(lvl) == greedy_by_right_products(lvl), (name, k)


def test_oracle_group_order_of_is_a_walk():
    G = tree_vw_group(3)
    assert isinstance(G, OracleGroup)
    for g in range(0, G.order, 997):
        n, cur = 1, g
        while cur != 0:
            cur, n = G.tree_spec.mul(cur, g), n + 1
        assert order_of(G, g) == n
    S4 = symmetric(4)
    O = OracleGroup(S4.order, S4.names, S4.mul_vec, S4.inv_vec)
    assert [order_of(O, g) for g in O.elements()] == S4.orders.tolist()


def test_k_finite_check_raises_group_error(monkeypatch):
    eta_module = importlib.import_module("rootsets.eta")  # the package's ``eta`` is the function
    G = generalized_quaternion(16)
    assert len(k_finite(G).members) == 16
    R = roots_matrix(G).copy()
    R[:, 5] = False  # a planted engine fault: element 5 would have no root at all
    monkeypatch.setattr(eta_module, "roots_matrix", lambda _: R)
    with pytest.raises(GroupError, match="is the whole group"):
        k_finite(G)


def lemma31_by_loops(G, R):
    """The eta laws of check_lemma31, pair by pair: (name, passed, witness) each."""
    n = G.order
    etas = [~R[:, g] for g in range(n)]
    out = [("eta-of-identity-empty", not etas[0].any(), None)]
    wit = next((G.names[x] for x in range(n) if not np.array_equal(etas[G.inv(x)], etas[x])), None)
    out.append(("eta-inversion-invariant", wit is None, wit))
    wit = next(((G.names[a], G.names[b]) for a in range(n) for b in range(n)
                if (etas[G.mul(a, b)] & ~(etas[a] | etas[b])).any()), None)
    out.append(("eta-of-product-in-union", wit is None, wit))
    wit = next((G.names[x] for x in range(n)
                if any(G.mul(h, x) != G.mul(x, h) and not etas[x][h] for h in range(n))), None)
    out.append(("eta-contains-non-centralizer", wit is None, wit))
    return out


def lemma39_by_loops(G, p, R):
    n = G.order
    wit = next(((G.names[x], G.names[g], G.names[y]) for x in range(n) for g in range(n)
                if not R[g, int(G.pow_vec(x, p))] for y in range(n) if R[g, y] and R[y, x]),
               None)
    return [("lemma39", wit is None, wit)]


@pytest.mark.parametrize("seed", range(9))
def test_lemma_checks_match_their_loops_on_planted_faults(monkeypatch, seed):
    """The vectorized lemma checks report the loops' verdicts and first witnesses."""
    G = [symmetric(4), generalized_quaternion(16), dihedral(6)][seed % 3]
    rng = np.random.default_rng(seed)
    R = roots_matrix(G).copy()
    for _ in range(1 + seed % 3):  # a planted engine fault: flipped entries
        h, g = rng.integers(0, G.order, 2)
        R[h, g] = ~R[h, g]
    monkeypatch.setattr(importlib.import_module("rootsets.eta"), "roots_matrix", lambda _: R)
    summary = lambda rep: [(a.name, a.status == "pass", a.witness) for a in rep.assertions]
    assert summary(check_lemma31(G)) == lemma31_by_loops(G, R)
    for p in (2, 3):
        assert summary(check_lemma39(G, p)) == lemma39_by_loops(G, p, R)


def test_subgroup_table_is_one_gather():
    S4 = symmetric(4)
    sub = closure(S4, [S4.id_of("1023"), S4.id_of("2301")])
    H, old = subgroup_table(S4, sub)
    assert old[0] == 0 and old[1:] == [g for g in sub if g != 0]
    assert all(isinstance(g, int) for g in old)
    pos = {g: i for i, g in enumerate(old)}
    assert H.group().table.tolist() == [[pos[S4.mul(a, b)] for b in old] for a in old]
    assert H.names == [S4.names[g] for g in old]


def test_prufer_names_match_prufer_name():
    for p, top in ((2, 7), (3, 5), (5, 3)):
        for k in range(top):
            m = np.arange(p ** k)
            assert prufer_fractions(m, p ** k) == [str(Fraction(x, p ** k)) for x in m.tolist()]
