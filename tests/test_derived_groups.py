"""Groups built on a parent (subgroups, quotients, quotient tower levels)
inherit their element orders from it, and the kernel helpers they share.

Element orders descend by ``element_orders`` only on groups with no parent:
tables and the deeper tree oracle.  Every other group reads them from its
parent: a subgroup member keeps its order, and a coset gN has order
ord(g) / |<g> ∩ N| (``coset_orders``).  The tests here patch
``element_orders`` to raise, so a derived group that still descended would
fail, and compare the inherited orders with descent called directly.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from rootsets import kernel
from rootsets.catalog import corpus, symmetric
from rootsets.cli import build_tower, parse_spec
from rootsets.constructions import CocycleError, CocycleTable, TreeVWSpec, quaternion_reduce
from rootsets.eta import p_prime_part
from rootsets.kernel import (
    FiniteGroupTable,
    GroupError,
    Homomorphism,
    NotASubgroupError,
    NotHomomorphicError,
    NotNormalError,
    Subset,
    center,
    check_normal,
    closure,
    coset_orders,
    cyclic_subgroup,
    generated_subgroup,
    order_of,
    prime_factors,
    quotient,
)
from rootsets.towers import PruferTower, QuaternionTower, T1Tower

SPECS = Path(__file__).resolve().parent.parent / "specs"
descent = kernel.element_orders  # the real descent, kept before any patch


def load(name):
    text = (SPECS / f"{name}.json").read_text(encoding="utf-8")
    return build_tower(parse_spec(text, SPECS), SPECS)


def refuse(G):
    raise AssertionError(f"element_orders descended on {G!r}")


def no_descent(monkeypatch):
    """Make descent raise wherever a rootsets module binds it; the tables a
    tower is built on descend before this."""
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "rootsets" and getattr(mod, "element_orders", None) is descent:
            monkeypatch.setattr(mod, "element_orders", refuse)


def assert_inherited(G, what):
    assert G.orders.dtype == np.int64 and np.array_equal(G.orders, descent(G)), what


def normal_subgroups(G):
    """Every normal subgroup of G generated by at most two elements."""
    out = set()
    for a in range(G.order):
        for b in range(a, G.order):
            N = closure(G, [a, b])
            try:
                check_normal(G, N)
            except GroupError:
                continue
            out.add(N.indices)
    return sorted(out)


def least_power_in(G, g, N):
    """The least e >= 1 with g^e in N, by repeated products."""
    e, x = 1, g
    while x not in N:
        e, x = e + 1, G.mul(x, g)
    return e


# ---------------------------------------------------------------------------
# coset orders


def test_coset_orders_match_brute_force_on_every_normal_subgroup():
    for gname, G in corpus().items():
        subgroups = normal_subgroups(G)
        assert () not in subgroups and len(subgroups) >= 2, gname
        for N in subgroups:
            want = [least_power_in(G, g, set(N)) for g in range(G.order)]
            assert coset_orders(G, np.arange(G.order), N).tolist() == want, (gname, N)
            Q, proj = quotient(G, Subset(G, N))
            reps = [proj.map.index(c) for c in range(Q.order)]  # each coset's least id
            assert Q.orders.tolist() == [want[r] for r in reps], (gname, N)


# ---------------------------------------------------------------------------
# derived groups take their parent's orders, never descent


def test_quotient_tower_levels_inherit_orders(monkeypatch):
    tower = load("quot")
    no_descent(monkeypatch)
    k = tower.k0
    while tower.level(k).n <= 2 ** 17:
        assert_inherited(tower.level(k), k)
        k += 1
    assert k > 16


@pytest.mark.parametrize("name", ["quat", "t2"])
def test_subgroups_and_quotients_of_levels_inherit_orders(name, monkeypatch):
    tower = load(name)
    no_descent(monkeypatch)
    for k in range(tower.k0, tower.k0 + 4):
        G = tower.level(k)
        x = G.id_of(tower.x_name)
        C = np.arange(tower.c_part_count(k), dtype=np.int64)
        a = G.id_of(tower.a_name)
        sub, old = generated_subgroup(G, np.concatenate(([x], C[::2])))
        assert_inherited(sub, (k, "sub"))
        for N in (center(G), cyclic_subgroup(G, a), cyclic_subgroup(G, int(C[2]))):
            Q, _ = quotient(G, N)
            assert_inherited(Q, (k, "quotient", N.indices[:4]))
        pos = {g: i for i, g in enumerate(old)}
        Q, _ = quotient(sub, Subset.of(sub, [0, pos[a]]))
        assert_inherited(Q, (k, "quotient of sub"))


def test_t1_corpus_amalgams_take_closed_form_orders(monkeypatch):
    towers = []
    for gname, H in corpus().items():
        for a in center(H):
            primes = set(prime_factors(order_of(H, a)))
            if len(primes) <= 1:
                towers += [(gname, T1Tower(H, p, a)) for p in primes or {2, 3}]
    no_descent(monkeypatch)
    for gname, tower in towers:
        for k in range(tower.k0, tower.k0 + 2):
            assert_inherited(tower.level(k), (gname, tower.a_gen, tower.p, k))


@pytest.mark.parametrize("level", range(3, 10))
def test_reduction_sections_inherit_orders(level, monkeypatch):
    tower = load("t2")
    no_descent(monkeypatch)
    trace = quaternion_reduce(tower, level)
    assert trace.ok
    assert_inherited(trace.section, level)


def test_the_patch_catches_descent(monkeypatch):
    """Tables have no parent and descend, so the tests above cannot pass
    for want of a patch that bites."""
    no_descent(monkeypatch)
    with pytest.raises(AssertionError, match="descended"):
        FiniteGroupTable([[0, 1], [1, 0]]).orders


# ---------------------------------------------------------------------------
# one witness-carrying error, one message for an index out of range


def test_every_group_error_carries_its_witness():
    S3 = symmetric(3)
    assert GroupError("m").witness is None and str(GroupError("m")) == "m"
    with pytest.raises(NotASubgroupError) as exc:
        check_normal(S3, [0, 1, 2])
    assert exc.value.witness is not None and S3.mul(*exc.value.witness) not in (0, 1, 2)
    N = cyclic_subgroup(S3, next(g for g in range(6) if order_of(S3, g) == 2))
    with pytest.raises(NotNormalError) as exc:
        check_normal(S3, N)
    g, n = exc.value.witness
    assert S3.mul(S3.mul(S3.inv(g), n), g) not in N
    f = [0, 1, 1, 1, 1, 1]
    with pytest.raises(NotHomomorphicError) as exc:
        Homomorphism.validated(S3, S3, f)
    x, s = exc.value.witness
    assert f[S3.mul(x, s)] != S3.mul(f[x], f[s])
    Z2 = FiniteGroupTable([[0, 1], [1, 0]], ["e", "z"])
    with pytest.raises(CocycleError) as exc:
        CocycleTable.of(Z2, 2, [[0, 1], [0, 0]])
    assert exc.value.witness == "z"


def test_one_out_of_range_message():
    for G in (FiniteGroupTable([[0, 1], [1, 0]]), PruferTower(2).level(1),
              QuaternionTower().level(2)):
        with pytest.raises(kernel.InvalidElementError) as exc:
            G.check_element(G.n)
        assert str(exc.value) == f"element index {G.n} out of range for order {G.n}"


def test_subset_membership_bisects_its_sorted_indices():
    G = symmetric(4)
    S = closure(G, [3])
    members = set(S.indices)
    for g in [*range(-1, G.order + 2), np.int64(5), np.int32(0)]:
        assert (g in S) == (int(g) in members), g


# ---------------------------------------------------------------------------
# one closure scan: p_prime_part's witness is the first escaping product


def p_prime_part_by_loops(G, p):
    """(members, witness): the elements of order prime to p, by repeated
    products, and the first (a, b), row-major, with a*b outside them."""
    def order(g):
        e, x = 1, g
        while x:
            e, x = e + 1, G.mul(x, g)
        return e
    members = [g for g in range(G.order) if math.gcd(order(g), p) == 1]
    inside = set(members)
    for a in members:
        for b in members:
            if G.mul(a, b) not in inside:
                return members, (a, b)
    return members, None


def test_p_prime_part_witness_matches_a_loop_on_the_corpus():
    seen = set()
    for gname, G in corpus().items():
        for p in prime_factors(G.order):
            members, wit = p_prime_part_by_loops(G, p)
            rep = p_prime_part(G, p)
            assert (list(rep.members), rep.witness, rep.is_subgroup) == (
                members, wit, wit is None), (gname, p)
            assert wit is None or all(type(x) is int for x in rep.witness)
            seen.add(wit is None)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# the tree's gamma, written directly


def gamma_by_two_matrices(depth):
    """gamma as it was first built: rho in full, then its upper half and
    the root on the diagonal."""
    paths = [format(i, f"0{depth}b") for i in range(2 ** depth)]
    nodes = sorted((format(i, f"0{l}b") if l else "" for l in range(depth) for i in range(2 ** l)),
                   key=lambda s: (len(s), s))
    node_bit = {nd: 1 << i for i, nd in enumerate(nodes)}
    nV = len(paths)
    rho = [[0] * nV for _ in range(nV)]
    for i, f in enumerate(paths):
        for j, g in enumerate(paths):
            if i != j:
                lcp = 0
                while lcp < depth and f[lcp] == g[lcp]:
                    lcp += 1
                rho[i][j] = node_bit[f[:lcp]]
    return tuple(tuple(rho[i][j] if i < j else node_bit[""] if i == j else 0
                       for j in range(nV)) for i in range(nV))


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_gamma_bits_match_the_two_matrix_build(depth):
    spec = TreeVWSpec.build(depth)
    assert spec.gamma_bits == gamma_by_two_matrices(depth)
    assert all(type(w) is int for row in spec.gamma_bits for w in row)
