"""One group protocol: tables, tower levels, subgroups, quotients and tree
groups all answer ``mul_vec``/``inv_vec``, and the kernel operations on
them agree with the pair-by-pair loops they replaced.
"""

import contextlib
import dataclasses
import io
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rootsets import cli, constructions
from rootsets.catalog import dihedral, generalized_quaternion, symmetric
from rootsets.constructions import (
    TreeVWSpec,
    omega1_census,
    quaternion_reduce,
    tree_vw_group,
)
from rootsets.kernel import (
    FiniteGroupTable,
    GroupError,
    NotASubgroupError,
    NotNormalError,
    OracleGroup,
    center,
    centralizer,
    check_normal,
    closure,
    derived_subgroup,
    generating_set,
    quotient,
    subgroup_table,
)
from rootsets.report import FAIL
from rootsets.towers import QuaternionTower

SPECS = Path(__file__).resolve().parent.parent / "specs"


# ---------------------------------------------------------------------------
# the scalar loops the vectorized operations replaced, kept as references

def closure_by_products(G, seed):
    members, frontier = {0}, [0]
    while frontier:
        new = {G.mul(a, s) for a in frontier for s in seed} - members
        members |= new
        frontier = list(new)
    return sorted(members)


def centralizer_by_loops(G, S):
    return [g for g in G.elements() if all(G.mul(g, s) == G.mul(s, g) for s in S)]


def derived_by_loops(G):
    comms = {G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b))
             for a in G.elements() for b in G.elements()}
    return closure_by_products(G, comms)


def check_normal_by_loops(G, N):
    """(error type, message, witness) of the first failure, or None."""
    if not len(N) or 0 not in N:
        return NotASubgroupError, "subset does not contain the identity", None
    for a in N:
        for b in N:
            if G.mul(a, b) not in N:
                return NotASubgroupError, f"not closed: {G.names[a]}*{G.names[b]}", (a, b)
    for g in G.elements():
        gi = G.inv(g)
        for n in N:
            if G.mul(G.mul(gi, n), g) not in N:
                return (NotNormalError,
                        f"not normal: conjugate of {G.names[n]} by {G.names[g]} escapes", (g, n))
    return None


def subsets(G, seed):
    """Every subgroup generated by two elements (normal or not), and random
    subsets with and without the identity."""
    rng = np.random.default_rng(seed)
    out = sorted({tuple(closure(G, [a, b])) for a in G.elements() for b in G.elements()})
    for _ in range(6):
        size = int(rng.integers(1, G.order))
        out.append(sorted(rng.choice(G.order, size=size, replace=False).tolist()))
        out.append(sorted(set(out[-1]) | {0}))
    return out


GROUPS = {"S3": symmetric(3), "S4": symmetric(4), "D6": dihedral(6),
          "Q8": generalized_quaternion(8)}


@pytest.mark.parametrize("name", list(GROUPS))
def test_table_operations_match_their_loops(name):
    G = GROUPS[name]
    assert list(center(G)) == centralizer_by_loops(G, G.elements())
    assert list(derived_subgroup(G)) == derived_by_loops(G)
    outcomes = set()
    for S in subsets(G, seed=len(name)):
        assert list(centralizer(G, S)) == centralizer_by_loops(G, S)
        expect = check_normal_by_loops(G, S)
        outcomes.add(expect and expect[0])
        if expect is None:
            check_normal(G, S)
            continue
        with pytest.raises(expect[0]) as exc:
            check_normal(G, S)
        assert (str(exc.value), getattr(exc.value, "witness", None)) == expect[1:]
    if name != "Q8":  # every subgroup of Q8 is normal
        assert outcomes == {None, NotASubgroupError, NotNormalError}


def test_table_inv_vec():
    G = symmetric(4)
    x = np.arange(G.order)
    assert G.inv_vec(x).tolist() == [G.inv(g) for g in x.tolist()]
    assert not G.mul_vec(x, G.inv_vec(x)).any()


# ---------------------------------------------------------------------------
# subgroups and quotients are OracleGroups, one gather through their parent

def test_quotient_and_subgroup_of_a_level_match_the_tables():
    lvl = QuaternionTower().level(5)
    table = lvl.group()
    N = closure(lvl, [lvl.id_of("1/4")])
    Q, proj = quotient(lvl, N)
    Qt, projt = quotient(table, N)
    assert isinstance(Q, OracleGroup) and isinstance(Qt, OracleGroup)
    assert Q.names == Qt.names and np.array_equal(proj, projt)
    assert np.array_equal(Q.group().table, Qt.group().table)
    H, old = subgroup_table(lvl, closure(lvl, [lvl.id_of("x.0")]))
    assert isinstance(H, OracleGroup) and old == [0, lvl.id_of("1/2"),
                                                  lvl.id_of("x.0"), lvl.id_of("x.1/2")]
    assert H.group().table.tolist() == [[old.index(lvl.mul(a, b)) for b in old] for a in old]
    with pytest.raises(NotASubgroupError):
        subgroup_table(lvl, [0, lvl.id_of("1/4")])


def test_quaternion_reduce_builds_no_table(monkeypatch):
    tower = cli.build_tower(cli.parse_spec((SPECS / "t2.json").read_text(encoding="utf-8")))

    def refuse(self, *args, **kwargs):
        raise AssertionError("a Cayley table was built")

    monkeypatch.setattr(FiniteGroupTable, "__init__", refuse)
    trace = quaternion_reduce(tower, 7, verify_next_level=True)
    assert trace.ok and trace.level_independent
    assert [s.parity for s in trace.steps] == ["even", "odd"]


def test_reduce_t2_level_12_builds_no_square_table():
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["reduce-t2", str(SPECS / "t2.json"), "--level", "12"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, out.getvalue()
    assert peak < 64 * 2 ** 20, peak / 2 ** 20  # the level-13 table alone takes 512 MB


def test_generating_set_reach_is_blocked():
    lvl = QuaternionTower().level(17)  # order 2^18
    tracemalloc.start()
    try:
        gens = generating_set(lvl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gens == [1, 2 ** 17]
    assert peak < 16 * 2 ** 20, peak / 2 ** 20


# ---------------------------------------------------------------------------
# tree groups on TreeVWSpec.mul_vec

@pytest.mark.parametrize("depth", [1, 2])
def test_tree_mul_vec_matches_mul_on_every_pair(depth):
    spec = TreeVWSpec.build(depth)
    x = np.arange(spec.group_order)
    expect = [[spec.mul(a, b) for b in x.tolist()] for a in x.tolist()]
    assert spec.mul_vec(x[:, None], x).tolist() == expect
    inv = spec.inv_vec(x).tolist()
    assert all(spec.mul(a, b) == 0 == spec.mul(b, a) for a, b in zip(x.tolist(), inv))
    assert tree_vw_group(depth).table.tolist() == expect


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([3, 4]), st.data())
def test_tree_mul_vec_matches_mul_on_drawn_pairs(depth, data):
    spec = TreeVWSpec.build(depth)
    elem = st.integers(0, spec.group_order - 1)
    pairs = data.draw(st.lists(st.tuples(elem, elem), min_size=1, max_size=8))
    a, b = np.array(pairs, dtype=np.int64).T
    assert spec.mul_vec(a, b).tolist() == [spec.mul(x, y) for x, y in pairs]
    for x, y in zip(a.tolist(), spec.inv_vec(a).tolist()):
        assert spec.mul(x, y) == 0 == spec.mul(y, x)


def test_tree_depth_3_is_a_vector_group_and_depth_4_is_refused():
    G = tree_vw_group(3)
    assert isinstance(G, OracleGroup) and G.order == 2 ** 15
    assert G.names[12345] == G.tree_spec.element_name(12345)
    assert np.array_equal(np.bincount(G.orders), [0, 1, 127, 0, 2 ** 15 - 128])
    with pytest.raises(GroupError, match="too many elements to name"):
        tree_vw_group(4)


@pytest.mark.parametrize("depth", [2, 3])
def test_census_catches_a_planted_gamma_diagonal_fault(monkeypatch, depth):
    spec = TreeVWSpec.build(depth)
    rows = [list(r) for r in spec.gamma_bits]
    rows[0][0] = 0  # gamma(e_0, e_0) = 0: every (e_0, w) becomes an involution
    planted = dataclasses.replace(spec, gamma_bits=tuple(map(tuple, rows)))
    assert omega1_census(depth).ok
    monkeypatch.setattr(constructions, "TreeVWSpec", types.SimpleNamespace(build=lambda d: planted))
    rep = omega1_census(depth)
    status = {a.name: (a.status, a.witness) for a in rep.assertions}
    assert status["involutions-are-exactly-nonzero-W"] == (
        FAIL, [(1 << spec.w_dim) + w for w in range(5)])
    assert status["omega1-order-matches"][0] == FAIL
    assert rep.result["involutions"] > rep.result["expected_omega1_order"] - 1


# ---------------------------------------------------------------------------
# subgroup_table reads H's generators off the span that checks S

def _span_generators_match(G, S):
    H, old = subgroup_table(G, S)
    assert H.generators == generating_set(H)
    return H, old


def test_subgroup_generators_on_tower_levels():
    rng = np.random.default_rng(5)
    for path in ("t2.json", "quat.json", "heis_t1.json"):
        tower = cli.build_tower(cli.parse_spec((SPECS / path).read_text(encoding="utf-8")))
        for k in range(tower.k0, tower.k0 + 3):
            lvl = tower.level(k)
            for size in (1, 2, 3):
                _span_generators_match(lvl, closure(lvl, rng.integers(0, lvl.n, size)))


def test_subgroup_generators_on_table_subgroups():
    for G in (symmetric(4), dihedral(12), generalized_quaternion(16)):
        for a in range(G.order):
            for b in range(a, G.order, 3):
                _span_generators_match(G, closure(G, [a, b]))


def test_subgroup_table_takes_unsorted_and_duplicated_seeds():
    G = symmetric(4)
    rng = np.random.default_rng(11)
    for _ in range(50):
        members = closure(G, rng.integers(0, G.order, 2))
        S = np.concatenate([rng.permutation(members), rng.choice(members, 3)])
        H, old = _span_generators_match(G, S)
        distinct = list(dict.fromkeys(S.tolist()))
        assert old == [0] + [g for g in distinct if g != 0]
        assert H.group().table.tolist() == [[old.index(G.mul(a, b)) for b in old] for a in old]
    with pytest.raises(NotASubgroupError):
        subgroup_table(G, [0, 1, 2, 1, 0])  # two transpositions with a 3-cycle product
