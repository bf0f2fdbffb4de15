"""Extra-special builders: Heisenberg, cocycle extensions, tree groups,
and the quaternion reduction of inverting towers."""

import dataclasses
import json
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from rootsets.catalog import cyclic, dihedral, generalized_quaternion, symmetric
from rootsets.constructions import (
    CocycleError,
    CocycleTable,
    LevelTooSmallError,
    Q8_COCYCLE_ROWS,
    TreeVWSpec,
    central_extension,
    check_class2_squaring,
    heisenberg,
    is_generalized_quaternion,
    omega1_census,
    q8_cocycle,
    quaternion_reduce,
    tree_vw_group,
)
from rootsets.kernel import (
    GroupError,
    FiniteGroupTable,
    OracleGroup,
    center,
    derived_subgroup,
    direct_product,
    exponent,
    order_of,
    order_profile,
)
from rootsets.report import HYPOTHESIS_FAILED, CheckReport
from rootsets.towers import PruferTower, QuaternionTower, TowerError, example_t2_tower

CENSUS = Path(__file__).resolve().parent.parent / "scripts" / "cocycle_census.py"


def census_by_enumeration(spec):
    """The order-2 census as taken by enumerating the group, kept as the
    reference: every element squared by ``spec.mul_vec``, and Omega_1
    closed iff every product of two of its members is in it."""
    nw = spec.w_dim
    rep = CheckReport(f"order-2 census of treeVW depth {spec.depth}")
    x = np.arange(spec.group_order, dtype=np.int64)
    omega = np.flatnonzero(spec.mul_vec(x, x) == 0)  # the identity and the involutions
    involutions = omega[1:]
    diff = np.setxor1d(involutions, np.arange(1, 1 << nw)).tolist()
    rep.add("involutions-are-exactly-nonzero-W", not diff, diff[:5] or None)
    rep.add("omega1-closed", bool(np.isin(spec.mul_vec(omega[:, None], omega), omega).all()))
    rep.result = {
        "group_order": spec.group_order,
        "involutions": int(involutions.size),
        "omega1_order": int(omega.size),
        "expected_omega1_order": 1 << nw,
    }
    rep.add("omega1-order-matches", omega.size == 1 << nw)
    return rep


def forged_spec(depth, seed):
    """The depth's tree spec with random gamma bitmasks: still a bilinear
    map, so still a group, in which gamma(v, v) = 0 can hold for v != 0."""
    spec = TreeVWSpec.build(depth)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 1 << spec.w_dim, size=(spec.v_dim, spec.v_dim))
    bits[rng.random(bits.shape) < 0.5] = 0
    return dataclasses.replace(spec, gamma_bits=tuple(map(tuple, bits.tolist())))


def hand_built_q8():
    """The quaternion group from the symbolic rules, as an independent oracle.

    Elements 1,-1,i,-i,j,-j,k,-k; products computed from ij = k and cyclic
    shifts, never from any code under test.
    """
    units = ["e", "i", "j", "k"]
    rules = {("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
             ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j")}

    def mul(a, b):
        (s1, u1), (s2, u2) = a, b
        if u1 == "e":
            return (s1 * s2, u2)
        if u2 == "e":
            return (s1 * s2, u1)
        if u1 == u2:
            return (-s1 * s2, "e")
        s, u = rules[(u1, u2)]
        return (s * s1 * s2, u)

    elems = [(1, "e"), (-1, "e")] + [(s, u) for u in units[1:] for s in (1, -1)]
    pos = {e: n for n, e in enumerate(elems)}
    table = [[pos[mul(a, b)] for b in elems] for a in elems]
    names = [("" if s == 1 else "-") + u for s, u in elems]
    return FiniteGroupTable(table, names, label="Q8-by-hand")


class TestHeisenberg:
    def test_order_and_exponent(self):
        G = heisenberg(3)
        assert G.order == 27
        assert exponent(G) == 3

    def test_center_equals_derived(self):
        G = heisenberg(3)
        assert set(center(G)) == set(derived_subgroup(G))
        assert len(center(G)) == 3

    def test_p5(self):
        G = heisenberg(5)
        assert G.order == 125 and exponent(G) == 5

    def test_rejects_two_and_composites(self):
        with pytest.raises(GroupError):
            heisenberg(2)
        with pytest.raises(GroupError):
            heisenberg(9)


class TestCocycles:
    def test_q8_extension_matches_hand_built(self):
        klein = direct_product(cyclic(2), cyclic(2))
        G = central_extension(q8_cocycle(klein))
        oracle = hand_built_q8()
        assert order_profile(G) == order_profile(oracle)  # [DERIVED] {1:1,2:1,4:6}
        assert is_generalized_quaternion(G) and is_generalized_quaternion(oracle)
        # all six order-4 elements share their square, the unique involution
        inv = [g for g in G.elements() if order_of(G, g) == 2]
        assert len(inv) == 1
        assert all(G.mul(g, g) == inv[0]
                   for g in G.elements() if order_of(G, g) == 4)

    def test_zero_cocycle_gives_direct_product(self):
        klein = direct_product(cyclic(2), cyclic(2))
        c = CocycleTable.of(klein, 2, [[0] * 4] * 4)
        G = central_extension(c)
        assert order_profile(G) == {1: 1, 2: 7}

    def test_normalization_enforced(self):
        klein = direct_product(cyclic(2), cyclic(2))
        rows = [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        with pytest.raises(CocycleError, match="normalized"):
            CocycleTable.of(klein, 2, rows)

    def test_identity_violation_has_witness(self):
        klein = direct_product(cyclic(2), cyclic(2))
        rows = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        with pytest.raises(CocycleError) as exc:
            CocycleTable.of(klein, 2, rows)
        assert exc.value.witness is not None

    def test_shape_and_range(self):
        klein = direct_product(cyclic(2), cyclic(2))
        with pytest.raises(CocycleError, match="4x4"):
            CocycleTable.of(klein, 2, [[0, 0], [0, 0]])
        with pytest.raises(CocycleError, match="0..1"):
            CocycleTable.of(klein, 2, [[0, 0, 0, 0]] * 3 + [[0, 0, 0, 5]])

    def test_search_finds_the_pinned_cocycle(self, monkeypatch, capsys):
        # the census lists the normalized candidates in lexicographic order,
        # and the first cocycle of each order profile
        monkeypatch.setattr(sys, "argv", [str(CENSUS)])
        runpy.run_path(str(CENSUS), run_name="__main__")
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.strip().startswith("profile {1: 1, 2: 1, 4: 6}:"))
        assert line.partition("first = ")[2] == str(Q8_COCYCLE_ROWS)


class TestTreeGroups:
    def test_dimensions(self):
        for d in (1, 2, 3, 4):
            spec = TreeVWSpec.build(d)
            assert spec.v_dim == 2 ** d
            assert spec.w_dim == 2 ** d - 1
            assert spec.group_order == 1 << (2 ** (d + 1) - 1)

    def test_depth1_is_quaternion(self):
        G = tree_vw_group(1)
        assert order_profile(G) == {1: 1, 2: 1, 4: 6}

    def test_gamma_diagonal_never_vanishes(self):
        # every nonzero V part squares to a nonzero W element, so the only
        # involutions live inside W -- checked exhaustively at depths 1 and 2
        for d in (1, 2):
            spec = TreeVWSpec.build(d)
            for v in range(1, 1 << spec.v_dim):
                assert spec.gamma(v, v) != 0, (d, v)

    def test_commutator_is_rho(self):
        for d in (1, 2):
            G = tree_vw_group(d)
            spec = G.tree_spec
            nw = spec.w_dim
            for a in G.elements():
                for b in G.elements():
                    comm = G.mul(G.inv(G.mul(b, a)), G.mul(a, b))
                    assert comm == spec.rho(a >> nw, b >> nw), (d, a, b)

    def test_squaring_law(self):
        for d in (1, 2):
            rep = check_class2_squaring(tree_vw_group(d))
            assert rep.ok

    def test_squaring_hypotheses_reported(self):
        rep = check_class2_squaring(symmetric(3))
        assert rep.assertions[0].status == HYPOTHESIS_FAILED

    def test_depth3_is_an_oracle(self):
        G = tree_vw_group(3)
        assert isinstance(G, OracleGroup)
        assert G.order == 1 << 15
        spec = G.tree_spec
        a, b = 12345, 6789
        assert G.mul(a, b) == spec.mul(a, b)
        assert G.mul(a, G.inv(a)) == 0

    def test_census(self):
        for d in (1, 2, 3):
            rep = omega1_census(d)
            assert rep.ok, d
            assert rep.result["involutions"] == 2 ** (2 ** d - 1) - 1
            assert rep.result["omega1_order"] == rep.result["expected_omega1_order"]

    def test_census_at_depth_four(self):
        rep = omega1_census(4)
        assert rep.ok
        assert rep.result["involutions"] == 2 ** 15 - 1
        assert rep.result["omega1_order"] == 2 ** 15
        assert rep.result["group_order"] == 2 ** 31

    def test_census_equals_enumeration(self):
        for d in (1, 2, 3):
            got = json.dumps(omega1_census(d).to_json())
            assert got == json.dumps(census_by_enumeration(TreeVWSpec.build(d)).to_json()), d

    @pytest.mark.parametrize("seed", range(12))
    def test_census_equals_enumeration_on_forged_gammas(self, seed, monkeypatch):
        spec = forged_spec(1 + seed % 2, seed)
        monkeypatch.setattr(TreeVWSpec, "build", classmethod(lambda cls, depth: spec))
        got = omega1_census(spec.depth)
        assert json.dumps(got.to_json()) == json.dumps(census_by_enumeration(spec).to_json())

    def test_law_profile_equals_element_orders(self):
        for d in (1, 2, 3):
            assert TreeVWSpec.build(d).order_profile() == order_profile(tree_vw_group(d)), d
        for seed in range(12):
            spec = forged_spec(1 + seed % 2, seed)
            n = spec.group_order
            G = OracleGroup(n, [spec.element_name(g) for g in range(n)], spec.mul_vec,
                            spec.inv_vec)
            assert spec.order_profile() == order_profile(G), seed

    def test_depth_bounds(self):
        with pytest.raises(GroupError):
            TreeVWSpec.build(0)
        with pytest.raises(GroupError):
            TreeVWSpec.build(5)


class TestRecognizer:
    def test_accepts_quaternion_family(self):
        for n in (8, 16, 32):
            assert is_generalized_quaternion(generalized_quaternion(n))

    def test_rejects_lookalikes(self):
        assert not is_generalized_quaternion(dihedral(4))
        assert not is_generalized_quaternion(cyclic(8))
        assert not is_generalized_quaternion(cyclic(16))
        assert not is_generalized_quaternion(symmetric(3))
        assert not is_generalized_quaternion(direct_product(cyclic(2), cyclic(2)))


class TestQuaternionReduction:
    def test_example_tower_trace(self):
        trace = quaternion_reduce(example_t2_tower(), 5, verify_next_level=True)
        assert [(s.m, s.parity) for s in trace.steps] == [(2, "even"), (1, "odd")]
        assert trace.steps[0].quotient_subgroup is not None
        assert trace.recognizer_passed and trace.eta_trivial
        assert trace.level_independent
        assert trace.ok

    def test_trace_length_is_one_plus_dyadic_valuation(self):
        # m = 2 halves once: two steps; m = 1 goes straight to the odd case
        t2 = quaternion_reduce(example_t2_tower(), 4)
        assert len(t2.steps) == 2
        q = quaternion_reduce(QuaternionTower(), 4)
        assert [(s.m, s.parity) for s in q.steps] == [(1, "odd")]
        assert q.section.order == 32
        assert q.ok

    def test_section_is_recognized(self):
        trace = quaternion_reduce(example_t2_tower(), 4)
        assert is_generalized_quaternion(trace.section)
        assert trace.section_profile[trace.section.order // 2] > 0

    def test_trace_serializes_its_section_by_order_and_profile(self):
        trace = quaternion_reduce(example_t2_tower(), 5)
        doc = trace.to_json()
        assert "section" not in doc and doc["section_order"] == trace.section.order
        assert list(doc["section_profile"].items()) == [
            (str(d), c) for d, c in order_profile(trace.section).items()]

    def test_level_too_small(self):
        with pytest.raises(LevelTooSmallError):
            quaternion_reduce(example_t2_tower(), 2)

    def test_wrong_tower_kind(self):
        with pytest.raises(TowerError):
            quaternion_reduce(PruferTower(2), 3)
