"""Cayley-table substrate: validation, subgroup machinery, file format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rootsets.catalog import cyclic, dihedral, generalized_quaternion, symmetric
from rootsets.kernel import (
    FiniteGroupTable,
    NotASubgroupError,
    NotHomomorphicError,
    NotNormalError,
    OracleGroup,
    TableFormatError,
    center,
    closure,
    commutator,
    cyclic_subgroup,
    derived_subgroup,
    direct_product,
    dumps_table,
    exponent,
    homomorphism,
    is_subgroup,
    loads_table,
    names_at,
    omega1,
    order_of,
    order_profile,
    quotient,
    subgroup_table,
    validate_automorphism,
)

# the smallest loop with two-sided identity that is not a group  [DERIVED]
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


class TestValidation:
    def test_identity_row_enforced(self):
        with pytest.raises(TableFormatError, match="identity"):
            FiniteGroupTable([[1, 0], [0, 1]])

    def test_latin_square_enforced(self):
        with pytest.raises(TableFormatError):
            FiniteGroupTable([[0, 1], [1, 1]])

    def test_entry_range(self):
        with pytest.raises(TableFormatError):
            FiniteGroupTable([[0, 1], [1, 7]])

    def test_associativity_enforced(self):
        with pytest.raises(TableFormatError, match="associativity"):
            FiniteGroupTable(NONASSOC_LOOP)

    def test_duplicate_names_rejected(self):
        with pytest.raises(TableFormatError, match="unique"):
            FiniteGroupTable([[0, 1], [1, 0]], ["e", "e"])

    def test_non_square_rejected(self):
        with pytest.raises(TableFormatError):
            FiniteGroupTable([[0, 1]])

    def test_small_tables_checked_fully(self):
        assert cyclic(6).meta["associativity"] == "full"

    def test_inverses(self):
        G = symmetric(4)
        for g in G.elements():
            assert G.mul(g, G.inv(g)) == G.identity


class TestOperations:
    def test_order_of(self):
        Z12 = cyclic(12)
        assert [order_of(Z12, g) for g in range(12)] == \
            [1, 12, 6, 4, 3, 12, 2, 12, 3, 4, 6, 12]

    def test_cyclic_subgroup(self):
        Z12 = cyclic(12)
        assert list(cyclic_subgroup(Z12, 4)) == [0, 4, 8]

    def test_center_of_dihedral(self):
        D4 = dihedral(4)
        assert names_at(D4, center(D4)) == ["r0", "r2"]

    def test_center_of_odd_dihedral_trivial(self):
        assert len(center(dihedral(5))) == 1

    def test_derived_subgroup(self):
        assert len(derived_subgroup(symmetric(3))) == 3
        assert len(derived_subgroup(symmetric(4))) == 12
        Q8 = generalized_quaternion(8)
        assert names_at(Q8, derived_subgroup(Q8)) == ["c0", "c2"]

    def test_omega1(self):
        Q8 = generalized_quaternion(8)
        assert names_at(Q8, omega1(Q8, 2)) == ["c0", "c2"]
        K4 = direct_product(cyclic(2), cyclic(2))
        assert len(omega1(K4, 2)) == 4

    def test_exponent(self):
        assert exponent(symmetric(3)) == 6
        assert exponent(direct_product(cyclic(2), cyclic(4))) == 4

    def test_order_profile(self):
        assert order_profile(generalized_quaternion(8)) == {1: 1, 2: 1, 4: 6}
        assert order_profile(generalized_quaternion(16)) == {1: 1, 2: 1, 4: 10, 8: 4}

    def test_closure_generates(self):
        S4 = symmetric(4)
        transposition = S4.id_of("1023")
        cycle = S4.id_of("1230")
        assert len(closure(S4, [transposition, cycle])) == 24

    def test_oracle_group_matches_table(self):
        G = dihedral(6)
        O = OracleGroup(G.order, G.names, G.mul_vec, G.inv_vec)
        for g in G.elements():
            assert O.inv(g) == G.inv(g)
            assert order_of(O, g) == order_of(G, g)


class TestQuotients:
    def test_non_normal_rejected(self):
        S3 = symmetric(3)
        swap = S3.id_of("102")
        with pytest.raises(NotNormalError) as exc:
            quotient(S3, [0, swap])
        assert exc.value.witness is not None

    def test_non_subgroup_rejected(self):
        Z4 = cyclic(4)
        with pytest.raises(NotASubgroupError):
            quotient(Z4, [0, 1])

    def test_q8_mod_center_is_klein(self):
        Q8 = generalized_quaternion(8)
        Q, proj = quotient(Q8, [0, Q8.id_of("c2")])
        assert Q.order == 4
        assert exponent(Q) == 2
        assert Q.names[0] == "[c0]"
        assert proj[Q8.id_of("c2")] == Q.identity

    def test_projection_is_surjective_hom(self):
        D6 = dihedral(6)
        Q, proj = quotient(D6, closure(D6, [D6.id_of("r2")]))
        assert Q.order == 4
        assert len(set(proj)) == Q.order

    def test_subgroup_table(self):
        D4 = dihedral(4)
        rot = closure(D4, [D4.id_of("r1")])
        H, old = subgroup_table(D4, rot)
        assert H.order == 4 and old[0] == 0
        assert order_profile(H) == {1: 1, 2: 1, 4: 2}


class TestHomomorphisms:
    def test_inversion_is_automorphism_iff_abelian(self):
        Z8 = cyclic(8)
        alpha = validate_automorphism(Z8, [Z8.inv(g) for g in Z8.elements()])
        assert alpha[3] == 5
        S3 = symmetric(3)
        with pytest.raises(NotHomomorphicError):
            validate_automorphism(S3, [S3.inv(g) for g in S3.elements()])

    def test_identity_must_be_fixed(self):
        Z4 = cyclic(4)
        with pytest.raises(NotHomomorphicError):
            homomorphism(Z4, Z4, [1, 2, 3, 0])

    def test_image(self):
        Z6, Z3 = cyclic(6), cyclic(3)
        phi = homomorphism(Z6, Z3, [g % 3 for g in range(6)])
        assert len(np.unique(phi)) == 3
        assert np.unique(phi).size != Z6.order


class TestDirectProduct:
    def test_order_and_names(self):
        G = direct_product(cyclic(2), cyclic(3))
        assert G.order == 6
        assert G.names[0] == "0|0"
        assert order_profile(G) == order_profile(cyclic(6))

    def test_componentwise(self):
        A, B = cyclic(3), dihedral(4)
        G = direct_product(A, B)
        a1, b1, a2, b2 = 2, 5, 1, 7
        assert G.mul(a1 * B.order + b1, a2 * B.order + b2) \
            == A.mul(a1, a2) * B.order + B.mul(b1, b2)


class TestFileFormat:
    def test_round_trip(self):
        G = dihedral(4)
        H = loads_table(dumps_table(G))
        assert H.names == G.names
        assert np.array_equal(H.table, G.table)

    def test_comments_and_whitespace(self):
        text = "# a comment\n2\ne g\n# another\n0 1\n1 0\n"
        G = loads_table(text)
        assert G.order == 2 and G.names == ["e", "g"]

    def test_truncated_rejected(self):
        with pytest.raises(TableFormatError):
            loads_table("2\ne g\n0 1\n")

    def test_bad_count_rejected(self):
        with pytest.raises(TableFormatError):
            loads_table("2\ne\n0 1\n1 0\n")


# ---------------------------------------------------------------------------
# properties

_GROUPS = [cyclic(12), dihedral(6), symmetric(3), generalized_quaternion(16)]


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_lagrange_for_generated_subgroups(data):
    G = data.draw(st.sampled_from(_GROUPS))
    seed = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    H = closure(G, seed)
    assert is_subgroup(G, H)
    assert G.order % len(H) == 0


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_closure_is_idempotent(data):
    G = data.draw(st.sampled_from(_GROUPS))
    seed = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    H = closure(G, seed)
    assert np.array_equal(closure(G, H), H)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_commutator_detects_commuting(data):
    G = data.draw(st.sampled_from(_GROUPS))
    a = data.draw(st.integers(0, G.order - 1))
    b = data.draw(st.integers(0, G.order - 1))
    assert (commutator(G, a, b) == G.identity) == (G.mul(a, b) == G.mul(b, a))
