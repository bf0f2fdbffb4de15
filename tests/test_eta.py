"""Root-complement sets at finite scale, against an independent oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from rootsets.catalog import corpus, cyclic, generalized_quaternion, symmetric
from rootsets.eta import (
    DEGENERACY_WARNING,
    PreconditionError,
    d_finite,
    eta,
    k_finite,
    lemma38_decide,
    p_prime_part,
    roots_matrix,
)
from rootsets.kernel import direct_product, names_at, order_of


def eta_oracle(G, g):
    """Independent double loop: h is in eta(g) iff no power of h equals g."""
    out = set()
    for h in G.elements():
        powers = set()
        cur = G.identity
        for _ in range(order_of(G, h)):
            powers.add(cur)
            cur = G.mul(cur, h)
        if g not in powers:
            out.add(h)
    return out


@pytest.fixture(scope="module")
def groups():
    return corpus()


def test_eta_matches_oracle_on_corpus(groups):
    for G in groups.values():
        for g in G.elements():
            assert set(eta(G, g).members) == eta_oracle(G, g), (G.label, G.names[g])


def test_eta_of_identity_is_empty(groups):
    for G in groups.values():
        assert len(eta(G, G.identity)) == 0


def test_eta_sizes_in_z8():
    # [DERIVED] in Z8 the four generators lie in nobody's complement; 2 is
    # outside <0> and <4> only; 4 is a power of everything but the identity
    Z8 = cyclic(8)
    sizes = [len(eta(Z8, g)) for g in range(8)]
    assert sizes == [0, 4, 2, 4, 1, 4, 2, 4]


def test_eta_in_q8():
    # [DERIVED] the involution of Q8 is the square of every order-4 element,
    # so only the identity fails to reach it
    Q8 = generalized_quaternion(8)
    assert names_at(Q8, eta(Q8, Q8.id_of("c2")).members) == ["c0"]
    # an order-4 element is reached only from within its own cyclic subgroup
    assert len(eta(Q8, Q8.id_of("c1"))) == 6


def test_roots_matrix_agrees_with_eta(groups):
    for G in groups.values():
        R = roots_matrix(G)
        for g in G.elements():
            assert {h for h in G.elements() if not R[h, g]} == set(eta(G, g).members)


class TestDegenerateSubgroups:
    def test_k_finite_is_whole_group(self, groups):
        for G in groups.values():
            rep = k_finite(G)
            assert len(rep.members) == G.order
            assert rep.warning == DEGENERACY_WARNING
            assert rep.warning.startswith("degenerate-for-finite-groups:")

    def test_d_finite_is_whole_group(self):
        rep = d_finite(symmetric(3))
        assert len(rep.members) == 6
        assert rep.warning.startswith("degenerate-for-finite-groups:")


class TestClosedFormRootTest:
    def test_preconditions(self):
        S3 = symmetric(3)
        a, h = S3.id_of("102"), S3.id_of("021")
        with pytest.raises(PreconditionError) as exc:
            lemma38_decide(S3, a, h)
        assert exc.value.reason == "non-commuting"

        Z6 = cyclic(6)
        with pytest.raises(PreconditionError) as exc:
            lemma38_decide(Z6, 1, 2)  # order 6 is not a prime power
        assert exc.value.reason == "a-not-prime-power"

        Z4 = cyclic(4)
        with pytest.raises(PreconditionError) as exc:
            lemma38_decide(Z4, 2, 1)  # 2 = 1^2 is in <1>
        assert exc.value.reason == "h-not-in-eta"

    def test_matches_brute_force_on_corpus(self, groups):
        for G in groups.values():
            R = roots_matrix(G)
            for a in G.elements():
                for h in G.elements():
                    try:
                        predicted = lemma38_decide(G, a, h)
                    except PreconditionError:
                        continue
                    # contract: true iff a*h is not in eta(a)
                    assert predicted == bool(R[G.mul(a, h), a]), \
                        (G.label, G.names[a], G.names[h])

    def test_known_values(self):
        Z12 = cyclic(12)
        # a = 4 (order 3), h = 3 (order 4): index of <h> cap <a> in <h> is 4,
        # coprime to 3, so a*h has a as a power  [DERIVED]
        assert lemma38_decide(Z12, 4, 3) is True
        # a = 6 (order 2), h = 4 (order 3): index 3 is odd, so again true
        assert lemma38_decide(Z12, 6, 4) is True
        Z2xZ4 = direct_product(cyclic(2), cyclic(4))
        a, h = Z2xZ4.id_of("1|0"), Z2xZ4.id_of("0|1")
        # index of the trivial intersection in <h> is 4, sharing the prime 2
        assert lemma38_decide(Z2xZ4, a, h) is False


class TestPPrimePart:
    def test_closed_in_abelian(self):
        Z12 = cyclic(12)
        rep = p_prime_part(Z12, 2)
        assert rep.is_subgroup
        assert names_at(Z12, rep.members) == ["0", "4", "8"]

    def test_not_closed_in_s3(self):
        S3 = symmetric(3)
        rep = p_prime_part(S3, 3)
        assert not rep.is_subgroup
        a, b = rep.witness
        assert order_of(S3, S3.mul(a, b)) % 3 == 0


_GROUPS = [cyclic(12), symmetric(3), generalized_quaternion(16)]


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_eta_invariant_under_inversion(data):
    G = data.draw(st.sampled_from(_GROUPS))
    g = data.draw(st.integers(0, G.order - 1))
    assert set(eta(G, g).members) == set(eta(G, G.inv(g)).members)


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_eta_members_closed_under_inverse(data):
    G = data.draw(st.sampled_from(_GROUPS))
    g = data.draw(st.integers(0, G.order - 1))
    e = eta(G, g)
    assert g not in e
    for h in e.members:
        assert G.inv(h) in e  # <h> = <h^-1>, so membership is inverse-stable
