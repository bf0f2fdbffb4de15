"""Structural laws of the root-complement map, exhaustively on small groups.

These checkers verify proved statements, so any failure here means the
substrate (table, inverse, or roots computation) is broken -- they double
as regression alarms for the kernel.
"""

import pytest

from rootsets.catalog import corpus, cyclic, symmetric
from rootsets.eta import (
    check_eta_automorphism_invariance,
    check_lemma31,
    check_lemma32,
    check_lemma39,
    check_quotient_eta,
)
from rootsets.kernel import center, validate_automorphism
from rootsets.report import HYPOTHESIS_FAILED, PASS


@pytest.fixture(scope="module")
def groups():
    return corpus()


def test_basic_laws_hold_everywhere(groups):
    for G in groups.values():
        rep = check_lemma31(G)
        assert rep.ok, (G.label, [a.name for a in rep.assertions if a.status != PASS])


def test_basic_laws_report_shape(groups):
    rep = check_lemma31(groups["Q8"])
    assert {a.name for a in rep.assertions} == {
        "eta-of-identity-empty",
        "eta-inversion-invariant",
        "eta-of-product-in-union",
        "eta-contains-non-centralizer",
    }


def test_root_relation_transitive(groups):
    for G in groups.values():
        assert check_lemma32(G).ok, G.label


def test_pth_root_separation(groups):
    for G in groups.values():
        for p in (2, 3):
            if G.order % p == 0:
                assert check_lemma39(G, p).ok, (G.label, p)


class TestAutomorphismInvariance:
    def test_inner_automorphisms(self, groups):
        for name in ("S3", "D4", "Q8"):
            G = groups[name]
            for h in G.elements():
                hi = G.inv(h)
                alpha = validate_automorphism(
                    G, [G.mul(G.mul(hi, g), h) for g in G.elements()])
                for a in G.elements():
                    rep = check_eta_automorphism_invariance(G, a, alpha)
                    assert all(x.status != "fail" for x in rep.assertions), \
                        (name, G.names[h], G.names[a])

    def test_power_automorphism_on_cyclic(self):
        Z8 = cyclic(8)
        alpha = validate_automorphism(Z8, [(3 * g) % 8 for g in range(8)])
        for a in Z8.elements():
            assert check_eta_automorphism_invariance(Z8, a, alpha).ok

    def test_hypothesis_failure_is_reported_not_raised(self):
        # an automorphism moving <a> is outside the lemma's hypothesis
        S3 = symmetric(3)
        g = S3.id_of("120")
        gi = S3.inv(g)
        conj = validate_automorphism(
            S3, [S3.mul(S3.mul(gi, x), g) for x in S3.elements()])
        a = S3.id_of("102")  # a transposition, moved by the 3-cycle
        rep = check_eta_automorphism_invariance(S3, a, conj)
        assert rep.assertions[0].status == HYPOTHESIS_FAILED


def test_quotient_eta_containment(groups):
    D6 = groups["D6"]
    rot2 = [0, D6.id_of("r2"), D6.id_of("r4")]
    for x in D6.elements():
        assert check_quotient_eta(D6, rot2, x).ok, D6.names[x]
    Q8 = groups["Q8"]
    zc = center(Q8)
    for x in Q8.elements():
        assert check_quotient_eta(Q8, zc, x).ok, Q8.names[x]


def test_quotient_eta_on_abelian(groups):
    Z12 = groups["Z12"]
    N = [0, 6]
    for x in Z12.elements():
        assert check_quotient_eta(Z12, N, x).ok
