"""The lemma 3.8 suite reads one roots matrix per group; checked against the
per-pair loop over lemma38_decide it replaced, in verdict and in witness."""

import numpy as np
import pytest

from rootsets.catalog import corpus
from rootsets.eta import PreconditionError, check_lemma38, lemma38_decide, roots_matrix
from rootsets.kernel import order_of, prime_factors
from test_lemma33 import LEMMA_GROUPS, eta_module, relabeled


def verdict(rep):
    """The one assertion of a suite's CheckReport as (passed, witness)."""
    [a] = rep.assertions
    assert a.name == "closed-form-vs-brute-force"
    return a.status == "pass", a.witness


def reference_lemma38(G):
    """The n^2 loop: the closed form of every pair against brute force."""
    R = roots_matrix(G)
    for a in G.elements():
        for h in G.elements():
            try:
                predicted = lemma38_decide(G, a, h)
            except PreconditionError:
                continue
            if predicted != bool(R[G.mul(a, h), a]):
                return False, (G.names[a], G.names[h])
    return True, None


def reference_on_matrix(G, R):
    """The same loop reading <h>, <a> (rows) and eta(a) (column a) from R."""
    for a in G.elements():
        primes = list(prime_factors(order_of(G, a)))
        for h in G.elements():
            if G.mul(a, h) != G.mul(h, a) or len(primes) != 1 or R[h, a]:
                continue
            meet = np.count_nonzero(R[h] & R[a])
            predicted = np.gcd(primes[0], order_of(G, h) // meet) == 1
            if predicted != R[G.mul(a, h), a]:
                return False, (G.names[a], G.names[h])
    return True, None


NAMES = sorted(corpus())


@pytest.mark.parametrize("name", NAMES)
def test_same_verdict_as_the_loop_on_the_corpus(name, groups):
    G = groups[name]
    assert verdict(check_lemma38(G)) == reference_lemma38(G) == (True, None)


@pytest.mark.parametrize("name", LEMMA_GROUPS)
def test_same_verdict_as_the_loop_on_relabeled_lemma_groups(name, groups):
    G = relabeled(groups[name], seed=len(name))
    assert verdict(check_lemma38(G)) == reference_lemma38(G) == (True, None)


@pytest.mark.parametrize("name", ["Z4", "Z2xZ2", "Q8", "D4", "S3", "Z12"])
def test_every_single_flip_matches_the_loop_on_the_same_matrix(name, groups, monkeypatch):
    # column 0 stays: every <h> holds the identity, so |<h> cap <a>| >= 1
    G = groups[name]
    R0 = roots_matrix(G)
    verdicts = set()
    for i, j in np.ndindex(R0.shape):
        if j == 0:
            continue
        R = R0.copy()
        R[i, j] = ~R[i, j]
        monkeypatch.setattr(eta_module, "roots_matrix", lambda group, R=R: R)
        result = verdict(check_lemma38(G))
        assert result == reference_on_matrix(G, R), (i, j)
        verdicts.add(result[0])
    assert verdicts == ({False} if name == "Z4" else {True, False})
