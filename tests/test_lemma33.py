"""The lemma 3.3 suite reads one roots matrix per group; checked against the
per-(h, a) loop over check_eta_automorphism_invariance it replaced."""

import numpy as np
import pytest

from rootsets import cli
from rootsets.catalog import corpus
from rootsets.eta import check_eta_automorphism_invariance, roots_matrix
from rootsets.kernel import FiniteGroupTable, validate_automorphism

# the nine groups of the lemmas workload in perfbench
LEMMA_GROUPS = ["Q8", "Q16", "Q32", "D4", "D6", "S4", "Z12", "Z2xZ4", "Z3xZ3"]


def reference_lemma33(G):
    """The n^2 loop: every inner automorphism against every element."""
    ok = True
    for h in G.elements():
        hi = G.inv(h)
        alpha = validate_automorphism(G, [G.mul(G.mul(hi, g), h) for g in G.elements()])
        for a in G.elements():
            rep = check_eta_automorphism_invariance(G, a, alpha)
            if any(x.status == "fail" for x in rep.assertions):
                ok = False
    return ok


def reference_on_matrix(G, R):
    """The same loop reading <a> (row a) and the roots of a (column a) from R."""
    for h in G.elements():
        hi = G.inv(h)
        alpha = [G.mul(G.mul(hi, g), h) for g in G.elements()]
        for a in G.elements():
            cyc = set(np.flatnonzero(R[a]).tolist())
            if {alpha[g] for g in cyc} != cyc:
                continue  # outside the lemma's hypothesis
            eta = set(np.flatnonzero(~R[:, a]).tolist())
            if {alpha[g] for g in eta} != eta:
                return False
    return True


def relabeled(G, seed):
    """G with its non-identity elements shuffled."""
    rng = np.random.default_rng(seed)
    perm = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])  # old -> new
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    names = [None] * G.order
    for old, new in enumerate(perm.tolist()):
        names[new] = G.names[old]
    return FiniteGroupTable(table, names, label=f"{G.label}~{seed}")


NAMES = sorted(corpus())
NONABELIAN = [name for name, G in sorted(corpus().items())
              if not np.array_equal(G.table, G.table.T)]


@pytest.mark.parametrize("name", NAMES)
def test_same_verdict_as_the_loop_on_the_corpus(name, groups):
    G = groups[name]
    assert cli._lemma33_suite(G) == reference_lemma33(G)


@pytest.mark.parametrize("name", LEMMA_GROUPS)
def test_same_verdict_as_the_loop_on_relabeled_lemma_groups(name, groups):
    G = relabeled(groups[name], seed=len(name))
    assert cli._lemma33_suite(G) == reference_lemma33(G)


@pytest.mark.parametrize("name", NONABELIAN)
def test_planted_fault_in_the_roots_matrix_fails(name, groups, monkeypatch):
    # drop one non-central g from the roots of the identity: conjugating g
    # away keeps <e> = {e} but moves eta(e) = {g}
    G = groups[name]
    R = roots_matrix(G)
    g = next(g for g in G.elements() if (G.table[g] != G.table[:, g]).any())
    R[g, 0] = False
    monkeypatch.setattr(cli, "roots_matrix", lambda group: R.copy())
    assert not cli._lemma33_suite(G)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "Z4"])
def test_every_single_flip_matches_the_loop_on_the_same_matrix(name, groups, monkeypatch):
    G = groups[name]
    R0 = roots_matrix(G)
    verdicts = set()
    for i, j in np.ndindex(R0.shape):
        R = R0.copy()
        R[i, j] = ~R[i, j]
        monkeypatch.setattr(cli, "roots_matrix", lambda group, R=R: R)
        verdict = cli._lemma33_suite(G)
        assert verdict == reference_on_matrix(G, R), (i, j)
        verdicts.add(verdict)
    assert verdicts == ({True} if name == "Z4" else {True, False})
