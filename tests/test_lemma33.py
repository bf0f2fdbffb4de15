"""The lemma 3.3 suite reads one roots matrix per group; checked against the
per-(h, a) loop over check_eta_automorphism_invariance it replaced, in
verdict and in witness: the first (h, a), h-major, as element names."""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from rootsets.catalog import corpus
from rootsets.cli import build_group, main, parse_spec
from rootsets.eta import check_eta_automorphism_invariance, check_lemma33, roots_matrix
from rootsets.kernel import FiniteGroupTable, validate_automorphism

eta_module = importlib.import_module("rootsets.eta")  # ``rootsets.eta`` is also a function
SPECS = Path(__file__).resolve().parent.parent / "specs"

# the nine groups of the lemmas workload in perfbench
LEMMA_GROUPS = ["Q8", "Q16", "Q32", "D4", "D6", "S4", "Z12", "Z2xZ4", "Z3xZ3"]


def verdict(rep):
    """The one assertion of a suite's CheckReport as (passed, witness)."""
    [a] = rep.assertions
    assert a.name == "inner-automorphism-invariance"
    return a.status == "pass", a.witness


def reference_lemma33(G):
    """The n^2 loop: every inner automorphism against every element."""
    for h in G.elements():
        hi = G.inv(h)
        alpha = validate_automorphism(G, [G.mul(G.mul(hi, g), h) for g in G.elements()])
        for a in G.elements():
            rep = check_eta_automorphism_invariance(G, a, alpha)
            if any(x.status == "fail" for x in rep.assertions):
                return False, (G.names[h], G.names[a])
    return True, None


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
                return False, (G.names[h], G.names[a])
    return True, None


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
    assert verdict(check_lemma33(G)) == reference_lemma33(G) == (True, None)


@pytest.mark.parametrize("name", LEMMA_GROUPS)
def test_same_verdict_as_the_loop_on_relabeled_lemma_groups(name, groups):
    G = relabeled(groups[name], seed=len(name))
    assert verdict(check_lemma33(G)) == reference_lemma33(G) == (True, None)


@pytest.mark.parametrize("name", NONABELIAN)
def test_planted_fault_in_the_roots_matrix_fails(name, groups, monkeypatch):
    # drop one non-central g from the roots of the identity: conjugating g
    # away keeps <e> = {e} but moves eta(e) = {g}
    G = groups[name]
    R = roots_matrix(G)
    g = next(g for g in G.elements() if (G.table[g] != G.table[:, g]).any())
    R[g, 0] = False
    monkeypatch.setattr(eta_module, "roots_matrix", lambda group: R.copy())
    got = verdict(check_lemma33(G))
    assert not got[0] and got == reference_on_matrix(G, R)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "Z4"])
def test_every_single_flip_matches_the_loop_on_the_same_matrix(name, groups, monkeypatch):
    G = groups[name]
    R0 = roots_matrix(G)
    verdicts = set()
    for i, j in np.ndindex(R0.shape):
        R = R0.copy()
        R[i, j] = ~R[i, j]
        monkeypatch.setattr(eta_module, "roots_matrix", lambda group, R=R: R)
        got = verdict(check_lemma33(G))
        assert got == reference_on_matrix(G, R), (i, j)
        verdicts.add(got[0])
    assert verdicts == ({True} if name == "Z4" else {True, False})


def test_the_cli_reports_the_first_witness(monkeypatch, capsys):
    """With R[2, 0] flipped on specs/q8.json, ``lemmas --suite 3.3`` exits 2
    and its failing assertion names the reference's first (h, a)."""
    path = SPECS / "q8.json"
    G = build_group(parse_spec(path.read_text(encoding="utf-8"), SPECS), SPECS)
    R = roots_matrix(G)
    R[2, 0] = ~R[2, 0]
    monkeypatch.setattr(eta_module, "roots_matrix", lambda group: R.copy())
    ok, witness = reference_on_matrix(G, R)
    assert not ok
    assert main(["lemmas", str(path), "--suite", "3.3"]) == 2
    assert json.loads(capsys.readouterr().out)["assertions"] == [
        {"name": "Q8:inner-automorphism-invariance", "status": "fail", "witness": list(witness)}]
