"""Root-complement sets and their structure theory at finite scale.

For a group element g, ``eta(G, g)`` is the set of h such that no integer
power of h equals g, i.e. g is outside the cyclic subgroup generated by h.
The exponent ranges over all integers including 0, so the identity lies in
eta(g) exactly when g is not the identity, and eta(identity) is empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import (
    GroupError,
    Subset,
    closure_witness,
    cyclic_subgroup,
    order_of,
    prime_factors,
    quotient,
    roots,
)
from .report import CheckReport


@dataclass(frozen=True)
class EtaSet:
    group: object
    target: int
    members: Subset

    def __contains__(self, h):
        return h in self.members

    def __len__(self):
        return len(self.members)


class PreconditionError(GroupError):
    def __init__(self, reason, message):
        super().__init__(message)
        self.reason = reason


def roots_matrix(G):
    """Boolean matrix R with R[h, g] true iff g lies in the cyclic subgroup of h."""
    return roots(G, np.arange(G.order))


def eta(G, g):
    g = G.check_element(g)
    members = np.flatnonzero(~roots(G, [g])[:, 0])
    return EtaSet(G, g, Subset(G, tuple(members.tolist())))


DEGENERACY_WARNING = (
    "degenerate-for-finite-groups: for a finite group this is always the whole "
    "group; the meaningful notion lives on ascending towers"
)


@dataclass(frozen=True)
class DegenerateSubgroupReport:
    group: object
    members: Subset
    warning: str


def k_finite(G):
    """All g with |eta(g)| < |G| -- the whole group, since g is a root of itself."""
    rootless = np.flatnonzero(~roots_matrix(G).any(axis=0))
    if rootless.size:
        raise GroupError(f"eta({G.names[rootless[0]]}) is the whole group")
    return DegenerateSubgroupReport(G, Subset.of(G, G.elements()), DEGENERACY_WARNING)


def d_finite(G):
    """Intersection of subgroups equipotent with G -- only G itself qualifies."""
    return DegenerateSubgroupReport(G, Subset.of(G, G.elements()), DEGENERACY_WARNING)


def lemma38_decide(G, a, h):
    """Closed-form test for whether a*h is a root of a.

    Requires a and h commuting, h in eta(a), and the order of a a prime
    power p^n.  Returns true iff p is coprime to the index of <h> cap <a>
    in <h>; the contract (equivalent to a*h not in eta(a)) is cross-checked
    against brute force in the test suite.
    """
    a, h = G.check_element(a), G.check_element(h)
    if G.mul(a, h) != G.mul(h, a):
        raise PreconditionError("non-commuting", "a and h do not commute")
    primes = list(prime_factors(order_of(G, a)))
    if len(primes) != 1:
        raise PreconditionError("a-not-prime-power",
                                "order of a is not a prime power p^n with n >= 1")
    p = primes[0]
    h_cyc = set(cyclic_subgroup(G, h))
    if a in h_cyc:  # h is in eta(a) iff a is outside <h>
        raise PreconditionError("h-not-in-eta", "h is a root of a")
    a_cyc = set(cyclic_subgroup(G, a))
    ratio = len(h_cyc) // len(h_cyc & a_cyc)
    return math.gcd(p, ratio) == 1


@dataclass(frozen=True)
class PPrimePartReport:
    members: Subset
    is_subgroup: bool
    witness: object = None


def p_prime_part(G, p):
    """The set of elements of order coprime to p, with a closure verdict."""
    members = np.flatnonzero(np.gcd(G.orders, p) == 1)
    wit = closure_witness(G, members)
    return PPrimePartReport(Subset(G, tuple(members.tolist())), wit is None, wit)


# ---------------------------------------------------------------------------
# lemma checkers: these verify theorems, so a failure means the kernel is wrong

def check_lemma31(G):
    """Exhaustive check of the basic eta laws (empty at identity, inversion
    invariance, submultiplicativity, and containment of the non-centralizer)."""
    rep = CheckReport(f"eta basic laws on {G.label or 'group'}")
    n = G.order
    idx = np.arange(n)
    E = ~roots_matrix(G).T  # E[g, h] true iff h in eta(g)

    rep.add("eta-of-identity-empty", not E[0].any())

    bad = np.flatnonzero((E[G.inv_vec(idx)] != E).any(axis=1))
    rep.add("eta-inversion-invariant", not bad.size, G.names[bad[0]] if bad.size else None)

    ok, wit = True, None
    for x1 in range(n):
        # x2 with eta(x1*x2) not inside eta(x1) | eta(x2)
        bad = np.flatnonzero((E[G.mul_vec(x1, idx)] & ~(E[x1] | E)).any(axis=1))
        if bad.size:
            ok, wit = False, (G.names[x1], G.names[bad[0]])
            break
    rep.add("eta-of-product-in-union", ok, wit)

    ok, wit = True, None
    for x in range(n):
        noncent = G.mul_vec(idx, x) != G.mul_vec(x, idx)
        if (noncent & ~E[x]).any():
            ok, wit = False, G.names[x]
            break
    rep.add("eta-contains-non-centralizer", ok, wit)
    return rep


def check_lemma32(G):
    """Transitivity of the root relation."""
    rep = CheckReport(f"root-relation transitivity on {G.label or 'group'}")
    R = roots_matrix(G)
    # R[x1,x2]: x2 in <x1>, i.e. x1 is a root of x2.  Transitivity: R o R <= R.
    closure2 = (R.astype(np.int64) @ R.astype(np.int64)) > 0
    ok = not (closure2 & ~R).any()
    wit = None
    if not ok:
        x1, x3 = map(int, np.argwhere(closure2 & ~R)[0])
        wit = (G.names[x1], G.names[x3])
    rep.add("root-relation-transitive", ok, wit)
    return rep


def check_lemma39(G, p):
    """For every a with a p-th root x: roots y of elements of eta(a) have x outside <y>."""
    rep = CheckReport(f"p-th-root separation on {G.label or 'group'} (p={p})")
    R = roots_matrix(G)
    n = G.order
    # through[g, x]: some y has g as a root and is a root of x
    through = (R.astype(np.int64) @ R.astype(np.int64)) > 0
    # bad[g, x]: g in eta(x^p), yet g reaches x through some y
    bad = ~R[:, G.pow_vec(np.arange(n), p)] & through
    wit = None
    if bad.any():
        x = int(np.flatnonzero(bad.any(axis=0))[0])
        g = int(np.flatnonzero(bad[:, x])[0])
        y = int(np.flatnonzero(R[g] & R[:, x])[0])
        wit = (G.names[x], G.names[g], G.names[y])
    rep.add("lemma39", wit is None, wit)
    return rep


def check_eta_automorphism_invariance(G, a, alpha):
    """Verify that an automorphism preserving <a> fixes eta(a) setwise."""
    rep = CheckReport(f"eta automorphism invariance on {G.label or 'group'}")
    a = G.check_element(a)
    a_cyc = set(cyclic_subgroup(G, a))
    if {alpha(g) for g in a_cyc} != a_cyc:
        rep.add_hypothesis_failure("alpha-preserves-cyclic-subgroup-of-a",
                                   G.names[a])
        return rep
    e = set(eta(G, a).members)
    rep.add("eta-setwise-fixed", {alpha(g) for g in e} == e, G.names[a])
    return rep


def check_quotient_eta(G, N, x):
    """Verify eta of the image in G/N is contained in the image of eta."""
    rep = CheckReport(f"quotient eta containment on {G.label or 'group'}")
    Q, proj = quotient(G, N)
    x = G.check_element(x)
    upstairs = {proj(h) for h in eta(G, x).members}
    downstairs = set(eta(Q, proj(x)).members)
    rep.add("quotient-eta-contained", downstairs <= upstairs,
            sorted(Q.names[q] for q in downstairs - upstairs) or None)
    return rep
