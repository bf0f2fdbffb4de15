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
    cyclic_subgroup,
    order_of,
    power,
    quotient,
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
    n = G.order
    R = np.zeros((n, n), dtype=bool)
    for h in range(n):
        R[h, 0] = True
        cur = h
        while cur != 0:
            R[h, cur] = True
            cur = G.mul(cur, h)
    return R


def eta(G, g):
    g = G.check_element(g)
    members = [h for h in G.elements() if g not in cyclic_subgroup(G, h)]
    return EtaSet(G, g, Subset.of(G, members))


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
    members = Subset.of(G, G.elements())
    assert all(len(eta(G, g)) < G.order for g in G.elements())
    return DegenerateSubgroupReport(G, members, DEGENERACY_WARNING)


def d_finite(G):
    """Intersection of subgroups equipotent with G -- only G itself qualifies."""
    return DegenerateSubgroupReport(G, Subset.of(G, G.elements()), DEGENERACY_WARNING)


def _prime_power_base(n):
    """The prime p with n = p^k (k >= 1), or None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            break
        p += 1
    else:
        p = n
    while n % p == 0:
        n //= p
    return p if n == 1 else None


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
    p = _prime_power_base(order_of(G, a))
    if p is None:
        raise PreconditionError("a-not-prime-power",
                                "order of a is not a prime power p^n with n >= 1")
    if h not in eta(G, a).members:
        raise PreconditionError("h-not-in-eta", "h is a root of a")
    h_cyc = set(cyclic_subgroup(G, h))
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
    members = [g for g in G.elements() if math.gcd(order_of(G, g), p) == 1]
    mset = set(members)
    for a in members:
        for b in members:
            if G.mul(a, b) not in mset:
                return PPrimePartReport(Subset.of(G, members), False, (a, b))
    return PPrimePartReport(Subset.of(G, members), True)


# ---------------------------------------------------------------------------
# lemma checkers: these verify theorems, so a failure means the kernel is wrong

def check_lemma31(G):
    """Exhaustive check of the basic eta laws (empty at identity, inversion
    invariance, submultiplicativity, and containment of the non-centralizer)."""
    rep = CheckReport(f"eta basic laws on {G.label or 'group'}")
    R = roots_matrix(G)
    n = G.order
    etas = [~R[:, g] for g in range(n)]  # etas[g][h] true iff h in eta(g)

    rep.add("eta-of-identity-empty", not etas[0].any())

    ok, wit = True, None
    for x in range(n):
        if not np.array_equal(etas[G.inv(x)], etas[x]):
            ok, wit = False, G.names[x]
            break
    rep.add("eta-inversion-invariant", ok, wit)

    ok, wit = True, None
    for x1 in range(n):
        for x2 in range(n):
            prod = G.mul(x1, x2)
            if (etas[prod] & ~(etas[x1] | etas[x2])).any():
                ok, wit = False, (G.names[x1], G.names[x2])
                break
        if not ok:
            break
    rep.add("eta-of-product-in-union", ok, wit)

    ok, wit = True, None
    for x in range(n):
        noncent = np.fromiter((G.mul(h, x) != G.mul(x, h) for h in range(n)),
                              dtype=bool, count=n)
        if (noncent & ~etas[x]).any():
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
    ok, wit = True, None
    for x in range(n):
        a = power(G, x, p)
        for g in range(n):
            if R[g, a]:
                continue  # g not in eta(a)
            for y in range(n):
                if R[g, y] and R[y, x]:
                    ok, wit = False, (G.names[x], G.names[g], G.names[y])
                    break
            if not ok:
                break
        if not ok:
            break
    rep.add("lemma39", ok, wit)
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
