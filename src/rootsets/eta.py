"""Root-complement sets and their structure theory at finite scale.

For a group element g, ``eta(G, g)`` is the set of h such that no integer
power of h equals g, i.e. g is outside the cyclic subgroup generated by h.
The exponent ranges over all integers including 0, so the identity lies in
eta(g) exactly when g is not the identity, and eta(identity) is empty.
The ``lemmas`` command's five suites are the ``check_lemma3N``, each a ``CheckReport``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import (
    GroupError,
    closure_witness,
    cyclic_subgroup,
    first_witness,
    names_at,
    order_of,
    prime_factors,
    quotient,
    roots,
    validate_automorphism,
)
from .report import CheckReport


@dataclass(frozen=True, eq=False)
class EtaSet:
    group: object
    target: int
    members: np.ndarray  # sorted ids

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
    return EtaSet(G, g, np.flatnonzero(~roots(G, [g])[:, 0]))


DEGENERACY_WARNING = (
    "degenerate-for-finite-groups: for a finite group this is always the whole "
    "group; the meaningful notion lives on ascending towers"
)


@dataclass(frozen=True, eq=False)
class DegenerateSubgroupReport:
    group: object
    members: np.ndarray
    warning: str


def k_finite(G):
    """All g with |eta(g)| < |G| -- the whole group, since g is a root of itself."""
    rootless = np.flatnonzero(~roots_matrix(G).any(axis=0))
    if rootless.size:
        raise GroupError(f"eta({G.names[rootless[0]]}) is the whole group")
    return DegenerateSubgroupReport(G, np.arange(G.order), DEGENERACY_WARNING)


def d_finite(G):
    """Intersection of subgroups equipotent with G -- only G itself qualifies."""
    return DegenerateSubgroupReport(G, np.arange(G.order), DEGENERACY_WARNING)


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
    h_cyc = cyclic_subgroup(G, h)
    if a in h_cyc:  # h is in eta(a) iff a is outside <h>
        raise PreconditionError("h-not-in-eta", "h is a root of a")
    ratio = h_cyc.size // np.intersect1d(h_cyc, cyclic_subgroup(G, a)).size
    return math.gcd(p, ratio) == 1


@dataclass(frozen=True, eq=False)
class PPrimePartReport:
    members: np.ndarray
    is_subgroup: bool
    witness: object = None


def p_prime_part(G, p):
    """The set of elements of order coprime to p, with a closure verdict."""
    members = np.flatnonzero(np.gcd(G.orders, p) == 1)
    wit = closure_witness(G, members)
    return PPrimePartReport(members, wit is None, wit)


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

    wit = first_witness(n, n, lambda g: E[G.inv_vec(idx[g])] != E[g])
    rep.add("eta-inversion-invariant", wit is None, None if wit is None else G.names[wit[0]])

    def outside_union(x1):  # row x1, column (x2, h): h in eta(x1*x2), not in eta(x1) | eta(x2)
        return (E[G.mul_vec(idx[x1, None], idx)] & ~(E[x1, None] | E)).reshape(-1, n * n)

    wit = first_witness(n, n * n, outside_union)
    rep.add("eta-of-product-in-union", wit is None,
            None if wit is None else (G.names[wit[0]], G.names[wit[1] // n]))

    def noncentral_root(x):  # row x, column h: h does not commute with x, yet is not in eta(x)
        return (G.mul_vec(idx, idx[x, None]) != G.mul_vec(idx[x, None], idx)) & ~E[x]

    wit = first_witness(n, n, noncentral_root)
    rep.add("eta-contains-non-centralizer", wit is None, None if wit is None else G.names[wit[0]])
    return rep


def check_lemma32(G):
    """Transitivity of the root relation."""
    rep = CheckReport(f"root-relation transitivity on {G.label or 'group'}")
    R = roots_matrix(G)
    # R[x1,x2]: x2 in <x1>, i.e. x1 is a root of x2.  Transitivity: R o R <= R,
    # with R o R read as the bool product R @ R, the OR of ANDs: exact
    wit = first_witness(G.order, G.order, lambda x1: (R[x1] @ R) & ~R[x1])
    rep.add("root-relation-transitive", wit is None,
            None if wit is None else (G.names[wit[0]], G.names[wit[1]]))
    return rep


def check_lemma33(G):
    """Every inner automorphism fixing <a> fixes eta(a), for every a.

    With R[h, g] true iff g lies in <h>, row a of R is <a> and column a the
    roots of a, the complement of eta(a); a permutation fixes a set iff it
    fixes its complement.  A failure names the first (h, a), h-major
    (``first_witness``), whose conjugation g -> h^-1 g h fixes <a> but not eta(a).
    """
    rep = CheckReport(f"inner-automorphism invariance on {G.label or 'group'}")
    R = roots_matrix(G)
    idx = np.arange(G.order)

    def moves_eta(rows):  # row h, column a: conjugation by h fixes <a>, not eta(a)
        maps = (validate_automorphism(G, G.mul_vec(G.mul_vec(G.inv(h), idx), h))
                for h in idx[rows].tolist())
        return np.array([(R[:, P] == R).all(axis=1) & ~(R[P, :] == R).all(axis=0) for P in maps])

    wit = first_witness(G.order, G.order, moves_eta)
    rep.add("inner-automorphism-invariance", wit is None,
            None if wit is None else (G.names[wit[0]], G.names[wit[1]]))
    return rep


def check_lemma38(G):
    """``lemma38_decide`` against brute force on every pair (a, h), read from
    one roots matrix: the first failing (a, h), row-major (``first_witness``).

    With R[h, g] true iff g lies in <h>, h is in eta(a) iff not R[h, a],
    |<h> cap <a>| is (R R^T)[h, a], and a*h is a root of a iff R[a*h, a].
    Pairs outside the lemma's preconditions (a and h commuting, the order
    of a a prime power p^n with n >= 1, h in eta(a)) are skipped.
    """
    rep = CheckReport(f"lemma 3.8 closed form on {G.label or 'group'}")
    R = roots_matrix(G)
    idx = np.arange(G.order)
    orders = G.orders
    p = np.zeros(G.order, dtype=np.int64)  # p where the order of a is a power of p, else 0
    for d in np.unique(orders).tolist():
        if len(primes := list(prime_factors(d))) == 1:
            p[orders == d] = primes[0]
    Ri = R.astype(np.int64)

    def fails(rows):
        a = idx[rows, None]
        ah = G.mul_vec(a, idx)
        asked = (ah == G.mul_vec(idx, a)) & (p[a] > 0) & ~R[:, rows].T
        predicted = np.gcd(p[a], orders // (Ri[rows] @ Ri.T)) == 1
        return asked & (predicted != R[ah, a])

    wit = first_witness(G.order, G.order, fails)
    rep.add("closed-form-vs-brute-force", wit is None,
            None if wit is None else (G.names[wit[0]], G.names[wit[1]]))
    return rep


def check_lemma39(G, p):
    """For every a with a p-th root x: roots y of elements of eta(a) have x outside <y>."""
    rep = CheckReport(f"p-th-root separation on {G.label or 'group'} (p={p})")
    RT = roots_matrix(G).T  # RT[x, g]: g is a root of x
    xp = G.pow_vec(np.arange(G.order), p)
    # row x, column g: g in eta(x^p), yet g reaches x through some y, a bool RT o RT
    wit = first_witness(G.order, G.order, lambda x: ~RT[xp[x]] & (RT[x] @ RT))
    if wit is not None:
        x, g = wit
        y = int(np.flatnonzero(RT[:, g] & RT[x])[0])
        wit = (G.names[x], G.names[g], G.names[y])
    rep.add("lemma39", wit is None, wit)
    return rep


def check_eta_automorphism_invariance(G, a, alpha):
    """Verify that an automorphism ``alpha`` (an index array, as
    ``validate_automorphism`` returns it) preserving <a> fixes eta(a) setwise."""
    rep = CheckReport(f"eta automorphism invariance on {G.label or 'group'}")
    a = G.check_element(a)
    a_cyc = cyclic_subgroup(G, a)
    if not np.array_equal(np.unique(alpha[a_cyc]), a_cyc):
        rep.add_hypothesis_failure("alpha-preserves-cyclic-subgroup-of-a",
                                   G.names[a])
        return rep
    e = eta(G, a).members
    rep.add("eta-setwise-fixed", np.array_equal(np.unique(alpha[e]), e), G.names[a])
    return rep


def check_quotient_eta(G, N, x):
    """Verify eta of the image in G/N is contained in the image of eta."""
    rep = CheckReport(f"quotient eta containment on {G.label or 'group'}")
    Q, proj = quotient(G, N)
    x = G.check_element(x)
    escaped = np.setdiff1d(eta(Q, proj[x]).members, proj[eta(G, x).members])
    rep.add("quotient-eta-contained", not escaped.size, sorted(names_at(Q, escaped)) or None)
    return rep
