"""Exact arithmetic on finite groups given by Cayley tables.

Element 0 is always the identity.  Tables are validated on construction:
identity row/column, Latin square, uniqueness of names, and associativity.
Associativity and homomorphism laws are checked exactly, by generators.
Table files are read row by row into one int64 array and written from a
lookup of index strings (format below).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

# table checks take rows in blocks of this many entries: no n x n temporaries
BLOCK_ENTRIES = 1 << 16


class GroupError(Exception):
    """Base class for structural errors in group data."""


class InvalidElementError(GroupError):
    pass


class TableFormatError(GroupError):
    pass


class NotASubgroupError(GroupError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotNormalError(GroupError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotBijectiveError(GroupError):
    pass


class NotHomomorphicError(GroupError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class FiniteGroupTable:
    """A finite group as an identity-indexed Cayley table with named elements."""

    def __init__(self, table, names=None, *, label=""):
        tab = np.asarray(table, dtype=np.int64)
        if tab.ndim != 2 or tab.shape[0] != tab.shape[1]:
            raise TableFormatError("table must be a square matrix")
        n = tab.shape[0]
        if n < 1:
            raise TableFormatError("group order must be at least 1")
        self.order = n
        self.table = tab
        self.label = label
        if names is None:
            names = [str(i) for i in range(n)]
        names = list(names)
        if len(names) != n:
            raise TableFormatError(f"expected {n} names, got {len(names)}")
        if len(set(names)) != n:
            raise TableFormatError("element names are not unique")
        self.names = names
        self._index = {nm: i for i, nm in enumerate(names)}
        self.meta = {}
        self._validate()
        self._inv = np.argmin(tab, axis=1)  # the column holding 0 in each row

    def _validate(self):
        n = self.order
        tab = self.table
        if tab.min() < 0 or tab.max() >= n:
            raise TableFormatError("table entries out of range")
        idx = np.arange(n)
        if not np.array_equal(tab[0], idx):
            raise TableFormatError("row 0 does not act as identity")
        if not np.array_equal(tab[:, 0], idx):
            raise TableFormatError("column 0 does not act as identity")
        for what, rows in (("row", tab), ("column", tab.T)):
            for block in _row_blocks(n):
                bad = np.flatnonzero((np.sort(rows[block], axis=1) != idx).any(axis=1))
                if bad.size:
                    raise TableFormatError(f"{what} {block.start + bad[0]} is not a permutation")
        self.generators = generating_set(self)
        # Light's test (Clifford & Preston I, 1.2): (a*b)*s = a*(b*s) for every
        # generator s; the s satisfying it are closed under products
        for s in self.generators:
            col = tab[:, s]                          # b*s for every b
            for rows in _row_blocks(n):
                left = col[tab[rows]]                # (a*b)*s
                right = tab[rows].take(col, axis=1)  # a*(b*s)
                if not np.array_equal(left, right):
                    a, b = map(int, np.argwhere(left != right)[0])
                    raise TableFormatError(
                        f"associativity fails at ({rows.start + a},{b},{s})")
        self.meta["associativity"] = "full"

    @property
    def identity(self):
        return 0

    @cached_property
    def orders(self):
        return element_orders(self)

    def check_element(self, g):
        g = int(g)
        if not 0 <= g < self.order:
            raise InvalidElementError(f"element index {g} out of range for order {self.order}")
        return g

    def mul(self, a, b):
        return int(self.table[self.check_element(a), self.check_element(b)])

    def mul_vec(self, a, b):
        return self.table[a, b]

    def inv(self, a):
        return int(self._inv[self.check_element(a)])

    def elements(self):
        return range(self.order)

    def id_of(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise InvalidElementError(f"unknown element name {name!r}") from None

    def __repr__(self):
        lab = f" {self.label}" if self.label else ""
        return f"<FiniteGroupTable{lab} order={self.order}>"


class OracleGroup:
    """A group given by a multiplication oracle instead of a materialized table.

    Used where the full table would be wasteful (tree groups of depth >= 3,
    large tower levels).  Supports the enumeration-style kernel operations.
    """

    def __init__(self, order, mul, *, name_of=None, label=""):
        self.order = order
        self._mul = mul
        self._name_of = name_of
        self.label = label
        self.meta = {"oracle": True}

    @property
    def identity(self):
        return 0

    def check_element(self, g):
        g = int(g)
        if not 0 <= g < self.order:
            raise InvalidElementError(f"element index {g} out of range for order {self.order}")
        return g

    def mul(self, a, b):
        return self._mul(self.check_element(a), self.check_element(b))

    def inv(self, a):
        # last power before the cycle closes
        a = self.check_element(a)
        prev, cur = a, self.mul(a, a)
        while cur != 0:
            prev, cur = cur, self.mul(cur, a)
        return prev

    def elements(self):
        return range(self.order)

    def name_of(self, g):
        if self._name_of is not None:
            return self._name_of(g)
        return str(g)

    def __repr__(self):
        lab = f" {self.label}" if self.label else ""
        return f"<OracleGroup{lab} order={self.order}>"


@dataclass(frozen=True)
class Subset:
    """A subset of a group's elements, kept as a sorted index tuple."""

    owner: object
    indices: tuple

    @classmethod
    def of(cls, owner, members):
        idx = sorted({owner.check_element(g) for g in members})
        return cls(owner, tuple(idx))

    def __contains__(self, g):
        return int(g) in self._as_set()

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)

    def _as_set(self):
        cached = self.__dict__.get("_set")
        if cached is None:
            cached = frozenset(self.indices)
            object.__setattr__(self, "_set", cached)
        return cached

    def names(self):
        return [self.owner.names[i] for i in self.indices]


@dataclass(frozen=True)
class Homomorphism:
    """A validated homomorphism between table groups."""

    source: FiniteGroupTable
    target: FiniteGroupTable
    map: tuple

    @classmethod
    def validated(cls, source, target, mapping):
        m = np.asarray(list(mapping), dtype=np.int64)
        if m.shape != (source.order,):
            raise NotHomomorphicError(
                f"map has length {m.shape[0]}, expected {source.order}")
        if m.min() < 0 or m.max() >= target.order:
            raise InvalidElementError("map image out of range")
        if m[0] != 0:
            raise NotHomomorphicError("map does not send identity to identity")
        wit = hom_witness(source, target, m)
        if wit is not None:
            a, b = wit
            raise NotHomomorphicError(
                f"homomorphism law fails at ({source.names[a]},{source.names[b]})",
                witness=wit)
        return cls(source, target, tuple(int(x) for x in m))

    def __call__(self, g):
        return self.map[self.source.check_element(g)]

    def is_injective(self):
        return len(set(self.map)) == self.source.order

    def image(self):
        return Subset.of(self.target, self.map)


# ---------------------------------------------------------------------------
# the roots/orders engine, over any group with ``names`` and ``mul_vec``

def power_vec(G, x, e):
    """x^e for index arrays x and exponents e >= 0 that broadcast together.

    Binary exponentiation (Knuth, TAOCP vol. 2, 4.6.3): two ``mul_vec``
    calls per bit of max(e), the squarings over x alone.
    """
    x, e = np.asarray(x, dtype=np.int64), np.asarray(e, dtype=np.int64)
    out = np.zeros(np.broadcast_shapes(x.shape, e.shape), dtype=np.int64)
    for i in range(int(e.max(initial=0)).bit_length()):
        if i:
            x = G.mul_vec(x, x)
        out = np.where((e >> i) & 1 == 1, G.mul_vec(out, x), out)
    return out


def element_orders(G):
    """The order of every element, by prime-factor descent from n = |G|.

    For each prime q^a exactly dividing n, the order of x^(n/q^a) is the
    q-part of the order of x, counted by q-th powers (Holt, Eick & O'Brien,
    Handbook of Computational Group Theory, 2005): O(log n) ``mul_vec``
    calls in a p-group.
    """
    n = len(G.names)
    orders = np.ones(n, dtype=np.int64)
    for q, a in prime_factors(n).items():
        y = power_vec(G, np.arange(n), n // q ** a)
        for _ in range(a):
            if not y.any():
                break
            orders[y != 0] *= q
            y = power_vec(G, y, q)
        if y.any():
            raise GroupError(f"order of element {int(np.argmax(y != 0))} "
                             f"does not divide group order {n}")
    return orders


def _cyclic_keys(G, targets):
    """key[x] = least generator of <x>, for x in a target's cyclic subgroup, else -1.

    Subgroups are listed largest order first, in blocks of one order d and
    about BLOCK_ENTRIES powers; a target that an earlier block reached is
    skipped.
    """
    orders = G.orders
    key = np.full(orders.size, -1, dtype=np.int64)
    todo = targets[np.argsort(-orders[targets], kind="stable")]
    while (todo := todo[key[todo] < 0]).size:
        d = int(orders[todo[0]])
        block = todo[orders[todo] == d][:max(1, BLOCK_ENTRIES // d)]
        P = power_vec(G, block[:, None], np.arange(d))
        # g^j and g^k generate the same subgroup of <g> iff gcd(j, d) = gcd(k, d)
        cls = np.gcd(np.arange(d), d)
        for c in np.unique(cls).tolist():
            gens = P[:, cls == c]
            key[gens] = gens.min(axis=1, keepdims=True)
    return key


def roots(G, targets):
    """Boolean matrix R with R[h, j] true iff targets[j] lies in <h>.

    g lies in <h> iff d = ord g divides ord h and h^(ord h / d) generates
    <g>.  With cyclic subgroups keyed by their least generator, one power
    for all distinct target orders d and one compare per d decide R.
    """
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    orders = G.orders
    ds, col_of = np.unique(orders[targets], return_inverse=True)
    key = _cyclic_keys(G, targets)
    # column d: h^(ord h / d) where d divides ord h, else h^0, the identity,
    # whose key 0 matches only the identity's
    e, rem = np.divmod(orders[:, None], ds)
    root_key = key[power_vec(G, np.arange(orders.size)[:, None],
                             np.where(rem == 0, e % orders[:, None], 0))]
    RT = np.empty((targets.size, orders.size), dtype=bool)  # filled a target order at a time
    for i in range(ds.size):
        cols = np.flatnonzero(col_of == i)
        RT[cols] = key[targets[cols]][:, None] == root_key[:, i]
    return RT.T


def order_of(G, g):
    """Least n >= 1 with g^n = identity; an OracleGroup, having no
    ``mul_vec``, walks the powers of g."""
    g = G.check_element(g)
    if isinstance(G, OracleGroup):
        n, cur = 1, g
        while cur != 0:
            cur = G.mul(cur, g)
            n += 1
        return n
    return int(G.orders[g])


def cyclic_subgroup(G, g):
    g = G.check_element(g)
    members = [0]
    cur = g
    while cur != 0:
        members.append(cur)
        cur = G.mul(cur, g)
    return Subset.of(G, members)


# ---------------------------------------------------------------------------
# operations

def _row_blocks(n):
    """Slices of consecutive rows of an n-column array, about BLOCK_ENTRIES each."""
    step = max(1, BLOCK_ENTRIES // n)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _reach(G, seen, frontier, gens):
    """Mark in ``seen`` everything reachable from ``frontier`` by right products with ``gens``.

    The squares g^(2^i), 2^i < |G|, of the generators reach nothing new but
    bring every power g^k within log2 k steps: about log2 |G| rounds.
    """
    steps = [np.asarray(gens, dtype=np.int64)]
    for _ in range((len(G.names) - 1).bit_length() - 1):
        steps.append(G.mul_vec(steps[-1], steps[-1]))
    steps = np.unique(np.concatenate(steps))
    while frontier.size:
        prods = G.mul_vec(np.repeat(frontier, steps.size), np.tile(steps, frontier.size))
        frontier = np.unique(prods[~seen[prods]])
        seen[frontier] = True


def closure(G, seed):
    """Least subgroup containing ``seed``, by right products; ``G`` needs ``mul_vec``."""
    seed = [G.check_element(g) for g in seed]
    seen = np.zeros(len(G.names), dtype=bool)
    seen[0] = True
    _reach(G, seen, np.zeros(1, dtype=np.int64), seed)
    return Subset(G, tuple(np.flatnonzero(seen).tolist()))


def generating_set(G):
    """Greedy generators: repeatedly add the least element not yet reached.

    Every element is a product of the result.  In a group each generator at
    least doubles the reached subgroup, so there are at most log2 |G|.
    """
    seen = np.zeros(len(G.names), dtype=bool)
    seen[0] = True
    gens = []
    while not seen.all():
        gens.append(int(np.argmin(seen)))
        _reach(G, seen, np.flatnonzero(seen), gens)
    return gens


def hom_witness(source, target, f):
    """A pair (x, s) with f(x*s) != f(x)*f(s), or None if the index array ``f`` is a homomorphism.

    Exact for maps between groups: x ranges over all of ``source`` and s over
    its generators, and the s satisfying the law are closed under products.
    """
    if f[0] != 0:
        return (0, 0)  # f(0) = f(0)*f(0) forces f(0) to be the identity
    x = np.arange(f.size, dtype=np.int64)
    for s in source.generators:
        bad = f[source.mul_vec(x, s)] != target.mul_vec(f, f[s])
        if bad.any():
            return int(np.argmax(bad)), s
    return None


def power(G, g, m):
    """g^m for m >= 0."""
    return int(power_vec(G, [G.check_element(g)], m)[0])


def centralizer(G, S):
    members = [g for g in G.elements()
               if all(G.mul(g, s) == G.mul(s, g) for s in S)]
    return Subset.of(G, members)


def center(G):
    return centralizer(G, Subset.of(G, G.elements()))


def commutator(G, a, b):
    return G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b))


def derived_subgroup(G):
    comms = {commutator(G, a, b) for a in G.elements() for b in G.elements()}
    return closure(G, comms)


def omega1(G, p):
    if not is_prime(p):
        raise GroupError(f"{p} is not prime")
    return closure(G, np.flatnonzero(G.orders == p).tolist())


def exponent(G):
    return math.lcm(*np.unique(G.orders).tolist())


def order_profile(G):
    """Map element order -> count, by increasing order; the
    isomorphism-insensitive fingerprint used here."""
    orders, counts = np.unique(G.orders, return_counts=True)
    return dict(zip(orders.tolist(), counts.tolist()))


def is_subgroup(G, S):
    """Whether the nonempty subset ``S`` is closed under multiplication."""
    return len(S) > 0 and len(closure(G, S)) == len(set(S))


def check_normal(G, N):
    """Raise with a witness unless N is a normal subgroup of G."""
    if not len(N) or 0 not in N:
        raise NotASubgroupError("subset does not contain the identity")
    for a in N:
        for b in N:
            if G.mul(a, b) not in N:
                raise NotASubgroupError(
                    f"not closed: {G.names[a]}*{G.names[b]}", witness=(a, b))
    for g in G.elements():
        gi = G.inv(g)
        for n in N:
            if G.mul(G.mul(gi, n), g) not in N:
                raise NotNormalError(
                    f"not normal: conjugate of {G.names[n]} by {G.names[g]} escapes",
                    witness=(g, n))


def quotient(G, N):
    """Coset group G/N with its canonical projection.

    Coset representatives are minimal element indices; the identity coset
    comes first and the rest follow in representative order.
    """
    check_normal(G, N)
    cosets = G.mul_vec(np.arange(G.order)[:, None], list(N))  # row g holds the coset gN
    reps, coset_of = np.unique(cosets.min(axis=1), return_inverse=True)
    table = coset_of[G.mul_vec(reps[:, None], reps)]
    names = [f"[{G.names[r]}]" for r in reps]
    Q = FiniteGroupTable(table, names, label=f"{G.label}/N" if G.label else "quotient")
    proj = Homomorphism.validated(G, Q, coset_of)
    return Q, proj


def subgroup_table(G, S):
    """Reindex a subgroup as its own table group, identity first.

    Returns the table and the list mapping new indices to old ones.
    """
    if not is_subgroup(G, S):
        raise NotASubgroupError("subset is not closed under multiplication")
    old = np.array([0] + [g for g in S if g != 0], dtype=np.int64)
    pos = np.empty(len(G.names), dtype=np.int64)
    pos[old] = np.arange(old.size)
    table = pos[G.mul_vec(old[:, None], old)]
    names = [G.names[g] for g in old]
    return (FiniteGroupTable(table, names, label=f"{G.label}-sub" if G.label else "subgroup"),
            old.tolist())


def direct_product(G, H):
    ng, nh = G.order, H.order
    table = np.kron(G.table, np.ones((nh, nh), dtype=np.int64)) * nh \
        + np.tile(H.table, (ng, ng))
    names = [f"{a}|{b}" for a in G.names for b in H.names]
    label = f"{G.label}x{H.label}" if G.label and H.label else ""
    return FiniteGroupTable(table, names, label=label)


def validate_automorphism(G, mapping):
    m = list(mapping)
    if len(m) != G.order:
        raise NotBijectiveError(f"map has length {len(m)}, expected {G.order}")
    if len(set(m)) != G.order:
        raise NotBijectiveError("map is not a bijection")
    return Homomorphism.validated(G, G, m)


# the least strong pseudoprime to all of _MR_BASES (Sorenson & Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)
PRIME_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(p):
    """Whether ``p`` is an integer prime, for p below PRIME_BOUND.

    Deterministic Miller-Rabin over the first 13 prime bases, which no
    composite below PRIME_BOUND passes.  Larger p raise ValueError.
    """
    if not isinstance(p, numbers.Integral) or p < 2:
        return False
    p = int(p)
    if p >= PRIME_BOUND:
        raise ValueError(f"primality is decided only below {PRIME_BOUND} (got {p})")
    if p in _MR_BASES:
        return True
    if any(p % q == 0 for q in _MR_BASES):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def prime_factors(n):
    """Map each prime q dividing n >= 1 to its exponent, by trial division."""
    factors = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            factors[q] = factors.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


# ---------------------------------------------------------------------------
# Cayley table file format
#
# UTF-8 text.  Line 1: order n.  Line 2: n whitespace-separated element names.
# Then n rows of n indices, row-major table[i][j] = i*j.  Lines starting with
# '#' are comments.  Entries are decimal integers in 0..n-1, read as int()
# reads them; one that does not fit in int64 is reported as out of range.

def loads_table(text, *, label=""):
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise TableFormatError("empty table file")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise TableFormatError(f"bad order line: {lines[0]!r}") from None
    if len(lines) != n + 2:
        raise TableFormatError(f"expected {n + 2} content lines, got {len(lines)}")
    if n < 1:
        raise TableFormatError("group order must be at least 1")
    names = lines[1].split()
    if len(names) != n:
        raise TableFormatError(f"expected {n} names, got {len(names)}")
    # n rows of n entries take at least n*n characters; a shorter text fails a
    # row check below, so it is read into one reused row, not an n x n array
    tab = np.empty((n if n * n <= len(text) else 1, n), dtype=np.int64)
    for i in range(n):
        row = lines[2 + i].split()
        if len(row) != n:
            raise TableFormatError(f"row {i} has {len(row)} entries, expected {n}")
        dest = min(i, len(tab) - 1)
        try:
            try:
                tab[dest] = row  # numpy reads each token with int()
            except OverflowError:  # beyond int64; clamped, it stays out of range
                tab[dest] = [min(max(int(x), -1), n) for x in row]
        except ValueError:
            raise TableFormatError(f"non-integer entry in row {i}") from None
    return FiniteGroupTable(tab, names, label=label)


def load_table(path):
    path = Path(path)
    return loads_table(path.read_text(encoding="utf-8"), label=path.stem)


def dumps_table(G):
    digits = np.array([str(i) for i in range(G.order)], dtype=object)
    lines = [str(G.order), " ".join(G.names)]
    lines += [" ".join(digits[row]) for row in G.table]
    return "\n".join(lines) + "\n"


def save_table(G, path):
    Path(path).write_text(dumps_table(G), encoding="utf-8")
