"""Exact arithmetic on finite groups: ``OracleGroup``s, Cayley tables among them.

Element 0 is always the identity.  Tables are validated on construction:
identity row/column, Latin square, uniqueness of names, and associativity.
Associativity and homomorphism laws are checked exactly, by generators.
Table files are read in chunks straight into one int64 array, in blocks of
rows, plain ASCII rows as bytes and any other row as ``int()`` reads it, and
written a block at a time from a lookup of index strings (format below).
"""

from __future__ import annotations

import math
import numbers
import operator
import os
import stat
from collections.abc import Sequence
from functools import cached_property
from itertools import islice
from pathlib import Path

import numpy as np

# table checks take rows in blocks of this many entries: no n x n temporaries
BLOCK_ENTRIES = 1 << 16


class GroupError(Exception):
    """Base class for structural errors in group data, with an optional witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidElementError(GroupError):
    pass


class TableFormatError(GroupError):
    pass


class NotASubgroupError(GroupError):
    pass


class NotNormalError(GroupError):
    pass


class NotBijectiveError(GroupError):
    pass


class NotHomomorphicError(GroupError):
    pass


class NameView(Sequence):
    """Element names formatted on demand: ``format`` maps an id array to a
    list of names, in one pass, so a big group never holds all its names.

    It reads as the list of names; it compares equal to any sequence with
    the same names in the same order.
    """

    def __init__(self, n, format):
        self.n = n
        self.format = format

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        if isinstance(i, slice):
            r = range(self.n)[i]
            return self.format(np.arange(r.start, r.stop, r.step, dtype=np.int64))
        i = operator.index(i)
        if not -self.n <= i < self.n:
            raise IndexError(f"element index {i} out of range for order {self.n}")
        return self.format(np.array([i % self.n], dtype=np.int64))[0]

    def __iter__(self):
        for rows in _row_blocks(self.n, 1):
            yield from self.format(np.arange(rows.start, rows.stop, dtype=np.int64))

    def __eq__(self, other):
        return isinstance(other, Sequence) and list(self) == list(other)

    __hash__ = None


class SortedNames(Sequence):
    """The sorted names of the elements ``ids`` of a group, formatted by
    ``format`` (as ``NameView.format``) on first read, not before: a report
    that never prints them never formats them.  Once the names exist, the
    ids and the formatter are dropped.

    It compares equal to any sequence with the same names in the same order.
    """

    def __init__(self, ids, format):
        self._ids = ids
        self._format = format
        self._names = None

    @property
    def names(self):
        if self._names is None:
            self._names = sorted(self._format(self._ids))
            self._ids = self._format = None
        return self._names

    def __len__(self):
        return len(self._ids) if self._names is None else len(self._names)

    def __getitem__(self, i):
        return self.names[i]

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other):
        return isinstance(other, Sequence) and self.names == list(other)

    __hash__ = None

    def __repr__(self):
        return repr(self.names)


def names_at(G, ids):
    """The names of the elements ``ids`` (an index array) of G, as a list."""
    if isinstance(G.names, NameView):
        return G.names.format(np.asarray(ids, dtype=np.int64))
    return [G.names[i] for i in np.asarray(ids).tolist()]


class OracleGroup:
    """A black-box group: named elements with vectorized arithmetic.

    Algorithms see only ``mul_vec`` and ``inv_vec`` on index arrays, element 0
    being the identity (black-box groups, Babai & Szemeredi, FOCS 1984).
    ``pow_vec(x, e)``, when given, is a closed form for x^e on arrays that
    broadcast together; without it, powers are taken by binary
    exponentiation.  So too ``order_vec`` for element orders, else found by
    ``element_orders``, and ``ids_of`` for reading names as ids, else from
    a name dict.  Tables, tower levels, subgroups, quotients and the deeper
    tree groups are all of this kind; ``group()`` materializes one as a
    validated Cayley table.
    """

    identity = 0

    def __init__(self, n, names, mul_vec, inv_vec, label="", pow_vec=None, *,
                 order_vec=None, ids_of=None):
        self.n = self.order = n
        self.names = names
        self._mul_vec = mul_vec
        self._inv_vec = inv_vec
        self._pow_vec = pow_vec
        self._order_vec = order_vec
        self._ids_of = ids_of
        self.label = label
        self._group = None

    @classmethod
    def derived(cls, G, up, down, names, *, label, N=None, ids_of=None):
        """The group whose element a stands for ``up[a]`` of G: a member of
        a subgroup or, given N, the coset up[a] N.  Each of mul/inv/pow is
        one gather through G that ``down`` maps back; orders come from G's,
        a coset's by ``coset_orders``."""
        return cls(up.size, names,
                   lambda a, b: down[G.mul_vec(up[a], up[b])],
                   lambda a: down[G.inv_vec(up[a])],
                   label=label,
                   pow_vec=lambda a, e: down[G.pow_vec(up[a], e)],
                   order_vec=(lambda a: G.orders[up[a]]) if N is None
                   else lambda a: coset_orders(G, up[a], N),
                   ids_of=ids_of)

    @cached_property
    def index(self):
        return {nm: i for i, nm in enumerate(self.names)}

    def ids_of(self, names):
        """The ids of the strings ``names`` as an index array, -1 where a
        string is not a name of this group."""
        if self._ids_of is None:
            return np.array([self.index.get(nm, -1) for nm in names], dtype=np.int64)
        return self._ids_of(list(names))

    def lookup(self, name):
        """The id of the element named ``name``, or -1 if there is none."""
        return int(self.ids_of([name])[0]) if isinstance(name, str) else -1

    def id_of(self, name):
        i = self.lookup(name)
        if i < 0:
            raise InvalidElementError(f"unknown element name {name!r} at {self.label}")
        return i

    def has(self, name):
        return self.lookup(name) >= 0

    def check_element(self, g):
        g = int(g)
        if not 0 <= g < self.n:
            raise InvalidElementError(f"element index {g} out of range for order {self.n}")
        return g

    def elements(self):
        return range(self.n)

    def mul_vec(self, a, b):
        return self._mul_vec(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))

    def inv_vec(self, a):
        return self._inv_vec(np.asarray(a, dtype=np.int64))

    def pow_vec(self, x, e):
        """x^e for index arrays x and exponents e >= 0 that broadcast together.

        A closed form gets x and e as int64 arrays at their own shapes, not
        broadcast, and returns their broadcast shape: numpy's ufuncs
        broadcast as they go, so a term of x alone, such as its coordinates,
        is computed once per element, not once per (element, exponent)
        pair.  Scalars x and e give a writable 0-d array, never a numpy
        scalar, so a closed form may assign into its base level's powers,
        and ``int(G.pow_vec(g, m))`` is g^m.
        """
        if self._pow_vec is None:
            return binary_power_vec(self, x, e)
        return np.asarray(self._pow_vec(np.asarray(x, dtype=np.int64),
                                        np.asarray(e, dtype=np.int64)))

    def mul(self, a, b):
        return int(self.mul_vec(self.check_element(a), self.check_element(b)))

    def inv(self, a):
        return int(self.inv_vec(self.check_element(a)))

    @cached_property
    def generators(self):
        return generating_set(self)

    @cached_property
    def orders(self):
        if self._order_vec is None:
            return element_orders(self)
        return self._order_vec(np.arange(self.n, dtype=np.int64))

    def group(self):
        """Materialize the group as a validated Cayley table."""
        if self._group is None:
            idx = np.arange(self.n, dtype=np.int64)
            self._group = FiniteGroupTable(self.mul_vec(idx[:, None], idx), self.names,
                                           label=self.label)
        return self._group

    def __repr__(self):
        lab = f" {self.label}" if self.label else ""
        return f"<{type(self).__name__}{lab} order={self.n}>"


class FiniteGroupTable(OracleGroup):
    """A finite group as an identity-indexed Cayley table with named elements:
    the OracleGroup whose ``mul_vec`` and ``inv_vec`` are gathers."""

    def __init__(self, table, names=None, *, label=""):
        tab = np.asarray(table, dtype=np.int64)
        if tab.ndim != 2 or tab.shape[0] != tab.shape[1]:
            raise TableFormatError("table must be a square matrix")
        n = tab.shape[0]
        if n < 1:
            raise TableFormatError("group order must be at least 1")
        if names is None:
            names = [str(i) for i in range(n)]
        names = list(names)
        if len(names) != n:
            raise TableFormatError(f"expected {n} names, got {len(names)}")
        if len(set(names)) != n:
            raise TableFormatError("element names are not unique")
        super().__init__(n, names, None, None, label=label)
        self.table = tab
        self.meta = {}
        self._validate()
        self._inv = np.argmin(tab, axis=1)  # the column holding 0 in each row

    def _validate(self):
        """Check the table: entries in range, identity row and column, Latin
        square, then associativity by Light's test on a generating set.

        The Latin check sorts each ``first_witness`` block of rows, then of
        columns, and compares it with 0 .. n - 1, so the first row, and then
        the first column, that is not a permutation is the one reported.  A
        block is sorted as a C-contiguous int32 copy: the entries passed the
        range check, so they lie in [0, n) and the narrowing is exact, and a
        column block is read row by row from the table before it is
        transposed, so no sort runs over strided memory.
        """
        n = self.order
        tab = self.table
        if tab.min() < 0 or tab.max() >= n:
            raise TableFormatError("table entries out of range")
        idx = np.arange(n)
        if not np.array_equal(tab[0], idx):
            raise TableFormatError("row 0 does not act as identity")
        if not np.array_equal(tab[:, 0], idx):
            raise TableFormatError("column 0 does not act as identity")
        idx32 = idx.astype(np.int32)
        for what, lines in (("row", tab), ("column", tab.T)):
            def unsorted(block):
                part = np.ascontiguousarray(lines[block].astype(np.int32))
                part.sort(axis=1)
                return part != idx32

            if (wit := first_witness(n, n, unsorted)) is not None:
                raise TableFormatError(f"{what} {wit[0]} is not a permutation")
        self.generators = generating_set(self)
        # Light's test (Clifford & Preston I, 1.2): (a*b)*s = a*(b*s) for every
        # generator s; the s satisfying it are closed under products
        for s in self.generators:
            col = tab[:, s]  # b*s for every b
            wit = first_witness(n, n,  # (a*b)*s against a*(b*s)
                                lambda rows: col.take(tab[rows]) != tab[rows].take(col, axis=1))
            if wit is not None:
                raise TableFormatError(f"associativity fails at ({wit[0]},{wit[1]},{s})")
        self.meta["associativity"] = "full"

    def mul_vec(self, a, b):
        return self.table[a, b]

    def inv_vec(self, a):
        return self._inv[a]

    def id_of(self, name):
        try:
            return self.index[name]
        except KeyError:
            raise InvalidElementError(f"unknown element name {name!r}") from None


def homomorphism(source, target, mapping):
    """The index array of a homomorphism ``source`` -> ``target``: a
    read-only int64 copy of ``mapping``, once it is checked to be one.
    Either side may be any group with ``mul_vec``, a table or an oracle."""
    m = np.asarray(mapping)
    if m.ndim != 1:
        raise NotHomomorphicError(f"map has shape {m.shape}, expected ({source.order},)")
    if m.size != source.order:
        raise NotHomomorphicError(f"map has length {m.size}, expected {source.order}")
    if m.dtype.kind not in "iu":  # a float or a numeric string is not read as an id
        raise InvalidElementError("map entries are not integers")
    m = np.array(m, dtype=np.int64)  # a copy, frozen once validated
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
    m.setflags(write=False)
    return m


# ---------------------------------------------------------------------------
# the roots/orders engine, over any group with ``n`` and ``pow_vec``

def binary_power_vec(G, x, e):
    """x^e by binary exponentiation (Knuth, TAOCP vol. 2, 4.6.3): two
    ``mul_vec`` calls per bit of max(e), the squarings over x alone."""
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
    n = G.n
    orders = np.ones(n, dtype=np.int64)
    for q, a in prime_factors(n).items():
        y = G.pow_vec(np.arange(n), n // q ** a)
        for _ in range(a):
            if not y.any():
                break
            orders[y != 0] *= q
            y = G.pow_vec(y, q)
        if y.any():
            raise GroupError(f"order of element {int(np.flatnonzero(y)[0])} "
                             f"does not divide group order {n}")
    return orders


def _cyclic_keys(G, targets):
    """key[x] = least generator of <x>, for x in a target's cyclic subgroup, else -1.

    The identity is its own subgroup's generator.  The other subgroups are
    listed largest order first, in blocks of targets g of one order d,
    powered at 1 .. d - 1; a target that an earlier block reached is
    skipped.  The first block of an order holds about BLOCK_ENTRIES >> 6
    powers, and each later block of the same order twice as many targets,
    up to about BLOCK_ENTRIES powers.  Targets of one order often share a
    few cyclic subgroups, so a small first block reaches most of them, and
    each subgroup is powered about once; where they do not, the blocks grow
    to full size in six steps.
    """
    orders = G.orders
    key = np.full(orders.size, -1, dtype=np.int64)
    todo = targets[np.argsort(-orders[targets], kind="stable")]
    if targets.size:
        key[0] = 0  # the identity lies in every cyclic subgroup, and generates its own
    d = 0
    while (todo := todo[key[todo] < 0]).size:
        if orders[todo[0]] != d:  # the first block of order d
            d = int(orders[todo[0]])
            # g^j and g^k generate the same subgroup of <g> iff gcd(j, d) = gcd(k, d)
            cls = np.gcd(np.arange(1, d), d)
            classes = [np.flatnonzero(cls == c) for c in np.unique(cls).tolist()]
            size, cap = max(1, (BLOCK_ENTRIES >> 6) // d), max(1, BLOCK_ENTRIES // d)
        block = todo[:size]  # the targets of order d lead todo
        P = G.pow_vec(block[orders[block] == d, None], np.arange(1, d))
        for c in classes:
            gens = P[:, c]
            key[gens] = gens.min(axis=1, keepdims=True)
        size = min(2 * size, cap)
    return key


def root_images(G, targets, rows=None):
    """The data every roots question over ``targets`` is read from: (ds, col_of, key, P).

    ``ds`` holds the distinct target orders, and targets[j] has order
    ds[col_of[j]].  ``key`` is ``_cyclic_keys``.  P is the matrix whose row
    i holds, for h = rows[i] (every element by default), h^(ord h / ds[c])
    in column c where ds[c] divides ord h, and the identity elsewhere.  g
    lies in <h> iff d = ord g divides ord h and h^(ord h / d) generates
    <g>, so targets[j] lies in <h> iff key[P[i, col_of[j]]] ==
    key[targets[j]]; the identity's key 0 matches only the identity's.  P
    is filled in row blocks of about BLOCK_ENTRIES entries, and each
    block's h is a column, so a closed form computes its terms of h once
    per row and its temporaries stay about that size.
    """
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    orders = G.orders
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    ds, col_of = np.unique(orders[targets], return_inverse=True)
    key = _cyclic_keys(G, targets)
    size = orders.size if rows is None else rows.size
    blocks = _row_blocks(size, ds.size)
    P = None if len(blocks) == 1 else np.empty((size, ds.size), dtype=np.int64)
    for block_rows in blocks:
        # every element's rows are made a block at a time, not as one n-array
        h = (np.arange(block_rows.start, block_rows.stop) if rows is None else rows[block_rows])[:, None]
        e, rem = np.divmod(orders[h], ds)
        block = G.pow_vec(h, np.where(rem == 0, e % orders[h], 0))
        if P is None:
            P = block  # a single block is P itself, not a copy
        else:
            P[block_rows] = block
    return ds, col_of, key, P


def roots(G, targets):
    """Boolean matrix R with R[h, j] true iff targets[j] lies in <h>, read
    from ``root_images`` one target order at a time.

    R is n x T; the tower eta engine, with T in the hundreds, reads
    ``root_images`` itself and stays n x D.
    """
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    ds, col_of, key, P = root_images(G, targets)
    RT = np.empty((targets.size, P.shape[0]), dtype=bool)
    for i in range(ds.size):
        cols = np.flatnonzero(col_of == i)
        RT[cols] = key[targets[cols]][:, None] == key[P[:, i]]
    return RT.T


def coset_orders(G, g, N):
    """ord(gN), the least e >= 1 with g^e in the subgroup N, for each g of
    the index array ``g``: ord(g) / m, m the number of members of N in <g>,
    as they form the subgroup of order m of the cyclic <g> (Holt, Eick &
    O'Brien, Handbook of Computational Group Theory, 2005).  A member
    listed twice is counted once.  m is read from ``root_images`` with the
    members of N as targets and only the rows g: a member of order d lies
    in <g> iff it shares the key of g^(ord g / d), so m sums, over the
    columns, the number of members holding that power's key.
    """
    N = np.unique(_indices(G, N))
    g = np.asarray(g, dtype=np.int64)
    ds, col_of, key, P = root_images(G, N, g)
    m = np.zeros(P.shape[0], dtype=np.int64)
    for i in range(ds.size):
        held = np.bincount(key[N[col_of == i]] + 1, minlength=key.size + 1)
        m += held[key[P[:, i]] + 1]
    return G.orders[g] // m.reshape(g.shape)


def order_of(G, g):
    """Least n >= 1 with g^n = identity."""
    return int(G.orders[G.check_element(g)])


def cyclic_subgroup(G, g):
    g = G.check_element(g)
    return np.unique(G.pow_vec(g, np.arange(G.orders[g])))


# ---------------------------------------------------------------------------
# operations, over any group with ``mul_vec`` and ``inv_vec``

def _row_step(cols, entries=BLOCK_ENTRIES):
    """The number of rows in a ``_row_blocks`` block of a ... x cols array."""
    return max(1, entries // max(cols, 1))


def _row_blocks(rows, cols, entries=BLOCK_ENTRIES):
    """Slices of consecutive rows of a rows x cols array, about ``entries`` each."""
    step = _row_step(cols, entries)
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def first_witness(rows, cols, bad):
    """The first (i, j), row-major, where a rows x cols boolean array is
    true, or None.  ``bad(block)`` gives the array's rows of one
    ``_row_blocks`` slice, asked in order up to the first block with a hit;
    ``np.argmax`` finds that hit without listing the others.  Every exact
    check that reports a first failure reads it here."""
    for block in _row_blocks(rows, cols):
        hit = bad(block)
        at = int(np.argmax(hit))
        if hit.flat[at]:
            i, j = divmod(at, cols)
            return block.start + i, j
    return None


def _indices(G, members):
    """``members`` as an index array, in order; an out-of-range one is
    reported by ``G.check_element``."""
    idx = np.asarray(members if isinstance(members, np.ndarray) else list(members),
                     dtype=np.int64).reshape(-1)
    bad = (idx < 0) | (idx >= G.order)
    if bad.any():
        G.check_element(idx[bad][0])
    return idx


def _reach(G, seen, frontier, gens):
    """Mark in ``seen`` everything reachable from ``frontier`` by right products with ``gens``.

    The squares g^(2^i), 2^i < |G|, of the generators reach nothing new but
    bring every power g^k within log2 k steps: about log2 |G| rounds.  A
    round multiplies the frontier in row blocks of about BLOCK_ENTRIES
    products, marking ``seen`` block by block.
    """
    steps = [np.asarray(gens, dtype=np.int64)]
    for _ in range((G.order - 1).bit_length() - 1):
        steps.append(G.mul_vec(steps[-1], steps[-1]))
    steps = np.unique(np.concatenate(steps))
    while frontier.size:
        reached = []
        for rows in _row_blocks(frontier.size, steps.size):
            prods = G.mul_vec(frontier[rows, None], steps).reshape(-1)
            new = np.unique(prods[~seen[prods]])
            seen[new] = True
            reached.append(new)
        frontier = np.concatenate(reached)


def _span(G, seed):
    """(mask of <seed>, greedy generators): each seed element not yet
    reached, in seed order, is added and the reached set grows to the
    subgroup generated so far.  In a group each generator at least doubles
    it, so there are at most log2 |G|."""
    seen = np.zeros(G.order, dtype=bool)
    seen[0] = True
    gens = []
    while (rest := seed[~seen[seed]]).size:
        gens.append(int(rest[0]))
        _reach(G, seen, np.flatnonzero(seen), gens)
    return seen, gens


def closure(G, seed):
    """Least subgroup containing ``seed``."""
    return np.flatnonzero(_span(G, _indices(G, seed))[0])


def generating_set(G):
    """Greedy generators: repeatedly add the least element not yet reached."""
    return _span(G, np.arange(G.order, dtype=np.int64))[1]


def hom_witness(source, target, f):
    """A pair (x, s) with f(x*s) != f(x)*f(s), or None if the index array ``f`` is a homomorphism.

    Exact for maps between groups: x ranges over all of ``source`` and s over
    its generators, and the s satisfying the law are closed under products.
    The witness is the first x of the first failing s, read by
    ``first_witness`` in one of two block shapes.  A source of at most
    BLOCK_ENTRIES elements is one |S| x n scan, a row of every x per
    generator, generator-major, so a block takes several generators at
    once.  A larger source takes one scan per generator, over the x in
    blocks of about BLOCK_ENTRIES, however large it is.
    """
    if f[0] != 0:
        return (0, 0)  # f(0) = f(0)*f(0) forces f(0) to be the identity
    if f.size <= BLOCK_ENTRIES:
        S = np.asarray(source.generators, dtype=np.int64)
        x = np.arange(f.size, dtype=np.int64)

        def rows_of_s(rows):  # generators S[rows], one row of every x each
            s = S[rows, None]
            return f[source.mul_vec(x, s)] != target.mul_vec(f, f[s])

        wit = first_witness(S.size, f.size, rows_of_s)
        return None if wit is None else (wit[1], source.generators[wit[0]])

    def bad(s, rows):  # the x of one block: ids from a range, images a slice of f
        x = np.arange(rows.start, rows.stop, dtype=np.int64)
        return f[source.mul_vec(x, s)] != target.mul_vec(f[rows], f[s])

    for s in source.generators:
        if (wit := first_witness(f.size, 1, lambda rows: bad(s, rows))) is not None:
            return wit[0], s
    return None


def collision_witness(f):
    """The first colliding pair (x, y), x < y, of the 1-D array ``f``: y the
    least index with an earlier x of the same value, x the first index of
    that value; None if ``f`` holds no value twice.  It sorts ``f``, so a
    caller runs it only once its own O(n) test has found a collision."""
    _, first, at = np.unique(f, return_index=True, return_inverse=True)
    wit = first_witness(f.size, 1, lambda rows: first[at[rows]] != np.arange(rows.start, rows.stop))
    return None if wit is None else (int(first[at[wit[0]]]), wit[0])


def centralizer(G, S):
    """The elements commuting with every member of S, taken in blocks of S."""
    S = _indices(G, S)
    x = np.arange(G.order, dtype=np.int64)[:, None]
    ok = np.ones(G.order, dtype=bool)
    for cols in _row_blocks(S.size, G.order):
        ok &= (G.mul_vec(x, S[cols]) == G.mul_vec(S[cols], x)).all(axis=1)
    return np.flatnonzero(ok)


def center(G):
    """The centralizer of a generating set."""
    return centralizer(G, G.generators)


def commutator(G, a, b):
    """[a, b] = a^-1 b^-1 a b, elementwise on index arrays."""
    return G.mul_vec(G.mul_vec(G.inv_vec(a), G.inv_vec(b)), G.mul_vec(a, b))


def derived_subgroup(G):
    x = np.arange(G.order, dtype=np.int64)
    comms = [np.unique(commutator(G, x[rows, None], x)) for rows in _row_blocks(G.order, G.order)]
    return closure(G, np.unique(np.concatenate(comms)))


def omega1(G, p):
    if not is_prime(p):
        raise GroupError(f"{p} is not prime")
    return closure(G, np.flatnonzero(G.orders == p))


def exponent(G):
    return math.lcm(*np.unique(G.orders).tolist())


def order_profile(G):
    """Map element order -> count, by increasing order; the
    isomorphism-insensitive fingerprint used here."""
    orders, counts = np.unique(G.orders, return_counts=True)
    return dict(zip(orders.tolist(), counts.tolist()))


def is_subgroup(G, S):
    """Whether the nonempty subset ``S`` is closed under multiplication."""
    S = _indices(G, S)
    return S.size > 0 and np.count_nonzero(_span(G, S)[0]) == np.unique(S).size


def closure_witness(G, S):
    """The first (a, b) of S x S, row-major, with a*b outside S, or None,
    for an index array S (``first_witness``)."""
    inside = np.zeros(G.order, dtype=bool)
    inside[S] = True
    wit = first_witness(S.size, S.size, lambda rows: ~inside[G.mul_vec(S[rows, None], S)])
    return None if wit is None else (int(S[wit[0]]), int(S[wit[1]]))


def check_normal(G, N):
    """Raise with a witness unless N is a normal subgroup of G.

    Closure is checked row-major over N x N (``closure_witness``), then
    normality g-major over the conjugates g^-1 n g; the first failure is
    the witness.
    """
    if not len(N) or 0 not in N:
        raise NotASubgroupError("subset does not contain the identity")
    N = _indices(G, N)
    if (wit := closure_witness(G, N)) is not None:
        raise NotASubgroupError(f"not closed: {G.names[wit[0]]}*{G.names[wit[1]]}", witness=wit)
    inside = np.zeros(G.order, dtype=bool)
    inside[N] = True
    g = np.arange(G.order, dtype=np.int64)[:, None]
    wit = first_witness(G.order, N.size,
                        lambda rows: ~inside[G.mul_vec(G.mul_vec(G.inv_vec(g[rows]), N), g[rows])])
    if wit is not None:
        h, n = wit[0], int(N[wit[1]])
        raise NotNormalError(f"not normal: conjugate of {G.names[n]} by {G.names[h]} escapes",
                             witness=(h, n))


def cosets(G, N):
    """The left cosets gN of a subgroup N, as (reps, coset_of, rows).

    ``reps`` holds the least id of each coset, in increasing order, so the
    identity's coset is coset 0; ``coset_of`` maps each id of G to its
    coset; row c of ``rows`` is reps[c] N, in the order of N.  The cosets
    are read from one n x |N| product (Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 2005, section 4, on transversals).
    """
    N = _indices(G, N)
    rows = G.mul_vec(np.arange(G.order, dtype=np.int64)[:, None], N)  # row g holds gN
    reps, coset_of = np.unique(rows.min(axis=1), return_inverse=True)
    return reps, coset_of.reshape(-1), rows[reps]


def quotient(G, N):
    """Coset group G/N with its canonical projection, as an index array.

    Cosets are numbered as ``cosets`` numbers them, by least element index,
    and named by that element.  G/N is derived from G on the
    representatives (``OracleGroup.derived``).
    """
    check_normal(G, N)
    reps, coset_of, _ = cosets(G, N)
    names = NameView(reps.size, lambda c: [f"[{nm}]" for nm in names_at(G, reps[c])])
    Q = OracleGroup.derived(G, reps, coset_of, names, N=N,
                            label=f"{G.label}/N" if G.label else "quotient")
    return Q, homomorphism(G, Q, coset_of)


def subgroup_table(G, S):
    """Reindex a subgroup as its own group, identity first.

    Returns an OracleGroup, each product one gather through G, and the list
    mapping new indices to old ones: the identity, then the other members
    of S in order of first appearance.  One ``_span`` of S checks that S is
    a subgroup and gives H's generators, which equal ``generating_set(H)``:
    the identity is reached first, so H's index order makes the same greedy
    choices, and the squares ``_reach`` adds only shorten its rounds.
    """
    S = _indices(G, S)
    seen, gens = _span(G, S)
    S = S[np.sort(np.unique(S, return_index=True)[1])]  # first appearances, in order
    if not S.size or np.count_nonzero(seen) != S.size:
        raise NotASubgroupError("subset is not closed under multiplication")
    return _reindexed(G, np.concatenate(([0], S[S != 0])), gens)


def generated_subgroup(G, seed):
    """``subgroup_table(G, closure(G, seed))`` from one ``_span`` of the seed.

    H lists the identity, then the other members of <seed> in increasing
    order, as that form does.  H's generators are the seed's greedy
    generators, which generate H but need not equal ``generating_set(H)``.
    """
    seen, gens = _span(G, _indices(G, seed))
    return _reindexed(G, np.flatnonzero(seen), gens)


def _reindexed(G, old, gens):
    """The subgroup of G on ``old`` (the identity first), generated by the
    ids ``gens`` of G, derived from G, and ``old`` as a list."""
    pos = np.empty(G.order, dtype=np.int64)
    pos[old] = np.arange(old.size)
    H = OracleGroup.derived(G, old, pos, NameView(old.size, lambda a: names_at(G, old[a])),
                            label=f"{G.label}-sub" if G.label else "subgroup")
    H.generators = pos[gens].tolist()
    return H, old.tolist()


def direct_product(G, H):
    ng, nh = G.order, H.order
    table = np.kron(G.table, np.ones((nh, nh), dtype=np.int64)) * nh \
        + np.tile(H.table, (ng, ng))
    names = [f"{a}|{b}" for a in G.names for b in H.names]
    label = f"{G.label}x{H.label}" if G.label and H.label else ""
    return FiniteGroupTable(table, names, label=label)


def validate_automorphism(G, mapping):
    m = np.asarray(mapping)  # as given: ``homomorphism`` converts and range-checks it
    if m.size != G.order:
        raise NotBijectiveError(f"map has length {m.size}, expected {G.order}")
    if np.unique(m).size != G.order:
        raise NotBijectiveError("map is not a bijection", witness=collision_witness(m.reshape(-1)))
    return homomorphism(G, G, m)


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

# table text is parsed in chunks of about this many bytes (characters, for a str)
CHUNK_BYTES = 1 << 18


def decode_utf8(data, offset=0, error=TableFormatError):
    """``data`` decoded as UTF-8.  A byte sequence that is not UTF-8 raises
    ``error`` with a message naming its offset, ``offset`` being that of
    ``data[0]`` in its file.  Every text the package reads is decoded here."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"invalid UTF-8 at byte {offset + exc.start}") from None


def _file_chunks(f):
    """The text of the binary file ``f`` in chunks: CHUNK_BYTES bytes, read
    on to the end of their line, so each ends just after a b"\\n" (the last
    at the end of the file), then decoded."""
    offset = 0
    while data := f.read(CHUNK_BYTES) + f.readline():
        text = decode_utf8(data, offset)
        offset += len(data)
        del data  # only the text is held while it is parsed
        yield text


def _text_chunks(text):
    """``text`` in chunks of at least CHUNK_BYTES characters, each cut just
    after a "\\n" (the last at the end)."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + CHUNK_BYTES - 1) + 1 or len(text)
        yield text[start:stop]
        start = stop


def _content_lines(chunks):
    """The lines of ``chunks`` that are neither blank nor comments."""
    for chunk in chunks:
        for ln in chunk.splitlines():
            if ln.strip() and not ln.lstrip().startswith("#"):
                yield ln


def loads_table(text, *, label=""):
    """Parse the table file format.

    The text is parsed in chunks of about CHUNK_BYTES characters, each cut
    just after a "\\n"; ``load_table`` cuts a file's bytes the same way.  A
    "\\n" always ends a line and is never the first half of a two-character
    break ("\\r\\n" ends with it), so the ``splitlines()`` of the chunks,
    joined, is the ``splitlines()`` of the whole text.  In bytes, b"\\n" is
    never part of a multi-byte UTF-8 character, so a chunk decodes alone,
    and its first bad byte is the whole file's.  No whole text and no list
    of all its lines is held.

    Errors come in a fixed order: a byte that is not UTF-8, an empty text, a
    bad order line, the content-line count (n + 2), an order below 1, the
    number of names, the first bad row, then the table checks.  The text is
    read once, so rows are read before the lines are all counted: the first
    bad row ends the reading of rows and is raised only after the count and
    the names have passed.  The n x n array is allocated as the rows begin,
    and a MemoryError there waits the same way.

    Table rows are read in blocks of about BLOCK_ENTRIES >> 2 entries.  A
    block whose lines hold only ASCII digits, spaces and tabs, with no run of
    more than 18 digits, is read as bytes (``_plain_rows``); any other block
    goes through ``_int_rows``, which reads each token as ``int()`` reads it.

    The two agree exactly.  On a line made only of ASCII digits, spaces and
    tabs, ``str.split()`` yields exactly the maximal runs of digits, and
    ``int()`` reads such a run as its decimal value, leading zeros included;
    a run of at most 18 digits fits in int64, so nothing is clamped.  Blocks
    are read in order, and each has passed completely before the next is
    read.  A plain block holds no non-integer token, so its first row with a
    wrong number of entries is the first error the per-token reader reports.
    """
    return _parse_table(_text_chunks(text), len(text), label)


def load_table(path):
    """The table in the file ``path``, read in chunks of CHUNK_BYTES bytes
    (see ``loads_table``); a byte that is not UTF-8 is a TableFormatError."""
    path = Path(path)
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        size = st.st_size if stat.S_ISREG(st.st_mode) else math.inf  # a pipe has none
        return _parse_table(_file_chunks(f), size, path.stem)


def _parse_table(chunks, size, label):
    """The table whose text comes in ``chunks``, each ending just after a
    "\\n" or at the end; the text has at most ``size`` characters."""
    lines = _content_lines(chunks)
    head = list(islice(lines, 2))
    if not head:
        raise TableFormatError("empty table file")
    try:
        n = int(head[0].strip())
    except ValueError:
        sum(1 for _ in lines)  # a byte that is not UTF-8 is reported first
        raise TableFormatError(f"bad order line: {head[0]!r}") from None
    count, fault = len(head), None  # fault: the first error in the rows
    # n + 2 content lines take more than n characters, so a larger n fails the
    # count; n rows of n entries take at least n*n, so a shorter text fails a
    # row check and is read into one reused row, not an n x n array
    if count == 2 and 1 <= n <= size:
        try:
            tab = np.empty((n if n * n <= size else 1, n), dtype=np.int64)
        except (MemoryError, ValueError) as exc:  # ValueError: too big for numpy
            fault = exc
        step = _row_step(n, BLOCK_ENTRIES >> 2)
        for start in range(0, n, step) if fault is None else ():
            rows = slice(start, min(start + step, n))
            block = list(islice(lines, rows.stop - start))
            count += len(block)
            if len(block) < rows.stop - start:
                break  # the count fails
            try:
                values = _plain_rows(block, start, n)
                if values is None:
                    _int_rows(tab, block, start, n)
                elif len(tab) == n:
                    tab[rows] = values
            except TableFormatError as exc:
                fault = exc
                break
    count += sum(1 for _ in lines)
    if count != n + 2:
        raise TableFormatError(f"expected {n + 2} content lines, got {count}")
    if n < 1:
        raise TableFormatError("group order must be at least 1")
    names = head[1].split()  # split only once the count has passed
    if len(names) != n:
        raise TableFormatError(f"expected {n} names, got {len(names)}")
    if fault is not None:
        raise fault
    return FiniteGroupTable(tab, names, label=label)


_DIGIT_MAX = 18  # 10**18 - 1 < 2**63 - 1: every run of at most 18 digits fits in int64
_DIGIT_MAX_32 = 9  # 10**9 - 1 < 2**31 - 1: every run of at most 9 digits fits in int32


def _plain_rows(lines, first, n):
    """The rows ``lines`` (``first`` the index of the first) as an array of
    shape (len(lines), n), read as bytes, or None when a line holds anything
    but ASCII digits, spaces and tabs, or a run of more than 18 digits.

    Each token's value is summed digit by digit from its last byte, in
    int32 when no run is longer than 9 digits and in int64 otherwise, so
    every partial sum is below 10**9 or 10**18 and nothing wraps.  The
    caller stores the values into its int64 table, which widens them
    exactly; the table's range check then sees the values as read."""
    # a non-ASCII character, or a lone surrogate, becomes '?' and cannot raise
    b = np.frombuffer("\n".join(lines).encode("ascii", "replace"), dtype=np.uint8)
    d = b - np.uint8(48)  # a digit's value; every other byte wraps past 9
    digit = d < 10
    if not (digit | (b == 32) | (b == 9) | (b == 10)).all():
        return None
    # tokens are the maximal runs of digits, [starts[t], ends[t])
    padded = np.zeros(b.size + 2, dtype=bool)
    padded[1:-1] = digit
    starts, ends = np.flatnonzero(padded[1:] != padded[:-1]).reshape(-1, 2).T
    width = ends - starts
    longest = int(width.max(initial=0))
    if longest > _DIGIT_MAX:
        return None
    breaks = np.cumsum([len(ln) + 1 for ln in lines]) - 1  # the newline after each line
    counts = np.diff(np.searchsorted(starts, breaks), prepend=0)
    bad = np.flatnonzero(counts != n)
    if bad.size:
        i = int(bad[0])
        raise TableFormatError(f"row {first + i} has {counts[i]} entries, expected {n}")
    acc = np.int32 if longest <= _DIGIT_MAX_32 else np.int64
    at = ends - 1  # each token's 10**k digit, for k = 0, 1, ...
    values = d.take(at).astype(acc)
    width = width.astype(np.uint8)
    for k in range(1, longest):
        at -= 1
        digits = d.take(at)
        digits *= width > k  # 0 where the token has no 10**k digit
        values += digits * acc(10 ** k)
    return values.reshape(len(lines), n)


def _int_rows(tab, lines, first, n):
    """Read the rows ``lines`` into ``tab`` token by token, as ``int()`` reads
    them; the first bad row raises."""
    for i, line in enumerate(lines, first):
        row = line.split()
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


def table_blocks(G):
    """The table file text of ``G`` in pieces: the header, then the rows a
    ``_row_blocks`` block at a time.  Entries are in decimal, one space
    between them, a newline after each row.

    A block is one gather from two fixed-width byte tables, ``f"{i} "`` and
    ``f"{i}\\n"`` for i < n, the second for the last column.  Every entry of
    a validated table lies in [0, n), so every entry has its string.  A
    string shorter than the width is padded with NUL bytes, which no string
    holds, so deleting every NUL (``bytes.translate``) gives exactly the
    entries' strings joined row by row."""
    n = G.order
    width = len(str(n - 1)) + 1
    spaced = np.array([f"{i} " for i in range(n)], dtype=f"S{width}")
    ended = np.array([f"{i}\n" for i in range(n)], dtype=f"S{width}")
    yield f"{n}\n{' '.join(G.names)}\n"
    for rows in _row_blocks(n, n):
        block = spaced[G.table[rows]]
        block[:, -1] = ended[G.table[rows, -1]]
        yield decode_utf8(block.tobytes().translate(None, b"\0"))


def dumps_table(G):
    """The table file text of ``G``: the ``table_blocks``, joined."""
    return "".join(table_blocks(G))
