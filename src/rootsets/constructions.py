"""Explicit group constructions: extraspecial blocks, 2-cocycle central
extensions, tree-based class-2 nilpotent 2-groups, and the generalized
quaternion reduction of index-2 inverting towers."""

from __future__ import annotations

from dataclasses import dataclass, field
from os.path import commonprefix

import numpy as np

from .kernel import (
    FiniteGroupTable,
    GroupError,
    OracleGroup,
    center,
    centralizer,
    commutator,
    derived_subgroup,
    first_witness,
    generated_subgroup,
    is_prime,
    order_profile,
    quotient,
)
from .eta import eta
from .report import CheckReport, Report
from .towers import Tower, TowerError


class CocycleError(GroupError):
    pass


class RelationFailed(GroupError):
    pass


class LevelTooSmallError(GroupError):
    pass


# ---------------------------------------------------------------------------
# extraspecial building block

def heisenberg(p):
    """Upper unitriangular 3x3 matrices over Z_p: nonabelian, order p^3, exponent p."""
    if p == 2:
        raise GroupError("no nonabelian group of order 8 has exponent 2")
    if not is_prime(p):
        raise GroupError(f"{p} is not prime")
    idx = np.arange(p ** 3)
    A, B, C = idx // (p * p), (idx // p) % p, idx % p
    a = (A[:, None] + A[None, :]) % p
    b = (B[:, None] + B[None, :]) % p
    c = (C[:, None] + C[None, :] + A[:, None] * B[None, :]) % p
    table = a * p * p + b * p + c
    if p <= 9:
        names = [f"{x}{y}{z}" for x, y, z in zip(A, B, C)]
    else:
        names = [f"{x}_{y}_{z}" for x, y, z in zip(A, B, C)]
    return FiniteGroupTable(table, names, label=f"Heis{p ** 3}")


# ---------------------------------------------------------------------------
# 2-cocycle central extensions

@dataclass(frozen=True)
class CocycleTable:
    """A normalized 2-cocycle w : B x B -> Z_p on a table group B.

    ``of`` checks the cocycle identity w(xy, z) + w(x, y) = w(x, yz) + w(y, z)
    (mod p) for every x, y and for z over ``base.generators`` only, one
    ``first_witness`` scan over (x, y) per generator.  That is exact.  The
    identity at (x, y, z) is associativity of the extension E
    (``central_extension``) at ((x,0), (y,0), (z,0)), and then at ((x,s),
    (y,t), (z,0)) for every s, t, since the fiber coordinates only add.  By
    Light's test the s with (ab)s = a(bs) for all a, b are closed under
    products.  The fiber generator (e, 1) satisfies it whenever w is
    normalized, and every (b, t) is reached by right products of (e, 1) and
    the lifts (z, 0) of B's greedy generators.  So E is associative, which
    is the identity at every (x, y, z).  A failure's witness is the first
    (x, y), row-major, for the first failing z.
    """

    base: FiniteGroupTable
    p: int
    w: tuple  # row-major tuple of tuples

    @classmethod
    def of(cls, base, p, rows):
        if not is_prime(p):
            raise CocycleError(f"{p} is not prime")
        w = np.asarray(rows, dtype=np.int64)
        n = base.order
        if w.shape != (n, n):
            raise CocycleError(f"cocycle matrix must be {n}x{n}")
        if w.min() < 0 or w.max() >= p:
            raise CocycleError(f"cocycle entries must lie in 0..{p - 1}")
        if w[0].any() or w[:, 0].any():
            bad = int(np.nonzero(w[0])[0][0]) if w[0].any() else int(np.nonzero(w[:, 0])[0][0])
            raise CocycleError("cocycle is not normalized", witness=base.names[bad])
        tab = base.table
        for z in base.generators:
            yz = tab[:, z]  # w[xy, z] + w[x, y] - w[x, yz] - w[y, z], indexed (x, y)
            wit = first_witness(n, n, lambda x: (w[tab[x], z] + w[x] - w[x, yz] - w[:, z]) % p != 0)
            if wit is not None:
                raise CocycleError(
                    "cocycle identity fails",
                    witness=(base.names[wit[0]], base.names[wit[1]], base.names[z]))
        return cls(base, p, tuple(map(tuple, w.tolist())))

    def matrix(self):
        return np.asarray(self.w, dtype=np.int64)


def central_extension(c):
    """The group on pairs (b, t) with product twisted by the cocycle.

    Order is p * |B|; the fiber {(identity, t)} is central of order p (checked).
    """
    B, p = c.base, c.p
    w = c.matrix()
    n = B.order
    bt = B.table
    idx = np.arange(n * p)
    b, t = idx // p, idx % p
    table = bt[b[:, None], b[None, :]] * p \
        + (t[:, None] + t[None, :] + w[b[:, None], b[None, :]]) % p
    names = [f"({B.names[i // p]},{i % p})" for i in range(n * p)]
    G = FiniteGroupTable(table, names, label=f"ext-{B.label}" if B.label else "extension")
    if centralizer(G, np.arange(p)).size != G.order:
        raise CocycleError("extension fiber is not central")
    return G


# The pinned cocycle over Z2 x Z2 whose extension has the quaternion order
# profile (1, 1, 6); lexicographically least such table, the first that
# scripts/cocycle_census.py lists for that profile (cross-checked in tests).
Q8_COCYCLE_ROWS = (
    (0, 0, 0, 0),
    (0, 1, 0, 1),
    (0, 1, 1, 0),
    (0, 0, 1, 1),
)


def q8_cocycle(base):
    """The pinned quaternion-profile cocycle over a Klein four-group."""
    return CocycleTable.of(base, 2, Q8_COCYCLE_ROWS)


# ---------------------------------------------------------------------------
# tree-based class 2 nilpotent 2-groups

@dataclass(frozen=True)
class TreeVWSpec:
    """Binary tree data for the V-gamma-W group at a finite depth.

    Paths (leaf-to-root words of length d) index the basis of V; proper
    prefixes (the 2^d - 1 tree nodes) index the basis of W.  rho of two
    distinct paths is their longest common prefix; gamma is the upper
    triangular half of rho with the root on the diagonal, so that
    gamma(u, v) + gamma(v, u) = rho(u, v) and gamma(f, f) is never zero
    on basis paths.
    """

    depth: int
    paths: tuple
    nodes: tuple
    gamma_bits: tuple  # |paths| x |paths| matrix of W bitmasks

    @classmethod
    def build(cls, depth):
        if not 1 <= depth <= 4:
            raise GroupError(f"tree depth must be 1..4, got {depth}")
        paths = tuple(format(i, f"0{depth}b") for i in range(2 ** depth))
        nodes = tuple(sorted((format(i, f"0{l}b") if l else ""
                              for l in range(depth) for i in range(2 ** l)),
                             key=lambda s: (len(s), s)))
        node_bit = {nd: 1 << i for i, nd in enumerate(nodes)}
        # above the diagonal, the node of the longest common prefix; on it, the root
        gamma = tuple(tuple(node_bit[commonprefix((f, g))] if i < j else
                            node_bit[""] if i == j else 0
                            for j, g in enumerate(paths)) for i, f in enumerate(paths))
        return cls(depth, paths, nodes, gamma)

    @property
    def v_dim(self):
        return len(self.paths)

    @property
    def w_dim(self):
        return len(self.nodes)

    @property
    def group_order(self):
        return 1 << (self.v_dim + self.w_dim)

    def gamma(self, v1, v2):
        """Bilinear extension of the basis gamma to bit-vector arguments."""
        acc = 0
        g = self.gamma_bits
        i = 0
        x = v1
        while x:
            if x & 1:
                row = g[i]
                j, y = 0, v2
                while y:
                    if y & 1:
                        acc ^= row[j]
                    j += 1
                    y >>= 1
            i += 1
            x >>= 1
        return acc

    def rho(self, v1, v2):
        return self.gamma(v1, v2) ^ self.gamma(v2, v1)

    def mul(self, a, b):
        nw = self.w_dim
        v1, w1 = a >> nw, a & ((1 << nw) - 1)
        v2, w2 = b >> nw, b & ((1 << nw) - 1)
        return ((v1 ^ v2) << nw) | (w1 ^ w2 ^ self.gamma(v1, v2))

    def gamma_vec(self, v1, v2):
        """``gamma`` on index arrays: one XOR per nonzero basis value, over
        the bit planes of v1 and v2."""
        acc = np.zeros(np.broadcast_shapes(np.shape(v1), np.shape(v2)), dtype=np.int64)
        planes = [((v2 >> j) & 1).astype(bool) for j in range(self.v_dim)]
        for i, row in enumerate(self.gamma_bits):
            bit = ((v1 >> i) & 1).astype(bool)
            for w, plane in zip(row, planes):
                if w:
                    acc ^= (bit & plane) * w
        return acc

    def mul_vec(self, a, b):
        nw = self.w_dim
        return a ^ b ^ self.gamma_vec(a >> nw, b >> nw)

    def inv_vec(self, a):
        """(v, w)^-1 = (v, w + gamma(v, v)), since (v, w)(v, w') = (0, w + w' + gamma(v, v))."""
        v = a >> self.w_dim
        return a ^ self.gamma_vec(v, v)

    def element_name(self, g):
        nw = self.w_dim
        return f"v{g >> nw}.w{g & ((1 << nw) - 1)}"

    def isotropic_vectors(self):
        """Z = {v in V : gamma(v, v) = 0}, by one ``gamma_vec`` over all of V.

        By the squaring law (v, w)^2 = (0, gamma(v, v)), the elements of
        order at most 2 are exactly Z x W, and every other element squares
        to a nonzero (0, w'), which squares to the identity: it has order 4.
        """
        v = np.arange(1 << self.v_dim, dtype=np.int64)
        return np.flatnonzero(self.gamma_vec(v, v) == 0)

    def order_profile(self):
        """Map element order -> count, read from the squaring law
        (``isotropic_vectors``), without enumerating the group."""
        small = self.isotropic_vectors().size << self.w_dim
        counts = {1: 1, 2: small - 1, 4: self.group_order - small}
        return {d: c for d, c in counts.items() if c}


TREE_TABLE_DEPTH = 2  # deeper trees are not materialized as tables
TREE_ENUM_DEPTH = 3  # depth 4 has 2^31 elements, too many to name


def tree_vw_group(depth):
    """The class-2 nilpotent 2-group on V x W coordinates, on ``TreeVWSpec.mul_vec``.

    Depths 1 and 2 are materialized as tables, and their class-2 and
    squaring laws verified exhaustively; depth 3 is an OracleGroup.
    """
    spec = TreeVWSpec.build(depth)
    if depth > TREE_ENUM_DEPTH:
        raise GroupError(f"tree depth {depth} has order 2^{spec.v_dim + spec.w_dim}, "
                         f"too many elements to name; depths 1..{TREE_ENUM_DEPTH} build groups")
    n = spec.group_order
    G = OracleGroup(n, [spec.element_name(g) for g in range(n)], spec.mul_vec, spec.inv_vec,
                    label=f"treeVW-d{depth}")
    if depth <= TREE_TABLE_DEPTH:
        G = G.group()
        v = np.arange(n, dtype=np.int64) >> spec.w_dim
        bad = np.flatnonzero(np.diagonal(G.table) != spec.gamma_vec(v, v))
        if bad.size:
            raise GroupError(f"squaring law fails at {G.names[bad[0]]}")
        der = derived_subgroup(G)
        if der.max() >> spec.w_dim or not np.isin(der, center(G)).all():
            raise GroupError("group is not class 2 with derived subgroup in W")
    G.tree_spec = spec
    return G


def omega1_census(depth):
    """Count involutions of the tree group by the squaring law, and compare
    against the W part.

    Omega_1, the identity and the involutions, is Z x W with Z from
    ``TreeVWSpec.isotropic_vectors``.  A product (v, w)(v', w') has V part
    v + v', so Omega_1 is closed iff Z is closed under addition.  Both are
    exact at every depth, and neither enumerates the group.
    """
    spec = TreeVWSpec.build(depth)
    nw = spec.w_dim
    rep = CheckReport(f"order-2 census of treeVW depth {depth}")
    Z = spec.isotropic_vectors()
    omega = ((Z[:, None] << nw) | np.arange(1 << nw)).reshape(-1)  # increasing, identity first
    involutions = omega[1:]
    diff = np.setxor1d(involutions, np.arange(1, 1 << nw)).tolist()
    rep.add("involutions-are-exactly-nonzero-W", not diff, diff[:5] or None)
    rep.add("omega1-closed", bool(np.isin(Z[:, None] ^ Z, Z).all()))
    rep.result = {
        "group_order": spec.group_order,
        "involutions": int(involutions.size),
        "omega1_order": int(omega.size),
        "expected_omega1_order": 1 << nw,
    }
    rep.add("omega1-order-matches", omega.size == 1 << nw)
    return rep


def check_class2_squaring(G):
    """Verify the class-2 squaring identity (xy)^2 = x^2 y^2 [x,y] on all pairs.

    Hypotheses (class at most 2, derived subgroup of exponent dividing 2) are
    checked first; failure is reported, not raised.  The witness is the first
    failing pair in row-major order.
    """
    rep = CheckReport(f"class-2 squaring on {G.label or 'group'}")
    der = derived_subgroup(G)
    if not np.isin(der, center(G)).all():
        rep.add_hypothesis_failure("derived-subgroup-central")
        return rep
    der_exp = int(G.orders[der].max())
    if der_exp > 2:
        rep.add_hypothesis_failure("derived-exponent-divides-2", der_exp)
        return rep
    x = np.arange(G.order, dtype=np.int64)
    sq = G.mul_vec(x, x)

    def fails(rows):
        xy = G.mul_vec(x[rows, None], x)
        rhs = G.mul_vec(G.mul_vec(sq[rows, None], sq), commutator(G, x[rows, None], x))
        return G.mul_vec(xy, xy) != rhs

    wit = first_witness(G.order, G.order, fails)
    rep.add("squaring-identity", wit is None,
            None if wit is None else (G.names[wit[0]], G.names[wit[1]]))
    return rep


# ---------------------------------------------------------------------------
# generalized quaternion recognition and reduction

def is_generalized_quaternion(G):
    """2-group with a unique involution and a cyclic subgroup of index 2, non-cyclic."""
    n = G.order
    if n < 8 or n & (n - 1):
        return False
    return bool((G.orders == 2).sum() == 1 and G.orders.max() == n // 2)


@dataclass
class ReductionStep(Report):
    m: int
    a2: str
    z: str
    parity: str             # "odd" or "even"
    quotient_subgroup: list = None  # the four coset representatives, even steps only


@dataclass
class ReductionTrace(Report):
    steps: list
    section: OracleGroup = field(metadata={"json": False})
    section_order: int
    section_profile: dict
    recognizer_passed: bool
    eta_trivial: bool
    level_independent: bool = None

    @property
    def ok(self):
        return self.recognizer_passed and self.eta_trivial


def quaternion_reduce(tower, level, *, verify_next_level=False):
    """Reduce an index-2 inverting tower level to a generalized quaternion section.

    Follows the halving recursion: z = x^m * a2 with a2 of order 4 in the
    quasicyclic part; an odd m yields the section <z, C> directly, an even m
    quotients <x, C> by the fourgroup {1, z, za, a} and halves m.  The trace
    has one step per halving plus the final odd step.  It runs on the level
    itself: sections and quotients are OracleGroups through its ``mul_vec``,
    and no Cayley table is built.
    """
    if not isinstance(tower, Tower) or not hasattr(tower, "x_name"):
        raise TowerError("quaternion reduction needs an index-2 inverting tower")
    G = tower.level(level)
    x = G.id_of(tower.x_name)
    C = np.arange(tower.c_part_count(level), dtype=np.int64)  # C's names come first
    m = tower.m
    steps = []
    while True:
        orders = G.orders[C]
        invols = C[orders == 2]
        if invols.size != 1:
            raise RelationFailed(
                f"expected a unique involution in the C part, found {invols.size}")
        a_cur = int(invols[0])
        order4 = C[orders == 4]
        if not order4.size:
            raise LevelTooSmallError(
                f"no element of order 4 in the C part at this stage "
                f"(level {level} too small for m = {tower.m})")
        a2 = int(order4.min())
        z = G.mul(int(G.pow_vec(x, m)), a2)
        z2 = G.mul(z, z)
        expect = a_cur if m % 2 else 0
        if z2 != expect:
            raise RelationFailed(
                f"z^2 = {G.names[z2]}, expected {G.names[expect]} (m = {m})")
        if m % 2:
            steps.append(ReductionStep(m, G.names[a2], G.names[z], "odd"))
            section, _ = generated_subgroup(G, np.concatenate(([z], C)))
            break
        bad = np.flatnonzero(G.mul_vec(z, C) != G.mul_vec(C, z))
        if bad.size:
            raise RelationFailed(f"z does not centralize {G.names[C[bad[0]]]}")
        if G.mul(G.mul(G.inv(x), z), x) != G.mul(z, a_cur):
            raise RelationFailed("conjugation relation x^-1 z x = z a fails")
        N = sorted({0, z, G.mul(z, a_cur), a_cur})
        if len(N) != 4:
            raise RelationFailed("quotient subgroup {1, z, za, a} has fewer than 4 elements")
        steps.append(ReductionStep(m, G.names[a2], G.names[z], "even",
                                   [G.names[g] for g in N]))
        sub, old = generated_subgroup(G, np.concatenate(([x], C)))
        pos = np.empty(G.order, dtype=np.int64)
        pos[old] = np.arange(len(old))
        Q, proj = quotient(sub, pos[N])
        # closing relation of the induction: x^m N = a2 N
        if proj[int(sub.pow_vec(pos[x], m))] != proj[pos[a2]]:
            raise RelationFailed("closing relation x^m N = a2 N fails")
        x = int(proj[pos[x]])
        C = np.unique(proj[pos[C]])
        G = Q
        m //= 2
    profile = order_profile(section)
    recognized = is_generalized_quaternion(section)
    a_final = np.flatnonzero(section.orders == 2)
    # eta(a) holds no element but the identity
    eta_trivial = a_final.size == 1 and not eta(section, a_final[0]).members.any()
    trace = ReductionTrace(steps, section, section.order, profile, recognized, eta_trivial)
    if verify_next_level:
        other = quaternion_reduce(tower, level + 1)
        trace.level_independent = (
            [s.parity for s in other.steps] == [s.parity for s in trace.steps]
            and other.recognizer_passed and other.eta_trivial)
    return trace
