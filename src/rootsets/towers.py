"""Ascending chains of finite groups and level-wise root-set stabilization.

The infinite groups of interest (quasicyclic groups, central amalgams, their
index-2 inverting extensions, generalized quaternion limits) are represented
as towers: for each level k a finite group on integer coordinates, plus
closed-form embeddings into the next level that keep element names.  Names
are parsed and formatted arithmetically, and only where a report prints
them.  Membership in K is reported as a stabilization certificate for the
level-wise eta sets, never as a proof; the classification statements
provide the expected answers the reports are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .kernel import (
    FiniteGroupTable,
    GroupError,
    InvalidElementError,
    NameView,
    NotNormalError,
    OracleGroup,
    SortedNames,
    _row_blocks,
    center,
    check_normal,
    closure,
    collision_witness,
    coset_orders,
    cosets,
    hom_witness,
    is_prime,
    names_at,
    order_of,
    prime_factors,
    root_images,
)
from .report import Report

DEFAULT_MAX_LEVEL = 8
DEFAULT_WINDOW = 2
DEFAULT_BIRTH_CAP = 4
DEFAULT_MEMBER_CAP = 128
# how many levels past the base to look for a named generator before giving
# up; levels grow geometrically, so a deep search would build huge levels
# just to report a typo
GENERATOR_SEARCH_DEPTH = 8
# the largest level order whose int64 id array numpy can address
LEVEL_ORDER_MAX = np.iinfo(np.intp).max // 8


class TowerError(GroupError):
    pass


class CoherenceError(GroupError):
    """Level-wise eta sets disagree with their restriction law: a kernel bug."""


class ExtensionConditionsFailed(GroupError):
    def __init__(self, condition, level, witness=None):
        super().__init__(f"extension condition failed at level {level}: {condition}", witness)
        self.condition = condition
        self.level = level


# ---------------------------------------------------------------------------
# names on the coordinates r p^k + m

def prufer_fractions(m, n):
    """The names of the ids ``m`` (an index array) of Z_n, the elements m/n
    mod 1 of Z_(p^infinity), in one pass: "0", or m/n in lowest terms."""
    g = np.gcd(m, n)
    return [f"{a}/{b}" if a else "0" for a, b in zip((m // g).tolist(), (n // g).tolist())]


def fraction_id(name, n):
    """The id m of Z_n that the fraction ``name`` = a/b, b dividing n, is
    m/n of; or -1.  Non-canonical fractions ("2/4", "0/1") get an id too,
    which ``formatted_back`` refuses."""
    if name == "0":
        return 0
    a, _, b = name.partition("/")
    try:
        a, b = int(a), int(b)
    except ValueError:
        return -1
    if b < 1 or n % b:
        return -1
    m = a * (n // b)
    return m if 0 <= m < n else -1


def formatted_back(ids, names, fmt):
    """``ids``, read from ``names`` by arithmetic, with -1 wherever an id
    does not format back to its very name: so only canonical spellings are
    accepted, exactly the names a name dict would hold."""
    at = np.flatnonzero(ids >= 0)
    ids[at[np.array([b != names[j] for j, b in zip(at.tolist(), fmt(ids[at]))],
                    dtype=bool)]] = -1
    return ids


def coordinate_names(prefixes, ck):
    """``format`` and ``ids_of`` for a level on the ids r ck + m, named
    ``prefixes[r]`` followed by the fraction m/ck of Z_(p^infinity).

    A prefix is "" or ends in ".", and a fraction holds no ".", so a name
    splits after its last ".".  Where two prefixes coincide, the later id
    is read, as a name dict would.
    """
    pos = {pf: r for r, pf in enumerate(prefixes)}

    def fmt(ids):
        r, m = np.divmod(ids, ck)
        return [prefixes[i] + c for i, c in zip(r.tolist(), prufer_fractions(m, ck))]

    def read(name):
        cut = name.rfind(".") + 1
        r, m = pos.get(name[:cut]), fraction_id(name[cut:], ck)
        return -1 if r is None or m < 0 else r * ck + m

    def ids_of(names):
        return formatted_back(np.array([read(nm) for nm in names], dtype=np.int64), names, fmt)

    return fmt, ids_of


# ---------------------------------------------------------------------------
# levels

class Level(OracleGroup):
    """One finite level of a tower, on the integer coordinates of its kind.

    Its ``names`` are a ``NameView``: formatted from ids on demand, one id
    or an id array in one pass, so only the names a report prints are ever
    formatted.  Every kind gives ``ids_of``, which reads a list of names by
    arithmetic and accepts an id only if it formats back to the very name,
    so a level accepts exactly its own names, as a name dict would, without
    building one; and every kind gives closed-form orders, a quotient level
    through ``OracleGroup.derived``.  Level adds nothing to OracleGroup: it
    is a class of its own so that tower levels' ``mul_vec`` and ``group``
    can be told apart (the benchmark's tracer counts them).
    """


class Tower:
    """Base class: level caching, validated embeddings, birth levels, and
    the coordinates of the levels.

    Every tower is built on C = Z_(p^infinity), whose level-k part C_k is
    Z_(p^k), so a level is a union of cosets r C_k.  Its element r c^m has
    the id r c_k + m, c_k = ``c_part_count(k)`` = p^k, and the name
    ``prefixes[r]`` followed by the fraction m/p^k (``coordinate_names``);
    the first c_k ids are C_k.  The embedding into level k + 1 keeps r and
    writes m/p^k as (p m)/p^(k+1), so it is the id times p.  A kind gives
    ``p``, ``prefixes``, its first level ``k0`` and ``_build_level(k)``,
    which states the level's label and closed forms and leaves the rest to
    ``_coordinate_level``; the quotient, which is not on these coordinates,
    gives its own levels and ``embed_vec``.
    """

    kind = "tower"
    theory_tag = None

    def __init__(self):
        self._levels = {}
        self._embeds = {}

    @cached_property
    def k0(self):
        """The first level: a class constant of the kind, or set once per
        tower, which the instance's own attribute then holds."""
        raise NotImplementedError

    def _build_level(self, k):
        raise NotImplementedError

    def _coordinate_level(self, k, label, mul_vec, inv_vec, pow_vec, order_vec):
        """Level k on the ids r c_k + m, with the names ``coordinate_names``
        reads and formats, from the kind's label and four closed forms."""
        ck = self.c_part_count(k)
        n = len(self.prefixes) * ck
        fmt, ids_of = coordinate_names(self.prefixes, ck)
        return Level(n, NameView(n, fmt), mul_vec, inv_vec, label=label, pow_vec=pow_vec,
                     ids_of=ids_of, order_vec=order_vec)

    def embed_vec(self, k, ids):
        """The embedding of level k into level k + 1, on an index array."""
        return ids * self.p

    def c_part_count(self, k):
        return self.p ** k

    def level(self, k):
        """Level k, built once.  A level of more than LEVEL_ORDER_MAX elements
        is refused here, before any array of its size is made: a kind's
        ``_build_level`` makes arrays only of its base tower's level k,
        which was checked as it was built."""
        if k < self.k0:
            raise TowerError(f"{self.kind} tower starts at level {self.k0}, got {k}")
        if k not in self._levels:
            lvl = self._build_level(k)
            if lvl.n > LEVEL_ORDER_MAX:
                raise TowerError(f"{self.kind} tower level {k} has order {lvl.n}, above "
                                 f"{LEVEL_ORDER_MAX}, the largest order of a tower level")
            self._levels[k] = lvl
        return self._levels[k]

    def embed_ids(self, k):
        """Validated embedding level(k) -> level(k+1), as an index array.

        The map is the kind's closed form ``embed_vec``, and it keeps names:
        name_(k+1)(emb x) = name_k(x).  In every kind but the quotient it is
        the id times p: the prefix stays, and the fraction m/p^k is
        (p m)/p^(k+1).  A quotient level sends the coset g N_k to
        emb(g) N_(k+1): the base map keeps names and N is one set of names
        at every level, so emb(g N_k) = emb(g) N_(k+1) has the same member
        names, and the same least name.  Exactness does not rest on this
        argument.  The map is checked to be injective and, exactly, by
        generators S_k of level k, a homomorphism; and the eta engine
        checks that it keeps its targets' names (``_targets_below``,
        ``_check_coherence``).  A refusal carries its witness in ids:
        ``collision_witness``'s first colliding pair (x, y), x < y, or
        ``hom_witness``'s (x, s).

        Once the check passes and p = n_(k+1) / n_k is prime, level k + 1
        inherits its generators along the embedding: g, the least element
        outside the image, then the members of emb(S_k) outside <g>.  This
        is exact.  S_k generates level k: greedy generators do, and
        inherited ones do by induction.  ``hom_witness`` is exact for any
        generating set, so once it passes, emb is an injective homomorphism
        and I = emb(level k) = <emb S_k> is a subgroup of order n_k, which
        therefore divides n_(k+1).  By Lagrange's theorem a subgroup J with
        I < J, I != J, has order p n_k = n_(k+1), so <emb S_k, g> is level
        k + 1, and dropping the members of emb S_k that lie in <g> does not
        change the span.  Generators a level already holds are kept; k0 and
        a level above any other index take the greedy ``generating_set``.
        Before ``hom_witness`` reads S_k, ``embed_ids(k - 1)`` validates the
        chain below (k > k0), so S_k is inherited in any build order.
        """
        if k not in self._embeds:
            src, tgt = self.level(k), self.level(k + 1)
            emb = np.asarray(self.embed_vec(k, np.arange(src.n, dtype=np.int64)), dtype=np.int64)
            if emb.shape != (src.n,) or emb.min() < 0 or emb.max() >= tgt.n:
                raise TowerError(f"embedding at level {k} leaves level {k + 1}")
            hit = np.zeros(tgt.n, dtype=bool)
            hit[emb] = True
            if np.count_nonzero(hit) != src.n:
                raise TowerError(f"embedding at level {k} is not injective",
                                 witness=collision_witness(emb))
            if k > self.k0:
                self.embed_ids(k - 1)
            if (wit := hom_witness(src, tgt, emb)) is not None:
                raise TowerError(f"embedding at level {k} is not a homomorphism", witness=wit)
            self._embeds[k] = emb
            if "generators" not in vars(tgt) and is_prime(tgt.n // src.n):
                g = int(np.argmin(hit))
                in_g = np.zeros(tgt.n, dtype=bool)
                for e in _row_blocks(tgt.n, 1):  # ord g divides n
                    in_g[tgt.pow_vec(g, np.arange(e.start, e.stop))] = True
                tgt.generators = [g] + [s for s in emb[src.generators].tolist() if not in_g[s]]
        return self._embeds[k]

    def birth_level(self, name, max_level):
        for k in range(self.k0, max_level + 1):
            if self.level(k).has(name):
                return k
        return None

    def born(self, name, what):
        """The birth level of the ``what`` named ``name``, looked for up to
        GENERATOR_SEARCH_DEPTH levels past k0."""
        k = self.birth_level(name, self.k0 + GENERATOR_SEARCH_DEPTH)
        if k is None:
            raise TowerError(f"{what} {name!r} never appears in the base tower")
        return k

    def theory_names(self, k):
        """Expected K members among level-k names, when the kind predicts one."""
        return None


# ---------------------------------------------------------------------------
# tower kinds

class PruferTower(Tower):
    """Z_{p^infinity} as the union of the cyclic groups of order p^k."""

    kind = "prufer"
    theory_tag = "K = whole group (abelian quasicyclic case)"
    prefixes = [""]
    k0 = 1

    def __init__(self, p):
        super().__init__()
        if not is_prime(p):
            raise TowerError(f"{p} is not prime")
        self.p = p

    def _build_level(self, k):
        """Z_(p^k) on the ids m = 0 .. p^k - 1, the element m/p^k mod 1."""
        n = self.c_part_count(k)
        return self._coordinate_level(k, f"prufer-{self.p}^{k}",
                                      lambda a, b: (a + b) % n,
                                      lambda a: (-a) % n,
                                      lambda a, e: a * (e % n) % n,
                                      lambda a: n // np.gcd(a, n))

    def transversal_names(self):
        return ["0"]

    def theory_names(self, k):
        return set(self.level(k).names)


class T1Tower(Tower):
    """Central amalgam (H x C)_A: levels (H x Z_{p^k}) / <(a_gen, -1/p^n)>.

    Canonical elements are pairs (transversal rep of the A-coset, Prufer part);
    transversal representatives are minimal element indices in H.
    """

    kind = "t1"
    theory_tag = "K = C (central quasicyclic part)"

    def __init__(self, H, p, a_gen, *, label=""):
        super().__init__()
        if not is_prime(p):
            raise TowerError(f"{p} is not prime")
        a_gen = H.check_element(a_gen)
        if a_gen not in center(H):
            raise TowerError(f"amalgam generator {H.names[a_gen]} is not central in H")
        a_order = order_of(H, a_gen)
        if set(prime_factors(a_order)) - {p}:
            raise TowerError(f"amalgam generator has order {a_order}, not a power of {p}")
        self.H = H
        self.p = p
        self.a_gen = a_gen
        self.n = prime_factors(a_order).get(p, 0)
        self.k0 = max(self.n, 1)
        self.label = label
        # h = reps[dec_t[h]] a^(dec_j[h]): row t of the cosets is reps[t] a^j
        A = H.pow_vec(a_gen, np.arange(a_order))
        self.reps, self.dec_t, rows = cosets(H, A)
        self.dec_j = np.empty(H.order, dtype=np.int64)
        self.dec_j[rows] = np.arange(a_order)
        self._rep_names = names_at(H, self.reps)
        self.prefixes = [f"{nm}." for nm in self._rep_names]
        # rep_pow[t, j] = reps[t]^j for j below the rep's order
        self.rep_order = H.orders[self.reps]
        self.rep_pow = H.pow_vec(self.reps[:, None], np.arange(self.rep_order.max()))
        # s_t, the order of reps[t] modulo <a>, and reps[t]^(s_t) = a^(j_t)
        self.rep_s = coset_orders(H, self.reps, A)
        self.rep_j = self.dec_j[H.pow_vec(self.reps, self.rep_s)]

    def _build_level(self, k):
        ck = self.c_part_count(k)
        u = self.p ** (k - self.n)
        Hmul, Hinv = self.H.mul_vec, self.H.inv_vec
        reps, dec_t, dec_j = self.reps, self.dec_t, self.dec_j
        rep_pow, rep_order = self.rep_pow, self.rep_order
        rep_s, rep_j = self.rep_s, self.rep_j

        def mul_vec(a, b):
            t1, m1 = np.divmod(a, ck)
            t2, m2 = np.divmod(b, ck)
            h = Hmul(reps[t1], reps[t2])
            return dec_t[h] * ck + (m1 + m2 + dec_j[h] * u) % ck

        def inv_vec(a):
            t, m = np.divmod(a, ck)
            hi = Hinv(reps[t])
            return dec_t[hi] * ck + (dec_j[hi] * u - m) % ck

        def pow_vec(a, e):
            # c is central, so (r c^m)^e = r^e c^(e m); and r^e, read from
            # rep_pow, is reps[dec_t] a^dec_j with a = c^u
            t, m = np.divmod(a, ck)
            h = rep_pow[t, e % rep_order[t]]
            return dec_t[h] * ck + ((e % ck) * m + dec_j[h] * u) % ck

        def order_vec(a):
            # (r c^m)^e lies in C only when s_t divides e, and (r c^m)^(s_t)
            # = a^(j_t) c^(s_t m) = c^(u j_t + s_t m)
            t, m = np.divmod(a, ck)
            s = rep_s[t]
            return s * (ck // np.gcd((rep_j[t] * u + s * m) % ck, ck))

        return self._coordinate_level(k, f"{self.label or 't1'}-level{k}",
                                      mul_vec, inv_vec, pow_vec, order_vec)

    def transversal_names(self):
        return list(self._rep_names)

    def theory_names(self, k):
        return set(self.level(k).names[:self.c_part_count(k)])


def inversion_recipe(base):
    """The recipe fixing every transversal rep: alpha(h c) = h c^{-1}."""
    return {nm: (nm, (0, 1)) for nm in base.transversal_names()}


class T2Tower(Tower):
    """Index-2 inverting extension of a p=2 amalgam tower.

    Elements are (eps, g) with the distinguished generator x = (1, identity);
    the product twists by a per-level automorphism alpha and by y = x^2.
    The extension conditions (alpha fixes y, inverts the quasicyclic part,
    and squares to conjugation by y) are verified computationally per level.
    """

    kind = "t2"
    theory_tag = "K = <a> (unique involution of the quasicyclic part)"
    p = 2

    def __init__(self, base, y_name, m, recipe, *, label=""):
        super().__init__()
        if base.p != 2:
            raise TowerError("t2 extensions require p = 2")
        self.base = base
        self.y_name = y_name
        self.m = int(m)
        if self.m < 1:
            raise TowerError("m must be >= 1")
        self.recipe = recipe
        self.label = label
        self.prefixes = base.prefixes + [f"x.{pf}" for pf in base.prefixes]
        # the involution of C, the base id c_k / 2 at every level k
        self.a_name = base.level(base.k0).names[base.c_part_count(base.k0) // 2]

    @cached_property
    def k0(self):
        return max(self.base.k0, self.base.born(self.y_name, "y element"), 1)

    @property
    def x_name(self):
        return f"x.{self.base.level(self.k0).names[0]}"

    def _build_level(self, k):
        blvl = self.base.level(k)
        if k > self.base.k0:
            self.base.embed_ids(k - 1)  # base level k inherits the generators
        nb = blvl.n
        alpha = self._alpha_map(k)
        y_id = blvl.id_of(self.y_name)
        a_id = blvl.id_of(self.a_name)
        self._check_conditions(blvl, alpha, y_id, a_id, k)
        y_inv = blvl.inv(y_id)

        def mul_vec(a, b):
            e1, g1 = np.divmod(a, nb)
            e2, g2 = np.divmod(b, nb)
            g1t = np.where(e2 == 1, alpha[g1], g1)
            r = blvl.mul_vec(g1t, g2)
            both = (e1 & e2) == 1
            if np.any(both):
                r = np.where(both, blvl.mul_vec(r, np.int64(y_id)), r)
            return (e1 ^ e2) * nb + r

        def inv_vec(a):
            e, g = np.divmod(a, nb)
            plain = blvl.inv_vec(g)
            twisted = blvl.mul_vec(blvl.inv_vec(alpha[g]), np.int64(y_inv))
            return e * nb + np.where(e == 1, twisted, plain)

        def pow_vec(a, e):
            # (x g)^e = ((x g)^2)^(e // 2) (x g)^(e % 2), and (x g)^2 lies in
            # the base; each x g is squared once, at a's shape
            coset = a >= nb
            g = a.copy()
            g[coset] = mul_vec(a[coset], a[coset])
            out = blvl.pow_vec(g, np.where(coset, e >> 1, e))
            tail = coset & (e & 1 == 1)
            out[tail] = mul_vec(out[tail], np.broadcast_to(a, tail.shape)[tail])
            return out

        def order_vec(a):
            # x g squares into the base, and no odd power of it lies there
            e, g = np.divmod(a, nb)
            return np.where(e == 1, 2 * blvl.orders[mul_vec(a, a)], blvl.orders[g])

        return self._coordinate_level(k, f"{self.label or 't2'}-level{k}",
                                      mul_vec, inv_vec, pow_vec, order_vec)

    def _alpha_map(self, k):
        """The automorphism candidate of base level k that the recipe gives.

        Base level k is on the ids t c_k + m, for t a transversal rep (a
        Prufer base has the one rep "0") and m the C coordinate, c_k =
        ``c_part_count(k)``.  C is central, so a map inverting C is
        determined by its values on the transversal reps: rep -> (rep',
        fractional offset), and the offset must be an element of level k.
        """
        ck = self.base.c_part_count(k)
        rep_names = self.base.transversal_names()
        rep_pos = {nm: t for t, nm in enumerate(rep_names)}
        t_img = np.empty(len(rep_names), dtype=np.int64)
        off = np.empty(len(rep_names), dtype=np.int64)
        for t, nm in enumerate(rep_names):
            try:
                tgt_name, (num, den) = self.recipe[nm]
            except KeyError:
                raise TowerError(f"recipe missing transversal rep {nm!r}") from None
            if tgt_name not in rep_pos:
                raise TowerError(f"recipe target {tgt_name!r} is not a transversal rep")
            if ck % den:
                raise TowerError(f"recipe offset {num}/{den} not expressible at level {k}")
            t_img[t] = rep_pos[tgt_name]
            off[t] = (num * (ck // den)) % ck
        t, m = np.divmod(np.arange(len(rep_names) * ck, dtype=np.int64), ck)
        return t_img[t] * ck + (off[t] - m) % ck

    def _check_conditions(self, blvl, alpha, y_id, a_id, k):
        """The extension conditions on base level k, exact, by generators.

        A map of n ids onto all n is a bijection; once ``hom_witness`` passes
        it is an automorphism.  A map in range that is not onto fails with
        ``collision_witness``'s first colliding pair (x, y).  Each later law
        then compares two homomorphisms, which agree everywhere iff they
        agree on generators: alpha and inversion on C, the first
        ``c_part_count`` ids with id m = c^m, so on id 1; alpha^2 and
        conjugation by y on ``blvl.generators``.
        The homomorphism law fails with ``hom_witness``'s (x, s), and the
        alpha^2 law with (s,), its first failing generator.
        """
        nb = blvl.n
        hit = np.zeros(nb, dtype=bool)
        in_range = alpha.shape == (nb,) and alpha.min() >= 0 and alpha.max() < nb
        if in_range:
            hit[alpha] = True
        if not (hit.all() and alpha[0] == 0):
            raise ExtensionConditionsFailed("alpha is not a bijection fixing identity", k,
                                            collision_witness(alpha) if in_range else None)
        if (wit := hom_witness(blvl, blvl, alpha)) is not None:
            raise ExtensionConditionsFailed("alpha is not a homomorphism", k, wit)
        if alpha[1] != blvl.inv(1):
            raise ExtensionConditionsFailed("alpha does not invert the C part", k)
        if alpha[y_id] != y_id:
            raise ExtensionConditionsFailed("alpha does not fix y", k)
        S = np.asarray(blvl.generators, dtype=np.int64)
        bad = np.flatnonzero(alpha[alpha[S]] != blvl.mul_vec(blvl.mul_vec(blvl.inv(y_id), S), y_id))
        if bad.size:
            raise ExtensionConditionsFailed("alpha squared is not conjugation by y", k,
                                            (int(S[bad[0]]),))
        # y^m must be the distinguished involution, making x^{2m} = a
        if int(blvl.pow_vec(y_id, self.m)) != a_id:
            raise ExtensionConditionsFailed(f"y^{self.m} is not the involution a", k)

    def theory_names(self, k):
        lvl = self.level(k)
        return {lvl.names[0], self.a_name}


def example_t2_tower():
    """The m = 2 extension of <z> x C built from the order-4 twist recipe."""
    z2 = FiniteGroupTable([[0, 1], [1, 0]], ["e", "z"], label="Z2")
    base = T1Tower(z2, 2, 0, label="z2xC")  # trivial amalgam: plain direct product
    recipe = {"e": ("e", (0, 1)), "z": ("z", (1, 2))}
    return T2Tower(base, "z.1/4", 2, recipe, label="example-4-2-ii")


class QuaternionTower(Tower):
    """Generalized quaternion groups Q_{2^{k+1}} with their natural inclusions."""

    kind = "quaternion"
    theory_tag = "K = <a> (unique involution)"
    p = 2
    prefixes = ["", "x."]
    k0 = 2
    m = 1
    x_name = "x.0"
    a_name = "1/2"

    def _build_level(self, k):
        ck = self.c_part_count(k)
        half = ck // 2

        def mul_vec(a, b):
            e1, m1 = np.divmod(a, ck)
            e2, m2 = np.divmod(b, ck)
            m = (np.where(e2 == 1, -m1, m1) + m2 + (e1 & e2) * half) % ck
            return (e1 ^ e2) * ck + m

        def inv_vec(a):
            e, m = np.divmod(a, ck)
            return e * ck + np.where(e == 1, (m + half) % ck, (-m) % ck)

        def pow_vec(a, e):
            # c^e = e m on C; every x c^m squares to the involution half, so
            # (x c^m)^e = x^(e % 2) c^((e % 2) m + (e // 2 % 2) half)
            e1, m = np.divmod(a, ck)
            odd = e & 1
            coset = odd * ck + (odd * m + (e >> 1 & 1) * half) % ck
            return np.where(e1 == 1, coset, m * (e % ck) % ck)

        def order_vec(a):
            # c^m has order ck / gcd(m, ck); every x c^m squares to the involution
            return np.where(a >= ck, 4, ck // np.gcd(a, ck))

        return self._coordinate_level(k, f"Q{2 ** (k + 1)}", mul_vec, inv_vec, pow_vec, order_vec)

    def theory_names(self, k):
        return {"0", "1/2"}


class QuotientTower(Tower):
    """Level-wise quotient of a tower by the finite subgroup its names generate.

    The generated subgroup must be the same set of names at every level, and
    normal at every level.  Cosets are numbered by ``cosets``, by least base
    id.  A coset is named by its lexicographically least member name, in
    brackets, which is stable across levels; it is formatted only when asked.
    """

    kind = "quotient-of-tower"

    def __init__(self, base, gen_names, *, label=""):
        super().__init__()
        self.base = base
        self.gen_names = list(gen_names)
        self.label = label
        self._n_names = None
        self.k0 = max([base.k0] + [base.born(nm, "generator") for nm in self.gen_names])

    @property
    def theory_tag(self):
        return self.base.theory_tag and f"image of: {self.base.theory_tag}"

    def _subgroup_at(self, k):
        blvl = self.base.level(k)
        members = closure(blvl, [blvl.id_of(nm) for nm in self.gen_names])
        names = set(names_at(blvl, members))
        if self._n_names is None:
            self._n_names = names
        elif names != self._n_names:
            raise TowerError(
                f"quotient subgroup is not stable: differs at level {k}")
        return members

    def _build_level(self, k):
        blvl = self.base.level(k)
        N = self._subgroup_at(k)
        try:
            check_normal(blvl, N)
        except NotNormalError as exc:
            g, nn = exc.witness
            raise TowerError(f"not normal at level {k}: conjugate of {blvl.names[nn]} "
                             f"by {blvl.names[g]} escapes") from None
        reps, cmap, rows = cosets(blvl, N)

        def fmt(c):
            member_names = names_at(blvl, rows[c].reshape(-1))
            return [f"[{min(member_names[i:i + len(N)])}]"
                    for i in range(0, len(member_names), len(N))]

        def ids_of(ask):
            # "[" a name of the base level "]", through the projection; only
            # the coset's least name formats back
            at = [j for j, nm in enumerate(ask) if nm[:1] == "[" and nm[-1:] == "]"]
            g = np.full(len(ask), -1, dtype=np.int64)
            g[at] = blvl.ids_of([ask[j][1:-1] for j in at])
            return formatted_back(np.where(g >= 0, cmap[g], -1), ask, fmt)

        lvl = Level.derived(blvl, reps, cmap, NameView(reps.size, fmt), N=N,
                            label=f"{self.label or 'quotient'}-level{k}", ids_of=ids_of)
        lvl.projection = cmap  # base level id -> coset id
        lvl.reps = reps        # coset id -> its least base level id
        return lvl

    def embed_vec(self, k, ids):
        # the coset g N_k -> emb(g) N_(k+1)
        return self.level(k + 1).projection[self.base.embed_vec(k, self.level(k).reps[ids])]

    def theory_names(self, k):
        base_theory = self.base.theory_names(k)
        if base_theory is None:
            return None
        lvl = self.level(k)
        blvl = self.base.level(k)
        if not self._n_names <= base_theory:
            return None  # quotient subgroup is not inside the predicted K
        return {lvl.names[int(lvl.projection[blvl.id_of(nm)])] for nm in base_theory}


# ---------------------------------------------------------------------------
# eta by levels

@dataclass
class LevelEta(Report):
    level: int
    size: int
    members: SortedNames = None  # kept only when small


@dataclass
class Certificate(Report):  # the eta sets agreed on levels level .. level + window
    level: int
    window: int


@dataclass
class EtaReport(Report):
    element: str
    tower_kind: str
    per_level: list
    stabilized: bool
    certificate: Certificate = None
    stable_set: SortedNames = None


@dataclass
class _LevelRoots:
    """One level of the eta stream: its live targets and their ``root_images``."""

    level: Level
    live: np.ndarray  # positions, in the engine's ``ids``, of the targets present
    ids: np.ndarray   # their element ids at this level
    ds: np.ndarray
    col_of: np.ndarray
    key: np.ndarray
    P: np.ndarray


def _targets_below(tower, bl, ids, names):
    """The targets at each level k0 <= k <= bl: pos[k][x] is the index in
    ``ids``, elements of level bl named ``names``, of emb_(k->bl)(x), read
    along the validated embeddings, or -1 where that is no target.  pos[bl]
    holds each target's index at its id, and pos[k] = pos[k + 1][emb_k].

    The embeddings are validated before anything else is checked.  Then
    each x with pos[k][x] >= 0 that is born at a level k < bl (at k0, or
    outside emb_(k-1)'s image) has its name formatted once, at k, and it
    must be names[pos[k][x]].  No name is parsed.  Level bl's names are
    unique, so an embedding emb_k = sigma emb, with sigma an automorphism
    of level k + 1 that moves some emb(y) onto a target, fails at the birth
    level of y's first ancestor, whose name is that of emb(y).  A target
    born at bl reaches a lower level only through such an embedding.
    """
    k0 = tower.k0
    pos = {bl: np.full(tower.level(bl).n, -1, dtype=np.int64)}
    pos[bl][ids] = np.arange(len(ids))
    for k in range(bl - 1, k0 - 1, -1):
        pos[k] = pos[k + 1][tower.embed_ids(k)]
    for k in range(k0, bl):
        born = pos[k] >= 0
        if k > k0:
            born[tower.embed_ids(k - 1)] = False
        born = np.flatnonzero(born)
        if names_at(tower.level(k), born) != [names[j] for j in pos[k][born].tolist()]:
            raise CoherenceError(f"eta at level {k} disagrees with its restriction from level {bl}")
    return pos


def _keys_inject(a, b, nb):
    """Whether a[x] = a[y] iff b[x] = b[y], for every x with a[x] >= 0 and every y.

    That is: x -> b[x] is a well-defined injection on the classes of ``a``'s
    nonnegative keys, and no x outside them reaches one of its values.
    ``b`` takes values in -1 .. nb - 1.
    """
    keyed = a >= 0
    img = np.full(a.size, -2, dtype=np.int64)
    img[a[keyed]] = b[keyed]
    src = np.full(nb + 1, -2, dtype=np.int64)
    src[b[keyed] + 1] = a[keyed]
    return (np.array_equal(img[a[keyed]], b[keyed])
            and np.array_equal(src[b + 1], np.where(keyed, a, -2)))


def _check_coherence(k, emb, lo, hi, names):
    """Raise CoherenceError unless, for every target present at level k, eta
    at level k is eta at level k + 1 restricted along ``emb``.

    Exact, in n_k x D form.  A target present at level k is carried to
    level k + 1 along ``emb`` (``_eta_engine``), so its id there is
    g_(k+1) = emb(g_k).  With d its order and P the power images of
    ``root_images``, the checks are: (0) g_(k+1) has the target's name at
    level k + 1; ord(emb h) = ord h; emb(P_k[h, d]) = P_(k+1)[emb h, d] on
    the orders both levels hold; and key_k -> key_(k+1)(emb) is a
    well-defined injection (``_keys_inject``).  A level's names are unique,
    so (0) holds iff the name reads at level k + 1 as emb(g_k); a name
    that is not a name of level k + 1 fails it.  Then g_k in <h>, which is
    key_k(P_k[h, d]) = key_k(g_k), holds iff key_(k+1)(emb P_k[h, d]) =
    key_(k+1)(emb g_k), which is g_(k+1) in <emb h>.  An injective
    homomorphism that keeps names satisfies all four on correct root images.
    With ``names`` None, (0) is skipped: up to the engine's level bl,
    ``_targets_below`` has checked the names.
    """
    if not lo.live.size:
        return
    ok = ((names is None
           or names_at(hi.level, emb[lo.ids]) == [names[j] for j in lo.live.tolist()])
          and np.array_equal(hi.level.orders[emb], lo.level.orders))
    if ok:
        _, i_lo, i_hi = np.intersect1d(lo.ds, hi.ds, assume_unique=True, return_indices=True)
        ok = all(np.array_equal(emb[lo.P[:, i]], hi.P[emb, j]) for i, j in zip(i_lo, i_hi))
    if not (ok and _keys_inject(lo.key, hi.key[emb], hi.level.n)):
        raise CoherenceError(
            f"eta at level {k} disagrees with its restriction from level {k + 1}")


def _eta_engine(tower, bl, ids, max_level, window, member_cap):
    """Per-level eta for the elements ``ids`` of level bl, with coherence
    checks, streamed by levels, as reports keyed by name in ``ids`` order.

    eta(g) is the complement of the roots of g.  A level is held as
    ``root_images`` of its targets, n x D with D distinct target orders, so
    one ``np.bincount`` of the keys of a column counts the roots of every
    target of that order.  Member lists come from one column, one per key:
    targets of one cyclic subgroup share them.  They are ``SortedNames``,
    formatted and sorted only if a report prints them, so ``k_estimate``
    formats none.  The root images of only two levels, k and k + 1, are
    held at once: after ``_check_coherence`` and equal sizes, the eta sets
    of a window agree by name, so a certificate's stable set is read at the
    last level of its window.

    The engine parses no name.  The targets' names are formatted once, at
    bl.  Up to bl a target's id at each level is read along the validated
    embeddings (``_targets_below``); above bl it is carried along them, and
    ``_check_coherence`` checks that the carried id keeps the name.
    """
    if window < 1:
        raise TowerError(f"window must be >= 1, got {window}")
    k0 = tower.k0
    # every level is built before any is embedded, so a level that fails to
    # build is reported ahead of an embedding fault below it
    levels = [tower.level(k) for k in range(k0, max_level + 1)]
    names = names_at(levels[bl - k0], ids)
    below = _targets_below(tower, bl, ids, names)
    # |eta(names[j])| at each level from the first where names[j] is live;
    # its id is carried up from there, so it is live at every level above
    sizes = [[] for _ in names]
    per_level = [[] for _ in names]
    certs = {}  # j -> (certificate, stable set)
    lo = None
    for k, lvl in enumerate(levels, k0):
        emb = None if lo is None else tower.embed_ids(k - 1)
        if k <= bl:
            here = np.flatnonzero(below[k] >= 0)
            live = below[k][here]
        else:
            live, here = lo.live, emb[lo.ids]
        hi = _LevelRoots(lvl, live, here, *root_images(lvl, here))
        if lo is not None:
            _check_coherence(k - 1, emb, lo, hi, names if k > bl else None)
        lo = hi
        fmt = partial(names_at, lvl)
        for i in range(hi.ds.size):
            kp = hi.key[hi.P[:, i]] + 1  # shifted keys of the power images, -1 -> 0
            counts = np.bincount(kp, minlength=lvl.n + 1)
            at = np.flatnonzero(hi.col_of == i)
            kgs = hi.key[hi.ids[at]] + 1
            members = {}  # shifted key -> its eta set's names, sorted when read
            for j, kg, size in zip(hi.live[at].tolist(), kgs.tolist(),
                                   (lvl.n - counts[kgs]).tolist()):
                sizes[j].append(size)
                # equal sizes on levels k - window .. k, all of them seen
                certified = j not in certs and sizes[j][-window - 1:] == [size] * (window + 1)
                eta = None
                if size <= member_cap or certified:
                    eta = members.get(kg)
                    if eta is None:
                        eta = members[kg] = SortedNames(np.flatnonzero(kp != kg), fmt)
                per_level[j].append(LevelEta(k, size, eta if size <= member_cap else None))
                if certified:
                    certs[j] = (Certificate(k - window, window), eta)
    reports = {}
    for j, nm in enumerate(names):
        if j in certs:
            reports[nm] = EtaReport(nm, tower.kind, per_level[j], True, *certs[j])
        else:
            reports[nm] = EtaReport(nm, tower.kind, per_level[j], False)
    return reports


def eta_stabilized(tower, name, max_level=DEFAULT_MAX_LEVEL, window=DEFAULT_WINDOW,
                   *, member_cap=DEFAULT_MEMBER_CAP):
    """Level-wise eta for one element, with a stabilization certificate.

    A report that is not stabilized never claims non-membership of K, only
    that eta kept changing within the examined levels.  The name is read at
    its birth level, the first that holds it, and its id there is the
    engine's one target.  A name that no level up to ``max_level`` holds is
    unknown.
    """
    # build faults first; below k0, Tower.level says where the tower starts
    levels = [tower.level(k) for k in range(min(tower.k0, max_level), max_level + 1)]
    bl = tower.birth_level(name, max_level)
    if bl is None:
        raise InvalidElementError(f"unknown element name {name!r} up to level {max_level}")
    ids = [levels[bl - tower.k0].id_of(name)]
    return _eta_engine(tower, bl, ids, max_level, window, member_cap)[name]


@dataclass
class KReport(Report):
    tower_kind: str
    max_level: int
    window: int
    birth_level: int
    members: list
    growing: list
    undetermined: list
    theory: list = None
    theory_tag: str = None
    agrees: bool = None
    eta_reports: dict = field(default_factory=dict, metadata={"json": False})


def k_estimate(tower, max_level=DEFAULT_MAX_LEVEL, window=DEFAULT_WINDOW,
               birth_cap=DEFAULT_BIRTH_CAP, *, member_cap=DEFAULT_MEMBER_CAP):
    """Partition the elements born by the birth cap into stabilized and growing.

    Stabilized elements form the K-estimate; when the tower kind predicts the
    answer, the estimate is compared against it and disagreement is reported
    (not raised) -- the classification theorems are the regression alarm.
    Only determined names (stabilized or growing) are compared, and a run
    that determined none confirms nothing, so it does not agree.
    """
    bl = min(max(birth_cap, tower.k0), max_level)
    reports = _eta_engine(tower, bl, np.arange(tower.level(bl).n), max_level, window, member_cap)
    members, growing, undetermined = [], [], []
    for nm, rep in reports.items():
        if rep.stabilized:
            members.append(nm)
            continue
        tail = [pl.size for pl in rep.per_level][-(window + 1):]
        if len(tail) == window + 1 and all(a < b for a, b in zip(tail, tail[1:])):
            growing.append(nm)
        else:
            undetermined.append(nm)
    theory = tower.theory_names(bl)
    agrees = None
    theory_list = None
    if theory is not None:
        theory_list = sorted(theory & set(reports))
        agrees = bool(members or growing) and set(members) == set(theory_list) - set(undetermined)
    return KReport(tower.kind, max_level, window, bl,
                   sorted(members), sorted(growing), sorted(undetermined),
                   theory_list, tower.theory_tag, agrees, reports)
