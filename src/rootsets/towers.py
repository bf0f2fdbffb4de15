"""Ascending chains of finite groups and level-wise root-set stabilization.

The infinite groups of interest (quasicyclic groups, central amalgams, their
index-2 inverting extensions, generalized quaternion limits) are represented
as towers: for each level k a finite group, plus name-stable embeddings into
the next level.  Membership in K is reported as a stabilization certificate
for the level-wise eta sets, never as a proof; the classification statements
provide the expected answers the reports are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernel import (
    FiniteGroupTable,
    GroupError,
    Homomorphism,
    InvalidElementError,
    OracleGroup,
    center,
    closure,
    hom_witness,
    is_prime,
    order_of,
    power,
    power_vec,
    prime_factors,
    root_images,
)

DEFAULT_MAX_LEVEL = 8
DEFAULT_WINDOW = 2
DEFAULT_BIRTH_CAP = 4
DEFAULT_MEMBER_CAP = 128
# how many levels past the base to look for a named generator before giving
# up; levels grow geometrically, so a deep search would materialize huge name
# lists just to report a typo
GENERATOR_SEARCH_DEPTH = 8


class TowerError(GroupError):
    pass


class CoherenceError(GroupError):
    """Level-wise eta sets disagree with their restriction law: a kernel bug."""


class ExtensionConditionsFailed(GroupError):
    def __init__(self, condition, level):
        super().__init__(f"extension condition failed at level {level}: {condition}")
        self.condition = condition
        self.level = level


# ---------------------------------------------------------------------------
# Prufer elements

@dataclass(frozen=True)
class PruferElement:
    """An element of Z_{p^infinity} as a normalized fraction num / p^k mod 1."""

    p: int
    num: int
    k: int

    @classmethod
    def of(cls, p, num, k):
        num %= p ** k
        while k > 0 and num % p == 0:
            num //= p
            k -= 1
        if num == 0:
            k = 0
        return cls(p, num, k)

    @property
    def order(self):
        return self.p ** self.k

    @property
    def name(self):
        if self.k == 0:
            return "0"
        return f"{self.num}/{self.p ** self.k}"

    def __add__(self, other):
        if self.p != other.p:
            raise TowerError("mixed primes in Prufer arithmetic")
        k = max(self.k, other.k)
        num = self.num * self.p ** (k - self.k) + other.num * self.p ** (k - other.k)
        return PruferElement.of(self.p, num, k)

    def __neg__(self):
        return PruferElement.of(self.p, -self.num, self.k)


def prufer_name(num, p, k):
    return PruferElement.of(p, num, k).name


def prufer_names(p, k):
    """``prufer_name(m, p, k)`` for m = 0 .. p^k - 1, built in one pass."""
    n = p ** k
    names = ["0"]
    for m in range(1, n):
        g = math.gcd(m, n)  # m/n in lowest terms
        names.append(f"{m // g}/{n // g}")
    return names


# ---------------------------------------------------------------------------
# levels

class Level(OracleGroup):
    """One finite level of a tower; it materializes as a table only up to a cap."""

    def group(self, *, cap=4096):
        if self.n > cap:
            raise TowerError(f"level of order {self.n} exceeds materialization cap {cap}")
        return super().group()


class Tower:
    """Base class: level caching, name-stable embeddings, birth levels."""

    kind = "tower"
    theory_tag = None

    def __init__(self):
        self._levels = {}
        self._embeds = {}

    @property
    def k0(self):
        raise NotImplementedError

    def _build_level(self, k):
        raise NotImplementedError

    def level(self, k):
        if k < self.k0:
            raise TowerError(f"{self.kind} tower starts at level {self.k0}, got {k}")
        if k not in self._levels:
            self._levels[k] = self._build_level(k)
        return self._levels[k]

    def embed_ids(self, k):
        """Validated embedding level(k) -> level(k+1), as an index array.

        Names are the stable addressing, so the embedding is name lookup;
        the homomorphism law is checked exactly, by generators S_k of level k.

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
        """
        if k not in self._embeds:
            src, tgt = self.level(k), self.level(k + 1)
            try:
                emb = np.fromiter((tgt.id_of(nm) for nm in src.names),
                                  dtype=np.int64, count=src.n)
            except InvalidElementError as exc:
                raise TowerError(f"embedding broken at level {k}: {exc}") from exc
            hit = np.zeros(tgt.n, dtype=bool)
            hit[emb] = True
            if np.count_nonzero(hit) != src.n:
                raise TowerError(f"embedding at level {k} is not injective")
            if hom_witness(src, tgt, emb) is not None:
                raise TowerError(f"embedding at level {k} is not a homomorphism")
            self._embeds[k] = emb
            if not self._holds_generators(k + 1) and is_prime(tgt.n // src.n):
                g = int(np.argmin(hit))
                in_g = np.zeros(tgt.n, dtype=bool)
                in_g[power_vec(tgt, g, np.arange(tgt.n))] = True  # ord g divides n
                tgt.generators = [g] + [s for s in emb[src.generators].tolist() if not in_g[s]]
        return self._embeds[k]

    def _holds_generators(self, k):
        """Whether level k is built and its generators are already known."""
        return k in self._levels and "generators" in vars(self._levels[k])

    def embedding_hom(self, k):
        """The embedding as a kernel Homomorphism between the levels."""
        return Homomorphism.validated(self.level(k), self.level(k + 1), self.embed_ids(k))

    def birth_level(self, name, max_level):
        for k in range(self.k0, max_level + 1):
            if self.level(k).has(name):
                return k
        return None

    def new_names(self, k):
        """Elements appearing first at level k."""
        if k == self.k0:
            return list(self.level(k).names)
        prev = set(self.level(k - 1).names)
        return [nm for nm in self.level(k).names if nm not in prev]

    def theory_names(self, k):
        """Expected K members among level-k names, when the kind predicts one."""
        return None


# ---------------------------------------------------------------------------
# tower kinds

class PruferTower(Tower):
    """Z_{p^infinity} as the union of the cyclic groups of order p^k."""

    kind = "prufer"
    theory_tag = "K = whole group (abelian quasicyclic case)"

    def __init__(self, p):
        super().__init__()
        if not is_prime(p):
            raise TowerError(f"{p} is not prime")
        self.p = p

    @property
    def k0(self):
        return 1

    def _build_level(self, k):
        p, n = self.p, self.p ** k
        return Level(n, prufer_names(p, k),
                     lambda a, b, n=n: (a + b) % n,
                     lambda a, n=n: (-a) % n,
                     label=f"prufer-{p}^{k}",
                     pow_vec=lambda a, e, n=n: a * (e % n) % n)

    def c_involution_name(self):
        if self.p != 2:
            raise TowerError("the distinguished involution needs p = 2")
        return "1/2"

    def transversal_names(self):
        return ["0"]

    def c_part_count(self, k):
        return self.p ** k

    def _alpha_map(self, k, recipe):
        lvl = self.level(k)
        base = np.arange(lvl.n, dtype=np.int64)
        if "0" not in recipe:
            raise TowerError("recipe missing transversal rep '0'")
        rep_name, (num, den) = recipe["0"]
        if rep_name != "0":
            raise TowerError("prufer recipe must fix the trivial transversal")
        off = num * lvl.n // den
        return (off - base) % lvl.n

    def theory_names(self, k):
        return set(self.level(k).names)


def prufer_tower(p):
    return PruferTower(p)


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
        self.label = label
        self._setup_transversal()

    def _setup_transversal(self):
        H = self.H
        a_powers = power_vec(H, self.a_gen, np.arange(self.p ** self.n))
        dec_t = np.full(H.order, -1, dtype=np.int64)
        dec_j = np.full(H.order, -1, dtype=np.int64)
        reps = []
        for h in range(H.order):
            if dec_t[h] == -1:
                coset = H.mul_vec(h, a_powers)  # h * a^j
                dec_t[coset], dec_j[coset] = len(reps), np.arange(a_powers.size)
                reps.append(h)
        self.reps = np.array(reps, dtype=np.int64)
        self.dec_t = dec_t
        self.dec_j = dec_j
        self.t_count = len(reps)
        # rep_pow[t, j] = reps[t]^j for j below the rep's order, by walks in H
        self.rep_order = H.orders[self.reps]
        self.rep_pow = np.zeros((self.t_count, int(self.rep_order.max())), dtype=np.int64)
        cur = np.zeros(self.t_count, dtype=np.int64)
        for j in range(1, self.rep_pow.shape[1]):
            cur = H.table[cur, self.reps]
            self.rep_pow[:, j] = cur

    @property
    def k0(self):
        return max(self.n, 1)

    def _build_level(self, k):
        p, n = self.p, self.n
        ck = p ** k
        u = p ** (k - n)
        Ht, Hinv = self.H.table, self.H.inv_vec
        reps, dec_t, dec_j = self.reps, self.dec_t, self.dec_j
        rep_pow, rep_order = self.rep_pow, self.rep_order
        c_names = prufer_names(p, k)
        names = [f"{self.H.names[r]}.{nm}" for r in reps for nm in c_names]

        def mul_vec(a, b):
            t1, m1 = np.divmod(a, ck)
            t2, m2 = np.divmod(b, ck)
            h = Ht[reps[t1], reps[t2]]
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

        lvl = Level(self.t_count * ck, names, mul_vec, inv_vec,
                    label=f"{self.label or 't1'}-level{k}", pow_vec=pow_vec)
        assert lvl.n == self.H.order * ck // (p ** n)
        return lvl

    def c_part_count(self, k):
        return self.p ** k

    def c_involution_name(self):
        if self.p != 2:
            raise TowerError("the distinguished involution needs p = 2")
        return f"{self.H.names[self.reps[0]]}.1/2"

    def transversal_names(self):
        return [self.H.names[r] for r in self.reps]

    def _alpha_map(self, k, recipe):
        """Automorphism candidate from a per-transversal recipe.

        The C part is central, so a map inverting C is determined by its
        values on transversal representatives: rep -> (rep', fractional offset).
        """
        lvl = self.level(k)
        ck = self.p ** k
        t_img = np.empty(self.t_count, dtype=np.int64)
        off = np.empty(self.t_count, dtype=np.int64)
        rep_names = self.transversal_names()
        rep_pos = {nm: t for t, nm in enumerate(rep_names)}
        for t, nm in enumerate(rep_names):
            try:
                tgt_name, (num, den) = recipe[nm]
            except KeyError:
                raise TowerError(f"recipe missing transversal rep {nm!r}") from None
            if tgt_name not in rep_pos:
                raise TowerError(f"recipe target {tgt_name!r} is not a transversal rep")
            if ck % den:
                raise TowerError(f"recipe offset {num}/{den} not expressible at level {k}")
            t_img[t] = rep_pos[tgt_name]
            off[t] = (num * (ck // den)) % ck
        base = np.arange(lvl.n, dtype=np.int64)
        t, m = np.divmod(base, ck)
        return t_img[t] * ck + (off[t] - m) % ck

    def theory_names(self, k):
        ck = self.p ** k
        return set(self.level(k).names[:ck])


def t1_tower(H, p, a_gen, *, label=""):
    return T1Tower(H, p, a_gen, label=label)


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
        self.a_name = base.c_involution_name()
        self._k0 = None

    @property
    def k0(self):
        if self._k0 is None:
            birth = self.base.birth_level(self.y_name, self.base.k0 + GENERATOR_SEARCH_DEPTH)
            if birth is None:
                raise TowerError(f"y element {self.y_name!r} never appears in the base tower")
            self._k0 = max(self.base.k0, birth, 1)
        return self._k0

    @property
    def x_name(self):
        return f"x.{self.base.level(self.k0).names[0]}"

    def _build_level(self, k):
        blvl = self.base.level(k)
        if self.base._holds_generators(k - 1):
            # base level k inherits the generators _check_conditions reads
            self.base.embed_ids(k - 1)
        nb = blvl.n
        alpha = self.base._alpha_map(k, self.recipe)
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
            # (x g)^e = ((x g)^2)^(e // 2) (x g)^(e % 2), and (x g)^2 lies in the base
            coset = a >= nb
            g, half = a.copy(), e.copy()
            g[coset] = mul_vec(a[coset], a[coset])
            half[coset] //= 2
            out = blvl.pow_vec(g, half)
            tail = coset & (e % 2 == 1)
            out[tail] = mul_vec(out[tail], a[tail])
            return out

        names = list(blvl.names) + [f"x.{nm}" for nm in blvl.names]
        return Level(2 * nb, names, mul_vec, inv_vec,
                     label=f"{self.label or 't2'}-level{k}", pow_vec=pow_vec)

    def _check_conditions(self, blvl, alpha, y_id, a_id, k):
        nb = blvl.n
        if alpha[0] != 0 or len(np.unique(alpha)) != nb:
            raise ExtensionConditionsFailed("alpha is not a bijection fixing identity", k)
        if hom_witness(blvl, blvl, alpha) is not None:
            raise ExtensionConditionsFailed("alpha is not a homomorphism", k)
        c_ids = np.arange(self.base.c_part_count(k), dtype=np.int64)
        if not np.array_equal(alpha[c_ids], blvl.inv_vec(c_ids)):
            raise ExtensionConditionsFailed("alpha does not invert the C part", k)
        if alpha[y_id] != y_id:
            raise ExtensionConditionsFailed("alpha does not fix y", k)
        g = np.arange(nb, dtype=np.int64)
        conj = blvl.mul_vec(blvl.mul_vec(blvl.inv(y_id), g), y_id)
        if not np.array_equal(alpha[alpha], conj):
            raise ExtensionConditionsFailed("alpha squared is not conjugation by y", k)
        # y^m must be the distinguished involution, making x^{2m} = a
        if power(blvl, y_id, self.m) != a_id:
            raise ExtensionConditionsFailed(f"y^{self.m} is not the involution a", k)

    def c_part_count(self, k):
        return self.base.c_part_count(k)

    def c_names(self, k):
        return self.base.level(k).names[: self.base.c_part_count(k)]

    def theory_names(self, k):
        lvl = self.level(k)
        return {lvl.names[0], self.a_name}


def t2_tower(base, y_name, m, recipe, *, label=""):
    return T2Tower(base, y_name, m, recipe, label=label)


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
    m = 1
    x_name = "x.0"
    a_name = "1/2"

    @property
    def k0(self):
        return 2

    def _build_level(self, k):
        ck = 2 ** k
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
            # its powers run x c^m, half, x c^(m + half), 1 with period 4
            e1, m = np.divmod(a, ck)
            coset = np.choose(e % 4, (0, a, half, ck + (m + half) % ck))
            return np.where(e1 == 1, coset, m * (e % ck) % ck)

        c_names = prufer_names(2, k)
        return Level(2 * ck, c_names + [f"x.{nm}" for nm in c_names], mul_vec, inv_vec,
                     label=f"Q{2 ** (k + 1)}", pow_vec=pow_vec)

    def c_part_count(self, k):
        return 2 ** k

    def c_names(self, k):
        return self.level(k).names[: 2 ** k]

    def theory_names(self, k):
        return {"0", "1/2"}


def quaternion_tower():
    return QuaternionTower()


class QuotientTower(Tower):
    """Level-wise quotient of a tower by the finite subgroup its names generate.

    The generated subgroup must be the same set of names at every level, and
    normal at every level.  Coset names are the lexicographically least member
    name, which is stable across levels.
    """

    kind = "quotient-of-tower"

    def __init__(self, base, gen_names, *, label=""):
        super().__init__()
        self.base = base
        self.gen_names = list(gen_names)
        self.label = label
        self._n_names = None
        births = []
        for nm in self.gen_names:
            b = base.birth_level(nm, base.k0 + GENERATOR_SEARCH_DEPTH)
            if b is None:
                raise TowerError(f"generator {nm!r} never appears in the base tower")
            births.append(b)
        self._k0 = max([base.k0] + births)

    @property
    def k0(self):
        return self._k0

    @property
    def theory_tag(self):
        return self.base.theory_tag and f"image of: {self.base.theory_tag}"

    def _subgroup_at(self, k):
        blvl = self.base.level(k)
        members = closure(blvl, [blvl.id_of(nm) for nm in self.gen_names])
        names = {blvl.names[g] for g in members}
        if self._n_names is None:
            self._n_names = names
        elif names != self._n_names:
            raise TowerError(
                f"quotient subgroup is not stable: differs at level {k}")
        return members.indices

    def _build_level(self, k):
        blvl = self.base.level(k)
        N = np.array(self._subgroup_at(k), dtype=np.int64)
        all_ids = np.arange(blvl.n, dtype=np.int64)
        inv_all = blvl.inv_vec(all_ids)
        for nn in N.tolist():
            conj = blvl.mul_vec(blvl.mul_vec(inv_all, np.int64(nn)), all_ids)
            bad = ~np.isin(conj, N)
            if bad.any():
                g = int(all_ids[bad][0])
                raise TowerError(
                    f"not normal at level {k}: conjugate of {blvl.names[nn]} "
                    f"by {blvl.names[g]} escapes")
        cosets = blvl.mul_vec(all_ids[:, None], N)  # row g holds the coset gN
        reps, cmap = np.unique(cosets.min(axis=1), return_inverse=True)
        least = [min(blvl.names[g] for g in row) for row in cosets[reps].tolist()]
        order = [0] + sorted(range(1, reps.size), key=least.__getitem__)
        relabel = np.empty(reps.size, dtype=np.int64)
        relabel[order] = np.arange(reps.size)
        cmap = relabel[cmap]
        reps = reps[order]
        names = [f"[{least[i]}]" for i in order]

        def mul_vec(a, b):
            return cmap[blvl.mul_vec(reps[a], reps[b])]

        def inv_vec(a):
            return cmap[blvl.inv_vec(reps[a])]

        def pow_vec(a, e):
            return cmap[blvl.pow_vec(reps[a], e)]

        lvl = Level(reps.size, names, mul_vec, inv_vec,
                    label=f"{self.label or 'quotient'}-level{k}", pow_vec=pow_vec)
        lvl.projection = cmap  # base level id -> coset id
        return lvl

    def theory_names(self, k):
        base_theory = self.base.theory_names(k)
        if base_theory is None:
            return None
        lvl = self.level(k)
        blvl = self.base.level(k)
        if not self._n_names <= base_theory:
            return None  # quotient subgroup is not inside the predicted K
        return {lvl.names[int(lvl.projection[blvl.id_of(nm)])] for nm in base_theory}


def quotient_tower(base, gen_names, *, label=""):
    return QuotientTower(base, gen_names, label=label)


# ---------------------------------------------------------------------------
# eta by levels

@dataclass
class LevelEta:
    level: int
    size: int
    members: list = None  # names, kept only when small


@dataclass
class EtaReport:
    element: str
    tower_kind: str
    per_level: list
    stabilized: bool
    certificate: tuple = None  # (level k*, window w): sets agreed on k*..k*+w
    stable_set: list = None

    def to_json(self):
        doc = {
            "element": self.element,
            "tower_kind": self.tower_kind,
            "per_level": [{"level": pl.level, "size": pl.size,
                           **({"members": pl.members} if pl.members is not None else {})}
                          for pl in self.per_level],
            "stabilized": self.stabilized,
        }
        if self.certificate is not None:
            doc["certificate"] = {"level": self.certificate[0], "window": self.certificate[1]}
        if self.stable_set is not None:
            doc["stable_set"] = self.stable_set
        return doc


@dataclass
class _LevelRoots:
    """One level of the eta stream: its live targets and their ``root_images``."""

    level: Level
    live: np.ndarray  # positions, in the engine's name list, of the names present
    ids: np.ndarray   # their element ids at this level
    ds: np.ndarray
    col_of: np.ndarray
    key: np.ndarray
    P: np.ndarray

    @classmethod
    def of(cls, lvl, names):
        live = np.array([j for j, nm in enumerate(names) if lvl.has(nm)], dtype=np.int64)
        ids = np.array([lvl.id_of(names[j]) for j in live], dtype=np.int64)
        return cls(lvl, live, ids, *root_images(lvl, ids))


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


def _check_coherence(k, emb, lo, hi):
    """Raise CoherenceError unless, for every target present at levels k and k + 1,
    eta at level k is eta at level k + 1 restricted along ``emb``.

    Exact, in n_k x D form.  With g_k, g_(k+1) a target's ids, d its order
    and P the power images of ``root_images``, the checks are: emb(g_k) =
    g_(k+1); ord(emb h) = ord h; emb(P_k[h, d]) = P_(k+1)[emb h, d] on the
    orders both levels hold; and key_k -> key_(k+1)(emb) is a well-defined
    injection (``_keys_inject``).  Then g_k in <h>, which is key_k(P_k[h, d])
    = key_k(g_k), holds iff key_(k+1)(emb P_k[h, d]) = key_(k+1)(emb g_k),
    which is g_(k+1) in <emb h>.  An injective homomorphism satisfies all
    four on correct root images.
    """
    _, a, b = np.intersect1d(lo.live, hi.live, assume_unique=True, return_indices=True)
    if not a.size:
        return
    ok = (np.array_equal(emb[lo.ids[a]], hi.ids[b])
          and np.array_equal(hi.level.orders[emb], lo.level.orders))
    if ok:
        _, i_lo, i_hi = np.intersect1d(lo.ds, hi.ds, assume_unique=True, return_indices=True)
        ok = all(np.array_equal(emb[lo.P[:, i]], hi.P[emb, j]) for i, j in zip(i_lo, i_hi))
    if not (ok and _keys_inject(lo.key, hi.key[emb], hi.level.n)):
        raise CoherenceError(
            f"eta at level {k} disagrees with its restriction from level {k + 1}")


def _eta_engine(tower, names, max_level, window, member_cap):
    """Per-level eta for the named elements, with coherence checks, streamed by levels.

    eta(g) is the complement of the roots of g.  A level is held as
    ``root_images`` of its targets, n x D with D distinct target orders, so
    one ``np.bincount`` of the keys of a column counts the roots of every
    target of that order.  Member lists come from one column.  The root
    images of only two levels, k and k + 1, are held at once: after
    ``_check_coherence`` and equal sizes, the eta sets of a window agree by
    name, so a certificate's stable set is read at the last level of its
    window.
    """
    if window < 1:
        raise TowerError(f"window must be >= 1, got {window}")
    names = list(names)
    k0 = tower.k0
    # every level is built before any is embedded, so a level that fails to
    # build is reported ahead of an embedding fault below it
    levels = [tower.level(k) for k in range(k0, max_level + 1)]
    sizes = [{} for _ in names]  # sizes[j][k] = |eta(names[j])| at level k
    per_level = [[] for _ in names]
    certs = {}  # j -> (certificate, stable set)
    lo = None
    for k, lvl in enumerate(levels, k0):
        hi = _LevelRoots.of(lvl, names)
        if lo is not None:
            _check_coherence(k - 1, tower.embed_ids(k - 1), lo, hi)
        lo = hi
        for i in range(hi.ds.size):
            kp = hi.key[hi.P[:, i]] + 1  # shifted keys of the power images, -1 -> 0
            counts = np.bincount(kp, minlength=lvl.n + 1)
            at = np.flatnonzero(hi.col_of == i)
            for j, kg in zip(hi.live[at].tolist(), (hi.key[hi.ids[at]] + 1).tolist()):
                size = lvl.n - int(counts[kg])
                sizes[j][k] = size
                k_star = k - window
                certified = (j not in certs and k_star in sizes[j]
                             and all(sizes[j][k_star + w] == size for w in range(window)))
                eta = None
                if size <= member_cap or certified:
                    eta = sorted(lvl.names[x] for x in np.flatnonzero(kp != kg).tolist())
                per_level[j].append(LevelEta(k, size, eta if size <= member_cap else None))
                if certified:
                    certs[j] = ((k_star, window), eta)
    reports = {}
    for j, nm in enumerate(names):
        if not per_level[j]:
            raise InvalidElementError(f"element {nm!r} not born by level {max_level}")
        if j in certs:
            reports[nm] = EtaReport(nm, tower.kind, per_level[j], True, *certs[j])
        else:
            reports[nm] = EtaReport(nm, tower.kind, per_level[j], False)
    return reports


def eta_stabilized(tower, name, max_level=DEFAULT_MAX_LEVEL, window=DEFAULT_WINDOW,
                   *, member_cap=DEFAULT_MEMBER_CAP):
    """Level-wise eta for one element, with a stabilization certificate.

    A report that is not stabilized never claims non-membership of K, only
    that eta kept changing within the examined levels.
    """
    if tower.birth_level(name, max_level) is None:
        raise InvalidElementError(f"unknown element name {name!r} up to level {max_level}")
    return _eta_engine(tower, [name], max_level, window, member_cap)[name]


@dataclass
class KReport:
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
    eta_reports: dict = field(default_factory=dict)

    def to_json(self):
        doc = {
            "tower_kind": self.tower_kind,
            "max_level": self.max_level,
            "window": self.window,
            "birth_level": self.birth_level,
            "members": self.members,
            "growing": self.growing,
            "undetermined": self.undetermined,
        }
        if self.theory is not None:
            doc["theory"] = self.theory
            doc["agrees"] = self.agrees
        if self.theory_tag:
            doc["theory_tag"] = self.theory_tag
        return doc


def k_estimate(tower, max_level=DEFAULT_MAX_LEVEL, window=DEFAULT_WINDOW,
               birth_cap=DEFAULT_BIRTH_CAP, *, member_cap=DEFAULT_MEMBER_CAP):
    """Partition the elements born by the birth cap into stabilized and growing.

    Stabilized elements form the K-estimate; when the tower kind predicts the
    answer, the estimate is compared against it and disagreement is reported
    (not raised) -- the classification theorems are the regression alarm.
    """
    bl = min(max(birth_cap, tower.k0), max_level)
    targets = list(tower.level(bl).names)
    reports = _eta_engine(tower, targets, max_level, window, member_cap)
    members, growing, undetermined = [], [], []
    for nm in targets:
        rep = reports[nm]
        if rep.stabilized:
            members.append(nm)
            continue
        tail = [pl.size for pl in rep.per_level][-(window + 1):]
        if all(a < b for a, b in zip(tail, tail[1:])):
            growing.append(nm)
        else:
            undetermined.append(nm)
    theory = tower.theory_names(bl)
    agrees = None
    theory_list = None
    if theory is not None:
        theory_list = sorted(theory & set(targets))
        agrees = set(members) == set(theory_list)
    return KReport(tower.kind, max_level, window, bl,
                   sorted(members), sorted(growing), sorted(undetermined),
                   theory_list, tower.theory_tag, agrees, reports)
