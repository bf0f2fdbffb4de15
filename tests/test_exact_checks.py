"""Exactness of the checks by generators: tables, maps and their memory use.

Associativity is checked as (a*b)*s = a*(b*s) for the generators s of a
table, maps as f(x*s) = f(x)*f(s) for the generators s of the source, and
a T2 level's alpha laws on generators of its base level.
These tests compare both with brute force, plant single defects at sizes
where a sampled check would miss them, and bound the memory the checks use.
"""

import importlib
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rootsets.catalog import cyclic, dihedral, generalized_quaternion, symmetric
from rootsets.cli import build_tower, parse_spec
from rootsets.constructions import CocycleError, CocycleTable
from rootsets.eta import check_lemma32, check_lemma33, check_lemma38, check_lemma39, roots_matrix
from rootsets.kernel import (
    FiniteGroupTable,
    _row_blocks,
    NotHomomorphicError,
    NotNormalError,
    OracleGroup,
    TableFormatError,
    check_normal,
    closure,
    closure_witness,
    direct_product,
    generating_set,
    hom_witness,
    homomorphism,
    loads_table,
    prime_factors,
)
from rootsets.towers import (
    ExtensionConditionsFailed,
    PruferTower,
    QuaternionTower,
    T1Tower,
    T2Tower,
    TowerError,
    example_t2_tower,
    inversion_recipe,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"
ASSOC_ERROR = re.compile(r"associativity fails at \((\d+),(\d+),(\d+)\)")


def reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1, by backtracking."""
    rows = [list(range(n))] + [[i] + [0] * (n - 1) for i in range(1, n)]
    row_used = [0] + [1 << i for i in range(1, n)]
    col_used = [1 << j for j in range(n)]
    col_used[0] = (1 << n) - 1
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield np.array(rows, dtype=np.int64)
            return
        i, j = cells[k]
        free = ~(row_used[i] | col_used[j]) & ((1 << n) - 1)
        while free:
            bit = free & -free
            free ^= bit
            rows[i][j] = bit.bit_length() - 1
            row_used[i] |= bit
            col_used[j] |= bit
            yield from fill(k + 1)
            row_used[i] ^= bit
            col_used[j] ^= bit

    yield from fill(0)


def brute_force_associative(T):
    return np.array_equal(T[T], T[:, T])  # [a, b, c]: (a*b)*c and a*(b*c)


def assert_real_assoc_failure(T, message):
    a, b, c = map(int, ASSOC_ERROR.fullmatch(message).groups())
    assert T[T[a, b], c] != T[a, T[b, c]], message


def quaternion_table(order):
    """The Cayley table of Q_order, built through the quaternion tower's arithmetic."""
    level = int(order).bit_length() - 2
    return QuaternionTower().level(level).group()


class TestTables:
    def test_reduced_latin_squares_accepted_exactly_when_associative(self):
        counts, groups = [], 0
        for n in range(1, 7):
            count = 0
            for T in reduced_latin_squares(n):
                count += 1
                try:
                    FiniteGroupTable(T)
                except TableFormatError as exc:
                    assert not brute_force_associative(T)
                    assert_real_assoc_failure(T, str(exc))
                else:
                    assert brute_force_associative(T)
                    groups += 1
            counts.append(count)
        assert counts == [1, 1, 1, 4, 56, 9408]
        assert groups == 93

    @pytest.mark.parametrize("order", [1024, 2048])
    def test_planted_intercalate_always_rejected(self, order):
        G = quaternion_table(order)
        z = G.id_of("1/2")  # the central involution
        rng = np.random.default_rng(order)
        for _ in range(5):
            a, b = (int(v) for v in rng.choice([g for g in range(1, order) if g != z], 2))
            az, bz = G.mul(a, z), G.mul(b, z)
            T = G.table.copy()
            # rows a, az and columns b, bz form an intercalate: swap its two symbols
            T[a, b], T[a, bz] = T[a, bz], T[a, b]
            T[az, b], T[az, bz] = T[az, bz], T[az, b]
            with pytest.raises(TableFormatError, match="associativity") as exc:
                FiniteGroupTable(T)
            assert_real_assoc_failure(T, str(exc.value))

    def test_bad_column_among_permutation_rows(self):
        T = [[0, 1, 2, 3],
             [1, 0, 3, 2],
             [2, 3, 0, 1],
             [3, 2, 0, 1]]
        with pytest.raises(TableFormatError, match="^column 2 is not a permutation$"):
            FiniteGroupTable(T)

    def test_groups_keep_a_generating_set(self):
        for G in (generalized_quaternion(32), dihedral(6), symmetric(4)):
            assert len(G.generators) <= G.order.bit_length() - 1
            assert len(closure(G, G.generators)) == G.order
            assert G.generators == generating_set(G)

    def test_power(self):
        G = generalized_quaternion(16)
        x = G.id_of("xc1")
        assert [int(G.pow_vec(x, m)) for m in range(5)] == [
            0, x, G.mul(x, x), G.mul(G.mul(x, x), x), 0]


def reference_latin_message(T):
    """The Latin check that sorted each strided ``T.T[block]`` view, kept as
    the reference: the message for the first row, then the first column,
    that is not a permutation, or None for a Latin square."""
    n = len(T)
    idx = np.arange(n)
    for what, rows in (("row", T), ("column", T.T)):
        for block in _row_blocks(n, n):
            bad = np.flatnonzero((np.sort(rows[block], axis=1) != idx).any(axis=1))
            if bad.size:
                return f"{what} {block.start + bad[0]} is not a permutation"
    return None


def table_outcome(T):
    try:
        FiniteGroupTable(T)
    except TableFormatError as exc:
        return str(exc)
    return None


@pytest.fixture(scope="module")
def relabeled_q1024():
    """Q1024 with its elements renumbered, identity kept at 0: its rows and
    columns are 64-row blocks of the Latin check, and no block is sorted."""
    T = generalized_quaternion(1024).table
    rng = np.random.default_rng(1024)
    perm = np.concatenate([[0], 1 + rng.permutation(1023)])  # new -> old
    inv = np.argsort(perm)
    return np.ascontiguousarray(inv[T[perm][:, perm]])


class TestLatinCheck:
    def test_blocks_of_order_1024_are_64_rows(self):
        assert _row_blocks(1024, 1024)[:2] == [slice(0, 64), slice(64, 128)]

    def test_the_relabeled_table_is_a_group(self, relabeled_q1024):
        assert FiniteGroupTable(relabeled_q1024).order == 1024

    @pytest.mark.parametrize("row", [1, 63, 64, 127, 128, 1023])
    def test_a_row_fault_at_a_block_edge(self, relabeled_q1024, row):
        T = relabeled_q1024.copy()
        T[row, 700] = T[row, 5]  # a repeated entry: row and column 700 break
        message = f"row {row} is not a permutation"
        assert reference_latin_message(T) == message
        assert table_outcome(T) == message

    @pytest.mark.parametrize("cols", [(63, 1023), (64, 1023), (1022, 1023), (63, 64),
                                      (1, 1023), (127, 128)])
    @pytest.mark.parametrize("row", [1, 64, 1023])
    def test_a_column_fault_at_a_block_edge(self, relabeled_q1024, cols, row):
        T = relabeled_q1024.copy()
        a, b = cols
        T[row, [a, b]] = T[row, [b, a]]  # rows stay permutations; columns a and b break
        message = f"column {a} is not a permutation"
        assert reference_latin_message(T) == message
        assert table_outcome(T) == message

    def test_a_row_fault_is_reported_before_a_column_fault(self, relabeled_q1024):
        T = relabeled_q1024.copy()
        T[5, [63, 64]] = T[5, [64, 63]]
        T[700, 1023] = T[700, 1]
        assert reference_latin_message(T) == "row 700 is not a permutation"
        assert table_outcome(T) == "row 700 is not a permutation"

    def test_drawn_faults_match_the_reference(self, relabeled_q1024):
        rng = np.random.default_rng(7)
        for _ in range(20):
            T = relabeled_q1024.copy()
            for _ in range(int(rng.integers(1, 4))):
                r, c, c2 = (int(v) for v in rng.integers(1, 1024, 3))
                if rng.random() < 0.5:
                    T[r, c] = T[r, c2]
                else:
                    T[r, [c, c2]] = T[r, [c2, c]]
            expected = reference_latin_message(T)
            assert table_outcome(T) == expected or (
                expected is None and table_outcome(T).startswith("associativity fails"))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_small_table_matches_the_reference(self, n):
        """Every n x n table with identity row 0 and column 0 and entries in range."""
        inner = (n - 1) ** 2
        for code in range(n ** inner):
            T = np.zeros((n, n), dtype=np.int64)
            T[0] = T[:, 0] = np.arange(n)
            T[1:, 1:] = np.array([code // n ** i % n for i in range(inner)],
                                 dtype=np.int64).reshape(n - 1, n - 1)
            expected = reference_latin_message(T)
            got = table_outcome(T)
            if expected is None:
                assert got is None or got.startswith("associativity fails"), T
            else:
                assert got == expected, T


class TestLoadsTable:
    def test_extra_content_lines_rejected(self):
        text = "2\na b\n0 1\n1 0\n1 0\ngarbage here\n"
        with pytest.raises(TableFormatError, match="expected 4 content lines, got 6"):
            loads_table(text)


def assert_real_hom_failure(src, tgt, f, witness):
    x, s = witness
    assert f[src.mul(x, s)] != tgt.mul(f[x], f[s])


class TestForgedMaps:
    def test_forged_embedding_above_order_4096(self, monkeypatch):
        tower = PruferTower(2)
        src, tgt = tower.level(13), tower.level(14)
        assert src.n > 4096
        # element 2 of level 14 is the image of 1/8192; element 3 is outside the image
        true = np.arange(src.n, dtype=np.int64) * 2
        forged = true.copy()
        forged[1] = 3
        monkeypatch.setattr(tower, "embed_vec", lambda k, ids: forged[ids])
        with pytest.raises(TowerError, match="not a homomorphism"):
            tower.embed_ids(13)
        assert np.count_nonzero(forged != true) == 1
        assert_real_hom_failure(src, tgt, forged, hom_witness(src, tgt, forged))

    def test_forged_t2_alpha(self):
        tower = example_t2_tower()
        k = 5
        base = tower.base
        true_alpha = tower._alpha_map(k)
        blvl = base.level(k)
        n = blvl.n
        ids = np.arange(n, dtype=np.int64)

        def brute_is_hom(f):
            a, b = np.repeat(ids, n), np.tile(ids, n)
            return np.array_equal(f[blvl.mul_vec(a, b)], blvl.mul_vec(f[a], f[b]))

        assert brute_is_hom(true_alpha)
        # alpha must stay a bijection fixing the identity, so forge two images
        u, v = 1, n - 1
        forged = true_alpha.copy()
        forged[[u, v]] = forged[[v, u]]
        assert not brute_is_hom(forged)
        tower._alpha_map = lambda level: forged
        with pytest.raises(ExtensionConditionsFailed, match="alpha is not a homomorphism"):
            tower.level(k)
        assert_real_hom_failure(blvl, blvl, forged, hom_witness(blvl, blvl, forged))

    def test_map_lawful_on_the_first_generator_only(self):
        V4, Z4 = direct_product(cyclic(2), cyclic(2)), cyclic(4)
        assert V4.generators == [1, 2]
        # f(x*1) = f(x)*f(1) for every x, but f(2*2) = 0 while f(2)*f(2) = 2
        m = np.array([0, 2, 1, 3], dtype=np.int64)
        with pytest.raises(NotHomomorphicError) as exc:
            homomorphism(V4, Z4, m)
        assert_real_hom_failure(V4, Z4, m, exc.value.witness)

    @pytest.mark.parametrize("G", [generalized_quaternion(16), symmetric(4)],
                             ids=lambda G: G.label)
    def test_forged_homomorphism_image(self, G):
        for x in range(1, G.order):
            m = np.arange(G.order, dtype=np.int64)
            m[x] = 0 if x != 1 else 2
            with pytest.raises(NotHomomorphicError) as exc:
                homomorphism(G, G, m)
            assert_real_hom_failure(G, G, m, exc.value.witness)


def all_elements_conditions(tower, blvl, alpha, y_id, a_id, k):
    """The extension conditions with the C and alpha^2 laws over every
    element, kept as the reference: the failed condition, or None."""
    nb = blvl.n
    if alpha[0] != 0 or len(np.unique(alpha)) != nb:
        return "alpha is not a bijection fixing identity"
    if hom_witness(blvl, blvl, alpha) is not None:
        return "alpha is not a homomorphism"
    c_ids = np.arange(tower.base.c_part_count(k), dtype=np.int64)
    if not np.array_equal(alpha[c_ids], blvl.inv_vec(c_ids)):
        return "alpha does not invert the C part"
    if alpha[y_id] != y_id:
        return "alpha does not fix y"
    g = np.arange(nb, dtype=np.int64)
    conj = blvl.mul_vec(blvl.mul_vec(blvl.inv(y_id), g), y_id)
    if not np.array_equal(alpha[alpha], conj):
        return "alpha squared is not conjugation by y"
    if int(blvl.pow_vec(y_id, tower.m)) != a_id:
        return f"y^{tower.m} is not the involution a"
    return None


def dihedral_t2_tower():
    """An inverting extension of D8 x C whose y = s0 is not central: the
    inversion recipe fixes y, but alpha^2 = 1 is not conjugation by y."""
    base = T1Tower(dihedral(4), 2, 0)
    return T2Tower(base, "s0.0", 1, inversion_recipe(base))


def planted_alphas(tower, k, rng):
    """Candidate automorphisms of base level k: the recipe's alpha, it
    composed with conjugation by every base element, the recipes with other
    offsets and targets, power maps of C, and single swapped images."""
    blvl = tower.base.level(k)
    ids = np.arange(blvl.n, dtype=np.int64)
    alpha = tower._alpha_map(k)
    yield alpha
    for b in ids.tolist():
        yield alpha[blvl.mul_vec(blvl.mul_vec(blvl.inv(b), ids), b)]
    recipe, reps = tower.recipe, tower.base.transversal_names()
    for t_img in ([0] * len(reps), list(range(len(reps))), list(range(len(reps)))[::-1]):
        for off in ((0, 1), (1, 2), (1, 4), (3, 4), (1, 8)):
            for at, nm in enumerate(reps):
                tower.recipe = {**recipe, nm: (reps[t_img[at]], off)}
                try:
                    yield tower._alpha_map(k)
                except TowerError:  # an offset level k cannot express
                    pass
    tower.recipe = recipe
    ck = tower.base.c_part_count(k)
    t, m = np.divmod(ids, ck)
    for u in (1, 3, ck // 2 - 1, ck // 2 + 1, ck - 1):
        yield t * ck + (u * m) % ck
    for u, v in [(0, 1), (1, blvl.n - 1)] + rng.integers(1, blvl.n, size=(12, 2)).tolist():
        forged = alpha.copy()
        forged[[u, v]] = forged[[v, u]]
        yield forged


class TestExtensionConditions:
    """``T2Tower._check_conditions`` checks the C and alpha^2 laws on
    generators; its verdict and message must equal the all-elements form."""

    LAWS = {"alpha is not a bijection fixing identity", "alpha is not a homomorphism",
            "alpha does not invert the C part", "alpha does not fix y"}

    @pytest.mark.parametrize("make,levels,outcomes", [
        (lambda: build_tower(parse_spec((SPECS / "t2.json").read_text(encoding="utf-8"))),
         range(2, 9), LAWS | {"y^3 is not the involution a", None}),
        (example_t2_tower, range(2, 9), LAWS | {"y^3 is not the involution a", None}),
        (dihedral_t2_tower, range(2, 5), LAWS | {"alpha squared is not conjugation by y"}),
    ], ids=["t2", "example-t2", "dihedral-t2"])
    def test_by_generators_equals_all_elements(self, make, levels, outcomes):
        tower, rng = make(), np.random.default_rng(17)
        seen = set()
        for k in levels:
            if k > tower.base.k0:
                tower.base.embed_ids(k - 1)  # base level k inherits, as when a level is built
            blvl = tower.base.level(k)
            y_id, a_id = blvl.id_of(tower.y_name), blvl.id_of(tower.a_name)
            for m in (tower.m, tower.m + 1):
                tower.m = m
                for alpha in planted_alphas(tower, k, rng):
                    expected = all_elements_conditions(tower, blvl, alpha, y_id, a_id, k)
                    try:
                        tower._check_conditions(blvl, alpha, y_id, a_id, k)
                        got = None
                    except ExtensionConditionsFailed as exc:
                        got = exc.condition
                        assert exc.level == k
                    assert got == expected, (k, alpha)
                    seen.add(expected)
            tower.m -= 1
        assert seen == outcomes

    @pytest.mark.parametrize("image", [-1, 64, 1000, "63 as -1", "one more"])
    def test_an_image_out_of_range_is_not_a_bijection(self, image):
        tower = example_t2_tower()
        alpha = tower._alpha_map(5)
        assert alpha.size == 64
        if image == "63 as -1":  # -1 would index 63, so every id is still hit
            alpha[alpha == 63] = -1
        elif image == "one more":  # 65 images: every id is hit, one twice
            alpha = np.append(alpha, 5)
        else:
            alpha[7] = image
        tower._alpha_map = lambda level: alpha
        with pytest.raises(ExtensionConditionsFailed,
                           match="^extension condition failed at level 5: "
                                 "alpha is not a bijection fixing identity$"):
            tower.level(5)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


eta_module = importlib.import_module("rootsets.eta")  # ``rootsets.eta`` is also a function


def reference_light(T):
    """Light's test as the per-generator loop over ``_row_blocks`` with
    ``np.argwhere``, kept as the reference: its message, or None."""
    n = len(T)
    for s in generating_set(OracleGroup(n, None, lambda a, b: T[a, b], None)):
        col = T[:, s]
        for rows in _row_blocks(n, n):
            left = col[T[rows]]
            right = T[rows].take(col, axis=1)
            if not np.array_equal(left, right):
                a, b = map(int, np.argwhere(left != right)[0])
                return f"associativity fails at ({rows.start + a},{b},{s})"
    return None


def forged_cyclic(n, a0, b0):
    """Z_n with one forged product: a0 * b0 = 1."""
    return OracleGroup(n, [str(i) for i in range(n)],
                       lambda a, b: np.where((a == a0) & (b == b0), 1, (a + b) % n),
                       lambda a: (-a) % n)


def reference_closure_witness(G, S):
    inside = np.zeros(G.order, dtype=bool)
    inside[S] = True
    for rows in _row_blocks(S.size, S.size):
        bad = np.argwhere(~inside[G.mul_vec(S[rows, None], S)])
        if bad.size:
            return int(S[rows.start + bad[0, 0]]), int(S[bad[0, 1]])
    return None


def reference_normal_witness(G, N):
    inside = np.zeros(G.order, dtype=bool)
    inside[N] = True
    g = np.arange(G.order, dtype=np.int64)[:, None]
    for rows in _row_blocks(G.order, N.size):
        bad = np.argwhere(~inside[G.mul_vec(G.mul_vec(G.inv_vec(g[rows]), N), g[rows])])
        if bad.size:
            return rows.start + int(bad[0, 0]), int(N[bad[0, 1]])
    return None


def reference_cocycle_witness(base, p, w):
    """The cocycle identity as one n x n comparison per generator."""
    tab = base.table
    for z in base.generators:
        bad = (w[tab, z] + w - w[:, tab[:, z]] - w[:, z]) % p != 0
        if bad.any():
            x, y = map(int, np.argwhere(bad)[0])
            return base.names[x], base.names[y], base.names[z]
    return None


def reference_lemma32(G, R):
    Ri = R.astype(np.int64)
    bad = ((Ri @ Ri) > 0) & ~R
    if bad.any():
        x1, x3 = map(int, np.argwhere(bad)[0])
        return [("root-relation-transitive", False, (G.names[x1], G.names[x3]))]
    return [("root-relation-transitive", True, None)]


def reference_lemma39(G, p, R):
    through = (R.astype(np.int64) @ R.astype(np.int64)) > 0
    bad = ~R[:, G.pow_vec(np.arange(G.order), p)] & through
    wit = None
    if bad.any():
        x = int(np.flatnonzero(bad.any(axis=0))[0])
        g = int(np.flatnonzero(bad[:, x])[0])
        y = int(np.flatnonzero(R[g] & R[:, x])[0])
        wit = (G.names[x], G.names[g], G.names[y])
    return [("lemma39", wit is None, wit)]


def reference_lemma33(G, R):
    """The conjugation loop, one map per h, stopped at the first h whose
    conjugation fixes some <a> but not eta(a)."""
    idx = np.arange(G.order)
    for h in G.elements():
        P = G.mul_vec(G.mul_vec(G.inv(h), idx), h)
        bad = (R[:, P] == R).all(axis=1) & ~(R[P, :] == R).all(axis=0)
        if bad.any():
            a = int(np.flatnonzero(bad)[0])
            return [("inner-automorphism-invariance", False, (G.names[h], G.names[a]))]
    return [("inner-automorphism-invariance", True, None)]


def reference_lemma38(G, R):
    idx = np.arange(G.order)
    ah = G.mul_vec(idx[:, None], idx)
    orders = G.orders
    p = np.zeros(G.order, dtype=np.int64)
    for d in np.unique(orders).tolist():
        if len(primes := list(prime_factors(d))) == 1:
            p[orders == d] = primes[0]
    Ri = R.astype(np.int64)
    asked = (ah == ah.T) & (p[:, None] > 0) & ~R.T
    predicted = np.gcd(p[:, None], orders // (Ri @ Ri.T)) == 1
    bad = np.argwhere(asked & (predicted != R[ah, idx[:, None]]))
    if bad.size:
        a, h = map(int, bad[0])
        return [("closed-form-vs-brute-force", False, (G.names[a], G.names[h]))]
    return [("closed-form-vs-brute-force", True, None)]


def reference_hom_witness(source, target, f):
    """The homomorphism scan with one row of every x per generator, kept as
    the reference."""
    if f[0] != 0:
        return (0, 0)
    x = np.arange(f.size, dtype=np.int64)
    for s in source.generators:
        bad = f[source.mul_vec(x, s)] != target.mul_vec(f, f[s])
        if bad.any():
            return int(np.flatnonzero(bad)[0]), s
    return None


def swapped(G, i, j):
    """G with the ids i and j exchanged."""
    perm = np.arange(G.order)
    perm[[i, j]] = [j, i]
    names = list(G.names)
    names[i], names[j] = names[j], names[i]
    return FiniteGroupTable(perm[G.table][np.ix_(perm, perm)], names, label=G.label)


def summary(rep):
    return [(a.name, a.status == "pass", a.witness) for a in rep.assertions]


class TestBlockEdges:
    """Every first-failure scan is one blocked ``first_witness``.  A single
    defect whose first witness is on the last row of block 1, or the first
    row of block 2, must give the witness of a copy of the scan each check
    replaced."""

    @pytest.mark.parametrize("row", [63, 64])
    def test_light_on_an_order_1024_table(self, row):
        n = 1024
        assert _row_blocks(n, n)[1].start == 64
        i = np.arange(n)
        T = (i[:, None] + i) % n
        # rows row, row + 512 and columns b, b + 512 form an intercalate: swap its two symbols
        r2, b, b2 = row + 512, 700, 188
        T[row, b], T[row, b2] = T[row, b2], T[row, b]
        T[r2, b], T[r2, b2] = T[r2, b2], T[r2, b]
        message = reference_light(T)
        assert message is not None and message.startswith(f"associativity fails at ({row},")
        assert table_outcome(T) == message

    @pytest.mark.parametrize("g0", [1023, 1024])
    def test_check_normal(self, g0):
        N = np.arange(0, 3072, 48, dtype=np.int64)  # 64 members: blocks of 1024 rows
        n0 = int(N[5])
        # g0^-1 n0 g0 = 1, outside N; g0 is outside N, so no other product is forged
        G = forged_cyclic(3072, (n0 - g0) % 3072, g0)
        assert _row_blocks(G.order, N.size)[1].start == 1024
        assert reference_normal_witness(G, N) == (g0, n0)
        with pytest.raises(NotNormalError) as exc:
            check_normal(G, N)
        assert exc.value.witness == (g0, n0)

    @pytest.mark.parametrize("row", [31, 32])
    def test_closure_witness(self, row):
        S = np.arange(0, 4096, 2, dtype=np.int64)  # 2048 members: blocks of 32 rows
        G = forged_cyclic(4096, int(S[row]), int(S[5]))
        assert _row_blocks(S.size, S.size)[1].start == 32
        assert closure_witness(G, S) == reference_closure_witness(G, S) == (int(S[row]), 10)

    @pytest.mark.parametrize("x0", [127, 128])
    def test_cocycle_identity_on_an_order_512_base(self, x0):
        base = cyclic(512)
        assert _row_blocks(512, 512)[1].start == 128
        w = np.zeros((512, 512), dtype=np.int64)
        w[x0, 300] = 1
        expected = reference_cocycle_witness(base, 2, w)
        assert expected is not None and expected[0] == base.names[x0]
        with pytest.raises(CocycleError, match="cocycle identity fails") as exc:
            CocycleTable.of(base, 2, w)
        assert exc.value.witness == expected

    @pytest.mark.parametrize("y", [65536, 65537])
    def test_hom_witness_on_one_generator(self, y):
        """Z_(2^17) has the one generator 1, and a forged image y fails first
        at x = y - 1: the last pair of block 1, or the first of block 2."""
        G = PruferTower(2).level(17)
        assert G.generators == [1] and _row_blocks(G.n, 1)[1].start == 65536
        f = np.arange(G.n, dtype=np.int64)
        f[y] = y + 1
        assert hom_witness(G, G, f) == reference_hom_witness(G, G, f) == (y - 1, 1)

    @pytest.mark.parametrize("forge,witness", [("last-pairs-of-c", (65534, 1)),
                                               ("first-pairs-of-x", (1, 32768))])
    def test_hom_witness_between_generators(self, forge, witness):
        """Q65536 has the generators c = 1 and x = 32768, one block each.  A
        forged image of x c^-1 fails first two pairs before the boundary; the
        map x^e c^m -> c^m keeps every law for c, and fails first for x at
        c, the first pair after it that can fail."""
        G = QuaternionTower().level(15)
        assert G.generators == [1, 32768] and _row_blocks(2 * G.n, 1)[1].start == G.n
        f = np.arange(G.n, dtype=np.int64)
        if forge == "last-pairs-of-c":
            f[-1] = 0
        else:
            f %= 32768
        assert hom_witness(G, G, f) == reference_hom_witness(G, G, f) == witness

    @pytest.fixture(scope="class")
    def q512_at_edges(self):
        """Q512 with an element of order 4 moved to row 127, and to row 128."""
        G = generalized_quaternion(512)
        return {row: swapped(G, row, G.id_of("xc5")) for row in (127, 128)}

    @pytest.mark.parametrize("suite", ["3.2", "3.3", "3.8", "3.9"])
    @pytest.mark.parametrize("row", [127, 128])
    def test_lemma_suites_on_q512(self, row, suite, q512_at_edges, monkeypatch):
        G = q512_at_edges[row]
        assert G.orders[row] == 4 and _row_blocks(512, 512)[1].start == 128
        R = roots_matrix(G).copy()
        if suite == "3.3":
            # c becomes a power of c^2: of the h normalizing <c>, the first
            # not commuting with c^2 is row, the first element outside <c>
            R[G.id_of("c2"), G.id_of("c1")] = True
        else:
            # 3.2 and 3.8: row is no longer in <row>; 3.9: row^2 is no longer in <row>
            R[row, int(G.pow_vec(row, 2)) if suite == "3.9" else row] = False
        monkeypatch.setattr(eta_module, "roots_matrix", lambda _: R)
        got, expected = {
            "3.2": lambda: (summary(check_lemma32(G)), reference_lemma32(G, R)),
            "3.3": lambda: (summary(check_lemma33(G)), reference_lemma33(G, R)),
            "3.8": lambda: (summary(check_lemma38(G)), reference_lemma38(G, R)),
            "3.9": lambda: (summary(check_lemma39(G, 2)), reference_lemma39(G, 2, R)),
        }[suite]()
        witness = expected[0][2]
        assert witness is not None and witness[0] == G.names[row]
        assert got == expected


class TestMemory:
    def test_order_2048_validation_memory(self):
        G = quaternion_table(2048)
        table, names = G.table, G.names
        peak = _peak_bytes(lambda: FiniteGroupTable(table, names))
        assert peak < table.nbytes / 4

    def test_heisenberg_amalgam_embedding_memory(self):
        tower = build_tower(parse_spec((SPECS / "heis_t1.json").read_text(encoding="utf-8")))
        peak = _peak_bytes(lambda: tower.embed_ids(5))
        assert peak < 16 * 2 ** 20

    def test_heisenberg_amalgam_embedding_memory_at_level_10(self):
        """n = 531,441 into 1,594,323: unblocked, the powers of g took
        embed_ids to 92 MB and the scan's rows took hom_witness to 33 MB."""
        tower = build_tower(parse_spec((SPECS / "heis_t1.json").read_text(encoding="utf-8")))
        tower.embed_ids(9)  # level 10 inherits its generators
        src, tgt = tower.level(10), tower.level(11)
        emb = tower.embed_vec(10, np.arange(src.n, dtype=np.int64))
        assert _peak_bytes(lambda: hom_witness(src, tgt, emb)) < 10 * 2 ** 20
        assert _peak_bytes(lambda: tower.embed_ids(10)) < 20 * 2 ** 20

    @pytest.mark.parametrize("suite,bound_mb", [("3.2", 1), ("3.3", 1), ("3.9", 1), ("3.8", 5)])
    def test_lemma_suite_memory_on_q512(self, suite, bound_mb):
        G = generalized_quaternion(512)
        run = {"3.2": lambda: check_lemma32(G), "3.3": lambda: check_lemma33(G),
               "3.9": lambda: check_lemma39(G, 2), "3.8": lambda: check_lemma38(G)}[suite]
        assert _peak_bytes(run) < bound_mb * 2 ** 20
