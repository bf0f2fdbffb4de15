"""Maps are index arrays, checked by ``first_witness`` scans over the
generators, and a refused map keeps the witness its check found.

``hom_witness`` is compared with test-local copies of the scans it
replaced: the pair scan, which took the pairs (s, x) s-major as one column
and split each pair index with a divmod, and the per-generator scan, one
``first_witness`` scan over the x for each generator in turn.  Planted
single faults at block edges, under the first and last generator and
under the first generator of a second block of generators must give the
same witness.
"""

from pathlib import Path

import numpy as np
import pytest

from rootsets.catalog import corpus, dihedral
from rootsets.kernel import (
    BLOCK_ENTRIES,
    NameView,
    NotBijectiveError,
    NotHomomorphicError,
    OracleGroup,
    collision_witness,
    first_witness,
    hom_witness,
    homomorphism,
    validate_automorphism,
)
from rootsets.cli import build_tower, parse_spec
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


def reference_pair_scan(source, target, f):
    """The pair scan ``hom_witness`` replaced: |S| n rows of one column, s-major,
    each block's pair indices split by a divmod; kept as the reference."""
    if f[0] != 0:
        return (0, 0)
    S = np.asarray(source.generators, dtype=np.int64)

    def bad(rows):
        s, x = np.divmod(np.arange(rows.start, rows.stop, dtype=np.int64), f.size)
        return f[source.mul_vec(x, S[s])] != target.mul_vec(f[x], f[S[s]])

    wit = first_witness(S.size * f.size, 1, bad)
    return None if wit is None else (int(wit[0] % f.size), source.generators[wit[0] // f.size])


def reference_generator_scan(source, target, f):
    """The per-generator scan: one ``first_witness`` scan over the x in
    blocks for each generator in turn, whatever the source's size; kept as
    the reference for both of ``hom_witness``'s block shapes."""
    if f[0] != 0:
        return (0, 0)

    def bad(s, rows):
        x = np.arange(rows.start, rows.stop, dtype=np.int64)
        return f[source.mul_vec(x, s)] != target.mul_vec(f[rows], f[s])

    for s in source.generators:
        if (wit := first_witness(f.size, 1, lambda rows: bad(s, rows))) is not None:
            return wit[0], s
    return None


def assert_real_failure(source, target, f, witness):
    x, s = witness
    assert f[source.mul(x, s)] != target.mul(f[x], f[s])


@pytest.fixture(scope="module")
def quat16():
    """Q_(2^17), n = 131,072 = two blocks of x, with generators c = 1 and x = 65,536."""
    G = QuaternionTower().level(16)
    assert G.n == 2 * BLOCK_ENTRIES and G.generators == [1, BLOCK_ENTRIES]
    return G


@pytest.mark.parametrize("x0", [0, 65535, 65536, 131071])
def test_a_single_wrong_image_at_a_block_edge(quat16, x0):
    f = np.arange(quat16.n, dtype=np.int64)
    f[x0] = (x0 + 1) % quat16.n
    witness = hom_witness(quat16, quat16, f)
    assert witness == reference_pair_scan(quat16, quat16, f)
    if x0 == 0:
        assert witness == (0, 0)
    else:
        assert witness[1] == quat16.generators[0]  # c's law reaches x0, from x0 c^-1
        assert_real_failure(quat16, quat16, f, witness)


class ForgedProduct:
    """``G`` with the one product a*b moved to another id: as a target, it
    breaks exactly the law of the pair (a, b) for the identity map."""

    def __init__(self, G, a, b):
        self.G, self.a, self.b = G, a, b

    def mul_vec(self, a, b):
        out = self.G.mul_vec(a, b)
        return np.where((np.asarray(a) == self.a) & (np.asarray(b) == self.b),
                        (out + 1) % self.G.order, out)


@pytest.mark.parametrize("s", ["first", "last"])
@pytest.mark.parametrize("x0", [0, 65535, 65536, 131071])
def test_a_fault_under_one_generator_at_a_block_edge(quat16, x0, s):
    s = quat16.generators[0 if s == "first" else -1]
    f = np.arange(quat16.n, dtype=np.int64)
    assert hom_witness(quat16, quat16, f) is None
    target = ForgedProduct(quat16, x0, s)
    assert hom_witness(quat16, target, f) == reference_pair_scan(quat16, target, f) == (x0, s)


def test_a_fault_under_each_of_three_generators():
    G = corpus()["Heis27"]
    assert G.generators == [1, 3, 9]
    f = np.arange(G.order, dtype=np.int64)
    for s in G.generators:
        for x0 in range(G.order):
            target = ForgedProduct(G, x0, s)
            assert hom_witness(G, target, f) == reference_pair_scan(G, target, f) == (x0, s)


@pytest.mark.parametrize("name", list(corpus()))
def test_the_corpus(name):
    """The identity, inversion, and each with every single wrong image of
    three, on each corpus group."""
    G = corpus()[name]
    ids = np.arange(G.order, dtype=np.int64)
    maps = [ids, np.array(G.inv_vec(ids))]
    for base in maps[:2]:
        for x0 in range(G.order):
            for image in {0, (int(base[x0]) + 1) % G.order, G.order - 1}:
                f = base.copy()
                f[x0] = image
                maps.append(f)
    for f in maps:
        witness = hom_witness(G, G, f)
        assert witness == reference_pair_scan(G, G, f), (name, f)
        if witness is not None and witness != (0, 0):
            assert_real_failure(G, G, f, witness)


@pytest.fixture(scope="module")
def quat_18_to_19():
    tower = QuaternionTower()
    return tower.level(18), tower.level(19), tower.embed_ids(18)


@pytest.mark.parametrize("x0", [None, 0, 65535, 65536, 262143, 262144, 524287])
def test_quat_18_to_19(quat_18_to_19, x0):
    src, tgt, emb = quat_18_to_19
    f = np.array(emb)
    if x0 is not None:
        f[x0] = emb[(x0 + 1) % src.n]
    witness = hom_witness(src, tgt, f)
    assert witness == reference_pair_scan(src, tgt, f)
    assert (witness is None) == (x0 is None)


# ---------------------------------------------------------------------------
# the two block shapes: |S| x n rows up to BLOCK_ENTRIES elements, then one
# scan per generator

class CountingMul:
    """``G`` with its ``mul_vec`` calls counted."""

    def __init__(self, G):
        self.G, self.generators, self.calls = G, G.generators, 0

    def mul_vec(self, a, b):
        self.calls += 1
        return self.G.mul_vec(a, b)


@pytest.fixture(scope="module")
def prufer_16_17():
    """Prüfer levels 16 and 17: n = BLOCK_ENTRIES, the largest source
    scanned in one block of generators, and n = 2 BLOCK_ENTRIES, scanned one
    generator at a time."""
    tower = PruferTower(2)
    src, tgt = tower.level(16), tower.level(17)
    assert (src.n, tgt.n) == (BLOCK_ENTRIES, 2 * BLOCK_ENTRIES)
    return src, tgt, tower.embed_ids(16)


@pytest.mark.parametrize("x0", [None, 1, BLOCK_ENTRIES // 2, BLOCK_ENTRIES - 1])
def test_prufer_16_to_17(prufer_16_17, x0):
    src, tgt, emb = prufer_16_17
    f = np.array(emb)
    if x0 is not None:
        f[x0] = emb[(x0 + 1) % src.n]
    witness = hom_witness(src, tgt, f)
    assert witness == reference_generator_scan(src, tgt, f)
    assert (witness is None) == (x0 is None)


def cyclic_oracle(n, generators):
    """Z/n by addition, with the generating set ``generators``."""
    G = OracleGroup(n, NameView(n, lambda ids: [str(i) for i in ids.tolist()]),
                    lambda a, b: (a + b) % n, lambda a: -a % n)
    G.generators = generators
    return G


@pytest.mark.parametrize("n", [BLOCK_ENTRIES - 1, BLOCK_ENTRIES, BLOCK_ENTRIES + 1])
@pytest.mark.parametrize("i", [0, 1, 2])
@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_a_fault_on_either_side_of_one_block(n, i, at):
    """Z/n with generators 1, 3 and 5 on both sides of n = BLOCK_ENTRIES,
    with the product of the first, a middle or the last x and one
    generator forged in the target."""
    G = cyclic_oracle(n, [1, 3, 5])
    x0 = {"first": 0, "middle": n // 2, "last": n - 1}[at]
    f = np.arange(n, dtype=np.int64)
    assert hom_witness(G, G, f) is None
    s = G.generators[i]
    target = ForgedProduct(G, x0, s)
    assert hom_witness(G, target, f) == reference_generator_scan(G, target, f) == (x0, s)


@pytest.fixture(scope="module")
def z2_13():
    """(Z/2)^13 by xor: n = 8,192, so a block of |S| x n rows holds
    BLOCK_ENTRIES / n = 8 of its 13 generators, and the second block starts
    at the ninth."""
    n = 1 << 13
    G = OracleGroup(n, NameView(n, lambda ids: [str(i) for i in ids.tolist()]),
                    np.bitwise_xor, lambda a: a)
    assert G.generators == [1 << i for i in range(13)]
    return G


@pytest.mark.parametrize("i", [0, 7, 8, 12])
@pytest.mark.parametrize("x0", [0, 1, 4095, 8191])
def test_a_fault_under_a_generator_at_a_row_block_edge(z2_13, i, x0):
    """Generators 7 and 8 end the first row block and start the second."""
    G = z2_13
    s = G.generators[i]
    f = np.arange(G.n, dtype=np.int64)
    target = ForgedProduct(G, x0, s)
    assert hom_witness(G, target, f) == reference_generator_scan(G, target, f) == (x0, s)


def test_faults_in_both_row_blocks_name_the_first_generator(z2_13):
    """The first failing s wins over an earlier x under a later s."""
    G, f = z2_13, np.arange(z2_13.n, dtype=np.int64)
    f[5] = 6  # breaks s = 1 at x = 4, and every s that reaches 5
    witness = hom_witness(G, G, f)
    assert witness == reference_generator_scan(G, G, f) == reference_pair_scan(G, G, f)
    assert witness[1] == G.generators[0]


@pytest.mark.parametrize("name, blocks", [("Heis27", 1), ("Z2^13", 2)])
def test_a_small_source_takes_its_generators_in_blocks(z2_13, name, blocks):
    """One product in the source and one in the target per block of
    generators: Heis27's three are one block, where the per-generator scan
    takes three products each side, and (Z/2)^13's thirteen are two."""
    G = z2_13 if name == "Z2^13" else corpus()[name]
    src, tgt = CountingMul(G), CountingMul(G)
    assert hom_witness(src, tgt, np.arange(G.order, dtype=np.int64)) is None
    assert (src.calls, tgt.calls) == (blocks, blocks)


SPECS = Path(__file__).resolve().parent.parent / "specs"


@pytest.mark.parametrize("name", ["heis_t1", "t2"])
def test_forged_maps_on_tower_levels(name):
    """Levels 1..7 (from k0), each embedding with one image moved, and with
    the product of one x and each generator forged in the target."""
    tower = build_tower(parse_spec((SPECS / f"{name}.json").read_text(encoding="utf-8"),
                                   SPECS), SPECS)
    rng = np.random.default_rng(len(name))
    for k in range(max(tower.k0, 1), 8):
        src, tgt, emb = tower.level(k), tower.level(k + 1), tower.embed_ids(k)
        for x0 in [1, src.n - 1] + rng.choice(src.n, size=4).tolist():
            f = np.array(emb)
            f[x0] = emb[(x0 + 1) % src.n]
            witness = hom_witness(src, tgt, f)
            assert witness is not None and witness == reference_generator_scan(src, tgt, f)
            assert_real_failure(src, tgt, f, witness)
            for s in src.generators:
                target = ForgedProduct(tgt, int(emb[x0]), int(emb[s]))
                assert hom_witness(src, target, emb) \
                    == reference_generator_scan(src, target, emb) == (x0, s), (k, x0, s)


# ---------------------------------------------------------------------------
# a map that is not 1-D

@pytest.mark.parametrize("mapping, message", [
    (5, "map has shape (), expected (4,)"),
    ([[0, 1], [2, 3]], "map has shape (2, 2), expected (4,)"),
    (np.zeros((4, 1), dtype=np.int64), "map has shape (4, 1), expected (4,)"),
    ([0, 1, 2], "map has length 3, expected 4"),
])
def test_a_map_that_is_not_one_dimensional_is_refused(mapping, message):
    Z4 = corpus()["Z4"]
    with pytest.raises(NotHomomorphicError) as exc:
        homomorphism(Z4, Z4, mapping)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# refusals keep the witness they found

def first_collision(f):
    """The least y with an x < y of the same image, and that x (there is
    one: a second would be a smaller y)."""
    first = {}
    for y, v in enumerate(f.tolist()):
        if v in first:
            return first[v], y
        first[v] = y
    return None


@pytest.mark.parametrize("level,pairs", [
    (5, [(3, 7)]),
    (5, [(3, 20), (9, 11)]),
    (5, [(0, 31)]),
    (17, [(5, 65535)]),
    (17, [(65535, 65536)]),
    (17, [(12, 131071), (70000, 100000)]),
])
def test_an_embedding_that_is_not_injective_names_its_first_collision(level, pairs):
    tower = PruferTower(2)
    src = tower.level(level)
    forged = np.arange(src.n, dtype=np.int64) * 2
    for x, y in pairs:
        forged[y] = forged[x]
    tower.embed_vec = lambda k, ids: forged[ids]
    with pytest.raises(TowerError, match=f"^embedding at level {level} is not injective$") as exc:
        tower.embed_ids(level)
    assert exc.value.witness == first_collision(forged)
    x, y = exc.value.witness
    assert x < y and forged[x] == forged[y]


@pytest.mark.parametrize("level,x0", [(13, 1), (17, 65535), (17, 65536), (17, 131071)])
def test_an_embedding_that_is_not_a_homomorphism_names_its_pair(level, x0):
    tower = PruferTower(2)
    src, tgt = tower.level(level), tower.level(level + 1)
    forged = np.arange(src.n, dtype=np.int64) * 2
    forged[x0] = 2 * x0 + 1  # outside the image: still injective
    tower.embed_ids(level - 1)  # the chain below is checked first
    tower.embed_vec = lambda k, ids: forged[ids]
    with pytest.raises(TowerError, match=f"^embedding at level {level} is not a homomorphism$") \
            as exc:
        tower.embed_ids(level)
    assert exc.value.witness == reference_pair_scan(src, tgt, forged)
    assert_real_failure(src, tgt, forged, exc.value.witness)


def test_alpha_not_a_homomorphism_names_its_pair():
    D4 = dihedral(4)
    base = T1Tower(D4, 2, D4.id_of("r2"))
    # swapping r1 and s0 cannot extend to an automorphism
    recipe = {"r0": ("r0", (0, 1)), "r1": ("s0", (0, 1)),
              "s0": ("r1", (0, 1)), "s1": ("s1", (0, 1))}
    tower = T2Tower(base, "r0.1/2", 1, recipe)
    with pytest.raises(ExtensionConditionsFailed) as exc:
        tower.level(2)
    assert exc.value.condition == "alpha is not a homomorphism"
    assert str(exc.value) == "extension condition failed at level 2: alpha is not a homomorphism"
    blvl, alpha = base.level(2), tower._alpha_map(2)
    assert exc.value.witness == reference_pair_scan(blvl, blvl, alpha)
    assert_real_failure(blvl, blvl, alpha, exc.value.witness)


@pytest.mark.parametrize("y", ["s0.0", "s1.0"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_alpha_squared_names_its_first_generator(k, y):
    """The inversion recipe on D8 x C with y = s0 or s1 fixes y, but
    alpha^2 = 1 is not conjugation by the non-central y: conjugation by s0
    moves one generator of the base level, and by s1 two."""
    base = T1Tower(dihedral(4), 2, 0)
    tower = T2Tower(base, y, 1, inversion_recipe(base))
    if k > base.k0:
        base.embed_ids(k - 1)
    with pytest.raises(ExtensionConditionsFailed) as exc:
        tower.level(k)
    assert exc.value.condition == "alpha squared is not conjugation by y"
    blvl, alpha = base.level(k), tower._alpha_map(k)
    y = blvl.id_of(y)
    conj = [int(blvl.mul(blvl.mul(blvl.inv(y), s), y)) for s in blvl.generators]
    failing = [s for s, c in zip(blvl.generators, conj) if alpha[alpha[s]] != c]
    assert exc.value.witness == (failing[0],)


# ---------------------------------------------------------------------------
# one injectivity witness, read only once a cheaper test has failed

def colliding(n, pairs):
    """0 .. n - 1 with f[y] = f[x] for each (x, y) of ``pairs``."""
    f = np.arange(n, dtype=np.int64)
    for x, y in pairs:
        f[y] = f[x]
    return f


@pytest.mark.parametrize("f", [
    colliding(1, []), colliding(40, []), colliding(2, [(0, 1)]), colliding(40, [(39, 38)]),
    colliding(40, [(3, 20), (9, 11)]), colliding(40, [(20, 3)]),
    colliding(3 * BLOCK_ENTRIES, [(5, BLOCK_ENTRIES - 1)]),
    colliding(3 * BLOCK_ENTRIES, [(BLOCK_ENTRIES - 1, BLOCK_ENTRIES)]),
    colliding(3 * BLOCK_ENTRIES,
              [(7, 3 * BLOCK_ENTRIES - 1), (2 * BLOCK_ENTRIES, 2 * BLOCK_ENTRIES + 1)]),
    np.array([5, -1, 5, -1]), np.array([9, 9, 9]), np.array([3.5, 1.0, 3.5]),
], ids=["one", "none", "two", "descending", "two-pairs", "reversed",
        "block-0", "block-edge", "blocks-1-and-2", "negative", "constant", "float"])
def test_collision_witness_is_the_first_collision(f):
    assert collision_witness(f) == first_collision(f)


@pytest.mark.parametrize("name", ["Z8", "S3", "Q16", "Heis27"])
def test_a_map_that_is_not_a_bijection_names_its_first_collision(name):
    G = corpus()[name]
    rng = np.random.default_rng(G.order)
    for x, y in [(0, 1), (0, G.order - 1), (G.order - 2, G.order - 1)] + [
            tuple(sorted(rng.choice(G.order, size=2, replace=False).tolist())) for _ in range(6)]:
        m = colliding(G.order, [(x, y)])
        with pytest.raises(NotBijectiveError, match="^map is not a bijection$") as exc:
            validate_automorphism(G, m)
        assert exc.value.witness == first_collision(m) == (x, y)
    m = colliding(G.order, [])[::-1].reshape(1, -1)  # one row: pairs index it flat
    m[0, :2] = 7
    with pytest.raises(NotBijectiveError) as exc:
        validate_automorphism(G, m)
    assert exc.value.witness == first_collision(m.reshape(-1)) == (0, 1)


def forged_alpha(tower, k, edit):
    alpha = tower._alpha_map(k)
    edit(alpha)
    tower._alpha_map = lambda level: alpha
    with pytest.raises(ExtensionConditionsFailed,
                       match=f"^extension condition failed at level {k}: "
                             "alpha is not a bijection fixing identity$") as exc:
        tower.level(k)
    return alpha, exc.value.witness


@pytest.mark.parametrize("k, x, y", [(2, 1, 2), (5, 3, 63), (5, 0, 32), (9, 700, 1023)])
def test_an_alpha_that_collides_names_its_first_collision(k, x, y):
    def edit(alpha):
        alpha[y] = alpha[x]
    alpha, witness = forged_alpha(example_t2_tower(), k, edit)
    assert witness == first_collision(alpha) == (x, y)


def test_a_recipe_that_folds_two_reps_names_its_first_collision():
    """Both reps of Z2 x C sent to e: alpha(z c^m) = alpha(c^m), ids m and c_k + m."""
    base = T1Tower(corpus()["Z2"], 2, 0)
    tower = T2Tower(base, "0.1/4", 2, {"0": ("0", (0, 1)), "1": ("0", (0, 1))})
    with pytest.raises(ExtensionConditionsFailed) as exc:
        tower.level(3)
    assert exc.value.condition == "alpha is not a bijection fixing identity"
    alpha = tower._alpha_map(3)
    assert exc.value.witness == first_collision(alpha) == (0, base.c_part_count(3))


@pytest.mark.parametrize("edit", [
    lambda alpha: alpha.__setitem__(7, -1),           # out of range: no pair is read
    lambda alpha: alpha.__setitem__(7, alpha.size),
    lambda alpha: alpha.__setitem__([7, 9], [-1, alpha[8]]),  # out of range, and a collision
    lambda alpha: alpha.__setitem__([0, 1], alpha[[1, 0]]),  # a bijection moving the identity
], ids=["negative", "too-large", "negative-and-collision", "identity-moved"])
def test_an_alpha_with_no_collision_in_range_has_no_witness(edit):
    assert forged_alpha(example_t2_tower(), 5, edit)[1] is None
