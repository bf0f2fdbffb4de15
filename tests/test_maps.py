"""Maps are index arrays, checked by one ``first_witness`` scan per generator,
and a refused map keeps the witness its check found.

``hom_witness`` is compared with a test-local copy of the scan it replaced,
which took the pairs (s, x) s-major as one column and split each pair index
with a divmod; planted single faults at block edges and under the first and
last generator must give the same witness.
"""

import numpy as np
import pytest

from rootsets.catalog import corpus, dihedral
from rootsets.kernel import (
    BLOCK_ENTRIES,
    NotHomomorphicError,
    first_witness,
    hom_witness,
    homomorphism,
)
from rootsets.towers import (
    ExtensionConditionsFailed,
    PruferTower,
    QuaternionTower,
    T1Tower,
    T2Tower,
    TowerError,
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
