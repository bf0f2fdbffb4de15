"""Ascending towers: embeddings, level-wise eta, stabilization, quotients."""

import numpy as np
import pytest

from rootsets.catalog import dihedral, generalized_quaternion
from rootsets.kernel import FiniteGroupTable, homomorphism, order_profile
from rootsets.towers import (
    CoherenceError,
    ExtensionConditionsFailed,
    PruferTower,
    QuaternionTower,
    QuotientTower,
    T1Tower,
    T2Tower,
    Tower,
    TowerError,
    eta_stabilized,
    example_t2_tower,
    inversion_recipe,
    k_estimate,
    prufer_fractions,
)


class TestPruferElements:
    def test_normalization(self):
        assert prufer_fractions(np.array([6]), 8) == ["3/4"]  # 6/8 = 3/4

    def test_zero(self):
        assert prufer_fractions(np.array([0]), 5 ** 3) == ["0"]

    def test_prufer_name(self):
        assert prufer_fractions(np.array([0, 4, 3]), 8) == ["0", "1/2", "3/8"]


class TestPruferTower:
    def test_level_orders_and_names(self):
        t = PruferTower(3)
        assert [t.level(k).n for k in range(1, 4)] == [3, 9, 27]
        assert t.level(2).names[0] == "0"
        assert "1/3" in t.level(2).names and "2/9" in t.level(2).names

    def test_embeddings_are_name_stable(self):
        t = PruferTower(2)
        emb = t.embed_ids(2)
        src, tgt = t.level(2), t.level(3)
        for i, nm in enumerate(src.names):
            assert tgt.names[int(emb[i])] == nm

    def test_everything_stabilizes(self):
        rep = k_estimate(PruferTower(2), max_level=6)
        assert rep.agrees is True
        assert rep.growing == [] and rep.undetermined == []
        assert len(rep.members) == 2 ** rep.birth_level

    def test_eta_of_generator_is_lower_levels(self):
        rep = eta_stabilized(PruferTower(3), "1/9", max_level=5)
        assert rep.stabilized
        # elements that miss 1/9 are exactly the order <= 3 ones  [DERIVED]
        assert sorted(rep.stable_set) == sorted(["0", "1/3", "2/3"])

    def test_rejects_composite(self):
        with pytest.raises(TowerError):
            PruferTower(6)


class TestQuaternionTower:
    def test_levels_are_generalized_quaternion(self):
        t = QuaternionTower()
        for k in (2, 3, 4):
            G = t.level(k).group()
            assert order_profile(G) == order_profile(generalized_quaternion(2 ** (k + 1)))

    def test_embedding_hom(self):
        t = QuaternionTower()
        phi = homomorphism(t.level(2), t.level(3), t.embed_ids(2))
        assert np.unique(phi).size == phi.size
        assert len(np.unique(phi)) == 8
        assert t.level(3).order == 16

    def test_k_is_the_involution_pair(self):
        rep = k_estimate(QuaternionTower(), max_level=6)
        assert rep.members == ["0", "1/2"]
        assert rep.agrees is True
        assert rep.undetermined == []

    def test_x_does_not_stabilize(self):
        rep = eta_stabilized(QuaternionTower(), "x.0", max_level=6)
        assert not rep.stabilized
        sizes = [pl.size for pl in rep.per_level]
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]


class TestT1Tower:
    def test_rejects_noncentral_amalgam(self):
        D4 = dihedral(4)
        with pytest.raises(TowerError, match="central"):
            T1Tower(D4, 2, D4.id_of("r1"))

    def test_rejects_wrong_prime(self):
        D4 = dihedral(4)
        with pytest.raises(TowerError):
            T1Tower(D4, 3, D4.id_of("r2"))

    def test_level_orders(self):
        D4 = dihedral(4)
        t = T1Tower(D4, 2, D4.id_of("r2"))
        assert t.n == 1
        # |level k| = |H| * 2^k / 2^n
        assert [t.level(k).n for k in (1, 2, 3)] == [8, 16, 32]

    def test_amalgam_identification(self):
        # the amalgam generator and the deep C element are the same point
        D4 = dihedral(4)
        t = T1Tower(D4, 2, D4.id_of("r2"))
        lvl = t.level(3)
        r2 = lvl.id_of("r2.0") if lvl.has("r2.0") else None
        assert r2 is None  # r2 is not a transversal rep: it lives inside C
        assert lvl.mul(lvl.id_of("r0.1/2"), lvl.id_of("r0.1/2")) == 0

    def test_k_is_the_c_part(self):
        D4 = dihedral(4)
        t = T1Tower(D4, 2, D4.id_of("r2"))
        rep = k_estimate(t, max_level=6)
        assert rep.agrees is True, (rep.members, rep.theory)
        assert rep.undetermined == []
        assert all(nm.startswith("r0.") for nm in rep.members)

    def test_trivial_amalgam_is_direct_product(self):
        t = example_t2_tower().base
        assert t.n == 0
        assert t.level(1).n == 4  # Z2 x Z2 at the bottom
        G = t.level(2).group()
        assert order_profile(G) == {1: 1, 2: 3, 4: 4}  # Z2 x Z4


class TestT2Tower:
    def test_example_shape(self):
        t = example_t2_tower()
        assert t.k0 == 2
        assert t.m == 2
        assert t.a_name == "e.1/2"
        assert t.x_name == "x.e.0"
        assert t.level(2).n == 16

    def test_x_squared_is_y(self):
        t = example_t2_tower()
        lvl = t.level(3)
        x = lvl.id_of(t.x_name)
        assert lvl.names[lvl.mul(x, x)] == t.y_name
        # x^{2m} = a, the distinguished involution
        x2 = lvl.mul(x, x)
        assert lvl.names[lvl.mul(x2, x2)] == t.a_name

    def test_x_inverts_c(self):
        t = example_t2_tower()
        lvl = t.level(3)
        x, xi = lvl.id_of(t.x_name), lvl.inv(lvl.id_of(t.x_name))
        for nm in ("e.1/8", "e.1/4", "e.1/2"):
            c = lvl.id_of(nm)
            assert lvl.mul(lvl.mul(xi, c), x) == lvl.inv(c)

    def test_k_is_identity_and_involution(self):
        rep = k_estimate(example_t2_tower(), max_level=6)
        assert rep.members == ["e.0", "e.1/2"]
        assert rep.agrees is True

    def test_levels_validate_as_groups(self):
        t = example_t2_tower()
        G = t.level(3).group()  # materialization runs the full table checks
        assert G.order == 32
        phi = homomorphism(t.level(2), G, t.embed_ids(2))
        assert np.unique(phi).size == phi.size

    def test_rejects_recipe_that_moves_y(self):
        t = example_t2_tower()
        bad = {"e": ("e", (0, 1)), "z": ("z", (0, 1))}
        broken = T2Tower(t.base, "z.1/4", 2, bad)
        with pytest.raises(ExtensionConditionsFailed, match="fix y"):
            broken.level(2)

    def test_rejects_non_homomorphic_recipe_on_nonabelian_base(self):
        D4 = dihedral(4)
        base = T1Tower(D4, 2, D4.id_of("r2"))
        reps = base.transversal_names()
        assert reps == ["r0", "r1", "s0", "s1"]
        # swapping r1 and s0 cannot extend to an automorphism
        recipe = {"r0": ("r0", (0, 1)), "r1": ("s0", (0, 1)),
                  "s0": ("r1", (0, 1)), "s1": ("s1", (0, 1))}
        broken = T2Tower(base, "r0.1/2", 1, recipe)
        with pytest.raises(ExtensionConditionsFailed, match="homomorphism"):
            broken.level(2)

    def test_rejects_odd_prime_base(self):
        t3 = PruferTower(3)
        with pytest.raises(TowerError, match="p = 2"):
            T2Tower(t3, "1/3", 1, inversion_recipe(t3))


class TestQuotientTower:
    def test_quaternion_mod_involution_is_dihedral(self):
        qt = QuotientTower(QuaternionTower(), ["1/2"])
        G = qt.level(3).group()  # Q16 / {1, a} = D4
        assert order_profile(G) == order_profile(dihedral(4))
        assert G.names[0] == "[0]"

    def test_k_is_image_of_base_k(self):
        qt = QuotientTower(QuaternionTower(), ["1/2"])
        rep = k_estimate(qt, max_level=6)
        assert rep.members == ["[0]"]
        assert rep.agrees is True

    def test_coset_names_are_level_stable(self):
        qt = QuotientTower(QuaternionTower(), ["1/2"])
        n2 = set(qt.level(2).names)
        n3 = set(qt.level(3).names)
        assert n2 <= n3

    def test_non_normal_subgroup_rejected(self):
        qt = QuotientTower(QuaternionTower(), ["x.0"])
        qt.level(2)  # everything is normal in Q8
        with pytest.raises(TowerError, match="not normal"):
            qt.level(3)

    def test_unknown_generator_rejected(self):
        with pytest.raises(TowerError, match="never appears"):
            QuotientTower(PruferTower(2), ["nonsense"])

    def test_theory_absent_when_subgroup_leaves_k(self):
        t = example_t2_tower()
        # the order-4 piece of C is normal (x inverts it) but pokes out of
        # the predicted K, so no prediction descends to the quotient
        qt = QuotientTower(t, ["e.1/4"])
        qt.level(2)
        assert qt.theory_names(2) is None


class TestCoherence:
    def test_restriction_law_against_materialized_groups(self):
        # independent cross-check: eta computed on the materialized level k+1,
        # restricted along the embedding, must equal eta at level k
        from rootsets.eta import eta as eta_finite

        for tower in (PruferTower(2), QuaternionTower(), example_t2_tower()):
            k = tower.k0
            src, tgt = tower.level(k).group(), tower.level(k + 1).group()
            emb = tower.embed_ids(k)
            for g in src.elements():
                up = set(eta_finite(tgt, int(emb[g])).members)
                down = {h for h in src.elements() if int(emb[h]) in up}
                assert down == set(eta_finite(src, g).members), (tower.kind, src.names[g])

    def test_forged_embedding_is_caught(self):
        class Forged(PruferTower):
            def embed_ids(self, k):
                if k == 1:
                    return np.array([1, 2])  # injective but wrong
                return super().embed_ids(k)

        with pytest.raises(CoherenceError):
            eta_stabilized(Forged(2), "1/2", max_level=3)


class TestTowerBasics:
    def test_below_base_level_rejected(self):
        with pytest.raises(TowerError):
            QuaternionTower().level(1)

    def test_birth_level(self):
        t = PruferTower(2)
        assert t.birth_level("1/8", 6) == 3
        assert t.birth_level("1/1024", 6) is None

    def test_abstract_base(self):
        with pytest.raises(NotImplementedError):
            Tower().level(1)


class TestCoordinateNames:
    @staticmethod
    def klein_t2():
        """A T2 over V4 x C whose rep "x.z" makes base names and "x." names
        coincide: at level 2, ids 9 (x.z c) and 21 (x z c) are both x.z.1/4."""
        klein = FiniteGroupTable([[i ^ j for j in range(4)] for i in range(4)],
                                 ["e", "z", "x.z", "w"], label="V4")
        base = T1Tower(klein, 2, klein.id_of("e"))
        recipe = {"e": ("e", (0, 1)), "z": ("z", (1, 2)),
                  "x.z": ("x.z", (0, 1)), "w": ("w", (1, 2))}
        return T2Tower(base, "z.1/4", 2, recipe)

    @pytest.mark.parametrize("k", [2, 3])
    def test_the_later_id_is_read_where_names_coincide(self, k):
        lvl = self.klein_t2().level(k)
        names = list(lvl.names)
        index = {nm: i for i, nm in enumerate(names)}  # a name dict keeps the later id
        assert len(index) < lvl.n
        assert lvl.ids_of(names).tolist() == [index[nm] for nm in names]

    def test_colliding_pair_at_level_2(self):
        lvl = self.klein_t2().level(2)
        assert lvl.names[9] == lvl.names[21] == "x.z.1/4"
        assert lvl.id_of("x.z.1/4") == 21


class TestReportEdges:
    def test_growing_needs_window_plus_one_levels(self):
        # Prufer eta sizes never change, so nothing grows; names born above
        # max_level - window have too few sizes to say, and stay undetermined
        rep = k_estimate(PruferTower(2), max_level=6, window=2, birth_cap=6)
        assert rep.growing == []
        assert len(rep.members) == 2 ** 4
        assert len(rep.undetermined) == 2 ** 6 - 2 ** 4
        assert "1/64" in rep.undetermined

    def test_only_determined_names_are_compared_with_the_theory(self):
        # names born above max_level - window are undetermined and count
        # neither way; the certified ones agree with K = C
        D4 = dihedral(4)
        tower = T1Tower(D4, 2, D4.id_of("r2"))
        rep = k_estimate(tower, max_level=6, window=2, birth_cap=6)
        assert (len(rep.members), len(rep.growing), len(rep.undetermined)) == (16, 48, 192)
        assert rep.agrees is True and len(rep.theory) == 2 ** 6
        # a theory wrong on one determined name still disagrees
        for wrong in (rep.growing[0], rep.members[1]):
            tower.theory_names = lambda k, wrong=wrong: set(rep.theory) ^ {wrong}
            assert k_estimate(tower, max_level=6, window=2, birth_cap=6).agrees is False

    def test_a_run_that_determines_no_name_does_not_agree(self):
        rep = k_estimate(QuaternionTower(), max_level=4, window=6)
        assert rep.members == rep.growing == [] and rep.agrees is False

    def test_eta_below_k0_names_the_start_level(self):
        with pytest.raises(TowerError, match="starts at level 2, got 1"):
            eta_stabilized(QuaternionTower(), "1/2", max_level=1)
