"""Exactness of the checks by generators: tables, maps and their memory use.

Associativity is checked as (a*b)*s = a*(b*s) for the generators s of a
table, and maps as f(x*s) = f(x)*f(s) for the generators s of the source.
These tests compare both with brute force, plant single defects at sizes
where a sampled check would miss them, and bound the memory the checks use.
"""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rootsets.catalog import cyclic, dihedral, generalized_quaternion, symmetric
from rootsets.cli import build_tower, parse_spec
from rootsets.kernel import (
    FiniteGroupTable,
    _row_blocks,
    Homomorphism,
    NotHomomorphicError,
    TableFormatError,
    closure,
    direct_product,
    generating_set,
    hom_witness,
    loads_table,
)
from rootsets.towers import (
    ExtensionConditionsFailed,
    PruferTower,
    QuaternionTower,
    TowerError,
    example_t2_tower,
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
            Homomorphism.validated(V4, Z4, m)
        assert_real_hom_failure(V4, Z4, m, exc.value.witness)

    @pytest.mark.parametrize("G", [generalized_quaternion(16), symmetric(4)],
                             ids=lambda G: G.label)
    def test_forged_homomorphism_image(self, G):
        for x in range(1, G.order):
            m = np.arange(G.order, dtype=np.int64)
            m[x] = 0 if x != 1 else 2
            with pytest.raises(NotHomomorphicError) as exc:
                Homomorphism.validated(G, G, m)
            assert_real_hom_failure(G, G, m, exc.value.witness)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
