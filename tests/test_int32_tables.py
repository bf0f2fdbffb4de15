"""Cayley tables are held as int32 and built a block of rows at a time, with
no n x n int64 array on the way; ids stay int64.  Validation never writes a
table, and an order whose ids int32 cannot hold is refused before anything
n-sized is made."""

import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from rootsets.catalog import cyclic, dihedral, generalized_quaternion, symmetric
from rootsets.constructions import CocycleTable, central_extension, heisenberg, q8_cocycle
from rootsets.kernel import (
    TABLE_ORDER_MAX,
    FiniteGroupTable,
    GroupError,
    OracleGroup,
    TableFormatError,
    build_table,
    direct_product,
    dumps_table,
    load_table,
    loads_table,
)
from rootsets.towers import QuaternionTower

BUILDERS = {
    "cyclic": lambda: cyclic(12),
    "dihedral": lambda: dihedral(5),
    "symmetric": lambda: symmetric(4),
    "generalized_quaternion": lambda: generalized_quaternion(32),
    "heisenberg": lambda: heisenberg(5),
    "central_extension": lambda: central_extension(q8_cocycle(direct_product(cyclic(2),
                                                                             cyclic(2)))),
    "direct_product": lambda: direct_product(cyclic(4), dihedral(3)),
    "OracleGroup.group": lambda: QuaternionTower().level(4).group(),
    "loads_table": lambda: loads_table(dumps_table(dihedral(5))),
    "int64 input": lambda: FiniteGroupTable(cyclic(6).table.astype(np.int64)),
    "list input": lambda: FiniteGroupTable([[0, 1], [1, 0]]),
}


def peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", sorted(BUILDERS))
def test_every_builder_holds_its_table_as_int32(build):
    G = BUILDERS[build]()
    assert G.table.dtype == np.int32 and G.table.shape == (G.order, G.order)


def test_load_table_holds_int32(tmp_path):
    path = tmp_path / "d5.tbl"
    path.write_text(dumps_table(dihedral(5)), encoding="utf-8")
    assert load_table(path).table.dtype == np.int32


def test_dihedral_and_symmetric_tables_are_their_definitions():
    n = 5
    elems = [(e, r) for e in range(2) for r in range(n)]  # id e n + r
    D = dihedral(n)
    assert D.table.tolist() == [[(e1 ^ e2) * n + ((r1 if e2 == 0 else -r1) + r2) % n
                                 for e2, r2 in elems] for e1, r1 in elems]
    perms = sorted(itertools.permutations(range(4)))
    S = symmetric(4)
    assert S.table.tolist() == [[perms.index(tuple(p[q[k]] for k in range(4))) for q in perms]
                                for p in perms]


@pytest.mark.parametrize("build", ["cyclic", "symmetric", "OracleGroup.group", "loads_table"])
def test_ids_stay_int64(build):
    G = BUILDERS[build]()
    a, b = np.arange(G.order), np.arange(G.order)[::-1].copy()
    assert G.mul_vec(a, b).dtype == np.int64
    assert G.mul_vec(a[:, None], b).dtype == np.int64
    assert np.asarray(G.mul_vec(1, 2)).dtype == np.int64
    assert G.inv_vec(a).dtype == np.int64
    assert G.pow_vec(a, 3).dtype == np.int64
    assert G.mul(1, 2) == int(G.table[1, 2])


def test_load_table_of_order_1024_peaks_at_its_int32_table(tmp_path):
    """An int64 table alone would take 8n^2 bytes."""
    n = 1024
    path = tmp_path / "q1024.tbl"
    path.write_text(dumps_table(generalized_quaternion(n)), encoding="utf-8")
    G, peak = peak_bytes(lambda: load_table(path))
    assert G.order == n and G.table.dtype == np.int32
    assert peak < 4 * n * n + 2 * 2 ** 20, peak / 2 ** 20


def test_materializing_a_level_of_1024_elements_peaks_at_its_int32_table():
    lvl = QuaternionTower().level(9)
    n = lvl.n
    assert n == 1024
    G, peak = peak_bytes(lvl.group)
    assert G.table.dtype == np.int32
    assert peak < 4 * n * n + 2 * 2 ** 20, peak / 2 ** 20


@pytest.fixture(scope="module")
def relabeled_q256():
    """Q256 with its elements renumbered, identity kept at 0: no row or
    column of it is sorted.  It is read from the tower's arithmetic, so no
    table validation has run on it."""
    idx = np.arange(256)
    T = QuaternionTower().level(7).mul_vec(idx[:, None], idx)
    perm = np.concatenate([[0], 1 + np.random.default_rng(256).permutation(255)])
    return np.ascontiguousarray(np.argsort(perm).astype(np.int32)[T[perm][:, perm]])


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("defect, message", [
    (None, None),
    ("row", "row 70 is not a permutation"),
    ("column", "column 63 is not a permutation"),
])
def test_validation_never_writes_the_table(relabeled_q256, defect, message, dtype):
    T = relabeled_q256.astype(dtype)  # C order: an int32 row block is a view of T
    if defect == "row":
        T[70, 200] = T[70, 5]
    elif defect == "column":
        T[70, [63, 64]] = T[70, [64, 63]]
    before = T.copy()
    try:
        G = FiniteGroupTable(T)
    except TableFormatError as exc:
        got = str(exc)
    else:
        got = None
        assert (G.table is T) == (dtype == np.int32)  # int32 is kept as it is
        assert np.array_equal(G.table, before)
    assert got == message
    assert np.array_equal(T, before)


OVERSIZED = {
    "cyclic": lambda: cyclic(2 ** 62),
    "dihedral": lambda: dihedral(2 ** 30),
    "symmetric": lambda: symmetric(13),
    "generalized_quaternion": lambda: generalized_quaternion(2 ** 32),
    "heisenberg": lambda: heisenberg(2 ** 61 - 1),
    "central_extension": lambda: central_extension(
        CocycleTable(SimpleNamespace(order=2 ** 30), 3, ())),
    "direct_product": lambda: direct_product(SimpleNamespace(order=2 ** 16),
                                             SimpleNamespace(order=2 ** 16)),
    "OracleGroup.group": lambda: OracleGroup(2 ** 40, None, None, None).group(),
}


@pytest.mark.parametrize("build", sorted(OVERSIZED))
def test_an_order_above_int32_is_refused_before_anything_is_built(build):
    with pytest.raises(GroupError, match=f"is above {TABLE_ORDER_MAX}, the largest order"):
        OVERSIZED[build]()


@pytest.mark.parametrize("n", [0, -1])
def test_an_order_below_one_is_refused_as_a_table_would_refuse_it(n):
    with pytest.raises(TableFormatError, match="^group order must be at least 1$"):
        cyclic(n)
    with pytest.raises(TableFormatError, match="^group order must be at least 1$"):
        FiniteGroupTable(np.zeros((0, 0), dtype=np.int32))


def test_an_order_numpy_cannot_allocate_is_a_memory_error():
    # (2^31 - 1)^2 int32 entries are more bytes than numpy can address
    with pytest.raises(MemoryError, match="^cannot allocate a Cayley table of order 2147483647$"):
        build_table(TABLE_ORDER_MAX, None)
