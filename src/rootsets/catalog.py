"""Builders for the standard small groups used as the test corpus."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .constructions import heisenberg
from .kernel import FiniteGroupTable, build_table, direct_product, table_order
from .towers import QuaternionTower


def cyclic(n, *, label=None):
    table = build_table(n, lambda a, b: (a + b) % n)
    return FiniteGroupTable(table, [str(i) for i in range(n)], label=label or f"Z{n}")


def dihedral(n):
    """Dihedral group of order 2n: rotations r0..r{n-1}, reflections s0..s{n-1}."""
    def product(a, b):
        (e1, r1), (e2, r2) = np.divmod(a, n), np.divmod(b, n)
        return (e1 ^ e2) * n + (np.where(e2 == 0, r1, -r1) + r2) % n

    table = build_table(2 * n, product)
    names = [f"r{i}" for i in range(n)] + [f"s{i}" for i in range(n)]
    return FiniteGroupTable(table, names, label=f"D{n}")


def symmetric(n):
    """Symmetric group on {0..n-1}; element names are one-line images.

    Permutations are listed in lexicographic order, which is the order of
    their images read as base-n numbers; a product p q (q first, p(q(k)))
    is found among them by that number."""
    table_order(math.factorial(n))
    perms = np.array(sorted(itertools.permutations(range(n))), dtype=np.int64)
    weight = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = perms @ weight

    def product(a, b):
        return np.searchsorted(keys, perms[a[:, 0]][:, perms[b]] @ weight)

    table = build_table(len(perms), product)
    names = ["".join(map(str, p)) for p in perms.tolist()]
    return FiniteGroupTable(table, names, label=f"S{n}")


def generalized_quaternion(order):
    """Q_{2^k}: cyclic index-2 subgroup, inverting generator x with x^2 the involution."""
    if order < 8 or order & (order - 1):
        raise ValueError(f"generalized quaternion groups have order 2^k >= 8, got {order}")
    # level k of the quaternion tower is Q_(2^(k+1)), its id e n + m the element x^e c^m
    n = order // 2
    table = build_table(table_order(order), QuaternionTower().level(n.bit_length() - 1).mul_vec)
    names = [f"c{m}" for m in range(n)] + [f"xc{m}" for m in range(n)]
    return FiniteGroupTable(table, names, label=f"Q{order}")


def corpus():
    """The fixture groups of order <= 64 used throughout the test suite."""
    z2, z3, z4 = cyclic(2), cyclic(3), cyclic(4)
    groups = {
        "Z2": z2, "Z3": z3, "Z4": z4, "Z5": cyclic(5), "Z6": cyclic(6),
        "Z8": cyclic(8), "Z12": cyclic(12),
        "Z2xZ2": direct_product(z2, z2),
        "Z2xZ4": direct_product(z2, z4),
        "Z3xZ3": direct_product(z3, z3),
        "D4": dihedral(4),
        "D6": dihedral(6),
        "S3": symmetric(3),
        "S4": symmetric(4),
        "Q8": generalized_quaternion(8),
        "Q16": generalized_quaternion(16),
        "Q32": generalized_quaternion(32),
        "Heis27": heisenberg(3),
    }
    for name, g in groups.items():
        g.label = name
    return groups


def abelian_corpus(max_order=48):
    """Abelian fixtures of order <= max_order."""
    z2, z3, z4, z6 = cyclic(2), cyclic(3), cyclic(4), cyclic(6)
    groups = {
        "Z2": z2, "Z3": z3, "Z4": z4, "Z6": z6,
        "Z8": cyclic(8), "Z9": cyclic(9), "Z12": cyclic(12),
        "Z16": cyclic(16), "Z24": cyclic(24), "Z36": cyclic(36),
        "Z2xZ2": direct_product(z2, z2),
        "Z2xZ4": direct_product(z2, z4),
        "Z3xZ3": direct_product(z3, z3),
        "Z4xZ4": direct_product(z4, z4),
        "Z6xZ6": direct_product(z6, z6),
        "Z2xZ2xZ2": direct_product(direct_product(z2, z2), z2),
    }
    out = {}
    for name, g in groups.items():
        if g.order <= max_order:
            g.label = name
            out[name] = g
    return out
