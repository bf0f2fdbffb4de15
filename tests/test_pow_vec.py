"""Closed-form powers on tower levels against binary exponentiation.

Every tower kind gives its levels a ``pow_vec``: e m mod p^k on Prüfer
levels, the power table of H on central amalgams, a period-4 pattern on the
quaternion x-coset, ((x g)^2)^(e // 2) (x g)^(e % 2) on inverting
extensions, and the base power of the coset reps on quotients.  The
reference here squares and multiplies with the level's own ``mul_vec``; on
every level, x is squared once and each exponent array reads the same
squares.  A closed form gets x and e unbroadcast and must return their
broadcast shape.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rootsets.catalog import generalized_quaternion, symmetric
from rootsets.cli import KINDS, build_tower, parse_spec
from rootsets.kernel import (
    OracleGroup,
    binary_power_vec,
    closure,
    element_orders,
    generated_subgroup,
    quotient,
    roots,
)
from rootsets.towers import Level

SPECS = Path(__file__).resolve().parent.parent / "specs"
MAX_ORDER = 2 ** 17


def tower_specs():
    for path in sorted(SPECS.glob("*.json")):
        spec = parse_spec(path.read_text(encoding="utf-8"), SPECS)
        if KINDS[spec.kind].tower:
            yield path.stem, spec


TOWER_SPECS = dict(tower_specs())


def tower(name):
    return build_tower(TOWER_SPECS[name], SPECS)


def binary_power(lvl, x, e):
    """x^e by squaring and multiplying with lvl.mul_vec, one bit of e at a time."""
    x, e = np.broadcast_arrays(np.asarray(x, dtype=np.int64), np.asarray(e, dtype=np.int64))
    out = np.zeros(x.shape, dtype=np.int64)
    base, e = x.copy(), e.copy()
    while e.any():
        odd = e & 1 == 1
        out = np.where(odd, lvl.mul_vec(out, base), out)
        base = lvl.mul_vec(base, base)
        e = e >> 1
    return out


def squarings(lvl, x, bits):
    """x^(2^i) for i < bits, by squaring with lvl.mul_vec."""
    out = [np.asarray(x, dtype=np.int64)]
    while len(out) < bits:
        out.append(lvl.mul_vec(out[-1], out[-1]))
    return out


def power_from_squarings(lvl, squares, e):
    """x^e as binary_power takes it, one bit of e at a time, from the
    squarings of x (``squarings``), which several exponents share."""
    e = np.asarray(e, dtype=np.int64)
    bits = int(e.max(initial=0)).bit_length()
    assert bits <= len(squares)
    out = np.zeros(np.broadcast_shapes(squares[0].shape, e.shape), dtype=np.int64)
    for i, base in enumerate(squares[:bits]):
        out = np.where((e >> i) & 1 == 1, lvl.mul_vec(out, base), out)
    return out


def test_the_bundled_towers_are_the_five_kinds():
    assert sorted(TOWER_SPECS) == ["heis_t1", "prufer2", "quat", "quot", "t2"]


@pytest.mark.parametrize("name", sorted(TOWER_SPECS))
def test_pow_vec_matches_binary_powers_on_every_level(name):
    t = tower(name)
    for k in range(t.k0, t.k0 + 18):
        lvl = t.level(k)
        if lvl.n > MAX_ORDER:
            break
        x = np.arange(lvl.n, dtype=np.int64)
        # x squared once, up to the highest bit of any exponent below
        squares = squarings(lvl, x, max(3 * lvl.n + 1, 81).bit_length())
        # multiples of the order, one past them, and a spread over 0 .. 3n + 1
        for e in (lvl.orders, lvl.orders + 1, x * 7919 % (3 * lvl.n + 2)):
            assert np.array_equal(lvl.pow_vec(x, e), power_from_squarings(lvl, squares, e)), (name, k)
        # (n, 1) against (D,), as root_images asks
        e = np.array([0, 1, 2, 3, 8, 81])
        assert np.array_equal(lvl.pow_vec(x[:, None], e),
                              power_from_squarings(lvl, [s[:, None] for s in squares], e))
        if 2 * lvl.n > MAX_ORDER:  # levels at least double: the next one is out of range
            break
    assert k > t.k0 + 3


def shape_groups():
    """Two levels of every bundled tower, and a quotient of a tower level,
    derived from its closed form."""
    for name in sorted(TOWER_SPECS):
        t = tower(name)
        for k in (t.k0, t.k0 + 3):
            yield f"{name}-{k}", t.level(k)
    quat = tower("quat").level(5)
    yield "Q64/Z2", quotient(quat, closure(quat, [quat.id_of("1/2")]))[0]


SHAPE_GROUPS = dict(shape_groups())


@pytest.mark.parametrize("name", list(SHAPE_GROUPS))
def test_pow_vec_broadcasts_operands_of_their_own_shapes(name):
    """A closed form gets x and e unbroadcast and returns their broadcast
    shape: (n, 1) against (D,) and (n, D) as root_images asks, (B, 1)
    against (d,) as _cyclic_keys asks, and a scalar on either side."""
    G = SHAPE_GROUPS[name]
    rng = np.random.default_rng(G.n)
    x = np.arange(G.n, dtype=np.int64)
    ds = np.unique(G.orders)
    per_row = np.where(G.orders[:, None] % ds == 0, G.orders[:, None] // ds, 0)
    block = rng.permutation(G.n)[:7, None]
    cases = [(x[:, None], ds), (x[:, None], per_row), (block, np.arange(1, int(ds[-1]))),
             (block, ds[::-1]), (3 % G.n, rng.integers(0, 4 * G.n, 9)),
             (x, 5), (x[::-1], np.int64(2 * G.n + 1)), (x[:, None, None], ds[None, :, None])]
    for xs, e in cases:
        got = G.pow_vec(xs, e)
        assert got.shape == np.broadcast_shapes(np.shape(xs), np.shape(e)), (name, got.shape)
        assert np.array_equal(got, binary_power(G, xs, e)), name
    for g in (0, G.n - 1, G.n // 2):
        for m in (0, 1, int(G.orders[g]) + 1):
            got = G.pow_vec(g, m)
            assert got.ndim == 0 and got.flags.writeable, (name, g, m)
            assert int(got) == int(binary_power(G, g, m))
            got[()] = 0  # a closed form may assign into its base level's powers


LEVELS = {name: [tower(name).level(k) for k in ks]
          for name, ks in (("heis_t1", (1, 3)), ("prufer2", (1, 5)), ("quat", (2, 6)),
                           ("quot", (2, 5)), ("t2", (2, 5)))}


@st.composite
def powers(draw):
    """A level of a bundled tower and (x, e) pairs on it."""
    lvl = draw(st.sampled_from([lvl for lvls in LEVELS.values() for lvl in lvls]))
    pairs = []
    for _ in range(draw(st.integers(1, 12))):
        x = draw(st.integers(0, lvl.n - 1))
        order = int(lvl.orders[x])
        e = draw(st.one_of(
            st.just(0),
            st.integers(0, 4 * lvl.n),               # e >= n included
            st.integers(0, 50).map(lambda m: m * order),  # multiples of the order
            st.integers(0, 50).map(lambda m: m * order + 1),
            st.integers(0, 2 ** 40)))
        pairs.append((x, e))
    return lvl, pairs


@settings(deadline=None, max_examples=150)
@given(powers())
def test_pow_vec_matches_binary_powers_on_drawn_pairs(case):
    lvl, pairs = case
    x, e = map(np.array, zip(*pairs))
    assert np.array_equal(lvl.pow_vec(x, e), binary_power(lvl, x, e))


def test_levels_without_a_closed_form_use_binary_powers():
    n = 96
    G = OracleGroup(n, [str(i) for i in range(n)], lambda a, b: (a + b) % n, lambda a: (-a) % n)
    x = np.arange(n)
    assert np.array_equal(G.pow_vec(x, 7), 7 * x % n)
    assert np.array_equal(G.pow_vec(x[:, None], [0, 5]), np.stack([0 * x, 5 * x % n], 1))


def scalar_groups():
    """Level k0 + 1 of every bundled tower, a table, and subgroups and
    quotients, which answer powers through their parent's ``pow_vec``."""
    for name in sorted(TOWER_SPECS):
        t = tower(name)
        yield name, t.level(t.k0 + 1)
    S4 = symmetric(4)
    yield "S4", S4
    yield "S4-sub", generated_subgroup(S4, [S4.id_of("1230"), S4.id_of("1032")])[0]
    Q16 = generalized_quaternion(16)
    yield "Q16/Z2", quotient(Q16, closure(Q16, [Q16.id_of("c4")]))[0]
    quat = tower("quat").level(4)
    yield "quat-sub", generated_subgroup(quat, [quat.id_of("x.0"), quat.id_of("1/4")])[0]


SCALAR_GROUPS = dict(scalar_groups())


@pytest.mark.parametrize("name", list(SCALAR_GROUPS))
def test_pow_vec_on_a_scalar_matches_binary_powers(name):
    G = SCALAR_GROUPS[name]
    for m in (0, 1, 2, 3, 5, 7):
        want = binary_power_vec(G, np.arange(G.n), m)
        for g in range(G.n):
            for arg in (g, np.int64(g)):
                got = G.pow_vec(arg, m)
                assert np.ndim(got) == 0 and int(got) == want[g], (name, g, m)


@pytest.mark.parametrize("name", ["prufer2", "quat"])
def test_orders_and_roots_take_no_mul_vec_calls(name, monkeypatch):
    lvl = tower(name).level(12)
    calls = []
    mul_vec = Level.mul_vec
    monkeypatch.setattr(Level, "mul_vec", lambda self, a, b: calls.append(1) or mul_vec(self, a, b))
    orders = element_orders(lvl)
    R = roots(lvl, np.arange(0, lvl.n, 37))
    assert calls == []  # binary powers took about 2 log2(exponent) calls each
    assert orders.max() == 2 ** 12
    assert R.shape == (lvl.n, len(range(0, lvl.n, 37))) and R[:, 0].all()
