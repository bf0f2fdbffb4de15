"""The cocycle identity is checked for z over the base's generators only;
checked against the n^3 loop over every (x, y, z) it replaced."""

import numpy as np
import pytest

from rootsets.catalog import corpus
from rootsets.constructions import CocycleError, CocycleTable


def reference_failure(base, p, w):
    """The first (x, y, z), x-major, where the cocycle identity fails, or None."""
    tab = base.table
    for x in range(base.order):
        left = w[tab[x], :] + w[x, :, None]   # w[xy, z] + w[x, y], indexed (y, z)
        right = w[x, tab] + w                 # w[x, yz] + w[y, z]
        bad = np.argwhere((left - right) % p != 0)
        if bad.size:
            return (x, *map(int, bad[0]))
    return None


def fails(base, p, w, x, y, z):
    tab = base.table
    return (w[tab[x, y], z] + w[x, y] - w[x, tab[y, z]] - w[y, z]) % p != 0


def drawn_cocycles(base, p, rng, count):
    """Normalized matrices: coboundaries of random f with f(e) = 0 (cocycles),
    each of them with one non-normalizing entry changed, and random ones."""
    n = base.order
    for _ in range(count):
        f = np.concatenate(([0], rng.integers(0, p, n - 1)))
        w = (f[:, None] + f[None, :] - f[base.table]) % p
        yield w
        if n > 1:
            v = w.copy()
            i, j = rng.integers(1, n, 2)
            v[i, j] = (v[i, j] + rng.integers(1, p)) % p
            yield v
        r = np.zeros((n, n), dtype=np.int64)
        r[1:, 1:] = rng.integers(0, p, (n - 1, n - 1))
        yield r


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", sorted(corpus()))
def test_generator_check_agrees_with_the_cube_loop(name, p, groups):
    base = groups[name]
    rng = np.random.default_rng([p, base.order, len(name)])
    accepted = rejected = 0
    for w in drawn_cocycles(base, p, rng, count=20):
        expected = reference_failure(base, p, w)
        try:
            c = CocycleTable.of(base, p, w.tolist())
        except CocycleError as exc:
            assert expected is not None
            assert str(exc) == "cocycle identity fails"
            x, y, z = map(base.id_of, exc.witness)
            assert z in base.generators and fails(base, p, w, x, y, z)
            rejected += 1
        else:
            assert expected is None
            assert np.array_equal(c.matrix(), w)
            accepted += 1
    assert accepted >= 20 and (rejected >= 20 or base.order <= 2)


def test_witness_is_the_first_pair_for_the_first_failing_generator(groups):
    base = groups["Q8"]
    rng = np.random.default_rng(8)
    for w in drawn_cocycles(base, 3, rng, count=10):
        if reference_failure(base, 3, w) is None:
            continue
        with pytest.raises(CocycleError) as exc:
            CocycleTable.of(base, 3, w.tolist())
        x, y, z = map(base.id_of, exc.value.witness)
        earlier = base.generators[:base.generators.index(z)]
        assert not any(fails(base, 3, w, a, b, s)
                       for s in earlier for a in base.elements() for b in base.elements())
        assert not any(fails(base, 3, w, a, b, z)
                       for a in base.elements() for b in base.elements() if (a, b) < (x, y))
