"""Set-valued kernel results are sorted, distinct int64 index arrays, and a
validated ``Homomorphism`` holds a read-only copy of its map."""

import numpy as np
import pytest

from rootsets.catalog import cyclic, dihedral, generalized_quaternion, symmetric
from rootsets.eta import eta, k_finite, p_prime_part
from rootsets.kernel import (
    Homomorphism,
    InvalidElementError,
    NotBijectiveError,
    center,
    centralizer,
    closure,
    cyclic_subgroup,
    derived_subgroup,
    omega1,
    quotient,
    validate_automorphism,
)

GROUPS = {"S4": symmetric(4), "Q16": generalized_quaternion(16), "D6": dihedral(6),
          "Z12": cyclic(12)}


def assert_index_set(S, what):
    assert isinstance(S, np.ndarray) and S.dtype == np.int64 and S.ndim == 1, what
    assert (np.diff(S) > 0).all(), what  # sorted and distinct


@pytest.mark.parametrize("name", list(GROUPS))
def test_set_results_are_sorted_distinct_index_arrays(name):
    G = GROUPS[name]
    a = G.order - 1
    Q, proj = quotient(G, center(G))
    results = {
        "closure": closure(G, [a, a, 1]),
        "centralizer": centralizer(G, [a, 1, a]),
        "center": center(G),
        "cyclic_subgroup": cyclic_subgroup(G, a),
        "omega1": omega1(G, 2),
        "derived_subgroup": derived_subgroup(G),
        "eta": eta(G, a).members,
        "p_prime_part": p_prime_part(G, 2).members,
        "k_finite": k_finite(G).members,
        "image": proj.image(),
    }
    for what, S in results.items():
        assert_index_set(S, what)
    assert results["image"].tolist() == list(range(Q.order))
    assert results["k_finite"].tolist() == list(range(G.order))


def test_a_homomorphism_holds_a_read_only_copy_of_its_map():
    Z6, Z3 = cyclic(6), cyclic(3)
    f = np.arange(6, dtype=np.int64) % 3
    phi = Homomorphism.validated(Z6, Z3, f)
    assert phi.map.dtype == np.int64 and not phi.map.flags.writeable
    assert not np.shares_memory(phi.map, f)
    f[1] = 2  # the caller's array stays writable, and the map keeps its values
    assert phi.map.tolist() == [0, 1, 2, 0, 1, 2]
    with pytest.raises(ValueError):
        phi.map[1] = 2
    assert type(phi(4)) is int and phi(4) == 1
    assert not phi.is_injective()
    assert validate_automorphism(Z6, [0, 5, 4, 3, 2, 1]).is_injective()


@pytest.mark.parametrize("mapping, error, message", [
    ([0, 1, 2], NotBijectiveError, "map has length 3, expected 4"),
    ([0, 1, 1, 3], NotBijectiveError, "map is not a bijection"),
    ([0, 1, 4, 5], InvalidElementError, "map image out of range"),
    ([0, -1, 2, 3], InvalidElementError, "map image out of range"),
    ([0, 1, 5, 5], NotBijectiveError, "map is not a bijection"),
])
@pytest.mark.parametrize("form", [list, tuple, np.array])
def test_validate_automorphism_refusals(mapping, error, message, form):
    with pytest.raises(error) as exc:
        validate_automorphism(cyclic(4), form(mapping))
    assert type(exc.value) is error and str(exc.value) == message
