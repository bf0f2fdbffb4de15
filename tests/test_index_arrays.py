"""Set-valued kernel results are sorted, distinct int64 index arrays, and a
validated homomorphism is a read-only copy of its map."""

import numpy as np
import pytest

from rootsets.catalog import cyclic, dihedral, generalized_quaternion, symmetric
from rootsets.eta import eta, k_finite, p_prime_part
from rootsets.kernel import (
    InvalidElementError,
    NotBijectiveError,
    center,
    centralizer,
    closure,
    cyclic_subgroup,
    derived_subgroup,
    homomorphism,
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
        "image": np.unique(proj),
    }
    for what, S in results.items():
        assert_index_set(S, what)
    assert results["image"].tolist() == list(range(Q.order))
    assert results["k_finite"].tolist() == list(range(G.order))


def test_a_homomorphism_holds_a_read_only_copy_of_its_map():
    Z6, Z3 = cyclic(6), cyclic(3)
    f = np.arange(6, dtype=np.int64) % 3
    phi = homomorphism(Z6, Z3, f)
    assert phi.dtype == np.int64 and not phi.flags.writeable
    assert not np.shares_memory(phi, f)
    f[1] = 2  # the caller's array stays writable, and the map keeps its values
    assert phi.tolist() == [0, 1, 2, 0, 1, 2]
    with pytest.raises(ValueError):
        phi[1] = 2
    assert phi[4] == 1
    assert np.unique(phi).size != Z6.order
    assert np.unique(validate_automorphism(Z6, [0, 5, 4, 3, 2, 1])).size == Z6.order


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


@pytest.mark.parametrize("mapping", [[0, 1.5, 2, 3], [0, 1, "2", 3], [0, 1.2, 1.7, 3],
                                     [0, 2 ** 70, 2, 3]])
def test_a_map_of_non_integers_is_refused(mapping):
    """Neither truncated, nor parsed, nor judged as another map."""
    with pytest.raises(InvalidElementError, match="^map entries are not integers$"):
        validate_automorphism(cyclic(4), mapping)
