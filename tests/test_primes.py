"""Primality by deterministic Miller-Rabin, and prime fields in spec documents."""

import json
import time

import numpy as np
import pytest

from rootsets.cli import SpecError, main, parse_spec
from rootsets.kernel import PRIME_BOUND, is_prime


class TestPrimes:
    # strong pseudoprimes to the first 1, 2, 3, 4, 5, 6, 7, 9 and 12 prime bases,
    # with their factors
    PSEUDOPRIMES = {
        2047: (23, 89),
        1373653: (829, 1657),
        25326001: (2251, 11251),
        3215031751: (151, 751, 28351),
        2152302898747: (6763, 10627, 29947),
        3474749660383: (1303, 16927, 157543),
        341550071728321: (10670053, 32010157),
        3825123056546413051: (149491, 747451, 34233211),
        318665857834031151167461: (399165290221, 798330580441),
    }

    def test_agrees_with_trial_division_below_1e5(self):
        sieve = np.ones(10 ** 5, dtype=bool)
        sieve[:2] = False
        for d in range(2, 317):
            if sieve[d]:
                sieve[d * d::d] = False
        assert [is_prime(n) for n in range(10 ** 5)] == sieve.tolist()

    def test_strong_pseudoprimes_are_composite(self):
        for n, factors in self.PSEUDOPRIMES.items():
            assert np.prod(factors, dtype=object) == n
            assert not is_prime(n), n

    def test_large_primes(self):
        for p in (2 ** 31 - 1, 2 ** 61 - 1, 2 ** 64 - 59, 399165290221, 798330580441):
            assert is_prime(p), p
        assert not is_prime((2 ** 31 - 1) * (2 ** 19 - 1))

    def test_non_integers_and_small_values(self):
        assert [is_prime(v) for v in (True, 2.0, "7", None, -7, 0, 1)] == [False] * 7
        assert is_prime(np.int64(7)) and is_prime(41) and not is_prime(41 * 43)

    def test_bound_is_refused(self):
        with pytest.raises(ValueError, match="decided only below"):
            is_prime(PRIME_BOUND)
        assert PRIME_BOUND == 1287836182261 * 2575672364521  # composite, passes all 13 bases

    def test_huge_prime_field_parses_quickly(self):
        start = time.perf_counter()
        spec = parse_spec(json.dumps({"kind": "prufer_tower", "p": 2 ** 61 - 1}))
        assert time.perf_counter() - start < 1
        assert spec.values["p"] == 2 ** 61 - 1

    def test_prime_field_above_the_bound_is_an_input_error(self, tmp_path, capsys):
        p = 2 ** 89 - 1
        with pytest.raises(SpecError) as exc:
            parse_spec(json.dumps({"kind": "prufer_tower", "p": p}))
        assert exc.value.errors == [f"spec.p: expected a prime below {PRIME_BOUND} (got {p})"]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"kind": "prufer_tower", "p": p}), encoding="utf-8")
        assert main(["k-estimate", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["errors"] == exc.value.errors

    def test_prime_field_messages_below_the_bound_are_unchanged(self):
        with pytest.raises(SpecError) as exc:
            parse_spec(json.dumps({"kind": "prufer_tower", "p": 2 ** 61}))
        assert exc.value.errors == [f"spec.p: expected a prime (got {2 ** 61})"]
