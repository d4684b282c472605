import numpy as np
import pytest

from subgroup_lab.numtheory import (
    MODULUS_LIMIT,
    Subgroup,
    cached_property,
    coset_reps,
    divisors,
    factorize,
    is_prime,
    primitive_root,
    subgroup,
    validate_modulus,
)

from oracles import brute_subgroup, is_prime_slow


class TestCachedProperty:
    class Probe:
        def __init__(self, x):
            self.x = x
            self.calls = 0

        @cached_property
        def twice(self):
            """x doubled, once per instance."""
            self.calls += 1
            if self.x is None:
                raise ValueError("no x")
            return 2 * self.x

    def test_each_instance_computes_once(self):
        a = self.Probe(3)
        assert (a.twice, a.twice, a.calls) == (6, 6, 1)
        assert a.__dict__["twice"] == 6
        assert self.Probe.twice.__doc__ == "x doubled, once per instance."

    def test_instances_never_share_values(self):
        a, b = self.Probe(3), self.Probe(5)
        assert (a.twice, b.twice) == (6, 10)
        assert (a.calls, b.calls) == (1, 1)

    def test_a_raise_caches_nothing(self):
        a = self.Probe(None)
        for calls in (1, 2):
            with pytest.raises(ValueError, match="no x"):
                a.twice
            assert a.calls == calls and "twice" not in a.__dict__
        a.x = 4
        assert (a.twice, a.calls) == (8, 3)

    def test_subgroup_and_context_use_it(self):
        from subgroup_lab.energetics import SubgroupContext

        assert isinstance(Subgroup.__dict__["reps"], cached_property)
        assert isinstance(SubgroupContext.__dict__["energy"], cached_property)


class TestIsPrime:
    def test_small_range_against_trial_division(self):
        for n in range(5000):
            assert is_prime(n) == is_prime_slow(n), n

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 41041, 825265):
            assert not is_prime(n)

    def test_strong_pseudoprime_rejected(self):
        # composite, passes bases 2,3,5,7 individually
        assert not is_prime(3215031751)
        assert 3215031751 == 151 * 751 * 28351

    def test_large_known_primes(self):
        for n in (2**31 - 1, 10**18 + 9, 2**61 - 1):
            assert is_prime(n)

    def test_large_known_composites(self):
        assert not is_prime(2**62 - 1)
        assert not is_prime((2**31 - 1) * (2**31 + 11))


class TestFactorize:
    def test_small_numbers(self):
        assert factorize(1) == []
        assert factorize(2) == [2]
        assert factorize(720) == [2, 2, 2, 2, 3, 3, 5]
        assert factorize(97) == [97]

    def test_product_invariant_random(self):
        rng = np.random.default_rng(5)
        for n in rng.integers(2, 10**12, size=40):
            n = int(n)
            fs = factorize(n)
            prod = 1
            for f in fs:
                assert is_prime(f)
                prod *= f
            assert prod == n

    def test_semiprime_beyond_trial_division(self):
        n = 1000003 * 1000033
        assert sorted(factorize(n)) == [1000003, 1000033]

    def test_prime_power(self):
        assert factorize(3**12) == [3] * 12


class TestDivisors:
    def test_golden(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(97) == [1, 97]

    def test_matches_scan(self):
        for n in (6, 28, 360, 1024, 5040):
            assert divisors(n) == [k for k in range(1, n + 1) if n % k == 0]


class TestValidateModulus:
    def test_accepts_odd_primes(self):
        for p in (3, 7, 101, 65537):
            assert validate_modulus(p) == p

    def test_rejects_bad_inputs(self):
        for bad in (1, 2, 4, 9, 15, 0, -7):
            with pytest.raises(ValueError):
                validate_modulus(bad)

    def test_limit_is_two_to_the_25(self):
        # the largest prime below 2^25 ran a mid-range record in 3.3 GB; the
        # one below 2^26 did not fit in 6 GB (README, "Memory envelope")
        assert validate_modulus(33554393) == 33554393
        with pytest.raises(ValueError):
            validate_modulus(33554467)

    def test_rejects_above_limit(self):
        big = MODULUS_LIMIT + 3
        while not is_prime(big):
            big += 2
        with pytest.raises(ValueError):
            validate_modulus(big)


class TestPrimitiveRoot:
    def test_golden_values(self):
        assert primitive_root(3) == 2
        assert primitive_root(5) == 2
        assert primitive_root(7) == 3
        assert primitive_root(13) == 2
        assert primitive_root(23) == 5

    def test_generates_whole_group(self):
        for p in (11, 101, 257, 1009):
            g = primitive_root(p)
            seen, x = set(), 1
            for _ in range(p - 1):
                seen.add(x)
                x = (x * g) % p
            assert seen == set(range(1, p))

    def test_is_smallest(self):
        for p in (7, 41, 191):
            g = primitive_root(p)
            for h in range(2, g):
                seen, x = set(), 1
                for _ in range(p - 1):
                    seen.add(x)
                    x = (x * h) % p
                assert seen != set(range(1, p)), (p, h)


class TestSubgroup:
    def test_golden_7_3(self):
        A = subgroup(7, 3)
        assert list(A.elements) == [1, 2, 4]
        assert (A.p, A.d, A.gen) == (7, 3, 2)

    def test_golden_13_4(self):
        A = subgroup(13, 4)
        assert list(A.elements) == [1, 5, 8, 12]
        assert A.gen == 8

    def test_trivial_and_full(self):
        assert list(subgroup(7, 1).elements) == [1]
        assert list(subgroup(7, 6).elements) == [1, 2, 3, 4, 5, 6]

    def test_rejects_non_divisor_order(self):
        with pytest.raises(ValueError):
            subgroup(7, 4)
        with pytest.raises(ValueError):
            subgroup(7, 0)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            subgroup(9, 2)

    def test_matches_order_scan(self):
        for p in (11, 13, 31, 61):
            for d in divisors(p - 1):
                assert list(subgroup(p, d).elements) == brute_subgroup(p, d)

    def test_group_axioms(self):
        for p, d in ((101, 20), (211, 35), (331, 30)):
            A = subgroup(p, d)
            els = set(int(x) for x in A.elements)
            assert len(els) == d
            for x in els:
                assert pow(x, d, p) == 1
                for y in els:
                    assert (x * y) % p in els

    def test_elements_read_only(self):
        A = subgroup(13, 4)
        with pytest.raises(ValueError):
            A.elements[0] = 99

    def test_identity_is_p_and_d(self):
        a1, a2 = subgroup(31, 5), subgroup(31, 5)
        assert a1 == a2
        assert hash(a1) == hash(a2)
        assert a1 != subgroup(31, 6)
        assert a1 != Subgroup(p=37, d=5, gen=0, elements=a1.elements)


class TestCosets:
    def test_reps_golden(self):
        assert list(coset_reps(subgroup(7, 3))) == [1, 3]
        assert list(coset_reps(subgroup(13, 4))) == [1, 2, 4]

    def test_partition(self):
        for p, d in ((101, 4), (131, 13), (61, 12)):
            A = subgroup(p, d)
            assert len(A.reps) == (p - 1) // d
            union = set()
            for r in A.reps:
                coset = {(int(r) * int(x)) % p for x in A.elements}
                assert len(coset) == d
                assert not (union & coset)
                union |= coset
            assert union == set(range(1, p))

    def test_reps_are_minimal_in_coset(self):
        for p, d in ((101, 10), (43, 7)):
            A = subgroup(p, d)
            for r in A.reps:
                coset = {(int(r) * int(x)) % p for x in A.elements}
                assert int(r) == min(coset)

    def test_cached_on_subgroup(self):
        A = subgroup(31, 6)
        assert A.reps is A.reps
        assert np.shares_memory(A.layout, A.layout)  # two views of one table
