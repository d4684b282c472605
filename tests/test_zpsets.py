import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgroup_lab.energetics import SubgroupContext, threshold_invariant_set
from subgroup_lab.numtheory import divisors, is_prime, subgroup
from subgroup_lab.spectral import exact_counts
from subgroup_lab.zpsets import (
    ZpSet,
    dilate,
    fold_sumset,
    invariant_set,
    is_invariant,
    shift_intersect,
    sumset,
    translate,
)

from oracles import (
    brute_convolution,
    brute_dilate,
    brute_fold,
    brute_shift_intersect,
    brute_sumset,
    brute_translate,
)
from routes import TIERS, force_tier

PRIMES = (3, 5, 7, 13, 31, 101)


def rand_elements(p, rng, lo=0):
    k = rng.randint(lo, p - 1)
    return rng.sample(range(p), k)


class TestZpSet:
    def test_from_elements_normalizes(self):
        S = ZpSet.from_elements(7, [8, 15, 1, -3, 4])
        assert list(S.members()) == [1, 4]
        assert S.card == 2
        assert len(S) == 2

    def test_empty(self):
        S = ZpSet.empty(11)
        assert S.card == 0
        assert list(S.members()) == []

    def test_contains(self):
        S = ZpSet.from_elements(7, [1, 2, 4])
        assert 2 in S
        assert 9 in S  # 9 = 2 mod 7
        assert 3 not in S

    def test_eq_hash(self):
        a = ZpSet.from_elements(7, [1, 2, 4])
        b = ZpSet.from_elements(7, [4, 1, 2])
        assert a == b
        assert hash(a) == hash(b)
        assert a != ZpSet.from_elements(7, [1, 2])
        assert a != ZpSet.from_elements(11, [1, 2, 4])

    def test_bits_immutable(self):
        S = ZpSet.from_elements(7, [1])
        with pytest.raises(ValueError):
            S.bits[0] = True

    def test_constructor_copies(self):
        bits = np.zeros(7, dtype=bool)
        bits[3] = True
        S = ZpSet(7, bits)
        bits[5] = True
        assert 5 not in S

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            ZpSet.from_elements(8, [1])

    @pytest.mark.parametrize("els", [[1.5, 2.9], [1, float("nan")], np.array([np.inf]), ["1"]])
    def test_rejects_non_integral_elements(self, els):
        with pytest.raises(ValueError, match="finite integers"):
            ZpSet.from_elements(7, els)

    def test_accepts_integer_bool_and_integral_float_elements(self):
        for els in ([1, 9], np.array([1, 2], dtype=np.int32), [2.0, 8.0], [1, 2**70]):
            assert ZpSet.from_elements(7, els) == ZpSet.from_elements(7, [int(e) % 7 for e in els])
        assert ZpSet.from_elements(7, np.array([True, False])).members().tolist() == [0, 1]

    @pytest.mark.parametrize(
        "p, bits",
        [
            (7, [0, 2, 1, 0, 0, -1, 0.5]),  # used to give {1, 2, 5, 6}
            (5, [np.nan, 0, 0, 0, 1.0]),  # used to give {0, 4}
            (5, [0, 0, 0, 0, np.inf]),
            (5, np.array([0, 1, 0, 0, 3], dtype=np.uint8)),
            (5, [None, 0, 0, 0, 1]),
            (5, ["1", 0, 0, 0, 0]),
        ],
    )
    def test_constructor_rejects_entries_other_than_0_and_1(self, p, bits):
        with pytest.raises(ValueError, match="0 or 1"):
            ZpSet(p, bits)

    def test_constructor_accepts_0_1_of_any_dtype(self):
        want = ZpSet.from_elements(5, [1, 4])
        for bits in ([0, 1, 0, 0, 1], [0.0, 1.0, 0.0, 0.0, 1.0], np.array([0, 1, 0, 0, 1], dtype=np.int8)):
            S = ZpSet(5, bits)
            assert S == want and S.bits.dtype == bool and S.card == 2

    @pytest.mark.parametrize("p, n", [(8, 8), (1, 1), (7, 6), (7, 8)])
    def test_constructor_rejects_bad_modulus_or_length(self, p, n):
        with pytest.raises(ValueError):
            ZpSet(p, np.zeros(n, dtype=bool))

    def test_covers_nonzero(self):
        assert ZpSet.from_elements(5, [1, 2, 3, 4]).covers_nonzero()
        assert ZpSet.from_elements(5, [0, 1, 2, 3, 4]).covers_nonzero()
        assert not ZpSet.from_elements(5, [1, 2, 3]).covers_nonzero()

    def test_is_subset_of(self):
        small = ZpSet.from_elements(7, [1, 2])
        big = ZpSet.from_elements(7, [1, 2, 4])
        assert small.is_subset_of(big)
        assert not big.is_subset_of(small)
        with pytest.raises(ValueError):
            small.is_subset_of(ZpSet.from_elements(11, [1, 2]))

    def test_text_roundtrip(self):
        S = ZpSet.from_elements(7, [1, 2, 4])
        assert S.to_text() == "7:{1,2,4}"
        assert ZpSet.from_text("7:{1,2,4}") == S
        E = ZpSet.empty(11)
        assert ZpSet.from_text(E.to_text()) == E

    def test_from_text_rejects_garbage(self):
        for bad in ("7", "7:{1,2", "x:{1}", "7:[1]", ""):
            with pytest.raises(ValueError):
                ZpSet.from_text(bad)


class TestPackageResults:
    """Sets the package builds are wrapped without a copy, read-only all the same."""

    @staticmethod
    def results(p, d):
        A = subgroup(p, d)
        rng = random.Random(p + d)
        S = ZpSet.from_elements(p, rng.sample(range(p), p // 3))
        T = ZpSet.from_elements(p, rng.sample(range(p), 4))
        ctx = SubgroupContext(A)
        yield from (ZpSet.empty(p), ZpSet.full(p), S, T, sumset(S, T), sumset(S, ZpSet.empty(p)))
        yield from (sumset(S, ZpSet.full(p)), translate(S, 3), shift_intersect(S, 5), dilate(S, 3))
        yield from (fold_sumset(T, 3), ctx.two_a, fold_sumset(ctx.aset, 3))
        yield sumset(ctx.two_a, ctx.two_a)
        yield invariant_set(A, A.reps[:2], includes_zero=True)
        yield threshold_invariant_set(ctx.conv_aa, A, 1)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("p, d", [(31, 5), (101, 4)])
    def test_read_only_with_ascending_int64_members(self, monkeypatch, tier, p, d):
        force_tier(monkeypatch, tier, block=7)
        for R in self.results(p, d):
            assert not R.bits.flags.writeable
            with pytest.raises(ValueError):
                R.bits[0] = not R.bits[0]
            m = R.members()
            assert m.dtype == np.int64 and m.tolist() == [x for x in range(p) if x in R]
            assert R.card == len(m) and R.bits.shape == (p,)

    def test_tagged_sets_are_invariant_and_pointwise_ops_untag(self):
        # every subgroup with p <= 300: each set the package tags is fixed by
        # its subgroup's dilations away from 0 (the sumsets take the pigeonhole
        # full set and the empty set too); translate, dilate, shift_intersect,
        # A.indicator and the constructors never tag, whatever they are given
        for p in (q for q in range(3, 301) if is_prime(q)):
            for d in divisors(p - 1):
                A = subgroup(p, d)
                ctx = SubgroupContext(A)
                aset = ctx.aset
                union = invariant_set(A, A.reps[::2], includes_zero=True)
                empty = invariant_set(A, ())
                three = fold_sumset(aset, 3)
                tagged = [aset, ctx.two_a, three, union, empty, sumset(union, ctx.two_a)]
                tagged += [sumset(union, union), sumset(aset, empty), sumset(three, three)]
                tagged += [threshold_invariant_set(ctx.conv_aa, A, k) for k in (1, 2)]
                for S in tagged:
                    assert S.sym is A and is_invariant(S, A), (p, d, S)
                copy = ZpSet(p, aset.bits)
                other = SubgroupContext(subgroup(p, p - 1 if d == 1 else 1)).aset
                plain = [translate(aset, 1), dilate(aset, 2), shift_intersect(aset, 1), copy]
                plain += [A.indicator, sumset(A.indicator, A.indicator)]
                plain += [ZpSet.from_elements(p, A.elements), ZpSet.full(p)]
                plain += [sumset(aset, copy), sumset(aset, other)]
                for S in plain:
                    assert S.sym is None, (p, d, S)


class TestPointwiseOps:
    def test_translate_matches_oracle(self):
        rng = random.Random(1)
        for p in PRIMES:
            for _ in range(5):
                els = rand_elements(p, rng)
                S = ZpSet.from_elements(p, els)
                for z in (0, 1, p - 1, rng.randrange(p)):
                    got = set(int(v) for v in translate(S, z).members())
                    assert got == brute_translate(els, z, p)

    def test_dilate_matches_oracle(self):
        rng = random.Random(2)
        for p in PRIMES:
            els = rand_elements(p, rng)
            S = ZpSet.from_elements(p, els)
            for a in range(1, p):
                got = set(int(v) for v in dilate(S, a).members())
                assert got == brute_dilate(els, a, p)

    def test_dilate_by_zero_rejected(self):
        S = ZpSet.from_elements(7, [1, 2])
        with pytest.raises(ValueError):
            dilate(S, 0)
        with pytest.raises(ValueError):
            dilate(S, 14)

    def test_translate_and_shift_intersect_at_edge_shifts(self):
        # the slice roll at s = 0, 1 and p - 1, and shifts given outside [0, p)
        rng = random.Random(8)
        for p in (3, 5, 101, 100003):
            for k in (0, 1, min(p - 1, 500)):
                els = rng.sample(range(p), k)
                S = ZpSet.from_elements(p, els)
                for s in (0, 1, p - 1, -1, p + 1):
                    assert set(translate(S, s).members().tolist()) == brute_translate(els, s, p)
                    got = set(shift_intersect(S, s).members().tolist())
                    assert got == brute_shift_intersect(els, s, p), (p, k, s)

    def test_shift_intersect_matches_oracle(self):
        rng = random.Random(3)
        for p in PRIMES:
            els = rand_elements(p, rng)
            S = ZpSet.from_elements(p, els)
            for s in range(p):
                got = set(int(v) for v in shift_intersect(S, s).members())
                assert got == brute_shift_intersect(els, s, p)


class TestSumset:
    def test_matches_oracle_small_path(self):
        rng = random.Random(4)
        for p in PRIMES:
            for _ in range(8):
                xs, ys = rand_elements(p, rng), rand_elements(p, rng)
                got = sumset(ZpSet.from_elements(p, xs), ZpSet.from_elements(p, ys))
                assert set(int(v) for v in got.members()) == brute_sumset(xs, ys, p)

    def test_matches_oracle_convolution_path(self, monkeypatch):
        force_tier(monkeypatch, "fft")
        rng = random.Random(5)
        for p in PRIMES:
            for _ in range(4):
                xs = rand_elements(p, rng, lo=1)
                ys = rand_elements(p, rng, lo=1)
                got = sumset(ZpSet.from_elements(p, xs), ZpSet.from_elements(p, ys))
                assert set(int(v) for v in got.members()) == brute_sumset(xs, ys, p)

    def test_paths_agree(self, monkeypatch):
        rng = random.Random(6)
        p = 131
        pairs = [
            (rand_elements(p, rng, lo=1), rand_elements(p, rng, lo=1))
            for _ in range(10)
        ]
        force_tier(monkeypatch, "gather")
        small = [
            sumset(ZpSet.from_elements(p, a), ZpSet.from_elements(p, b))
            for a, b in pairs
        ]
        force_tier(monkeypatch, "fft")
        large = [
            sumset(ZpSet.from_elements(p, a), ZpSet.from_elements(p, b))
            for a, b in pairs
        ]
        assert small == large

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_both_routes_match_brute(self, data):
        # each tier with gathers and pair sums in blocks of 7 elements (several
        # blocks and a partial last one): the counts of exact_counts, its bool
        # out (never on the pair tier) and the sumset built on it
        p = data.draw(st.sampled_from([q for q in range(3, 300) if is_prime(q)]))
        xs = data.draw(st.lists(st.integers(0, p - 1), max_size=p))
        ys = data.draw(st.lists(st.integers(0, p - 1), max_size=40))
        X, Y = ZpSet.from_elements(p, xs), ZpSet.from_elements(p, ys)
        want = brute_sumset(xs, ys, p)
        counts = brute_convolution(X.members().tolist(), Y.members().tolist(), p)
        for tier in TIERS:
            with pytest.MonkeyPatch.context() as mp:
                force_tier(mp, tier, block=7)
                assert exact_counts(X.bits, Y.members()).tolist() == counts, (p, tier)
                out = np.empty(p, dtype=bool)
                assert exact_counts(X.bits, Y.members(), out=out) is out
                assert set(np.flatnonzero(out).tolist()) == want, (p, tier)
                assert set(sumset(X, Y).members().tolist()) == want, (p, tier)
                assert sumset(Y, X) == sumset(X, Y)

    def test_gather_memory_is_bounded_by_row_blocks(self, monkeypatch):
        # p * |small| = 5e7 gathered elements, the route the cost model takes
        # unforced; one unblocked int64 index matrix would take 400 MB, and
        # one int64 vector over Z_p 8 MB
        p = 1000003
        rng = np.random.default_rng(9)
        xs = rng.choice(p, size=1000, replace=False)
        ys = rng.choice(p, size=50, replace=False)
        force_tier(monkeypatch, "gather")
        X, Y = ZpSet.from_elements(p, xs), ZpSet.from_elements(p, ys)
        tracemalloc.start()
        try:
            got = sumset(X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.members(), np.unique((xs[:, None] + ys) % p))
        assert peak < 6 * 2**20, peak

    def test_empty_operand(self):
        S = ZpSet.from_elements(7, [1, 2])
        assert sumset(S, ZpSet.empty(7)).card == 0

    def test_zero_singleton_is_identity(self):
        S = ZpSet.from_elements(11, [2, 3, 7])
        assert sumset(S, ZpSet.from_elements(11, [0])) == S

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            sumset(ZpSet.from_elements(7, [1]), ZpSet.from_elements(11, [1]))

    def test_golden_subgroup_7_3(self):
        A = subgroup(7, 3).indicator
        two = sumset(A, A)
        assert list(two.members()) == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("tier", TIERS)
    def test_untagged_operand_is_counted_at_every_point(self, monkeypatch, tier):
        # {1} is not fixed by A = {1, 5, 8, 12}: read on A's cosets, {1} + A
        # would come out as {0, 2, 3, 10, 11}, also beside A carrying A
        force_tier(monkeypatch, tier)
        A = subgroup(13, 4)
        for aset in (A.indicator, SubgroupContext(A).aset):
            got = sumset(ZpSet.from_elements(13, [1]), aset)
            assert got.members().tolist() == [0, 2, 6, 9] and got.sym is None


class TestFoldSumset:
    def test_k1_is_identity(self):
        A = ZpSet.from_elements(13, [1, 5, 8])
        assert fold_sumset(A, 1) == A

    def test_matches_oracle(self):
        rng = random.Random(7)
        for p in (7, 13, 31):
            els = rand_elements(p, rng, lo=1)
            S = ZpSet.from_elements(p, els)
            for k in (2, 3, 4):
                got = fold_sumset(S, k)
                assert set(int(v) for v in got.members()) == brute_fold(els, k, p)

    def test_golden_3a_covers_everything(self):
        A = subgroup(7, 3).indicator
        assert list(fold_sumset(A, 3).members()) == [0, 1, 2, 3, 4, 5, 6]

    def test_rejects_nonpositive_k(self):
        A = ZpSet.from_elements(7, [1])
        for k in (0, -1):
            with pytest.raises(ValueError):
                fold_sumset(A, k)


class TestInvariantSets:
    def test_golden_union(self):
        A = subgroup(7, 3)
        S = invariant_set(A, (1, 3))
        assert list(S.members()) == [1, 2, 3, 4, 5, 6]
        assert S.sym is A

    def test_zero_flag(self):
        A = subgroup(7, 3)
        S = invariant_set(A, (1,), includes_zero=True)
        assert list(S.members()) == [0, 1, 2, 4]

    def test_single_rep_is_the_subgroup_itself(self):
        A = subgroup(7, 3)
        assert list(invariant_set(A, (1,)).members()) == [1, 2, 4]

    def test_rejects_zero_rep(self):
        with pytest.raises(ValueError):
            invariant_set(subgroup(7, 3), (0,))

    @pytest.mark.parametrize("reps", [[1.5], [2, float("inf")], [float("nan")]])
    def test_rejects_non_integral_reps(self, reps):
        with pytest.raises(ValueError, match="finite integers"):
            invariant_set(subgroup(13, 4), reps)

    def test_rejects_same_coset_reps(self):
        # 2 sits in the coset of 1 for the cubes mod 7
        with pytest.raises(ValueError):
            invariant_set(subgroup(7, 3), (1, 2))

    def test_is_invariant(self):
        A = subgroup(13, 4)
        assert is_invariant(A.indicator, A)
        assert is_invariant(invariant_set(A, (1, 2)), A)
        with_zero = invariant_set(A, (2,), includes_zero=True)
        assert is_invariant(with_zero, A)
        assert not is_invariant(ZpSet.from_elements(13, [1, 5]), A)
        assert is_invariant(ZpSet.empty(13), A)

    def test_members_sorted(self):
        A = subgroup(13, 4)
        S = invariant_set(A, (2,), includes_zero=True)
        m = list(S.members())
        assert m == sorted(m)
        assert isinstance(S, ZpSet)
