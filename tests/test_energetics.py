import random
import tracemalloc

import numpy as np
import pytest

import subgroup_lab.energetics as energetics
import subgroup_lab.spectral as spectral
from subgroup_lab.energetics import (
    InvarianceViolation,
    SubgroupContext,
    additive_energy,
    additive_energy_spectral,
    coset_profile,
    energy_moment,
    invariant_convolution_sum,
    restricted_moment,
    shift_sizes,
    ssc_ratio_sum,
    sumset_ratio_sum,
    threshold_invariant_set,
)
from subgroup_lab.numtheory import divisors, is_prime, subgroup
from subgroup_lab.spectral import convolve_counts
from subgroup_lab.zpsets import ZpSet, invariant_set, is_invariant

from oracles import (
    brute_energy,
    brute_energy_moment,
    brute_shift_profile,
    brute_ssc_ratio,
    brute_sumset_ratio,
)
from routes import TIERS, force_tier


def rand_set(p, rng, k):
    return rng.sample(range(p), k)


class TestShiftSizes:
    def test_matches_oracle(self):
        # unforced, then on each tier with gathers and pair sums in blocks of
        # 7 elements (the whole-Z_p gather then copies one rotation per block)
        # and sets past p/2: Z_p, Z_p minus a point, random ones
        rng = random.Random(31)
        for p in (5, 7, 13, 31):
            sets = [rand_set(p, rng, rng.randint(0, p - 1)) for _ in range(4)]
            sets += [list(range(p)), list(range(1, p)), rand_set(p, rng, p - 1)]
            sets += [rand_set(p, rng, rng.randint(p // 2 + 1, p - 2)) for _ in range(2)]
            for els in sets:
                S = ZpSet.from_elements(p, els)
                want = brute_shift_profile(els, p)
                assert list(shift_sizes(S)) == want
                for tier in TIERS:
                    with pytest.MonkeyPatch.context() as mp:
                        force_tier(mp, tier, block=7)
                        assert list(shift_sizes(S)) == want, (p, len(els), tier)

    def test_conv_fallback_agrees(self, monkeypatch):
        # p = 101, |X| = 40 takes the whole-Z_p gather unforced
        rng = random.Random(32)
        p = 101
        els = rand_set(p, rng, 40)
        S = ZpSet.from_elements(p, els)
        fast = shift_sizes(S)
        force_tier(monkeypatch, "fft")
        slow = shift_sizes(S)
        assert np.array_equal(fast, slow)

    def test_zero_shift_is_cardinality(self):
        S = ZpSet.from_elements(13, [2, 3, 5, 7])
        assert shift_sizes(S)[0] == 4

    def test_pair_route_memory_is_bounded_by_blocks(self, monkeypatch):
        # |X| = 4096 is the largest set the cost model sends to the pair
        # bincount at p = 1000003; one int64 array of all |X|^2 differences
        # would take 128 MB, blocks of p sums and the counts about 23 MB
        p, k = 1000003, 4096
        assert spectral.SCATTER_COST * k * k <= spectral._conv_cost(p)
        assert spectral.SCATTER_COST * (k + 1) ** 2 > spectral._conv_cost(p)
        rng = np.random.default_rng(11)
        S = ZpSet.from_elements(p, rng.choice(p, size=k, replace=False))
        tracemalloc.start()
        try:
            got = shift_sizes(S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        force_tier(monkeypatch, "fft")
        assert np.array_equal(got, shift_sizes(S))
        assert peak < 48 * 2**20, peak


class TestAdditiveEnergy:
    def test_golden_7_3(self):
        A = subgroup(7, 3).indicator
        assert additive_energy(A, A) == 15

    def test_golden_full_group_mod_5(self):
        A = subgroup(5, 4).indicator
        assert additive_energy(A, A) == 52

    def test_matches_quadruple_loop(self):
        rng = random.Random(33)
        for p in (5, 7, 11, 13):
            for _ in range(3):
                axs = rand_set(p, rng, rng.randint(1, min(p - 1, 6)))
                bxs = rand_set(p, rng, rng.randint(1, min(p - 1, 6)))
                A = ZpSet.from_elements(p, axs)
                B = ZpSet.from_elements(p, bxs)
                assert additive_energy(A, B) == brute_energy(axs, bxs, p)

    def test_symmetric(self):
        rng = random.Random(34)
        p = 31
        A = ZpSet.from_elements(p, rand_set(p, rng, 7))
        B = ZpSet.from_elements(p, rand_set(p, rng, 11))
        assert additive_energy(A, B) == additive_energy(B, A)

    def test_empty(self):
        p = 11
        assert additive_energy(ZpSet.empty(p), ZpSet.from_elements(p, [1])) == 0

    def test_int64_path_past_2_20(self, monkeypatch):
        # min(|A|, |B|) |A| |B| < 2^63 puts this p > 2^20 case on np.dot
        p = next(q for q in range((1 << 20) + 1, 1 << 21, 2) if is_prime(q))
        rng = random.Random(36)
        A = ZpSet.from_elements(p, rand_set(p, rng, 300))
        B = ZpSet.from_elements(p, rand_set(p, rng, 200))

        class DotSpy:
            calls = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def dot(self, a, b):
                DotSpy.calls += 1
                return np.dot(a, b)

        monkeypatch.setattr(energetics, "np", DotSpy())
        got = additive_energy(A, B)
        assert DotSpy.calls == 1
        counts = convolve_counts(A, B)
        assert got == sum(int(c) ** 2 for c in counts.tolist())

    def test_spectral_form_agrees(self):
        rng = random.Random(35)
        for p in (7, 31, 101):
            for _ in range(3):
                A = ZpSet.from_elements(p, rand_set(p, rng, rng.randint(1, p - 1)))
                B = ZpSet.from_elements(p, rand_set(p, rng, rng.randint(1, p - 1)))
                exact = additive_energy(A, B)
                spec = additive_energy_spectral(A, B)
                assert abs(spec - exact) <= 1e-6 * max(1, exact)

    def test_spectral_modulus_mismatch(self):
        with pytest.raises(ValueError):
            additive_energy_spectral(
                ZpSet.from_elements(7, [1]), ZpSet.from_elements(11, [1])
            )


class TestEnergyMoments:
    def test_r1_is_cardinality_squared(self):
        rng = random.Random(36)
        for p in (7, 31):
            els = rand_set(p, rng, 5)
            assert energy_moment(ZpSet.from_elements(p, els), 1) == 25.0

    def test_r2_is_energy(self):
        A = subgroup(7, 3).indicator
        assert energy_moment(A, 2) == 15.0

    def test_golden_e3_7_3(self):
        A = subgroup(7, 3).indicator
        assert energy_moment(A, 3) == 33.0

    def test_matches_oracle_fractional(self):
        rng = random.Random(37)
        for p in (7, 13, 31):
            els = rand_set(p, rng, rng.randint(1, p - 1))
            S = ZpSet.from_elements(p, els)
            for r in (1.5, 2.0, 3.0):
                want = brute_energy_moment(els, r, p)
                assert abs(energy_moment(S, r) - want) <= 1e-9 * max(1.0, want)

    def test_rejects_r_below_one(self):
        with pytest.raises(ValueError):
            energy_moment(ZpSet.from_elements(7, [1]), 0.5)

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), np.float64("nan")])
    def test_rejects_non_finite_order(self, r):
        with pytest.raises(ValueError, match="finite"):
            energy_moment(ZpSet.from_elements(7, [1, 2]), r)

    def test_golden_e32_7_3(self):
        A = subgroup(7, 3).indicator
        assert abs(energy_moment(A, 1.5) - 11.196152422706632) <= 1e-12

    def test_energy_moments_match_python_sums(self):
        # E and E3 are read at the coset reps; the sums here run over all of Z_p
        for p in (q for q in range(3, 301) if is_prime(q)):
            for d in divisors(p - 1):
                A = subgroup(p, d)
                sizes = shift_sizes(A.indicator).tolist()
                ctx = SubgroupContext(A)
                assert ctx.energy == sum(int(x) ** 2 for x in sizes), (p, d)
                assert ctx.energy3 == sum(int(x) ** 3 for x in sizes), (p, d)

    def test_energy3_past_int64_on_a_subgroup(self):
        # A = Z_p^* at p = 65537: E3 = 2^48 + 65536 * 65535^3 exceeds 2^63
        A = subgroup(65537, 65536)
        want = sum(int(x) ** 3 for x in shift_sizes(A.indicator).tolist())
        assert want == 2**48 + 65536 * 65535**3 >= 1 << 63
        assert SubgroupContext(A).energy3 == want


class TestCosetProfile:
    def test_golden_7_3(self):
        assert coset_profile(subgroup(7, 3)) == ((1, 1), (3, 1))

    def test_sorted_by_size_desc(self):
        for p, d in ((101, 10), (211, 14)):
            A = subgroup(p, d)
            pairs = coset_profile(A)
            sizes = [l for _, l in pairs]
            assert sizes == sorted(sizes, reverse=True)
            # the (rep, l) pairs of A.reps and the rep profile, ties by ascending rep
            profile = zip(A.reps.tolist(), SubgroupContext(A).rep_profile.tolist())
            assert pairs == tuple(sorted(profile, key=lambda rl: (-rl[1], rl[0])))

    def test_sizes_cover_all_nonzero_shifts(self):
        # d * sum of coset sizes counts every nonzero shift intersection
        p, d = 61, 12
        A = subgroup(p, d)
        raw = shift_sizes(A.indicator)
        assert d * sum(l for _, l in coset_profile(A)) == int(raw[1:].sum())

    def test_full_group_single_entry(self):
        # one nonzero coset; every nonzero shift meets Z_p* in p-2 points
        assert coset_profile(subgroup(7, 6)) == ((1, 5),)
        assert coset_profile(subgroup(11, 10)) == ((1, 9),)

    def test_moment_from_profile_matches_direct(self):
        for p, d in ((13, 4), (101, 25), (211, 30)):
            A = subgroup(p, d)
            direct = energy_moment(A.indicator, 1.5)
            # the s = 0 term d^{3/2}, then d shifts per coset of size l
            via_profile = d**1.5 + d * sum(l**1.5 for _, l in coset_profile(A))
            assert abs(direct - via_profile) <= 1e-9 * max(1.0, direct)


class TestRatioSums:
    def test_ssc_golden_7_3(self):
        assert abs(ssc_ratio_sum(subgroup(7, 3)) - 2.7) <= 1e-12

    def test_ssc_matches_oracle(self):
        for p, d in ((13, 4), (31, 6), (61, 12), (101, 20)):
            A = subgroup(p, d)
            want = brute_ssc_ratio(list(map(int, A.elements)), p)
            assert abs(ssc_ratio_sum(A) - want) <= 1e-9 * max(1.0, want)

    def test_ssc_trivial_subgroup(self):
        # only s = 0 contributes: 1^2 / |{1}+{1}| = 1
        assert ssc_ratio_sum(subgroup(7, 1)) == 1.0

    def test_ssc_guard_catches_a_vanished_2a_intersection(self, monkeypatch):
        # zero the 2A profile at one live coset's point: ssc must refuse to divide
        p, d = 101, 20
        ctx = SubgroupContext(subgroup(p, d))
        j = int(np.flatnonzero(ctx.shifts.at[1:])[0]) + 1
        point = int(ctx.A.points[j])
        real = energetics._shift_sizes_at
        seen = []

        def zeroed(X, points):
            sizes = real(X, points)
            if X is ctx.two_a:
                seen.append(points.tolist())
                sizes[points == point] = 0
            return sizes

        monkeypatch.setattr(energetics, "_shift_sizes_at", zeroed)
        with pytest.raises(InvarianceViolation, match="vanished under a live shift"):
            ctx.ssc
        assert len(seen) == 1 and point in seen[0]

    def test_sumset_ratio_golden_7_3(self):
        assert abs(sumset_ratio_sum(subgroup(7, 3)) - 3.5) <= 1e-12

    def test_sumset_ratio_trivial_subgroup(self):
        assert sumset_ratio_sum(subgroup(7, 1)) == 1.0

    def test_sumset_ratio_matches_oracle(self):
        for p, d in ((13, 4), (31, 6), (61, 12), (101, 20)):
            A = subgroup(p, d)
            want = brute_sumset_ratio(list(map(int, A.elements)), p)
            got = sumset_ratio_sum(A)
            assert abs(got - want) <= 1e-9 * max(1.0, want)

    def test_sumset_ratio_gate(self):
        A = subgroup(4099, 3)
        with pytest.raises(ValueError):
            sumset_ratio_sum(A)
        assert sumset_ratio_sum(A, allow_large=True) > 0


class TestInvariantMachinery:
    def test_convolution_sum_golden(self):
        A = subgroup(7, 3)
        S1 = invariant_set(A, (1,))
        S3 = invariant_set(A, (3,))
        both = invariant_set(A, (1, 3))
        assert invariant_convolution_sum(S1, S1, S1) == 3
        assert invariant_convolution_sum(S1, S1, S3) == 6
        assert invariant_convolution_sum(S1, S1, both) == 9

    def test_convolution_sum_matches_enumeration(self):
        A = subgroup(13, 4)
        S1 = invariant_set(A, (1, 2))
        S2 = invariant_set(A, (4,))
        S3 = invariant_set(A, (2, 4), includes_zero=True)
        xs = [int(v) for v in S1.members()]
        ys = [int(v) for v in S2.members()]
        zs = set(int(v) for v in S3.members())
        want = sum(1 for x in xs for y in ys if (x + y) % 13 in zs)
        assert invariant_convolution_sum(S1, S2, S3) == want

    def test_convolution_sum_rejects_mixed_subgroups(self):
        S1 = invariant_set(subgroup(7, 3), (1,))
        S2 = invariant_set(subgroup(7, 6), (1,))
        with pytest.raises(ValueError):
            invariant_convolution_sum(S1, S1, S2)
        # sets that carry no subgroup, even equal ones, are refused too
        plain = ZpSet(7, S1.bits)
        for args in ((plain, plain, plain), (S1, plain, S1)):
            with pytest.raises(ValueError, match="carry one subgroup"):
                invariant_convolution_sum(*args)

    def test_restricted_moment_golden(self):
        A = subgroup(7, 3)
        S = invariant_set(A, (1, 3))
        prof = convolve_counts(A.indicator, A.indicator)
        # counts on 1..6 are [1,1,2,1,2,2]; squares sum to 15
        assert restricted_moment(prof, S, 2.0) == 15.0

    def test_restricted_moment_r1_is_total_mass(self):
        A = subgroup(7, 3)
        prof = convolve_counts(A.indicator, A.indicator)
        everything = invariant_set(A, (1, 3), includes_zero=True)
        assert restricted_moment(prof, everything, 1.0) == 9.0

    def test_restricted_moment_zero_only(self):
        # A * (-A) piles |A| pairs on z = 0; {0} alone picks up counts[0]^r
        A = subgroup(7, 3)
        neg = ZpSet.from_elements(7, [(-int(x)) % 7 for x in A.elements])
        prof = convolve_counts(A.indicator, neg)
        zero_only = invariant_set(A, (), includes_zero=True)
        assert zero_only.members() == [0]
        assert restricted_moment(prof, zero_only, 2.0) == 9.0

    def test_restricted_moment_modulus_mismatch(self):
        prof = convolve_counts(subgroup(7, 3).indicator, subgroup(7, 3).indicator)
        with pytest.raises(ValueError):
            restricted_moment(prof, invariant_set(subgroup(13, 4), (1,)), 2.0)

    def test_threshold_set_golden(self):
        A = subgroup(7, 3)
        prof = convolve_counts(A.indicator, A.indicator)
        assert list(threshold_invariant_set(prof, A, 2.0).members()) == [3, 5, 6]
        assert list(threshold_invariant_set(prof, A, 0.5).members()) == [1, 2, 3, 4, 5, 6]
        assert threshold_invariant_set(prof, A, 2.5).card == 0
        assert threshold_invariant_set(prof, A, 0.5).sym is A

    def test_threshold_set_include_zero(self):
        A = subgroup(7, 3)
        two = invariant_set(A, (1, 3), includes_zero=True)  # all of Z_7
        prof = convolve_counts(two, two)
        assert 0 in threshold_invariant_set(prof, A, 1.0, include_zero=True)
        assert 0 not in threshold_invariant_set(prof, A, 1.0)

    def test_threshold_set_raises_on_nonconstant_profile(self):
        A = subgroup(13, 4)
        lopsided = ZpSet.from_elements(13, [1, 2])  # not A-invariant
        prof = convolve_counts(A.indicator, lopsided)
        with pytest.raises(InvarianceViolation, match="not constant on the coset of 1$"):
            threshold_invariant_set(prof, A, 1.0)
        # break the cosets 8A = {8, 9, 14, 17, 22, 23} and 2A = {2, 10, 12,
        # 19, 21, 29} of the order-6 subgroup mod 31 away from their least
        # elements; the smaller representative is named
        A = subgroup(31, 6)
        counts = convolve_counts(A.indicator, A.indicator).copy()
        counts[[17, 29]] += 1
        with pytest.raises(InvarianceViolation, match="not constant on the coset of 2$"):
            threshold_invariant_set(counts, A, 1.0)

    def test_threshold_result_is_invariant_and_counted(self):
        A = subgroup(31, 6)
        prof = convolve_counts(A.indicator, A.indicator)
        for k in (1.0, 2.0, 3.0):
            S = threshold_invariant_set(prof, A, k)
            members = set(int(v) for v in S.members())
            want = {z for z in range(1, 31) if prof[z] >= k}
            assert members == want
            assert S.sym is A and is_invariant(S, A)
