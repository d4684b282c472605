import math
import random

import numpy as np
import pytest

import subgroup_lab.energetics as energetics
import subgroup_lab.spectral as spectral
import subgroup_lab.verifier as verifier
import subgroup_lab.zpsets as zpsets
from subgroup_lab.numtheory import divisors, is_prime, subgroup
from subgroup_lab.energetics import SubgroupContext, additive_energy, sumset_ratio_sum
from subgroup_lab.spectral import convolve_counts, cyclic_convolution_exact
from subgroup_lab.verifier import (
    ALL_CHECKS,
    HEAVY_CHECKS,
    BoundCheck,
    FitResult,
    check_bound,
    check_six_fold,
    clears_cover_threshold,
    count_solutions_N,
    covering_index,
    exponent_fit,
    positivity_condition,
)
from subgroup_lab.zpsets import ZpSet, first_cover, fold_sumset, multiset_count

from oracles import brute_count_N, brute_covering_index, brute_phi, brute_sumset
from routes import count_contexts

EXPECTED_NAMES = {
    "hk_energy",
    "e3",
    "ssc2",
    "ssc_lemma3",
    "energy1_shkredov",
    "energy2_shkredov",
    "energy_extension",
    "sumset_growth",
    "phi_hk",
    "phi_shparlinski",
    "e32",
    "phi_expA",
    "sv_convolution",
    "l3_moment",
    "li_decay",
}


class TestCatalogShape:
    def test_all_fifteen_present(self):
        assert set(ALL_CHECKS) == EXPECTED_NAMES
        assert len(ALL_CHECKS) == 15

    def test_heavy_subset(self):
        assert HEAVY_CHECKS == {"ssc_lemma3"}

    def test_heavy_subset_is_what_the_gate_stops(self):
        # above HEAVY_LIMIT without --heavy, exactly the checks in HEAVY_CHECKS
        # reach the gated sumset_ratio
        ctx = SubgroupContext(subgroup(4099, 6))
        assert not ctx.heavy_ok
        stopped = set()
        for name in ALL_CHECKS:
            try:
                check_bound(name, ctx.A, context=ctx)
            except ValueError:
                stopped.add(name)
        assert stopped == HEAVY_CHECKS

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            check_bound("no_such_check", subgroup(7, 3))

    def test_context_rejects_tiny_subgroups(self):
        # with or without a context: the catalog's logs need |A| >= 3
        for d in (1, 2):
            A = subgroup(7, d)
            for ctx in (None, SubgroupContext(A)):
                with pytest.raises(ValueError, match="need \\|A\\| >= 3"):
                    check_bound("e3", A, ctx)

    def test_context_rejects_bad_constant(self):
        with pytest.raises(ValueError):
            check_bound("hk_energy", subgroup(7, 3), hypothesis_constant=0)

    @pytest.mark.parametrize(
        "knobs",
        [
            dict(hypothesis_constant=math.nan),
            dict(hypothesis_constant=math.inf),
            dict(hypothesis_constant=-math.inf),
            dict(hypothesis_constant=-1.0),
            dict(hypothesis_constant=0.0),
            dict(hypothesis_constant=math.nan, shared=True),
            dict(hypothesis_constant=math.inf, shared=True),
            dict(hypothesis_constant=0.0, shared=True),
        ],
    )
    def test_context_rejects_non_finite_knobs(self, knobs):
        # refused whether check_bound builds the context or is given one
        A = subgroup(13, 3)
        ctx = SubgroupContext(A) if knobs.pop("shared", False) else None
        with pytest.raises(ValueError, match="positive and finite"):
            check_bound("l3_moment", A, ctx, **knobs)

    def test_one_heavy_gate_for_every_route(self):
        A = subgroup(4099, 3)
        routes = (
            lambda force: SubgroupContext(A, allow_heavy=force).sumset_ratio,
            lambda force: check_bound("ssc_lemma3", A, SubgroupContext(A, allow_heavy=force)).lhs,
            lambda force: sumset_ratio_sum(A, allow_large=force),
        )
        for route in routes:
            with pytest.raises(ValueError):
                route(False)
        assert SubgroupContext(A).heavy_ok is False
        assert len({route(True) for route in routes}) == 1

    def test_every_check_runs_and_is_coherent(self):
        for p, d in ((7, 3), (31, 6), (101, 20), (211, 30)):
            ctx = SubgroupContext(subgroup(p, d))
            for name in ALL_CHECKS:
                res = check_bound(name, ctx.A, context=ctx)
                assert isinstance(res, BoundCheck)
                assert (res.name, res.p, res.d) == (name, p, d)
                assert math.isfinite(res.lhs) and res.lhs >= 0
                assert math.isfinite(res.rhs_expr) and res.rhs_expr > 0
                assert math.isfinite(res.ratio) and res.ratio >= 0
                if name == "sumset_growth":
                    assert res.ratio == pytest.approx(res.rhs_expr / res.lhs)
                else:
                    assert res.ratio == pytest.approx(res.lhs / res.rhs_expr)

    def test_shared_context_matches_fresh(self):
        # the constant is an argument of the check, not of the context: one
        # shared context gives what a fresh one gives at each constant
        flags = {}
        for p, d in ((7, 3), (61, 12), (101, 25), (211, 30)):
            A = subgroup(p, d)
            ctx = SubgroupContext(A)
            for c in (0.5, 1.0, 2.0):
                for name in ALL_CHECKS:
                    shared = check_bound(name, A, ctx, hypothesis_constant=c)
                    assert shared == check_bound(name, A, hypothesis_constant=c), (p, d, c, name)
                    flags.setdefault((p, d, name), set()).add(shared.hypothesis_ok)
        # and the constant moves some flag through the shared context
        assert any(len(seen) == 2 for seen in flags.values())

    def test_context_of_another_subgroup_raises(self):
        with pytest.raises(ValueError, match="context is for Subgroup\\(p=13, d=3\\)"):
            check_bound("e3", subgroup(7, 3), SubgroupContext(subgroup(13, 3)))
        # an equal subgroup built apart is the same subgroup
        assert check_bound("e3", subgroup(13, 3), SubgroupContext(subgroup(13, 3))).p == 13

    def test_bound_check_is_an_immutable_record_of_plain_cells(self):
        # the CSV writes each float by repr and each bool as true/false, so
        # numpy scalars must not reach the cells
        assert BoundCheck._fields == (
            "name", "p", "d", "lhs", "rhs_expr", "ratio", "hypothesis_ok"
        )
        for p, d in ((7, 3), (101, 20), (211, 210)):
            A = subgroup(p, d)
            ctx = SubgroupContext(A)
            for name in ALL_CHECKS:
                res = check_bound(name, A, ctx)
                assert [type(v) for v in res] == [str, int, int, float, float, float, bool]
                with pytest.raises(AttributeError):
                    res.ratio = 0.0

    def test_knobs_beside_a_context_raise(self):
        # no knob beside a context is silently ignored: the constant is
        # honoured, a bad constant and the retired l3 knobs are refused
        A = subgroup(61, 12)
        ctx = SubgroupContext(A)
        assert check_bound("hk_energy", A, ctx).hypothesis_ok
        assert not check_bound("hk_energy", A, ctx, hypothesis_constant=1e-9).hypothesis_ok
        with pytest.raises(ValueError, match="hypothesis constant"):
            check_bound("hk_energy", A, ctx, hypothesis_constant=-1.0)
        for knob in ("l3_moment_order", "l3_threshold"):
            for context in (ctx, None):
                with pytest.raises(TypeError, match=knob):
                    check_bound("l3_moment", A, context, **{knob: 3.0})

    def test_catalog_cells_equal_check_bound(self):
        # the sweep's one pass per record: the cells of check_bound, flat and
        # in the order of the names; None for |A| < 3 and for a heavy check
        # behind a shut gate
        A = subgroup(61, 12)
        ctx = SubgroupContext(A)
        names = ("e3", "hk_energy", "ssc_lemma3")
        want = [v for name in names for v in check_bound(name, A, ctx, hypothesis_constant=2.0)[3:]]
        assert verifier.catalog_cells(names, ctx, 2.0) == want
        assert verifier.catalog_cells(names, SubgroupContext(subgroup(61, 2))) == [None] * 12
        heavy = SubgroupContext(subgroup(4099, 6))
        cells = verifier.catalog_cells(names, heavy)
        assert cells[8:] == [None] * 4 and None not in cells[:8]

    def test_check_bound_builds_no_context_beside_a_given_one(self, monkeypatch):
        A = subgroup(61, 12)
        ctx = SubgroupContext(A)
        built = count_contexts(monkeypatch)
        for name in ALL_CHECKS:
            check_bound(name, A, ctx, hypothesis_constant=2.0)
        assert built == []
        check_bound("e3", A)
        assert built == [A]


class TestContextStatistics:
    """The per-subgroup statistics a sweep record reads off the context."""

    def test_fields_golden_7_3(self):
        ctx = SubgroupContext(subgroup(7, 3))
        assert (ctx.p, ctx.d) == (7, 3)
        assert ctx.twoA_size == 6
        assert ctx.energy == 15
        assert ctx.energy3 == 33
        assert abs(ctx.energy32 - 11.196152422706632) <= 1e-12
        assert abs(ctx.ssc - 2.7) <= 1e-12
        assert abs(ctx.sumset_ratio - 3.5) <= 1e-12

    def test_energy_matches_additive_energy(self):
        A = subgroup(101, 20)
        assert SubgroupContext(A).energy == additive_energy(A.indicator, A.indicator)


class TestGoldenValues73:
    """Hand-derived values for the cubes mod 7: E = 15, |2A| = 6, phi = sqrt 2."""

    def ctx(self):
        return SubgroupContext(subgroup(7, 3))

    def test_hk_energy(self):
        r = check_bound("hk_energy", subgroup(7, 3))
        assert r.lhs == 15.0
        assert r.rhs_expr == pytest.approx(3**2.5)
        assert r.ratio == pytest.approx(15 / 3**2.5)
        assert r.hypothesis_ok  # 3 <= 7^(2/3)

    def test_e3(self):
        r = check_bound("e3", subgroup(7, 3))
        assert r.lhs == 33.0
        assert r.rhs_expr == pytest.approx(27 * math.log(3))

    def test_ssc2(self):
        r = check_bound("ssc2", subgroup(7, 3))
        assert r.lhs == pytest.approx(2.7)
        assert r.rhs_expr == pytest.approx(3 * math.log(3))

    def test_ssc_lemma3(self):
        r = check_bound("ssc_lemma3", subgroup(7, 3))
        assert r.lhs == pytest.approx(3.5)
        assert r.rhs_expr == pytest.approx(33 / 9)
        assert r.hypothesis_ok  # unconditional

    def test_phi_hk_middle_branch(self):
        # sqrt(p) <= d < p^(2/3): rhs = p^(1/4) d^(-1/4) E^(1/4) = 35^(1/4)
        r = check_bound("phi_hk", subgroup(7, 3))
        assert r.lhs == pytest.approx(math.sqrt(2))
        assert r.rhs_expr == pytest.approx(35**0.25)
        assert r.hypothesis_ok

    def test_sv_convolution(self):
        # (A*A) restricted to A counts 3 pairs; rhs = d^(5/3)
        r = check_bound("sv_convolution", subgroup(7, 3))
        assert r.lhs == 3.0
        assert r.rhs_expr == pytest.approx(3 ** (5 / 3))
        assert r.hypothesis_ok  # 27 <= min(243, 343/3)

    def test_l3_moment_quadratic(self):
        # M = {counts >= 2} = {3,5,6}; lhs = 3 * 2^2 = 12; rhs = d^3 / k
        r = check_bound("l3_moment", subgroup(7, 3))
        assert r.lhs == 12.0
        assert r.rhs_expr == pytest.approx(27 / 2)

    def test_l3_moment_empty_threshold_set(self):
        # (sum over M of (A * A)^2, |M|), M = {z != 0 : (A * A)(z) >= 2}: for
        # A = {1} the one nonzero count is 1 at z = 2, so M and the sum are empty
        assert SubgroupContext(subgroup(7, 1)).l3_moment == (0.0, 0)
        assert SubgroupContext(subgroup(7, 3)).l3_moment == (12.0, 3)

    def test_li_decay(self):
        # both cosets have l = 1: max over i of l_i i^(2/3) is 2^(2/3)
        r = check_bound("li_decay", subgroup(7, 3))
        assert r.lhs == pytest.approx(2 ** (2 / 3))
        assert r.rhs_expr == pytest.approx(
            6 ** (2 / 3) * 3 ** (-1 / 3) * math.sqrt(math.log(3))
        )
        assert not r.hypothesis_ok  # 3 > sqrt 7

    def test_sumset_growth_inverted(self):
        # d = 3 misses the first regime, so the bound is d p^(1/3) ln^(-1/3) d
        r = check_bound("sumset_growth", subgroup(7, 3))
        assert r.lhs == 6.0
        want = 3 * 7 ** (1 / 3) * math.log(3) ** (-1 / 3)
        assert r.rhs_expr == pytest.approx(want)
        assert r.ratio == pytest.approx(want / 6.0)

    def test_hypothesis_flags(self):
        flags = {
            name: check_bound(name, subgroup(7, 3)).hypothesis_ok
            for name in ALL_CHECKS
        }
        assert flags == {
            "hk_energy": True,
            "e3": True,
            "ssc2": True,
            "ssc_lemma3": True,
            "energy1_shkredov": True,
            "energy2_shkredov": True,
            "energy_extension": True,
            "sumset_growth": True,
            "phi_hk": True,
            "phi_shparlinski": True,
            "e32": False,
            "phi_expA": False,
            "sv_convolution": True,
            "l3_moment": True,
            "li_decay": False,
        }


class TestHypothesisKnobs:
    def test_constant_widens_ranges(self):
        # d = 25 > 101^(2/3), so at c = 1 the hk range fails; c = 2 admits it
        A = subgroup(101, 25)
        assert not check_bound("hk_energy", A).hypothesis_ok
        assert check_bound("hk_energy", A, hypothesis_constant=2.0).hypothesis_ok

    def test_failed_hypothesis_still_reports_ratio(self):
        r = check_bound("energy1_shkredov", subgroup(101, 25))
        assert not r.hypothesis_ok
        assert r.ratio == pytest.approx(0.83343, abs=1e-4)
        assert math.isfinite(r.lhs) and math.isfinite(r.rhs_expr)

    def test_phi_hk_top_branch(self):
        # d = 25 >= 101^(2/3): the bound is sqrt p outright
        r = check_bound("phi_hk", subgroup(101, 25))
        assert r.rhs_expr == pytest.approx(math.sqrt(101))
        assert r.hypothesis_ok

    def test_phi_hk_bottom_branch_flags_hypothesis(self):
        # d = 3 < sqrt 101 and 3 < 101^(1/3): formula evaluated, range not met
        r = check_bound("phi_hk", subgroup(101, 4))
        ctx = SubgroupContext(subgroup(101, 4))
        assert r.rhs_expr == pytest.approx(101**0.125 * ctx.energy**0.25)
        assert not r.hypothesis_ok


class TestCovering:
    def test_golden(self):
        assert covering_index(subgroup(7, 3).indicator, 8) == 2
        assert covering_index(subgroup(7, 6).indicator, 8) == 1
        assert covering_index(subgroup(7, 1).indicator, 8) is None

    def test_kmax_cuts_search(self):
        assert covering_index(subgroup(7, 3).indicator, 1) is None

    @pytest.mark.parametrize("p", [3, 7, 101])
    def test_context_answers_trivial_subgroup_at_once(self, p):
        # kA = {k} never covers Z_p*: no multiset loop up to kmax
        assert SubgroupContext(subgroup(p, 1)).covering_index(10**9) is None

    def test_rejects_bad_kmax(self):
        with pytest.raises(ValueError):
            covering_index(subgroup(7, 3).indicator, 0)

    @pytest.fixture
    def no_folds(self, monkeypatch):
        def refuse(X, Y):
            raise AssertionError("a fold was built")

        monkeypatch.setattr(zpsets, "sumset", refuse)
        monkeypatch.setattr(verifier, "sumset", refuse)

    @pytest.mark.parametrize("elements", [[1], [5], []])
    def test_at_most_one_point_answers_at_once(self, no_folds, elements):
        # |kS| <= 1 < p - 1 whatever k: no fold is built, however large kmax
        assert covering_index(ZpSet.from_elements(7, elements), 10**9) is None

    def test_no_fold_below_the_multiset_count(self, no_folds):
        # |k{1, 2}| <= multiset_count(k, 2) = k + 1 first reaches p - 1 = 100 at k = 99
        assert multiset_count(98, 2) < 100 <= multiset_count(99, 2)
        assert covering_index(ZpSet.from_elements(101, [1, 2]), 50) is None

    def test_two_points_past_the_multiset_count(self):
        # k{1, 2} = {k, ..., 2k}: 99{1, 2} holds 0 and misses 97, 98; 100{1, 2} is Z_101
        S = ZpSet.from_elements(101, [1, 2])
        assert covering_index(S, 99) is None
        assert covering_index(S, 120) == 100 == brute_covering_index([1, 2], 101, 120)

    def test_multiset_count(self):
        assert [multiset_count(k, 1) for k in (1, 6, 10**6)] == [1, 1, 1]
        assert [multiset_count(k, 3) for k in (1, 2, 3)] == [3, 6, 10]
        assert all(multiset_count(6, d) == math.comb(d + 5, 6) for d in range(1, 50))

    def test_given_folds_are_read_not_rebuilt(self, monkeypatch):
        # first_cover tests the folds it is given and extends the last one:
        # given 1S, 2S and 3S it builds two sumsets fewer than given 1S alone
        built, real = [], zpsets.sumset

        def counting(X, Y):
            built.append(1)
            return real(X, Y)

        # indices 4, 6 and 11, and None with folds 9 to 12 tested
        for p, d in ((31, 5), (101, 5), (61, 3), (181, 4)):
            A = subgroup(p, d)
            folds = [A.indicator, fold_sumset(A.indicator, 2), fold_sumset(A.indicator, 3)]
            want = brute_covering_index(list(map(int, A.elements)), p, 12)
            assert want is None or want > 3, (p, d)
            with monkeypatch.context() as mp:
                mp.setattr(zpsets, "sumset", counting)
                built.clear()
                assert first_cover(folds[:1], 12) == want, (p, d)
                from_one = len(built)
                built.clear()
                assert first_cover(folds, 12) == want, (p, d)
                assert len(built) == from_one - 2, (p, d, from_one, len(built))
            assert len(folds) == 3
            with pytest.raises(ValueError):
                first_cover(folds, 0)

    def test_six_fold_needs_no_context(self, monkeypatch):
        # check_six_fold's chain builds no SubgroupContext, so a sweep record's
        # sixA_covers and covering_k come from two routes
        def refuse(*args, **kwargs):
            raise AssertionError("a SubgroupContext was built")

        monkeypatch.setattr(energetics, "SubgroupContext", refuse)
        monkeypatch.setattr(verifier, "SubgroupContext", refuse)
        for p in (7, 13, 31, 101, 151):
            for d in divisors(p - 1):
                A = subgroup(p, d)
                k = first_cover([A.indicator], 6)
                assert k == brute_covering_index(list(map(int, A.elements)), p, 6), (p, d)
                assert check_six_fold(A) == (k is not None), (p, d)

    def test_matches_oracle(self):
        for p in (7, 13, 31, 61):
            for d in divisors(p - 1):
                A = subgroup(p, d)
                els = list(map(int, A.elements))
                assert covering_index(A.indicator, 8) == brute_covering_index(
                    els, p, 8
                ), (p, d)

    def test_six_fold_agrees_with_index(self):
        for p in (7, 13, 31, 101, 151):
            for d in divisors(p - 1):
                A = subgroup(p, d)
                # 6A built in full, without the multiset bound check_six_fold reads
                assert check_six_fold(A) == fold_sumset(A.indicator, 6).covers_nonzero(), (p, d)

    def test_six_fold_brute(self):
        # direct six-fold sum via python sets
        for p, d in ((7, 3), (13, 3), (31, 5)):
            A = subgroup(p, d)
            els = set(map(int, A.elements))
            acc = els
            for _ in range(5):
                acc = brute_sumset(acc, els, p)
            assert check_six_fold(A) == (set(range(1, p)) <= acc)


class TestCoverThreshold:
    def test_golden(self):
        assert clears_cover_threshold(7, 3)  # 3^23 = 94143178827 >= 7^11
        assert clears_cover_threshold(7, 6)
        assert not clears_cover_threshold(7, 2)
        assert not clears_cover_threshold(7, 1)

    def test_exact_at_integer_boundary(self):
        # find the first d clearing p^(11/23) by integer search, then check
        for p in (101, 4099, 65537):
            target = p**11
            d_star = 1
            while d_star**23 < target:
                d_star += 1
            assert clears_cover_threshold(p, d_star)
            assert not clears_cover_threshold(p, d_star - 1)

    def test_monotone_in_d(self):
        flags = [clears_cover_threshold(1009, d) for d in range(1, 60)]
        assert flags == sorted(flags)


class TestSolutionCounts:
    def test_golden_trivial_subgroup(self):
        A = subgroup(7, 1)
        assert count_solutions_N(A, 6) == 1
        assert count_solutions_N(A, 1) == 0

    def test_rejects_zero_dilation(self):
        with pytest.raises(ValueError):
            count_solutions_N(subgroup(7, 3), 0)
        with pytest.raises(ValueError):
            count_solutions_N(subgroup(7, 3), 14)

    def test_exact_past_int64(self):
        # N(1) = |A| T(1) passes 2^63; an int64 sum of the d terms T(a y3) wraps
        A = subgroup(92693, 46346)
        one = convolve_counts(A.indicator, A.indicator)
        two_a = ZpSet.from_elements(A.p, np.flatnonzero(one))
        two, one = convolve_counts(two_a, two_a).tolist(), one.tolist()
        want = A.d * sum(two[z] * one[(1 - z) % A.p] for z in range(A.p))
        assert want == 9227492697504919048 > 1 << 63
        assert count_solutions_N(A, 1) == want

    def test_matches_five_fold_loop(self):
        for p, d in ((7, 3), (11, 5), (13, 4), (13, 6)):
            A = subgroup(p, d)
            els = list(map(int, A.elements))
            two = sorted(map(int, fold_sumset(A.indicator, 2).members()))
            for a in range(1, p):
                assert count_solutions_N(A, a) == brute_count_N(two, els, a, p), (p, d, a)

    def test_matches_product_of_count_vectors(self):
        # N(a) = |A| ((2A * 2A) * (A * A))(a): the counts taken on their own,
        # then multiplied by the exact cyclic convolution
        queries = 0
        for p in filter(is_prime, range(3, 301)):
            for d in divisors(p - 1):
                A = subgroup(p, d)
                one = convolve_counts(A.indicator, A.indicator)
                two = ZpSet.from_elements(p, np.flatnonzero(one))
                table = cyclic_convolution_exact(convolve_counts(two, two), one, p)
                for a in range(1, p):
                    assert count_solutions_N(A, a) == d * int(table[a]), (p, d, a)
                queries += p - 1
        assert queries == 77916

    def test_positivity_and_counts_share_one_a_star_a(self, monkeypatch):
        # every exact count at quotient points, as (m + 1, |Y|)
        calls = []
        real = spectral.exact_counts

        def counted(x_bits, y, points=None, out=None):
            if points is not None:
                calls.append((len(points), len(y)))
            return real(x_bits, y, points, out)

        monkeypatch.setattr(spectral, "exact_counts", counted)
        verifier._context.cache_clear()
        A = subgroup(1009, 504)
        assert positivity_condition(A)
        assert all(count_solutions_N(A, a) > 0 for a in (1, 2, 3))
        two_a = fold_sumset(A.indicator, 2).card
        assert calls == [(3, 504), (3, two_a)]  # A * A once, then 2A * 2A

    def test_mass_identity(self):
        # summing N over nonzero a counts |A| copies of the nonzero conv mass
        for p, d in ((13, 4), (31, 6), (31, 10)):
            A = subgroup(p, d)
            two = fold_sumset(A.indicator, 2)
            total = sum(count_solutions_N(A, a) for a in range(1, p))
            # conv mass at zero, by direct enumeration
            two_els = list(map(int, two.members()))
            els = list(map(int, A.elements))
            at_zero = sum(
                1
                for x1 in two_els
                for x2 in two_els
                for y1 in els
                for y2 in els
                if (x1 + x2 + y1 + y2) % p == 0
            )
            assert total == d * (two.card**2 * d**2 - at_zero)


class TestPositivity:
    def test_golden(self):
        assert positivity_condition(subgroup(7, 6))
        assert positivity_condition(subgroup(7, 3))
        assert not positivity_condition(subgroup(7, 1))

    def test_matches_direct_formula(self):
        for p, d in ((13, 4), (101, 20), (151, 30)):
            A = subgroup(p, d)
            two = fold_sumset(A.indicator, 2)
            phi = brute_phi(list(map(int, A.elements)), p)
            assert positivity_condition(A) == (two.card * d**3 > p * phi**3)

    def test_positivity_forces_counts(self):
        rng = random.Random(41)
        hit = 0
        for p in (103, 151, 211, 307):
            for d in divisors(p - 1):
                A = subgroup(p, d)
                if not positivity_condition(A):
                    continue
                hit += 1
                for a in rng.sample(range(1, p), 5):
                    assert count_solutions_N(A, a) > 0
        assert hit > 0


class TestExponentFit:
    def test_recovers_exact_power_law(self):
        pts = [(x, 3.0 * x**1.7) for x in range(2, 200)]
        fit = exponent_fit(pts)
        assert isinstance(fit, FitResult)
        assert fit.slope == pytest.approx(1.7, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-9)
        assert fit.residual < 1e-9
        assert fit.n_points == 198

    def test_constant_data_has_zero_slope(self):
        fit = exponent_fit([(x, 5.0) for x in range(1, 50)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-12)

    def test_envelope_ignores_low_scatter(self):
        pts = [(x, x**2.0) for x in range(2, 300)]
        pts += [(x, x**2.0 / 50) for x in range(2, 300)]
        fit = exponent_fit(pts, envelope=True)
        assert fit.slope == pytest.approx(2.0, abs=1e-6)
        # one point per dyadic bucket survives
        assert fit.n_points <= 9

    def test_drops_nonpositive(self):
        # and non-finite points, with or without the envelope
        inf, nan = math.inf, math.nan
        pts = [(0, 5.0), (-3, 2.0), (4, 0.0), (2, 4.0), (8, 64.0)]
        pts += [(16, inf), (inf, 3.0), (-inf, 3.0), (32, -inf), (nan, 2.0), (64, nan)]
        for envelope in (False, True):
            fit = exponent_fit(pts, envelope=envelope)
            assert fit.n_points == 2
            assert fit.slope == pytest.approx(2.0, abs=1e-9)
            assert math.isfinite(fit.intercept) and math.isfinite(fit.residual)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            exponent_fit([(2, 4.0)])
        with pytest.raises(ValueError):
            exponent_fit([(2, 4.0), (2, 8.0)])
        with pytest.raises(ValueError):
            exponent_fit([(0, 1.0), (-1, 1.0)])
