"""The coset-quotient engine against the routes it replaced and the oracles.

Every subgroup with p <= 2000 is checked exhaustively: its construction from
the power table, the k-fold chain, A * A, both shift profiles and the
six-fold verdict, with the coset kernel forced onto each of its three tiers
in turn; each result, counted at A.points because its sets carry A, is
compared with the same call on sets that carry no subgroup (A.indicator and
untagged copies), which count at every point.  The context's reads off the
quotient points (|2A|, the rep profile, the energies and the float sums) are
compared with plain sums over Z_p bit for bit, and Subgroup.spread with a
coset map built by brute force.
A Hypothesis property pits the kernel against brute sumsets on random unions
of cosets, on every tier; the size shortcuts (pigeonhole, complement,
multiset count) are checked on both sides of their conditions.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subgroup_lab.cli as cli
import subgroup_lab.numtheory as numtheory
import subgroup_lab.spectral as spectral
from subgroup_lab.cli import SweepConfig, primes_between
from subgroup_lab.energetics import HEAVY_LIMIT, L3_ORDER, L3_THRESHOLD, SubgroupContext, shift_sizes
from subgroup_lab.numtheory import (
    _SPREAD_BLOCK,
    Subgroup,
    coset_reps,
    divisors,
    is_prime,
    power_table,
    primitive_root,
    subgroup,
)
from subgroup_lab.spectral import convolve_counts, cyclic_convolution_exact, phi_subgroup
from subgroup_lab.verifier import _chk_li_decay, check_bound, check_six_fold
from subgroup_lab.zpsets import (
    ZpSet,
    dilate,
    fold_sumset,
    invariant_set,
    shift_intersect,
    sumset,
)

from oracles import brute_cosets, brute_shift_profile, brute_sumset, brute_sumset_ratio, direct_phi
from routes import TIERS, count_builds, force_phi_screen, force_tier

PRIMES_2000 = [p for p in range(3, 2000) if is_prime(p)]
PRIMES_3000 = [p for p in range(3, 3000) if is_prime(p)]


def subgroups_upto_2000():
    for p in PRIMES_2000:
        for d in divisors(p - 1):
            yield subgroup(p, d)


def random_union(A: Subgroup, k: int, zero: bool, rng: random.Random) -> ZpSet:
    """A union of k random cosets of A, with 0 if asked; it carries A."""
    return invariant_set(A, rng.sample(A.reps.tolist(), k), zero)


def untagged(S: ZpSet) -> ZpSet:
    """A copy of S that carries no subgroup."""
    return ZpSet(S.p, S.bits)


def test_power_table_is_the_cyclic_group():
    for p in (3, 5, 7, 101, 1999, 95287):
        P = power_table(p)
        g = int(P[1]) if p > 3 else 2
        assert len(P) == p - 1 and sorted(P.tolist()) == list(range(1, p))
        assert all(int(P[t]) == pow(g, t, p) for t in {0, 1, (p - 1) // 2, p - 2})
        assert not P.flags.writeable


def test_subgroup_and_coset_reps_match_brute_scan():
    # the layout's columns are the cosets, a read-only view of the power table
    for A in subgroups_upto_2000():
        els, reps = brute_cosets(A.p, A.d)
        assert A.elements.tolist() == els, (A.p, A.d)
        assert coset_reps(A).tolist() == A.reps.tolist() == reps, (A.p, A.d)
        cosets = {frozenset(r * a % A.p for a in els) for r in reps}
        assert {frozenset(col) for col in A.layout.T.tolist()} == cosets, (A.p, A.d)
        assert np.shares_memory(A.layout, power_table(A.p)), (A.p, A.d)
        assert not (A.layout.flags.writeable or A.reps.flags.writeable), (A.p, A.d)


def test_subgroup_holds_its_table_after_the_cache_moves(monkeypatch):
    # power_table keeps the last prime only; a subgroup built before the
    # cache moved on reads its own layout, and its quotient, with no build
    held = [subgroup(p, d) for p, d in ((2003, 7), (2003, 286), (95287, 6))]
    tables = count_builds(monkeypatch, power_table)
    power_table(101)
    got = [(A.layout, A.reps, A.points, A.coset_index) for A in held]
    assert tables == [101]
    for A, quotient in zip(held, got):
        fresh = subgroup(A.p, A.d)
        want = (fresh.layout, fresh.reps, fresh.points, fresh.coset_index)
        assert all(np.array_equal(x, y) for x, y in zip(quotient, want, strict=True)), (A.p, A.d)
    assert tables == [101, 2003, 95287]


def test_chain_and_six_fold_match_fold_sumset():
    # the references run unforced on A.indicator, which carries no subgroup,
    # the coset kernel once on each tier
    for A in subgroups_upto_2000():
        plain = A.indicator
        want = [fold_sumset(plain, 1)]
        for _ in range(7):  # fold_sumset's own recursion, one step at a time
            want.append(sumset(want[-1], plain))
        # the first cover among folds built in full, without the multiset bound
        k8 = next((k for k in range(1, 9) if want[k - 1].covers_nonzero()), None)
        for tier in TIERS:
            with pytest.MonkeyPatch.context() as mp:
                force_tier(mp, tier)
                ctx = SubgroupContext(A)
                got = ctx.aset
                for k in range(1, 7):
                    if k > 1:
                        got = sumset(got, ctx.aset)
                    assert got == want[k - 1], (A.p, A.d, k, tier)
                    assert got.sym is A and want[k - 1].sym is None
                assert ctx.covering_index(8) == k8, (A.p, A.d, tier)
                assert check_six_fold(A) == want[5].covers_nonzero(), (A.p, A.d, tier)


def test_counts_and_profiles_match_convolution():
    # the references from A.indicator, which carries no subgroup, on the
    # convolution route, the profiles as X * (-X) so that shift_sizes's
    # complement rule is checked against a count that does not use it; the
    # pair and gather routes of shift_sizes are pinned against the oracle in
    # test_energetics
    for A in subgroups_upto_2000():
        plain = A.indicator
        two_a = fold_sumset(plain, 2)
        with pytest.MonkeyPatch.context() as mp:
            force_tier(mp, "fft")
            want = convolve_counts(plain, plain)
            profile = convolve_counts(plain, dilate(plain, -1))
            two_a_profile = convolve_counts(two_a, dilate(two_a, -1))
        for tier in TIERS:
            with pytest.MonkeyPatch.context() as mp:
                force_tier(mp, tier)
                ctx = SubgroupContext(A)
                assert np.array_equal(convolve_counts(ctx.aset, ctx.aset), want), (A.p, A.d, tier)
                assert np.array_equal(ctx.conv_aa, want), (A.p, A.d, tier)
                assert ctx.conv_aa.sum() == A.d * A.d and not ctx.conv_aa.flags.writeable
                assert ctx.two_a == two_a
                assert np.array_equal(ctx.shifts.over_zp(ctx.A), profile), (A.p, A.d, tier)
                assert np.array_equal(shift_sizes(ctx.two_a), two_a_profile), (A.p, A.d, tier)


def reference_record(A: Subgroup) -> dict:
    """The quotient-read quantities of a record by plain formulas over Z_p on
    A.indicator, which carries no subgroup; each float is the O(p) sum over
    the live shifts in ascending order."""
    p, plain = A.p, A.indicator
    conv = convolve_counts(plain, plain)
    prof = shift_sizes(plain)
    live = prof > 0
    e32 = prof[live].astype(np.float64)
    e32 **= 1.5
    num = prof[live].astype(np.float64)
    num *= num
    num /= shift_sizes(ZpSet(p, conv > 0))[live]
    M = conv.astype(np.float64) >= L3_THRESHOLD
    M[0] = False
    l3 = conv[M].astype(np.float64)
    l3 **= L3_ORDER
    rep_prof = prof[A.reps]
    return {
        "twoA_size": int(np.count_nonzero(conv)),
        "rep_profile": rep_prof.tolist(),
        "profile_mult": tuple(x.tolist() for x in np.unique(rep_prof[rep_prof > 0], return_counts=True)),
        "li_decay": li_decay_by_reps(rep_prof),
        "E": sum(x * x for x in prof.tolist()),
        "E3": sum(x**3 for x in prof.tolist()),
        "E32": float(np.sum(e32)),
        "ssc": float(np.sum(num)),
        "l3_moment": (float(np.sum(l3)), int(np.count_nonzero(M))),
        "sv_convolution": float(conv[A.elements].sum()),
    }


def li_decay_by_reps(rep_profile: np.ndarray) -> float:
    """The li_decay lhs from the rep profile: its nonzero values sorted by
    decreasing size, where the catalog reads SubgroupContext.profile_mult."""
    best = 0.0
    for i, l in enumerate(np.sort(rep_profile[rep_profile > 0])[::-1].tolist(), start=1):
        best = max(best, l * i ** (2 / 3))
    return best


def context_record(A: Subgroup) -> dict:
    """The same quantities from a fresh context; the li_decay lhs comes from
    its catalog check, and the l3_moment and sv_convolution lhs from theirs
    when d >= 3."""
    ctx = SubgroupContext(A)
    got = {
        "twoA_size": ctx.twoA_size,
        "rep_profile": ctx.rep_profile.tolist(),
        "profile_mult": ctx.profile_mult,
        "li_decay": _chk_li_decay(ctx, 1.0)[0],
        "E": ctx.energy,
        "E3": ctx.energy3,
        "E32": ctx.energy32,
        "ssc": ctx.ssc,
        "l3_moment": ctx.l3_moment,
        "sv_convolution": float(ctx.d * int(ctx.aa.at[1])),
    }
    if A.d >= 3:
        got["l3_moment"] = (check_bound("l3_moment", A, ctx).lhs, ctx.l3_moment[1])
        got["sv_convolution"] = check_bound("sv_convolution", A, ctx).lhs
    return got


def test_quotient_reads_match_sums_over_zp_bit_for_bit():
    # every float compared with ==: the context adds the same terms in the
    # same order, whichever tier counted A * A and the profiles
    for A in subgroups_upto_2000():
        want = reference_record(A)
        for tier in TIERS:
            with pytest.MonkeyPatch.context() as mp:
                force_tier(mp, tier)
                assert context_record(A) == want, (A.p, A.d, tier)


@pytest.mark.parametrize("d", [6, 15881])
def test_quotient_reads_match_sums_over_zp_near_1e5(d):
    # the benchmark's record pair: d = 6 on the pair tier, d = 15881 on the
    # gather at m + 1 = 7 points
    A = subgroup(95287, d)
    assert context_record(A) == reference_record(A)


@pytest.mark.parametrize("p, d, reps_built", [(95287, 6, 0), (95287, 15881, 0), (293, 4, 1), (293, 73, 1)])
def test_a_record_builds_coset_reps_only_for_their_readers(monkeypatch, p, d, reps_built):
    # the record pair: phi screens and the heavy ratio sum is off, so no
    # reader of a rep runs; at p <= HEAVY_LIMIT the ratio sum reads the reps,
    # and phi's unscreened pass shares them through A.reps
    real, calls = numtheory.coset_reps, []
    monkeypatch.setattr(numtheory, "coset_reps", lambda A: calls.append(A) or real(A))
    assert spectral._screen_pays(p, d) == (p > HEAVY_LIMIT)
    row = cli._record_for((p, d, SweepConfig(p_min=p, p_max=p)))
    assert (row["sumset_ratio"] is None) == (p > HEAVY_LIMIT)
    assert len(calls) == reps_built, (p, d)


def test_spread_matches_a_coset_scan():
    # both routes of Subgroup.spread, the sort of a few live layout columns
    # and the gather through coset_index (in several blocks at p = 16411),
    # against a coset map built from brute_cosets
    rng = np.random.default_rng(6)
    routes = set()
    cases = [(p, d) for p in PRIMES_2000 if p <= 400 for d in divisors(p - 1)]
    assert 16411 > _SPREAD_BLOCK and is_prime(16411)
    for p, d in cases + [(16411, 3), (16411, 30)]:
        A, m = subgroup(p, d), (p - 1) // d
        els, _ = brute_cosets(p, d)
        pts = A.points.tolist()
        assert pts[0] == 0 and len(pts) == m + 1
        c = [0] * p
        for i, pt in enumerate(pts[1:], start=1):
            for a in els:
                c[pt * a % p] = i
        assert sorted(c[1:]) == sorted(list(range(1, m + 1)) * d), (p, d)
        assert A.coset_index.tolist() == c
        vals = rng.random(m + 1)
        some = rng.random(m + 1) < 0.5
        for live in (None, np.ones(m + 1, bool), np.zeros(m + 1, bool), np.eye(1, m + 1, 0, bool)[0], np.eye(1, m + 1, 1, bool)[0], some):
            want = [vals[c[z]] for z in range(p) if live is None or live[c[z]]]
            given = vals if live is None else vals[live]  # one value per live point
            assert A.spread(given, live).tolist() == want, (p, d)
            if live is not None:
                n = int(live[0]) + d * int(np.count_nonzero(live[1:]))
                routes.add(n * n.bit_length() < p)
    assert routes == {True, False}


def test_float_sums_hold_no_counts_over_zp():
    # energy32, ssc and the l3_moment check read A * A and the profiles at the
    # m + 1 = 7 quotient points, and the terms gathered at the live shifts are
    # the one float array over Z_p they build; the routes that spread every
    # count to Z_p first peaked at 3,145,636 bytes (4.1 such arrays) here
    p, d = 95287, 15881
    A = subgroup(p, d)
    ctx = SubgroupContext(A)
    assert ctx.twoA_size and ctx.two_a.card  # what a record reads before them
    tracemalloc.start()
    try:
        ctx.energy32, ctx.ssc, check_bound("l3_moment", A, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * p, peak


def _shift_order_route(A: Subgroup) -> str:
    """Which order a context keeps for A's shift-live points."""
    order = SubgroupContext(A)._shift_order
    if order is None:
        return "blocks"  # about as long as Z_p: not kept, gathered in blocks
    if order is A.coset_index:
        return "coset_index"  # every point live: the index A keeps anyway
    assert len(order) * len(order).bit_length() < A.p, (A.p, A.d)
    return "sorted"


def test_one_shift_order_per_record(monkeypatch):
    # a sweep record's energy32 and ssc sums take their z from one ascending
    # order of the shift-live points: Subgroup.live_order makes it once per
    # record, and makes none where it would be about as long as Z_p
    real, orders = Subgroup.live_order, []

    def counted(self, live):
        order = real(self, live)
        if order is not None:
            orders.append(live.copy())
        return order

    monkeypatch.setattr(Subgroup, "live_order", counted)
    cfg = SweepConfig()
    cases = [(p, d) for p in primes_between(3, 300) for d in divisors(p - 1)]
    routes = {}
    for p, d in cases + [(95287, 6), (95287, 15881)]:
        A = subgroup(p, d)
        shift_live = SubgroupContext(A).shifts.at > 0
        orders.clear()
        cli._record_for((p, d, cfg))
        made = sum(np.array_equal(live, shift_live) for live in orders)
        route = _shift_order_route(A)
        assert made == int(route != "blocks"), (p, d, route)
        routes.setdefault(route, []).append((p, d))
    assert set(routes) == {"blocks", "coset_index", "sorted"}
    assert (95287, 15881) in routes["coset_index"] and (95287, 6) in routes["sorted"]


def test_phi_matches_direct_evaluation(monkeypatch):
    # phi must reproduce the direct exponentials bit for bit on the priced
    # route, then with the screen forced on every subgroup with d > 1
    subgroups = list(subgroups_upto_2000())
    want = [direct_phi(A)[0] for A in subgroups]
    for forced in (False, True):
        if forced:
            force_phi_screen(monkeypatch, True)
        for A, w in zip(subgroups, want):
            assert phi_subgroup(A) == w, (A.p, A.d, forced)


def test_sumset_ratio_matches_ordered_sumset_sum():
    # bit for bit: the s = 0 term, then d |A_r|^2 / |A + A_r| in ascending rep order
    for p in (q for q in PRIMES_2000 if q <= 700):
        for d in divisors(p - 1):
            A = subgroup(p, d)
            want = d * d / float(sumset(A.indicator, A.indicator).card)
            for r in A.reps.tolist():
                a_r = shift_intersect(A.indicator, r)
                if a_r.card:
                    want += d * (a_r.card * a_r.card / float(sumset(A.indicator, a_r).card))
            assert SubgroupContext(A).sumset_ratio == want, (p, d)


def _watch(mp, name: str) -> list:
    """Replace spectral.<name> by a wrapper that logs each call's second
    argument into the returned list."""
    real, calls = getattr(spectral, name), []

    def watched(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    mp.setattr(spectral, name, watched)
    return calls


# the kernel behind each forced tier when a support is asked for: a bool out
# rules out the pair tier, so "pairs" gathers too
_SUPPORT_KERNEL = {"pairs": "gather_counts", "gather": "gather_counts", "fft": "cyclic_convolution_exact"}


@pytest.mark.parametrize("p, d", [(13, 4), (31, 6), (61, 12), (101, 20), (101, 100)])
def test_sumset_ratio_on_both_sides_of_crossover(p, d, monkeypatch):
    # (101, 100) is Z_p*: every rep passes the pigeonhole and nothing is counted
    want = brute_sumset_ratio(subgroup(p, d).elements.tolist(), p)
    l = SubgroupContext(subgroup(p, d)).rep_profile
    counted = int(np.count_nonzero((l > 0) & (d + l <= p)))
    assert (counted == 0) == (d == p - 1), (p, d)
    for tier in TIERS:
        with monkeypatch.context() as mp:
            force_tier(mp, tier, block=7)
            ctx = SubgroupContext(subgroup(p, d))
            ctx.rep_profile, ctx.twoA_size  # counted before the kernel is watched
            calls = _watch(mp, _SUPPORT_KERNEL[tier])
            got = ctx.sumset_ratio
        assert abs(got - want) <= 1e-9 * max(1.0, want), (p, d, tier)
        assert len(calls) == counted, (p, d, tier)


def test_sumset_ratio_counts_no_rep_past_the_pigeonhole(monkeypatch):
    # d + |A_r| > p makes A + A_r all of Z_p, taken without a count; that
    # happens only for A = Z_p* (p >= 5), where |A_r| = p - 2 on every rep
    sizes = _watch(monkeypatch, "exact_counts")
    for p in (q for q in PRIMES_2000 if q <= 300):
        for d in divisors(p - 1):
            ctx = SubgroupContext(subgroup(p, d))
            live = [l for l in ctx.rep_profile.tolist() if l > 0]
            ctx.twoA_size
            sizes.clear()
            ctx.sumset_ratio
            assert [len(y) for y in sizes] == [l for l in live if d + l <= p], (p, d)
            assert (len(sizes) < len(live)) == (d == p - 1 and p >= 5), (p, d)


@st.composite
def coset_unions(draw):
    """(A, X, Y): a subgroup and two unions of its cosets, each maybe with 0."""
    p = draw(st.sampled_from(PRIMES_3000))
    A = subgroup(p, draw(st.sampled_from(divisors(p - 1))))
    reps = A.reps.tolist()
    rnd = draw(st.randoms(use_true_random=False))
    # keep the brute oracle's |X| |Y| pair loop near 10^6
    nx = draw(st.integers(0, min(len(reps), max(1, 2000 // A.d))))
    ny = draw(st.integers(0, min(len(reps), 10**6 // ((nx * A.d + 1) * A.d))))
    X = invariant_set(A, rnd.sample(reps, nx), draw(st.booleans()))
    Y = invariant_set(A, rnd.sample(reps, ny), draw(st.booleans()))
    return A, X, Y


@settings(max_examples=60, deadline=None)
@given(coset_unions())
def test_coset_sumset_matches_brute(case):
    # X and Y carry A, so sumset counts them on A.layout
    A, X, Y = case
    want = brute_sumset(X.members().tolist(), Y.members().tolist(), A.p)
    for tier in (None,) + TIERS:
        with pytest.MonkeyPatch.context() as mp:
            if tier is not None:
                force_tier(mp, tier, block=7)
            got = sumset(X, Y)
        assert set(got.members().tolist()) == want, (A.p, A.d, tier)
        assert got.sym is A


def test_pigeonhole_boundary_matches_brute():
    # |X| + |Y| = p may miss a residue; p + 1 never does.  The unions take
    # a + (m - a) = m cosets and one or both zeros.
    rng = random.Random(3)
    for p in (q for q in PRIMES_2000 if q <= 200):
        for d in divisors(p - 1):
            A, m = subgroup(p, d), (p - 1) // d
            for zx, zy in ((True, False), (False, True), (True, True)):
                a = rng.randint(0, m)
                X = random_union(A, a, zx, rng)
                Y = random_union(A, m - a, zy, rng)
                assert X.card + Y.card == p + (zx and zy)
                want = brute_sumset(X.members().tolist(), Y.members().tolist(), p)
                assert set(sumset(untagged(X), Y).members().tolist()) == want, (p, d, a)
                for tier in TIERS:
                    with pytest.MonkeyPatch.context() as mp:
                        force_tier(mp, tier)
                        got = sumset(X, Y)
                    assert set(got.members().tolist()) == want, (p, d, a, tier)
                    assert got.sym is A


def test_sumset_pigeonhole_boundary_on_intervals():
    # an interval pair with |X| + |Y| = p misses p - 1; one more element covers
    for p in (7, 101, 1009):
        for k in (1, p // 2, p - 1):
            xs, ys = list(range(k)), list(range(p - k))
            X, Y = ZpSet.from_elements(p, xs), ZpSet.from_elements(p, ys)
            assert set(sumset(X, Y).members().tolist()) == brute_sumset(xs, ys, p)
            assert sumset(X, Y).card == p - 1
            Y1 = ZpSet.from_elements(p, ys + [p - 1])
            assert sumset(X, Y1) == ZpSet.full(p)


def test_complement_profiles_match_brute():
    # sets above p/2 are profiled through their complement: empty (X = Z_p),
    # with 0 (X misses 0) and without it; below p/2 the direct route.  Each
    # set carries A and is profiled again untagged, at every point
    rng = random.Random(4)
    for p in (q for q in PRIMES_2000 if q <= 150):
        for d in divisors(p - 1):
            A, m = subgroup(p, d), (p - 1) // d
            cases = [invariant_set(A, A.reps, True), invariant_set(A, [1])]
            for zero in (False, True):
                cases.append(random_union(A, rng.randint(0, m), zero, rng))
            for X in cases + [untagged(X) for X in cases]:
                want = brute_shift_profile(X.members().tolist(), p)
                for tier in TIERS:
                    with pytest.MonkeyPatch.context() as mp:
                        force_tier(mp, tier)
                        got = shift_sizes(X)
                    assert got.dtype == np.int64
                    assert got.tolist() == want, (p, d, X.card, 0 in X, X.sym, tier)


def test_six_fold_multiset_count_rules_out_without_allocating():
    # C(28, 6) = 376740 < p - 1 at p ~ 2^24, d = 23; the subgroup is built
    # from its generator so that no power table is made either
    p, d = 16777259, 23
    gen = pow(primitive_root(p), (p - 1) // d, p)
    elements = np.array(sorted(pow(gen, k, p) for k in range(d)), dtype=np.int64)
    A = Subgroup(p=p, d=d, gen=gen, elements=elements)
    tracemalloc.start()
    try:
        assert check_six_fold(A) is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak  # one indicator over Z_p would take 16 MB


def test_pair_tier_memory_is_bounded_by_blocks():
    # |X| |Y| = 6000 x 2400 pairs: one int64 array of all the sums would take
    # 110 MB; blocks of p sums and the counts over Z_p take about 23 MB
    p, d = 1000003, 6
    A, rng = subgroup(p, d), random.Random(5)
    X = random_union(A, 1000, True, rng)
    y = random_union(A, 400, False, rng).members()
    m = (p - 1) // d
    assert spectral.SCATTER_COST * X.card * len(y) < min((m + 1) * len(y), spectral._conv_cost(p))
    tracemalloc.start()
    try:
        at, full = spectral.exact_counts(X, y, A.points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    y_bits = ZpSet.from_elements(p, y).bits
    want = cyclic_convolution_exact(X.bits, y_bits, p)
    assert np.array_equal(full, want) and np.array_equal(at, want[A.points])
    assert peak < 48 * 2**20, peak
