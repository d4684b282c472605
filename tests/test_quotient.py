"""The coset-quotient engine against the routes it replaced and the oracles.

Every subgroup with p <= 2000 is checked exhaustively: its construction from
the power table, the k-fold chain, A * A, both shift profiles and the
six-fold verdict.  A Hypothesis property pits the coset kernel against brute
sumsets on random unions of cosets, on both sides of the gather crossover.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subgroup_lab.spectral as spectral
from subgroup_lab.energetics import (
    SubgroupContext,
    _shifted_sumset_sizes,
    coset_sumset,
    shift_sizes,
)
from subgroup_lab.numtheory import coset_reps, divisors, is_prime, power_table, subgroup
from subgroup_lab.spectral import convolve_counts, phi_subgroup
from subgroup_lab.verifier import check_six_fold, covering_index
from subgroup_lab.zpsets import fold_sumset, invariant_set, shift_intersect, sumset

from oracles import brute_cosets, brute_sumset, brute_sumset_ratio

PRIMES_2000 = [p for p in range(3, 2000) if is_prime(p)]
PRIMES_3000 = [p for p in range(3, 3000) if is_prime(p)]


def subgroups_upto_2000():
    for p in PRIMES_2000:
        for d in divisors(p - 1):
            yield subgroup(p, d)


def force_gather(mp, on: bool) -> None:
    """Send every coset kernel call to the gather (on), in row blocks of a
    few elements, or to the convolution."""
    mp.setattr(spectral, "CONV_COST_PER_N", math.inf if on else -math.inf)
    mp.setattr(spectral, "_GATHER_BLOCK", 7)


def test_power_table_is_the_cyclic_group():
    for p in (3, 5, 7, 101, 1999, 95287):
        P = power_table(p)
        g = int(P[1]) if p > 3 else 2
        assert len(P) == p - 1 and sorted(P.tolist()) == list(range(1, p))
        assert all(int(P[t]) == pow(g, t, p) for t in {0, 1, (p - 1) // 2, p - 2})
        assert not P.flags.writeable


def test_subgroup_and_coset_reps_match_brute_scan():
    for A in subgroups_upto_2000():
        els, reps = brute_cosets(A.p, A.d)
        assert A.elements.tolist() == els, (A.p, A.d)
        assert coset_reps(A).reps.tolist() == reps, (A.p, A.d)


def test_chain_and_six_fold_match_fold_sumset():
    for A in subgroups_upto_2000():
        ctx = SubgroupContext(A)
        want = fold_sumset(A.indicator, 1)
        for k in range(1, 7):
            if k > 1:  # fold_sumset's own recursion, one step at a time
                want = sumset(want, A.indicator)
            assert ctx.fold(k) == want, (A.p, A.d, k)
        k8 = covering_index(A.indicator, 8)
        assert ctx.covering_index(8) == k8, (A.p, A.d)
        assert check_six_fold(A) == (k8 is not None and k8 <= 6), (A.p, A.d)


def test_counts_and_profiles_match_convolution(monkeypatch):
    # shift_sizes on its convolution route; its bincount route is pinned elsewhere
    monkeypatch.setattr(spectral, "SCATTER_COST", math.inf)
    for A in subgroups_upto_2000():
        ctx = SubgroupContext(A)
        want = convolve_counts(A.indicator, A.indicator)
        assert np.array_equal(ctx.conv_aa.counts, want.counts), (A.p, A.d)
        assert ctx.conv_aa.total == want.total
        assert ctx.two_a == fold_sumset(A.indicator, 2)
        assert np.array_equal(ctx.profile, shift_sizes(A.indicator)), (A.p, A.d)
        assert np.array_equal(ctx.two_a_profile, shift_sizes(ctx.two_a)), (A.p, A.d)


def test_phi_matches_direct_evaluation():
    # the unit-root table must reproduce the direct exponentials bit for bit
    for A in subgroups_upto_2000():
        reps = A.cosets.reps
        phases = (reps[:, None] * A.elements[None, :]) % A.p
        mags = np.abs(np.exp(2j * np.pi * phases / A.p).sum(axis=1))
        i = int(np.argmax(mags))
        assert phi_subgroup(A) == (float(mags[i]), int(reps[i])), (A.p, A.d)


def test_shifted_sumset_sizes_match_sumset():
    for p in (q for q in PRIMES_2000 if q <= 700):
        for d in divisors(p - 1):
            A = subgroup(p, d)
            reps = A.cosets.reps
            l = SubgroupContext(A).profile[reps]
            reps, l = reps[l > 0], l[l > 0]
            want = [sumset(A.indicator, shift_intersect(A.indicator, int(r))).card for r in reps]
            assert _shifted_sumset_sizes(A, reps, l).tolist() == want, (p, d)


@pytest.mark.parametrize("p, d", [(13, 4), (31, 6), (61, 12), (101, 20), (101, 100)])
def test_sumset_ratio_on_both_sides_of_crossover(p, d, monkeypatch):
    want = brute_sumset_ratio(subgroup(p, d).elements.tolist(), p)
    for on in (True, False):
        force_gather(monkeypatch, on)
        got = SubgroupContext(subgroup(p, d)).sumset_ratio
        assert abs(got - want) <= 1e-9 * max(1.0, want), (p, d, on)


@st.composite
def coset_unions(draw):
    """(A, X, Y): a subgroup and two unions of its cosets, each maybe with 0."""
    p = draw(st.sampled_from(PRIMES_3000))
    A = subgroup(p, draw(st.sampled_from(divisors(p - 1))))
    reps = A.cosets.reps.tolist()
    rnd = draw(st.randoms(use_true_random=False))
    # keep the brute oracle's |X| |Y| pair loop near 10^6
    nx = draw(st.integers(0, min(len(reps), max(1, 2000 // A.d))))
    ny = draw(st.integers(0, min(len(reps), 10**6 // ((nx * A.d + 1) * A.d))))
    X = invariant_set(A, rnd.sample(reps, nx), draw(st.booleans()))
    Y = invariant_set(A, rnd.sample(reps, ny), draw(st.booleans()))
    return A, X.base, Y.base


@settings(max_examples=60, deadline=None)
@given(coset_unions())
def test_coset_sumset_matches_brute(case):
    A, X, Y = case
    want = brute_sumset(X.members().tolist(), Y.members().tolist(), A.p)
    for on in (None, True, False):
        with pytest.MonkeyPatch.context() as mp:
            if on is not None:
                force_gather(mp, on)
            got = coset_sumset(A, X, Y)
        assert set(got.members().tolist()) == want, (A.p, A.d, on)
