import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import subgroup_lab.spectral as spectral
from subgroup_lab.energetics import shift_sizes
from subgroup_lab.numtheory import MODULUS_LIMIT, divisors, is_prime, subgroup
from subgroup_lab.spectral import (
    Spectrum,
    convolve_counts,
    cyclic_convolution_exact,
    dft_magnitudes,
    phi_subgroup,
)
from subgroup_lab.zpsets import ZpSet, invariant_set, sumset

from oracles import (
    brute_convolution,
    brute_dft_mags,
    brute_phi,
    direct_phi,
    naive_cyclic_convolution,
    naive_dft_magnitudes,
)
from routes import TIERS, count_builds, force_phi_screen, force_tier

PRIMES = (3, 5, 7, 13, 31, 101)


def rand_vec(p, rng, hi):
    return np.array([rng.randint(0, hi) for _ in range(p)], dtype=np.int64)


class TestExactConvolution:
    def test_small_values_single_modulus(self):
        rng = random.Random(11)
        for p in PRIMES:
            for _ in range(6):
                u, v = rand_vec(p, rng, 50), rand_vec(p, rng, 50)
                got = cyclic_convolution_exact(u, v, p)
                want = naive_cyclic_convolution(u, v, p)
                assert got.dtype == np.int64
                assert np.array_equal(got, want)

    def test_uncertified_products(self, monkeypatch):
        # past Percival's bound an int64-range product goes to the packing
        # (no rounded FFT product) and comes back exact and int64
        rng = random.Random(12)
        p = 101
        cases = (
            (rand_vec(p, rng, 40) * 10_000_000, rand_vec(p, rng, 40) * 50),
            ((1 << 40) - rand_vec(p, rng, 1000), rand_vec(p, rng, 4)),
        )
        for u, v in cases:
            calls = _count_calls(monkeypatch, "_rounded")
            got = cyclic_convolution_exact(u, v, p)
            assert not calls
            assert got.dtype == np.int64
            assert np.array_equal(got, naive_cyclic_convolution(u, v, p))

    def test_kronecker_path(self):
        rng = random.Random(13)
        p = 31
        u = rand_vec(p, rng, 9).astype(object) * 10**14
        v = rand_vec(p, rng, 9).astype(object) * 10**7
        got = cyclic_convolution_exact(u, v, p)
        want = naive_cyclic_convolution(u, v, p)
        assert all(int(a) == int(b) for a, b in zip(got, want))

    def test_matches_pure_python_counts(self):
        rng = random.Random(14)
        for p in (7, 13, 31):
            xs = rng.sample(range(p), rng.randint(1, p - 1))
            ys = rng.sample(range(p), rng.randint(1, p - 1))
            u = np.zeros(p, dtype=np.int64)
            v = np.zeros(p, dtype=np.int64)
            u[xs] = 1
            v[ys] = 1
            got = cyclic_convolution_exact(u, v, p)
            assert list(got) == brute_convolution(xs, ys, p)

    def test_rejects_negative(self):
        u = np.array([1, -1, 0], dtype=np.int64)
        v = np.ones(3, dtype=np.int64)
        with pytest.raises(ValueError):
            cyclic_convolution_exact(u, v, 3)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            cyclic_convolution_exact(np.ones(4, dtype=np.int64), np.ones(3, dtype=np.int64), 3)

    def test_zero_vectors(self):
        z = np.zeros(7, dtype=np.int64)
        assert np.array_equal(cyclic_convolution_exact(z, z, 7), z)

    def test_delta_is_identity(self):
        rng = random.Random(15)
        p = 13
        u = rand_vec(p, rng, 100)
        delta = np.zeros(p, dtype=np.int64)
        delta[0] = 1
        assert np.array_equal(cyclic_convolution_exact(u, delta, p), u)
        shift = np.zeros(p, dtype=np.int64)
        shift[1] = 1
        assert np.array_equal(cyclic_convolution_exact(u, shift, p), np.roll(u, 1))

    def test_all_ones(self):
        ones = np.ones(5, dtype=np.int64)
        assert np.array_equal(cyclic_convolution_exact(ones, ones, 5), 5 * ones)

    @pytest.mark.parametrize(
        "bad",
        [
            [0.5, 1.5, 0.0],
            [1.0, np.nan, 0.0],
            [1.0, np.inf, 0.0],
            np.array([1, 0.5, 0], dtype=object),
            np.array([1, 2, 3], dtype=np.complex128),
        ],
    )
    def test_rejects_non_integral(self, bad):
        delta = np.array([1, 0, 0], dtype=np.int64)
        with pytest.raises(ValueError):
            cyclic_convolution_exact(bad, delta, 3)
        with pytest.raises(ValueError):
            cyclic_convolution_exact(delta, bad, 3)

    def test_accepts_integral_float_bool_and_unsigned(self):
        u = np.array([2.0, 1.0, 0.0])
        v = np.array([True, False, True])
        want = naive_cyclic_convolution([2, 1, 0], [1, 0, 1], 3)
        for a, b in ((u, v), (u.astype(np.uint16), v.astype(np.int8))):
            got = cyclic_convolution_exact(a, b, 3)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(spectral, name)

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(spectral, name, spy)
    return calls


class TestCertifiedFft:
    def test_either_side_of_certificate(self, monkeypatch):
        # u = c * w against fixed v: find the largest c that tier 1 certifies,
        # then check c (one rounded product) and c + 1 (none: the packing) exactly
        rng = random.Random(31)
        p = 101
        n = spectral._next_pow2(2 * p - 1)
        w = rand_vec(p, rng, 2)
        v = rand_vec(p, rng, 50)
        w2, v2 = int(np.dot(w, w)), int(np.dot(v, v))
        lo, hi = 1, 1 << 40
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if spectral._certified(mid * mid * w2 * v2, n) else (lo, mid)
        for c, products in ((lo, 1), (lo + 1, 0)):
            calls = _count_calls(monkeypatch, "_rounded")
            got = cyclic_convolution_exact(c * w, v, p)
            assert len(calls) == products
            assert got.dtype == np.int64
            assert np.array_equal(got, naive_cyclic_convolution(c * w, v, p))

    def test_indicators_certify_at_every_modulus(self):
        # the worst product of two 0/1 vectors, ||u||^2 ||v||^2 = p^2, takes
        # the FFT at every p the package accepts, so no count needs another tier
        n = spectral._next_pow2(2 * MODULUS_LIMIT - 1)
        assert spectral._certified(MODULUS_LIMIT**2, n)

    def test_equal_operands_transform_once(self, monkeypatch):
        A = subgroup(101, 20).indicator.bits
        ffts = []
        real = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda *a: ffts.append(1) or real(*a))
        got = cyclic_convolution_exact(A, A.astype(np.int64), 101)
        assert len(ffts) == 1
        assert np.array_equal(got, naive_cyclic_convolution(A, A, 101))

    def test_peak_per_fft_point(self):
        # two indicators at p = 1048573, n = 2^21: the peak is the two
        # spectra and the float64 cast rfft makes of the second operand,
        # 8 + 8 + 4 bytes per FFT point.  With int64 copies of both operands,
        # a third spectrum for the product and copies to round and fold it
        # the peak was 48.1 bytes per point.
        p = 1048573
        n = spectral._next_pow2(2 * p - 1)
        rng = np.random.default_rng(3)
        x, y = rng.random(p) < 0.3, rng.random(p) < 0.3
        tracemalloc.start()
        try:
            got = cyclic_convolution_exact(x, y, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 21 * n, peak / n
        assert got.dtype == np.int64 and int(got.sum()) == np.count_nonzero(x) * np.count_nonzero(y)
        for z in (0, 1, p // 2, p - 1):
            assert got[z] == np.count_nonzero(x & y[(z - np.arange(p)) % p]), z

    def test_tripwire_raises(self, monkeypatch):
        real = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a: real(*a) + 0.3)
        ones = np.ones(7, dtype=np.int64)
        with pytest.raises(ArithmeticError):
            cyclic_convolution_exact(ones, ones, 7)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_oracle_property(self, data):
        p = data.draw(st.sampled_from([q for q in range(3, 258) if is_prime(q)]))
        vecs = []
        for _ in range(2):
            top = data.draw(st.integers(0, 1 << 30))
            vecs.append(data.draw(st.lists(st.integers(0, top), min_size=p, max_size=p)))
        u, v = (np.array(x, dtype=np.int64) for x in vecs)
        got = cyclic_convolution_exact(u, v, p)
        assert got.dtype == np.int64
        assert np.array_equal(got, naive_cyclic_convolution(u, v, p))

    def test_large_modulus_shift_profile(self, monkeypatch):
        # p = 1000003 runs at transform length 2^21
        p = 1000003
        el = np.random.default_rng(33).choice(p, size=2000, replace=False)
        force_tier(monkeypatch, "fft")
        got = shift_sizes(ZpSet.from_elements(p, el))
        want = np.bincount(((el[:, None] - el[None, :]) % p).ravel(), minlength=p)
        assert np.array_equal(got, want)


class TestGatherCounts:
    @pytest.mark.parametrize("block", [1, 7, 40])
    @pytest.mark.parametrize("p, d", [(31, 5), (101, 4), (211, 7)])
    def test_several_blocks_match_pairs_and_brute(self, monkeypatch, block, p, d):
        # the first block reduces into out, the later ones add to it
        monkeypatch.setattr(spectral, "_GATHER_BLOCK", block)
        rng = random.Random(p * block)
        A = subgroup(p, d)
        reps = A.reps.tolist()
        X = invariant_set(A, rng.sample(reps, len(reps) // 2), includes_zero=True)
        Y = invariant_set(A, rng.sample(reps, 3))
        y = Y.members()
        want = brute_convolution(X.members().tolist(), y.tolist(), p)
        assert want == spectral.pair_counts(X.members(), y, p).tolist()
        for pts in (None, A.points):
            at = np.arange(p) if pts is None else pts
            got = spectral.gather_counts(X, y, pts)
            assert got.dtype == np.int64
            assert got.tolist() == [want[z] for z in at.tolist()]
            out = np.empty(len(at), dtype=bool)
            assert spectral.gather_counts(X, y, pts, out) is out
            assert out.tolist() == [want[z] > 0 for z in at.tolist()]

    def test_empty_y_gives_zeros(self):
        X = ZpSet.from_elements(13, [1, 5])
        y = np.empty(0, dtype=np.int64)
        assert spectral.gather_counts(X, y).tolist() == [0] * 13
        out = np.ones(13, dtype=bool)
        assert not spectral.gather_counts(X, y, out=out).any()


class TestExactCounts:
    @pytest.mark.parametrize("tier", TIERS)
    def test_points_beside_out_raise(self, monkeypatch, tier):
        # no tier can honour both, so the pair is refused before any count;
        # each alone works on every tier
        force_tier(monkeypatch, tier)
        A = subgroup(97, 4)
        X, y, pts = A.indicator, A.elements, A.points
        out = np.zeros(97, dtype=bool)
        with pytest.raises(ValueError, match="points or a bool out"):
            spectral.exact_counts(X, y, pts, out=out)
        assert not out.any()
        want = brute_convolution(y.tolist(), y.tolist(), 97)
        assert spectral.exact_counts(X, y, pts).at.tolist() == [want[z] for z in pts.tolist()]
        assert spectral.exact_counts(X, y, out=out) is out
        assert out.tolist() == [w > 0 for w in want]


@st.composite
def support_batches(draw):
    """A set X and a bool matrix of rows Y_k over a small Z_p, with a route: None
    (priced), "fft" or "gather" with a block that may end between rows or
    fall below one row's |Y_k| p.  Row sizes mix empty rows, rows past the
    pigeonhole bound |X| + |Y_k| > p and anything in between."""
    p = draw(st.sampled_from([q for q in range(3, 500) if is_prime(q)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nx = draw(st.integers(0, p))
    sizes = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(1, p), st.integers(min(p, p - nx + 1), p)),
            max_size=12,
        )
    )
    x_bits = np.zeros(p, dtype=bool)
    x_bits[rng.choice(p, nx, replace=False)] = True
    rows = np.zeros((len(sizes), p), dtype=bool)
    for row, n in zip(rows, sizes):
        row[rng.choice(p, n, replace=False)] = True
    tier = draw(st.sampled_from([None, "fft", "gather"]))
    block = draw(st.integers(1, 3 * p)) if tier == "gather" else None
    return ZpSet(p, x_bits), rows, tier, block


class TestExactSupports:
    @settings(max_examples=150, deadline=None)
    @given(support_batches())
    def test_rows_match_sumset(self, case):
        X, rows, tier, block = case
        k, p = rows.shape
        with pytest.MonkeyPatch.context() as mp:
            if tier is not None:
                force_tier(mp, tier, block)
            convs = _count_calls(mp, "cyclic_convolution_exact")
            got = spectral.exact_supports(X, rows)
        want = np.array([sumset(X, ZpSet(p, row)).bits for row in rows]).reshape(k, p)
        assert got.dtype == bool and np.array_equal(got, want)
        sizes = rows.sum(axis=1)
        live = (sizes > 0) & (sizes + X.card <= p)  # neither empty nor pigeonhole
        if tier == "fft":
            assert len(convs) == live.sum()
        elif tier == "gather":
            assert not convs

    def test_gather_peak_is_a_few_blocks(self):
        # 26 rows A + t, A of order 24 in Z_10009: each row gathers 24 p
        # elements, just under one block, and all of them 24 blocks (6 MB)
        p, d = 10009, 24
        A = subgroup(p, d)
        X = A.indicator
        rows = np.array([np.roll(X.bits, t) for t in range(spectral._GATHER_BLOCK // p)])
        gather, conv = d * p, spectral._conv_cost(p)
        assert gather <= spectral._GATHER_BLOCK and gather <= conv
        tracemalloc.start()
        try:
            got = spectral.exact_supports(X, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) * gather > 20 * spectral._GATHER_BLOCK
        assert peak < 3 * spectral._GATHER_BLOCK, peak
        assert all(np.array_equal(got[t], sumset(X, ZpSet(p, rows[t])).bits) for t in (0, 7, len(rows) - 1))

    def test_rejects_rows_of_another_length(self):
        with pytest.raises(ValueError):
            spectral.exact_supports(ZpSet.full(7), np.ones((2, 5), dtype=bool))


class TestConvolveCounts:
    def test_golden_7_3(self):
        A = subgroup(7, 3).indicator
        counts = convolve_counts(A, A)
        assert isinstance(counts, np.ndarray) and counts.dtype == np.int64
        assert not counts.flags.writeable
        assert list(counts) == [0, 1, 1, 2, 1, 2, 2]
        assert counts.sum() == 9

    def test_total_always_product(self):
        rng = random.Random(16)
        for p in (11, 31):
            xs = rng.sample(range(p), 4)
            ys = rng.sample(range(p), 6)
            counts = convolve_counts(ZpSet.from_elements(p, xs), ZpSet.from_elements(p, ys))
            assert counts.sum() == 24

    def test_singletons(self):
        X = ZpSet.from_elements(11, [3])
        Y = ZpSet.from_elements(11, [9])
        counts = convolve_counts(X, Y)
        assert counts[(3 + 9) % 11] == 1
        assert counts.sum() == 1

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            convolve_counts(ZpSet.from_elements(7, [1]), ZpSet.from_elements(11, [1]))


class TestDft:
    def test_matches_naive_and_numpy(self):
        rng = random.Random(17)
        for p in PRIMES:
            for _ in range(4):
                els = rng.sample(range(p), rng.randint(0, p - 1))
                S = ZpSet.from_elements(p, els)
                spec = dft_magnitudes(S)
                slow = naive_dft_magnitudes(S)
                ref = np.abs(np.fft.fft(S.bits.astype(np.float64)))
                assert np.allclose(spec.mags, slow, rtol=1e-9, atol=1e-9)
                assert np.allclose(spec.mags, ref, rtol=1e-9, atol=1e-9)

    def test_matches_cmath_oracle(self):
        rng = random.Random(18)
        for p in (7, 13, 31):
            els = rng.sample(range(p), rng.randint(1, p - 1))
            spec = dft_magnitudes(ZpSet.from_elements(p, els))
            want = brute_dft_mags(els, p)
            assert np.allclose(spec.mags, want, rtol=1e-9, atol=1e-9)

    def test_zero_frequency_is_cardinality_exactly(self):
        rng = random.Random(19)
        for p in (101, 521):
            els = rng.sample(range(p), p // 3)
            spec = dft_magnitudes(ZpSet.from_elements(p, els))
            assert spec.mags[0] == len(els)

    def test_parseval(self):
        rng = random.Random(20)
        for p in (31, 101, 257):
            els = rng.sample(range(p), p // 2)
            spec = dft_magnitudes(ZpSet.from_elements(p, els))
            total = float(np.dot(spec.mags, spec.mags))
            assert abs(total - p * len(els)) <= 1e-6 * p * len(els)

    def test_phi_and_argmax(self):
        rng = random.Random(21)
        for p in (13, 101):
            els = rng.sample(range(p), 5)
            spec = dft_magnitudes(ZpSet.from_elements(p, els))
            assert isinstance(spec, Spectrum)
            assert 1 <= spec.argmax < p
            assert spec.phi == spec.mags[spec.argmax]
            assert spec.phi == max(spec.mags[1:])
            assert abs(spec.phi - brute_phi(els, p)) <= 1e-9 * max(1.0, spec.phi)

    def test_empty_set(self):
        spec = dft_magnitudes(ZpSet.empty(11))
        assert spec.phi == 0.0
        assert np.allclose(spec.mags, 0.0)

    def test_singleton_has_unit_magnitudes(self):
        spec = dft_magnitudes(ZpSet.from_elements(7, [1]))
        assert np.allclose(spec.mags, 1.0, atol=1e-12)
        assert spec.phi == pytest.approx(1.0, abs=1e-12)

    def test_all_nonzero_residues(self):
        # each nontrivial character sums the full group of roots of unity to -1
        spec = dft_magnitudes(ZpSet.from_elements(7, range(1, 7)))
        assert spec.mags[0] == 6
        assert np.allclose(spec.mags[1:], 1.0, atol=1e-12)
        assert spec.phi == pytest.approx(1.0, abs=1e-12)

    def test_matches_naive_at_large_primes(self):
        # numpy's prime-length FFT where verify's energy family uses it
        # (p <= 1024) and past that range
        rng = random.Random(23)
        for p in (1009, 4099):
            els = rng.sample(range(p), rng.randint(1, p // 8))
            S = ZpSet.from_elements(p, els)
            spec = dft_magnitudes(S)
            assert np.allclose(spec.mags, naive_dft_magnitudes(S), rtol=1e-9, atol=1e-9)


class TestPhiSubgroup:
    def test_golden_7_3(self):
        phi, rep = phi_subgroup(subgroup(7, 3))
        assert abs(phi - 2**0.5) <= 1e-12
        assert 1 <= rep < 7

    def test_full_group_is_one(self):
        for p in (7, 101, 1009):
            phi, _ = phi_subgroup(subgroup(p, p - 1))
            assert abs(phi - 1.0) <= 1e-9

    def test_trivial_subgroup_is_one(self):
        phi, _ = phi_subgroup(subgroup(13, 1))
        assert abs(phi - 1.0) <= 1e-12

    def test_matches_dense_spectrum(self):
        from subgroup_lab.numtheory import divisors

        for p in (13, 101, 257):
            for d in divisors(p - 1):
                A = subgroup(p, d)
                fast, rep = phi_subgroup(A)
                spec = dft_magnitudes(A.indicator)
                assert abs(fast - spec.phi) <= 1e-9 * max(fast, spec.phi, 1.0)
                # the reported frequency attains the max
                assert abs(spec.mags[rep] - fast) <= 1e-9 * max(fast, 1.0)

    @pytest.mark.parametrize("block", [1, 7, 1 << 12, 1 << 14])
    def test_blocks_match_direct_evaluation(self, monkeypatch, block):
        # a block of one row, of rows that do not divide m, the default and
        # 2^14 (several blocks at p = 95287): each row is summed whole, so
        # the bits equal one direct m x d evaluation, screened or not
        monkeypatch.setattr(spectral, "_PHASE_BLOCK", block)
        for p, d in ((101, 4), (101, 20), (2003, 7), (95287, 6), (95287, 15881)):
            A = subgroup(p, d)
            spectral._screen_roots.cache_clear()
            assert phi_subgroup(A) == direct_phi(A)[0], (p, d, block)

    def test_peak_beyond_the_roots_table(self):
        # p = 95287, d = 6.  Each table is built a block at a time: beyond
        # the finished table the exact one (16 bytes per residue) peaks
        # under 1/8 of a p-long complex array, and the screen's (8 bytes per
        # residue) too.  The screened phi then builds no exact table, and
        # beyond the screen's it peaks under half such an array (the m
        # screened magnitudes and one block).
        p, d = 95287, 6
        A = subgroup(p, d)
        A.reps  # cached on A, outside the trace
        complex_p = 16 * p
        peaks = {}
        calls = {"_unit_roots": (p,), "_screen_roots": (p, A.layout.ravel())}
        for name, args in calls.items():
            spectral._unit_roots.cache_clear()
            spectral._screen_roots.cache_clear()
            tracemalloc.start()
            try:
                table = getattr(spectral, name)(*args)
                peaks[name] = tracemalloc.get_traced_memory()[1] - table.nbytes
                tracemalloc.reset_peak()
                if name == "_screen_roots":
                    phi_subgroup(A)
                    peaks["phi"] = tracemalloc.get_traced_memory()[1] - table.nbytes
            finally:
                tracemalloc.stop()
        assert spectral._screen_roots(p, A.layout.ravel()).nbytes == 8 * (p - 1)
        assert not spectral._unit_roots.holds(p)
        assert peaks["_unit_roots"] < complex_p // 8, peaks
        assert peaks["_screen_roots"] < complex_p // 8, peaks
        assert peaks["phi"] < complex_p // 2, peaks

    def test_roots_table_kept_for_one_prime_only(self, monkeypatch):
        # each table is built once per prime, and only the last prime's is
        # kept: by the priced route at p = 101, 103 (no screen) and with the
        # screen forced
        names = ("_unit_roots", "_screen_roots")
        builds = {name: count_builds(monkeypatch, getattr(spectral, name)) for name in names}
        for forced in (False, True):
            if forced:
                force_phi_screen(monkeypatch, True)
            for p, d in ((101, 10), (101, 20), (103, 6)):
                phi_subgroup(subgroup(p, d))
        for cache in (spectral._unit_roots, spectral._screen_roots):
            assert cache.holds(103) and not cache.holds(101)
        # one build per prime of each table: the exact one on the priced
        # route, the screen's with it forced, where the exact pass evaluates
        # its candidates directly at 101 and reads the kept table at 103
        assert builds == {"_unit_roots": [101, 103], "_screen_roots": [101, 103]}, builds

    def test_gauss_sum_order_two(self):
        # quadratic residues: |2 phi + 1| should be sqrt(p) for p = 1 mod 4
        p = 13
        phi, _ = phi_subgroup(subgroup(p, (p - 1) // 2))
        assert abs((2 * phi + 1) ** 2 - p) <= 1e-6 or abs((2 * phi - 1) ** 2 - p) <= 1e-6


WINDOW_PRIMES = [p for p in range(100000, 100301) if is_prime(p)]
LARGE_PRIME = 1000003  # p - 1 = 2 * 3 * 166667


def window_sample(n: int = 24) -> list:
    """A fixed sample of the default window's records (p in [100000, 100300])."""
    cases = [(p, d) for p in WINDOW_PRIMES for d in divisors(p - 1)]
    return random.Random(26).sample(cases, n)


_SIMD_SCRIPT = """
import math
import subgroup_lab.spectral as spectral
from subgroup_lab.numtheory import divisors, is_prime, subgroup
from oracles import direct_phi

spectral.PHI_SCREEN_PER_CALL = -math.inf  # the screen on every d > 1
cases = [(p, d) for p in range(3, 600) if is_prime(p) for d in divisors(p - 1)]
cases += [(95287, d) for d in (2, 6, 15881)] + [(100003, d) for d in (2, 3, 21, 2381)]
for p, d in cases:
    A = subgroup(p, d)
    assert spectral.phi_subgroup(A) == direct_phi(A)[0], (p, d)
print(len(cases))
"""


class TestScreenedPhi:
    """The screen picks the candidate cosets and the exact pass runs on them
    alone; the result must be the bits of a direct evaluation at every coset
    rep (oracles.direct_phi)."""

    def test_window_and_large_prime_match_direct(self, monkeypatch):
        force_phi_screen(monkeypatch, True)
        for p, d in window_sample() + [(LARGE_PRIME, d) for d in divisors(LARGE_PRIME - 1)]:
            A = subgroup(p, d)
            assert phi_subgroup(A) == direct_phi(A)[0], (p, d)

    def test_edge_cases(self, monkeypatch):
        force_phi_screen(monkeypatch, True)
        # d = 1 is never screened (every coset sum has modulus 1); m = 1
        # has one coset
        assert not spectral._screen_pays(100003, 1)
        for p in (101, 100003):
            for d in (1, p - 1):
                A = subgroup(p, d)
                assert phi_subgroup(A) == direct_phi(A)[0], (p, d)
        # d = 2: |2 cos(2 pi r / p)| has dozens of cosets within 2 delta of the top
        A = subgroup(100003, 2)
        assert len(spectral._candidates(A)) >= 24
        assert phi_subgroup(A) == direct_phi(A)[0]
        # odd d: -1 is not in A, and the coset of -r carries the conjugate
        # sum, of the same modulus, so both are candidates
        for p, d in ((2003, 7), (100003, 3), (95287, 15881)):
            A = subgroup(p, d)
            (phi, rep), _ = direct_phi(A)
            conj = int(((p - rep) * A.elements % p).min())
            cand = spectral._candidates(A).tolist()
            assert rep in cand and conj in cand and rep != conj, (p, d)
            assert phi_subgroup(A) == (phi, rep), (p, d)

    def test_inflated_delta_and_each_exact_source(self, monkeypatch):
        # the candidates' roots evaluated directly or read from the table,
        # and every coset a candidate: the same (phi, rep)
        force_phi_screen(monkeypatch, True)
        for p, d in ((2003, 7), (95287, 6), (95287, 15881), (100003, 2), (100003, 21)):
            A = subgroup(p, d)
            cand = spectral._candidates(A)
            assert len(cand) < len(A.reps), (p, d)
            spectral._unit_roots.cache_clear()
            direct = spectral._exact_max(A, cand)
            assert not spectral._unit_roots.holds(p)
            spectral._unit_roots(p)
            table = spectral._exact_max(A, cand)
            with monkeypatch.context() as mp:
                mp.setattr(spectral, "_screen_error", lambda d: math.inf)
                assert np.array_equal(spectral._candidates(A), A.reps)
                inflated = phi_subgroup(A)
            assert direct == table == inflated == direct_phi(A)[0], (p, d)

    def test_screen_error_is_below_half_delta(self, capsys):
        # |S_j - E_j| / delta(d) over every coset of every subgroup with
        # d > 1 and p < 2000, of the window sample and at p = 1000003
        cases = [(p, d) for p in range(3, 2000) if is_prime(p) for d in divisors(p - 1)]
        cases += window_sample() + [(LARGE_PRIME, d) for d in divisors(LARGE_PRIME - 1)]
        worst = (0.0, None)
        for p, d in cases:
            if d == 1:
                continue
            A = subgroup(p, d)
            _, exact = direct_phi(A)  # by ascending rep
            screened = spectral._screened_mags(A)  # by layout column
            by_rep = screened[np.argsort(A.layout.min(axis=0))]
            worst = max(worst, (float(np.abs(by_rep - exact).max()) / spectral._screen_error(d), (p, d)))
        with capsys.disabled():
            print(f"\nlargest |screen - exact| / delta(d): {worst[0]:.4f} at (p, d) = {worst[1]}")
        assert worst[0] < 0.5, worst

    @pytest.mark.parametrize(
        "disabled", ["AVX512_SPR AVX512_ICL X86_V4", "AVX512_SPR AVX512_ICL X86_V4 X86_V3"]
    )
    def test_bits_hold_with_simd_kernels_off(self, disabled):
        # both sides run in one child under the same dispatch, so this holds
        # on any CPU; names the CPU lacks are ignored with an ImportWarning
        here = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join((os.path.join(here, os.pardir, "src"), here))
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", _SIMD_SCRIPT], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert int(done.stdout.split()[-1]) == 1055
