"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
timings.  Several criteria sweep thousands of subgroups; the whole file is
sized to finish in a few minutes on eight threads.
"""

import concurrent.futures
import math
import random
import time

import numpy as np
import pytest

from subgroup_lab.cli import SweepConfig, emit_report, format_csv, run_sweep, summary_text
from subgroup_lab.energetics import (
    additive_energy,
    additive_energy_spectral,
    energy_moment,
    invariant_convolution_sum,
    shift_sizes,
    ssc_ratio_sum,
    sumset_ratio_sum,
)
from subgroup_lab.numtheory import divisors, subgroup
from subgroup_lab.spectral import (
    convolve_counts,
    cyclic_convolution_exact,
    dft_magnitudes,
    phi_subgroup,
)
from subgroup_lab.verifier import (
    ALL_CHECKS,
    check_six_fold,
    count_solutions_N,
    covering_index,
    exponent_fit,
    positivity_condition,
)
from subgroup_lab.zpsets import ZpSet, fold_sumset, invariant_set, shift_intersect, sumset

from oracles import (
    brute_convolution,
    brute_covering_index,
    brute_energy,
    brute_energy_moment,
    brute_phi,
    brute_ssc_ratio,
    brute_sumset,
    brute_sumset_ratio,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _primes(lo: int, hi: int):
    sieve = np.ones(hi + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, int(math.isqrt(hi)) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return [int(q) for q in np.flatnonzero(sieve) if q >= max(lo, 3) and q % 2 == 1]


def _all_subgroups(lo: int, hi: int, dmin: int = 1):
    for p in _primes(lo, hi):
        for d in divisors(p - 1):
            if d >= dmin:
                yield p, d


def test_criterion_1_energy_definitions_agree():
    t0 = time.time()
    n = 0
    for p, d in _all_subgroups(3, 101):
        A = subgroup(p, d).indicator
        e_conv = additive_energy(A, A)
        e_prof = energy_moment(A, 2)
        bits = A.bits
        e_roll = sum(
            int((bits & np.roll(bits, s)).sum()) ** 2 for s in range(p)
        )
        e_spec = additive_energy_spectral(A, A)
        assert float(e_prof).is_integer()
        assert e_conv == int(e_prof) == e_roll, (p, d)
        assert abs(e_spec - e_conv) <= 1e-6 * max(1, e_conv), (p, d)
        n += 1
    dt = time.time() - t0
    _verdict(
        1,
        dt < 30.0,
        f"four energy formulations agree (3 exact + spectral 1e-6) on {n} subgroups"
        f" of p <= 101 in {dt:.1f}s (< 30s)",
    )


def test_criterion_2_convolution_matches_naive_oracle():
    n = 0
    for p in _primes(3, 101):
        rng = random.Random(10_000 + p)
        pairs = [([], rng.sample(range(p), rng.randint(1, p - 1)))]  # one empty side
        while len(pairs) < 50:
            pairs.append(
                (
                    rng.sample(range(p), rng.randint(1, p - 1)),
                    rng.sample(range(p), rng.randint(1, p - 1)),
                )
            )
        for xs, ys in pairs:
            want = brute_convolution(xs, ys, p)
            X = ZpSet.from_elements(p, xs)
            Y = ZpSet.from_elements(p, ys)
            got_counts = convolve_counts(X, Y)
            got_raw = cyclic_convolution_exact(
                X.bits.astype(np.int64), Y.bits.astype(np.int64), p
            )
            assert list(got_counts) == want, (p, xs, ys)
            assert list(got_raw) == want, (p, xs, ys)
            n += 1
    _verdict(2, True, f"exact convolution matches the O(p^2) oracle on {n} set pairs")


def test_criterion_3_golden_values_p7():
    p, els = 7, [1, 2, 4]
    A = subgroup(p, 3)
    assert list(A.elements) == els

    checks = []

    def both(label, lib_val, brute_val, want, tol=0.0):
        ok = (
            abs(lib_val - want) <= tol
            and abs(brute_val - want) <= tol
            and abs(lib_val - brute_val) <= tol
        )
        checks.append((label, ok))

    both("E", additive_energy(A.indicator, A.indicator), brute_energy(els, els, p), 15)
    both(
        "E32",
        energy_moment(A.indicator, 1.5),
        brute_energy_moment(els, 1.5, p),
        11.19615242270663,
        tol=1e-9,
    )
    both("phi", phi_subgroup(A)[0], brute_phi(els, p), math.sqrt(2), tol=1e-9)
    two_lib = set(int(v) for v in fold_sumset(A.indicator, 2).members())
    both("2A", len(two_lib), len(brute_sumset(els, els, p)), 6)
    checks.append(("2A=Z7*", two_lib == set(range(1, 7)) == brute_sumset(els, els, p)))
    both(
        "covering",
        covering_index(A.indicator, 8),
        brute_covering_index(els, p, 8),
        2,
    )
    both("ssc", ssc_ratio_sum(A), brute_ssc_ratio(els, p), 2.7, tol=1e-9)
    both(
        "sumset_ratio",
        sumset_ratio_sum(A),
        brute_sumset_ratio(els, p),
        3.5,
        tol=1e-9,
    )
    S = invariant_set(A, (1,))
    brute_conv_on_A = sum(brute_convolution(els, els, p)[z] for z in els)
    both("inv_conv_sum", invariant_convolution_sum(S, S, S), brute_conv_on_A, 3)

    bad = [label for label, ok in checks if not ok]
    _verdict(
        3,
        not bad,
        f"all {len(checks)} golden values at p=7, A={{1,2,4}} confirmed by brute oracles"
        + (f" (failed: {bad})" if bad else ""),
    )


def test_criterion_4_containment_exhaustive():
    n = 0
    for p, d in _all_subgroups(3, 200):
        A = subgroup(p, d)
        aset = A.indicator
        two = fold_sumset(aset, 2)
        for s in range(p):
            a_s = shift_intersect(aset, s)
            if a_s.card == 0:
                continue
            assert sumset(aset, a_s).is_subset_of(shift_intersect(two, s)), (p, d, s)
            n += 1
    _verdict(4, True, f"A + A_s inside (2A)_s for all {n} live shifts, p <= 200")


def test_criterion_5_coset_constancy_and_phi():
    n = 0
    for p, d in _all_subgroups(3, 500):
        A = subgroup(p, d)
        prof = shift_sizes(A.indicator)
        for rep in A.reps:
            coset = (int(rep) * A.elements) % p
            assert (prof[coset] == prof[int(rep)]).all(), (p, d, int(rep))
        fast, _ = phi_subgroup(A)
        dense = dft_magnitudes(A.indicator).phi
        assert abs(fast - dense) <= 1e-9 * max(fast, dense, 1.0), (p, d)
        n += 1
    _verdict(5, True, f"|A_z| coset-constant and phi = dense-DFT phi on {n} subgroups, p <= 500")


def test_criterion_6_spectral_identity_all_frequencies():
    n = 0
    for p, d in _all_subgroups(3, 101):
        A = subgroup(p, d)
        bits = A.indicator.bits
        prof = np.array(
            [int((bits & np.roll(bits, s)).sum()) for s in range(p)], dtype=np.float64
        )
        # independent dense transform straight from the exponential definition
        table = np.exp(2j * np.pi * np.arange(p) / p)
        hatA = table[np.outer(np.arange(p), A.elements) % p].sum(axis=1)
        idx = np.arange(p)
        for lam in range(1, p):
            lhs = d * abs(hatA[lam]) ** 2
            rhs = float(prof @ hatA[(lam * idx) % p].real)
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs), abs(rhs)), (p, d, lam)
            n += 1
    _verdict(6, True, f"|A||A^(lam)|^2 identity holds at all {n} (subgroup, lam) pairs, p <= 101")


def test_criterion_7_coverage_chain():
    # positivity forces six-fold coverage and positive counts
    n_pos = 0
    for p, d in _all_subgroups(100, 2000):
        A = subgroup(p, d)
        if not positivity_condition(A):
            continue
        n_pos += 1
        assert check_six_fold(A), (p, d)
        rng = random.Random(p * 100003 + d)
        for a in rng.sample(range(1, p), 20):
            assert count_solutions_N(A, a) > 0, (p, d, a)

    # the headline threshold: |A| >= p^0.478 always covers by six folds
    n_thr, failures = 0, []
    for p, d in _all_subgroups(1000, 5000, dmin=3):
        if d < p**0.478:
            continue
        n_thr += 1
        if not check_six_fold(subgroup(p, d)):
            failures.append((p, d))
    _verdict(
        7,
        n_pos > 0 and n_thr > 0 and not failures,
        f"positivity => coverage and N > 0 on {n_pos} subgroups in [100, 2000]; "
        f"six-fold coverage on all {n_thr} subgroups with |A| >= p^0.478 in [1000, 5000]"
        + (f" (failures: {failures[:5]})" if failures else " (zero failures)"),
    )


def _energy_points_for_prime(p: int):
    out = []
    for d in divisors(p - 1):
        if d < 3 or d**3 > p**2:
            continue
        A = subgroup(p, d).indicator
        prof = shift_sizes(A)
        nz = prof[prof > 0].astype(np.int64)
        out.append((d, int(np.dot(nz, nz))))
    return out


def test_criterion_8_energy_envelope():
    t0 = time.time()
    points = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        for chunk in pool.map(_energy_points_for_prime, _primes(3, 20000)):
            points.extend(chunk)
    dt = time.time() - t0

    fit = exponent_fit(points, envelope=True)
    ratios = [(d, e / d**2.5) for d, e in points]
    buckets: dict[int, float] = {}
    for d, r in ratios:
        j = int(math.floor(math.log2(d)))
        buckets[j] = max(buckets.get(j, 0.0), r)
    seq = [buckets[j] for j in sorted(buckets)]
    global_max = max(r for _, r in ratios)
    slope_ok = fit.slope <= 2.55
    trend_ok = seq[-1] <= 2 * global_max and seq[-1] <= 2 * max(seq[:-1])
    _verdict(
        8,
        slope_ok and trend_ok and dt < 300.0,
        f"E envelope over {len(points)} subgroups (p <= 20000): slope {fit.slope:.3f}"
        f" <= 2.55, last-bucket max ratio {seq[-1]:.3f} vs global {global_max:.3f},"
        f" {dt:.0f}s (< 300s, 8 threads)",
    )


def test_criterion_9_sweep_ratios_finite(tmp_path):
    cfg = SweepConfig(
        p_min=3,
        p_max=5000,
        min_size=3,
        heavy_ops=True,
        threads=8,
        out_path=str(tmp_path / "sweep.csv"),
    )
    records = run_sweep(cfg)
    assert records, "sweep produced no records"

    for row in records:
        for name in ALL_CHECKS:
            lhs, rhs, ratio, hyp = (row[f"{name}:{x}"] for x in ("lhs", "rhs", "ratio", "hyp"))
            where = (row["p"], row["d"], name)
            assert isinstance(hyp, bool), where
            assert lhs is not None and math.isfinite(lhs), where
            assert rhs is not None and math.isfinite(rhs) and rhs > 0, where
            assert ratio is not None and math.isfinite(ratio), where

    summary = summary_text(records, list(cfg.checks))
    fits_ok = all(
        f"check {name}:" in summary for name in ALL_CHECKS
    ) and summary.count("envelope_slope=") == len(ALL_CHECKS)

    # boundedness is a claim only where each bound's hypothesis range holds
    # (outside it the ratio provably grows, so the stratification matters)
    def bucket_maxima(name):
        buckets: dict[int, float] = {}
        for row in records:
            if not row[f"{name}:hyp"]:
                continue
            j = int(math.floor(math.log2(row["d"])))
            buckets[j] = max(buckets.get(j, 0.0), row[f"{name}:ratio"])
        return [buckets[j] for j in sorted(buckets)]

    details = []
    bounded_ok = True
    for name in ("li_decay", "e32"):
        seq = bucket_maxima(name)
        increasing = len(seq) >= 2 and all(b > a for a, b in zip(seq, seq[1:]))
        bounded_ok = bounded_ok and bool(seq) and not increasing
        details.append(f"{name} max={max(seq):.3f}" if seq else f"{name} empty")
    _verdict(
        9,
        fits_ok and bounded_ok,
        f"all {len(records)} records x {len(ALL_CHECKS)} checks finite over p <= 5000;"
        f" summary has 15 envelope fits; in-range ratios bounded, no monotone growth"
        f" ({', '.join(details)})",
    )


def test_criterion_10_thread_determinism(tmp_path):
    base = dict(p_min=3, p_max=311, min_size=1, out_path="", format="csv")
    cfg1 = SweepConfig(**{**base, "out_path": str(tmp_path / "t1.csv"), "threads": 1})
    cfg8 = SweepConfig(**{**base, "out_path": str(tmp_path / "t8.csv"), "threads": 8})
    emit_report(run_sweep(cfg1), cfg1)
    emit_report(run_sweep(cfg8), cfg8)
    b1 = (tmp_path / "t1.csv").read_bytes()
    b8 = (tmp_path / "t8.csv").read_bytes()
    _verdict(
        10,
        b1 == b8 and len(b1) > 0,
        f"threads=1 and threads=8 sweeps wrote byte-identical CSV ({len(b1)} bytes)",
    )
