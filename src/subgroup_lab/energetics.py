"""Additive energies, shift-intersection moments, and invariant-set sums.

Conventions used throughout: moment sums run over every shift s in Z_p
including s = 0, terms with an empty shifted intersection are omitted, and
logarithms downstream are natural.  For a subgroup A the shift profile
|A ∩ (A + s)| is constant on cosets of A, which several routines exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numtheory import Subgroup
from .spectral import CountProfile, convolve_counts, cyclic_convolution_exact, dft_magnitudes
from .zpsets import InvariantSet, ZpSet, fold_sumset, shift_intersect, sumset

# Crossover between pairwise-difference bincount and convolution when
# computing the full shift-size profile.
_BINCOUNT_PAIR_LIMIT = 1 << 22

# sumset_ratio_sum walks one sumset per coset; keep it off large moduli
# unless explicitly forced.
SUMSET_RATIO_DEFAULT_LIMIT = 4096


class InvarianceViolation(ValueError):
    """A count profile expected to be constant on cosets is not."""


def shift_sizes(X: ZpSet) -> np.ndarray:
    """Vector of |X ∩ (X + s)| for every s in Z_p, exact integers.

    Small sets go through a pairwise-difference bincount, large ones through
    one exact convolution with the reflected indicator.
    """
    p = X.p
    if X.card * X.card <= _BINCOUNT_PAIR_LIMIT:
        el = X.members()
        diffs = (el[:, None] - el[None, :]) % p
        return np.bincount(diffs.ravel(), minlength=p).astype(np.int64)
    ind = X.bits.astype(np.int64)
    refl = ind[(p - np.arange(p)) % p]  # indicator of -X
    return cyclic_convolution_exact(ind, refl, p)


def exact_moment(sizes: np.ndarray, r: int) -> int:
    """Sum over s of |X ∩ (X + s)|^r from the shift profile of X, exact.

    r = 2 gives E(X) and r = 3 gives E3(X).  The terms sum to |X|^2 and none
    exceeds |X| = sizes[0], so the total is at most |X|^(r+1); int64 is used
    whenever that bound is below 2^63.
    """
    nz = sizes[sizes > 0].astype(np.int64)
    if int(sizes[0]) ** (r + 1) < 1 << 63:
        return int(np.dot(nz ** (r - 1), nz))
    return sum(int(x) ** r for x in nz.tolist())


def additive_energy(A: ZpSet, B: ZpSet) -> int:
    """E(A, B) = number of quadruples a + b = a' + b', as sum of squared counts."""
    counts = convolve_counts(A, B).counts
    nz = counts[counts > 0]
    if nz.size == 0:
        return 0
    if int(nz.max()) < 1 << 31 and A.p <= 1 << 20:
        return int(np.dot(nz, nz))
    return int(sum(int(c) * int(c) for c in nz))


def additive_energy_spectral(A: ZpSet, B: ZpSet) -> float:
    """Frequency-domain form of E(A, B): p^{-1} sum over all s of |Â|^2 |B̂|^2."""
    if A.p != B.p:
        raise ValueError(f"modulus mismatch: {A.p} vs {B.p}")
    ma = dft_magnitudes(A).mags
    mb = dft_magnitudes(B).mags
    return float(np.dot(ma * ma, mb * mb) / A.p)


def energy_moment(A: ZpSet, r: float) -> float:
    """E_r(A) = sum over shifts s (s = 0 included) of |A ∩ (A + s)|^r."""
    if r < 1:
        raise ValueError(f"moment order must be >= 1, got {r}")
    sizes = shift_sizes(A)
    nz = sizes[sizes > 0].astype(np.float64)
    return float(np.sum(nz**r))


def ssc_ratio_sum(A: Subgroup) -> float:
    """Sum over shifts of |A_s|^2 / |(2A)_s| with A_s = A ∩ (A + s).

    Each denominator is positive whenever |A_s| > 0 because A + A_s sits
    inside (2A) ∩ (2A + s).
    """
    aset = A.indicator
    prof = shift_sizes(aset)
    two_a = fold_sumset(aset, 2)
    denom = shift_sizes(two_a)
    mask = prof > 0
    if (denom[mask] == 0).any():
        raise InvarianceViolation("shifted 2A intersection vanished under a live shift")
    num = prof[mask].astype(np.float64)
    return float(np.sum(num * num / denom[mask]))


def sumset_ratio_sum(A: Subgroup, *, allow_large: bool = False) -> float:
    """Sum over shifts of |A_s|^2 / |A + A_s|.

    |A + A_s| is constant as s runs over a coset of A (dilating by u in A maps
    A + A_s onto A + A_{us}), so one sumset per coset covers all of Z_p*.
    """
    if A.p > SUMSET_RATIO_DEFAULT_LIMIT and not allow_large:
        raise ValueError(
            f"sumset_ratio_sum is heavy; p={A.p} exceeds {SUMSET_RATIO_DEFAULT_LIMIT}"
            " (pass allow_large=True to force)"
        )
    aset = A.indicator
    prof = shift_sizes(aset)
    total = A.d * A.d / float(fold_sumset(aset, 2).card)  # s = 0 term
    for rep in A.cosets.reps:
        l = int(prof[rep])
        if l == 0:
            continue
        a_s = shift_intersect(aset, int(rep))
        size = sumset(aset, a_s).card
        total += A.d * (l * l / float(size))
    return total


@dataclass(frozen=True)
class CosetProfile:
    """Shift-intersection sizes per coset, sorted by decreasing size.

    pairs holds (rep, l) where l = |A ∩ (A + rep)|; every shift in the coset
    of rep shares that size.  Ties are broken by ascending representative.
    """

    subgroup: Subgroup
    pairs: tuple[tuple[int, int], ...]

    def sizes(self) -> np.ndarray:
        return np.asarray([l for _, l in self.pairs], dtype=np.int64)


def coset_profile(A: Subgroup) -> CosetProfile:
    """Profile of |A ∩ (A + s)| across the cosets of A in Z_p*."""
    prof = shift_sizes(A.indicator)
    reps = A.cosets.reps
    pairs = sorted(
        ((int(r), int(prof[r])) for r in reps), key=lambda rl: (-rl[1], rl[0])
    )
    return CosetProfile(subgroup=A, pairs=tuple(pairs))


def energy_moment_from_profile(profile: CosetProfile) -> float:
    """E_{3/2}(A) assembled coset-wise: d * sum l_i^{3/2} plus the s = 0 term."""
    A = profile.subgroup
    sizes = profile.sizes().astype(np.float64)
    return float(A.d * np.sum(sizes**1.5) + A.d**1.5)


def restricted_moment(profile: CountProfile, M: InvariantSet, r: float) -> float:
    """Sum over z in M of profile(z)^r."""
    if profile.p != M.base.p:
        raise ValueError(f"modulus mismatch: {profile.p} vs {M.base.p}")
    vals = profile.counts[M.members()].astype(np.float64)
    return float(np.sum(vals**r))


def invariant_convolution_sum(S1: InvariantSet, S2: InvariantSet, S3: InvariantSet) -> int:
    """Sum over z in S3 of (S1 * S2)(z), exact."""
    if not (S1.subgroup == S2.subgroup == S3.subgroup):
        raise ValueError("invariant sets must share one subgroup")
    counts = convolve_counts(S1.base, S2.base).counts
    return int(counts[S3.members()].sum())


def threshold_invariant_set(
    profile: CountProfile,
    A: Subgroup,
    k: float,
    *,
    include_zero: bool = False,
) -> InvariantSet:
    """Largest A-invariant set on which the profile is >= k.

    The profile must be constant on cosets of A (true for convolutions of
    invariant sets); a violation raises rather than returning a best effort.
    Zero is excluded unless include_zero is set and profile(0) clears k.
    """
    if profile.p != A.p:
        raise ValueError(f"modulus mismatch: {profile.p} vs {A.p}")
    counts = profile.counts
    reps = A.cosets.reps
    cosets = (reps[:, None] * A.elements[None, :]) % A.p  # one row per coset
    vals = counts[cosets]
    broken = np.flatnonzero((vals != vals[:, :1]).any(axis=1))
    if broken.size:
        raise InvarianceViolation(
            f"profile is not constant on the coset of {int(reps[broken[0]])}"
        )
    keep = vals[:, 0].astype(np.float64) >= k
    chosen = [int(r) for r in reps[keep]]
    with_zero = include_zero and float(counts[0]) >= k
    bits = np.zeros(A.p, dtype=bool)
    bits[cosets[keep]] = True
    bits[0] = with_zero
    return InvariantSet(
        base=ZpSet(A.p, bits),
        subgroup=A,
        reps=tuple(chosen),
        includes_zero=with_zero,
    )


@dataclass(frozen=True)
class EnergyReport:
    """Bundle of the energy statistics a sweep wants per subgroup."""

    p: int
    d: int
    twoA_size: int
    energy: int
    energy3: int
    energy32: float
    ssc_ratio: float
    sumset_ratio: float | None


def energy_report(A: Subgroup, *, with_sumset_ratio: bool = True) -> EnergyReport:
    aset = A.indicator
    sizes = shift_sizes(aset)
    e2, e3 = exact_moment(sizes, 2), exact_moment(sizes, 3)
    e32 = float(np.sum(sizes[sizes > 0].astype(np.float64) ** 1.5))
    two_a = fold_sumset(aset, 2)
    ratio = None
    if with_sumset_ratio:
        ratio = sumset_ratio_sum(A, allow_large=True)
    return EnergyReport(
        p=A.p,
        d=A.d,
        twoA_size=two_a.card,
        energy=e2,
        energy3=e3,
        energy32=e32,
        ssc_ratio=ssc_ratio_sum(A),
        sumset_ratio=ratio,
    )
