"""Additive energies, shift-intersection moments, and invariant-set sums.

Conventions used throughout: moment sums run over every shift s in Z_p
including s = 0, terms with an empty shifted intersection are omitted, and
logarithms downstream are natural.  For a subgroup A the shift profile
|A ∩ (A + s)| is constant on cosets of A, and so is every sum, count or
profile of sets that carry A (zpsets module docstring).  Every count of two
sets goes through spectral.exact_counts, at the m + 1 quotient points
A.points for such sets.  SubgroupContext keeps its counts there: |2A|, E and
E3 are read off those values, and each float sum over shifts takes its terms
once per quotient point and gathers them at the live shifts in ascending
order, so its bits are those of the sum over Z_p.

Three exact size arguments skip counting altogether:
- pigeonhole: X + Y is all of Z_p when |X| + |Y| > p (zpsets.sumset, and
  each |A + A_r| of SubgroupContext.sumset_ratio);
- complement: the shift profile of a set with more than p/2 elements is read
  from its smaller complement (shift_sizes);
- multiset count: |kS| <= C(k + |S| - 1, k) (zpsets.multiset_count), so kS
  misses part of Z_p* when that is below p - 1 (zpsets.first_cover, behind
  both covering indices, and verifier.check_six_fold at k = 6).

SubgroupContext holds every per-subgroup quantity built on them.
"""

from __future__ import annotations

import math

import numpy as np

from . import spectral
from .numtheory import Subgroup, cached_property
from .spectral import convolve_counts, dft_magnitudes, phi_subgroup
from .zpsets import ZpSet, first_cover

# Heavy operations (sumset_ratio_sum takes one exact count A * A_s per coset)
# stay off moduli above this unless explicitly forced.
HEAVY_LIMIT = 4096

# SubgroupContext.l3_moment's threshold k and moment order r.
L3_THRESHOLD = 2.0
L3_ORDER = 2.0


class InvarianceViolation(ValueError):
    """A count profile expected to be constant on cosets is not."""


def _shift_operands(X: ZpSet) -> tuple:
    """(C, y, base) with |X ∩ (X + s)| = (C * y)(s) + base for every s.

    C is X, y = -X and base 0 when 2|X| <= p.  Otherwise C is the
    complement Z_p minus X, a set that carries X's subgroup, y = -C and
    base p - 2|C|: X ∩ (X + s) misses exactly C ∪ (C + s).
    """
    p = X.p
    C = X if 2 * X.card <= p else ZpSet._wrap(p, ~X.bits, X.sym)
    return C, (-C.members()) % p, 0 if C is X else p - 2 * C.card


def shift_sizes(X: ZpSet) -> np.ndarray:
    """Vector of |X ∩ (X + s)| for every s in Z_p, exact integers: X * (-X).

    Counted at the quotient points of the subgroup X carries, if it carries
    one (spectral.zp_counts), and from the complement when |X| > p/2
    (_shift_operands).
    """
    C, y, base = _shift_operands(X)
    sizes = spectral.zp_counts(C, y, X._sym_with())
    if base:
        sizes += base
    return sizes


def _shift_sizes_at(X: ZpSet, points: np.ndarray) -> np.ndarray:
    """|X ∩ (X + s)| at each s in points, in their order (shift_sizes)."""
    C, y, base = _shift_operands(X)
    return spectral.exact_counts(C, y, points).at + base


def additive_energy(A: ZpSet, B: ZpSet) -> int:
    """E(A, B) = number of quadruples a + b = a' + b', as sum of squared counts."""
    counts = convolve_counts(A, B)
    # the counts sum to |A||B| and none exceeds min(|A|, |B|), which bounds
    # the sum of their squares; int64 is used whenever that bound is below 2^63
    if min(A.card, B.card) * A.card * B.card < 1 << 63:
        return int(np.dot(counts, counts))
    return sum(int(c) * int(c) for c in counts[counts > 0].tolist())


def additive_energy_spectral(A: ZpSet, B: ZpSet) -> float:
    """Frequency-domain form of E(A, B): p^{-1} sum over all s of |Â|^2 |B̂|^2."""
    if A.p != B.p:
        raise ValueError(f"modulus mismatch: {A.p} vs {B.p}")
    ma = dft_magnitudes(A).mags
    mb = ma if B is A else dft_magnitudes(B).mags
    return float(np.dot(ma * ma, mb * mb) / A.p)


def energy_moment(A: ZpSet, r: float) -> float:
    """E_r(A) = sum over shifts s (s = 0 included) of |A ∩ (A + s)|^r."""
    if not (math.isfinite(r) and r >= 1):
        raise ValueError(f"moment order must be finite and >= 1, got {r}")
    sizes = shift_sizes(A)
    nz = sizes[sizes > 0].astype(np.float64)
    nz **= r
    return float(np.sum(nz))


class SubgroupContext:
    """Per-subgroup quantities, each computed once, on first use.

    Every count here is of sets that carry A, so it is constant on the
    cosets of A and held as its m + 1 values at A.points (the quotient),
    with the counts over Z_p as well where the pair or convolution tier
    made them (spectral.PointCounts).  A * A is aa; the shift profile
    |A ∩ (A + s)| is shifts, which is aa itself for even d (-1 in A, so
    -A = A).  2A, its size, E and E3 are read off the quotient: the profile
    is d at 0 and l_j on the d shifts of coset j, so E_r = d^r + d sum_j l_j^r,
    exact in Python ints over profile_mult (each distinct l_j > 0 and its
    count), the one profile multiset, which li_decay reads too; rep_profile
    orders the profile by coset rep for sumset_ratio and coset_profile alone.
    The float sums (E_{3/2}, ssc, l3_moment) take each term once per
    live quotient point and gather the terms to the live shifts in ascending
    order, so each is one np.sum over the floats of the O(p) sum over Z_p in
    its order, and their bits do not change.  E_{3/2} and ssc gather through
    one order of the shift-live z, made once (_shift_order): coset_index
    when every point is live, a sort of the live layout columns when they
    are few, and none when it would be about p long (A.spread's blocked
    gather then runs per sum, so no such index is kept).  l3_moment
    spreads its own set M through A.spread.  conv_aa, over Z_p, is spread
    on first use only.  The catalog reads this class as it is, with lnd for
    its logs: verifier.check_bound one check at a time,
    verifier.catalog_cells a sweep record's checks in one pass.  heavy_ok
    says whether the heavy sumset_ratio may run: always up to HEAVY_LIMIT,
    above it only with allow_heavy.
    """

    def __init__(self, A: Subgroup, *, allow_heavy: bool = False):
        self.A = A
        self.p = A.p
        self.d = A.d
        self.heavy_ok = allow_heavy or A.p <= HEAVY_LIMIT

    @cached_property
    def aset(self) -> ZpSet:
        """A as a set that carries A (zpsets module docstring)."""
        return ZpSet._wrap(self.p, self.A.indicator.bits, self.A)

    @cached_property
    def aa(self) -> spectral.PointCounts:
        """A * A at A.points, as spectral.exact_counts counts it there."""
        return spectral.exact_counts(self.aset, self.A.elements, self.A.points)

    @cached_property
    def shifts(self) -> spectral.PointCounts:
        """|A ∩ (A + s)| at A.points: A * (-A), which is aa itself for even d.

        For odd d, 2d < p, so shift_sizes would take no complement.
        """
        if self.d % 2 == 0:
            return self.aa
        return spectral.exact_counts(self.aset, -self.A.elements % self.p, self.A.points)

    @cached_property
    def conv_aa(self) -> np.ndarray:
        """(A * A)(z) for every z, read-only."""
        out = self.aa.over_zp(self.A)
        out.flags.writeable = False
        return out

    @cached_property
    def two_a(self) -> ZpSet:
        at, full = self.aa
        return ZpSet._wrap(self.p, self.A.spread(at > 0) if full is None else full > 0, self.A)

    @cached_property
    def conv_2a2a(self) -> np.ndarray:
        """(2A * 2A)(z) for every z, read-only."""
        return convolve_counts(self.two_a, self.two_a)

    @cached_property
    def lnd(self) -> float:
        """log |A|, natural, as the catalog's bounds take it."""
        return math.log(self.d)

    @cached_property
    def twoA_size(self) -> int:
        at = self.aa.at
        return int(at[0] > 0) + self.d * int(np.count_nonzero(at[1:]))

    def covering_index(self, kmax: int):
        """Smallest k <= kmax with kA ⊇ Z_p*, or None: zpsets.first_cover on A and this 2A."""
        return first_cover([self.aset, self.two_a], kmax)

    @cached_property
    def rep_profile(self) -> np.ndarray:
        """|A ∩ (A + r)| at each coset rep r, in ascending rep order."""
        at, full = self.shifts
        reps = self.A.reps
        return at[self.A.coset_index[reps]] if full is None else full[reps]

    @cached_property
    def profile_mult(self) -> tuple[list, list]:
        """(values l > 0 ascending, counts k): k cosets have profile value l."""
        mult = np.bincount(self.shifts.at[1:])
        ls = np.flatnonzero(mult[1:]) + 1
        return ls.tolist(), mult[ls].tolist()

    def _moment(self, r: int) -> int:
        ls, ks = self.profile_mult
        return self.d**r + self.d * sum(l**r * k for l, k in zip(ls, ks))

    @cached_property
    def energy(self) -> int:
        return self._moment(2)

    @cached_property
    def energy3(self) -> int:
        return self._moment(3)

    @cached_property
    def _shift_order(self) -> np.ndarray | None:
        """A.live_order of the shift-live points (|A ∩ (A + s)| > 0): the
        one ascending-z order of the shift-live z that the float sums gather
        through.  It is coset_index, which A keeps anyway, when every point
        is live, and None when it would be about as long as Z_p, so no new
        index that long is kept; nor is the mask, which is m + 1 long."""
        return self.A.live_order(self.shifts.at > 0)

    def _shift_sum(self, terms: np.ndarray) -> float:
        """Sum in ascending z, over the z whose point is shift-live, of the
        term at z's point; terms holds one per such point, in their order."""
        order = self._shift_order
        vals = terms[order] if order is not None else self.A.spread(terms, self.shifts.at > 0)
        return float(np.sum(vals))

    @cached_property
    def energy32(self) -> float:
        at = self.shifts.at
        t = at[at > 0].astype(np.float64)
        t **= 1.5
        return self._shift_sum(t)

    @cached_property
    def phi(self) -> float:
        return phi_subgroup(self.A)[0]

    @cached_property
    def ssc(self) -> float:
        """Sum over shifts s with |A_s| > 0 of |A_s|^2 / |(2A)_s|; the 2A
        profile is counted at the live points only."""
        at = self.shifts.at
        live = at > 0
        denom = _shift_sizes_at(self.two_a, self.A.points[live])
        if (denom == 0).any():
            raise InvarianceViolation("shifted 2A intersection vanished under a live shift")
        num = at[live].astype(np.float64)
        num *= num
        num /= denom
        return self._shift_sum(num)

    @cached_property
    def l3_moment(self) -> tuple[float, int]:
        """(sum over z in M of (A * A)(z)^L3_ORDER in ascending z, |M|), M =
        threshold_invariant_set(conv_aa, A, L3_THRESHOLD) read off aa at the
        points, unchecked: A * A is constant on cosets by construction."""
        at = self.aa.at
        live = at.astype(np.float64) >= L3_THRESHOLD
        live[0] = False
        t = at[live].astype(np.float64)
        t **= L3_ORDER
        return float(np.sum(self.A.spread(t, live))), self.d * int(np.count_nonzero(live))

    @cached_property
    def sumset_ratio(self) -> float:
        if not self.heavy_ok:
            raise ValueError(
                f"the shifted-sumset ratio sum is heavy; p={self.p} exceeds"
                f" {HEAVY_LIMIT} (pass allow_heavy=True to force)"
            )
        # s = 0 term, then one term per coset, added in ascending rep order;
        # |A + A_r| is the support of A * A_r, A_r = A ∩ (A + r), or all of
        # Z_p, uncounted, when d + |A_r| > p (pigeonhole)
        p, d, el, aset = self.p, self.d, self.A.elements, self.aset
        live = self.rep_profile > 0
        support = np.empty(p, dtype=bool)
        total = d * d / float(self.twoA_size)
        for r, li in zip(self.A.reps[live].tolist(), self.rep_profile[live].tolist()):
            if d + li > p:
                size = p
            else:
                spectral.exact_counts(aset, el[aset.bits[el - r]], out=support)
                size = np.count_nonzero(support)
            total += d * (li * li / float(size))
        return total


def ssc_ratio_sum(A: Subgroup) -> float:
    """Sum over shifts of |A_s|^2 / |(2A)_s| with A_s = A ∩ (A + s).

    Each denominator is positive whenever |A_s| > 0 because A + A_s sits
    inside (2A) ∩ (2A + s).
    """
    return SubgroupContext(A).ssc


def sumset_ratio_sum(A: Subgroup, *, allow_large: bool = False) -> float:
    """Sum over shifts of |A_s|^2 / |A + A_s|.

    |A + A_s| is constant as s runs over a coset of A (dilating by u in A maps
    A + A_s onto A + A_{us}), so one size per coset covers all of Z_p*.
    """
    return SubgroupContext(A, allow_heavy=allow_large).sumset_ratio


def coset_profile(A: Subgroup) -> tuple:
    """(rep, |A ∩ (A + rep)|) per coset of A in Z_p*, by decreasing size.

    Every shift in the coset of rep shares that size.  Ties are broken by
    ascending representative.
    """
    reps, l = A.reps, SubgroupContext(A).rep_profile
    order = np.lexsort((reps, -l))
    return tuple(zip(reps[order].tolist(), l[order].tolist()))


def invariant_convolution_sum(S1: ZpSet, S2: ZpSet, S3: ZpSet) -> int:
    """Sum over z in S3 of (S1 * S2)(z), exact, for three sets that carry one subgroup."""
    if S1.sym is None or not (S1.sym == S2.sym == S3.sym):
        raise ValueError("invariant sets must carry one subgroup")
    counts = convolve_counts(S1, S2)
    return int(counts[S3.members()].sum())


def threshold_invariant_set(
    counts: np.ndarray,
    A: Subgroup,
    k: float,
    *,
    include_zero: bool = False,
) -> ZpSet:
    """Largest A-invariant set on which the counts are >= k; it carries A.

    The counts must be constant on cosets of A (true for convolutions of
    invariant sets); a violation raises rather than returning a best effort.
    Zero is excluded unless include_zero is set and counts(0) clears k.
    """
    if len(counts) != A.p:
        raise ValueError(f"modulus mismatch: {len(counts)} vs {A.p}")
    layout = A.layout  # column j is the coset g^j A
    vals = counts[layout]
    broken = (vals != vals[0]).any(axis=0)
    if broken.any():
        rep = int(layout[:, broken].min())  # a coset's least element is its rep
        raise InvarianceViolation(f"profile is not constant on the coset of {rep}")
    bits = A.spread(np.concatenate(([False], vals[0].astype(np.float64) >= k)))
    bits[0] = include_zero and float(counts[0]) >= k
    return ZpSet._wrap(A.p, bits, A)
