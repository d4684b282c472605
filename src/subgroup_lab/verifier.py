"""Constant-free verification of subgroup growth and energy inequalities.

Every catalog entry compares a measured quantity against the shape of a
proved bound with all absolute constants set to 1, reporting the ratio
lhs / rhs and whether the bound's hypothesis range holds at constant 1
(tunable).  Ratios are diagnostics, not pass/fail tests: a bound with an
implicit constant C is consistent as long as ratios stay bounded.

Logs are natural.  Checks require |A| >= 3 so every log factor is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .energetics import L3_ORDER, L3_THRESHOLD, SubgroupContext
from .numtheory import Subgroup
from .zpsets import ZpSet, first_cover, multiset_count, sumset

# Exponent from the six-fold covering criterion: subgroups with
# |A|^23 >= p^11 are the ones the covering statement targets.
COVER_THRESHOLD_NUM = 11
COVER_THRESHOLD_DEN = 23


class BoundCheck(NamedTuple):
    """One measured-vs-bound comparison for a single subgroup.

    Immutable, and a named tuple rather than a frozen dataclass because it
    is built once per check and record, and at small p the dataclass cost
    more than most catalog bodies.  Its cells are plain Python floats and a
    bool, as the CSV's repr formatting expects.
    """

    name: str
    p: int
    d: int
    lhs: float
    rhs_expr: float
    ratio: float
    hypothesis_ok: bool


@dataclass(frozen=True)
class FitResult:
    """Least-squares slope of log y against log x."""

    slope: float
    intercept: float
    n_points: int
    residual: float


# hypothesis-range comparators with the constant c
def _ll(c: float, a: float, b: float) -> bool:
    return a <= c * b


def _gg(c: float, a: float, b: float) -> bool:
    return a * c >= b


def _chk_hk_energy(ctx: SubgroupContext, c: float):
    lhs = float(ctx.energy)
    rhs = ctx.d**2.5
    return lhs, rhs, _ll(c, ctx.d, ctx.p ** (2 / 3))


def _chk_e3(ctx: SubgroupContext, c: float):
    lhs = float(ctx.energy3)
    rhs = ctx.d**3 * ctx.lnd
    return lhs, rhs, _ll(c, ctx.d, ctx.p ** (2 / 3))


def _chk_ssc2(ctx: SubgroupContext, c: float):
    lhs = ctx.ssc
    rhs = ctx.d * ctx.lnd
    return lhs, rhs, _ll(c, ctx.d, ctx.p ** (2 / 3))


def _chk_ssc_lemma3(ctx: SubgroupContext, c: float):
    # unconditional in any abelian group
    lhs = ctx.sumset_ratio
    rhs = float(ctx.energy3) / ctx.d**2
    return lhs, rhs, True


def _chk_energy1_shkredov(ctx: SubgroupContext, c: float):
    lhs = float(ctx.energy)
    rhs = ctx.d ** (4 / 3) * ctx.twoA_size ** (2 / 3) * ctx.lnd
    hyp = _ll(c, ctx.d, ctx.p ** (2 / 3)) and _ll(
        c, float(ctx.energy), ctx.d**1.5 * math.sqrt(ctx.p) * ctx.lnd
    )
    return lhs, rhs, hyp


def _chk_energy2_shkredov(ctx: SubgroupContext, c: float):
    lhs = float(ctx.energy)
    rhs = max(
        ctx.d ** (22 / 9) * ctx.lnd,
        ctx.d**3 * ctx.p ** (-1 / 3) * ctx.lnd ** (4 / 3),
    )
    return lhs, rhs, _ll(c, ctx.d, ctx.p ** (2 / 3))


def _chk_energy_extension(ctx: SubgroupContext, c: float):
    lhs = float(ctx.energy)
    rhs = max(
        ctx.d ** (4 / 3) * ctx.twoA_size ** (2 / 3) * math.sqrt(ctx.lnd),
        ctx.d * ctx.twoA_size**2 / ctx.p * ctx.lnd,
    )
    return lhs, rhs, _ll(c, ctx.d, ctx.p ** (2 / 3))


def _chk_sumset_growth(ctx: SubgroupContext, c: float):
    # lower bound on |2A|; the ratio is inverted so small still means consistent
    if _ll(c, ctx.d, ctx.p ** (5 / 9) * ctx.lnd ** (-1 / 18)):
        bound = ctx.d ** (8 / 5) * ctx.lnd ** (-3 / 10)
    else:
        bound = ctx.d * ctx.p ** (1 / 3) * ctx.lnd ** (-1 / 3)
    return float(ctx.twoA_size), bound, _ll(c, ctx.d, ctx.p ** (2 / 3))


def _chk_phi_hk(ctx: SubgroupContext, c: float):
    e4 = float(ctx.energy) ** 0.25
    if _gg(c, ctx.d, ctx.p ** (2 / 3)):
        rhs = math.sqrt(ctx.p)
        hyp = True
    elif _gg(c, ctx.d, math.sqrt(ctx.p)):
        rhs = ctx.p**0.25 * ctx.d**-0.25 * e4
        hyp = True
    else:
        rhs = ctx.p**0.125 * e4
        hyp = _gg(c, ctx.d, ctx.p ** (1 / 3))
    return ctx.phi, rhs, hyp


def _chk_phi_shparlinski(ctx: SubgroupContext, c: float):
    lhs = ctx.phi
    rhs = ctx.d ** (7 / 12) * ctx.p ** (1 / 6)
    hyp = _gg(c, ctx.d, ctx.p ** (2 / 5)) and _ll(c, ctx.d, ctx.p ** (4 / 7))
    return lhs, rhs, hyp


def _chk_e32(ctx: SubgroupContext, c: float):
    lhs = ctx.energy32
    rhs = math.sqrt(ctx.d) * ctx.twoA_size * ctx.lnd ** (7 / 4)
    return lhs, rhs, _ll(c, ctx.d, math.sqrt(ctx.p))


def _chk_phi_expA(ctx: SubgroupContext, c: float):
    # two equivalent-strength forms are both claimed; compare with the tighter
    form1 = (
        ctx.p**0.125
        * ctx.d**-0.125
        * ctx.twoA_size**0.25
        * float(ctx.energy) ** 0.125
        * ctx.lnd ** (7 / 16)
    )
    form2 = ctx.p**0.125 * ctx.d ** (1 / 24) * ctx.twoA_size ** (1 / 3) * ctx.lnd ** (5 / 8)
    return ctx.phi, min(form1, form2), _ll(c, ctx.d, math.sqrt(ctx.p))


def _chk_sv_convolution(ctx: SubgroupContext, c: float):
    # instantiated with S1 = S2 = S3 = A, the subgroup as an invariant set:
    # A * A is constant on A, the coset of points[1] = 1
    lhs = float(ctx.d * int(ctx.aa.at[1]))
    rhs = ctx.d ** (-1 / 3) * (ctx.d**3) ** (2 / 3)
    hyp = _ll(c, ctx.d**3, min(float(ctx.d) ** 5, ctx.p**3 / ctx.d))
    return lhs, rhs, hyp


def _chk_l3_moment(ctx: SubgroupContext, c: float):
    r, k = L3_ORDER, L3_THRESHOLD
    lhs, m_card = ctx.l3_moment
    s1 = s2 = float(ctx.d)
    base = s1**2 * s2**2 / ctx.d
    rhs = base * k ** (r - 3)
    m_size = float(m_card)
    hyp = _gg(c, k, 1.0) and _ll(
        c, s1 * s2 * m_size * ctx.d, min(float(ctx.d) ** 6, float(ctx.p) ** 3)
    )
    return lhs, rhs, hyp


def _chk_li_decay(ctx: SubgroupContext, c: float):
    # the nonzero coset profile values l_i by decreasing size
    best = 0.0
    for i, l in enumerate(np.repeat(*ctx.profile_mult)[::-1].tolist(), start=1):
        best = max(best, l * i ** (2 / 3))
    rhs = ctx.twoA_size ** (2 / 3) * ctx.d ** (-1 / 3) * math.sqrt(ctx.lnd)
    return best, rhs, _ll(c, ctx.d, math.sqrt(ctx.p))


_CATALOG = {
    "hk_energy": _chk_hk_energy,
    "e3": _chk_e3,
    "ssc2": _chk_ssc2,
    "ssc_lemma3": _chk_ssc_lemma3,
    "energy1_shkredov": _chk_energy1_shkredov,
    "energy2_shkredov": _chk_energy2_shkredov,
    "energy_extension": _chk_energy_extension,
    "sumset_growth": _chk_sumset_growth,
    "phi_hk": _chk_phi_hk,
    "phi_shparlinski": _chk_phi_shparlinski,
    "e32": _chk_e32,
    "phi_expA": _chk_phi_expA,
    "sv_convolution": _chk_sv_convolution,
    "l3_moment": _chk_l3_moment,
    "li_decay": _chk_li_decay,
}

ALL_CHECKS: tuple[str, ...] = tuple(_CATALOG)

# checks whose context requires operations gated above HEAVY_LIMIT
HEAVY_CHECKS = frozenset({"ssc_lemma3"})

# lower-bound checks report rhs/lhs so that small always reads as consistent
_INVERTED = frozenset({"sumset_growth"})


def _cells(name: str, ctx: SubgroupContext, c: float) -> tuple:
    """(lhs, rhs, ratio, hyp) of one check on ctx at the constant c, unchecked."""
    lhs, rhs, hyp = _CATALOG[name](ctx, c)
    if name in _INVERTED:
        ratio = rhs / lhs if lhs > 0 else math.inf
    else:
        ratio = lhs / rhs
    return float(lhs), float(rhs), float(ratio), bool(hyp)


def check_bound(
    name: str,
    A: Subgroup,
    context: SubgroupContext | None = None,
    *,
    hypothesis_constant: float = 1.0,
) -> BoundCheck:
    """Evaluate one named bound on A, its hypothesis range at the constant.

    A given context must be A's; one context serves every check and
    constant.  Unknown names, |A| < 3 (the logs must be positive), a
    constant that is not positive and finite, or another subgroup's context
    raise ValueError.
    """
    if name not in _CATALOG:
        raise ValueError(f"unknown check name: {name!r} (have {', '.join(ALL_CHECKS)})")
    if A.d < 3:
        raise ValueError(f"catalog checks need |A| >= 3, got {A.d}")
    if not 0 < hypothesis_constant < math.inf:
        raise ValueError(f"hypothesis constant must be positive and finite, got {hypothesis_constant}")
    if context is None:
        context = SubgroupContext(A)
    elif context.A is not A and context.A != A:
        raise ValueError(f"context is for {context.A!r}, not {A!r}")
    return BoundCheck(name, context.p, context.d, *_cells(name, context, float(hypothesis_constant)))


def catalog_cells(names, ctx: SubgroupContext, hypothesis_constant: float = 1.0) -> list:
    """The cells lhs, rhs, ratio, hyp of each named check in turn, one flat
    list, each as check_bound gives them; all None for every check when
    |A| < 3, and for a HEAVY_CHECKS one when ctx.heavy_ok is false.

    A sweep record's one pass over the catalog, unchecked: the names and
    the constant are the ones SweepConfig.validate has checked.
    """
    c = float(hypothesis_constant)
    cells = [None] * (4 * len(names))
    if ctx.d >= 3:
        for i, name in enumerate(names):
            if ctx.heavy_ok or name not in HEAVY_CHECKS:
                cells[4 * i : 4 * i + 4] = _cells(name, ctx, c)
    return cells


def covering_index(S: ZpSet, kmax: int):
    """Smallest k <= kmax with kS containing all of Z_p*, or None (zpsets.first_cover)."""
    return first_cover([S], kmax)


def check_six_fold(A: Subgroup) -> bool:
    """True iff the six-fold sumset 6A covers every nonzero residue.

    False without counting when multiset_count(6, d), a bound on |6A|, is
    below p - 1.  Otherwise computed through the chain 2A, 3A, 3A + 3A of
    sumsets, each counted at A.points (its sets carry A): a different route
    from first_cover's one-step folds, built without the subgroup's context.
    """
    if multiset_count(6, A.d) < A.p - 1:
        return False
    aset = ZpSet._wrap(A.p, A.indicator.bits, A)
    two = sumset(aset, aset)
    three = sumset(two, aset)
    return sumset(three, three).covers_nonzero()


def clears_cover_threshold(p: int, d: int) -> bool:
    """Exact integer test of |A| >= p^(11/23)."""
    return d**COVER_THRESHOLD_DEN >= p**COVER_THRESHOLD_NUM


@lru_cache(maxsize=2)
def _context(A: Subgroup) -> SubgroupContext:
    """The one context per subgroup that positivity and the solution counts
    share, built on the caller's A (a Subgroup hashes as its (p, d))."""
    return SubgroupContext(A)


def count_solutions_N(A: Subgroup, a: int) -> int:
    """Number of solutions of x1 + x2 + y1 + y2 = a*y3, x in 2A, y in A, exact.

    Every set here carries A, so the count T(z) of x1 + x2 + y1 + y2 = z is
    constant on cosets of A, and N(a), its sum over z in aA, is |A| T(a):
    N(a) = |A| sum_z (2A * 2A)(z) (A * A)(a - z), one dot product of the
    context's two count vectors.  Its terms are below p^2 <= 2^52, so blocks
    of 2^11 terms sum exactly in int64 and the blocks in Python ints.
    """
    a = a % A.p
    if a == 0:
        raise ValueError("the dilation parameter a must be nonzero mod p")
    ctx = _context(A)
    terms = ctx.conv_2a2a * ctx.conv_aa[(a - np.arange(A.p)) % A.p]
    return A.d * sum(np.add.reduceat(terms, np.arange(0, A.p, 1 << 11)).tolist())


def positivity_condition(A: Subgroup) -> bool:
    """True iff |2A| |A|^3 > p * phi^3, which forces N > 0 for every a != 0."""
    ctx = _context(A)
    return ctx.twoA_size * A.d**3 > A.p * ctx.phi**3


def exponent_fit(points, *, envelope: bool = False) -> FitResult:
    """Fit log y = slope * log x + intercept by least squares.

    With envelope=True only the maximal y per dyadic x bucket is kept, which
    estimates the growth rate of the upper envelope rather than the bulk.
    Points with nonpositive or non-finite x or y are dropped.
    """
    xs, ys = [], []
    for x, y in points:
        if 0 < x < math.inf and 0 < y < math.inf:
            xs.append(float(x))
            ys.append(float(y))
    if envelope:
        buckets: dict[int, tuple[float, float]] = {}
        for x, y in zip(xs, ys):
            j = int(math.floor(math.log2(x)))
            if j not in buckets or y > buckets[j][1]:
                buckets[j] = (x, y)
        pts = [buckets[j] for j in sorted(buckets)]
        xs = [x for x, _ in pts]
        ys = [y for _, y in pts]
    if len(xs) < 2 or len(set(xs)) < 2:
        raise ValueError("exponent fit needs at least two points with distinct x")
    lx = np.log(np.asarray(xs))
    ly = np.log(np.asarray(ys))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        n_points=len(xs),
        residual=float(np.sqrt(np.mean(resid**2))),
    )
