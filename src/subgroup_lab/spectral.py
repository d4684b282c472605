"""Exact cyclic convolution over Z_p and complex exponential-sum spectra.

Convolution of nonnegative integers is exact at every size, in two tiers:
1. numpy's real FFT at the power-of-two length n >= 2p - 1, rounded to
   integers.  Used only when Percival's a-priori bound (Math. Comp. 72, 2003)
   ||u|| ||v|| ((1+e)^{3L} (1+e sqrt5)^{3L+1} (1+b)^{3L} - 1), e = 2^-53,
   L = log2(n) + 1 (one stage for real-input packing), certifies every error
   below 1/4.  It assumes pocketfft's twiddles are accurate to b = 2^-52; a
   rounded value further than 1/4 from an integer raises ArithmeticError.
   The bound certifies two 0/1 vectors at every p up to MODULUS_LIMIT.
2. Otherwise big-integer Kronecker packing (int64 when every output is
   provably below 2^63, object dtype otherwise).  It is much slower at
   large p; only a caller passing large entries reaches it, never the
   package's own counts.

Every exact count X * Y of two sets in the package (shift profiles, A * A,
sumsets, convolve_counts) goes through exact_counts, which prices a
pair bincount, a gather and the exact convolution above, and runs the
cheapest.  It counts over Z_p or at a given set of points, where the gather
reads only those points and the pair and convolution tiers read their counts
over Z_p, which they hand back too (PointCounts).  Two sets that carry one
subgroup A (zpsets) are counted at A.points, 0 and one point per coset, and
zp_counts spreads the m + 1 values to Z_p (numtheory.Subgroup.spread) only
when no tier made them there.  exact_supports takes the supports of
X * Y_k for a block of sets Y_k at once (verify's containment family, one
call per block of shifts); it prices each row as exact_counts would, shares
one gather among the rows it would gather and hands the others to
exact_counts.  The FFT tier of exact_counts, on two indicators, is the
package's one caller of the convolution.

Dense spectra use numpy's FFT at the prime length p itself (O(p log p)).
A subgroup's exponential-sum maximum (phi_subgroup) is one exact sum per
coset, or, where the cost model prices it cheaper, a certified complex64
screen of every coset followed by exact sums at the few cosets where the
maximum can be; both give the same bits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .numtheory import power_table, validate_modulus

if TYPE_CHECKING:
    from .zpsets import ZpSet

# Relative and absolute floors for floating-point spectral comparisons.
REL_TOL = 1e-6
ABS_TOL = 1e-9

_INT64_LIMIT = 1 << 63


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def _certified(norm2_product: int, n: int) -> bool:
    """Whether Percival's bound at length n is below 1/4, given ||u||^2 ||v||^2.

    The factor is bounded above by (1+a)^k <= e^{ka} and e^x - 1 <= x/(1-x);
    the 1e-9 widening covers the rounding of this float arithmetic.
    """
    L, eps, beta = n.bit_length(), 2.0**-53, 2.0**-52
    x = 3 * L * eps + (3 * L + 1) * eps * math.sqrt(5.0) + 3 * L * beta
    return (math.isqrt(norm2_product) + 1) * x / (1.0 - x) * (1.0 + 1e-9) < 0.25


def _max_sum(a: np.ndarray) -> tuple[int, int]:
    """Exact max and sum of a nonnegative int64 or object vector."""
    m = int(a.max())
    if a.dtype != object and m * a.size < _INT64_LIMIT:
        return m, int(a.sum())
    return m, sum(int(x) for x in a.tolist())


def _norm2(a: np.ndarray) -> int:
    """Exact squared Euclidean norm of a bool or int64 vector."""
    if a.dtype == bool:
        return int(np.count_nonzero(a))
    if int(a.max()) ** 2 * a.size < _INT64_LIMIT:
        return int(np.dot(a, a))
    return sum(x * x for x in a.tolist())


def _rounded(x: np.ndarray, n: int) -> np.ndarray:
    """Round x, a product at FFT length n, to integers in place,
    _GATHER_BLOCK entries at a time; the caller certified that every entry
    is within 1/4 of one."""
    err = 0.0
    for i in range(0, len(x), _GATHER_BLOCK):
        block = x[i : i + _GATHER_BLOCK]
        r = np.rint(block)
        block -= r
        err = max(err, float(block.max()), -float(block.min()))
        block[...] = r
    if err > 0.25:
        raise ArithmeticError(f"certified FFT product is {err:.3g} off an integer (n={n})")
    return x


def _fold_cyclic(lin: np.ndarray, p: int) -> np.ndarray:
    """Reduce a linear convolution (length >= 2p-1, zero-padded) mod p in
    place; the result is a view of lin's first p entries."""
    lin[: p - 1] += lin[p : 2 * p - 1]
    return lin[:p]


def _kronecker_linear(u: np.ndarray, v: np.ndarray, bound: int) -> list[int]:
    """Exact linear convolution by packing into one big integer per operand.

    Each coefficient gets a fixed little-endian byte slot wide enough for the
    a-priori value bound, so no carries cross slots.
    """
    nb = bound.bit_length() // 8 + 1
    def pack(a: np.ndarray) -> int:
        buf = bytearray(len(a) * nb)
        for i, val in enumerate(a.tolist()):
            buf[i * nb : (i + 1) * nb] = int(val).to_bytes(nb, "little")
        return int.from_bytes(bytes(buf), "little")

    prod = pack(u) * pack(v)
    m = len(u) + len(v) - 1
    raw = prod.to_bytes(m * nb + nb, "little")
    return [int.from_bytes(raw[i * nb : (i + 1) * nb], "little") for i in range(m)]


def all_integral(a: np.ndarray) -> bool:
    """Whether every entry of a is a finite integer.

    Bool, integer and integral float dtypes qualify, and object arrays of
    Python or numpy integers; callers raise on anything else, never truncate.
    """
    kind = a.dtype.kind
    if kind == "O":
        return all(isinstance(x, numbers.Integral) for x in a.tolist())
    return kind in "biu" or bool(kind == "f" and np.isfinite(a).all() and (a == np.floor(a)).all())


def _integer_operand(a, p: int) -> np.ndarray:
    """Length-p nonnegative integers: bool as given, else int64 (object from 2^63 up)."""
    a = np.asarray(a)
    if a.shape != (p,):
        raise ValueError("operands must be vectors of length p")
    if not all_integral(a):
        raise ValueError("convolution operands must be finite integers")
    if a.dtype == bool:
        return a
    if (a < 0).any():
        raise ValueError("convolution operands must be nonnegative")
    if int(a.max()) < _INT64_LIMIT:
        return a.astype(np.int64, copy=False)
    return np.array([int(x) for x in a.tolist()], dtype=object)


def cyclic_convolution_exact(u, v, p: int) -> np.ndarray:
    """Exact (u * v)(z) = sum_{x+y=z mod p} u[x] v[y] for nonnegative integers.

    The tier is picked from a-priori bounds (module docstring).  The returned
    dtype is int64 when every value provably fits, object otherwise.
    """
    p = validate_modulus(p)
    u = _integer_operand(u, p)
    v = _integer_operand(v, p)
    (mu, su), (mv, sv) = _max_sum(u), _max_sum(v)
    if su == 0 or sv == 0:
        return np.zeros(p, dtype=np.int64)
    # every output value is at most min(max(u)*sum(v), max(v)*sum(u))
    bound = min(mu * sv, mv * su)
    if bound < _INT64_LIMIT:  # then u and v are bool or int64 too
        n = _next_pow2(2 * p - 1)
        same = np.array_equal(u, v)
        u2 = _norm2(u)
        if _certified(u2 * (u2 if same else _norm2(v)), n):
            # rfft casts each operand to float64 itself (a bool one with no
            # int64 copy); the spectra are multiplied, and the product
            # rounded and folded, in place
            fv = np.fft.rfft(v, n)
            fu = fv if same else np.fft.rfft(u, n)
            fu *= fv
            del fv
            lin = np.fft.irfft(fu, n)
            del fu
            return _fold_cyclic(_rounded(lin[: 2 * p - 1], n), p).astype(np.int64)
    lin = _kronecker_linear(u, v, bound)
    return _fold_cyclic(np.asarray(lin, dtype=np.int64 if bound < _INT64_LIMIT else object), p).copy()


# Cost model of the exact-count kernels, in gathered elements (2.3-5.5 ns each,
# 2-vCPU Xeon VM, numpy 2.4).  An exact convolution at FFT length
# n = 2^ceil(log2(2p - 1)) costs CONV_COST_PER_CALL + CONV_COST_PER_N * n: it
# crossed gather_counts (|z| = p or |Y| = p/2) at 24-39e3 elements for p = 193
# to 1009 (never at 97), 13-24 n to 30011 and 31-38 n to 300007; mean squared
# log error 0.115 (the best fit, 10240 + 21 n: 0.099).  A pair costs
# SCATTER_COST: 2.2-4.0 elements in pair_counts' bincount (|X| >= 64), p = 97
# to 10007; the bincount still beat the FFT up to |X| = 97 at p = 97 (43-72
# against 52-92 us).  exact_counts takes the pairs over a coset gather when
# SCATTER_COST |X| |Y| is below (m + 1) |Y|, i.e. up to |X| = (m + 1)/3.
# Timed against that gather, pair_counts crossed it near |X| = 7e3 for
# p = 100003, d = 6, |Y| = 48 (model 5556), 0.7-2.7e3 for d = 42, |Y| = 84
# (model 794) and 6e3-1.2e5 at p = 1000003, d = 6, |Y| = 48 (model 55556).
# For p <= 10007 the pairs stayed faster 3-6x past the model's switch
# (p = 1009, d = 4, |Y| = 4: |X| = 500 against 84; p = 10007, d = 2: every
# |X|): there both tiers' unpriced O(p) pass over Z_p sets the time.
CONV_COST_PER_N = 24
CONV_COST_PER_CALL = 8192
SCATTER_COST = 3
# phi_subgroup prices its screen in the same units (2.57 ns each, measured
# by gather_counts at p = 100003 on the same host).  An exact unit root
# costs PHI_ROOT_COST: building the table took 7.8-11.4 per residue at
# p = 2003 to 1000003, a direct evaluation about 7 beyond its phase.  The
# exact pass costs PHI_PHASE_COST per phase read from the table and
# PHI_ROW_COST per coset (row) summed: 3.0-3.7 per phase at d >= 42, and
# 8.6-11.6, 5.3-9.2 and 4.0-4.5 at d = 2, 6 and 14.  The screen costs
# PHI_SCREEN_BUILD_COST per residue to build its table (1.5-1.9 at
# p >= 10007, 4.1 at 2003), PHI_SCREEN_SUM_COST per residue to sum the
# columns (0.4-1.0 at p >= 100003; 1.0-2.3 at 2003, where the call's fixed
# cost shows) and PHI_SCREEN_PER_CALL for the call's fixed cost, fitted on
# phi over every subgroup of the primes in windows from [300, 400] to
# [100000, 100100], taken in sweep order: at 8192 each window's phi time was
# within 4% of the better of never and always screening (2048: 21% above
# never at [500, 700]; 16384: 15% above always at [4000, 4100]).
PHI_ROOT_COST = 8
PHI_PHASE_COST = 3
PHI_ROW_COST = 12
PHI_SCREEN_BUILD_COST = 2
PHI_SCREEN_SUM_COST = 1
PHI_SCREEN_PER_CALL = 8192
_GATHER_BLOCK = 1 << 18


def _conv_cost(p: int) -> int:
    return CONV_COST_PER_CALL + CONV_COST_PER_N * (1 << (2 * p - 2).bit_length())


def _rotations(x_bits: np.ndarray) -> np.ndarray:
    """The (p + 1, p) view whose row k is doubled[k : k + p] of the doubled
    indicator, so row p - y is X + y: rows[p - y][z] = x_bits[z - y]."""
    p = len(x_bits)
    doubled = np.concatenate((x_bits, x_bits))
    s = doubled.itemsize
    return np.ndarray((p + 1, p), doubled.dtype, buffer=doubled, strides=(s, s))


def gather_counts(x_bits: np.ndarray, y: np.ndarray, points=None, out=None) -> np.ndarray:
    """#{y in Y : z - y in X} at each z in points (default: every z in Z_p):
    int64, or > 0 into a bool out.

    X is given by its indicator and Y by its members, residues in [0, p).
    Over Z_p the counts are the sum of the rotations of X by each y, copied
    as rows of the doubled indicator, _GATHER_BLOCK // p at a time.  At
    points they are read there, in row blocks of at most _GATHER_BLOCK
    elements (or one |Y|), and returned in the order of points.
    """
    if points is None:
        p = len(x_bits)
        if out is None:
            out = np.empty(p, dtype=np.int64)
        rows = _rotations(x_bits)
        step = max(1, _GATHER_BLOCK // p)
        np.add.reduce(rows[p - y[:step]], axis=0, dtype=out.dtype, out=out)
        for i in range(step, len(y), step):
            out += np.add.reduce(rows[p - y[i : i + step]], axis=0, dtype=out.dtype)
        return out
    if out is None:
        out = np.empty(len(points), dtype=np.int64)
    step = max(1, _GATHER_BLOCK // max(1, len(y)))
    for i in range(0, len(points), step):
        # z - y lies in (-p, p); a negative index wraps
        np.add.reduce(x_bits[points[i : i + step, None] - y], axis=1, dtype=out.dtype, out=out[i : i + step])
    return out


def pair_counts(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """#{(x, y) in X x Y : x + y = z} for every z in Z_p, exact int64.

    X and Y are given by their members, residues in [0, p).  The pair sums
    are reduced mod p and bincounted in row blocks of at most
    max(_GATHER_BLOCK, p) sums (or one |Y|), so each length-p bincount serves
    at least p pairs.
    """
    step = max(1, max(_GATHER_BLOCK, p) // max(1, len(y)))

    def block(i: int) -> np.ndarray:
        sums = x[i : i + step, None] + y
        sums %= p
        return np.bincount(sums.ravel(), minlength=p)

    counts = block(0)  # the one allocation over Z_p; most calls have one block
    for i in range(step, len(x), step):
        counts += block(i)
    return counts


class PointCounts(NamedTuple):
    """Exact counts at given points, in their order, and the counts over Z_p
    when the tier that made them counted all of it (else None)."""

    at: np.ndarray
    full: np.ndarray | None

    def over_zp(self, A) -> np.ndarray:
        """The counts over Z_p: those the tier made, else the values at
        A.points spread by A (numtheory.Subgroup.spread)."""
        return A.spread(self.at) if self.full is None else self.full


def exact_counts(x_bits: np.ndarray, y: np.ndarray, points=None, out=None):
    """(X * Y)(z) = #{y in Y : z - y in X} for every z in Z_p, exact int64.

    X is given by its indicator and Y by its distinct members, residues in
    [0, p).  The tiers are priced in the cost model's units, as exact_supports
    prices its rows too: pair_counts at SCATTER_COST |X| |Y|, gather_counts
    at |Y| per point read and one exact convolution at _conv_cost(p); the
    pairs run only when strictly cheapest, the gather when no dearer than
    the convolution.
    Given points (such as a subgroup's quotient points, numtheory.Subgroup),
    the gather reads only there, and the result is a PointCounts, so that a
    caller may keep the counts over Z_p that the pairs or the convolution made.
    A bool out receives count > 0 over Z_p and rules out the pairs, whose
    int64 counts span Z_p; points and out together raise ValueError.
    """
    if points is not None and out is not None:
        raise ValueError("exact_counts takes points or a bool out, not both")
    p = len(x_bits)
    gather, conv = len(y) * (p if points is None else len(points)), _conv_cost(p)
    if out is None and SCATTER_COST * int(np.count_nonzero(x_bits)) * len(y) < min(gather, conv):
        counts = pair_counts(np.flatnonzero(x_bits), y, p)
    elif gather > conv:
        y_bits = np.zeros(p, dtype=bool)
        y_bits[y] = True
        counts = cyclic_convolution_exact(x_bits, y_bits, p)
        if out is not None:
            return np.greater(counts, 0, out=out)
    elif points is None:
        return gather_counts(x_bits, y, out=out)
    else:
        return PointCounts(gather_counts(x_bits, y, points), None)
    return counts if points is None else PointCounts(counts[points], counts)


def exact_supports(x_bits: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row k of the (k, p) bool result is (X * Y_k) > 0, the sumset X + Y_k.

    X is given by its indicator and each Y_k by row k of a bool matrix.  A
    row with |X| + |Y_k| > p is all of Z_p (pigeonhole).  The others are
    priced as in exact_counts: the rows it would gather share one rotation
    view of X and are OR-reduced over their rows of it, in steps of whole
    rows that read at most _GATHER_BLOCK elements (or one row's |Y_k| p);
    each row priced above the convolution is one exact_counts call.
    """
    k, p = rows.shape
    if len(x_bits) != p:
        raise ValueError("rows must have the length of x_bits")
    out = np.zeros((k, p), dtype=bool)
    sizes = np.count_nonzero(rows, axis=1)
    full = sizes + np.count_nonzero(x_bits) > p
    out[full] = True
    live = (sizes > 0) & ~full
    gather, conv = sizes * p, _conv_cost(p)
    for j in np.flatnonzero(live & (gather > conv)).tolist():
        exact_counts(x_bits, np.flatnonzero(rows[j]), out=out[j])
    g = np.flatnonzero(live & (gather <= conv))
    rot = _rotations(x_bits)
    read = np.cumsum(gather[g])  # elements gathered through each row
    i = 0
    while i < g.size:
        start = read[i - 1] if i else 0
        j = max(i + 1, int(np.searchsorted(read, start + _GATHER_BLOCK, side="right")))
        step = g[i:j]
        n = sizes[step]
        y = np.nonzero(rows[step])[1]  # members, row after row
        out[step] = np.logical_or.reduceat(rot[p - y], np.cumsum(n) - n, axis=0)
        i = j
    return out


def zp_counts(x_bits: np.ndarray, y: np.ndarray, A=None) -> np.ndarray:
    """exact_counts over Z_p.  Two sets that carry the subgroup A (zpsets)
    are counted at A.points and spread by A.spread, unless the tier counted
    all of Z_p itself."""
    if A is None:
        return exact_counts(x_bits, y)
    return exact_counts(x_bits, y, A.points).over_zp(A)


def convolve_counts(X: ZpSet, Y: ZpSet) -> np.ndarray:
    """Counts of pair representations z = x + y with x in X, y in Y (read-only).

    Counted at the quotient points of the subgroup both sets carry, if they
    carry one (zp_counts).
    """
    if X.p != Y.p:
        raise ValueError(f"modulus mismatch: {X.p} vs {Y.p}")
    counts = zp_counts(X.bits, Y.members(), X._sym_with(Y))
    counts.flags.writeable = False
    return counts


# ---------------------------------------------------------------------------
# complex spectra


@dataclass(frozen=True)
class Spectrum:
    """|sum_{x in S} e_p(lambda x)| for every frequency lambda.

    phi is the maximum over nonzero lambda; argmax is the first lambda
    attaining it.  mags[0] equals |S| exactly by definition of the DC term.
    """

    p: int
    mags: np.ndarray
    phi: float
    argmax: int

    def __post_init__(self) -> None:
        self.mags.flags.writeable = False


def dft_magnitudes(S: ZpSet) -> Spectrum:
    """Full spectrum of the indicator of S, exponential-sum maximum included."""
    mags = np.abs(np.fft.fft(S.bits.astype(np.float64)))
    mags[0] = float(S.card)  # DC term is the cardinality, exactly
    if S.p == 1 or S.card == 0:
        return Spectrum(p=S.p, mags=mags, phi=0.0, argmax=0)
    lam = int(np.argmax(mags[1:])) + 1
    return Spectrum(p=S.p, mags=mags, phi=float(mags[lam]), argmax=lam)


_PHASE_BLOCK = 1 << 12  # phases (or table entries) per block in phi_subgroup


class _LastPrime:
    """A per-prime table, kept for the last prime asked for only.

    A sweep takes the primes in ascending order, so one table serves all the
    d of a prime and none outlives the next prime.  The old table is let go
    before the new one is built.
    """

    def __init__(self, build) -> None:
        self.build = build
        self.__doc__ = build.__doc__
        self.slot: tuple = (None, None)

    def __call__(self, p: int) -> np.ndarray:
        q, table = self.slot
        if q != p:
            self.slot = (None, None)
            table = self.build(p)
            table.flags.writeable = False
            self.slot = (p, table)
        return table

    def holds(self, p: int) -> bool:
        return self.slot[0] == p

    def cache_clear(self) -> None:
        self.slot = (None, None)


def _exp_phases(z: np.ndarray, p: int) -> np.ndarray:
    """e_p(t) = exp(2 pi i t / p) in place, for a complex128 array of phases t.

    Every exact unit root (the table, a direct evaluation at some phases,
    the screen's two short tables) comes from these ufuncs on these values,
    so a root has the same bits on every route.
    """
    z *= 2j * np.pi
    z /= p
    return np.exp(z, out=z)


@_LastPrime
def _unit_roots(p: int) -> np.ndarray:
    """e_p(t) for t in Z_p, built in place: 16 bytes per residue."""
    return _exp_phases(np.arange(p, dtype=np.complex128), p)


@_LastPrime
def _screen_roots(p: int) -> np.ndarray:
    """e_p(P[t]) in complex64, P = power_table(p): 8 bytes per residue.

    Column j of its reshape(d, m) is the coset g^j A, as in Subgroup.layout.
    Each entry is e_p(aB) e_p(b) for P[t] = aB + b, B = 2^s >= sqrt(p), from
    two exact tables about sqrt(p) long; the complex128 products are rounded
    into the table _PHASE_BLOCK entries at a time.
    """
    P = power_table(p)
    s = (p.bit_length() + 1) // 2
    high = _exp_phases(np.arange(0, p, 1 << s, dtype=np.complex128), p)
    low = _exp_phases(np.arange(1 << s, dtype=np.complex128), p)
    out = np.empty(p - 1, dtype=np.complex64)
    for i in range(0, p - 1, _PHASE_BLOCK):
        z = P[i : i + _PHASE_BLOCK]
        block = high[z >> s]
        block *= low[z & ((1 << s) - 1)]
        out[i : i + _PHASE_BLOCK] = block
    return out


def _screen_error(d: int) -> float:
    """delta(d): bounds |screened - exact| for a coset magnitude (phi_subgroup)."""
    return d * 2.0**-20 + d * (d + 64) * 2.0**-50


def _screened_mags(p: int, d: int) -> np.ndarray:
    """|sum of column j of the screen table| for each coset j, summed in
    float64: by numpy's reduction down rows at least as wide as they are
    many, else along the rows of transposed blocks (a reduction down rows
    of a few columns pays numpy's per-row cost d times)."""
    m = (p - 1) // d
    rows = _screen_roots(p).view(np.float32).reshape(d, 2 * m)
    if m >= d:
        sums = rows.sum(axis=0, dtype=np.float64)
    else:
        sums = np.zeros(2 * m)
        step = max(1, _PHASE_BLOCK // m)
        for i in range(0, d, step):
            sums += np.ascontiguousarray(rows[i : i + step].T, dtype=np.float64).sum(axis=1)
    return np.abs(sums.view(np.complex128))


def _candidates(A) -> np.ndarray:
    """The reps, ascending, of the cosets whose screened magnitude is at
    least its maximum less 2 delta(d): each coset where phi can be."""
    mags = _screened_mags(A.p, A.d)
    cols = np.flatnonzero(mags >= mags.max() - 2 * _screen_error(A.d))
    return np.sort(A.layout[:, cols].min(axis=0))


def _screen_pays(p: int, d: int) -> bool:
    """Whether the screen and an exact pass over two cosets (one and its
    conjugate) are priced below the exact pass over all m, given which
    tables are built (cost model above).  Never at d = 1: there every coset
    sum has modulus 1, so every coset would be a candidate."""
    if d == 1:
        return False
    m = (p - 1) // d
    per_row = PHI_ROW_COST + d * (PHI_PHASE_COST + (0 if _unit_roots.holds(p) else PHI_ROOT_COST))
    build = 0 if _screen_roots.holds(p) else PHI_SCREEN_BUILD_COST * p
    return PHI_SCREEN_PER_CALL + PHI_SCREEN_SUM_COST * p + build + 2 * per_row < m * per_row


def _exact_max(A, reps: np.ndarray) -> tuple[float, int]:
    """The largest |sum_{y in A} e_p(r y)| over reps (ascending) and its r,
    the first on a tie.  The phases r y mod p are taken _PHASE_BLOCK (or one
    row of d) at a time; their roots are read from the table when it is the
    current prime's or the reps cover Z_p*, else evaluated directly.  Each
    row is summed whole, so the bits depend on neither the block nor the
    source of the roots."""
    p, el = A.p, A.elements
    table = _unit_roots.holds(p) or len(reps) * len(el) == p - 1
    roots = _unit_roots(p) if table else None
    mags = np.empty(len(reps))
    step = max(1, _PHASE_BLOCK // len(el))
    for i in range(0, len(reps), step):
        phases = reps[i : i + step, None] * el
        phases %= p
        z = roots[phases] if table else _exp_phases(phases.astype(np.complex128), p)
        np.abs(z.sum(axis=1), out=mags[i : i + step])
    i = int(np.argmax(mags))
    return float(mags[i]), int(reps[i])


def phi_subgroup(A) -> tuple[float, int]:
    """max over lambda != 0 of |sum_{y in A} e_p(lambda y)|, and the coset
    rep where it is reached (the least, on a tie).

    The sum depends only on the coset of lambda, so p - 1 frequencies
    collapse to m = (p - 1)/d coset sums, each evaluated exactly at the
    coset's least element.  Where _screen_pays, a cheap screen first
    approximates every coset's magnitude S_j from _screen_roots, and only
    the cosets with S_j >= max S - 2 delta(d) (_candidates) are evaluated
    exactly; the result is the same bits as the exact pass over every coset.

    delta(d) = d 2^-20 + d (d + 64) 2^-50 bounds |S_j - E_j|, E_j the exact
    pass's value, with u = 2^-53 and V_j the true magnitude:
    - An exact root is within 25u of e_p(t): the phase 2 pi t/p is off by
      at most 3u of 2 pi (three roundings), and np.exp is taken to return
      cos and sin within 4 ulp each (as Percival's bound takes pocketfft's
      twiddles to be accurate).  A sum of d complex terms in any order is
      off by at most sqrt(2) gamma_{d-1} times the sum of their moduli,
      gamma_{d-1} <= 1.01 (d - 1) u, and abs (hypot) by 2u relative.  So
      |E_j - V_j| <= 32du + 1.43 d^2 u + 2.03du.
    - A screen entry is the complex128 product of two such roots (within
      67u of the true root), rounded to complex64 (2^-24 relative per
      part), so within 2^-23 of e_p(P[t]).  The d entries of a column are
      summed in float64 in any order and abs is taken, so |S_j - V_j| <=
      d 2^-23 + 1.45 d^2 u + 2.03du.
    - Together |S_j - E_j| <= d 2^-23 + 2.9 d^2 u + 37du < delta(d)/2.7;
      the slack covers the rounding of max S - 2 delta (at most ud).
    Then for any exact maximum j* and every k, S_j* >= E_j* - delta >=
    E_k - delta >= S_k - 2 delta, so every coset where the exact maximum is
    reached is a candidate, and the exact pass, run over the candidates in
    ascending rep order, returns the same largest value and least rep as one
    over all m.  Over every subgroup with p < 2000 and at p = 95287, 100003
    and 1000003, the largest |S_j - E_j| seen was 0.036 delta(d).
    """
    reps = _candidates(A) if _screen_pays(A.p, A.d) else A.reps
    return _exact_max(A, reps)
