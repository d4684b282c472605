"""Dense subsets of Z_p with additive and multiplicative set arithmetic.

A ZpSet is an immutable boolean indicator vector of length p.  ZpSet(p, bits)
validates p, the length and that every entry is 0 or 1, and copies bits; the
sets this package builds from arrays it has just made are wrapped read-only
without a copy.  A sumset is all of Z_p when |X| + |Y| > p (pigeonhole), else
the support of the counts of spectral.exact_counts, which picks the route.

A set may carry its subgroup, sym: a Subgroup A whose dilations fix the set's
nonzero part.  Only the package sets it, where the invariance holds by
construction: invariant_set, threshold_invariant_set, A and 2A in
energetics.SubgroupContext, and a sumset of two sets that carry the same A
(a dilate of X + Y by u in A is uX + uY).  Counts of such sets are constant
on the cosets of A, so sumset, shift_sizes and convolve_counts count them
only at A.points, 0 and one point per coset (ZpSet._sym_with decides), and
spread the m + 1 values to Z_p by A.spread, one gather, unless the pair or
convolution tier counted all of Z_p anyway.  Every other set, A.indicator
and the public constructor's included, carries None.
"""

from __future__ import annotations

import math

import numpy as np

from .numtheory import Subgroup, validate_modulus
from .spectral import all_integral, exact_counts


class ZpSet:
    """Immutable subset of Z_p backed by a dense boolean vector."""

    __slots__ = ("p", "bits", "card", "sym")

    def __init__(self, p: int, bits: np.ndarray):
        self.p = validate_modulus(p)
        arr = np.asarray(bits)
        if arr.shape != (self.p,):
            raise ValueError(f"indicator must have length p={self.p}")
        if arr.dtype != bool and not ((arr == 0) | (arr == 1)).all():
            raise ValueError("indicator entries must be 0 or 1")
        arr = arr.astype(bool)  # a copy
        arr.flags.writeable = False
        self.bits = arr
        self.card = int(np.count_nonzero(arr))
        self.sym = None

    @classmethod
    def _wrap(cls, p: int, bits: np.ndarray, sym: Subgroup | None = None) -> "ZpSet":
        """The set over bits, a bool array of length p that nothing else writes.

        For arrays the package has just built: no copy and no checks, unlike
        the public constructor, which guards the input boundary.  sym must be
        a subgroup whose dilations fix the set's nonzero part (module docstring).
        """
        s = object.__new__(cls)
        bits.flags.writeable = False
        s.p, s.bits, s.card, s.sym = p, bits, int(np.count_nonzero(bits)), sym
        return s

    def _sym_with(self, other: "ZpSet | None" = None) -> Subgroup | None:
        """The subgroup A if this set and other (default: this set) carry it, else None.

        The one rule for when a count may be read at the quotient points of
        A: sumset, shift_sizes and convolve_counts count at A.points when it
        returns A.
        """
        A = self.sym
        if A is None or (other is not None and other.sym != A):
            return None
        return A

    @classmethod
    def from_elements(cls, p: int, elements) -> "ZpSet":
        p = validate_modulus(p)
        bits = np.zeros(p, dtype=bool)
        bits[_residues(elements, p)] = True
        return cls._wrap(p, bits)

    @classmethod
    def empty(cls, p: int) -> "ZpSet":
        return cls._wrap(p, np.zeros(validate_modulus(p), dtype=bool))

    @classmethod
    def full(cls, p: int) -> "ZpSet":
        return cls._wrap(p, np.ones(validate_modulus(p), dtype=bool))

    def members(self) -> np.ndarray:
        """Elements in ascending order, int64."""
        return self.bits.nonzero()[0].astype(np.int64, copy=False)

    def covers_nonzero(self) -> bool:
        """True iff the set contains every nonzero residue."""
        return bool(self.bits[1:].all())

    def is_subset_of(self, other: "ZpSet") -> bool:
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        return not bool((self.bits & ~other.bits).any())

    def __contains__(self, x: int) -> bool:
        return bool(self.bits[x % self.p])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZpSet):
            return NotImplemented
        return self.p == other.p and bool((self.bits == other.bits).all())

    def __hash__(self) -> int:
        return hash((self.p, self.bits.tobytes()))

    def __len__(self) -> int:
        return self.card

    def __repr__(self) -> str:
        return f"ZpSet(p={self.p}, card={self.card})"

    def to_text(self) -> str:
        """Serialize as 'p:{e1,e2,...}' with ascending elements."""
        inner = ",".join(str(int(e)) for e in self.members())
        return f"{self.p}:{{{inner}}}"

    @classmethod
    def from_text(cls, text: str) -> "ZpSet":
        head, _, body = text.partition(":")
        body = body.strip()
        if not body.startswith("{") or not body.endswith("}"):
            raise ValueError(f"malformed set literal: {text!r}")
        inner = body[1:-1].strip()
        elems = [int(tok) for tok in inner.split(",")] if inner else []
        return cls.from_elements(int(head), elems)


def _residues(values, p: int) -> np.ndarray:
    """The values mod p as int64; a non-integral or non-finite entry raises."""
    a = np.asarray(values if isinstance(values, np.ndarray) else list(values))
    if a.size and not all_integral(a):
        raise ValueError("set elements must be finite integers")
    return (a % p).astype(np.int64, copy=False)


def _require_same_modulus(X: ZpSet, Y: ZpSet) -> int:
    if X.p != Y.p:
        raise ValueError(f"modulus mismatch: {X.p} vs {Y.p}")
    return X.p


def _rolled(bits: np.ndarray, z: int) -> np.ndarray:
    """np.roll(bits, z) as one concatenation of two slices, a fifth of its cost."""
    k = bits.size - z % bits.size
    return np.concatenate((bits[k:], bits[:k]))


def translate(C: ZpSet, z: int) -> ZpSet:
    """The shifted set C + z."""
    return ZpSet._wrap(C.p, _rolled(C.bits, z))


def sumset(X: ZpSet, Y: ZpSet) -> ZpSet:
    """X + Y = {x + y mod p}, exact on every route (module docstring).

    Counted at the quotient points of the subgroup both carry, and then
    carries it.
    """
    p = _require_same_modulus(X, Y)
    sym = X._sym_with(Y)
    small, big = (X, Y) if X.card <= Y.card else (Y, X)
    if small.card == 0:
        return ZpSet._wrap(p, np.zeros(p, dtype=bool), sym)
    if small.card + big.card > p:  # X meets z - Y for every z
        return ZpSet._wrap(p, np.ones(p, dtype=bool), sym)
    if sym is None:
        support = exact_counts(big.bits, small.members(), out=np.empty(p, dtype=bool))
    else:
        at, full = exact_counts(big.bits, small.members(), sym.points)
        support = sym.spread(at > 0) if full is None else full > 0
    return ZpSet._wrap(p, support, sym)


def fold_sumset(A: ZpSet, k: int) -> ZpSet:
    """The k-fold sumset kA = A + ... + A, computed by iterated sumset."""
    if k < 1:
        raise ValueError(f"fold count must be >= 1, got {k}")
    out = A
    for _ in range(k - 1):
        out = sumset(out, A)
    return out


def multiset_count(k: int, n: int) -> int:
    """C(k + n - 1, k), the number of k-multisets from n elements: |kS| <= it for |S| = n."""
    return math.comb(k + n - 1, k)


def first_cover(folds: list, kmax: int):
    """Smallest k <= kmax with kS containing all of Z_p*, or None.

    folds holds the folds built so far, [1S, ..., jS] with j >= 1; the rest
    are built as kS = (k - 1)S + S.  No fold below the first k whose
    multiset_count reaches p - 1 is tested or built.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    S, k, folds = folds[0], 1, list(folds)
    if S.card <= 1:  # |kS| <= 1 < p - 1
        return None
    while k <= kmax and multiset_count(k, S.card) < S.p - 1:
        k += 1
    for k in range(k, kmax + 1):
        while len(folds) < k:
            folds.append(sumset(folds[-1], S))
        if folds[k - 1].covers_nonzero():
            return k
    return None


def shift_intersect(C: ZpSet, z: int) -> ZpSet:
    """C intersected with its translate, C ∩ (C + z)."""
    return ZpSet._wrap(C.p, C.bits & _rolled(C.bits, z))


def dilate(X: ZpSet, a: int) -> ZpSet:
    """The dilate a·X = {a x mod p}.  Requires a nonzero mod p."""
    a = a % X.p
    if a == 0:
        raise ValueError("dilation factor must be nonzero mod p")
    bits = np.zeros(X.p, dtype=bool)
    bits[(a * X.members()) % X.p] = True
    return ZpSet._wrap(X.p, bits)


def invariant_set(A: Subgroup, reps, includes_zero: bool = False) -> ZpSet:
    """The union of the cosets rep*A over reps, plus 0 if asked; it carries A.

    Reps must be nonzero and lie in pairwise distinct cosets.
    """
    reps = _residues(reps, A.p)
    if not reps.all():
        raise ValueError("coset representative must be nonzero")
    bits = np.zeros(A.p, dtype=bool)
    bits[(reps[:, None] * A.elements) % A.p] = True
    if int(np.count_nonzero(bits)) != A.d * len(reps):
        raise ValueError("representatives fall in overlapping cosets")
    bits[0] = includes_zero
    return ZpSet._wrap(A.p, bits, A)


def is_invariant(S: ZpSet, A: Subgroup) -> bool:
    """True iff S \\ {0} is fixed by dilation under A.

    Checking the generator suffices since it generates the whole subgroup.
    """
    if S.p != A.p:
        raise ValueError(f"modulus mismatch: {S.p} vs {A.p}")
    nz = S.bits.copy()
    nz[0] = False
    stripped = ZpSet._wrap(S.p, nz)
    if stripped.card == 0:
        return True
    return dilate(stripped, A.gen) == stripped
