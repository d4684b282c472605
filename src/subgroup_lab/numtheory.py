"""Primes, factorization, primitive roots, and multiplicative subgroups of Z_p*.

Everything here is exact integer arithmetic.  The primality test is
deterministic for all inputs below 2^64, so "prime" never means "probably
prime" anywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Largest modulus the dense representations downstream are sized for: a
# mid-range record below 2^25 peaks at 3.3 GB, and one below 2^26 ran out of
# a 6 GB address space in its FFT (README, "Memory envelope").
MODULUS_LIMIT = 1 << 25

# Witness set proven sufficient for deterministic Miller-Rabin below 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_LIMIT = 1_000_000

# Entries of a coset index read per step when Subgroup.spread gathers at
# part of Z_p: 128 KB of intp, so the result is the one array over Z_p.
_SPREAD_BLOCK = 1 << 14


class cached_property:
    """functools.cached_property as Python 3.12 has it: no lock.

    Python 3.11's takes an RLock on every first read, about 0.8 us each, and
    a sweep record makes some 17.  Each sweep task builds its own objects, and
    a race could only compute one value twice, with the same result.  The value
    goes into the instance's __dict__, which later reads find before this
    non-data descriptor; a call that raises stores nothing.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.attrname = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        val = self.func(instance)
        instance.__dict__[self.attrname] = val
        return val


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all n < 2^64."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """Return a nontrivial factor of composite, odd, non-prime-power-free n.

    Brent's cycle variant of Pollard rho.  The polynomial increment is swept
    deterministically so repeated runs factor the same way.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to factor {n}")


def factorize(n: int) -> list[int]:
    """Prime factorization of n >= 1 with multiplicity, sorted ascending."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    out: list[int] = []
    for q in (2, 3, 5):
        while n % q == 0:
            out.append(q)
            n //= q
    f = 7
    # wheel over residues coprime to 30
    steps = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < _TRIAL_LIMIT:
        while n % f == 0:
            out.append(f)
            n //= f
        f += steps[i]
        i = (i + 1) % 8
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if is_prime(m):
                out.append(m)
                continue
            g = _brent_rho(m)
            stack.append(g)
            stack.append(m // g)
    out.sort()
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted ascending."""
    divs = [1]
    fac = factorize(n)
    i = 0
    while i < len(fac):
        q = fac[i]
        e = 1
        while i + e < len(fac) and fac[i + e] == q:
            e += 1
        divs = [d * q**k for d in divs for k in range(e + 1)]
        i += e
    divs.sort()
    return divs


@lru_cache(maxsize=65536)
def validate_modulus(p: int) -> int:
    """Check that p is an odd prime in the supported range and return it."""
    p = int(p)
    if p < 3 or p > MODULUS_LIMIT:
        raise ValueError(f"modulus must be an odd prime in [3, {MODULUS_LIMIT}], got {p}")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


@lru_cache(maxsize=65536)
def primitive_root(p: int) -> int:
    """Smallest primitive root modulo the odd prime p."""
    p = validate_modulus(p)
    prime_factors = sorted(set(factorize(p - 1)))
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in prime_factors):
            return g
        g += 1


@dataclass(eq=False)
class Subgroup:
    """The unique multiplicative subgroup of Z_p* of order d.

    elements is sorted ascending; gen has multiplicative order exactly d.
    """

    p: int
    d: int
    gen: int
    elements: np.ndarray

    def __post_init__(self) -> None:
        self.elements.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        # one subgroup per (p, d), so the pair is the identity
        return isinstance(other, Subgroup) and (self.p, self.d) == (other.p, other.d)

    def __hash__(self) -> int:
        return hash((self.p, self.d))

    def __repr__(self) -> str:
        return f"Subgroup(p={self.p}, d={self.d})"

    @cached_property
    def indicator(self):
        """A as a ZpSet (carrying no subgroup); its bits are set directly,
        since elements are residues this module built."""
        from .zpsets import ZpSet

        bits = np.zeros(self.p, dtype=bool)
        bits[self.elements] = True
        return ZpSet._wrap(self.p, bits)

    @property
    def layout(self) -> np.ndarray:
        """The coset quotient: power_table(p).reshape(d, m), a read-only view.

        Column j is the coset g^j A, so row 0 holds one point of each coset.
        Rebuilt on each access (O(1)), so a Subgroup never pins a power table
        that power_table's cache has let go.
        """
        return power_table(self.p).reshape(self.d, -1)

    @cached_property
    def reps(self) -> np.ndarray:
        """The least element of each coset, ascending (coset_reps)."""
        return coset_reps(self)

    @cached_property
    def points(self) -> np.ndarray:
        """The quotient points: 0, then layout[0], one point g^j of each coset.

        A count that is constant on the cosets is held as its m + 1 values
        here, m = (p - 1)/d; spread puts them back on Z_p.
        """
        pts = np.concatenate(([0], power_table(self.p)[: (self.p - 1) // self.d]))
        pts.flags.writeable = False
        return pts

    @cached_property
    def coset_index(self) -> np.ndarray:
        """c[z] = i where points[i] lies in the coset of z (c[0] = 0), intp.

        Built by one scatter through the layout; each spread is then one gather.
        """
        c = np.empty(self.p, dtype=np.intp)
        c[0] = 0
        c[self.layout] = np.arange(1, (self.p - 1) // self.d + 1)
        c.flags.writeable = False
        return c

    def live_order(self, live: np.ndarray) -> np.ndarray | None:
        """The place among the live points of the point of each z whose
        point is live, in ascending z, for a bool live over the points; so
        vals[order] spreads vals, one value per live point, to those z.

        coset_index itself when every point is live.  When the z are few,
        n of them with n log2 n below p, they are sorted out of the live
        columns of the layout, with no array over Z_p and no coset_index.
        Otherwise None: the n-long order would be about as long as Z_p, and
        spread gathers through coset_index a block at a time instead.
        """
        if live.all():
            return self.coset_index
        cols = live[1:].nonzero()[0]
        zero = int(live[0])
        n = zero + self.d * len(cols)
        if n * n.bit_length() >= self.p:
            return None
        order = np.argsort(self.layout[:, cols], axis=None)
        order %= max(1, len(cols))  # the column's place among the live ones
        order += zero
        return np.concatenate(([0], order)) if zero else order

    def spread(self, vals: np.ndarray, live: np.ndarray | None = None) -> np.ndarray:
        """Values over Z_p from values at the points, in ascending z: the
        value of the point of z's coset (of 0 at z = 0) at each z.

        vals holds one value per point, or, given a bool live over the
        points, one per live point, in their order; then only the z whose
        point is live are read, through live_order, or, when that is None,
        through coset_index a block at a time.
        """
        if live is None:
            return vals[self.coset_index]
        order = self.live_order(live)
        if order is not None:
            return vals[order]
        at_points = np.zeros(len(live), dtype=vals.dtype)
        at_points[live] = vals
        out = np.empty(int(live[0]) + self.d * int(np.count_nonzero(live[1:])), dtype=vals.dtype)
        k = 0
        for i in range(0, self.p, _SPREAD_BLOCK):
            block = self.coset_index[i : i + _SPREAD_BLOCK]
            block = block[live[block]]
            np.take(at_points, block, out=out[k : k + len(block)])
            k += len(block)
        return out


@lru_cache(maxsize=4)
def power_table(p: int) -> np.ndarray:
    """P[t] = g^t mod p for 0 <= t < p - 1, g the smallest primitive root.

    Built by doubling: each pass multiplies the filled prefix by g^len, so
    there are log2(p) vectorised passes.  Products stay below p^2 < 2^53.
    The order-d subgroup is P[::m] with m = (p - 1)/d, and column j of
    P.reshape(d, m) is its coset g^j * A, so one table serves every divisor.
    """
    p = validate_modulus(p)
    g = primitive_root(p)
    P = np.empty(p - 1, dtype=np.int64)
    P[0] = 1
    n = 1
    while n < p - 1:
        k = min(n, p - 1 - n)
        np.multiply(P[:k], pow(g, n, p), out=P[n : n + k])
        P[n : n + k] %= p
        n += k
    P.flags.writeable = False
    return P


def subgroup(p: int, d: int) -> Subgroup:
    """Construct the order-d subgroup of Z_p*.  Requires d | p - 1."""
    p = validate_modulus(p)
    if d < 1 or (p - 1) % d != 0:
        raise ValueError(f"order {d} does not divide p - 1 = {p - 1}")
    m = (p - 1) // d
    elements = np.sort(power_table(p)[::m])
    return Subgroup(p=p, d=d, gen=pow(primitive_root(p), m, p), elements=elements)


def coset_reps(A: Subgroup) -> np.ndarray:
    """The minimal residue of each coset of A in Z_p*, sorted and read-only.

    The cosets are the columns of A.layout, so the representatives are its
    column minima: O(p) vectorised work.
    """
    reps = np.sort(A.layout.min(axis=0))
    reps.flags.writeable = False
    return reps
