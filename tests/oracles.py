"""Brute-force reference implementations used only by the tests.

Everything here is written in the most naive style available (python sets,
explicit loops, cmath) so the library's vectorized and transform-based code
is checked against arithmetic that cannot share its bugs.  The one numpy
routine, naive_dft_magnitudes, is a direct O(p |S|) sum, fast enough for the
primes past the cmath loops' reach.
"""

import cmath
import math

import numpy as np


def brute_sumset(xs, ys, p):
    return {(x + y) % p for x in xs for y in ys}


def brute_fold(xs, k, p):
    out = set(x % p for x in xs)
    for _ in range(k - 1):
        out = brute_sumset(out, xs, p)
    return out


def brute_translate(xs, z, p):
    return {(x + z) % p for x in xs}


def brute_dilate(xs, a, p):
    return {(a * x) % p for x in xs}


def brute_shift_intersect(xs, s, p):
    return set(xs) & brute_translate(xs, s, p)


def brute_convolution(xs, ys, p):
    counts = [0] * p
    for x in xs:
        for y in ys:
            counts[(x + y) % p] += 1
    return counts


def naive_cyclic_convolution(u, v, p):
    """(u * v)(z) = sum over x + y = z mod p of u[x] v[y], as Python ints."""
    ul, vl = [int(x) for x in u], [int(y) for y in v]
    out = [0] * p
    for x in range(p):
        for y in range(p):
            out[(x + y) % p] += ul[x] * vl[y]
    return out


def brute_energy(axs, bxs, p):
    """Quadruple loop: count a1 + b1 == a2 + b2 mod p."""
    n = 0
    for a1 in axs:
        for b1 in bxs:
            t = (a1 + b1) % p
            for a2 in axs:
                for b2 in bxs:
                    if (a2 + b2) % p == t:
                        n += 1
    return n


def brute_shift_profile(xs, p):
    return [len(brute_shift_intersect(xs, s, p)) for s in range(p)]


def brute_energy_moment(xs, r, p):
    total = 0.0
    for s in range(p):
        c = len(brute_shift_intersect(xs, s, p))
        if c > 0:
            total += c**r
    return total


def brute_phi(xs, p):
    """max over nonzero frequencies of |sum_x e^(2 pi i lam x / p)|."""
    best = 0.0
    for lam in range(1, p):
        z = sum(cmath.exp(2j * cmath.pi * lam * x / p) for x in xs)
        best = max(best, abs(z))
    return best


def brute_dft_mags(xs, p):
    out = []
    for lam in range(p):
        z = sum(cmath.exp(2j * cmath.pi * lam * x / p) for x in xs)
        out.append(abs(z))
    return out


def naive_dft_magnitudes(S) -> np.ndarray:
    """Direct O(p |S|) spectrum evaluation.  Test oracle only."""
    members = S.members()
    lam = np.arange(S.p, dtype=np.int64)
    phases = (lam[:, None] * members[None, :]) % S.p
    sums = np.exp(2j * np.pi * phases / S.p).sum(axis=1)
    return np.abs(sums)


def brute_covering_index(xs, p, kmax):
    nonzero = set(range(1, p))
    cur = set(x % p for x in xs)
    for k in range(1, kmax + 1):
        if nonzero <= cur:
            return k
        cur = brute_sumset(cur, xs, p)
    return None


def brute_ssc_ratio(xs, p):
    two = brute_sumset(xs, xs, p)
    total = 0.0
    for s in range(p):
        a_s = brute_shift_intersect(xs, s, p)
        if not a_s:
            continue
        denom = len(two & brute_translate(two, s, p))
        total += len(a_s) ** 2 / denom
    return total


def brute_sumset_ratio(xs, p):
    total = 0.0
    for s in range(p):
        a_s = brute_shift_intersect(xs, s, p)
        if not a_s:
            continue
        total += len(a_s) ** 2 / len(brute_sumset(xs, a_s, p))
    return total


def brute_count_N(two_a, aa, a, p):
    """Five-fold loop counting x1 + x2 + y1 + y2 = a*y3 with x in 2A, y in A."""
    n = 0
    targets = {(a * y3) % p: 0 for y3 in aa}
    for y3 in aa:
        targets[(a * y3) % p] += 1
    for x1 in two_a:
        for x2 in two_a:
            for y1 in aa:
                for y2 in aa:
                    n += targets.get((x1 + x2 + y1 + y2) % p, 0)
    return n


def brute_subgroup(p, d):
    """Order-d subgroup found by scanning element orders, no primitive root."""
    for h in range(1, p):
        x, order = h, 1
        while x != 1:
            x = (x * h) % p
            order += 1
        if order == d:
            els = set()
            x = 1
            for _ in range(d):
                els.add(x)
                x = (x * h) % p
            return sorted(els)
    raise AssertionError(f"no subgroup of order {d} mod {p}")


def is_prime_slow(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def ln(x):
    return math.log(x)


def brute_cosets(p, d):
    """The order-d subgroup as {x : x^d = 1} and the least residue of each of
    its cosets, by scanning Z_p* in order."""
    els = [x for x in range(1, p) if pow(x, d, p) == 1]
    covered = [False] * p
    reps = []
    for z in range(1, p):
        if not covered[z]:
            reps.append(z)
            for a in els:
                covered[z * a % p] = True
    return els, reps
