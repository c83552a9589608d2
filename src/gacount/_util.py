"""Shared exact-arithmetic primitives and tiny classical sieves.

Nothing in here knows about the variety catalog.  These are the helpers that
silently corrupt counts when done in floating point, so they are kept in one
place and unit-tested: rational coercion, p-adic valuations, integer roots of
rational bounds, exact comparison of monomials in integer heights against a
rational bound, the one primality test and the one factorizer of the
package, Moebius/Euler-phi/prime sieves and the Mertens table.

Moebius and Euler phi values come from NumPy segment sieves,
mu_segment(a, b) and phi_segment(a, b) for a <= k < b: slices over the
primes up to sqrt(b - 1), and the one prime factor above sqrt(b - 1) that k
can have, read off a quotient array (mu: int8 values and an int32 quotient,
5 bytes per k).  mu_sieve and phi_sieve are their list forms from 0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import isqrt, lcm

import numpy as np


class CapabilityError(RuntimeError):
    """An operation outside the implemented scope (maps to CLI exit code 3)."""


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions and floats to an exact Fraction.

    Floats convert to their exact binary value, so integral literals like
    1e6 coerce to exactly 1000000.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def factorize(n: int) -> dict[int, int]:
    """{p: v_p(n)} over the primes dividing a nonzero integer, ascending, by
    trial division."""
    if n == 0:
        raise ValueError("zero has no finite factorization")
    n = abs(n)
    out = {}
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out[d] = k
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing a nonzero integer, ascending."""
    return tuple(factorize(n))


def is_prime(n: int) -> bool:
    """Primality by trial division, adequate for the prime sizes used here."""
    return n >= 2 and factorize(n) == {n: 1}


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if x == 0:
        raise ValueError("valuation of zero is infinite")
    return vp(x.numerator, p) - vp(x.denominator, p)


def floor_frac_root(bound: Fraction, exponent: int) -> int:
    """Largest integer M >= 0 with M**exponent <= bound, by binary search.

    Args:
        bound: nonnegative rational.
        exponent: positive integer.
    """
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound < 1:
        return 0
    num, den = bound.numerator, bound.denominator
    if exponent == 1:
        return num // den
    hi = 1 << (num.bit_length() // exponent + 2)
    lo = 1
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**exponent * den <= num:
            lo = mid
        else:
            hi = mid
    return lo


def height_leq(heights, exponents, bound: Fraction) -> bool:
    """Exact test prod_j heights[j]**exponents[j] <= bound.

    heights are positive integers, exponents arbitrary rationals (negative
    allowed), bound a positive rational.  Both sides are raised to the lcm of
    the exponent denominators, so the comparison is a big-integer inequality
    whose size does not depend on the denominator of the bound.
    """
    exps = [as_fraction(e) for e in exponents]
    scale = lcm(*(e.denominator for e in exps), 1)
    lhs = 1
    rhs = bound.numerator ** scale
    lhs_den = bound.denominator ** scale
    for h, e in zip(heights, exps):
        k = int(e * scale)
        if k >= 0:
            lhs *= h**k
        else:
            rhs *= h ** (-k)
    return lhs * lhs_den <= rhs


def primes_upto(n: int) -> list[int]:
    """All primes <= n by an Eratosthenes byte sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(2, n + 1) if sieve[i]]


def mu_segment(a: int, b: int) -> np.ndarray:
    """Moebius values mu(a..b-1) as an int8 array (1 <= a <= b).

    Every prime p <= sqrt(b - 1) flips the sign of its multiples, zeroes the
    multiples of p^2 and is divided out once from the quotient array q(k) = k.
    A squarefree k < b has at most one prime factor above sqrt(b - 1), and
    then q(k) is that prime, so q(k) > 1 flips the sign once more; a
    non-squarefree k is already 0.
    """
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    mu = np.ones(b - a, dtype=np.int8)
    quotient = np.arange(a, b, dtype=np.int32 if b <= 2**31 else np.int64)
    for p in primes_upto(isqrt(b - 1)):
        mu[-a % p :: p] *= -1
        quotient[-a % p :: p] //= p
        mu[-a % (p * p) :: p * p] = 0
    np.negative(mu, out=mu, where=quotient > 1)
    return mu


def mu_sieve(n: int) -> list[int]:
    """Moebius function values mu(0..n) (mu(0) set to 0)."""
    return [0, *mu_segment(1, n + 1).tolist()]


def mertens_quotients(T: int) -> dict[int, int]:
    """{v: M(v)} for every v in {T//k : k >= 1} and v = 0, where
    M(v) = sum_{d <= v} mu(d) is the Mertens function.

    The v <= L = max(isqrt(T), T^{2/3}) are running sums of mu_sieve(L).  The
    larger v = T//k, k <= K = T//(L+1), follow in ascending order from
    sum_{j <= v} M(v//j) = 1 (each m <= v is counted by sum_{e | m} mu(e)):
    with r = isqrt(v), M(v) = 1 - sum_{2 <= j <= v//(r+1)} M(v//j)
    - sum_{q <= r} (v//q - v//(q+1)) M(q).  Every v//j = T//(kj) there
    is a quotient of T, read from the table (kj <= K) or the sieve, and each
    q <= r <= L from the sieve.  Cost: under 2 sqrt(v) terms per v, so
    sum_{k <= K} 2 sqrt(T/k) <= 4 sqrt(T K) <= 4 T/sqrt(L) over the large v,
    plus O(L) for the sieve; L = T^{2/3} makes both O(T^{2/3}), in O(L) memory
    (Deleglise & Rivat, "Computing the summation of the Moebius function").
    """
    L = max(isqrt(T), round(T ** (2 / 3)))
    small = list(accumulate(mu_sieve(L)))
    K = T // (L + 1)
    big = [0] * (K + 1)  # big[k] = M(T//k)
    for k in range(K, 0, -1):
        v = T // k
        r = isqrt(v)
        total = 1 - sum((v // q - v // (q + 1)) * small[q] for q in range(1, r + 1))
        for j in range(2, v // (r + 1) + 1):
            total -= big[k * j] if k * j <= K else small[v // j]
        big[k] = total
    # Every v <= isqrt(T) is a quotient, and T//k > isqrt(T) needs k <= isqrt(T).
    s = isqrt(T)
    return {v: big[T // v] if v > L else small[v]
            for v in [*range(s + 1), *(T // k for k in range(1, s + 1))]}


def phi_segment(a: int, b: int) -> np.ndarray:
    """Euler phi values phi(a..b-1) as an int64 array (1 <= a <= b).

    Every prime p <= sqrt(b - 1) takes phi(k) to phi(k) (1 - 1/p) on its
    multiples and is divided out of the quotient array q(k) = k with all its
    powers, which leaves q(k) = 1 or the one prime factor of k above
    sqrt(b - 1), which takes phi(k) to phi(k) (1 - 1/q(k)).
    """
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    phi = np.arange(a, b, dtype=np.int64)
    quotient = phi.copy()
    for p in primes_upto(isqrt(b - 1)):
        phi[-a % p :: p] -= phi[-a % p :: p] // p
        q = p
        while q < b:
            quotient[-a % q :: q] //= p
            q *= p
    phi -= np.where(quotient > 1, phi // quotient, 0)
    return phi


def phi_sieve(n: int) -> list[int]:
    """Euler phi values phi(0..n) (phi(0) set to 0)."""
    return [0, *phi_segment(1, n + 1).tolist()]
