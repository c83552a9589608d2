"""Shared exact-arithmetic primitives and tiny classical sieves.

Nothing in here knows about the variety catalog.  These are the helpers that
silently corrupt counts when done in floating point, so they are kept in one
place and unit-tested: rational coercion, p-adic valuations, integer roots of
rational bounds, exact comparison of monomials in integer heights against a
rational bound, and Moebius/Euler-phi/prime sieves.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


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


def is_prime(n: int) -> bool:
    """Primality by trial division, adequate for the prime sizes used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing a nonzero integer, ascending, by trial
    division."""
    if n == 0:
        raise ValueError("zero has no finite factorization")
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


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
    allowed), bound a positive rational.  Denominators are cleared so the
    comparison is a big-integer inequality.
    """
    exps = [as_fraction(e) for e in exponents]
    scale = lcm(*(e.denominator for e in exps), bound.denominator, 1)
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


def mu_sieve(n: int) -> list[int]:
    """Moebius function values mu(0..n) (mu(0) set to 0)."""
    mu = [1] * (n + 1)
    mu[0] = 0
    primes = primes_upto(n)
    for p in primes:
        for k in range(p, n + 1, p):
            mu[k] = -mu[k]
        sq = p * p
        for k in range(sq, n + 1, sq):
            mu[k] = 0
    return mu


def phi_sieve(n: int) -> list[int]:
    """Euler phi values phi(0..n) (phi(0) set to 0)."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # p prime
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi
