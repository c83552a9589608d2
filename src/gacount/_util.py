"""Shared exact-arithmetic primitives and tiny classical sieves.

Nothing in here knows about the variety catalog.  These are the helpers that
silently corrupt counts when done in floating point, so they are kept in one
place and unit-tested: rational coercion, p-adic valuations, integer roots of
rational bounds, exact comparison of monomials in integer heights against a
rational bound, the one primality test and the one factorizer of the
package, Moebius/Jordan-totient/prime sieves (one prime sieve, prime_sieve,
whose list of Python ints is primes_upto), the Mertens table, and the Riemann
zeta function on the reals above 1, correctly rounded.  refuse_past is the
one refusal of planned work past a limit, last_true the one bisection, and
ragged the one layout of rows of different lengths (the Mertens table,
BlP2-1's quotient blocks and BlP2-2's torsor rows).

Moebius and Jordan totient values come from NumPy segment sieves,
mu_segment(a, b) and jordan_segment(a, b, k) for a <= m < b: slices over
the primes p up to sqrt(b - 1), and the one prime factor above sqrt(b - 1)
that m can have, read off a product array of the small primes (mu: int8
values and an int32 product, 5 bytes per m) or a quotient array (J_k, with
p^k in place of p; J_1 is Euler's phi).  jordan_segment is the one totient
sieve of the package: it gives the P^n fiber weights and the coprime
counts of BlP2-1's and BlP2-2's plateaus (enumeration).
"""

from __future__ import annotations

import math
import numbers
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

import numpy as np


class CapabilityError(RuntimeError):
    """An operation outside the implemented scope (maps to CLI exit code 3)."""


def refuse_past(what: str, planned: int, limit: int, resource: str) -> None:
    """Raise CapabilityError "<what> passes the limit <limit> (<resource>)"
    when planned > limit, the limit shown as 2^k or 10^k where it is one; the
    planned number may pass Python's int-to-string limit and is never shown."""
    if planned > limit:
        k, text = limit.bit_length() - 1, str(limit)
        powers = {1 << k: f"2^{k}", 10 ** (len(text) - 1): f"10^{len(text) - 1}"}
        raise CapabilityError(f"{what} passes the limit {powers.get(limit, text)} ({resource})")


def last_true(ok, hi: int) -> int:
    """The largest q in [0, hi] with q = 0 or ok(q), for a test ok that holds
    on an initial run of q >= 1 and fails after it, by bisection."""
    lo = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if ok(mid) else (lo, mid - 1)
    return lo


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
    return last_true(lambda m: m**exponent * den <= num, 1 << (num.bit_length() // exponent + 2))


def height_test(exponents, bound: Fraction):
    """The exact test prod_j heights[j]**exponents[j] <= bound, prepared
    once per (exponents, bound) and returned as a function of the heights.

    heights are positive integers, exponents arbitrary rationals (negative
    allowed), bound a positive rational.  Both sides are raised to the lcm
    `scale` of the exponent denominators, which makes every exponent an
    integer k_j = exponents[j] * scale: the test is

        den^scale * prod_{k_j > 0} h_j^{k_j} <= num^scale * prod_{k_j < 0} h_j^{-k_j}

    for bound = num/den, a big-integer inequality whose size does not depend
    on the denominator of the bound.  scale, the k_j and both powers of the
    bound are computed here, so each call costs the integer powers alone.
    """
    exps = [as_fraction(e) for e in exponents]
    scale = lcm(*(e.denominator for e in exps), 1)
    ks = [int(e * scale) for e in exps]
    up = [max(k, 0) for k in ks]
    down = [max(-k, 0) for k in ks]
    lhs, rhs = bound.denominator**scale, bound.numerator**scale

    def leq(heights) -> bool:
        return lhs * math.prod(map(pow, heights, up)) <= rhs * math.prod(map(pow, heights, down))

    return leq


def prime_sieve(n: int) -> np.ndarray:
    """All primes <= n, ascending, as an array of NumPy's index type (int64
    on 64-bit platforms), by Eratosthenes over 0..n: a bytearray whose even
    numbers past 2, then the odd multiples of each odd prime p <= sqrt(n)
    from p^2, are struck by one slice assignment each from one buffer of
    zero bytes, read in place by NumPy's nonzero.  Memory: n + 1 bytes, and
    n//2 + 1 of zeros.  (Striking a NumPy bool array is as fast, but its
    first use in a process faults in 64 KB more of NumPy's library.)"""
    if n < 2:
        return np.zeros(0, dtype=np.intp)
    sieve = bytearray([1]) * (n + 1)
    zeros = memoryview(bytes(n // 2 + 1))
    sieve[:2] = zeros[:2]
    sieve[4::2] = zeros[: (n - 2) // 2]
    for p in range(3, isqrt(n) + 1, 2):
        if sieve[p]:
            sieve[p * p :: 2 * p] = zeros[: (n - p * p) // (2 * p) + 1]
    return np.frombuffer(sieve, dtype=bool).nonzero()[0]


def primes_upto(n: int) -> list[int]:
    """prime_sieve(n) as a list of Python ints (never NumPy integers, which
    would wrap silently in exact powers p ** e)."""
    return prime_sieve(n).tolist()


# mu_segment compares prod(k) with k, and ragged hands out its entries, in
# chunks of _CHUNK values.
_CHUNK = 2**14


def mu_segment(a: int, b: int) -> np.ndarray:
    """Moebius values mu(a..b-1) as an int8 array (1 <= a <= b).

    Every prime p <= sqrt(b - 1) flips the sign of its multiples, zeroes the
    multiples of p^2 and multiplies the product array prod(k) (from 1) by p.
    A squarefree k < b has at most one prime factor above sqrt(b - 1), and
    it has one exactly when prod(k) != k, which flips the sign once more; a
    non-squarefree k is already 0.  prod(k) divides k, so int32 holds it for
    b <= 2^31.
    """
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    mu = np.ones(b - a, dtype=np.int8)
    prod = np.ones(b - a, dtype=np.int32 if b <= 2**31 else np.int64)
    for p in primes_upto(isqrt(b - 1)):
        mu[-a % p :: p] *= -1
        prod[-a % p :: p] *= p
        mu[-a % (p * p) :: p * p] = 0
    # Compared with k in chunks, so no second array of b - a values; the
    # sign flips by a product with 1 - 2 (prod(k) != k).
    for i in range(0, b - a, _CHUNK):
        part = mu[i : i + _CHUNK]
        k = np.arange(a + i, a + i + len(part), dtype=prod.dtype)
        part *= 1 - 2 * (prod[i : i + _CHUNK] != k).view(np.int8)
    return mu


def ragged(counts: np.ndarray, base: np.ndarray | int = 0, whole: bool = False):
    """The entries of rows r with counts c_r >= 0, row after row, as int64
    arrays (row, x): x = base_r + the entry's offset 0..c_r - 1 in its row,
    base a scalar or one value per row.

    Yields per part of _CHUNK entries (read at call time) its (row, x) and
    the rows r0 <= r < r1 it meets, each but the first starting in it: a
    part may end inside a row.  whole=True returns (row, x) of all entries.
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    shift = starts - base
    total = int(ends[-1]) if len(ends) else 0

    def part(a: int, b: int) -> tuple:
        r0, r1 = ends.searchsorted(a, side="right"), starts.searchsorted(b)
        row = np.repeat(np.arange(r0, r1),
                        np.minimum(ends[r0:r1], b) - np.maximum(starts[r0:r1], a))
        return row, np.arange(a, b, dtype=np.int64) - shift[row], r0, r1

    if whole:
        return part(0, total)[:2]
    size = _CHUNK
    return (part(a, min(a + size, total)) for a in range(0, total, size))


def _ragged_sums(first: np.ndarray | int, stop: np.ndarray, term) -> np.ndarray:
    """The int64 row sums sum_{first[r] <= x < stop[r]} term(r, x), every r.

    The pairs (r, x) come from ragged, a part at a time; a row's share of
    a part is the difference of the part's running sum at its two ends.
    """
    counts = np.maximum(stop - first, 0)
    ends = np.cumsum(counts)
    sums = np.zeros(len(counts), dtype=np.int64)
    a = 0  # the first entry of the part
    for row, x, r0, r1 in ragged(counts, first):
        run = np.cumsum(term(row, x))
        part = run[np.minimum(ends[r0:r1] - a, len(run)) - 1]
        sums[r0:r1] += part
        sums[r0 + 1 : r1] -= part[:-1]
        a += len(run)
    return sums


def mertens_quotients(T: int):
    """The lookup k -> M(T//k), M(v) = sum_{d <= v} mu(d) the Mertens
    function: a function of an int64 array of integers k >= 1 (k > T gives
    M(0) = 0) that returns an int64 array.

    The v <= L = max(isqrt(T), T^{2/3}) are the running sums of
    mu_segment(1, L + 1), an int64 table small[v] = M(v).  The larger
    v = T//k, k <= K = T//(L+1), follow from sum_{j <= v} M(v//j) = 1 (each
    m <= v is counted by sum_{e | m} mu(e)): with r = isqrt(v),

        M(v) = 1 - sum_{2 <= j <= v//(r+1)} M(v//j)
                 - sum_{q <= r} (v//q - v//(q+1)) M(q).

    Every v//j = T//(kj) is a quotient of T, M(T//(kj)) = big[kj] when
    kj <= K and a table entry when kj > K (T//(K+1) <= L), and every
    q <= r <= L is in the table.  The q-sum and the j with kj > K read the
    table alone, so each is one ragged pass over its (k, q) or (k, j) pairs
    for all k at once (_ragged_sums over ragged's parts).  The j <= K//k
    read big[kj] with kj >= 2k, so big is filled one dyadic level of k at a
    time, k in (K//2^(i+1), K//2^i] for i = 0, 1, ...: 2k > K//2^i puts
    every kj of a level in a level already done, and the top level (k >
    K//2) has no such j.  A level is one np.add.reduceat over its rows of
    the multiples kj, fewer than K H(K) in all (30612 at T = 2^36, K = 4095;
    H the harmonic numbers), which ragged lays out once.  The lookup reads
    big[k] when k <= K and small[T//k] otherwise (T//k <= L exactly when
    k > K); no per-quotient Python runs.

    Cost: under 2 sqrt(v) terms per v, so sum_{k <= K} 2 sqrt(T/k) <=
    4 sqrt(T K) <= 4 T/sqrt(L) over the large v, plus O(L) for the sieve;
    L = T^{2/3} makes both O(T^{2/3}), in O(L) memory (Deleglise & Rivat,
    "Computing the summation of the Moebius function", 1996).  The traced
    peak at T = 10^8, with a lookup of every k <= isqrt(T), is 2.7 MB
    (Python 3.11, NumPy 2.4): the int64 table of L + 1 = 215444 values and
    the _CHUNK pairs of a pass.

    The int64 sums are exact up to T = 2^36, the largest T count_points
    passes.  |M(q)| <= q and d_q = v//q is nonincreasing, so the q-sum is
    at most sum_{q <= r} (d_q - d_{q+1}) q = sum_{q <= r} d_q - r d_{r+1}
    <= v H(r) <= v H(sqrt(v)) in size, and the j-sum at most
    sum_j |M(v//j)| <= sum_j v/j <= v H(v).  As v <= T <= 2^36 and
    H(2^36) < 26, every partial sum of a row, and so every sum kept per k,
    is below 2^41.  Each single term is at most v in size ((d_q - d_{q+1})
    |M(q)| <= d_q q <= v), so a chunk's running sum over at most 2^14 terms
    stays below 2^50, and a level row adds fewer than K <= 2^12 values
    |big[kj]| <= T.  The float sqrt floors to isqrt(v) = n for v < 2^52:
    it is monotone and exact at n^2, and for v < (n+1)^2 <= 2^52 the gap
    n + 1 - sqrt(v) > 1/(2n + 2) >= (n + 1) 2^-53 is more than half the
    float spacing below n + 1.
    """
    L = max(isqrt(T), round(T ** (2 / 3)))
    small = np.concatenate(([0], mu_segment(1, L + 1)), dtype=np.int64)
    np.cumsum(small, out=small)  # small[v] = M(v), summed in place
    K = T // (L + 1)
    k = np.arange(1, K + 1, dtype=np.int64)
    v = T // k
    r = np.sqrt(v).astype(np.int64)  # isqrt(v), as v < 2^52

    def q_term(i, q):
        vi = v[i]
        return (vi // q - vi // (q + 1)) * small[q]

    def j_term(i, j):
        return small[v[i] // j]

    j0 = np.maximum(K // k, 1) + 1  # the j >= j0 have kj > K
    big = np.zeros(K + 1, dtype=np.int64)  # big[k] = M(T//k)
    big[1:] = 1 - _ragged_sums(1, r + 1, q_term) - _ragged_sums(j0, v // (r + 1) + 1, j_term)
    # The multiples kj <= K, j >= 2, of each k <= K//2, row after row.
    half = k[: K // 2]
    counts = K // half - 1
    row, j = ragged(counts, 2, whole=True)
    m = half[row] * j
    ends = np.cumsum(counts)
    starts = ends - counts
    hi = K // 2
    while hi:
        lo = hi // 2
        first = starts[lo:hi]
        big[lo + 1 : hi + 1] -= np.add.reduceat(big[m[first[0] : ends[hi - 1]]], first - first[0])
        hi = lo

    def lookup(k: np.ndarray) -> np.ndarray:
        m = small[np.minimum(T // k, L)]
        top = k <= K
        m[top] = big[k[top]]
        return m

    return lookup


def jordan_segment(a: int, b: int, k: int) -> np.ndarray:
    """Jordan totients J_k(a..b-1) as an int64 array (1 <= a <= b, k >= 1,
    (b - 1)^k < 2^63): J_k(m) = m^k prod_{p | m} (1 - p^-k), the number of
    k-tuples mod m whose gcd with m is 1; J_1 is Euler's phi.

    Every prime p <= sqrt(b - 1) takes J(m) to J(m) (1 - p^-k) on its
    multiples, an exact division as p^k still divides J(m) then, and is
    divided out of the quotient array q(m) = m with all its powers, which
    leaves q(m) = 1 or the one prime factor of m above sqrt(b - 1), which
    takes J(m) to J(m) (1 - q(m)^-k).
    """
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    quotient = np.arange(a, b, dtype=np.int64)
    jordan = quotient**k
    for p in primes_upto(isqrt(b - 1)):
        jordan[-a % p :: p] -= jordan[-a % p :: p] // p**k
        q = p
        while q < b:
            quotient[-a % q :: q] //= p
            q *= p
    jordan -= np.where(quotient > 1, jordan // quotient**k, 0)
    return jordan


# B_2, B_4, ..., B_26 as (numerator, denominator): the Euler-Maclaurin
# corrections of zeta take B_2..B_24, and B_26 bounds the remainder.
_BERNOULLI_EVEN = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
    (-236364091, 2730), (8553103, 6),
)
# B_2j/(2j)! as (numerator, denominator), j = 1..M+1.
_ZETA_COEFFS = tuple((num, den * math.factorial(2 * j))
                     for j, (num, den) in enumerate(_BERNOULLI_EVEN, 1))
_ZETA_M = len(_ZETA_COEFFS) - 1
_ZETA_N = 24
_ZETA_BITS = 128


# typed: 2 + 0j and Decimal(2) equal 2 and hash alike, and must not hit its entry.
@lru_cache(maxsize=256, typed=True)
def zeta(x) -> float:
    """Riemann zeta(x) for real x > 1, correctly rounded to the nearest float.

    An int or Fraction argument is first converted to float.  For x >= 54,
    0 < zeta(x) - 1 <= 2^-x + int_2^oo t^-x dt = 2^-x (1 + 2/(x-1)) < 2^-53,
    half the spacing of the floats above 1, so zeta(x) rounds to 1.0.
    Otherwise _zeta_enclosure gives integers lo <= 2^W zeta(x) <= hi with N
    direct terms, and lo/2^W, hi/2^W as correctly rounded floats (Python's
    int / int); when they are equal, every number between them, zeta(x)
    too, rounds to that float (rounding to nearest is monotone).  If not, W
    and N are doubled.  At W = 128 and N = 24, hi - lo is at most about
    1e-31 zeta(x) (the remainder bound, largest near x = 2.25), so a second
    pass is all but never needed.

    Raises:
        ValueError: x is not a real number, or not finite and > 1.
        ArithmeticError: three doublings left zeta(x) astride a rounding
            boundary, so within about 1e-140 of a midpoint of two floats.
    """
    if not isinstance(x, numbers.Real):
        raise ValueError(f"zeta needs a real argument, got {x!r}")
    x = float(x)
    if not 1.0 < x < math.inf:
        raise ValueError(f"zeta needs a finite x > 1, got {x!r}")
    if x >= 54.0:
        return 1.0
    bits, n_cut = _ZETA_BITS, _ZETA_N
    for _ in range(4):
        lo, hi = _zeta_enclosure(x, bits, n_cut)
        if lo == hi:
            return lo
        bits, n_cut = 2 * bits, 2 * n_cut
    raise ArithmeticError(f"zeta({x!r}) not resolved to one float")


def _zeta_enclosure(x: float, bits: int, n_cut: int) -> tuple:
    """(lo / S, hi / S) as floats for integers lo <= S zeta(x) <= hi,
    S = 2^bits, 1 < x < 54, by Euler-Maclaurin at N = n_cut <= 192.

    With s = x and M = _ZETA_M,
        zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
                  + sum_{j=1..M} T_j + R,
        T_j = B_2j/(2j)! s(s+1)...(s+2j-2) N^(1-s-2j),
    and for real s > 0, |R| <= |T_{M+1}| (Edwards, "Riemann's Zeta Function",
    section 6.4: |R| <= |s+2M+1|/(Re s+2M+1) |T_{M+1}|).

    Every term is summed in fixed point, as an integer near S times it.
    Write s = a/d exactly (d a power of 2), k = floor(s), f = s - k, so
    n^-s = n^-k g_n with g_n = n^-f in (0, 1], and each term is an exact
    rational times g_n.  G_n is an integer within e_n of S g_n: S itself
    (e_n = 0) when f = 0.  Otherwise, at a prime n, G_n = floor(S E) for
    E = exp(-(f ln n)) by correctly rounded decimal ln, product and exp at
    P digits, 10^(P-3) >= S: the two roundings of 10^(1-P)/2 inside the
    exponent move it by at most f ln n 10^(1-P) <= 5.3 10^(1-P), so E is
    within relative 6 10^(1-P) of g_n, and S g_n 6 10^(1-P) <= 0.06 gives
    e_n = 2.  At n = p m, G_n = G_p G_m // S with e_n = e_p + e_m + 2.  A
    term c g_n with c an exact rational is taken as floor(c G_n), within
    1 + |c| e_n of S c g_n.  The sum of these bounds, plus the bound
    |c| (G_N + e_N) on S |T_{M+1}|, is the half-width (hi - lo)/2.
    """
    a, d = x.as_integer_ratio()
    k, scale = a // d, 1 << bits
    g = [scale] * (n_cut + 1)  # g[n]: S n^-f, within err[n]
    err = [0] * (n_cut + 1)
    if a % d:
        f = Decimal(x - k)  # exact: x - floor(x) is a float subtraction without rounding
        with localcontext(Context(prec=math.ceil(bits * math.log10(2)) + 3)):
            for n in range(2, n_cut + 1):
                p = next(p for p in range(2, n + 1) if n % p == 0)
                if p == n:
                    num, den = (-(f * Decimal(n).ln())).exp().as_integer_ratio()
                    g[n], err[n] = num * scale // den, 2
                else:
                    g[n], err[n] = g[p] * g[n // p] // scale, err[p] + err[n // p] + 2
    n_k, g_n, e_n = n_cut**k, g[n_cut], err[n_cut]
    # The positive terms: 1, 2^-s, ..., (N-1)^-s, N^(1-s)/(s-1), N^-s/2.
    total = scale + sum([g[n] // n**k for n in range(2, n_cut)])
    total += n_cut * d * g_n // ((a - d) * n_k) + g_n // (2 * n_k)
    # 1 + e_n for each n^-s and for N^-s/2, 1 + |c| e_N for N^(1-s)/(s-1).
    slack = sum(err[:n_cut]) + n_cut + 2 + e_n - (-e_n * n_cut * d // ((a - d) * n_k))
    num_a, den_a = a, d * n_cut * n_k  # s(s+1)...(s+2j-2) N^(1-s-2j) at j = 1
    for j, (num, den) in enumerate(_ZETA_COEFFS, 1):
        c_num, c_den = num * num_a, den * den_a  # T_j = (c_num / c_den) g_N
        if j > _ZETA_M:  # |T_{M+1}| bounds the remainder R
            slack += -(-abs(c_num) * (g_n + e_n) // c_den)
            break
        total += c_num * g_n // c_den
        slack += 1 - (-abs(c_num) * e_n // c_den)
        num_a *= (a + (2 * j - 1) * d) * (a + 2 * j * d)
        den_a *= (d * n_cut) ** 2
    return (total - slack) / scale, (total + slack) / scale
