"""The in-package Riemann zeta function against mpmath, and the prime sieve
against trial division and the byte sieve it replaced."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress

import mpmath
import numpy as np
import pytest

from gacount import _util

ZETA_ARGS = ([*range(2, 41)] + [float(k) for k in range(2, 11)]
             + [1.5, 1.75, 3.5, 6.5, 60.5, 1 + 2**-10])


def mp_zeta(x) -> float:
    with mpmath.workdps(50):
        return float(mpmath.zeta(x))


@pytest.mark.parametrize("x", ZETA_ARGS)
def test_zeta_is_correctly_rounded(x):
    assert _util.zeta(x) == mp_zeta(x)


def test_zeta_accepts_fractions_as_floats():
    assert _util.zeta(Fraction(7, 2)) == _util.zeta(3.5)
    assert _util.zeta(Fraction(1, 3) + 1) == mp_zeta(float(Fraction(4, 3)))


@pytest.mark.parametrize("x", [1, 1.0, 0.5, -3, math.nan, math.inf, -math.inf, 2 + 0j, "3"])
def test_zeta_rejects_outside_real_half_line(x):
    with pytest.raises(ValueError):
        _util.zeta(x)


@pytest.mark.parametrize("x", [1 + 2**-40, 1.25, 2.0, 2.75, 7.3, 19.0, 40.5, 53.9])
@pytest.mark.parametrize("bits, n_cut", [(40, 24), (128, 3), (128, 24)])
def test_zeta_enclosure_contains_zeta(x, bits, n_cut):
    # Few bits make the rounding part of the bound dominate, a small N the
    # Euler-Maclaurin remainder: either way the enclosure holds zeta(x).
    lo, hi = _util._zeta_enclosure(x, bits, n_cut)
    assert lo <= mp_zeta(x) <= hi
    if n_cut == 24:
        assert hi - lo <= 2.0 ** (24 - bits) * hi


def test_primes_upto_matches_trial_division():
    want = [n for n in range(2, 3001)
            if all(n % d for d in range(2, math.isqrt(n) + 1))]
    for n in range(3001):
        assert _util.primes_upto(n) == [p for p in want if p <= n], n


@pytest.mark.parametrize("k, count", [(0, 0), (1, 4), (2, 25), (3, 168), (4, 1229),
                                      (5, 9592), (6, 78498)])
def test_primes_upto_prime_counts(k, count):
    # pi(10^k), OEIS A006880.
    primes = _util.primes_upto(10**k)
    assert len(primes) == count
    assert primes == sorted(set(primes))


def bytearray_primes(n: int) -> list:
    """All primes <= n by the Eratosthenes byte sieve that _util.primes_upto
    used before its NumPy sieve: the oracle of the new one."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes((n - i * i) // i + 1)
    return list(compress(range(n + 1), sieve))


@pytest.mark.parametrize("ns", [range(-1, 3001), [10**4, 10**5, 10**6]],
                         ids=["every n <= 3000", "powers of ten"])
def test_primes_upto_matches_bytearray_sieve(ns):
    for n in ns:
        got = _util.primes_upto(n)
        assert got == bytearray_primes(n), n
        # Python ints: a NumPy int64 would wrap in exact powers p ** e.
        assert all(type(p) is int for p in got), n
        array = _util.prime_sieve(n)
        assert array.dtype == np.intp and array.tolist() == got, n


@pytest.mark.parametrize("n", [-1, 0, 1, 2])
def test_primes_upto_small_n(n):
    assert _util.primes_upto(n) == ([2] if n == 2 else [])
    assert _util.prime_sieve(n).dtype == np.intp


def ragged_loop(counts: list, base) -> list:
    """The (row, x) of every entry of the rows, by a loop over the rows:
    x = base_r + the entry's offset in row r."""
    bases = np.broadcast_to(base, len(counts)).tolist()
    return [(r, b + i) for r, (c, b) in enumerate(zip(counts, bases)) for i in range(c)]


RAGGED_COUNTS = {
    "no rows": [],
    "all zero": [0, 0, 0],
    "zero rows first, in the middle and last": [0, 0, 3, 0, 1, 5, 0, 0, 2, 7, 0, 1, 0, 0],
    "one row": [11],
}


@pytest.mark.parametrize("counts", RAGGED_COUNTS.values(), ids=RAGGED_COUNTS)
@pytest.mark.parametrize("per_row", [False, True], ids=["scalar base", "per-row base"])
@pytest.mark.parametrize("size", [1, 3, 7, "total"])
def test_ragged_parts_match_loop(monkeypatch, counts, per_row, size):
    base = 10 * np.arange(len(counts), dtype=np.int64) - 4 if per_row else 5
    want = ragged_loop(counts, base)
    monkeypatch.setattr(_util, "_CHUNK", max(len(want), 1) if size == "total" else size)
    got, sizes = [], []
    for row, x, r0, r1 in _util.ragged(np.array(counts, dtype=np.int64), base):
        assert row.dtype == x.dtype == np.int64
        # The rows the part meets, the first and last with an entry in it.
        assert (r0, r1) == (row[0], row[-1] + 1)
        got += zip(row.tolist(), x.tolist())
        sizes.append(len(row))
    assert got == want
    chunk = _util._CHUNK
    assert sizes == [min(chunk, len(want) - a) for a in range(0, len(want), chunk)]


@pytest.mark.parametrize("counts", RAGGED_COUNTS.values(), ids=RAGGED_COUNTS)
@pytest.mark.parametrize("per_row", [False, True], ids=["scalar base", "per-row base"])
def test_ragged_whole_layout_matches_loop(monkeypatch, counts, per_row):
    # The whole layout is one part whatever _CHUNK is.
    monkeypatch.setattr(_util, "_CHUNK", 1)
    base = 10 * np.arange(len(counts), dtype=np.int64) - 4 if per_row else 5
    row, x = _util.ragged(np.array(counts, dtype=np.int64), base, whole=True)
    assert row.dtype == x.dtype == np.int64
    assert list(zip(row.tolist(), x.tolist())) == ragged_loop(counts, base)
