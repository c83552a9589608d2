"""Completeness, pins, fits, and soundness proofs of the point enumerator."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from math import isqrt

import numpy as np
import pytest

from gacount import _util, enumeration, fourier, geometry, heights
from gacount._util import CapabilityError, as_fraction, mertens_quotients, mu_sieve
from conftest import global_height, random_point

P1 = geometry.load_model("P1")


def test_height_radius_exact_roots():
    # Largest integer r with r^lam <= B, computed without float roots.
    assert enumeration.height_radius(4, Fraction(2)) == 2
    assert enumeration.height_radius(3, Fraction(2)) == 1
    assert enumeration.height_radius(10**6, Fraction(2)) == 1000
    assert enumeration.height_radius(Fraction(999999), Fraction(2)) == 999
    assert enumeration.height_radius(27, Fraction(3, 2)) == 9
    assert enumeration.height_radius(Fraction(1, 2), Fraction(2)) == 0


def test_p1_pins():
    m = geometry.load_model("P1")
    # H(x; rho) = max(|X|, Z)^2 equals 1 on the three points 0 and +-1, so
    # N(1) = 3 for this metric (the height plateau of the max norm).
    assert enumeration.count_points(m, m.rho, 1) == 3
    assert enumeration.count_points(m, m.rho, 4) == 7  # 0, +-1, +-2, +-1/2
    assert enumeration.count_points(m, m.rho, Fraction(1, 2)) == 0


def test_blp21_pins():
    m = geometry.load_model("BlP2-1")
    assert enumeration.count_points(m, m.rho, 1) == 9
    assert enumeration.count_points(m, m.rho, 100) == 689


@pytest.mark.parametrize("B", [1, 10, 60])
def test_box_oracle_agreement(model, B):
    box = sum(1 for _ in enumeration.enumerate_points(model, model.rho, B))
    assert box == enumeration.count_points(model, model.rho, B)


def test_count_at_float_bound():
    # A float bound is its exact binary value, here with denominator 2^46;
    # the exact comparisons must not grow with that denominator.
    m = geometry.load_model("BlP2-2")
    assert enumeration.count_points(m, m.rho, 100.3) == \
        enumeration.count_points(m, m.rho, 100)
    assert sum(1 for _ in enumeration.enumerate_points(m, m.rho, 60.3)) == \
        enumeration.count_points(m, m.rho, 60)


def test_box_oracle_nonanticanonical():
    m = geometry.load_model("BlP2-1")
    for lam, B in [((1, 1), 12), ((2, 3), 30), ((4, 2), 30)]:
        box = sum(1 for _ in enumeration.enumerate_points(m, lam, B))
        assert box == enumeration.count_points(m, lam, B), (lam, B)
    m3 = geometry.load_model("BlP2-3")
    for lam, B in [((3, 2, 2, 2), 20), ((2, 1, 1, 1), 8), ((3, 1, 2, 1), 8)]:
        box = sum(1 for _ in enumeration.enumerate_points(m3, lam, B))
        assert box == enumeration.count_points(m3, lam, B), (lam, B)


def test_monotone_in_bound(model):
    prev = 0
    for B in (1, 2, 5, 10, 25, 60):
        n = enumeration.count_points(model, model.rho, B)
        assert n >= prev
        prev = n


def test_worker_determinism(model):
    counts = {enumeration.count_points(model, model.rho, 120, workers=w)
              for w in (1, 2, 4)}
    assert len(counts) == 1


def test_candidate_budget_guard():
    # B = 10^9 needs R (2R + 1)^2 ~ 1.3e14 candidates (R = 31622), over
    # both module budgets; the guard raises before any slice is scanned.
    m = geometry.load_model("BlP2-2")
    with pytest.raises(CapabilityError):
        enumeration.count_points(m, m.rho, 10**9)
    with pytest.raises(CapabilityError):
        list(enumeration.enumerate_points(m, m.rho, 10**9))


@pytest.mark.parametrize("B", [Fraction(1, 2), 1, 100])
def test_workers_checked_before_early_returns(model, B):
    with pytest.raises(ValueError):
        enumeration.count_points(model, model.rho, B, workers=0)


@pytest.mark.parametrize("B", [Fraction(1, 2), 1, 7, 60])
def test_zeta_partial_counts_the_points_it_sums(model, B):
    # The point count zeta_partial returns is count_points, and at s = 0
    # every summed term is 1.
    part, n = enumeration.zeta_partial(model, model.rho, 0.0, B)
    assert n == enumeration.count_points(model, model.rho, B)
    assert part == float(n)


def test_kernel_budget_counts_past_the_loop_budget():
    # B = 11664 needs 5085612 candidates: over the loop scan's budget, which
    # enumerate_points keeps, and under the box kernel's.
    m = geometry.load_model("BlP2-2")
    with pytest.raises(CapabilityError):
        next(enumeration.enumerate_points(m, m.rho, 11664))
    assert enumeration.count_points(m, m.rho, 11664) >= 308697


def test_count_ladder_basics():
    m = geometry.load_model("P1")
    lad = enumeration.count_ladder(m, m.rho, [10, 100, 1000])
    assert tuple(b for b, _ in lad.rows) == (10, 100, 1000)
    assert tuple(n for _, n in lad.rows) == tuple(
        enumeration.count_points(m, m.rho, b) for b in (10, 100, 1000)
    )
    assert len(lad.elapsed_ms) == 3
    empty = enumeration.count_ladder(m, m.rho, [])
    assert empty.rows == ()
    with pytest.raises(ValueError):
        enumeration.count_ladder(m, m.rho, [100, 100])
    with pytest.raises(ValueError):
        enumeration.count_ladder(m, m.rho, [100, 10])


def test_count_ladder_rejects_decreasing_counts(monkeypatch):
    # A counting defect that loses points at a larger bound must raise, also
    # under python -O.
    m = geometry.load_model("P1")
    monkeypatch.setattr(enumeration, "count_points",
                        lambda model, lam, B, workers=1: 1000 - int(B))
    with pytest.raises(CapabilityError):
        enumeration.count_ladder(m, m.rho, [10, 100])


def test_fit_leading_synthetic_power_law():
    rows = tuple((B, B * B) for B in (10, 30, 100, 300, 1000))
    lad = enumeration.CountLadder(P1, (Fraction(2),), rows)
    coeffs, resid = enumeration.fit_leading(lad, 2, 1)
    assert abs(coeffs[-1] - 1.0) <= 1e-12
    assert resid <= 1e-9


def test_fit_leading_constant_ladder_zero_slope():
    rows = tuple((B, 5) for B in (10, 30, 100, 300, 1000))
    lad = enumeration.CountLadder(P1, (Fraction(2),), rows)
    coeffs, _ = enumeration.fit_leading(lad, 0, 2)
    assert abs(coeffs[-1]) <= 1e-12  # leading log coefficient vanishes
    assert abs(coeffs[0] - 5.0) <= 1e-9


def test_fit_leading_underdetermined():
    rows = ((10, 100), (100, 10000))
    lad = enumeration.CountLadder(P1, (Fraction(2),), rows)
    with pytest.raises(ValueError):
        enumeration.fit_leading(lad, 2, 1)
    with pytest.raises(ValueError):
        enumeration.fit_leading(lad, 2, 0)


def test_estimate_exponents_synthetic():
    rows = tuple((B, B * B) for B in (10, 100, 1000, 10000, 100000))
    lad = enumeration.CountLadder(P1, (Fraction(2),), rows)
    a_hat, b_hat = enumeration.estimate_exponents(lad)
    assert abs(a_hat - 2.0) <= 1e-9
    assert abs(b_hat - 1.0) <= 1e-6


def test_estimate_exponents_span_guard():
    lad = enumeration.CountLadder(
        P1, (Fraction(2),), ((10, 100), (50, 2500), (100, 10000))
    )
    with pytest.raises(ValueError):
        enumeration.estimate_exponents(lad)
    short = enumeration.CountLadder(P1, (Fraction(2),), ((10, 100), (100, 10000)))
    with pytest.raises(ValueError):
        enumeration.estimate_exponents(short)


def test_blp23_box_soundness_inequality(rng):
    # The BlP2-3 box radius rests on H(x; rho) >= h_std^2 / 4: among the
    # three pencil forms at most one can be small, and the finite gcds are
    # pairwise coprime divisors of Z.  Verify the inequality pointwise.
    m = geometry.load_model("BlP2-3")
    for _ in range(200):
        pt = random_point(rng, 2)
        h = global_height(m, pt, m.rho).total
        h_std = max(abs(pt.coords[1]), abs(pt.coords[2]), pt.coords[0])
        assert 4 * h >= h_std * h_std


def test_no_accumulating_line_blp21():
    # Points on a fixed line of the open orbit contribute a vanishing share
    # of the total count.  The restricted count grows like B while the full
    # count grows like B log B, so the share decays like 1 / log B.
    m = geometry.load_model("BlP2-1")
    p1 = geometry.load_model("P1")

    def line_count(B: int) -> int:
        # Points (x, 1): the pencil height is 1 there, so H = h_std(x)^2
        # and the section count is the P1 anticanonical count.
        return enumeration.count_points(p1, p1.rho, B)

    ratios = []
    for B in (10**2, 10**4, 10**6):
        ratios.append(line_count(B) / enumeration.count_points(m, m.rho, B))
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[-1] < 0.1
    # 1/log B decay: consecutive ratios shrink roughly by log(B1)/log(B2).
    assert ratios[2] < 0.8 * ratios[1]
    assert ratios[1] < 0.8 * ratios[0]


def test_enumerate_points_heights_filter(model):
    # Every enumerated point really lies inside the bound, with the height
    # recomputed independently by the global_height oracle.
    B = 25
    for pt in enumeration.enumerate_points(model, model.rho, B):
        assert global_height(model, pt, model.rho).total <= B


def test_renamed_model_same_results(model):
    # Every point-side decision comes from catalog data, so a model renamed
    # with dataclasses.replace keeps its strategy, box slack and workers.
    renamed = dataclasses.replace(model, id="renamed")
    B = 30
    want = enumeration.count_points(model, model.rho, B)
    for w in (1, 2):
        assert enumeration.count_points(renamed, renamed.rho, B, workers=w) == want
    assert list(enumeration.enumerate_points(renamed, renamed.rho, B)) == \
        list(enumeration.enumerate_points(model, model.rho, B))
    assert fourier.zeta_truncated(renamed, renamed.rho, 4.0, B) == \
        fourier.zeta_truncated(model, model.rho, 4.0, B)


def test_renamed_blp23_keeps_box_slack():
    m = geometry.load_model("BlP2-3")
    renamed = dataclasses.replace(m, id="renamed")
    assert sum(1 for _ in enumeration.enumerate_points(renamed, m.rho, 7)) == 55
    assert enumeration.count_points(renamed, m.rho, 200) == 4297


def test_enumerate_points_lexicographic(model):
    # Z ascending, then X, Y, ... lexicographically, each point once.
    coords = [pt.coords for pt in enumeration.enumerate_points(model, model.rho, 40)]
    assert coords
    assert all(a < b for a, b in zip(coords, coords[1:]))


def _kernel_points(model, lam, B, R, lo, hi):
    """(points, generator heights) of _box_kernel as tuples, in its order."""
    points, hts = [], []
    for z, xs, hs in enumeration._box_kernel(model, lam, B, R, lo, hi):
        points += [(z, *x) for x in xs.tolist()]
        hts += [tuple(h) for h in hs.tolist()]
    return points, hts


def _assert_kernel_is_scan(model, lam, B, ranges=None):
    # The loop _box_scan decides each primitive candidate by height_test; the
    # kernel must return its points, in its order, with their heights.
    lam = geometry.require_interior(model, lam)
    B = Fraction(B)
    R = enumeration._box_radius(model, lam, B)
    for lo, hi in ranges or [(1, R + 1)]:
        want = list(enumeration._box_scan(model, lam, B, R, lo, hi))
        points, hts = _kernel_points(model, lam, B, R, lo, hi)
        assert points == want, (model.id, lam, B, lo, hi)
        assert hts == [heights.generator_heights(model, c) for c in want]


@pytest.mark.parametrize("B", [1, 7, 30, 60, 200])
def test_box_kernel_matches_scan(model, B):
    _assert_kernel_is_scan(model, model.rho, B)


def test_box_kernel_matches_scan_nonanticanonical():
    m1 = geometry.load_model("BlP2-1")
    for lam, B in [((1, 1), 12), ((2, 3), 30), ((4, 2), 30)]:
        _assert_kernel_is_scan(m1, lam, B)
    m3 = geometry.load_model("BlP2-3")
    for lam, B in [((3, 2, 2, 2), 20), ((2, 1, 1, 1), 8), ((3, 1, 2, 1), 8)]:
        _assert_kernel_is_scan(m3, lam, B)
    for mid in ("BlP2-2", "BlP2-3"):
        m = geometry.load_model(mid)
        lam = (Fraction(7, 2),) + (Fraction(2),) * (m.rank - 1)
        _assert_kernel_is_scan(m, lam, 60)


def test_box_kernel_split_ranges():
    # Worker chunks [lo, hi), including one past the box radius, give the
    # scan's points of the same range, so their concatenation is the box.
    m = geometry.load_model("BlP2-2")
    ranges = [(1, 4), (4, 5), (5, 11), (11, 15), (15, 18)]
    _assert_kernel_is_scan(m, m.rho, 200, ranges)
    m3 = geometry.load_model("BlP2-3")
    _assert_kernel_is_scan(m3, m3.rho, 60, [(1, 2), (2, 7), (7, 12)])


@pytest.fixture
def exact_calls(monkeypatch):
    """A one-cell list counting the exact height tests that enumeration
    prepares with height_test: the kernel's fallbacks and the loop scan's
    tests."""
    calls = [0]
    prepare = enumeration.height_test

    def counted_test(*args):
        leq = prepare(*args)

        def counted(hts):
            calls[0] += 1
            return leq(hts)

        return counted

    monkeypatch.setattr(enumeration, "height_test", counted_test)
    return calls


def test_box_kernel_margin_adversarial(exact_calls):
    # Bounds 1e-15 relative above and below heights that occur, and bounds
    # equal to the most frequent height (dense ties H = B): the float filter
    # cannot tell these apart, so the exact fallback must decide them.
    eps = Fraction(1, 10**15)
    for mid, lam in [("BlP2-2", None), ("BlP2-3", None), ("P2", None),
                     ("BlP2-2", (Fraction(7, 2), 2, 2))]:
        m = geometry.load_model(mid)
        lam = geometry.require_interior(m, lam or m.rho)
        exps = geometry.generator_exponents(m, lam)
        R = enumeration._box_radius(m, lam, Fraction(60))
        found = {}
        for coords in enumeration._box_scan(m, lam, Fraction(60), R, 1, R + 1):
            hs = heights.generator_heights(m, coords)
            value = 1.0
            for h, e in zip(hs, exps):
                value *= h ** float(e)
            found[value] = found.get(value, 0) + 1
        common = max(found, key=found.get)
        assert found[common] >= 4
        picks = sorted(found)[:: max(1, len(found) // 6)] + [common]
        for h in picks:
            h = Fraction(h)
            for B in (h, h * (1 - eps), h * (1 + eps)):
                if B >= 1:
                    _assert_kernel_is_scan(m, lam, B)
    assert exact_calls[0] > 0


def test_box_kernel_exact_checks_are_few(exact_calls):
    # Only the candidates inside the float margin reach the exact test.
    m = geometry.load_model("BlP2-2")
    assert enumeration.count_points(m, m.rho, 400) == 6681
    assert 0 < exact_calls[0] < 1000


def test_box_kernel_int64_guard():
    # Section values past int64 are refused by an exception, not an assert,
    # before any array is built.
    m = geometry.load_model("BlP2-3")
    lam = geometry.require_interior(m, m.rho)
    with pytest.raises(CapabilityError):
        next(enumeration._box_kernel(m, lam, Fraction(10), 2**62, 1, 2))
    with pytest.raises(CapabilityError):
        next(enumeration._box_kernel(m, lam, Fraction(10), 1, 1, 2**63))


def test_box_kernel_refuses_a_system_without_z(monkeypatch):
    # The kernel reads the gcd of a system's section values from one gcd
    # table per slice, which needs the section Z and forms in the X_i alone
    # in every system: a stand-in whose pencil lacks Z, or has a section
    # with a Z term, is refused by an exception, not an assert, before any
    # array is built.
    def refuse(*args, **kwargs):
        raise AssertionError("array built")

    m = geometry.load_model("BlP2-2")
    h, f1, f2 = m.generators
    lam = geometry.require_interior(m, m.rho)
    monkeypatch.setattr(np, "indices", refuse)
    monkeypatch.setattr(np, "array", refuse)
    for sections in (((0, 1, 0), (1, 1, 0)), ((1, 1, 0), (1, 0, 0))):
        stand_in = dataclasses.replace(m, generators=(h, f1, f2._replace(sections=sections)))
        with pytest.raises(CapabilityError, match="F2 are not the section Z"):
            next(enumeration._box_kernel(stand_in, lam, Fraction(10), 3, 1, 4))


def test_box_count_memory_peak():
    # The kernel holds the X grid, its gcd and per generator system the gcd
    # g_G and the largest |l| of its sections other than Z, and one slice's
    # arrays, never the box: 6.18 MB traced for BlP2-2 at B = 10^4 (R = 100)
    # now, 7.47 MB for the kernel that kept every section's X-part over the
    # grid (Python 3.11, NumPy 2.4).  NumPy reports its buffers to
    # tracemalloc, so the peak is deterministic.
    m = geometry.load_model("BlP2-2")
    tracemalloc.start()
    try:
        assert enumeration.count_points(m, m.rho, 10**4) == 266913
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7_000_000, peak


def point_heights(model, lam, B):
    """H = prod_G Fraction(h_G) ** m_G, from heights.generator_heights, for
    every point of enumerate_points in its order: an exact Fraction at
    integer m_G (a Fraction power with a rational exponent gives a float)."""
    exps = geometry.generator_exponents(model, lam)
    return [math.prod(Fraction(h) ** e
                      for h, e in zip(heights.generator_heights(model, pt.coords), exps))
            for pt in enumeration.enumerate_points(model, lam, B)]


@pytest.mark.parametrize("mid, lams, B", [
    ("BlP2-2", ((3, 2, 2), (5, 2, 2), (Fraction(7, 2), 2, 2)), 100),
    ("BlP2-3", ((3, 2, 2, 2), (4, 2, 2, 2), (Fraction(7, 2), 2, 2, 2)), 49),
    ("P2", ((3,), (2,), (Fraction(7, 2),)), 125),
])
def test_zeta_partial_matches_point_oracle(mid, lams, B):
    # zeta_partial's sum is, bit for bit, the left-to-right sum of
    # float(H)^(-s) over enumerate_points: at rho, at an integer lambda with
    # a negative generator exponent (m_H = -1 on BlP2-2, -2 on BlP2-3) or a
    # square height (P2 at 2), and at lambda = 7/2, 2, ....  B is the height
    # of many points at rho, so the exact tie test decides H = B there.
    model = geometry.load_model(mid)
    for lam in lams:
        for bound in (B, B - Fraction(1, 3)):
            hts = point_heights(model, lam, bound)
            for s in (4.5, 7.0):
                want = 0.0
                for H in hts:
                    want += float(H) ** -s
                assert enumeration.zeta_partial(model, lam, s, bound) == (want, len(hts)), \
                    (mid, lam, bound, s)
            if lam == model.rho and bound == B:
                assert hts.count(B) > 50


def test_box_counts_without_loop_scan(monkeypatch):
    # count_points and zeta_truncated run the kernel; the loop scan is only
    # the oracle behind enumerate_points.
    def refuse(*args, **kwargs):
        raise AssertionError("loop scan called")

    want = {}
    for mid, B in (("BlP2-2", 100), ("BlP2-3", 58)):
        m = geometry.load_model(mid)
        want[mid] = (enumeration.count_points(m, m.rho, B),
                     fourier.zeta_truncated(m, m.rho, 4, B))
    monkeypatch.setattr(enumeration, "_box_scan", refuse)
    for mid, B in (("BlP2-2", 100), ("BlP2-3", 58)):
        m = geometry.load_model(mid)
        for w in (1, 2):
            assert enumeration.count_points(m, m.rho, B, workers=w) == want[mid][0]
        assert fourier.zeta_truncated(m, m.rho, 4, B) == want[mid][1]


# ---------------------------------------------------------------------------
# The Moebius strategy on P^n: the block sum over a Mertens table.


def quotients(T):
    """{T//k : 1 <= k <= T} and 0, walked block by block."""
    out, k = {0}, 1
    while k <= T:
        out.add(T // k)
        k = T // (T // k) + 1
    return out


def mu_loop(n):
    """mu(0..n) by a loop over the multiples of every prime: the oracle of
    the NumPy sieve."""
    mu = [1] * (n + 1)
    mu[0] = 0
    for p in _util.primes_upto(n):
        for k in range(p, n + 1, p):
            mu[k] = -mu[k]
        for k in range(p * p, n + 1, p * p):
            mu[k] = 0
    return mu


def phi_loop(n):
    """phi(0..n) by a loop over the multiples of every prime."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


def test_mu_sieve_matches_loop():
    want = mu_loop(3000)
    for n in range(3001):
        assert mu_sieve(n) == want[: n + 1], n
    big = mu_sieve(10**6)
    loop = mu_loop(10**6)
    assert big == loop
    assert sum(big) == 212  # M(10^6), OEIS A084237
    # The sign pass runs in chunks of 2^14: segments that start off 1 and
    # span many chunks, one ending just past a chunk edge.
    for a, b in ((159, 316228), (5000, 10**6), (7, 2**14 + 8)):
        assert _util.mu_segment(a, b).tolist() == loop[a:b], (a, b)


def test_phi_segment_matches_loop():
    want = phi_loop(3000)
    for n in range(3001):
        assert _util.phi_segment(1, n + 1).tolist() == want[1 : n + 1], n
    assert _util.phi_segment(1, 10**6 + 1).tolist() == phi_loop(10**6)[1:]


def test_sieve_segments_match_loop():
    mu, phi = mu_loop(1000), phi_loop(1000)
    for a in range(1, 300, 7):
        for b in range(a, 1001, 13):
            assert _util.mu_segment(a, b).tolist() == mu[a:b], (a, b)
            assert _util.phi_segment(a, b).tolist() == phi[a:b], (a, b)


def test_mertens_lookup_matches_running_sums():
    # M(k) - M(a - 1) from the int8 cell sums, at every k, for segments of
    # length 1, one cell, one cell and one, and many cells with a tail.
    mu = mu_loop(20000)
    for a, b in ((1, 2), (5, 132), (5, 133), (158, 20001), (1, 20001)):
        want = list(accumulate(mu[a:b]))
        k = np.arange(a, b, dtype=np.int64)
        assert enumeration._mertens_lookup(a, b)(k).tolist() == want, (a, b)


def mertens_recursion(T):
    """{v: M(v)} for v = 0 and every quotient v = T//k, by the Deleglise-Rivat
    recursion in Python integers, one k at a time from K = T//(L+1) down to
    1: the oracle of the NumPy table _util.mertens_quotients."""
    L = max(isqrt(T), round(T ** (2 / 3)))
    small = list(accumulate(mu_loop(L)))
    K = T // (L + 1)
    big = [0] * (K + 1)  # big[k] = M(T//k)
    for k in range(K, 0, -1):
        v = T // k
        r = isqrt(v)
        total = 1 - sum((v // q - v // (q + 1)) * small[q] for q in range(1, r + 1))
        for j in range(2, v // (r + 1) + 1):
            total -= big[k * j] if k * j <= K else small[v // j]
        big[k] = total
    s = isqrt(T)
    return {v: big[T // v] if v > L else small[v]
            for v in [*range(s + 1), *(T // k for k in range(1, s + 1))]}


def mertens_pass_sizes(T):
    """The number of (k, q) pairs and of (k, j) pairs, kj > K, that
    mertens_quotients(T) sums in its two chunked passes."""
    L = max(isqrt(T), round(T ** (2 / 3)))
    K = T // (L + 1)
    roots = [(T // k, isqrt(T // k)) for k in range(1, K + 1)]
    return (sum(r for _, r in roots),
            sum(max(v // (r + 1) - max(K // k, 1), 0) for k, (v, r) in enumerate(roots, 1)))


def first_past(size, n):
    """The T found by bisection on [1, 10^8] with size(T - 1) <= n < size(T)."""
    lo, hi = 1, 10**8
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if size(mid) <= n else (lo, mid)
    return hi


def mertens_grid():
    """T for every K = T//(L+1) from 0 to 41 (the least and the largest T
    below 70000 with that K: 1 to 6 dyadic levels of k), around the squares
    and cubes near 10^4 and 10^6, and where each chunked pass crosses one
    and two chunks."""
    first, last = {}, {}
    for T in range(70000):
        K = T // (max(isqrt(T), round(T ** (2 / 3))) + 1)
        first.setdefault(K, T)
        last[K] = T
    assert sorted(first) == list(range(42))
    grid = {*first.values(), *last.values()}
    grid |= {n**2 + d for n in (99, 100, 101, 999, 1000, 1001) for d in (-1, 0, 1)}
    grid |= {n**3 + d for n in (21, 22, 99, 100, 101) for d in (-1, 0, 1)}
    for which in (0, 1):
        for n in (_util._CHUNK, 2 * _util._CHUNK):
            T = first_past(lambda T: mertens_pass_sizes(T)[which], n)
            grid |= {T - 1, T}
    return sorted(grid)


def test_mertens_quotients_match_recursion():
    for T in mertens_grid():
        assert mertens_quotients(T) == mertens_recursion(T), T


def test_mertens_quotients_match_recursion_in_small_chunks(monkeypatch):
    # Chunks of 1, 3 and 100 pairs end inside rows, at row ends and past
    # empty rows of the (k, j) pass.
    Ts = [*range(0, 300, 7), 4096, 20000, 64000, 69003]
    want = {T: mertens_recursion(T) for T in Ts}
    for chunk in (1, 3, 100):
        monkeypatch.setattr(_util, "_CHUNK", chunk)
        for T in Ts:
            assert mertens_quotients(T) == want[T], (chunk, T)


@pytest.fixture(scope="module")
def mertens_1e8():
    return mertens_quotients(10**8)


def test_mertens_quotients_match_recursion_at_1e8(mertens_1e8):
    assert mertens_1e8 == mertens_recursion(10**8)


def test_mertens_quotients_memory_peak():
    # The table is int64, the ragged passes go _CHUNK pairs at a time and the
    # dict holds the quotients only: the traced peak at T = 10^8 is 3.9 MB
    # (6.5 MB for the Python-int recursion it replaced; Python 3.11, NumPy
    # 2.4).  NumPy reports its buffers to tracemalloc.
    tracemalloc.start()
    try:
        mertens_quotients(10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6_500_000, peak


def test_mertens_quotients_match_sieve():
    prefix = list(accumulate(mu_sieve(5000)))
    for T in range(5001):
        M = mertens_quotients(T)
        assert set(M) == quotients(T), T
        assert all(m == prefix[v] for v, m in M.items()), T


def test_mertens_quotients_oeis_a084237(mertens_1e8):
    want = (-1, 1, 2, -23, -48, 212, 1037)
    assert tuple(mertens_quotients(10**k)[10**k] for k in range(1, 8)) == want
    assert mertens_1e8[10**8] == 1928


def test_mertens_quotients_identity_over_blocks(mertens_1e8):
    # sum_{d <= T} M(T//d) = 1, the d with T//d = q counted per block.
    T, M = 10**8, mertens_1e8
    assert sum(m * (T // q - T // (q + 1)) for q, m in M.items() if q) == 1


def pn_direct(n, T, mu):
    """The Moebius sum by a loop over every d <= T (mu a sieve reaching T):
    the oracle of the block sum."""
    total = 0
    for d in range(1, T + 1):
        if mu[d]:
            t = T // d
            total += mu[d] * t * (2 * t + 1) ** n
    return total


# The bench's P^n counts at rho: T = floor(B^{1/lambda_1}) is 707106, 669432
# and 562341, and N their pinned counts.
BENCH_PN = (
    ("P1", 5 * 10**11, 607925946031),
    ("P2", 3 * 10**17, 998285787890104825),
    ("P3", 10**23, 739151149959605396437183),
)


@pytest.mark.parametrize("mid", ["P1", "P2", "P3"])
def test_pn_count_matches_direct_loop(mid):
    m = geometry.load_model(mid)
    mu = mu_sieve(2999)
    for T in range(1, 3000):
        assert enumeration.count_points(m, m.rho, T ** m.rho[0]) == \
            pn_direct(m.dim, T, mu), T


def test_pn_count_matches_direct_loop_at_bench_bounds():
    mu = mu_sieve(707106)
    for mid, B, want in BENCH_PN:
        m = geometry.load_model(mid)
        T = enumeration.height_radius(Fraction(B), Fraction(m.rho[0]))
        assert pn_direct(m.dim, T, mu) == want
        assert enumeration.count_points(m, m.rho, B) == want


def test_pn_count_is_sublinear(monkeypatch):
    # No sieve reaching T: the Mertens table sieves to about T^{2/3}.
    def guarded(n, sieve=mu_sieve):
        if n > 10**5:
            raise AssertionError(f"mu_sieve({n}) on the P^n path")
        return sieve(n)

    def guarded_segment(a, b, segment=_util.mu_segment):
        if b - a > 10**5:
            raise AssertionError(f"mu_segment({a}, {b}) on the P^n path")
        return segment(a, b)

    for module in (_util, enumeration):
        monkeypatch.setattr(module, "mu_sieve", guarded)
        monkeypatch.setattr(module, "mu_segment", guarded_segment)
    for mid, B, want in BENCH_PN[::2]:
        m = geometry.load_model(mid)
        assert enumeration.count_points(m, m.rho, B) == want


def test_pn_count_starts_no_pool(monkeypatch):
    # count_points imports ProcessPoolExecutor from concurrent.futures when
    # it starts a pool, so the patch is read at call time.  The Moebius
    # (P2) and fiber (BlP2-1) strategies each run as one task.
    cases = [(geometry.load_model(mid), B) for mid, B in (("P2", 10**6), ("BlP2-1", 10**8))]
    want = [enumeration.count_points(m, m.rho, B) for m, B in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("process pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    assert [enumeration.count_points(m, m.rho, B, workers=2) for m, B in cases] == want
    # The box scan does start one, through the patched name.
    b2 = geometry.load_model("BlP2-2")
    with pytest.raises(AssertionError, match="process pool started"):
        enumeration.count_points(b2, b2.rho, 400, workers=2)


def blp21_fiber_bound_fractions(lam, B, F):
    """T_F by Fraction powers at every exponent: the oracle of the integer
    path of enumeration._blp21_fiber_bound."""
    m_h = lam[1]
    m_f = lam[0] - lam[1]
    rhs = B * Fraction(F) ** (-m_f) if m_f.denominator == 1 else None
    if rhs is None:
        d = m_f.denominator
        return enumeration.height_radius(B**d * Fraction(F) ** (-(m_f * d)), m_h * d)
    if rhs < 1:
        return 0
    return enumeration.height_radius(rhs, m_h)


def test_blp21_fiber_bound_integer_path():
    m = geometry.load_model("BlP2-1")
    for lam in (m.rho, (1, 1), (2, 3), (Fraction(7, 2), 2), (Fraction(5, 2), Fraction(3, 2))):
        vals = geometry.require_interior(m, lam)
        for B in (10**4, 10**11, 100.3, Fraction(10**9 + 7, 3)):
            B = as_fraction(B)
            assert enumeration._blp21_fiber_bounds(vals, B, range(1, 2001)) == \
                [blp21_fiber_bound_fractions(vals, B, F) for F in range(1, 2001)], (lam, B)


# ---------------------------------------------------------------------------
# The fiber strategy on BlP2-1: the (F, e) sum split at E0.

BLP21 = geometry.load_model("BlP2-1")
BLP21_LAMBDAS = (BLP21.rho, (1, 1), (2, 3), (Fraction(7, 2), 2),
                 (Fraction(5, 2), Fraction(3, 2)), (4, 2))
BLP21_BOUNDS = (*range(1, 400, 7), 10**5, 10**6 + 3, Fraction(10**7 + 7, 3), 100.3)
# The two (1, 1) cases whose direct loop runs over 10^7 to 5 * 10^7 pairs
# (about a minute): their counts as that loop gave them.
BLP21_DIRECT_PINS = {
    10**6 + 3: 3327664153401844713,
    Fraction(10**7 + 7, 3): 123245774306775439569,
}
# The bench's BlP2-1 counts: (lambda, B, N).
BENCH_BLP21 = ((BLP21.rho, 10**11, 2742692922465), ((1, 1), 10**4, 3327909391497))


def blp21_direct(lam, B):
    """The fiber sum by a loop over every e <= G_F in every fiber, with T_F
    from Fraction powers: the oracle of the split sum."""
    f_max = enumeration.height_radius(B, lam[0])
    if f_max < 1:
        return 0
    phi = [0, *_util.phi_segment(1, f_max + 1).tolist()]
    rows = []
    for F in range(1, f_max + 1):
        t = blp21_fiber_bound_fractions(lam, B, F)
        rows.append((F, t, t // F))
    mu = mu_sieve(max(g for _, _, g in rows))
    total = 0
    for F, t, g in rows:
        inner = 0
        for e in range(1, g + 1):
            if mu[e]:
                inner += mu[e] * (g // e) * (2 * (t // e) + 1)
        total += (3 if F == 1 else 4 * phi[F]) * inner
    return total


@pytest.mark.parametrize("lam", BLP21_LAMBDAS, ids=lambda lam: ",".join(map(str, lam)))
def test_blp21_count_matches_direct_loop(lam):
    vals = geometry.require_interior(BLP21, lam)
    for B in BLP21_BOUNDS:
        exact = as_fraction(B)
        if vals == (1, 1) and exact in BLP21_DIRECT_PINS:
            want = BLP21_DIRECT_PINS[exact]
        else:
            want = blp21_direct(vals, exact)
        for workers in (1, 2):
            assert enumeration.count_points(BLP21, lam, B, workers=workers) == want, \
                (lam, B, workers)


def test_blp21_count_bench_pins():
    for lam, B, want in BENCH_BLP21:
        vals = geometry.require_interior(BLP21, lam)
        assert blp21_direct(vals, Fraction(B)) == want
        assert enumeration.count_points(BLP21, lam, B) == want


def blp21_edge_on_e0(lam, B):
    """Whether some fiber past E0, with more than one quotient block of T_F,
    has its first block start right after E0 with no cut; E0 found by its
    definition (the smallest e with #{F : G_F > e} <= e)."""
    f_max = enumeration.height_radius(B, lam[0])
    T = [blp21_fiber_bound_fractions(lam, B, F) for F in range(1, f_max + 1)]
    G = [t // F for F, t in enumerate(T, start=1)]
    e0 = next(e for e in range(1, G[0] + 1) if sum(g > e for g in G) <= e)
    return any(t // (t // (e0 + 1) + 1) == e0
               for t, g in zip(T, G) if g > e0 and t // (e0 + 1) > t // g)


@pytest.mark.parametrize("lam", BLP21_LAMBDAS, ids=lambda lam: ",".join(map(str, lam)))
def test_blp21_blocks_at_their_edges(lam):
    # A bound where a quotient block ends exactly on E0 (the first in
    # B = 101..4999), and B = 1, 2, 100.  The last block of every fiber ends
    # exactly on G_F = T_F//F, a quotient of T_F, at every bound.
    vals = geometry.require_interior(BLP21, lam)
    edge = next(B for B in range(101, 5000) if blp21_edge_on_e0(vals, Fraction(B)))
    for B in (1, 2, 100, edge):
        assert enumeration.count_points(BLP21, lam, B) == blp21_direct(vals, Fraction(B)), \
            (lam, B)


@pytest.mark.parametrize("B", [1, 2, 7, 100, 1000, 12345, 10**6])
def test_blp21_at_hyperplane_class_counts_p2(B):
    # At lambda = (1, 1) the height of BlP2-1 is the pull-back of P2's, and
    # the affine points are the same: the fiber sum and the Moebius block
    # sum must agree.
    p2 = geometry.load_model("P2")
    assert enumeration.count_points(BLP21, (1, 1), B) == enumeration.count_points(p2, (1,), B)


def test_blp21_count_memory_peak():
    # The fiber path holds the mu segment and chunks of block rows, never an
    # array over all the rows: its traced peak stays under 2.0 MB (1.87 MB
    # now; 2.05 MB for the per-fiber loop it replaced, Python 3.11, NumPy
    # 2.4).  NumPy reports its buffers to tracemalloc, so the peak is
    # deterministic.
    lam, B, want = BENCH_BLP21[0]
    tracemalloc.start()
    try:
        assert enumeration.count_points(BLP21, lam, B) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000, peak


def test_fiber_weights_match_phi():
    # w_1 = 3 and w_F = 4 phi(F), on any segment [lo, hi).
    n = 3000
    want = [3] + [4 * f for f in _util.phi_segment(2, n + 1).tolist()]
    assert enumeration._fiber_weights(1, n + 1).tolist() == want
    for lo, hi in ((1, 1), (1, 2), (2, 2), (2, 50), (7, 1000), (1000, n + 1)):
        w = enumeration._fiber_weights(lo, hi)
        assert w.dtype == np.int64 and w.tolist() == want[lo - 1 : hi - 1], (lo, hi)


def test_p1_zeta_partial_in_chunks_of_fibers():
    # P1's point sum walks the fibers _WEIGHT_CHUNK at a time: T = 196625
    # spans four chunks, and the sum equals, bit for bit, the one-pass loop
    # over all phi(F) it replaced.  Its traced peak is that of one chunk
    # (3.1 MB now, 9.4 MB for the one pass; Python 3.11, NumPy 2.4).
    T = 3 * 2**16 + 17
    c = 2.5
    phi = _util.phi_segment(2, T + 1).tolist()
    want = 3.0
    for f, ph in enumerate(phi, start=2):
        want += 4.0 * ph * float(f) ** (-c)
    tracemalloc.start()
    try:
        got = enumeration.zeta_partial(P1, (1,), c, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (want, 3 + 4 * sum(phi))
    assert peak <= 5_000_000, peak


def test_p1_zeta_partial_stops_when_terms_vanish():
    # At c = 6 every term past F of about 2000 is below half an ulp of the
    # partial sum: the sum stops there, bit-identical to the loop over all
    # T fibers.  The count is the first chunk's weights at T = 10^4, and
    # comes from count_points at T = 3 * 2^16 + 17.
    for T in (10**4, 3 * 2**16 + 17):
        phi = _util.phi_segment(2, T + 1).tolist()
        want = 3.0
        for f, ph in enumerate(phi, start=2):
            want += 4.0 * ph * float(f) ** -6.0
        assert enumeration.zeta_partial(P1, (1,), 6, T) == (want, 3 + 4 * sum(phi))
    # At rho, s = 3, B = 10^14 (T = 10^7) the sum is that at B = 10^12.
    t0 = time.perf_counter()
    far, _ = fourier.zeta_truncated(P1, P1.rho, 3, 10**14)
    elapsed = time.perf_counter() - t0
    near, _ = fourier.zeta_truncated(P1, P1.rho, 3, 10**12)
    assert far.hex() == near.hex()
    assert elapsed < 0.5, elapsed


def test_blp21_count_lists_mu_only_to_e0(monkeypatch):
    # The list sieve covers e <= E0 (158 here), not G_1 = 316227.
    def guarded(n, sieve=mu_sieve):
        if n > 10**5:
            raise AssertionError(f"mu_sieve({n}) on the fiber path")
        return sieve(n)

    for module in (_util, enumeration):
        monkeypatch.setattr(module, "mu_sieve", guarded)
    lam, B, want = BENCH_BLP21[0]
    assert enumeration.count_points(BLP21, lam, B) == want


def test_blp21_int64_guard_before_tables(monkeypatch):
    # T_F = 2^32 for every fiber at lambda = (1, 1): refused before any
    # sieve or fiber table over the 2^32 fibers.
    def refuse(*args):
        raise AssertionError("fiber table built")

    def ends_only(lam, B, fibers, bounds=enumeration._blp21_fiber_bounds):
        if len(fibers) > 2:
            refuse()
        return bounds(lam, B, fibers)

    for name in ("mu_segment", "phi_segment", "mu_sieve"):
        monkeypatch.setattr(enumeration, name, refuse)
    monkeypatch.setattr(enumeration, "_blp21_fiber_bounds", ends_only)
    with pytest.raises(CapabilityError, match="2\\^30"):
        enumeration.count_points(BLP21, (1, 1), 2**32)


class _Reached(Exception):
    """Raised by a patched allocating helper: the guards let the call through."""


def _reached(*args):
    raise _Reached()


def test_pn_memory_guard_before_sieve(monkeypatch):
    # T = 2^36 is the last Moebius sum allowed (a mu sieve of 2^24 values);
    # one past it is refused before mertens_quotients sieves anything.
    monkeypatch.setattr(enumeration, "mertens_quotients", _reached)
    p3 = geometry.load_model("P3")
    for model, k in ((P1, 2), (p3, 4)):
        with pytest.raises(_Reached):
            enumeration.count_points(model, model.rho, (2**36) ** k)
        with pytest.raises(CapabilityError, match="2\\^36"):
            enumeration.count_points(model, model.rho, (2**36 + 1) ** k)


def test_blp21_memory_guard_before_tables(monkeypatch):
    # f_max = B at lambda = (1, 1), and G_1 = T_1 = isqrt(B) at rho: the last
    # allowed f_max = 2^24 and G_1 = 2^27 reach the tables, one past them is
    # refused before any table is built.
    def ends_only(lam, B, fibers, bounds=enumeration._blp21_fiber_bounds):
        if len(fibers) > 2:
            _reached()
        return bounds(lam, B, fibers)

    for name in ("mu_segment", "phi_segment", "mu_sieve"):
        monkeypatch.setattr(enumeration, name, _reached)
    monkeypatch.setattr(enumeration, "_blp21_fiber_bounds", ends_only)
    for lam, B, past in (((1, 1), 2**24, 2**24 + 1), (BLP21.rho, 2**54, (2**27 + 1) ** 2)):
        with pytest.raises(_Reached):
            enumeration.count_points(BLP21, lam, B)
        with pytest.raises(CapabilityError, match="f_max <= 2\\^24"):
            enumeration.count_points(BLP21, lam, past)


def test_exact_sum_of_int64_halves():
    rng = np.random.default_rng(5)
    for size in (0, 1, 7, 2**15):
        terms = rng.integers(-(2**62) + 1, 2**62, size=size, dtype=np.int64)
        assert enumeration._exact_sum(terms) == sum(terms.tolist())
    for extreme in (2**62 - 1, -(2**62) + 1):
        terms = np.full(2**15, extreme, dtype=np.int64)
        assert enumeration._exact_sum(terms) == 2**15 * extreme
