"""Completeness, pins, fits, and soundness proofs of the point enumerator."""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from math import isqrt

import numpy as np
import pytest

from gacount import _util, enumeration, fourier, geometry, heights, tamagawa
from gacount._util import CapabilityError, as_fraction, mertens_quotients
from conftest import global_height, pn_shell_sum, random_point

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


def test_candidate_budget_guard():
    # B = 10^9 needs R (2R + 1)^2 ~ 1.3e14 candidates (R = 31622), over
    # both module budgets; the guard raises before any slice is scanned.
    m = geometry.load_model("BlP2-2")
    with pytest.raises(CapabilityError):
        enumeration.count_points(m, m.rho, 10**9)
    with pytest.raises(CapabilityError):
        list(enumeration.enumerate_points(m, m.rho, 10**9))


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
                        lambda model, lam, B: 1000 - int(B))
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
    # with dataclasses.replace keeps its strategy and box slack.
    renamed = dataclasses.replace(model, id="renamed")
    B = 30
    assert enumeration.count_points(renamed, renamed.rho, B) == \
        enumeration.count_points(model, model.rho, B)
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


def _kernel_points(model, lam, B, R):
    """(points, generator heights) of _box_kernel as tuples, in its order."""
    points, hts = [], []
    for zs, xs, hs in enumeration._box_kernel(model, lam, B, R):
        points += [(z, *x) for z, x in zip(zs.tolist(), xs.tolist())]
        hts += [tuple(h) for h in hs.tolist()]
    return points, hts


def _assert_kernel_is_scan(model, lam, B):
    # The loop _box_scan decides each primitive candidate by height_test; the
    # kernel must return its points, in its order, with their heights.
    lam = geometry.require_interior(model, lam)
    B = Fraction(B)
    R = enumeration._box_radius(model, lam, B)
    want = list(enumeration._box_scan(model, lam, B, R))
    points, hts = _kernel_points(model, lam, B, R)
    assert points == want, (model.id, lam, B)
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


@pytest.fixture
def exact_calls(monkeypatch):
    """A one-cell list counting the exact height tests that enumeration
    prepares with height_test: the kernel's fallbacks, the float root's
    bisections and the loop scan's tests."""
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
        for coords in enumeration._box_scan(m, lam, Fraction(60), R):
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


def test_box_kernel_block_seams(monkeypatch):
    # One Z-slice per NumPy pass and the whole box in one pass: the kernel
    # returns _box_scan's points in its order with their heights, and the
    # counts and zeta sums read from it do not change.  The bounds are 60,
    # the most frequent height up to 60 (dense ties H = B) and 1e-15
    # relative above and below it; lambda = 7/2, 2, ... keeps the exact tie
    # test at rational exponents covered.
    eps = Fraction(1, 10**15)
    cases = []
    for mid in ("BlP2-2", "BlP2-3", "P2"):
        m = geometry.load_model(mid)
        for lam in (m.rho, (Fraction(7, 2),) + (Fraction(2),) * (m.rank - 1)):
            lam = geometry.require_interior(m, lam)
            exps = geometry.generator_exponents(m, lam)
            R = enumeration._box_radius(m, lam, Fraction(60))
            found = {}
            for coords in enumeration._box_scan(m, lam, Fraction(60), R):
                value = math.prod(h ** float(e)
                                  for h, e in zip(heights.generator_heights(m, coords), exps))
                found[value] = found.get(value, 0) + 1
            common = Fraction(max(found, key=found.get))
            cases += [(m, lam, B) for B in (Fraction(60), common, common * (1 - eps),
                                            common * (1 + eps)) if B >= 1]
    scans = [list(enumeration._box_scan(m, lam, B, enumeration._box_radius(m, lam, B)))
             for m, lam, B in cases]
    results = {}
    for block in (1, 2**30):
        monkeypatch.setattr(enumeration, "_SLICE_BLOCK", block)
        results[block] = []
        for (m, lam, B), want in zip(cases, scans):
            R = enumeration._box_radius(m, lam, B)
            points, hts = _kernel_points(m, lam, B, R)
            assert points == want, (m.id, lam, B, block)
            assert hts == [heights.generator_heights(m, c) for c in want]
            results[block].append((enumeration.count_points(m, lam, B),
                                   enumeration.zeta_partial(m, lam, 4.5, B)))
        m, lam, B = cases[0]
        R = enumeration._box_radius(m, lam, B)
        assert len(list(enumeration._box_kernel(m, lam, B, R))) == (R if block == 1 else 1)
    assert results[1] == results[2**30]


def test_box_kernel_pins_past_the_loop_scan():
    # BlP2-3 at rho where the loop scan is too slow to be the oracle (about
    # 17 s at B = 2000): counts and a zeta sum of the kernel that decided
    # one Z-slice per NumPy pass.
    m = geometry.load_model("BlP2-3")
    assert enumeration.count_points(m, m.rho, 2000) == 72463
    assert enumeration.count_points(m, m.rho, 8000) == 378895
    assert fourier.zeta_truncated(m, m.rho, 4, 2000)[0].hex() == "0x1.de44c4fd83efcp+2"


def test_box_kernel_exact_checks_are_few(exact_calls):
    # Only the candidates inside the float margin reach the exact test.
    m = geometry.load_model("BlP2-2")
    lam = geometry.require_interior(m, m.rho)
    R = enumeration._box_radius(m, lam, Fraction(400))
    assert sum(len(xs) for _, xs, _ in enumeration._box_kernel(m, lam, Fraction(400), R)) == 6681
    assert 0 < exact_calls[0] < 1000


def test_box_kernel_int64_guard():
    # Section values past int64 are refused by an exception, not an assert,
    # before any array is built.
    m = geometry.load_model("BlP2-3")
    lam = geometry.require_interior(m, m.rho)
    with pytest.raises(CapabilityError):
        next(enumeration._box_kernel(m, lam, Fraction(10), 2**62))


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
            next(enumeration._box_kernel(stand_in, lam, Fraction(10), 3))


def test_box_count_memory_peak():
    # The kernel holds the X grid, its gcd and per generator system the gcd
    # g_G and the largest |l| of its sections other than Z, and one block's
    # arrays, never the box: at R = 100 a block is one Z-slice of 201^2
    # candidates, whose float log sum and log terms are 8 bytes each, and
    # the exact heights only of the rows it keeps.  4.98 MB traced for
    # BlP2-2 at B = 10^4 now, 6.18 MB for the kernel that formed every
    # candidate's heights and logs, 7.47 MB for the one that kept every
    # section's X-part over the grid (Python 3.11, NumPy 2.4).  NumPy
    # reports its buffers to tracemalloc, so the peak is deterministic.
    m = geometry.load_model("BlP2-2")
    lam = geometry.require_interior(m, m.rho)
    B = Fraction(10**4)
    R = enumeration._box_radius(m, lam, B)
    tracemalloc.start()
    try:
        assert sum(len(xs) for _, xs, _ in enumeration._box_kernel(m, lam, B, R)) == 266913
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
    # On the box models zeta_partial's sum is, bit for bit, the left-to-right
    # sum of float(H)^(-s) over enumerate_points: at rho, at an integer
    # lambda with a negative generator exponent (m_H = -1 on BlP2-2, -2 on
    # BlP2-3) or a square height (P2 at 2), and at lambda = 7/2, 2, ....  On
    # P^n it is, bit for bit, math.fsum of the shell terms w_F F^-c with the
    # w_F counted off enumerate_points, and within its proved float bound,
    # 11 2^-53 of the sum, of the points' sum (math.fsum of float(H)^(-s),
    # each term within (8s + 9) 2^-53 with pow within 4 ulp).  B is the
    # height of many points at rho, so the exact tie test decides H = B there.
    model = geometry.load_model(mid)
    for lam in lams:
        for bound in (B, B - Fraction(1, 3)):
            hts = point_heights(model, lam, bound)
            for s in (4.5, 7.0):
                got = enumeration.zeta_partial(model, lam, s, bound)
                if model.kind == "pn":
                    assert got == pn_shell_sum(model, lam, s, bound), (lam, bound, s)
                    want = math.fsum(float(H) ** -s for H in hts)
                    assert abs(got[0] - want) <= (11 * got[0] + (8 * s + 10) * want) * 2.0**-53
                    assert got[1] == len(hts)
                    continue
                want = 0.0
                for H in hts:
                    want += float(H) ** -s
                assert got == (want, len(hts)), (mid, lam, bound, s)
            if lam == model.rho and bound == B:
                assert hts.count(B) > 50


def test_box_counts_without_loop_scan(monkeypatch):
    # zeta_truncated and BlP2-3's count_points run the kernel, BlP2-2's
    # count_points the torsor sum; the loop scan is only the oracle behind
    # enumerate_points.
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
        assert enumeration.count_points(m, m.rho, B) == want[mid][0]
        assert fourier.zeta_truncated(m, m.rho, 4, B) == want[mid][1]


# ---------------------------------------------------------------------------
# The torsor strategy on BlP2-2.

BLP22 = geometry.load_model("BlP2-2")
# The lambda grid of the torsor count: rho, m_H = -1 at (5, 2, 2), m_F1 = -1
# at (2, 3, 1) (its mirror (2, 1, 3) swaps the pencils), rational lambda.
TORSOR_LAMS = ((3, 2, 2), (5, 2, 2), (3, 1, 1), (2, 3, 1), (2, 1, 3), (Fraction(7, 2), 2, 2))
# The box kernel's counts at rho.
TORSOR_PINS = ((400, 6681), (10**4, 266913), (4 * 10**4, 1275201))


def test_torsor_kind_and_pins():
    assert BLP22.kind == "torsor"
    for B, want in TORSOR_PINS:
        assert enumeration.count_points(BLP22, BLP22.rho, B) == want, B


def test_torsor_count_matches_oracle(exact_calls):
    # Bounds at heights that occur, the most frequent one among them (dense
    # ties H = B), and 1e-15 relative above and below each: the float roots
    # cannot tell these apart, so the exact test decides them.  The oracle
    # is the exact test on the points of one loop scan up to 2 B0, B0 small
    # enough for the scan (lambda_min = 1 takes a box of radius 2 B0).
    eps = Fraction(1, 10**15)
    for lam in TORSOR_LAMS:
        lam = geometry.require_interior(BLP22, lam)
        exps = geometry.generator_exponents(BLP22, lam)
        b0 = 100 if min(lam) == 2 else 8
        hts = [heights.generator_heights(BLP22, pt.coords)
               for pt in enumeration.enumerate_points(BLP22, lam, 2 * b0)]
        found = {}
        for hs in hts:
            value = math.prod(h ** float(e) for h, e in zip(hs, exps))
            if value <= b0:
                found[value] = found.get(value, 0) + 1
        common = max(found, key=found.get)
        assert found[common] >= 4
        for h in sorted(found)[:: max(1, len(found) // 6)] + [common]:
            h = Fraction(h)
            for B in (h, h * (1 - eps), h * (1 + eps)):
                leq = _util.height_test(exps, B)
                want = sum(1 for hs in hts if leq(hs)) if B >= 1 else 0
                assert enumeration.count_points(BLP22, lam, B) == want, (lam, B)
    assert exact_calls[0] > 0


def test_torsor_kind_at_either_center_order():
    # The centers (0, 1), (1, 0) list the pencils the other way round; the
    # count is symmetric in them.
    swapped = geometry._validate(geometry._blowup(((0, 1), (1, 0))))
    assert swapped.kind == "torsor"
    for lam in ((3, 2, 2), (2, 3, 1), (2, 1, 3)):
        for B in (7, 16):
            box = sum(1 for _ in enumeration.enumerate_points(swapped, lam, B))
            assert enumeration.count_points(swapped, lam, B) == box, (lam, B)


def test_torsor_count_runs_no_box_code(monkeypatch):
    # count_points on BlP2-2 counts on the torsor; the box kernel is left to
    # zeta_partial and BlP2-3, the loop scan to enumerate_points.
    def refuse(*args, **kwargs):
        raise AssertionError("box code called")

    want = {(lam, B): enumeration.count_points(BLP22, lam, B)
            for lam in TORSOR_LAMS for B in (1, 10, 60)}
    monkeypatch.setattr(enumeration, "_box_kernel", refuse)
    monkeypatch.setattr(enumeration, "_box_scan", refuse)
    for (lam, B), n in want.items():
        assert enumeration.count_points(BLP22, lam, B) == n


def test_torsor_guards_before_any_row(monkeypatch):
    # 1.5e8 plans about 1.65e8 rows at rho, past 2^27; 1e9 has more than 2^18
    # triples (g1, g2, k); lambda = 1/10 makes the box radius 10^10, past
    # the int64 limit R < 2^30.  Each is refused at once, before the divisor
    # table or any row, and the message names the limit.
    def refuse(*args, **kwargs):
        raise AssertionError("table built")

    monkeypatch.setattr(enumeration, "_squarefree_divisors", refuse)
    tenth = (Fraction(1, 10),) * 3
    for lam, B, limit in ((BLP22.rho, 15 * 10**7, "rows .* passes the limit 2\\^27"),
                          (BLP22.rho, 10**9, "triples .* passes the limit 2\\^18"),
                          (tenth, 10, "R \\+ 1 passes the limit 2\\^30")):
        t0 = time.perf_counter()
        with pytest.raises(CapabilityError, match=limit):
            enumeration.count_points(BLP22, lam, B)
        assert time.perf_counter() - t0 < 1.0


def test_torsor_asymptotic_estimate():
    # An estimate, not a proof: the degree-2 lead of N(B) / B in log B over
    # 1e3 .. 3e6 reads 0.10787, 9.1 % under the predicted
    # c tau / 2! = 0.1186368; windows that start at 1e4 read 11 to 18 %
    # over it.  The 25 % tolerance holds the count to the paper's
    # B (log B)^2 law.
    ladder = enumeration.count_ladder(BLP22, BLP22.rho,
                                      [k * 10**j for j in range(3, 7) for k in (1, 3)])
    # N(1e6) and N(3e6), past the box kernel's reach.
    assert ladder.rows[-2:] == ((10**6, 46098481), (3 * 10**6, 154338345))
    coeffs, _ = enumeration.fit_leading(ladder, 1, 3)
    predicted = tamagawa.predicted_constant(BLP22)
    assert predicted == pytest.approx(0.1186368, rel=1e-6)
    assert abs(coeffs[-1] / predicted - 1) < 0.25, coeffs


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


def phi_loop(n, k=1):
    """The Jordan totients J_k(0..n) (phi at k = 1) by a loop over the
    multiples of every prime."""
    phi = [m**k for m in range(n + 1)]
    for p in range(2, n + 1):
        if phi[p] == p**k:
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p**k
    return phi


def test_mu_segment_matches_loop():
    want = mu_loop(3000)
    for n in range(3001):
        assert _util.mu_segment(1, n + 1).tolist() == want[1 : n + 1], n
    big = _util.mu_segment(1, 10**6 + 1).tolist()
    loop = mu_loop(10**6)
    assert big == loop[1:]
    assert sum(big) == 212  # M(10^6), OEIS A084237
    # The sign pass runs in chunks of 2^14: segments that start off 1 and
    # span many chunks, one ending just past a chunk edge.
    for a, b in ((159, 316228), (5000, 10**6), (7, 2**14 + 8)):
        assert _util.mu_segment(a, b).tolist() == loop[a:b], (a, b)


def test_phi_segment_matches_loop():
    # phi = J_1, and J_2 and J_3, on every prefix up to 3000; J_3 up to
    # 2^21, where (b - 1)^3 nears 2^63, against the factorizer.
    for k in (1, 2, 3):
        want = phi_loop(3000, k)
        for n in range(3001):
            assert _util.jordan_segment(1, n + 1, k).tolist() == want[1 : n + 1], (k, n)
    assert _util.jordan_segment(1, 10**6 + 1, 1).tolist() == phi_loop(10**6)[1:]
    top = range(2**21 - 500, 2**21)
    want = [math.prod(p**(3 * e) - p**(3 * e - 3) for p, e in _util.factorize(m).items())
            for m in top]
    assert _util.jordan_segment(top.start, top.stop, 3).tolist() == want


def test_sieve_segments_match_loop():
    mu, phi = mu_loop(1000), phi_loop(1000)
    for a in range(1, 300, 7):
        for b in range(a, 1001, 13):
            assert _util.mu_segment(a, b).tolist() == mu[a:b], (a, b)
            assert _util.jordan_segment(a, b, 1).tolist() == phi[a:b], (a, b)


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


def first_true(ok):
    """The least T >= 1 with ok(T), for a test ok that fails on an initial
    run of T and holds after it: doubling, then bisection."""
    lo, hi = 0, 1
    while not ok(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
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
            T = first_true(lambda T: mertens_pass_sizes(T)[which] > n)
            grid |= {T - 1, T}
    return sorted(grid)


def mertens_at_quotients(T):
    """{v: M(v)} for v = 0 and every quotient v of T (quotients(T)), read from
    the lookup mertens_quotients(T) at k = T//v, where T//k = v, and at
    k = T + 1 for v = 0."""
    vs = sorted(quotients(T))
    k = np.array([T // v if v else T + 1 for v in vs], dtype=np.int64)
    assert (T // k).tolist() == vs
    return dict(zip(vs, mertens_quotients(T)(k).tolist()))


def test_mertens_quotients_match_recursion():
    for T in mertens_grid():
        assert mertens_at_quotients(T) == mertens_recursion(T), T


def test_mertens_quotients_match_recursion_in_small_chunks(monkeypatch):
    # Chunks of 1, 3 and 100 pairs end inside rows, at row ends and past
    # empty rows of the (k, j) pass.
    Ts = [*range(0, 300, 7), 4096, 20000, 64000, 69003]
    want = {T: mertens_recursion(T) for T in Ts}
    for chunk in (1, 3, 100):
        monkeypatch.setattr(_util, "_CHUNK", chunk)
        for T in Ts:
            assert mertens_at_quotients(T) == want[T], (chunk, T)


@pytest.fixture(scope="module")
def mertens_1e8():
    return mertens_at_quotients(10**8)


def test_mertens_quotients_match_recursion_at_1e8(mertens_1e8):
    assert mertens_1e8 == mertens_recursion(10**8)


def test_mertens_quotients_memory_peak():
    # The table is int64 and the ragged passes go _CHUNK pairs at a time;
    # with a lookup at every k <= isqrt(T) the traced peak at T = 10^8 is
    # 2.7 MB (3.9 MB when a dict of the quotients came back, 6.5 MB for the
    # Python-int recursion; Python 3.11, NumPy 2.4).  NumPy reports its
    # buffers to tracemalloc.
    T = 10**8
    tracemalloc.start()
    try:
        mertens_quotients(T)(np.arange(1, isqrt(T) + 1, dtype=np.int64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6_500_000, peak


def test_mertens_quotients_match_sieve():
    # Every k from 1 to T + 1, so every quotient and every k of its block.
    prefix = np.array(list(accumulate(mu_loop(5000))))
    for T in range(5001):
        k = np.arange(1, T + 2, dtype=np.int64)
        assert (mertens_quotients(T)(k) == prefix[T // k]).all(), T


def test_mertens_quotients_oeis_a084237(mertens_1e8):
    want = (-1, 1, 2, -23, -48, 212, 1037)
    one = np.ones(1, dtype=np.int64)
    assert tuple(int(mertens_quotients(10**k)(one)[0]) for k in range(1, 8)) == want
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
    mu = mu_loop(2999)
    for T in range(1, 3000):
        assert enumeration.count_points(m, m.rho, T ** m.rho[0]) == \
            pn_direct(m.dim, T, mu), T


def test_pn_count_matches_direct_loop_at_bench_bounds():
    mu = mu_loop(707106)
    for mid, B, want in BENCH_PN:
        m = geometry.load_model(mid)
        T = enumeration.height_radius(Fraction(B), Fraction(m.rho[0]))
        assert pn_direct(m.dim, T, mu) == want
        assert enumeration.count_points(m, m.rho, B) == want


def test_pn_count_is_sublinear(monkeypatch):
    # No sieve reaching T: the Mertens table sieves to about T^{2/3}.
    def guarded_segment(a, b, segment=_util.mu_segment):
        if b - a > 10**5:
            raise AssertionError(f"mu_segment({a}, {b}) on the P^n path")
        return segment(a, b)

    for module in (_util, enumeration):
        monkeypatch.setattr(module, "mu_segment", guarded_segment)
    for mid, B, want in BENCH_PN[::2]:
        m = geometry.load_model(mid)
        assert enumeration.count_points(m, m.rho, B) == want


def pn_split_points(n, limit):
    """The least T whose Moebius sum has a term with bound at least limit:
    in the d <= isqrt(T) part (d = 1, bound f(T)), and in the block part
    (q = T//(isqrt(T) + 1), bound f(q) (T/(q(q+1)) + 1)); f(q) = q (2q+1)^n."""
    def f(q):
        return q * (2 * q + 1) ** n

    def block(T):
        q = T // (isqrt(T) + 1)
        return q > 0 and f(q) * (T + q * (q + 1)) >= limit * q * (q + 1)

    return first_true(lambda T: f(T) >= limit), first_true(block)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pn_count_at_int64_split_points(monkeypatch, n):
    # Just below and at each T where a first term leaves the int64 sum, at
    # the real limit 2^62 (P2's and P3's d = 1 split, at T = 1048576 and
    # 27555) and at lowered limits, wherever the direct loop can reach it.
    mu = mu_loop(1_100_000)
    for limit in (2**62, 2**36, 2**30, 2**24, 2**20):
        monkeypatch.setattr(enumeration, "_TERM_LIMIT", limit)
        for split in pn_split_points(n, limit):
            if split <= 1_100_000:
                for T in (split - 1, split):
                    assert enumeration._pn_count(n, T) == pn_direct(n, T, mu), (limit, T)


def test_pn_count_all_python_terms(monkeypatch):
    # A limit of 1 sends every term to the Python-int branch; the counts
    # stay those of the int64 sums.  The large T are past the real split
    # points: P1's and P3's first terms d <= isqrt(T), and P3's last blocks
    # from T = 536890608 on, take Python ints there.
    cases = [(n, T) for n in (1, 2, 3) for T in (*range(1, 400), 4096, 65537, 10**6)]
    cases += [(1, 2 * 10**9), (2, 10**10), (3, 2**33)]
    want = [enumeration._pn_count(n, T) for n, T in cases]
    monkeypatch.setattr(enumeration, "_TERM_LIMIT", 1)
    assert [enumeration._pn_count(n, T) for n, T in cases] == want
    for mid, B, want_b in BENCH_PN:
        m = geometry.load_model(mid)
        assert enumeration.count_points(m, m.rho, B) == want_b


def blp21_fiber_bound_fractions(lam, B, F):
    """T_F by Fraction powers at every exponent: the oracle of
    enumeration._blp21_fiber_bounds."""
    m_h = lam[1]
    m_f = lam[0] - lam[1]
    rhs = B * Fraction(F) ** (-m_f) if m_f.denominator == 1 else None
    if rhs is None:
        d = m_f.denominator
        return enumeration.height_radius(B**d * Fraction(F) ** (-(m_f * d)), m_h * d)
    if rhs < 1:
        return 0
    return enumeration.height_radius(rhs, m_h)


def test_blp21_fiber_bounds_float_estimate():
    # The float root against the Fraction oracle on 3000 fibers: the
    # exponent m_H = p >= 3 at (5, 4) (p = 4), (11, 10) (p = 10), (2, 5)
    # (p = 3) and (1/3, 1) (p = 3), m_F < 0 at (2, 5), (1/3, 1) and (1, 2),
    # p = 1 at (2, 1).  At (5, 4) and (11, 10), B^d F^{-k} is far past
    # int64.  At (2, 1), T_F = B//F is B/F exactly at each of the divisors F
    # of B; at rho, B = 1e11, the plain floor of the float estimate is off
    # at one F.  Then a grid of lambda and B on 2000 fibers: rational m_H
    # and m_F, m_F = 0 at (1, 1) (T_F = B = 10^11 there) and T_F = 0 past
    # f_max at (7/2, 2).
    cases = [(lam, B, 3000) for lam, B in (
        ((5, 4), 2**100), ((11, 10), 2**220), ((2, 5), 10**20), ((1, 3), 10**11),
        ((Fraction(1, 3), 1), 16000), ((1, 2), Fraction(10**15, 7)),
        ((2, 1), 720720 * 1000), ((2, 1), Fraction(10**9 + 1, 3)), (BLP21.rho, 10**11))]
    cases += [(lam, B, 2000)
              for lam in (BLP21.rho, (1, 1), (2, 3), (Fraction(7, 2), 2),
                          (Fraction(5, 2), Fraction(3, 2)))
              for B in (10**4, 10**11, 100.3, Fraction(10**9 + 7, 3))]
    for lam, B, n in cases:
        vals = geometry.require_interior(BLP21, lam)
        B = as_fraction(B)
        want = [blp21_fiber_bound_fractions(vals, B, F) for F in range(1, n + 1)]
        assert max(want) < 2**62, (lam, B)
        got = enumeration._blp21_fiber_bounds(vals, B, np.arange(1, n + 1, dtype=np.int64))
        assert got.dtype == np.int64 and got.tolist() == want, (lam, B)


def test_blp21_fiber_table_at_m_f_zero_makes_no_exact_test(exact_calls):
    # At lambda = (1, 1) every T_F is T_1, an integer root: the float root
    # would send each of the 10^4 fibers to the exact bisection.
    T, _, _ = enumeration._blp21_fibers(geometry.require_interior(BLP21, (1, 1)),
                                        Fraction(10**4), 10**4)
    assert T.tolist() == [10**4] * 10**4
    assert exact_calls[0] == 0


def test_blp21_fiber_bounds_memory_peak():
    # The float estimate holds two float64 arrays beside the int64 bounds
    # whatever the exponent p: 25 bytes a fiber traced at p = 2, 10 and 100
    # (Python 3.11, NumPy 2.4).
    fibers = np.arange(1, 2**18 + 1, dtype=np.int64)
    for lam, B in ((BLP21.rho, 2**54), ((11, 10), 2**220), ((101, 100), 2**1818)):
        vals = geometry.require_interior(BLP21, lam)
        tracemalloc.start()
        try:
            enumeration._blp21_fiber_bounds(vals, as_fraction(B), fibers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28 * len(fibers), (lam, peak)


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


def blp21_direct(lam, B, first=1):
    """The fiber sum by a loop over every e <= G_F in every fiber F >= first,
    with T_F from Fraction powers: the oracle of the split sum."""
    f_max = enumeration.height_radius(B, lam[0])
    if f_max < first:
        return 0
    phi = [0, *_util.jordan_segment(1, f_max + 1, 1).tolist()]
    rows = []
    for F in range(first, f_max + 1):
        t = blp21_fiber_bound_fractions(lam, B, F)
        rows.append((F, t, t // F))
    mu = mu_loop(max(g for _, _, g in rows))
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
        assert enumeration.count_points(BLP21, lam, B) == want, (lam, B)


def blp21_central_direct(lam, B):
    """The points of BlP2-1's three central fibers y = 0, 1, -1 (F = 1) by a
    loop over their (g, X), g >= 1 and gcd(g, X) = 1: the heights are
    h_H = max(g, |X|) and h_F = 1, so H <= B iff max(g, |X|) <= t, the
    largest t that the exact height test lets through."""
    leq = _util.height_test(geometry.generator_exponents(BLP21, lam), B)
    t = 0
    while leq((t + 1, 1)):
        t += 1
    xs = np.arange(-t, t + 1)
    return 3 * sum(int((np.gcd(xs, g) == 1).sum()) for g in range(1, t + 1))


@pytest.mark.parametrize("lam", BLP21_LAMBDAS[:4], ids=lambda lam: ",".join(map(str, lam)))
def test_blp21_central_fiber_is_p1(lam):
    # The central fiber F = 1 holds 3 N_P1(T_1) points, T_1 at lambda_E; the
    # rest of the count is the fibers F >= 2.  m_F > 0 at rho and (7/2, 2),
    # = 0 at (1, 1) and < 0 at (2, 3).
    vals = geometry.require_interior(BLP21, lam)
    for B in (1, 2, 100, 4999):
        central = blp21_central_direct(vals, Fraction(B))
        assert central == 3 * enumeration.count_points(P1, (vals[1],), B), (lam, B)
        assert (enumeration.count_points(BLP21, lam, B) - central
                == blp21_direct(vals, Fraction(B), first=2)), (lam, B)


def test_blp21_count_bench_pins():
    for lam, B, want in BENCH_BLP21:
        vals = geometry.require_interior(BLP21, lam)
        assert blp21_direct(vals, Fraction(B)) == want
        assert enumeration.count_points(BLP21, lam, B) == want


# BlP2-1's zeta sums (lambda, s, B, the sum's float.hex, the points summed)
# and counts (lambda, B, N; the bench's two are BENCH_BLP21) as the separate
# passes for the sum and the count gave them, before both read the one fiber
# table of _blp21_fibers.
BLP21_ZETA_PINS = (
    (BLP21.rho, 2, 300, "0x1.5aacd83e48cf2p+3", 2441),
    (BLP21.rho, 3.5, 2 * 10**4, "0x1.23e716b9de796p+3", 248361),
    (BLP21.rho, 4, 10**5, "0x1.21cc083ccf477p+3", 1377497),
    ((Fraction(7, 2), 2), 3, 2 * 10**4, "0x1.27e1dc18a4243p+3", 137161),
    ((1, 1), 5, 300, "0x1.578bc35e5163dp+3", 90085673),
)
BLP21_COUNT_PINS = (((2, 3), 10**9, 70412036250809), ((Fraction(7, 2), 2), 10**8, 785001281))


def test_blp21_zeta_and_count_pins():
    for lam, s, B, want, n in BLP21_ZETA_PINS:
        got, count = enumeration.zeta_partial(BLP21, lam, s, B)
        assert (got.hex(), count) == (want, n), (lam, s, B)
    for lam, B, want in BLP21_COUNT_PINS:
        assert enumeration.count_points(BLP21, lam, B) == want, (lam, B)


def test_blp21_zeta_refused_with_the_count():
    # At rho, B = 1e17 the count passes its guards (G_2 = 111803398), and
    # the zeta sum is refused by its own step guard (sum_F G_F T_F > 2^25)
    # once the fiber table is built, before its loop.  At 2e17 it reads the
    # fiber table the count reads, so the count's guard (G_2 > 2^27) refuses
    # it before any table.  At (40, 1), B = 2^36 the one fiber F = 1 has
    # G_1 T_1 = 2^72, which int64 would wrap to 0.  Each refusal comes in
    # under a second.
    steps = "steps .* passes the limit 2\\^25"
    for lam, s, B, match in ((BLP21.rho, 2, 10**17, steps),
                             (BLP21.rho, 2, 2 * 10**17, "G_2 passes the limit 2\\^27"),
                             ((40, 1), 3, 2**36, steps)):
        t0 = time.perf_counter()
        with pytest.raises(CapabilityError, match=match):
            fourier.zeta_truncated(BLP21, lam, s, B)
        assert time.perf_counter() - t0 < 1.0, (lam, B)


def test_blp21_zeta_loop_refused_past_its_step_limit():
    # At rho, B = 1e10 the fiber table passes the count's guard, but the
    # zeta loop would take sum_F G_F T_F ~ 1.6e10 steps (about 40 minutes):
    # refused before the loop, by a message that names the limit.
    t0 = time.perf_counter()
    with pytest.raises(CapabilityError, match="steps .* passes the limit 2\\^25"):
        fourier.zeta_truncated(BLP21, BLP21.rho, 2, 10**10)
    assert time.perf_counter() - t0 < 1.0


def test_mertens_quotients_read_once_per_count(monkeypatch):
    # The Moebius sum reads the Mertens table by one lookup call on an
    # array, never once per quotient; on BlP2-1 only the central fiber's
    # Moebius sum reads it (the fibers F >= 2 sum their own mu segment).
    calls = []

    def counted(T, quotients=mertens_quotients):
        lookup = quotients(T)

        def read(k):
            calls.append(len(k))
            return lookup(k)

        return read

    monkeypatch.setattr(enumeration, "mertens_quotients", counted)
    pn = [(geometry.load_model(mid), B, want) for mid, B, want in BENCH_PN]
    cases = [(m, m.rho, B, want) for m, B, want in pn]
    cases += [(BLP21, lam, B, want) for lam, B, want in BENCH_BLP21]
    for m, lam, B, want in cases:
        calls.clear()
        assert enumeration.count_points(m, lam, B) == want
        assert len(calls) == 1 and calls[0] > 1, (m.id, lam, calls)


def blp21_edge_on_e0(lam, B):
    """Whether some fiber F >= 2 past E0, with more than one quotient block
    of T_F, has its first block start right after E0 with no cut; E0 found
    by its definition (the smallest e with #{F >= 2 : G_F > e} <= e)."""
    f_max = enumeration.height_radius(B, lam[0])
    T = [blp21_fiber_bound_fractions(lam, B, F) for F in range(2, f_max + 1)]
    G = [t // F for F, t in enumerate(T, start=2)]
    e0 = next(e for e in range(f_max) if sum(g > e for g in G) <= e)
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


@pytest.mark.parametrize("model, lam, B", [
    # The blocks past E0 span 38 fibers in 1771 rows at rho, 99 fibers in
    # 4950 rows at (1, 1); the torsor plans 406, 10661 and 4386 rows.
    (BLP21, BLP21.rho, 10**8), (BLP21, (1, 1), 10**4),
    (BLP22, BLP22.rho, 400), (BLP22, BLP22.rho, 10**4), (BLP22, (2, 3, 1), 1000),
], ids=["BlP2-1-rho", "BlP2-1-(1,1)", "BlP2-2-rho-400", "BlP2-2-rho-1e4", "BlP2-2-(2,3,1)"])
def test_ragged_readers_in_small_chunks(monkeypatch, model, lam, B):
    # BlP2-1's quotient blocks and BlP2-2's torsor rows come from
    # _util.ragged in parts of _util._CHUNK rows: parts of 1, 3 and 100
    # rows end inside fibers and triples, at their ends and past empty ones.
    want = enumeration.count_points(model, lam, B)
    for chunk in (1, 3, 100):
        monkeypatch.setattr(_util, "_CHUNK", chunk)
        assert enumeration.count_points(model, lam, B) == want, chunk


@pytest.mark.parametrize("B", [1, 2, 7, 100, 1000, 12345, 10**6])
def test_blp21_at_hyperplane_class_counts_p2(B):
    # At lambda = (1, 1) the height of BlP2-1 is the pull-back of P2's, and
    # the affine points are the same: the fiber sum and the Moebius block
    # sum must agree.
    p2 = geometry.load_model("P2")
    assert enumeration.count_points(BLP21, (1, 1), B) == enumeration.count_points(p2, (1,), B)


def test_blp21_count_memory_peak():
    # The fiber path holds the mu segment and chunks of block rows, never an
    # array over all the rows: its traced peak stays under 2.0 MB (1.66 MB
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


def test_blp21_segment_memory_per_e():
    # At rho, B = 10^13 (G_2 = 1118033) the mu segment sets the peak: 5
    # bytes per e while it is sieved (int8 mu, int32 product) and while it
    # is cast to its int32 running sums, which are summed in place: 6.43 MB
    # traced in all (Python 3.11, NumPy 2.4).  A cast copy of the sums,
    # np.cumsum(mu, dtype=np.int32), adds 4 bytes per e more (10.8 MB).
    g_2 = 1118033
    tracemalloc.start()
    try:
        assert enumeration.count_points(BLP21, BLP21.rho, 10**13) == 319663790798793
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * g_2 + 500_000, peak


def test_fiber_weights_match_phi():
    # w_1 = 3 and w_F = 4 phi(F), on any segment [lo, hi).
    n = 3000
    want = [3] + [4 * f for f in _util.jordan_segment(2, n + 1, 1).tolist()]
    assert enumeration._fiber_weights(1, 1, n + 1).tolist() == want
    for lo, hi in ((1, 1), (1, 2), (2, 2), (2, 50), (7, 1000), (1000, n + 1)):
        w = enumeration._fiber_weights(1, lo, hi)
        assert w.dtype == np.int64 and w.tolist() == want[lo - 1 : hi - 1], (lo, hi)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fiber_weights_count_primitive_shells(n):
    # w_n(F) is the number of primitive (Z, X) with Z >= 1 and
    # max(Z, |X_i|) = F, counted by a loop for F <= 8, on any segment.
    top = 8
    want = [0] * top
    for v in itertools.product(range(1, top + 1), *[range(-top, top + 1)] * n):
        if math.gcd(*v) == 1:
            want[max(map(abs, v)) - 1] += 1
    for lo, hi in ((1, top + 1), (1, 2), (2, top + 1), (5, 7)):
        w = enumeration._fiber_weights(n, lo, hi)
        assert w.dtype == np.int64 and w.tolist() == want[lo - 1 : hi - 1], (lo, hi)


def test_pn_zeta_sums_run_no_box_code(monkeypatch):
    # zeta_partial on P^n sums its primitive shells and never reaches the box
    # kernel; P3 at rho, s = 2, B = 10^8 (refused by the box budget once)
    # takes well under a second.
    def refuse(*args, **kwargs):
        raise AssertionError("box kernel called")

    monkeypatch.setattr(enumeration, "_box_kernel", refuse)
    for mid in ("P1", "P2", "P3"):
        model = geometry.load_model(mid)
        for B in (1, 60, 10**6):
            part, n = enumeration.zeta_partial(model, model.rho, 0.0, B)
            assert n == enumeration.count_points(model, model.rho, B) == part
    P3 = geometry.load_model("P3")
    t0 = time.perf_counter()
    part, tail = fourier.zeta_truncated(P3, P3.rho, 2, 10**8)
    assert time.perf_counter() - t0 < 1.0
    assert 27.9 < part < part + tail < 28


def p1_zeta_terms(c: float, stop: int) -> list:
    """The terms w_F F^-c of P1's zeta sum for F = 1..stop, from one NumPy
    pass over all phi(F)."""
    phi = _util.jordan_segment(2, stop + 1, 1)
    return [3.0] + (4 * phi * np.arange(2, stop + 1, dtype=float) ** -c).tolist()


def test_p1_zeta_partial_in_chunks_of_fibers():
    # P1's point sum walks the fibers _WEIGHT_CHUNK at a time: T = 196625
    # spans four chunks (c = 2.5 stops at no fiber before T), and the sum is,
    # bit for bit, math.fsum of the terms of one pass over all phi(F).  Its
    # traced peak is that of one chunk (3.1 MB now; Python 3.11, NumPy 2.4).
    T = 3 * 2**16 + 17
    c = 2.5
    assert enumeration._pn_zeta_stop(1, c, T) == (T, 4)
    terms = p1_zeta_terms(c, T)
    want = (math.fsum(terms), 3 + 4 * int(_util.jordan_segment(2, T + 1, 1).sum()))
    tracemalloc.start()
    try:
        got = enumeration.zeta_partial(P1, (1,), c, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 5_000_000, peak


def test_p1_zeta_partial_stops_when_the_tail_is_below_its_float_bound():
    # At c = 6 the tail bound past F, 4 F^-4 / 4, first falls to 48 * 2^-53
    # (the float bound of a sum >= 3) near F = 3700: the sum stops there,
    # _pn_zeta_stop, and is, bit for bit, math.fsum of the terms up to it;
    # the count is that of the points summed.
    for T in (10**4, 3 * 2**16 + 17):
        stop, _ = enumeration._pn_zeta_stop(1, 6.0, T)
        assert 3000 < stop < 4500
        assert 4.0 * stop ** -4.0 / 4.0 <= 48 * 2.0**-53 < 4.0 * (stop - 1) ** -4.0 / 4.0
        want = (math.fsum(p1_zeta_terms(6.0, stop)),
                3 + 4 * int(_util.jordan_segment(2, stop + 1, 1).sum()))
        assert enumeration.zeta_partial(P1, (1,), 6, T) == want
    # Below the stop the sum runs to f_max.
    assert enumeration._pn_zeta_stop(1, 6.0, 1000)[0] == 1000
    assert enumeration._pn_zeta_stop(1, 2.0, 10**30)[0] == 10**30
    # At rho, s = 3, B = 10^14 (T = 10^7) the sum is that at B = 10^12.
    t0 = time.perf_counter()
    far, _ = fourier.zeta_truncated(P1, P1.rho, 3, 10**14)
    elapsed = time.perf_counter() - t0
    near, _ = fourier.zeta_truncated(P1, P1.rho, 3, 10**12)
    assert far.hex() == near.hex()
    assert elapsed < 0.5, elapsed


def test_blp21_count_sieves_mu_once(monkeypatch):
    # The fibers F >= 2 read mu and M from one segment over [1, G_2],
    # G_2 = 111803 at rho, B = 10^11; at B = 1, 2, 7 (f_max = 1) the count
    # is the central fiber's alone and sieves no segment.
    calls = []

    def recorded(a, b, segment=_util.mu_segment):
        calls.append((a, b))
        return segment(a, b)

    monkeypatch.setattr(enumeration, "mu_segment", recorded)
    lam, B, want = BENCH_BLP21[0]
    assert enumeration.count_points(BLP21, lam, B) == want
    assert calls == [(1, 111804)]
    vals = geometry.require_interior(BLP21, BLP21.rho)
    for B in (1, 2, 7):
        calls.clear()
        assert enumeration.count_points(BLP21, BLP21.rho, B) == blp21_direct(vals, Fraction(B))
        assert calls == [], B


def test_blp21_int64_guard_before_tables(monkeypatch):
    # T_F = 2^32 for every fiber at lambda = (1, 1), past int64's reach in
    # the fiber sum: the 2^32 fibers are refused by the memory guard on
    # f_max, which bounds every T_F, F >= 2, by 2^28 with the guard on G_2,
    # before any sieve, fiber bound or table.
    def refuse(*args):
        raise AssertionError("fiber table built")

    for name in ("mu_segment", "jordan_segment", "_blp21_fiber_bounds"):
        monkeypatch.setattr(enumeration, name, refuse)
    with pytest.raises(CapabilityError, match="f_max passes the limit 2\\^24"):
        enumeration.count_points(BLP21, (1, 1), 2**32)


def test_blp21_guard_past_int64_fibers():
    # f_max = 2^63 at lambda = (1, 1) and f_max = 2^32 at rho, B = 2^96
    # (T_1 = 2^63 and 2^48): both refused by the guard on f_max, which is
    # checked first, as Python ints.
    for lam, B in (((1, 1), 2**63), (BLP21.rho, 2**96)):
        with pytest.raises(CapabilityError, match="f_max passes the limit 2\\^24"):
            enumeration.count_points(BLP21, lam, B)


def test_exact_sum_of_int64_halves():
    rng = np.random.default_rng(5)
    for size in (0, 1, 7, 2**15):
        terms = rng.integers(-(2**62) + 1, 2**62, size=size, dtype=np.int64)
        assert enumeration._exact_sum(terms) == sum(terms.tolist())
    for extreme in (2**62 - 1, -(2**62) + 1):
        terms = np.full(2**15, extreme, dtype=np.int64)
        assert enumeration._exact_sum(terms) == 2**15 * extreme
