"""Completeness, pins, fits, and soundness proofs of the point enumerator."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from gacount import enumeration, geometry, heights
from gacount._util import CapabilityError
from conftest import random_point


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
    m = geometry.load_model("BlP2-2")
    with pytest.raises(CapabilityError):
        enumeration.count_points(m, m.rho, 10**9, candidate_budget=10**6)
    with pytest.raises(CapabilityError):
        list(enumeration.enumerate_points(m, m.rho, 10**9, candidate_budget=10**6))


def test_count_ladder_basics():
    m = geometry.load_model("P1")
    lad = enumeration.count_ladder(m, m.rho, [10, 100, 1000])
    assert lad.bounds() == (10, 100, 1000)
    assert lad.counts() == tuple(
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
    lad = enumeration.CountLadder("P1", (Fraction(2),), rows)
    coeffs, resid = enumeration.fit_leading(lad, 2, 1)
    assert abs(coeffs[-1] - 1.0) <= 1e-12
    assert resid <= 1e-9


def test_fit_leading_constant_ladder_zero_slope():
    rows = tuple((B, 5) for B in (10, 30, 100, 300, 1000))
    lad = enumeration.CountLadder("P1", (Fraction(2),), rows)
    coeffs, _ = enumeration.fit_leading(lad, 0, 2)
    assert abs(coeffs[-1]) <= 1e-12  # leading log coefficient vanishes
    assert abs(coeffs[0] - 5.0) <= 1e-9


def test_fit_leading_underdetermined():
    rows = ((10, 100), (100, 10000))
    lad = enumeration.CountLadder("P1", (Fraction(2),), rows)
    with pytest.raises(ValueError):
        enumeration.fit_leading(lad, 2, 1)
    with pytest.raises(ValueError):
        enumeration.fit_leading(lad, 2, 0)


def test_estimate_exponents_synthetic():
    rows = tuple((B, B * B) for B in (10, 100, 1000, 10000, 100000))
    lad = enumeration.CountLadder("P1", (Fraction(2),), rows)
    a_hat, b_hat = enumeration.estimate_exponents(lad)
    assert abs(a_hat - 2.0) <= 1e-9
    assert abs(b_hat - 1.0) <= 1e-6


def test_estimate_exponents_span_guard():
    lad = enumeration.CountLadder(
        "P1", (Fraction(2),), ((10, 100), (50, 2500), (100, 10000))
    )
    with pytest.raises(ValueError):
        enumeration.estimate_exponents(lad)
    short = enumeration.CountLadder("P1", (Fraction(2),), ((10, 100), (100, 10000)))
    with pytest.raises(ValueError):
        enumeration.estimate_exponents(short)


def test_blp23_box_soundness_inequality(rng):
    # The BlP2-3 box radius rests on H(x; rho) >= h_std^2 / 4: among the
    # three pencil forms at most one can be small, and the finite gcds are
    # pairwise coprime divisors of Z.  Verify the inequality pointwise.
    m = geometry.load_model("BlP2-3")
    for _ in range(200):
        pt = random_point(rng, 2)
        h = heights.global_height(m, pt, m.rho).total
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
    # recomputed independently by the heights module.
    B = 25
    for pt in enumeration.enumerate_points(model, model.rho, B):
        assert heights.global_height(model, pt, model.rho).total <= B
