"""Exact height arithmetic: pins, invariants, and the local-global split."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from gacount import geometry, heights
from gacount._util import height_test, prime_factors
from conftest import archimedean_height, global_height, random_interior, random_point


def test_rational_point_validation():
    with pytest.raises(ValueError):
        heights.RationalPoint((0, 1))  # Z must be >= 1
    with pytest.raises(ValueError):
        heights.RationalPoint((2, 4))  # not primitive
    with pytest.raises(ValueError):
        heights.RationalPoint((5,))  # needs at least (Z, X1)
    pt = heights.RationalPoint.from_affine([Fraction(2, 4)])
    assert pt.coords == (2, 1)
    assert pt.affine() == (Fraction(1, 2),)
    pt2 = heights.RationalPoint.from_affine([Fraction(1, 2), Fraction(2, 3)])
    assert pt2.coords == (6, 3, 4)


def test_p1_pin():
    m = geometry.load_model("P1")
    pt = heights.RationalPoint((2, 3))  # x = 3/2
    hv = global_height(m, pt, m.rho)
    assert hv.arch_part == 9
    assert hv.finite_part == 1
    assert hv.total == 9


def test_blp21_pins():
    m = geometry.load_model("BlP2-1")
    origin = heights.RationalPoint((1, 0, 0))
    assert global_height(m, origin, m.rho).total == 1

    pt = heights.RationalPoint((2, 1, 3))
    hv = global_height(m, pt, m.rho)
    assert hv.arch_part == 27  # max(1,3,2)^2 * max(3,2)
    assert hv.finite_part == 1
    assert hv.total == 27

    pt = heights.RationalPoint((3, 2, 6))
    hv = global_height(m, pt, m.rho)
    assert hv.arch_part == 216  # max(2,6,3)^2 * max(6,3)
    assert hv.finite_part == Fraction(1, 3)  # gcd(Y, Z) = 3 in the pencil
    assert hv.total == 72
    assert heights.local_height(m, pt, 3, m.rho) == Fraction(1, 3)
    assert heights.local_height(m, pt, 5, m.rho) == 1


def test_p2_finite_part_trivial(rng):
    # With the full hyperplane system the section gcd of a primitive point
    # is 1, so anticanonical finite parts on P2 are identically 1.
    m = geometry.load_model("P2")
    for _ in range(50):
        pt = random_point(rng, 2)
        assert heights.finite_height_part(m, pt, m.rho) == 1


def test_multiplicativity(model, rng):
    for _ in range(40):
        pt = random_point(rng, model.dim)
        lam = random_interior(rng, model.rank)
        mu = random_interior(rng, model.rank)
        both = tuple(a + b for a, b in zip(lam, mu))
        assert heights.finite_height_part(model, pt, both) == \
            heights.finite_height_part(model, pt, lam) * \
            heights.finite_height_part(model, pt, mu)
        t_sum = global_height(model, pt, both).total
        t_prod = (global_height(model, pt, lam).total
                  * global_height(model, pt, mu).total)
        assert abs(float(t_sum) / float(t_prod) - 1.0) <= 1e-12


def test_translation_invariance(model, rng):
    for _ in range(40):
        pt = random_point(rng, model.dim)
        lam = random_interior(rng, model.rank)
        shift = rng.integers(-5, 6, size=model.dim)
        moved = heights.RationalPoint.from_affine(
            [x + int(v) for x, v in zip(pt.affine(), shift)]
        )
        assert heights.finite_height_part(model, pt, lam) == \
            heights.finite_height_part(model, moved, lam)


def test_scaling_power_law(model, rng):
    for _ in range(20):
        pt = random_point(rng, model.dim)
        lam = random_interior(rng, model.rank)
        t = int(rng.integers(2, 5))
        scaled = tuple(t * v for v in lam)
        assert heights.finite_height_part(model, pt, scaled) == \
            heights.finite_height_part(model, pt, lam) ** t
        assert archimedean_height(model, pt, scaled) == \
            archimedean_height(model, pt, lam) ** t


def test_anticanonical_height_at_least_one(model, rng):
    for _ in range(60):
        pt = random_point(rng, model.dim)
        assert global_height(model, pt, model.rho).total >= 1


def test_local_global_product(model, rng):
    for _ in range(60):
        pt = random_point(rng, model.dim)
        lam = random_interior(rng, model.rank)
        fin = heights.finite_height_part(model, pt, lam)
        support = set(prime_factors(fin.numerator * fin.denominator))
        prod = Fraction(1)
        for p in sorted(support | {2, 101}):
            prod *= heights.local_height(model, pt, p, lam)
        assert prod == fin


def test_local_height_rejects_composite():
    m = geometry.load_model("P1")
    pt = heights.RationalPoint((2, 3))
    with pytest.raises(ValueError):
        heights.local_height(m, pt, 6, m.rho)


def test_dimension_mismatch():
    m = geometry.load_model("P2")
    with pytest.raises(ValueError):
        global_height(m, heights.RationalPoint((1, 2)), m.rho)


def test_fractional_exponent_exactness_boundary():
    # Non-integer net prime exponents mean the finite part is irrational;
    # the exact-arithmetic contract is to refuse rather than round.
    m = geometry.load_model("P1")
    pt = heights.RationalPoint((2, 3))  # gcd of the single system is 1
    assert heights.finite_height_part(m, pt, (Fraction(1, 2),)) == 1
    pt5 = heights.RationalPoint((5, 3))
    assert heights.finite_height_part(m, pt5, (2,)) == 1
    m1 = geometry.load_model("BlP2-1")
    pt3 = heights.RationalPoint((3, 2, 6))  # pencil gcd 3
    with pytest.raises(ValueError):
        heights.finite_height_part(m1, pt3, (1, Fraction(1, 2)))


def test_generator_heights_on_coordinates():
    m = geometry.load_model("BlP2-1")
    # h_H = max(3, 2, 6) / 1 and h_F1 = max(6, 3) / gcd(6, 3).
    assert heights.generator_heights(m, (3, 2, 6)) == (6, 2)
    assert heights.generator_heights(m, (1, 0, 0)) == (1, 1)
    with pytest.raises(ValueError):
        heights.generator_heights(m, (1, 0))


def test_height_test_exact_at_any_bound_denominator():
    # 3 * 2^(1/2) = 4.2426...; bounds 1e-15 relative off a height, and float
    # bounds, have huge denominators and must still compare at once.
    half = [Fraction(1, 2), 1]
    assert height_test(half, Fraction(4243, 1000))([2, 3])
    assert not height_test(half, Fraction(4242, 1000))([2, 3])
    eps = Fraction(1, 10**15)
    assert height_test([1, 1], Fraction(400) * (1 + eps))([20, 20])
    assert height_test([1, 1], Fraction(400))([20, 20])
    assert not height_test([1, 1], Fraction(400) * (1 - eps))([20, 20])
    assert height_test([2], Fraction(100.3))([10])
    assert not height_test([2], Fraction(99.7))([10])


def height_leq_fractions(hts, exponents, bound):
    """prod h^e <= bound with both sides raised to the lcm of the exponent
    denominators and every power a Fraction: the oracle of height_test."""
    exps = [Fraction(e) for e in exponents]
    scale = math.lcm(*(e.denominator for e in exps))
    lhs = math.prod(Fraction(h) ** int(e * scale) for h, e in zip(hts, exps))
    return lhs <= Fraction(bound) ** scale


def test_height_test_matches_fraction_oracle():
    # Random rows against one prepared test per (exponents, bound):
    # negative and fractional exponents, bounds with large denominators,
    # and bounds equal to the height of the first row (a tie) or a hair off.
    rng = np.random.default_rng(15)
    eps = Fraction(1, 10**15)
    for _ in range(60):
        k = int(rng.integers(1, 5))
        exps = [Fraction(int(rng.integers(-7, 8)), int(rng.integers(1, 7))) for _ in range(k)]
        rows = [[int(h) for h in rng.integers(1, 10**4, size=k)] for _ in range(30)]
        integral = [Fraction(e.numerator) for e in exps]
        tie = math.prod(Fraction(h) ** e for h, e in zip(rows[0], integral))
        for ex, bound in ((exps, Fraction(int(rng.integers(1, 10**12)), 10**9 + 7)),
                          (exps, Fraction(float(rng.uniform(0.01, 1e6)))),
                          (integral, tie), (integral, tie * (1 + eps)),
                          (integral, tie * (1 - eps))):
            leq = height_test(ex, bound)
            for row in rows:
                want = height_leq_fractions(row, ex, bound)
                assert leq(row) == want, (row, ex, bound)
