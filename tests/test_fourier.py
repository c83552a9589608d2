"""Character sums, local transforms and their oracles, global assembly."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath
import pytest

from gacount import enumeration, fourier, geometry, heights, tamagawa
from gacount._util import CapabilityError, primes_upto


def test_character_value_pins():
    assert fourier.character_value(5, Fraction(1, 5)) == pytest.approx(
        cmath.exp(2j * math.pi / 5)
    )
    assert fourier.character_value(5, 2) == 1.0 + 0.0j
    assert fourier.character_value(5, Fraction(7, 25)) == pytest.approx(
        cmath.exp(2j * math.pi * 7 / 25)
    )
    # Only the p-part of the denominator matters.
    assert fourier.character_value(5, Fraction(1, 15)) == pytest.approx(
        fourier.character_value(5, Fraction(2, 5))
    )
    with pytest.raises(ValueError):
        fourier.character_value(6, Fraction(1, 6))


def test_character_argument_properties():
    arg = fourier.CharacterArgument((Fraction(25), Fraction(5)))
    assert arg.is_integral and not arg.is_zero
    assert arg.min_valuation(5) == 1
    assert arg.support_primes() == (5,)
    assert fourier.CharacterArgument((25, 1)).support_primes() == ()
    assert fourier.CharacterArgument((6, 0, 12)).support_primes() == (2, 3)
    assert fourier.CharacterArgument((0, 0)).min_valuation(7) is None
    frac = fourier.CharacterArgument((Fraction(1, 25),))
    assert not frac.is_integral
    assert frac.min_valuation(5) == -2
    assert frac.support_primes() == (5,)


def test_character_sum_pins():
    assert fourier.character_sum(5, 1, 1, 1) == pytest.approx(
        complex(Fraction(-1, 5)), abs=1e-12
    )
    assert fourier.character_sum(7, 3, 2, 0) == complex(Fraction(6, 7))
    assert fourier.character_sum(5, 1, 1, 2) == 0.0 + 0.0j
    assert fourier.character_sum(11, 4, 3, 1) == 0.0 + 0.0j


def test_character_sum_domain_errors():
    with pytest.raises(ValueError):
        fourier.character_sum(3, 1, 1, 1)
    with pytest.raises(ValueError):
        fourier.character_sum(6, 1, 1, 1)
    with pytest.raises(ValueError):
        fourier.character_sum(5, 10, 1, 1)
    with pytest.raises(ValueError):
        fourier.character_sum(5, 1, 0, 1)
    with pytest.raises(ValueError):
        fourier.character_sum(5, 1, 1, -1)


def test_character_sum_direct_routes():
    # The structural zero for nd >= 2 with p not dividing d must match the
    # raw unit sum; the raw route also reproduces -1/p and (p-1)/p.
    for p, u, n, d in ((5, 1, 2, 2), (7, 2, 3, 2), (13, 5, 2, 3)):
        direct = fourier.character_sum(p, u, n, d, force_direct=True)
        assert abs(direct) <= 1e-9, (p, u, n, d)
        assert fourier.character_sum(p, u, n, d) == 0.0 + 0.0j
    assert fourier.character_sum(5, 2, 1, 1, force_direct=True) == pytest.approx(
        complex(Fraction(-1, 5)), abs=1e-12
    )
    assert fourier.character_sum(5, 2, 1, 0, force_direct=True) == pytest.approx(
        complex(Fraction(4, 5))
    )
    with pytest.raises(CapabilityError):
        fourier.character_sum(13, 1, 3, 3, force_direct=True)


def test_charsum_trichotomy_matches_production():
    for p in (5, 7, 11, 13):
        for n in (1, 2, 3):
            for d in range(0, min(4, p)):
                for u in (1, 2, p - 1):
                    got = fourier.character_sum(p, u, n, d)
                    ref = fourier.charsum_trichotomy(p, u, n, d)
                    assert abs(got - ref) <= 1e-9, (p, u, n, d)
    with pytest.raises(ValueError):
        fourier.charsum_trichotomy(5, 1, 1, 5)
    with pytest.raises(ValueError):
        fourier.charsum_trichotomy(5, 1, 1, 7)


def test_suggested_depth_pins():
    for mid in ("P1", "P2", "P3"):
        m = geometry.load_model(mid)
        assert fourier.suggested_depth(m, 2) == 30
        assert fourier.suggested_depth(m, 101) == 30
    b = geometry.load_model("BlP2-2")
    assert fourier.suggested_depth(b, 2) == 17
    assert fourier.suggested_depth(b, 3) == 11
    assert fourier.suggested_depth(b, 5) == 3
    assert fourier.suggested_depth(b, 7) == 3


def test_local_fourier_value_validation():
    with pytest.raises(ValueError):
        fourier.LocalFourierValue(1.0 + 0j, 0.0, "oracle")
    with pytest.raises(ValueError):
        fourier.LocalFourierValue(1.0 + 0j, -1e-9, "brute-force")


def test_brute_matches_denef_at_trivial_character(model):
    # The brute integrator against the closed stratum sum, at the trivial
    # character where the latter is exact.
    p = 5
    s = tuple(r + 1 for r in model.rho)
    brute = fourier.brute_padic_fourier(model, p, (0,) * model.dim, s, depth=3)
    exact = float(tamagawa.denef_local_factor(model, p, s))
    assert abs(brute.value - exact) <= brute.error_bound
    assert brute.method == "brute-force"


@pytest.mark.parametrize("mid", ["P1", "P2"])
def test_brute_depth_cauchy(mid):
    model = geometry.load_model(mid)
    s = tuple(r + 1 for r in model.rho)
    a = (1,) * model.dim
    prev = None
    bounds = []
    for depth in (2, 3, 4, 5):
        cur = fourier.brute_padic_fourier(model, 7, a, s, depth=depth)
        bounds.append(cur.error_bound)
        if prev is not None:
            assert abs(cur.value - prev.value) <= prev.error_bound
        prev = cur
    assert bounds[0] > bounds[1] > bounds[2] > bounds[3] > 0


def test_brute_ramified_character_vanishes():
    p1 = geometry.load_model("P1")
    out = fourier.brute_padic_fourier(p1, 5, (Fraction(1, 5),), (3,), depth=4)
    assert out.value == 0.0 + 0.0j
    b2 = geometry.load_model("BlP2-2")
    out = fourier.brute_padic_fourier(
        b2, 7, (Fraction(1, 7), 1), tuple(b2.rho), depth=2
    )
    assert out.value == 0.0 + 0.0j


def test_brute_domain_errors(model):
    zero = (0,) * model.dim
    with pytest.raises(ValueError):
        fourier.brute_padic_fourier(model, 4, zero, model.rho, depth=3)
    with pytest.raises(ValueError):
        fourier.brute_padic_fourier(model, 5, zero, model.rho, depth=0)
    with pytest.raises(ValueError):
        fourier.brute_padic_fourier(
            model, 5, zero, tuple(r - 1 for r in model.rho), depth=3
        )
    with pytest.raises(ValueError):
        fourier.brute_padic_fourier(model, 5, (0,) * (model.dim + 1), model.rho)


def test_closed_form_p1_pin():
    p1 = geometry.load_model("P1")
    main, et = fourier.closed_form_good_prime(p1, 7, (1,), (3,))
    assert main == complex(1 - Fraction(1, 343))
    assert et == 0.0
    brute = fourier.brute_padic_fourier(p1, 7, (1,), (3,), depth=10)
    assert abs(brute.value - main) <= brute.error_bound


def test_closed_form_trivial_character_dispatch(model):
    s = tuple(r + 1 for r in model.rho)
    main, et = fourier.closed_form_good_prime(model, 11, (0,) * model.dim, s)
    assert et == 0.0
    assert main == complex(float(tamagawa.denef_local_factor(model, 11, s)))


@pytest.mark.parametrize("a", [(1, 0, 0), (1, 1, 1)])
def test_closed_form_p3_vs_brute(a):
    model = geometry.load_model("P3")
    s = tuple(r + 1 for r in model.rho)
    depth = fourier.suggested_depth(model, 5)
    brute = fourier.brute_padic_fourier(model, 5, a, s, depth=depth)
    main, et = fourier.closed_form_good_prime(model, 5, a, s)
    assert abs(brute.value - main) <= et + brute.error_bound


def test_closed_form_degenerate_tube_blp23():
    # At p = 5 the direction (2, 3) pairs to zero with the third blow-up
    # center even though its characteristic zero multiplicity is 1; the
    # widened tube bound must still cover the brute value.
    model = geometry.load_model("BlP2-3")
    s = tuple(r + 1 for r in model.rho)
    depth = fourier.suggested_depth(model, 5)
    brute = fourier.brute_padic_fourier(model, 5, (2, 3), s, depth=depth)
    main, et = fourier.closed_form_good_prime(model, 5, (2, 3), s)
    assert abs(brute.value - main) <= et + brute.error_bound
    assert et > 0


def test_closed_form_rejects_bad_inputs():
    model = geometry.load_model("P2")
    s = tuple(r + 1 for r in model.rho)
    with pytest.raises(ValueError):
        fourier.closed_form_good_prime(model, 3, (1, 0), s)
    with pytest.raises(ValueError):
        fourier.closed_form_good_prime(model, 5, (Fraction(1, 2), 0), s)
    with pytest.raises(ValueError):
        fourier.closed_form_good_prime(model, 5, (5, 10), s)
    with pytest.raises(ValueError):
        fourier.closed_form_good_prime(model, 5, (1, 0), tuple(model.rho[:1]) * 0)


def test_local_modulus_bound(model, rng):
    # |Hhat_p(psi_a)| <= Hhat_p(psi_0): the twisted integrand has modulus
    # equal to the untwisted one pointwise.
    p = 7
    s = tuple(r + 1 for r in model.rho)
    zero = fourier.brute_padic_fourier(model, p, (0,) * model.dim, s, depth=3)
    for _ in range(5):
        a = tuple(int(x) for x in rng.integers(-6, 7, size=model.dim))
        if all(x == 0 for x in a):
            continue
        tw = fourier.brute_padic_fourier(model, p, a, s, depth=3)
        assert abs(tw.value) <= zero.value.real + zero.error_bound + tw.error_bound


def test_arch_fourier_p1():
    p1 = geometry.load_model("P1")
    triv = fourier.arch_fourier(p1, (0,), (4,))
    assert triv.method == "closed-form"
    assert triv.error_bound == 0.0
    assert triv.value.real == pytest.approx(8.0 / 3.0, abs=1e-15)

    ray = {}
    for a in (1, 4, 8):
        out = fourier.arch_fourier(p1, (a,), (4,))
        assert out.method == "quadrature"
        ray[a] = out
    assert abs(ray[1].value) < triv.value.real
    # Decay along the ray, with quadrature slack.
    slack = ray[4].error_bound + ray[8].error_bound
    assert abs(ray[8].value) <= abs(ray[4].value) + slack

    # Independent oscillatory oracle: 2 int_1^oo x^-4 cos(2 pi x) dx (the
    # unit plateau integrates to zero over a full period).
    with mpmath.workdps(25):
        oracle = float(
            2
            * mpmath.quadosc(
                lambda x: mpmath.cos(2 * mpmath.pi * x) / x**4,
                [1, mpmath.inf],
                period=1,
            )
        )
    assert abs(ray[1].value.real - oracle) <= ray[1].error_bound + 1e-10


def test_arch_fourier_surfaces_trivial():
    p2 = geometry.load_model("P2")
    out = fourier.arch_fourier(p2, (0, 0), p2.rho)
    assert out.value.real == pytest.approx(12.0, abs=1e-12)
    b1 = geometry.load_model("BlP2-1")
    out = fourier.arch_fourier(b1, (0, 0), b1.rho)
    assert out.value.real == pytest.approx(16.0, abs=1e-12)


def test_arch_fourier_capability_limits():
    for mid in ("BlP2-2", "BlP2-3"):
        model = geometry.load_model(mid)
        with pytest.raises(CapabilityError):
            fourier.arch_fourier(model, (0,) * model.dim, model.rho)
    p1 = geometry.load_model("P1")
    with pytest.raises(ValueError):
        fourier.arch_fourier(p1, (0,), (1,))


def test_arch_fourier_p3_at_rho():
    # sigma 2^n / (sigma - n) at sigma = rho = 4 is the archimedean density.
    p3 = geometry.load_model("P3")
    out = fourier.arch_fourier(p3, (0, 0, 0), p3.rho)
    assert out.method == "closed-form"
    assert out.value == complex(tamagawa.archimedean_density(p3)) == 32
    # Twisted: at most 2^(n-1) one-dimensional integrals, symmetric in the
    # order and the signs of the coordinates.
    s = tuple(r + 1 for r in p3.rho)
    ref = fourier.arch_fourier(p3, (1, 2, 0), s)
    for a in ((2, 0, 1), (0, -1, 2), (-2, 1, 0)):
        other = fourier.arch_fourier(p3, a, s)
        assert abs(other.value - ref.value) <= other.error_bound + ref.error_bound
    assert 0 < abs(ref.value) < 32


P2_ARCH_GRID = [(0, 1), (1, 0), (1, 1), (1, -1), (2, 2), (3, -3), (1, 2),
                (2, 3), (3, 1), (Fraction(1, 2), Fraction(1, 2)),
                (Fraction(1, 3), 2)]


@pytest.mark.parametrize("shift", [1, Fraction(1, 2)])
def test_arch_fourier_p2_vs_nested_quadrature(shift):
    # The one-dimensional layer-cake transform against the nested 2-D
    # quadrature it replaced, including |a1| = |a2| where one of the two
    # product-to-sum frequencies vanishes.
    p2 = geometry.load_model("P2")
    s = tuple(r + shift for r in p2.rho)
    for a in P2_ARCH_GRID:
        new = fourier.arch_fourier(p2, a, s)
        old = fourier._arch_quad_2d(p2, fourier.CharacterArgument(a), s)
        assert new.method == "quadrature"
        assert abs(new.value - old.value) <= new.error_bound + old.error_bound, a
        assert new.error_bound <= 1e-5 * abs(new.value), a


@pytest.mark.parametrize("sigma,a", [(3, 1), (4, 3), (Fraction(11, 2), 2),
                                     (Fraction(5, 2), Fraction(1, 2))])
def test_arch_fourier_p1_vs_mpmath(sigma, a):
    # sigma int_1^oo u^(-sigma-1) sin(2 pi a u)/(pi a) du, once by mpmath's
    # oscillatory quadrature and once as sigma/(pi a) Im E_{sigma+1}(-2 pi i a)
    # with the generalized exponential integral E_n(z) = int_1^oo e^(-zt) t^-n dt.
    p1 = geometry.load_model("P1")
    out = fourier.arch_fourier(p1, (a,), (sigma,))
    with mpmath.workdps(20):
        sg, al = (mpmath.mpf(Fraction(x).numerator) / Fraction(x).denominator
                  for x in (sigma, a))
        by_expint = sg / (mpmath.pi * al) * mpmath.im(
            mpmath.expint(sg + 1, -2j * mpmath.pi * al))
        by_quadosc = sg / (mpmath.pi * al) * mpmath.quadosc(
            lambda u: u ** (-sg - 1) * mpmath.sin(2 * mpmath.pi * al * u),
            [1, mpmath.inf], omega=2 * mpmath.pi * al)
    assert abs(float(by_expint) - float(by_quadosc)) <= 1e-15
    assert abs(out.value.real - float(by_expint)) <= out.error_bound
    assert out.error_bound <= 1e-5 * abs(out.value)


@pytest.mark.parametrize("a", [(1, 2, 4), (1, 1, 0)])
def test_arch_fourier_p3_vs_mpmath(a):
    # The layer-cake integral sigma int_1^oo u^(-sigma-1) prod_j Phi_j(u) du
    # by mpmath, without the product-to-sum expansion; (1, 2, 4) has the
    # negative sine frequency 1 + 2 - 4.
    p3 = geometry.load_model("P3")
    out = fourier.arch_fourier(p3, a, (5,))
    with mpmath.workdps(15):
        def phi(x, u):
            if x == 0:
                return 2 * u
            return mpmath.sin(2 * mpmath.pi * x * u) / (mpmath.pi * x)

        ref = 5 * mpmath.quadosc(
            lambda u: u ** -6 * phi(a[0], u) * phi(a[1], u) * phi(a[2], u),
            [1, mpmath.inf], period=1)
    assert abs(out.value.real - float(ref)) <= out.error_bound


def test_global_fourier_p1_trivial_pin():
    p1 = geometry.load_model("P1")
    out = fourier.global_fourier(p1, (0,), (4,))
    with mpmath.workdps(30):
        target = float(8 * mpmath.zeta(3) / (3 * mpmath.zeta(4)))
    assert abs(out.value.real - target) <= max(out.error_bound, 1e-10)
    assert [name for name, _ in out.zeta_factors] == ["D1"]
    assert [float(b) for _, b in out.zeta_factors] == [3.0]


def test_global_fourier_p1_twisted_vs_local_product():
    p1 = geometry.load_model("P1")
    out = fourier.global_fourier(p1, (3,), (4,))
    assert out.zeta_factors == ()
    prod = fourier.arch_fourier(p1, (3,), (4,)).value.real
    for p in primes_upto(50):
        prod *= fourier.brute_padic_fourier(p1, p, (3,), (4,), depth=12).value.real
    assert abs(out.value.real - prod) <= out.error_bound + 1e-6


def test_global_fourier_pole_structure():
    # The peeled zeta factors are exactly the components where the character
    # direction has no pole (the A0 part of the multiplicity vector).
    b1 = geometry.load_model("BlP2-1")
    s = tuple(r + 1 for r in b1.rho)
    for a in ((0, 1), (2, 3)):
        out = fourier.global_fourier(b1, a, s, p_max=200)
        names = sorted(name for name, _ in out.zeta_factors)
        assert names == sorted(geometry.divisor_multiplicities(b1, a).a0), a
    p2 = geometry.load_model("P2")
    out = fourier.global_fourier(p2, (1, 2), tuple(r + 1 for r in p2.rho), p_max=200)
    assert out.zeta_factors == ()


def _no_brute_or_closed_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("P^n twisted factors must be exact")

    monkeypatch.setattr(fourier, "brute_padic_fourier", refuse)
    monkeypatch.setattr(fourier, "closed_form_good_prime", refuse)


@pytest.mark.parametrize("mid,a", [
    ("P2", (1, 2)), ("P2", (0, 3)), ("P2", (2, 4)), ("P2", (6, 30)),
    ("P2", (Fraction(1, 2), 1)),
    ("P3", (1, 0, 0)), ("P3", (2, 2, 4)), ("P3", (0, 0, 15)),
])
def test_global_fourier_pn_twisted_is_exact(monkeypatch, mid, a):
    # No brute integral and no two-term closed form on P^n: the value is
    # arch * prod_p exact_p, which the truncated product over p <= 200
    # reproduces up to prod_{p > 200} (1 - p^(-sigma)) = 1 - O(1e-7).
    _no_brute_or_closed_form(monkeypatch)
    model = geometry.load_model(mid)
    s = tuple(r + 1 for r in model.rho)
    out = fourier.global_fourier(model, a, s, p_max=5)
    assert out.zeta_factors == ()
    prod = fourier.arch_fourier(model, a, s).value.real
    for p in primes_upto(200):
        prod *= float(tamagawa.exact_local_density(model, p, s, a))
    if prod == 0:
        assert out.value == 0 and out.error_bound <= 1e-14
        return
    assert abs(out.value.real - prod) <= 1e-6 * abs(prod) + out.error_bound
    assert out.error_bound <= 1e-5 * abs(out.value)
    # p_max and depth play no role on P^n.
    again = fourier.global_fourier(model, a, s, p_max=5000, depth=3)
    assert again == out


def test_global_fourier_p1_is_exact(monkeypatch):
    # P1 is exact at the trivial character too: zeta(beta)/zeta(sigma).
    _no_brute_or_closed_form(monkeypatch)
    p1 = geometry.load_model("P1")
    out = fourier.global_fourier(p1, (0,), (5,))
    with mpmath.workdps(30):
        target = float(10 * mpmath.zeta(4) / (4 * mpmath.zeta(5)))
    assert abs(out.value.real - target) <= out.error_bound
    assert fourier.global_fourier(p1, (12,), (5,)).error_bound < 1e-9


@pytest.mark.xfail(strict=True, reason=(
    "generic global_fourier completion removes each A0 pole twice: it "
    "multiplies zeta(b) by prod_{p computed} (1 - p^-b) after peel(p) already "
    "took that factor out, so P2 at a = 0 tends to 8/zeta(4)"))
def test_global_fourier_p2_trivial_value():
    # prod_p exact_local_density = zeta(2)/zeta(4) at s = 4, so the adelic
    # transform is 8 zeta(2)/zeta(4) = 12.1585...
    p2 = geometry.load_model("P2")
    out = fourier.global_fourier(p2, (0, 0), (4,), p_max=200)
    with mpmath.workdps(30):
        target = float(8 * mpmath.zeta(2) / mpmath.zeta(4))
    assert abs(out.value.real - target) <= out.error_bound


def test_global_fourier_trivial_needs_interior():
    p1 = geometry.load_model("P1")
    with pytest.raises(ValueError):
        fourier.global_fourier(p1, (0,), (2,))


def test_zeta_truncated_p1_exact():
    p1 = geometry.load_model("P1")
    part, tail = fourier.zeta_truncated(p1, p1.rho, 3.0, 200)
    direct = sum(
        float(heights.global_height(p1, pt, p1.rho).total) ** -3.0
        for pt in enumeration.enumerate_points(p1, p1.rho, 200)
    )
    assert abs(part - direct) <= 1e-12
    assert 0 < tail < 1e-3


def test_zeta_truncated_blp21_fiber_path():
    b1 = geometry.load_model("BlP2-1")
    part, _ = fourier.zeta_truncated(b1, b1.rho, 2.0, 300)
    direct = sum(
        float(heights.global_height(b1, pt, b1.rho).total) ** -2.0
        for pt in enumeration.enumerate_points(b1, b1.rho, 300)
    )
    assert abs(part - direct) <= 1e-9


def test_zeta_truncated_generic_bracket():
    p2 = geometry.load_model("P2")
    p40, t40 = fourier.zeta_truncated(p2, p2.rho, 2.0, 40)
    p80, t80 = fourier.zeta_truncated(p2, p2.rho, 2.0, 80)
    assert p40 < p80
    assert t40 > t80 > 0
    # The added mass between the cutoffs is inside the earlier tail estimate.
    assert p80 - p40 <= t40


def test_zeta_truncated_limits_and_errors():
    p1 = geometry.load_model("P1")
    with pytest.raises(ValueError):
        fourier.zeta_truncated(p1, p1.rho, 1.0, 100)
    assert fourier.zeta_truncated(p1, p1.rho, 3.0, Fraction(1, 2)) == (0.0, 0.0)
    # Far right of the critical line only the three height-one points count.
    part, tail = fourier.zeta_truncated(p1, p1.rho, 50.0, 1000)
    assert part == 3.0
    assert tail < 1e-100


def test_poisson_check_p1():
    p1 = geometry.load_model("P1")
    out = fourier.poisson_check(p1, p1.rho, 3.0, 10**4, 20, p_max=300)
    assert out["pass"]
    assert out["abs_diff"] <= out["combined_bound"]
    assert out["rel_diff"] < 2e-2
    assert set(out) == {"lhs", "rhs", "abs_diff", "combined_bound",
                        "rel_diff", "pass"}


def test_poisson_check_truncated_spectrum_undershoots():
    # With no oscillatory terms the spectral side is strictly smaller: the
    # dropped characters carry positive net mass.
    p1 = geometry.load_model("P1")
    out = fourier.poisson_check(p1, p1.rho, 3.0, 10**4, 0, p_max=300)
    assert out["rhs"] < out["lhs"]


def test_poisson_check_capability_and_domain():
    p2 = geometry.load_model("P2")
    with pytest.raises(CapabilityError):
        fourier.poisson_check(p2, p2.rho, 4.0, 100, 5)
    p1 = geometry.load_model("P1")
    with pytest.raises(ValueError):
        fourier.poisson_check(p1, p1.rho, 3.0, 100, -1)
