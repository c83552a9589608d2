"""Local densities, regularized Euler products, and the leading constant."""

from __future__ import annotations

import dataclasses
import math
import warnings
from fractions import Fraction

import mpmath
import pytest
from scipy import integrate

from gacount import fourier, geometry, tamagawa
from gacount._util import CapabilityError


def test_denef_local_factor_pins():
    p1 = geometry.load_model("P1")
    assert tamagawa.denef_local_factor(p1, 7, (3,)) == Fraction(57, 56)
    assert tamagawa.denef_local_factor(p1, 11, p1.rho) == Fraction(12, 11)
    p2 = geometry.load_model("P2")
    assert tamagawa.denef_local_factor(p2, 5, p2.rho) == Fraction(31, 25)
    b1 = geometry.load_model("BlP2-1")
    assert tamagawa.denef_local_factor(b1, 5, b1.rho) == Fraction(36, 25)
    b3 = geometry.load_model("BlP2-3")
    assert tamagawa.denef_local_factor(b3, 7, b3.rho) == Fraction(78, 49)


def test_denef_local_factor_float_branch():
    # Non-integer exponents fall back to floats and stay near the exact
    # value at a nearby integer vector.
    p1 = geometry.load_model("P1")
    val = tamagawa.denef_local_factor(p1, 7, (Fraction(5, 2),))
    assert isinstance(val, float)
    lo = float(tamagawa.denef_local_factor(p1, 7, (3,)))
    hi = float(tamagawa.denef_local_factor(p1, 7, (2,)))
    assert lo < val < hi


def test_denef_local_factor_domain_errors(model):
    with pytest.raises(ValueError):
        tamagawa.denef_local_factor(model, 7, tuple(r - 1 for r in model.rho))
    for p in (2, 3, 6, 9):
        with pytest.raises(ValueError):
            tamagawa.denef_local_factor(model, p, model.rho)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 29])
def test_local_density_counts_points(model, p):
    # The density times p^n is the F_p point count of the compactification,
    # which the strata partition recomputes at good primes.
    dens = tamagawa.local_density(model, p)
    n = model.dim
    assert dens * p**n == geometry.total_point_count(model, p)
    if p in model.small_primes:
        return
    brute_total = sum(
        geometry.brute_stratum_count(model, subset, p)
        for subset in model.stratum_polys
    )
    assert dens * p**n == brute_total


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_exact_local_density_matches_denef(model, p):
    for shift in (0, 1, 2):
        s = tuple(r + shift for r in model.rho)
        assert tamagawa.exact_local_density(model, p, s) == (
            tamagawa.denef_local_factor(model, p, s)
        )


# #X(F_p) / p^n at p = 2, 3, written out by hand: (p^(n+1) - 1)/(p - 1)
# points on P^n and p^2 + (r + 1) p + 1 on BlP2-r.
SMALL_PRIME_DENSITIES = {
    "P1": (Fraction(3, 2), Fraction(4, 3)),
    "P2": (Fraction(7, 4), Fraction(13, 9)),
    "P3": (Fraction(15, 8), Fraction(40, 27)),
    "BlP2-1": (Fraction(9, 4), Fraction(16, 9)),
    "BlP2-2": (Fraction(11, 4), Fraction(19, 9)),
    "BlP2-3": (Fraction(13, 4), Fraction(22, 9)),
}


def test_exact_local_density_small_primes(model):
    got = tuple(tamagawa.exact_local_density(model, p, model.rho) for p in (2, 3))
    assert got == SMALL_PRIME_DENSITIES[model.id]


@pytest.mark.parametrize("p,depth", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_exact_local_density_within_brute_bound(model, p, depth):
    # The truncated cube refinement misses only |x|_p > p^depth, which its
    # error bound covers; the projective spaces refine cheaply, so go deeper.
    if not model.centers:
        depth = 20
    for shift in (0, 1):
        s = tuple(r + shift for r in model.rho)
        brute = fourier.brute_padic_fourier(model, p, (0,) * model.dim, s, depth=depth)
        exact = tamagawa.exact_local_density(model, p, s)
        assert abs(brute.value - float(exact)) <= brute.error_bound


def _blp22_with(pencil_f2, centers=((1, 0), (0, 1))):
    b2 = geometry.load_model("BlP2-2")
    f2 = geometry.GeneratorSystem("F2", pencil_f2)
    return dataclasses.replace(
        b2, id="BlP2-2-variant", generators=b2.generators[:2] + (f2,), centers=centers
    )


@pytest.mark.parametrize("pencil_f2,centers", [
    # Centers (1, 0) and (1, 2) meet mod 2: the forms Y and 2X - Y agree there.
    (((0, 2, -1), (1, 0, 0)), ((1, 0), (1, 2))),
    # The form 2X vanishes identically mod 2.
    (((0, 2, 0), (1, 0, 0)), ((1, 0), (0, 1))),
    # No section with a 2-unit constant term.
    (((0, 1, 0), (2, 0, 0)), ((1, 0), (0, 1))),
])
def test_exact_local_density_refuses_bad_reduction(pencil_f2, centers):
    bad = _blp22_with(pencil_f2, centers)
    with pytest.raises(CapabilityError):
        tamagawa.exact_local_density(bad, 2, bad.rho)
    # Mod 5 the same sections reduce well: 5^2 + 3*5 + 1 points.
    assert tamagawa.exact_local_density(bad, 5, bad.rho) == Fraction(41, 25)


def test_exact_local_density_domain_errors():
    b1 = geometry.load_model("BlP2-1")
    for p, s in ((4, b1.rho), (2, (2, 2)), (2, (Fraction(7, 2), 2))):
        with pytest.raises(ValueError):
            tamagawa.exact_local_density(b1, p, s)


def _twisted_indices(p: int, n: int) -> list:
    """Character indices with min_i v_p(a_i) = -1, 0, 1, 2, including mixed
    valuations such as (p, p^2) and zero coordinates such as (0, p)."""
    pad = (0,) * (n - 1)
    out = [
        (Fraction(1, p),) + (1,) * (n - 1),
        (1,) + pad,
        (p + 1,) * n,
        (p,) + pad,
        (p * p,) + pad,
        (p * p * (p + 1),) * n,
    ]
    if n >= 2:
        out += [(p, p * p) + (0,) * (n - 2), pad + (p,), (1, p) + (0,) * (n - 2)]
    return out


@pytest.mark.parametrize("mid", ["P1", "P2", "P3"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_exact_twisted_factor_within_brute_bound(mid, p):
    # Tate's shell sum against the cube refinement, which is exact up to its
    # truncation bound; the projective spaces refine cheaply, so go deep.
    model = geometry.load_model(mid)
    n = model.dim
    for shift in (1, 2):
        s = tuple(r + shift for r in model.rho)
        for a in _twisted_indices(p, n):
            exact = tamagawa.exact_local_density(model, p, s, a)
            assert isinstance(exact, Fraction)
            brute = fourier.brute_padic_fourier(model, p, a, s, depth=16)
            assert abs(brute.value - float(exact)) <= brute.error_bound, (a, s)
            k = min(fourier.CharacterArgument(a).min_valuation(p), 16)
            assert (exact == 0) == (k < 0)
        zero = (0,) * n
        assert tamagawa.exact_local_density(model, p, s, zero) == (
            tamagawa.exact_local_density(model, p, s))


def test_exact_twisted_factor_pins():
    # v_p(a) = 0 gives Tate's unramified factor 1 - p^(-sigma); P2 at
    # sigma = 4, v_5(a) = 1: 1 + (25 - 1)/5^4 - 25/5^8.
    p2 = geometry.load_model("P2")
    assert tamagawa.exact_local_density(p2, 5, (4,), (1, 3)) == 1 - Fraction(1, 625)
    assert tamagawa.exact_local_density(p2, 5, (4,), (0, 5)) == (
        1 + Fraction(24, 625) - Fraction(25, 5**8))
    p1 = geometry.load_model("P1")
    assert tamagawa.exact_local_density(p1, 3, (3,), (Fraction(2, 3),)) == 0


def test_exact_twisted_factor_float_branch():
    # A non-integer sigma gives a float finite sum, still inside the brute
    # bound; the trivial character keeps its integer-exponent requirement.
    p1 = geometry.load_model("P1")
    s = (Fraction(7, 2),)
    for a in ((1,), (5,), (50,)):
        val = tamagawa.exact_local_density(p1, 5, s, a)
        assert isinstance(val, float)
        brute = fourier.brute_padic_fourier(p1, 5, a, s, depth=16)
        assert abs(brute.value - val) <= brute.error_bound
    with pytest.raises(ValueError):
        tamagawa.exact_local_density(p1, 5, s, (0,))


def test_exact_twisted_factor_refuses_cones(model):
    # The blow-ups have valuation cones (the pencils), where the integrand
    # is not constant on the shells.
    s = tuple(r + 1 for r in model.rho)
    a = (1,) + (0,) * (model.dim - 1)
    if not model.centers:
        assert tamagawa.exact_local_density(model, 5, s, a) == (
            1 - Fraction(1, 5) ** int(s[0]))
        return
    with pytest.raises(CapabilityError):
        tamagawa.exact_local_density(model, 5, s, a)
    with pytest.raises(ValueError):
        tamagawa.exact_local_density(model, 5, s, a + (1,))


# (peeled zeta exponents, float(C_h)), captured from the Fraction peel.
PEEL_PINS = {
    "P1": (((2, 1),), 0.0),
    "P2": (((3, 1),), 0.0),
    "P3": (((4, 1),), 0.0),
    "BlP2-1": (((2, 2),), 0.0),
    "BlP2-2": (((2, 5), (3, -5), (4, 10), (5, -24)), 99.76736992318708),
    "BlP2-3": (((2, 9), (3, -16), (4, 45), (5, -144)), 1270.53530317739),
}


def test_peel_data_pins(model):
    peeled, c_h = tamagawa._peel_data(model.id)
    assert (peeled, float(c_h)) == PEEL_PINS[model.id]


def test_regularization_residual_pins():
    p2 = geometry.load_model("P2")
    assert tamagawa.regularization_residual(p2, 5, p2.rho) == Fraction(1, 125)
    assert tamagawa.regularization_residual(p2, 11, p2.rho) == Fraction(1, 1331)
    b1 = geometry.load_model("BlP2-1")
    assert tamagawa.regularization_residual(b1, 5, b1.rho) == Fraction(49, 625)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_regularization_residual_decay(model, p):
    # Quadratic decay with a uniform constant across the catalog (the
    # worst case is BlP2-3, whose constant stays below 9).
    res = tamagawa.regularization_residual(model, p, model.rho)
    assert 0 <= res <= Fraction(9, p * p)


def test_local_factor_validation():
    with pytest.raises(ValueError):
        tamagawa.LocalFactor(7, 1.0, "guesswork", 0.0)
    with pytest.raises(ValueError):
        tamagawa.LocalFactor(7, 1.0, "closed-form", 1e-3)
    with pytest.raises(ValueError):
        tamagawa.LocalFactor(7, 1.0, "brute-force", 0.0)
    ok = tamagawa.LocalFactor("infinity", 4.0, "closed-form", 0.0)
    assert ok.value == 4.0


def test_archimedean_density_closed_forms():
    expected = {
        "P1": 4.0,
        "P2": 12.0,
        "P3": 32.0,
        "BlP2-1": 16.0,
        "BlP2-2": 20.0,
        "BlP2-3": math.pi**2 + 24.0 * math.log(2.0) - 3.0,
    }
    for mid, val in expected.items():
        got = tamagawa.archimedean_density(geometry.load_model(mid))
        assert abs(got - val) <= 1e-12, mid


@pytest.mark.parametrize("mid", ["P2", "BlP2-1", "BlP2-2", "BlP2-3"])
def test_archimedean_density_quadrature_oracle(mid):
    # Recompute the closed forms by nested 1d quadrature over the whole
    # plane.  The integration axes are split at the kinks of the max
    # functions so each piece is smooth, and the infinite tails are left
    # to quad's unbounded-interval handling.
    model = geometry.load_model(mid)

    def integrand(y: float, x: float) -> float:
        hx = max(1.0, abs(x))
        hy = max(1.0, abs(y))
        hxy = max(hx, hy)
        if mid == "P2":
            return hxy ** -3
        if mid == "BlP2-1":
            return hxy ** -2 * hy ** -1
        if mid == "BlP2-2":
            return (hxy * hx * hy) ** -1
        return (hx * hy * max(1.0, abs(x - y))) ** -1

    def inner(x: float) -> float:
        # Finite middle with breakpoints at every kink, then the two tails
        # mapped to finite intervals by y = +-1/t (the integrands decay at
        # least like y^-2, so the transformed pieces are bounded).  All
        # pieces use relative tolerances: the outer transform multiplies
        # inner values by x^2, so absolute tolerances would not survive.
        cuts = sorted({-1.0, 1.0, -abs(x), abs(x), x - 1.0, x, x + 1.0})
        total, _ = integrate.quad(
            integrand, cuts[0], cuts[-1], args=(x,),
            points=cuts, limit=400, epsabs=0.0, epsrel=1e-11,
        )
        hi = cuts[-1]
        part, _ = integrate.quad(
            lambda t: integrand(1.0 / t, x) / (t * t), 0.0, 1.0 / hi,
            limit=400, epsabs=0.0, epsrel=1e-11,
        )
        total += part
        lo = -cuts[0]
        part, _ = integrate.quad(
            lambda t: integrand(-1.0 / t, x) / (t * t), 0.0, 1.0 / lo,
            limit=400, epsabs=0.0, epsrel=1e-11,
        )
        return total + part

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(inner, -1.0, 1.0, limit=400, epsabs=0.0, epsrel=1e-10)
        for sign in (1.0, -1.0):
            part, _ = integrate.quad(
                lambda t: inner(sign / t) / (t * t), 0.0, 1.0,
                limit=400, epsabs=0.0, epsrel=1e-10,
            )
            val += part
    closed = tamagawa.archimedean_density(model)
    assert abs(val - closed) <= 1e-8


def test_tail_bound_decreasing():
    model = geometry.load_model("BlP2-2")
    bounds = [
        tamagawa.tamagawa_number(model, p_max=pm, small_depth=5).tail_bound
        for pm in (100, 300, 1000)
    ]
    assert bounds[0] > bounds[1] > bounds[2] > 0


def test_tamagawa_cauchy_consistency(model):
    # Refining p_max moves the estimate by less than the claimed tail bound.
    lo = tamagawa.tamagawa_number(model, p_max=150, small_depth=6)
    hi = tamagawa.tamagawa_number(model, p_max=300, small_depth=6)
    budget = lo.tail_bound + lo.small_prime_error + hi.small_prime_error
    assert abs(lo.tamagawa - hi.tamagawa) <= budget


def test_tamagawa_closed_form_pins():
    # P1: 4 * prod (1-p^-2)/(1-p^-1) / zeta-shape = 24/pi^2; P2: 12/zeta(3);
    # BlP2-1: 16 * 36/pi^4 = 576/pi^4.
    with mpmath.workdps(30):
        targets = {
            "P1": 24.0 / math.pi**2,
            "P2": 12.0 / float(mpmath.zeta(3)),
            "BlP2-1": 576.0 / math.pi**4,
        }
    for mid, target in targets.items():
        res = tamagawa.tamagawa_number(geometry.load_model(mid), p_max=2000)
        budget = res.tail_bound + res.small_prime_error
        assert abs(res.tamagawa - target) <= budget, mid
        assert budget < 2e-3, mid


@pytest.mark.parametrize("mid,n", [("P1", 1), ("P2", 2), ("P3", 3)])
def test_predicted_constant_projective_spaces(mid, n):
    # For P^n the prediction collapses to the classical 2^n / zeta(n+1).
    model = geometry.load_model(mid)
    with mpmath.workdps(30):
        target = 2.0**n / float(mpmath.zeta(n + 1))
    got = tamagawa.predicted_constant(model, p_max=4000)
    assert abs(got - target) <= 1e-6, mid


def test_predicted_constant_reuses_result():
    model = geometry.load_model("P2")
    res = tamagawa.tamagawa_number(model, p_max=500, small_depth=8)
    c1 = tamagawa.predicted_constant(model, result=res)
    expected = res.tamagawa / 3.0  # rho = (3,), rank 1, so c = 1/3 and 0! = 1
    assert abs(c1 - expected) <= 1e-15


def test_tamagawa_number_exact_small_primes(model, monkeypatch):
    # p = 2, 3 never reach the cube refinement, and at the default p_max
    # the whole error budget is the Euler tail.
    def refuse(*args, **kwargs):
        raise AssertionError("brute_padic_fourier called")

    monkeypatch.setattr(fourier, "brute_padic_fourier", refuse)
    res = tamagawa.tamagawa_number(model, p_max=10_000)
    assert res.small_prime_error == 0.0
    assert (res.tail_bound + res.small_prime_error) / res.tamagawa <= 1e-10


def test_tamagawa_pmax_guard():
    with pytest.raises(ValueError):
        tamagawa.tamagawa_number(geometry.load_model("P1"), p_max=50)


def test_good_prime_factor_shape(model):
    f = tamagawa.good_prime_factor(model, 101)
    assert isinstance(f, Fraction)
    # Regularized factors approach 1 like 1/p^2.
    assert abs(f - 1) <= Fraction(2, 101 * 101) * (1 + model.rank)
