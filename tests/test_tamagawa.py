"""Local densities, regularized Euler products, and the leading constant."""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate

from gacount import fourier, geometry, tamagawa
from gacount._util import CapabilityError, primes_upto, vp_fraction, zeta
from conftest import closed_form_point_count


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


def denef_oracle(model, p, s):
    """The stratum sum of denef_local_factor written out in one pass, with
    its own convergence check: the oracle of denef_local_factor."""
    svec = geometry.coerce_picard(model, s)
    exps = [1 + sv - Fraction(r) for sv, r in zip(svec, model.rho)]
    if any(e <= 0 for e in exps):
        raise ValueError("outside the convergence domain")
    exact = all(e.denominator == 1 for e in exps)
    total = Fraction(0) if exact else 0.0
    for subset in model.stratum_polys:
        count = geometry.stratum_count(model, subset, p)
        term = Fraction(count) if exact else float(count)
        for name, e in zip(model.components, exps):
            if name in subset:
                if exact:
                    term *= Fraction(p - 1, p ** int(e) - 1)
                else:
                    term *= (p - 1) / (float(p) ** float(e) - 1.0)
        total += term
    if exact:
        return total / Fraction(p) ** model.dim
    return total / float(p) ** model.dim


GOOD_PRIMES_199 = primes_upto(199)[2:]


@pytest.mark.parametrize("shift", [0, 1, 2])
def test_denef_split_matches_oracle(model, shift):
    s = tuple(r + shift for r in model.rho)
    for p in GOOD_PRIMES_199:
        want = denef_oracle(model, p, s)
        got = tamagawa.denef_local_factor(model, p, s)
        assert type(got) is Fraction and got == want, p


def test_denef_split_float_branch_matches_oracle(model):
    # Half-integral exponents: the same floats, to the last bit.
    s = tuple(Fraction(2 * r + 1, 2) for r in model.rho)
    for p in GOOD_PRIMES_199:
        want = denef_oracle(model, p, s)
        assert type(want) is float
        assert tamagawa.denef_local_factor(model, p, s).hex() == want.hex(), p


def test_denef_sum_validates_each_prime(model):
    for p in (2, 3, 9, 25):
        with pytest.raises(ValueError):
            tamagawa.denef_local_factor(model, p, model.rho)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 29])
def test_local_density_counts_points(model, p):
    # The density times p^n is the F_p point count of the compactification,
    # which the strata partition recomputes at good primes.
    dens = tamagawa.exact_local_density(model, p, model.rho)
    n = model.dim
    assert dens * p**n == closed_form_point_count(model, p)
    if p in geometry.SMALL_PRIMES:
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
    if model.kind == "pn":
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


def test_exact_local_density_system_checks_cached_and_raised_every_call():
    # The (model, p) checks are cached; a refusal is raised on every call,
    # and cached values give the same densities at every s.
    bad = _blp22_with(((0, 2, -1), (1, 0, 0)), ((1, 0), (1, 2)))
    b1 = geometry.load_model("BlP2-1")
    s1 = tuple(r + 1 for r in b1.rho)
    for _ in range(3):
        with pytest.raises(CapabilityError):
            tamagawa.exact_local_density(bad, 2, bad.rho)
        with pytest.raises(CapabilityError):
            tamagawa.exact_local_density(b1, 5, s1, (1, 0))
    p2 = geometry.load_model("P2")
    first = [tamagawa.exact_local_density(p2, 5, (k,), (5, 0)) for k in (4, 5)]
    again = [tamagawa.exact_local_density(p2, 5, (k,), (5, 0)) for k in (4, 5)]
    assert first == again
    assert first[0] == 1 + Fraction(24, 625) - Fraction(25, 5**8)
    assert first[1] == 1 + Fraction(24, 5**5) - Fraction(25, 5**10)


def test_twisted_density_cone_check(monkeypatch):
    # Every blow-up has valuation cones at every prime, so a twisted index
    # raises the cone error; a hand-built model has no kind and is checked at
    # each prime (_system_data), cone-free like P2 whose sections it permutes,
    # or with a cone like the blow-up it varies.
    for mid in ("BlP2-1", "BlP2-2", "BlP2-3"):
        b = geometry.load_model(mid)
        for p in (2, 5, 7):
            with pytest.raises(CapabilityError, match="valuation cones"):
                tamagawa.exact_local_density(b, p, tuple(r + 1 for r in b.rho), (1, 0))
    p2 = geometry.load_model("P2")
    h = p2.generators[0]
    permuted = dataclasses.replace(p2, id="P2-permuted", generators=(
        geometry.GeneratorSystem(h.name, h.sections[::-1]),))
    with pytest.raises(ValueError, match="no catalog family"):
        permuted.kind
    checked = []
    inner = tamagawa._system_data
    monkeypatch.setattr(tamagawa, "_system_data",
                        lambda model, p: checked.append(p) or inner(model, p))
    for p, a in ((5, (5, 0)), (7, (1, 3)), (3, (9, 0))):
        assert tamagawa.exact_local_density(permuted, p, (4,), a) == \
            tamagawa.exact_local_density(p2, p, (4,), a)
    assert checked == [5, 7, 3]
    variant = _blp22_with(((0, 1, 0), (1, 0, 0)), ((1, 0), (1, 1)))
    with pytest.raises(CapabilityError, match="valuation cones"):
        tamagawa.exact_local_density(variant, 5, tuple(r + 1 for r in variant.rho), (1, 0))


def test_tamagawa_number_prepares_once(model, monkeypatch):
    # g is built once and shared by the Horner pass and the peel, and the s
    # checks of the exact factors at 2 and 3 run once: one call each of
    # regularized_factor_poly and convergence_beta per tamagawa_number.
    calls = {"regularized_factor_poly": 0, "convergence_beta": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(tamagawa, "regularized_factor_poly")
    counted(geometry, "convergence_beta")
    want = TAU_PINS[model.id]
    for _ in range(2):
        assert tamagawa.tamagawa_number(model).tamagawa.hex() == want
    assert calls == {"regularized_factor_poly": 2, "convergence_beta": 2}


def completion_loop(pairs, primes):
    """The zeta completion by the per-prime loop that _completion_body
    replaced, its slow-path oracle: each body zeta(b) prod_p (1 - p^(-b))
    multiplied from zeta(b) in ascending order, then raised to e_b."""
    out = 1.0
    for b, e in pairs:
        body = zeta(float(b))
        for p in primes:
            body *= 1.0 - float(p) ** (-float(b))
        out *= body ** e
    return out


def completion_reference(pairs, primes):
    """The same product to 50 digits (mpmath), at each b as a float."""
    with mpmath.workdps(50):
        out = mpmath.mpf(1)
        for b, e in pairs:
            x = mpmath.mpf(float(b))
            body = mpmath.zeta(x)
            for p in primes:
                body *= 1 - mpmath.mpf(p) ** -x
            out *= body ** e
        return out


def completion_bound(pairs, n):
    """The relative error of _completion_body over n primes that its
    docstring proves: 2r + 1.001 E."""
    r = 2.0**-53
    E = r * sum(abs(e) * (3 + (n + 33) * math.log(zeta(float(b)))) for b, e in pairs)
    return 2 * r + 1.001 * E


def peel_of(model):
    """(pairs (k, -e_k) of the zeta completion, C_h) of tamagawa_number."""
    peeled, c_h = tamagawa._peel_data(
        model, tamagawa.regularized_factor_poly(model, (1,) * model.rank))
    return [(k, -ek) for k, ek in peeled], c_h


def check_completion(pairs, primes):
    """_completion_body is within its proved bound of the 50-digit product
    and no farther from it than the per-prime loop; int and float primes
    give one float."""
    got = tamagawa._completion_body(pairs, primes)
    assert tamagawa._completion_body(pairs, np.array(primes, dtype=np.float64)) == got
    want = completion_reference(pairs, primes)
    err = abs(got - want) / want
    assert err <= completion_bound(pairs, len(primes))
    assert err <= abs(completion_loop(pairs, primes) - want) / want


@pytest.mark.parametrize("p_max", [100, 1009, 10**4])
def test_completion_body_of_the_peel(model, p_max):
    check_completion(peel_of(model)[0], primes_upto(p_max))


@pytest.mark.parametrize("b", [2, Fraction(7, 2), 7], ids=["2", "3.5", "7"])
def test_completion_body_of_a_character(b):
    # As global_fourier calls it: one pair (b, 1) over the computed primes.
    check_completion([(b, 1)], primes_upto(1000))


def test_exact_local_density_domain_errors():
    b1 = geometry.load_model("BlP2-1")
    for p, s in ((4, b1.rho), (2, (2, 2))):
        with pytest.raises(ValueError):
            tamagawa.exact_local_density(b1, p, s)


@pytest.mark.parametrize("shift", [Fraction(1, 2), Fraction(3, 2), Fraction(5, 3)])
def test_exact_local_density_real_exponents(model, shift):
    # Non-integer exponents sum the same geometric series in floats: within
    # 4 ulp of the float stratum sum at the good primes, and inside the
    # brute bound at 2 and 3.
    s = tuple(r + shift for r in model.rho)
    for p in GOOD_PRIMES_199:
        got = tamagawa.exact_local_density(model, p, s)
        want = tamagawa.denef_local_factor(model, p, s)
        assert type(got) is float and type(want) is float
        assert abs(got - want) <= 4 * math.ulp(want), p
    for p, depth in ((2, 10), (3, 6)):
        depth = 20 if model.kind == "pn" else depth
        brute = fourier.brute_padic_fourier(model, p, (0,) * model.dim, s, depth=depth)
        got = tamagawa.exact_local_density(model, p, s)
        assert abs(brute.value - got) <= brute.error_bound, p


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
            k = min(vp_fraction(Fraction(x), p) for x in a if x)
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
    # bound; so does the trivial character, (1 - 5^-sigma)/(1 - 5^-beta).
    p1 = geometry.load_model("P1")
    s = (Fraction(7, 2),)
    for a in ((1,), (5,), (50,), (0,)):
        val = tamagawa.exact_local_density(p1, 5, s, a)
        assert isinstance(val, float)
        brute = fourier.brute_padic_fourier(p1, 5, a, s, depth=16)
        assert abs(brute.value - val) <= brute.error_bound
    want = (1 - 5.0**-3.5) / (1 - 5.0**-2.5)
    assert abs(val - want) <= 4 * math.ulp(want)


def tate_shell_fraction(p, k, n, M):
    """Tate's shell sum in Fraction powers, the expression the integer pair
    of tamagawa._tate_shell_sum replaces."""
    if k < 0:
        return Fraction(0)
    P = Fraction(p)
    total = 1 - P ** (k * n - (k + 1) * M)
    for i in range(1, k + 1):
        total += (P ** (i * n) - P ** ((i - 1) * n)) * P ** (-i * M)
    return total


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_tate_shell_sum_integer_pair(p, n):
    for k in range(-1, 9):
        for M in (n + 1, n + 2, n + 7):
            num, den = tamagawa._tate_shell_sum(p, k, n, Fraction(M))
            assert type(num) is int and type(den) is int
            want = tate_shell_fraction(p, k, n, M)
            assert Fraction(num, den) == want, (k, M)
            assert num / den == float(want), (k, M)


def test_tate_shell_sum_float_branch():
    # A non-integer M keeps the float sum, with denominator 1.
    for p, k, n in ((2, 3, 1), (5, 1, 2), (3, -1, 1), (7, 0, 3)):
        M = Fraction(7, 2) + n
        num, den = tamagawa._tate_shell_sum(p, k, n, M)
        assert isinstance(num, float) and den == 1
        P, Mf = float(p), float(M)
        want = 0.0 if k < 0 else 1 - P ** (k * n - (k + 1) * Mf)
        for i in range(1, k + 1):
            want += (P ** (i * n) - P ** ((i - 1) * n)) * P ** (-i * Mf)
        assert num == want


def test_exact_twisted_factor_refuses_cones(model):
    # The blow-ups have valuation cones (the pencils), where the integrand
    # is not constant on the shells.
    s = tuple(r + 1 for r in model.rho)
    a = (1,) + (0,) * (model.dim - 1)
    if model.kind == "pn":
        assert tamagawa.exact_local_density(model, 5, s, a) == (
            1 - Fraction(1, 5) ** int(s[0]))
        return
    with pytest.raises(CapabilityError):
        tamagawa.exact_local_density(model, 5, s, a)
    with pytest.raises(ValueError):
        tamagawa.exact_local_density(model, 5, s, a + (1,))


# C_h of BlP2-2 and BlP2-3, exactly: the numerators in digits, the
# denominators (products of 5 and of the 5^k - 1) in prime powers.
C_H_BLP22 = Fraction(int(
    "3063301524302370723075845885958199431995770331603841440349589569074948579866"
    "7914877889860664073"
), 2**53 * 3**14 * 5**84 * 13**10)
C_H_BLP23 = Fraction(int(
    "2636737670268778752881873654109902962601068471286856412176169343127398569919"
    "8661883292600263104682210255948338617392015470851441846028621051669364164483"
    "6660667414163122792533093486113085110770199631911563819985467826614250803867"
    "5470303550002257725795055130258624182011207324046664207013685953527319218317"
    "6364893711716026441754434609487601932286898062389666183130791904749751114497"
    "7656304794208373095794520554704550481331916823430152095371269020779713254683"
    "4354079989415751511509407332542422871920206178836056276782789103512254140747"
    "21370113"
), 2**206 * 3**54 * 5**570 * 13**45)
# (peeled zeta exponents, float(C_h), exact C_h), captured from the full
# Fraction peel.
PEEL_PINS = {
    "P1": (((2, 1),), 0.0, 0),
    "P2": (((3, 1),), 0.0, 0),
    "P3": (((4, 1),), 0.0, 0),
    "BlP2-1": (((2, 2),), 0.0, 0),
    "BlP2-2": (((2, 5), (3, -5), (4, 10), (5, -24)), 99.76736992318708, C_H_BLP22),
    "BlP2-3": (((2, 9), (3, -16), (4, 45), (5, -144)), 1270.53530317739, C_H_BLP23),
}


def assert_encloses(c_h, exact):
    """_peel_data's C_h past the degree cap: a proved upper bound on the
    exact C_h of the full expansion, above it by at most 2^-50 relative."""
    assert exact <= c_h <= exact * (1 + Fraction(1, 2**50))


def test_peel_data_pins(model):
    g = tamagawa.regularized_factor_poly(model, (1,) * model.rank)
    peeled, c_h = tamagawa._peel_data(model, g)
    want_peeled, want_float, exact = PEEL_PINS[model.id]
    assert (peeled, float(c_h)) == (want_peeled, want_float)
    assert_encloses(c_h, exact)  # C_h = 0 exactly where the pin is 0


def _poly_mul(a, b):
    """Product of integer polynomials, one pair of coefficients at a time."""
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a):
                out[i + j] += x * y
    return out


def factor_oracle(model):
    """g at beta = (1, ..., 1), from the stratum polynomials one factor
    1 - u at a time."""
    total = [0] * (model.dim + 1)
    for poly in model.stratum_polys.values():
        for k, c in enumerate(poly):
            total[k] += c
    g = list(reversed(total))
    for _ in range(model.rank):
        g = _poly_mul(g, [1, -1])
    return g


def peel_oracle(g, peeled):
    """The exact C_h for the peel exponents peeled, with num and den
    expanded in full one factor 1 - u^k at a time and C_h's numerator
    summed term by term: the oracle of the capped binomial passes, the
    Horner sum and the majorant tail of _peel_data."""
    num, den = list(g), [1]
    for k, ek in peeled:
        base = [1] + [0] * (k - 1) + [-1]
        for _ in range(abs(ek)):
            if ek > 0:
                den = _poly_mul(den, base)
            else:
                num = _poly_mul(num, base)
    length = max(len(num), len(den))
    num += [0] * (length - len(num))
    den += [0] * (length - len(den))
    resid = [a - b for a, b in zip(num, den)]
    K = tamagawa.PEEL_ORDER
    assert not any(resid[: K + 1])
    top = length - 1
    c_num = Fraction(
        sum(abs(v) * 5 ** (top - m) for m, v in enumerate(resid) if m > K),
        5 ** max(top - K - 1, 0),
    )
    den_at_u5 = math.prod((1 - Fraction(1, 5**k)) ** ek for k, ek in peeled if ek > 0)
    return c_num / den_at_u5


def test_peel_data_matches_factor_by_factor_oracle(model):
    peeled, _, c_h = PEEL_PINS[model.id]
    g = factor_oracle(model)
    want = peel_oracle(g, peeled)
    assert tamagawa.regularized_factor_poly(model, (1,) * model.rank) == g
    got_peeled, got = tamagawa._peel_data(model, g)
    assert got_peeled == peeled
    assert_encloses(got, want)
    assert want == c_h


def test_peel_data_caps_larger_exponents(monkeypatch):
    # Any integer g = 1 + O(u^2) peels to integer exponents; this one's
    # (2, 12), (3, -20), (4, 36), (5, -190) expand num to degree 1016 (774
    # on BlP2-3), yet no pass goes past the cap, and the majorant tail keeps
    # C_h inside the enclosure of the full expansion.
    g = [1, 0, -12, 20, 30, -50, 9]
    degrees = []
    inner = tamagawa._mul_binomial

    def recorded(*args):
        out = inner(*args)
        degrees.append(len(out) - 1)
        return out

    monkeypatch.setattr(tamagawa, "_mul_binomial", recorded)
    start = time.perf_counter()
    peeled, c_h = tamagawa._peel_data(geometry.load_model("BlP2-3"), g)
    elapsed = time.perf_counter() - start
    assert peeled == ((2, 12), (3, -20), (4, 36), (5, -190))
    assert max(degrees) <= tamagawa._PEEL_CAP
    assert elapsed < 0.1  # about 0.4 ms; the full expansion takes 2 ms
    assert_encloses(c_h, peel_oracle(g, peeled))


# g at beta = (1, ..., 1), the polynomial tamagawa_number evaluates.
FACTOR_POLY_PINS = {
    "P1": [1, 0, -1],
    "P2": [1, 0, 0, -1],
    "P3": [1, 0, 0, 0, -1],
    "BlP2-1": [1, 0, -2, 0, 1],
    "BlP2-2": [1, 0, -5, 5, 0, -1],
    "BlP2-3": [1, 0, -9, 16, -9, 0, 1],
}
MIXED_BETA = {"BlP2-1": (3, 1), "BlP2-2": (1, 3, 2), "BlP2-3": (2, 1, 3, 1)}


def test_regularized_factor_poly_is_the_exact_density(model):
    # g_beta(1/p) is the untruncated local density at s = rho - 1 + beta
    # times prod_alpha (1 - p^-beta_alpha), exactly, at every good p < 200.
    assert tamagawa.regularized_factor_poly(model, (1,) * model.rank) == \
        FACTOR_POLY_PINS[model.id]
    betas = [(1,) * model.rank, tuple(int(r) + 1 for r in model.rho)]
    betas += [MIXED_BETA[model.id]] if model.id in MIXED_BETA else []
    for beta in betas:
        s = tuple(b - 1 + r for b, r in zip(beta, model.rho))
        g = tamagawa.regularized_factor_poly(model, beta)
        for p in primes_upto(199)[2:]:
            want = tamagawa.exact_local_density(model, p, s) * math.prod(
                1 - Fraction(1, p**b) for b in beta)
            assert sum(c * Fraction(1, p) ** k for k, c in enumerate(g)) == want, (beta, p)


@pytest.mark.parametrize("k, m", [(1, 0), (1, 1), (1, 4), (2, 7), (5, 144)])
def test_mul_binomial_matches_repeated_products(k, m):
    a = [3, -1, 0, 7, 2]
    want = a
    for _ in range(m):
        want = _poly_mul(want, [1] + [0] * (k - 1) + [-1])
    assert tamagawa._mul_binomial(a, k, m) == want
    # Cut at degree top: the first top + 1 coefficients, for top below, at
    # and past the full degree.
    full = len(want) - 1
    for top in sorted({0, 1, k, full // 2, full - 1, full, full + 1, full + 7}):
        assert tamagawa._mul_binomial(a, k, m, top) == want[: top + 1], top


def _regularized_factor(model, p):
    """Hhat_p(rho) * (1 - 1/p)^rank, the regularized good-prime factor."""
    dens = tamagawa.denef_local_factor(model, p, model.rho)
    return dens * (1 - Fraction(1, p)) ** model.rank


def test_regularization_residual_pins():
    p2 = geometry.load_model("P2")
    assert abs(_regularized_factor(p2, 5) - 1) == Fraction(1, 125)
    assert abs(_regularized_factor(p2, 11) - 1) == Fraction(1, 1331)
    b1 = geometry.load_model("BlP2-1")
    assert abs(_regularized_factor(b1, 5) - 1) == Fraction(49, 625)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_regularization_residual_decay(model, p):
    # Quadratic decay with a uniform constant across the catalog (the
    # worst case is BlP2-3, whose constant stays below 9).
    res = abs(_regularized_factor(model, p) - 1)
    assert res <= Fraction(9, p * p)


def test_local_factor_validation():
    with pytest.raises(ValueError):
        fourier.LocalFourierValue(1.0, 0.0, "guesswork")
    with pytest.raises(ValueError):
        fourier.LocalFourierValue(1.0, -1e-3, "brute-force")
    ok = fourier.LocalFourierValue(4.0, 0.0, "closed-form")
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


@pytest.mark.parametrize("p_max", [10000.0, 99, 0, -5, "10000", Fraction(1000), None])
def test_tamagawa_number_needs_an_integer_p_max(p_max):
    # A float p_max once failed inside the prime sieve with a TypeError; it
    # is refused up front, as global_fourier refuses it, with the same kind
    # of error as p_max below 100.  A NumPy integer is an integer.
    model = geometry.load_model("P2")
    with pytest.raises(ValueError, match="p_max must be an integer >= 100"):
        tamagawa.tamagawa_number(model, p_max=p_max)
    with pytest.raises(ValueError, match="p_max must be an integer >= 100"):
        tamagawa.predicted_constant(model, p_max=p_max)
    assert tamagawa.tamagawa_number(model, p_max=np.int64(1000)) == \
        tamagawa.tamagawa_number(model, p_max=1000)


def test_predicted_constant_reuses_result():
    model = geometry.load_model("P2")
    res = tamagawa.tamagawa_number(model, p_max=500, small_depth=8)
    c1 = tamagawa.predicted_constant(model, result=res)
    expected = res.tamagawa / 3.0  # rho = (3,), rank 1, so c = 1/3 and 0! = 1
    assert abs(c1 - expected) <= 1e-15


def test_predicted_constant_at_multiples_of_rho():
    # lambda = t rho gives c_rho t^-(b-1); any other lambda raises.
    b1 = geometry.load_model("BlP2-1")
    res = tamagawa.tamagawa_number(b1, p_max=500)
    at_rho = tamagawa.predicted_constant(b1, result=res)
    assert tamagawa.predicted_constant(b1, result=res, lam=b1.rho) == at_rho
    assert tamagawa.predicted_constant(b1, result=res, lam=(6, 4)) == at_rho / 2
    assert tamagawa.predicted_constant(b1, result=res, lam=(1, Fraction(2, 3))) == 3 * at_rho
    with pytest.raises(CapabilityError):
        tamagawa.predicted_constant(b1, result=res, lam=(1, 1))
    p1 = geometry.load_model("P1")
    res = tamagawa.tamagawa_number(p1, p_max=500)
    assert tamagawa.predicted_constant(p1, result=res, lam=(1,)) == \
        tamagawa.predicted_constant(p1, result=res)


def tamagawa_oracle(model, p_max):
    """tamagawa_number from scalar loops, one prime at a time: the oracle of
    its NumPy Horner pass, with the zeta completion of completion_loop."""
    arch = tamagawa.archimedean_density(model)
    partial = 1.0
    for p in (2, 3):
        reg = (1 - Fraction(1, p)) ** model.rank
        partial *= float(tamagawa.exact_local_density(model, p, model.rho) * reg)
    g = tamagawa.regularized_factor_poly(model, (1,) * model.rank)
    primes = [p for p in primes_upto(p_max) if p >= 5]
    for p in primes:
        u = 1.0 / p
        acc = 0.0
        for c in reversed(g):
            acc = acc * u + float(c)
        partial *= acc
    peeled, c_h = tamagawa._peel_data(model, g)
    completion = completion_loop([(k, -ek) for k, ek in peeled], [2, 3, *primes])
    tam = arch * partial * completion
    tail = (abs(tam) * tamagawa._euler_tail_bound(c_h, p_max)
            + tamagawa.FLOAT_ASSEMBLY_EPS * arch)
    return tamagawa.EulerProductResult(
        model_id=model.id, p_max=p_max, rank=model.rank, arch_density=arch,
        partial_product=partial, zeta_completion=completion, peeled=peeled,
        tamagawa=tam, tail_bound=tail, small_prime_error=0.0)


@pytest.mark.parametrize("p_max", [100, 1009, 10**4])
def test_tamagawa_number_matches_scalar_oracle(model, p_max):
    # Every field is the float of the scalar loops but the three that follow
    # the completion's log-sum, which lie within its proved bound (beta,
    # plus the roundings of the last products) of a 50-digit reference.
    got = tamagawa.tamagawa_number(model, p_max=p_max)
    want = tamagawa_oracle(model, p_max)
    moved = {"zeta_completion", "tamagawa", "tail_bound"}
    for field in dataclasses.fields(got):
        if field.name not in moved:
            hexed = [v.hex() if isinstance(v, float) else v
                     for v in (getattr(got, field.name), getattr(want, field.name))]
            assert hexed[0] == hexed[1], field.name
    pairs, c_h = peel_of(model)
    primes = primes_upto(p_max)
    beta, r = completion_bound(pairs, len(primes)), 2.0**-53
    with mpmath.workdps(50):
        completion = completion_reference(pairs, primes)
        tam = mpmath.mpf(got.arch_density) * got.partial_product * completion
        tail = (abs(tam) * tamagawa._euler_tail_bound(c_h, p_max)
                + tamagawa.FLOAT_ASSEMBLY_EPS * got.arch_density)
        assert abs(got.zeta_completion - completion) <= beta * completion
        assert abs(got.tamagawa - tam) <= (beta + 3 * r) * abs(tam)
        assert abs(got.tail_bound - tail) <= (beta + 6 * r) * tail


# tau = tamagawa_number(model).tamagawa at the default p_max, as float.hex.
TAU_PINS = {
    "P1": "0x1.37423899a1569p+1",
    "P2": "0x1.3f73d285cd9a9p+3",
    "P3": "0x1.d90e745022230p+4",
    "BlP2-1": "0x1.7a71f6a681b80p+2",
    "BlP2-2": "0x1.6c73c3f345b96p+1",
    "BlP2-3": "0x1.28c8b744b4f75p+0",
}


def test_tamagawa_number_pins(model):
    assert tamagawa.tamagawa_number(model).tamagawa.hex() == TAU_PINS[model.id]


def test_tamagawa_number_exact_small_primes(model, monkeypatch):
    # p = 2, 3 never reach the cube refinement, and at the default p_max
    # the whole error budget is the Euler tail.
    def refuse(*args, **kwargs):
        raise AssertionError("brute_padic_fourier called")

    monkeypatch.setattr(fourier, "brute_padic_fourier", refuse)
    res = tamagawa.tamagawa_number(model, p_max=10_000)
    assert res.small_prime_error == 0.0
    assert (res.tail_bound + res.small_prime_error) / res.tamagawa <= 1e-10


def test_renamed_model_same_constant(model):
    # The peel data and the brute tail constant come from catalog data, so a
    # model renamed with dataclasses.replace gives the same numbers.
    renamed = dataclasses.replace(model, id="renamed")
    s = tuple(r + 1 for r in model.rho)
    a = (1,) + (0,) * (model.dim - 1)
    for p in (2, 5):
        assert fourier.brute_padic_fourier(renamed, p, a, s, depth=3) == \
            fourier.brute_padic_fourier(model, p, a, s, depth=3)
    want = tamagawa.tamagawa_number(model, p_max=200)
    got = tamagawa.tamagawa_number(renamed, p_max=200)
    assert got == dataclasses.replace(want, model_id="renamed")


def test_tamagawa_pmax_guard():
    with pytest.raises(ValueError):
        tamagawa.tamagawa_number(geometry.load_model("P1"), p_max=50)


def test_good_prime_factor_shape(model):
    # The integer polynomial the Euler product evaluates is the regularized
    # closed-form factor.
    f = _regularized_factor(model, 101)
    g = tamagawa.regularized_factor_poly(model, (1,) * model.rank)
    assert sum(c * Fraction(1, 101) ** k for k, c in enumerate(g)) == f
    # Regularized factors approach 1 like 1/p^2.
    assert abs(f - 1) <= Fraction(2, 101 * 101) * (1 + model.rank)
