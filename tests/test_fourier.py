"""Character sums, local transforms and their oracles, global assembly."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gacount import enumeration, fourier, geometry, heights, tamagawa
from gacount._util import CapabilityError, factorize, primes_upto, vp_fraction, zeta
from conftest import global_height, pn_shell_sum


def test_character_index_and_support_primes():
    p1, p2, p3 = (geometry.load_model(mid) for mid in ("P1", "P2", "P3"))
    a = geometry.character_index(p2, (Fraction(25), Fraction(5)))
    assert a == (25, 5) and all(type(x) is Fraction for x in a)
    assert min(vp_fraction(x, 5) for x in a) == 1
    assert fourier._support_primes(a) == (5,)
    assert fourier._support_primes(geometry.character_index(p2, (25, 1))) == ()
    assert fourier._support_primes(geometry.character_index(p3, (6, 0, 12))) == (2, 3)
    assert fourier._support_primes(geometry.character_index(p2, (0, 0))) == ()
    frac = geometry.character_index(p1, (Fraction(1, 25),))
    assert frac[0].denominator != 1
    assert vp_fraction(frac[0], 5) == -2
    assert fourier._support_primes(frac) == (5,)
    # A scalar is a one-entry index; strings and floats coerce exactly.
    assert geometry.character_index(p1, 3) == (3,)
    assert geometry.character_index(p1, "1/4") == (Fraction(1, 4),)
    assert geometry.character_index(p2, (0.5, 2)) == (Fraction(1, 2), 2)
    for model, a in ((p1, (1, 2)), (p2, 3), (p2, ()), (p3, (1, 2))):
        with pytest.raises(ValueError, match="^character index has wrong length$"):
            geometry.character_index(model, a)
        with pytest.raises(ValueError, match="^character index has wrong length$"):
            geometry.divisor_multiplicities(model, a)


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


@pytest.mark.parametrize("mid,p", [("P1", 5), ("P1", 2), ("P2", 5), ("P3", 3)])
def test_brute_at_the_largest_float_depth(mid, p):
    # The scale p^(depth n) must be a float: the largest depth with
    # p^(depth n) < 2^1024 (441 for P1 at 5, 1023 at 2) still meets the
    # exact factor within its bound, and one more is refused.
    model = geometry.load_model(mid)
    n = model.dim
    depth = max(d for d in range(1, 1025) if p ** (d * n) < 2**1024)
    s = tuple(r + 1 for r in model.rho)
    zero = (0,) * n
    out = fourier.brute_padic_fourier(model, p, zero, s, depth=depth)
    exact = float(tamagawa.exact_local_density(model, p, s))
    assert abs(out.value - exact) <= out.error_bound
    with pytest.raises(CapabilityError, match="scale .* passes the limit 2\\^1024"):
        fourier.brute_padic_fourier(model, p, zero, s, depth=depth + 1)


def test_brute_refuses_a_deep_scale_before_any_work(monkeypatch):
    # The refusal comes before the index and s are checked, so before any
    # table is built: at depth 10^12 the tables would not fit in memory,
    # and p^(depth n) itself is never formed.
    def refuse(*args, **kwargs):
        raise AssertionError("work began before the depth check")

    monkeypatch.setattr(fourier, "_checked", refuse)
    p1 = geometry.load_model("P1")
    for p, depth in ((5, 442), (5, 10**12), (2, 1024), (10**9 + 7, 35)):
        with pytest.raises(CapabilityError, match="scale .* passes the limit 2\\^1024"):
            fourier.brute_padic_fourier(p1, p, (0,), (3,), depth=depth)


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
    # Inside the domain, but p^(-beta) rounds to 1.0: the tail bound refuses.
    tiny = tuple(r - 1 + Fraction(1, 10**18) for r in model.rho)
    with pytest.raises(ValueError, match="too small for a float tail bound"):
        fourier.brute_padic_fourier(model, 5, zero, tiny, depth=3)


@pytest.mark.parametrize("mid,p,depth", [("P2", 10007, 3), ("P1", 1398107, 3),
                                         ("BlP2-1", 1201, 3)])
def test_brute_refuses_past_the_stack_limit(monkeypatch, mid, p, depth):
    # depth * p^n past BRUTE_STACK_LIMIT is refused before the p^n children
    # of a cube are built.
    def refuse(*args, **kwargs):
        raise AssertionError("cube children built")

    monkeypatch.setattr(fourier, "_iter_product", refuse)
    model = geometry.load_model(mid)
    assert depth * p**model.dim > fourier.BRUTE_STACK_LIMIT
    with pytest.raises(CapabilityError, match="cube stack .* passes the limit 2\\^22"):
        fourier.brute_padic_fourier(model, p, (0,) * model.dim, model.rho, depth=depth)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_brute_cube_bound_covers_the_split_cubes(model, p):
    # A cube of level j < depth is split when some system's non-constant
    # sections all vanish mod p^j at its corner: counted here over every
    # corner, the visited cubes 1 + p^n sum_j (split at level j) stay within
    # _brute_cube_bound, with equality on P^n.
    n = model.dim
    forms = [[sec[1:] for sec in gen.sections if any(sec[1:])] for gen in model.generators]
    for depth in (1, 2, 3):
        visited = 1
        for j in range(depth):
            split = sum(any(all(sum(e * c for e, c in zip(form, corner)) % p**j == 0
                                for form in system) for system in forms)
                        for corner in itertools.product(range(p**j), repeat=n))
            visited += p**n * split
        bound = fourier._brute_cube_bound(model, p, depth)
        assert visited <= bound, (depth, visited, bound)
        if model.kind == "pn":
            assert bound == visited == 1 + depth * p**n


@pytest.mark.parametrize("mid,p,depth,a", [("BlP2-1", 5, 12, (0, 0)),
                                           ("BlP2-1", 47, 3, (47, 0)),
                                           ("BlP2-3", 3, 12, (0, 0))])
def test_brute_refuses_past_the_cube_limit(monkeypatch, mid, p, depth, a):
    # Past BRUTE_CUBE_LIMIT cubes: refused before the first cube, though
    # the stack guard lets these through.
    def refuse(*args, **kwargs):
        raise AssertionError("cube children built")

    monkeypatch.setattr(fourier, "_iter_product", refuse)
    model = geometry.load_model(mid)
    assert depth * p**model.dim <= fourier.BRUTE_STACK_LIMIT
    with pytest.raises(CapabilityError, match="cubes .* passes the limit 2\\^22"):
        fourier.brute_padic_fourier(model, p, a, model.rho, depth=depth)


def test_global_fourier_refuses_a_large_support_prime(monkeypatch):
    # The support prime 1009 needs about 1009^4 cubes at depth 3: refused
    # at once, before the archimedean factor or any brute integral runs.
    def refuse(*args, **kwargs):
        raise AssertionError("a factor was computed")

    for name in ("arch_fourier", "brute_padic_fourier"):
        monkeypatch.setattr(fourier, name, refuse)
    b1 = geometry.load_model("BlP2-1")
    with pytest.raises(CapabilityError, match="p = 1009, depth 3: .* cubes .* passes the limit"):
        fourier.global_fourier(b1, (1009, 0), (6, 4))


def test_every_catalog_brute_call_is_under_the_cube_limit():
    # The heaviest calls global_fourier, A5, A7 and verify-denef make: the
    # suggested depths at p = 2, 3 and depth 3 at the A5/A7 primes.
    for mid in geometry.MODEL_IDS:
        model = geometry.load_model(mid)
        for p in (2, 3, 5, 7, 11):
            depth = max(3, fourier.suggested_depth(model, p))
            assert fourier._brute_cube_bound(model, p, depth) <= fourier.BRUTE_CUBE_LIMIT


# The six transforms whose s passes geometry.convergence_beta, at p = 5;
# denef_local_factor takes no character index.
TRANSFORMS = {
    "brute_padic_fourier": lambda m, a, s: fourier.brute_padic_fourier(m, 5, a, s, depth=2),
    "closed_form_good_prime": lambda m, a, s: fourier.closed_form_good_prime(m, 5, a, s),
    "arch_fourier": lambda m, a, s: fourier.arch_fourier(m, a, s),
    "global_fourier": lambda m, a, s: fourier.global_fourier(m, a, s, p_max=100),
    "exact_local_density": lambda m, a, s: tamagawa.exact_local_density(m, 5, s, a),
    "denef_local_factor": lambda m, a, s: tamagawa.denef_local_factor(m, 5, s),
}


@pytest.mark.parametrize("name", TRANSFORMS)
def test_transforms_share_the_domain_and_index_errors(model, name):
    # beta_alpha = 0 on one component raises the one convergence-domain
    # error, before any model capability is consulted; so does an index of
    # the wrong length raise the one index error.
    transform = TRANSFORMS[name]
    a = (1,) * model.dim
    for i in range(model.rank):
        s = tuple(r - 1 if j == i else r + 1 for j, r in enumerate(model.rho))
        with pytest.raises(ValueError) as want:
            geometry.convergence_beta(model, s)
        with pytest.raises(ValueError) as got:
            transform(model, a, s)
        assert str(got.value) == str(want.value), i
    if name != "denef_local_factor":
        with pytest.raises(ValueError, match="^character index has wrong length$"):
            transform(model, (1,) * (model.dim + 1), tuple(r + 1 for r in model.rho))


@pytest.mark.parametrize("mid", ["BlP2-1", "BlP2-2"])
def test_global_fourier_checks_integrality_first(monkeypatch, mid):
    # A non-integral index on a blow-up is refused before any transform runs.
    def refuse(*args, **kwargs):
        raise AssertionError("transform ran before the index check")

    for name in ("arch_fourier", "brute_padic_fourier", "closed_form_good_prime"):
        monkeypatch.setattr(fourier, name, refuse)
    model = geometry.load_model(mid)
    with pytest.raises(ValueError):
        fourier.global_fourier(model, (Fraction(1, 2), 1), tuple(r + 1 for r in model.rho))


def test_closed_form_p1_pin():
    p1 = geometry.load_model("P1")
    main, et = fourier.closed_form_good_prime(p1, 7, (1,), (3,))
    assert main == complex(1 - Fraction(1, 343))
    assert et == 0.0
    brute = fourier.brute_padic_fourier(p1, 7, (1,), (3,), depth=10)
    assert abs(brute.value - main) <= brute.error_bound


def test_closed_form_trivial_character_dispatch(model):
    # The closed form is for a != 0; at a = 0 it refuses and names the exact
    # local factor to use instead.
    s = tuple(r + 1 for r in model.rho)
    with pytest.raises(ValueError, match="denef_local_factor"):
        fourier.closed_form_good_prime(model, 11, (0,) * model.dim, s)


@pytest.mark.parametrize("mid,s", [("P2", (4,)), ("P3", (5,)),
                                   ("BlP2-1", (6, 4)), ("BlP2-1", (5, 3))])
def test_global_fourier_trivial_character_exact_at_integer_beta(monkeypatch, mid, s):
    # At a = 0 and integer beta no brute integral and no per-prime stratum
    # sum runs: 2 and 3 are exact_local_density, the good primes g_beta.
    def refuse(*args, **kwargs):
        raise AssertionError("a = 0 at integer beta must take the exact factors")

    monkeypatch.setattr(fourier, "brute_padic_fourier", refuse)
    monkeypatch.setattr(tamagawa, "denef_local_factor", refuse)
    model = geometry.load_model(mid)
    out = fourier.global_fourier(model, (0,) * model.dim, s, p_max=200)
    assert out.value.real > 0 and out.value.imag == 0
    assert [name for name, _ in out.zeta_factors] == list(model.components)


HALF = Fraction(1, 2)
HALF_INTEGRAL_S = [("P2", (7 * HALF,)), ("P3", (9 * HALF,)),
                   ("BlP2-1", (11 * HALF, 7 * HALF)), ("BlP2-1", (9 * HALF, 5 * HALF))]


@pytest.mark.parametrize("mid,s", HALF_INTEGRAL_S)
def test_global_fourier_trivial_character_runs_no_brute_integral(monkeypatch, mid, s):
    # At a = 0 and non-integer beta every computed factor is
    # exact_local_density: no cube refinement, no two-term closed form.
    def refuse(*args, **kwargs):
        raise AssertionError("a = 0 must take the exact factors")

    for name in ("brute_padic_fourier", "closed_form_good_prime"):
        monkeypatch.setattr(fourier, name, refuse)
    model = geometry.load_model(mid)
    out = fourier.global_fourier(model, (0,) * model.dim, s)
    assert out.value.real > 0 and out.value.imag == 0
    assert out.error_bound < 1e-3 * out.value.real


def trivial_character_oracle(model, s, p_max):
    """global_fourier at a = 0 by the slow route: brute force at 2 and 3 at
    the depths of its brute path, denef_local_factor at each good prime,
    and the same completion and tail.  (value, bound)."""
    a = (0,) * model.dim
    _, s, beta = fourier._checked_s(model, a, s)
    arch = fourier.arch_fourier(model, a, s)
    eps = min(float(b) for b in beta)

    def peel(p):
        return math.prod(1.0 - float(p) ** -float(b) for b in beta)

    finite, rel = 1.0, 0.0
    for p in (2, 3):
        want = math.ceil(30.0 * math.log(2.0) / (eps * math.log(p))) + 1
        depth = max(3, min(want, max(fourier.suggested_depth(model, p), 3)))
        brute = fourier.brute_padic_fourier(model, p, a, s, depth=depth)
        finite *= brute.value.real * peel(p)
        rel += brute.error_bound / (abs(brute.value) - brute.error_bound)
    for p in primes_upto(p_max)[2:]:
        finite *= float(tamagawa.denef_local_factor(model, p, s)) * peel(p)
    for b in beta:
        finite *= zeta(float(b)) * math.prod(1.0 - float(p) ** -float(b)
                                             for p in primes_upto(p_max))
    betas = [float(b) for b in beta]
    e = fourier._global_tail_exponent(betas, betas)
    tail = math.expm1(fourier._GLOBAL_TAIL_K * model.rank * p_max ** (1.0 - e) / (e - 1.0))
    value = arch.value.real * finite
    bound = (abs(value) * (rel + tail) + arch.error_bound * abs(finite)
             + 1e-14 * max(1.0, abs(value)))
    return value, bound


@pytest.mark.parametrize("mid,s", [("P2", (4,)), ("P3", (5,)), ("BlP2-1", (6, 4))]
                         + HALF_INTEGRAL_S[:3])
def test_global_fourier_trivial_character_vs_brute_oracle(mid, s):
    # The exact factors land inside the interval of the path they replace,
    # and their bound is no wider.
    model = geometry.load_model(mid)
    out = fourier.global_fourier(model, (0,) * model.dim, s, p_max=200)
    value, bound = trivial_character_oracle(model, s, 200)
    assert abs(out.value - value) <= bound
    assert out.error_bound <= bound


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


def test_arch_fourier_refuses_where_quadpack_warns():
    # At a = (1000, 0), s = (6, 4) the outer integral of BlP2-1's nested
    # quadrature makes QUADPACK warn "probably divergent, or slowly
    # convergent" with an estimate ten times the value; that estimate may
    # not enter a bound, from arch_fourier or from global_fourier.
    b1 = geometry.load_model("BlP2-1")
    for transform in (fourier.arch_fourier, fourier.global_fourier):
        with pytest.raises(CapabilityError, match="QUADPACK warned: The integral is probably"):
            transform(b1, (1000, 0), (6, 4))
    assert fourier.arch_fourier(b1, (1, 2), (6, 4)).error_bound < 1e-5


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
        old = fourier._arch_quad_2d(p2, geometry.character_index(p2, a), s)
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


@pytest.mark.parametrize("a", [(1, 2, 4), (1, 1, 0), (1, 1, 2), (3, 1, 2)])
def test_arch_fourier_p3_vs_mpmath(a):
    # The layer-cake integral sigma int_1^oo u^(-sigma-1) prod_j Phi_j(u) du
    # by mpmath, without the product-to-sum expansion; (1, 2, 4) has the
    # negative sine frequency 1 + 2 - 4, and (1, 1, 2) and (3, 1, 2) have two
    # sign patterns of equal |f| and a sine at f = 0.
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


KERNEL_GAMMAS = [1.5, 2, 2.25, 3, 5.5, 6, 11, 12]


def _kernel_freqs(gamma):
    # The tail alone serves w >= 2 (gamma + K); straddle that switch.
    switch = (gamma + fourier._IBP_TERMS) / math.pi
    return [1e-3, 1 / 3, 1, 2, 7, 333, 1e4,
            switch * (1 - 1e-9), switch * (1 + 1e-9)]


@pytest.mark.parametrize("gamma", KERNEL_GAMMAS)
def test_osc_power_integral_vs_expint(gamma):
    # I(gamma, w) = E_gamma(-i w), evaluated by mpmath at the same float w.
    for f in _kernel_freqs(gamma):
        w = 2 * math.pi * f
        value, bound = fourier._osc_power_integral(float(gamma), w)
        with mpmath.workdps(30):
            ref = complex(mpmath.expint(mpmath.mpf(gamma),
                                        mpmath.mpc(0, -mpmath.mpf(w))))
        assert abs(value - ref) <= bound, (gamma, f)
        assert bound <= 1e-13 / (gamma - 1), (gamma, f)


@pytest.mark.parametrize("gamma", [2.25, 5.5, 11])
def test_osc_power_integral_vs_quadpack(gamma):
    from scipy import integrate

    for f in (1 / 3, 1, 7, 333):
        w = 2 * math.pi * f
        value, bound = fourier._osc_power_integral(gamma, w)
        for part, trig in ((value.real, "cos"), (value.imag, "sin")):
            ref, est = integrate.quad(lambda u: u ** -gamma, 1.0, np.inf,
                                      weight=trig, wvar=w)
            assert abs(part - ref) <= bound + est, (gamma, f, trig)


@pytest.mark.parametrize("gamma", KERNEL_GAMMAS)
def test_osc_power_integral_batch_matches_single(gamma):
    # One call on the whole grid gives, element by element, the one-element
    # call, and each value passes the expint bound.
    ws = np.array([2 * math.pi * f for f in _kernel_freqs(gamma)])
    values, bounds = fourier._osc_power_integral(float(gamma), ws)
    assert values.shape == bounds.shape == ws.shape
    for w, value, bound in zip(ws, values, bounds):
        one, one_bound = fourier._osc_power_integral(float(gamma), np.array([w]))
        assert value == one[0] and bound == one_bound[0], (gamma, w)
        with mpmath.workdps(30):
            ref = complex(mpmath.expint(mpmath.mpf(gamma),
                                        mpmath.mpc(0, -mpmath.mpf(float(w)))))
        assert abs(value - ref) <= bound, (gamma, w)


def test_osc_power_integral_rows_match_their_one_row_calls():
    # The tail's four sums are one einsum, which gives each w the floats of
    # its own one-element call at every batch size (poisson_check's chunks
    # rely on it; BLAS's matmul does not): batches of 1, 2, 1001 and 2^14
    # frequencies over the head and the tail.
    rng = np.random.default_rng(7)
    for gamma in (1.5, 5.0, 11.0):
        ws = np.exp(rng.uniform(math.log(1e-3), math.log(1e5), 2**14))
        values, bounds = fourier._osc_power_integral(gamma, ws)
        for size in (1, 2, 1001):
            v, b = fourier._osc_power_integral(gamma, ws[:size])
            assert np.array_equal(v, values[:size]) and np.array_equal(b, bounds[:size])
        for i in itertools.chain(range(1001), range(1001, 2**14, 41)):
            v, b = fourier._osc_power_integral(gamma, ws[i:i + 1])
            assert (v[0], b[0]) == (values[i], bounds[i]), (gamma, ws[i])


def test_gauss_legendre_rule_correctly_rounded():
    # Against mpmath's own Gauss-Legendre rule (degree 4: 24 nodes) at 120
    # bits, independent of the Newton step behind _GL_HALF.
    from mpmath.calculus.quadrature import GaussLegendre

    x, w = fourier._GL_X, fourier._GL_W
    assert len(x) == len(w) == fourier._GL_NODES == 24
    exact = sorted(GaussLegendre(mpmath.mp).calc_nodes(4, 120))
    ulp = 2.0 ** -53 * (1 + 1e-12)
    for xi, wi, (xe, we) in zip(x, w, exact):
        assert abs(mpmath.mpf(float(xi)) - xe) <= ulp * abs(xe)
        assert abs(mpmath.mpf(float(wi)) - we) <= ulp * we


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


# global_fourier's (real, imag, bound) as float.hex: P2 at s = rho + 1 over
# a in [0, 3]^2, p_max = 1000 (the bench's grid), and BlP2-1 at s = (6, 4),
# p_max = 200.
GLOBAL_P2_PINS = {
    (0, 0): ("0x1.d91dd5881b3bbp+2", "0x0.0p+0", "0x1.f01961b414626p-17"),
    (0, 1): ("0x1.13dcfe19fbbffp-2", "0x0.0p+0", "0x1.d6456acf1abf4p-46"),
    (0, 2): ("0x1.ae2779d8ac229p-4", "0x0.0p+0", "0x1.9a3fd19df5b32p-46"),
    (0, 3): ("0x1.678413847ff07p-5", "0x0.0p+0", "0x1.5628165ae020cp-46"),
    (1, 0): ("0x1.13dcfe19fbbffp-2", "0x0.0p+0", "0x1.d6456acf1abf4p-46"),
    (1, 1): ("0x1.581f94ad56822p-5", "0x0.0p+0", "0x1.a47324bd2da7cp-47"),
    (1, 2): ("0x1.60962370b0c25p-8", "0x0.0p+0", "0x1.9594ac1ba525dp-47"),
    (1, 3): ("0x1.29b253a441cdep-10", "0x0.0p+0", "0x1.8bcc9b1095993p-47"),
    (2, 0): ("0x1.ae2779d8ac229p-4", "0x0.0p+0", "0x1.9a3fd19df5b32p-46"),
    (2, 1): ("0x1.60962370b0c25p-8", "0x0.0p+0", "0x1.9594ac1ba525dp-47"),
    (2, 2): ("0x1.d10a5fa5ebd8bp-7", "0x0.0p+0", "0x1.804f6bb3b9034p-47"),
    (2, 3): ("0x1.0afcf1db30836p-9", "0x0.0p+0", "0x1.79ce6aeee1357p-47"),
    (3, 0): ("0x1.678413847ff07p-5", "0x0.0p+0", "0x1.5628165ae020cp-46"),
    (3, 1): ("0x1.29b253a441cdep-10", "0x0.0p+0", "0x1.8bcc9b1095993p-47"),
    (3, 2): ("0x1.0afcf1db30836p-9", "0x0.0p+0", "0x1.79ce6aeee1357p-47"),
    (3, 3): ("0x1.75882d0abe22cp-8", "0x0.0p+0", "0x1.731a040f5c46ap-47"),
}
GLOBAL_BLP21_PINS = {
    (0, 0): ("0x1.7c2cea40d0d38p+2", "0x0.0p+0", "0x1.09c30f64b262dp-19"),
    (1, 0): ("0x1.1168f1036dd0cp-2", "0x1.0f86bea90675bp-60", "0x1.8523e84f371cep-14"),
    (0, 1): ("0x1.54ba00da9b837p-2", "0x1.0b9b464d14e7ep-60", "0x1.3561b770c2e7ep-11"),
    (1, 2): ("0x1.12096430282b1p-7", "0x1.a0c14f1a34879p-65", "0x1.41a3c3dae5bf9p-17"),
    (0, 3): ("0x1.f2832ac9563a4p-5", "0x1.1a74a81f8a221p-62", "0x1.c4b00c4a357c6p-14"),
    (5, 3): ("0x1.615957a17eb06p-12", "0x1.22337be0c3c5ap-69", "0x1.0bef13a96e981p-16"),
}


def test_global_fourier_pins():
    p2 = geometry.load_model("P2")
    b1 = geometry.load_model("BlP2-1")
    for model, s, p_max, pins in ((p2, (4,), 1000, GLOBAL_P2_PINS),
                                  (b1, (6, 4), 200, GLOBAL_BLP21_PINS)):
        for a, want in pins.items():
            out = fourier.global_fourier(model, a, s, p_max=p_max)
            got = (out.value.real.hex(), out.value.imag.hex(), out.error_bound.hex())
            assert got == want, (model.id, a)


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
    # p_max plays no role on P^n.
    again = fourier.global_fourier(model, a, s, p_max=5000)
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


def pn_slow_path(model, a, s):
    """global_fourier on P^n composed from the public per-call pieces, with
    the float operations of the assembly the kernel replaced: arch_fourier
    times zeta(sigma)^(-1) (times zeta(beta) at a = 0) times
    float(exact_local_density) / (1 - p^(-sigma)) at each support prime."""
    s = geometry.coerce_picard(model, s)
    arch = fourier.arch_fourier(model, a, s)
    sigma = float(s[0])
    finite = 1.0 / zeta(sigma)
    if not any(a):
        finite *= zeta(float(s[0] - model.dim))
    for p in fourier._support_primes(geometry.character_index(model, a)):
        local = tamagawa.exact_local_density(model, p, s, a)
        finite *= float(local) / (1.0 - float(p) ** (-sigma))
    value = arch.value * finite
    bound = arch.error_bound * abs(finite) + 1e-14 * max(1.0, abs(value))
    return value, bound


def _pn_oracle_cases():
    p1, p2, p3 = (geometry.load_model(m) for m in ("P1", "P2", "P3"))
    for a in list(range(1, 301)) + [2**20, 3**12 * 5]:
        yield p1, (a,), (10,)
    for x in range(-6, 7):
        for y in range(-6, 7):
            if x or y:
                yield p2, (x, y), tuple(r + 1 for r in p2.rho)
    for a in ((1, 0, 0), (2, 2, 4), (0, 0, 15), (-3, 5, 7), (8, 0, -8)):
        yield p3, a, tuple(r + 1 for r in p3.rho)
    # A fractional sigma (float shell sums) and rational indices.
    for a in ((1,), (6,), (Fraction(1, 2),), (0,)):
        yield p1, a, (Fraction(7, 2),)
    yield p2, (Fraction(3, 4), Fraction(1, 6)), (4,)
    yield p2, (Fraction(3, 4), Fraction(1, 6)), (Fraction(9, 2),)
    yield p1, (Fraction(1, 2),), (10,)
    yield p1, (0,), (10,)


def test_pn_kernel_matches_slow_path():
    # The per-character kernel behind global_fourier is bit-identical to
    # the per-call composition of the public pieces it replaced.
    for model, a, s in _pn_oracle_cases():
        out = fourier.global_fourier(model, a, s)
        value, bound = pn_slow_path(model, a, s)
        assert out.value == value, (model.id, a, s)
        assert out.error_bound == bound, (model.id, a, s)


@pytest.mark.parametrize("mid,radius", [("P2", 4), ("P3", 2)])
def test_pn_kernel_batch_matches_one_row(mid, radius):
    # A batch mixing zero counts z (so several gammas), merged sign patterns
    # and shared frequencies gives, row by row, the one-row global_fourier.
    model = geometry.load_model(mid)
    rows = [a for a in itertools.product(range(-radius, radius + 1), repeat=model.dim)
            if any(a)]
    s = (model.rho[0] + 1,)
    values, bounds, _ = fourier._pn_characters(model, Fraction(s[0]), np.array(rows))
    for a, value, bound in zip(rows, values, bounds):
        one = fourier.global_fourier(model, a, s)
        assert (one.value, one.error_bound) == (value, bound), a


# gcds at the edge of the kernel's lookup of p^k in [p, ..., p^K] and of its
# sieve: high prime powers (2^61 and 3^39 near int64's end), a product of
# the first 15 primes, one larger prime left after the sieve (1000003), and
# 1031 * 1033, whose square root needs the sieve's second segment.
EXTREME_GCDS = (2**61, 3**39, 2**30 * 3**18, math.prod(primes_upto(47)), 2**40 * 1000003,
                1031 * 1033)


def pn_characters_oracle(model, sigma, rows):
    """_pn_characters row by row, with one tamagawa._tate_factor call per
    support prime of each row, the gcd factored by trial division."""
    rows = np.asarray(rows, dtype=np.int64)
    arch, arch_err = fourier._arch_projective(model.dim, sigma, rows)
    sig = float(sigma)
    values, bounds = [], []
    for row, arch_v, err in zip(rows.tolist(), arch.tolist(), arch_err.tolist()):
        finite = 1.0 / zeta(sig)
        g = math.gcd(*row)
        if g == 0:
            finite *= zeta(float(1 + sigma - model.rho[0]))
        for p, k in (factorize(g).items() if g else ()):
            num, den = tamagawa._tate_factor(model, p, k, sigma)
            finite *= num / den / (1.0 - float(p) ** (-sig))
        values.append(arch_v * finite)
        bounds.append(err * abs(finite) + 1e-14 * max(1.0, abs(values[-1])))
    return values, bounds


@pytest.mark.parametrize("mid, sigma, radius", [
    ("P1", 4, 5000), ("P1", 10, 5000), ("P1", Fraction(7, 2), 5000),
    ("P2", 4, 12), ("P2", Fraction(7, 2), 12), ("P3", 5, 4), ("P3", Fraction(9, 2), 4)])
def test_pn_characters_match_per_prime_tate_oracle(mid, sigma, radius):
    # The kernel, which factors all the gcds of a batch at once, gives bit
    # for bit the factors of a row-by-row loop; P1 takes a = 0..radius, P2
    # and P3 a grid of nonzero indices with repeated gcds.  Rows with
    # EXTREME_GCDS follow, each as (g, 0, ..., 0) and (0, ..., g, -g).
    model = geometry.load_model(mid)
    if model.dim == 1:
        rows = [(a,) for a in range(radius + 1)]
    else:
        rows = [a for a in itertools.product(range(-radius, radius + 1), repeat=model.dim)
                if any(a)]
    n = model.dim
    rows += [(g,) + (0,) * (n - 1) for g in EXTREME_GCDS]
    rows += [(0,) * (n - 2) + (g, -g) for g in EXTREME_GCDS if n > 1]
    values, bounds, _ = fourier._pn_characters(model, Fraction(sigma), np.array(rows))
    want_values, want_bounds = pn_characters_oracle(model, Fraction(sigma), rows)
    assert [v.hex() for v in values.tolist()] == [v.hex() for v in want_values]
    assert [b.hex() for b in bounds.tolist()] == [b.hex() for b in want_bounds]


def test_pn_kernel_checks_no_cone_per_prime(monkeypatch):
    # On kind "pn" one cone check, the kind, covers every prime: at most one
    # _system_data call per kernel call, though a = 0..1000 has 168 support
    # primes.
    calls = []
    inner = tamagawa._system_data
    monkeypatch.setattr(tamagawa, "_system_data",
                        lambda model, p: calls.append(p) or inner(model, p))
    p1, p2 = geometry.load_model("P1"), geometry.load_model("P2")
    fourier._pn_characters(p1, Fraction(5), np.arange(1001)[:, None])
    assert len(calls) <= 1
    calls.clear()
    fourier.global_fourier(p2, (6, 10), (4,))
    assert len(calls) <= 1
    calls.clear()
    assert fourier.poisson_check(p1, p1.rho, 5, 10**3, 1000)["pass"]
    assert len(calls) <= 1


def test_global_fourier_fractional_beta_prepares_s_once(monkeypatch):
    # At a = 0 and a non-integer beta every computed prime takes
    # exact_local_density's per-prime part; the s-only part runs once per
    # call, so the convergence_beta calls (global_fourier's own check, the
    # archimedean factor's and the density setup) do not grow with p_max.
    p2 = geometry.load_model("P2")
    calls = []
    inner = geometry.convergence_beta
    monkeypatch.setattr(geometry, "convergence_beta",
                        lambda model, s: calls.append(s) or inner(model, s))
    seen = []
    for p_max in (200, 2000):
        calls.clear()
        fourier.global_fourier(p2, (0, 0), (Fraction(7, 2),), p_max=p_max)
        seen.append(len(calls))
    assert seen[0] == seen[1] <= 3


def test_poisson_check_checks_s_outside_character_loop(monkeypatch):
    # coerce_picard runs as often at a_cut = 200 as at a_cut = 10, and the
    # per-call pieces never run: s is checked once per spectral sum.
    calls = {"coerce_picard": 0, "arch_fourier": 0, "exact_local_density": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(geometry, "coerce_picard")
    counted(fourier, "arch_fourier")
    counted(tamagawa, "exact_local_density")
    p1 = geometry.load_model("P1")
    seen = []
    for a_cut in (10, 200):
        for key in calls:
            calls[key] = 0
        assert fourier.poisson_check(p1, p1.rho, 5, 10**3, a_cut)["pass"]
        seen.append(dict(calls))
    assert seen[0] == seen[1]
    assert seen[1]["arch_fourier"] == seen[1]["exact_local_density"] == 0


@pytest.mark.parametrize("s", [5, Fraction(7, 2), Fraction(7, 4)])
def test_poisson_check_batch_matches_one_by_one(s):
    # The batch kernel's spectral side equals the left-to-right sum of
    # one-row global_fourier calls, bit for bit.  On P1 at rho sigma = 2s,
    # so s = 7/4 takes the float shell sums.
    p1 = geometry.load_model("P1")
    a_cut = 200
    out = fourier.poisson_check(p1, p1.rho, s, 10**3, a_cut)
    s_pic = (Fraction(s) * p1.rho[0],)
    g0 = fourier.global_fourier(p1, (0,), s_pic)
    rhs, err = g0.value.real, g0.error_bound
    for a in range(1, a_cut + 1):
        g = fourier.global_fourier(p1, (a,), s_pic)
        rhs += 2.0 * g.value.real
        err += 2.0 * g.error_bound
    finite_k = abs(g0.value) / fourier.arch_fourier(p1, (0,), s_pic).value.real
    a_tail = 2.0 * finite_k * float(s_pic[0]) / (math.pi ** 2 * a_cut)
    _, lhs_tail = fourier.zeta_truncated(p1, p1.rho, float(s), 10**3)
    assert out["rhs"] == rhs
    assert out["combined_bound"] == lhs_tail + err + a_tail


def test_poisson_check_in_chunks_of_characters(monkeypatch):
    # a_cut = 3 * 2^14 + 5 spans four chunks of _CHARACTER_CHUNK; the result
    # equals the one-call result bit for bit, and the traced peak is that of
    # one chunk (10.1 MB now, with 30 % over it allowed; 24.5 MB before the
    # tail's sums built no (N, 4, K) array; Python 3.11, NumPy 2.4).
    p1 = geometry.load_model("P1")
    a_cut = 3 * 2**14 + 5
    tracemalloc.start()
    try:
        chunked = fourier.poisson_check(p1, (1,), 2.5, 100, a_cut)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13_000_000, peak
    monkeypatch.setattr(fourier, "_CHARACTER_CHUNK", a_cut + 1)
    assert fourier.poisson_check(p1, (1,), 2.5, 100, a_cut) == chunked
    assert chunked["pass"]


def test_poisson_check_computes_each_tate_factor_once(monkeypatch):
    # The chunks of one poisson_check share their Tate factors: across the
    # four chunks of a = 0..3 * 2^14 + 5 each (p, k) is one _tate_factor
    # call (the small primes were redone in every chunk before).
    calls = []
    inner = tamagawa._tate_factor
    monkeypatch.setattr(tamagawa, "_tate_factor",
                        lambda model, p, k, M: calls.append((p, k)) or inner(model, p, k, M))
    p1 = geometry.load_model("P1")
    fourier.poisson_check(p1, (1,), 2.5, 100, 3 * 2**14 + 5)
    assert len(calls) == len(set(calls)) > 5000


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


def test_global_fourier_pmax_range(monkeypatch):
    # p_max = 1 computes no good prime and still bounds the tail; p_max < 1
    # (which gave a negative bound, or ZeroDivisionError) and a non-integer
    # raise ValueError, and p_max past P_MAX_LIMIT CapabilityError, all
    # before the sieve.
    b1 = geometry.load_model("BlP2-1")
    assert fourier.global_fourier(b1, (0, 0), (6, 4), p_max=1).error_bound > 0

    def refuse(*args):
        raise AssertionError("primes sieved")

    monkeypatch.setattr(tamagawa, "prime_sieve", refuse)
    for p_max in (-5, 0, 2.5):
        with pytest.raises(ValueError, match="p_max"):
            fourier.global_fourier(b1, (0, 0), (6, 4), p_max=p_max)
    with pytest.raises(CapabilityError, match="p_max"):
        fourier.global_fourier(b1, (0, 0), (6, 4), p_max=tamagawa.P_MAX_LIMIT + 1)


def test_global_fourier_trivial_needs_interior():
    p1 = geometry.load_model("P1")
    with pytest.raises(ValueError):
        fourier.global_fourier(p1, (0,), (2,))


def test_zeta_truncated_p1_exact():
    p1 = geometry.load_model("P1")
    part, tail = fourier.zeta_truncated(p1, p1.rho, 3.0, 200)
    direct = sum(
        float(global_height(p1, pt, p1.rho).total) ** -3.0
        for pt in enumeration.enumerate_points(p1, p1.rho, 200)
    )
    assert abs(part - direct) <= 1e-12
    assert 0 < tail < 1e-3


def test_zeta_truncated_blp21_fiber_path():
    b1 = geometry.load_model("BlP2-1")
    part, _ = fourier.zeta_truncated(b1, b1.rho, 2.0, 300)
    direct = sum(
        float(global_height(b1, pt, b1.rho).total) ** -2.0
        for pt in enumeration.enumerate_points(b1, b1.rho, 300)
    )
    assert abs(part - direct) <= 1e-9


def test_zeta_truncated_generic_bracket():
    # The tail estimate off P^n (P^n reports a proved bound).
    b2 = geometry.load_model("BlP2-2")
    p40, t40 = fourier.zeta_truncated(b2, b2.rho, 2.0, 40)
    p80, t80 = fourier.zeta_truncated(b2, b2.rho, 2.0, 80)
    assert p40 < p80
    assert t40 > t80 > 0
    # The added mass between the cutoffs is inside the earlier tail estimate.
    assert p80 - p40 <= t40


@pytest.mark.parametrize("mid, s, B", [("P2", 2.0, 40), ("P3", 3.0, 15),
                                       ("BlP2-2", 4.0, 60), ("BlP2-3", 4.0, 40)])
def test_zeta_truncated_box_path_matches_global_height(mid, s, B):
    # The box path takes each height from the generator heights of the
    # enumerated points; global_height is the oracle.
    model = geometry.load_model(mid)
    part, _ = fourier.zeta_truncated(model, model.rho, s, B)
    direct = sum(
        float(global_height(model, pt, model.rho).total) ** -s
        for pt in enumeration.enumerate_points(model, model.rho, B)
    )
    assert abs(part - direct) <= 1e-12 * direct


@pytest.mark.parametrize("mid", ["BlP2-2", "BlP2-3"])
def test_zeta_truncated_fractional_class(mid):
    # At lam = (7/2, 2, ...) some prime factor of a height is irrational, so
    # global_height refuses lam; H(x; lam) = H(x; 2 lam)^(1/2) is the oracle.
    model = geometry.load_model(mid)
    lam = (Fraction(7, 2),) + (Fraction(2),) * (model.rank - 1)
    s, B = 4.0, 60
    part, tail = fourier.zeta_truncated(model, lam, s, B)
    double = tuple(2 * x for x in lam)
    direct = sum(
        float(global_height(model, pt, double).total) ** (-s / 2)
        for pt in enumeration.enumerate_points(model, lam, B)
    )
    assert abs(part - direct) <= 1e-12 * direct
    assert 0 < tail < 1


@pytest.mark.parametrize("mid, s, B, want", [
    ("BlP2-2", 4, 100, (9.104472772424202, 2.0224458582674098e-05)),
    ("BlP2-3", 4, 58, (7.472911214645311, 0.0001351230639407696)),
    ("BlP2-1", 2, 300, (10.833599206589927, 0.06375470271349144)),
    ("P2", 2, 80, (9.65391643089849, 0.06770833333341206)),
])
def test_zeta_truncated_pins(mid, s, B, want):
    # Exact float equality: at integer classes every height is an exact
    # Fraction before it is rounded.  P2's sum is math.fsum of its shell
    # terms and its tail the proved 13 T^-3/3 (1 + 2^-40) + 16 2^-53 partial,
    # T = 4.
    model = geometry.load_model(mid)
    assert fourier.zeta_truncated(model, model.rho, s, B) == want


def test_zeta_truncated_needs_no_ladder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called by zeta_truncated")

    monkeypatch.setattr(enumeration, "count_ladder", refuse)
    for mid in ("P2", "BlP2-1", "BlP2-2"):
        model = geometry.load_model(mid)
        part, tail = fourier.zeta_truncated(model, model.rho, 4.0, 30)
        assert part > 0 and 0 <= tail < 1


def test_zeta_truncated_limits_and_errors():
    p1 = geometry.load_model("P1")
    with pytest.raises(ValueError):
        fourier.zeta_truncated(p1, p1.rho, 1.0, 100)
    assert fourier.zeta_truncated(p1, p1.rho, 3.0, Fraction(1, 2)) == (0.0, 0.0)
    # Far right of the critical line only the three height-one points count:
    # the tail is the float bound of the sum, 16 * 2^-53 * 3, and the fibers
    # past the stop add below 1e-100.
    part, tail = fourier.zeta_truncated(p1, p1.rho, 50.0, 1000)
    assert part == 3.0
    assert tail - 16 * 2.0**-53 * part < 1e-100


@pytest.mark.parametrize("mid, lam", [("P1", Fraction(1, 3)), ("P2", Fraction(5, 11)),
                                      ("P3", Fraction(2, 7))])
def test_pn_zeta_tail_where_c_rounds_to_the_abscissa(mid, lam):
    # s is the float just past a = (n + 1)/lambda, so lambda s > n + 1, but
    # the float c = float(lambda) s rounds to n + 1: no finite tail is
    # proved there, and the tail is inf (a ZeroDivisionError once).
    model = geometry.load_model(mid)
    s = math.nextafter(float(geometry.a_exponent(model, (lam,))), math.inf)
    assert float(lam) * s == model.dim + 1
    part, tail = fourier.zeta_truncated(model, (lam,), s, 10)
    assert part > 0 and tail == math.inf


def test_p1_zeta_tail_past_float_range():
    # f_max = 10^30000 is past the floats, but the sum stops long before
    # either f_max, and the tail 4 F^(2 - c)/(c - 2), c > 2, is taken at the
    # fiber where it stopped (an OverflowError once).
    p1 = geometry.load_model("P1")
    lam = (Fraction(1, 100),)
    part, tail = fourier.zeta_truncated(p1, lam, 600.0, 10**300)
    assert math.isfinite(tail) and tail >= 0
    assert part == fourier.zeta_truncated(p1, lam, 600.0, 10**3)[0]


@pytest.mark.parametrize("s, b_cut", [(2, 10**12), (2, 10**14), (1.5, 10**10), (3, 10**12)])
def test_p1_zeta_truncated_bounds_the_closed_form(s, b_cut):
    # On P1 at rho the height zeta function is 4 zeta(2s - 1)/zeta(2s) - 1
    # (w_F = 4 phi(F) points of height F^2, one less at F = 1).  It lies
    # within the reported tail of the partial sum, which covers the float
    # sum and the fibers past the stop (at s = 2 the fibers of B = 10^14 once
    # missed it by 1000 times the tail they reported).
    p1 = geometry.load_model("P1")
    part, tail = fourier.zeta_truncated(p1, p1.rho, s, b_cut)
    with mpmath.workdps(40):
        c = 2 * mpmath.mpf(s)
        exact = 4 * mpmath.zeta(c - 1) / mpmath.zeta(c) - 1
        assert abs(mpmath.mpf(part) - exact) <= tail


# c_0, ..., c_n of c(m) = m (2m+1)^n - (m-1)(2m-1)^n on P2 and P3.
SHELL_COEFFS = {2: (1, -4, 12), 3: (-1, 8, -12, 32)}


@pytest.mark.parametrize("mid", ["P2", "P3"])
@pytest.mark.parametrize("s", [1.5, 2, 3])
@pytest.mark.parametrize("b_cut", [10**6, 10**12, 10**16])
def test_pn_zeta_truncated_brackets_the_closed_form(mid, s, b_cut):
    # On P^n at rho, with sigma = (n + 1) s, the height zeta function is
    # sum_k c_k zeta(sigma - k) / zeta(sigma): c(m) vectors (Z, X), Z >= 1,
    # have max(Z, |X_i|) = m, and each is a primitive one times a unique d.
    # Taken exactly from the floats of _util.zeta, each correctly rounded
    # (within 2^-53 relative), the closed form lies in [lo, hi], and the
    # partial sum is at most hi and the partial sum plus its tail at least lo.
    model = geometry.load_model(mid)
    n = model.dim
    coeffs = SHELL_COEFFS[n]
    for m in range(1, 20):
        assert sum(c * m**k for k, c in enumerate(coeffs)) == \
            m * (2 * m + 1) ** n - (m - 1) * (2 * m - 1) ** n
    sigma = (n + 1) * s
    r = Fraction(1, 2**53)
    z = [Fraction(zeta(sigma - k)) for k in range(n + 1)]
    lo = sum(c * z_k * (1 - r if c > 0 else 1 + r) for c, z_k in zip(coeffs, z)) / (z[0] * (1 + r))
    hi = sum(c * z_k * (1 + r if c > 0 else 1 - r) for c, z_k in zip(coeffs, z)) / (z[0] * (1 - r))
    part, tail = fourier.zeta_truncated(model, model.rho, s, b_cut)
    assert Fraction(part) <= hi
    assert lo <= Fraction(part) + Fraction(tail)
    assert 0 < tail < 0.03


@pytest.mark.parametrize("mid", ["P1", "BlP2-2"])
@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_zeta_truncated_rejects_non_finite_s(mid, s):
    model = geometry.load_model(mid)
    with pytest.raises(ValueError):
        fourier.zeta_truncated(model, model.rho, s, 100)
    if mid == "P1":
        with pytest.raises(ValueError):
            fourier.poisson_check(model, model.rho, s, 100, 10)


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


@pytest.mark.parametrize("b_cut", [0.5, 0, -3, Fraction(99, 100)])
def test_poisson_check_needs_b_cut_at_least_one(b_cut):
    # No point has height below 1, so the point side would be 0 with a tail
    # of 0: a refusal, not a failed check.  zeta_truncated keeps its (0, 0).
    p1 = geometry.load_model("P1")
    with pytest.raises(ValueError, match="b_cut"):
        fourier.poisson_check(p1, p1.rho, 3.0, b_cut, 5)
    assert fourier.zeta_truncated(p1, p1.rho, 3.0, b_cut) == (0.0, 0.0)
    assert fourier.poisson_check(p1, p1.rho, 3.0, 1, 5)["lhs"] == 3.0


def test_poisson_check_capability_and_domain():
    p2 = geometry.load_model("P2")
    with pytest.raises(CapabilityError):
        fourier.poisson_check(p2, p2.rho, 4.0, 100, 5)
    p1 = geometry.load_model("P1")
    with pytest.raises(ValueError):
        fourier.poisson_check(p1, p1.rho, 3.0, 100, -1)


@pytest.mark.parametrize("a_cut", [2.5, 3.0, "3", None])
def test_poisson_check_needs_an_integer_a_cut(a_cut):
    # A fractional a_cut would sum a = 0..3 at 2.5 but size the character
    # tail at 2.5.
    p1 = geometry.load_model("P1")
    with pytest.raises(ValueError):
        fourier.poisson_check(p1, p1.rho, 3.0, 100, a_cut)
    assert fourier.poisson_check(p1, p1.rho, 3.0, 100, np.int64(3)) == \
        fourier.poisson_check(p1, p1.rho, 3.0, 100, 3)


def test_zeta_truncated_heights_from_kernel(monkeypatch):
    # The box branch takes the generator heights from the box kernel and
    # computes none a second time per point.
    def refuse(*args, **kwargs):
        raise AssertionError("called by zeta_truncated")

    monkeypatch.setattr(heights, "generator_heights", refuse)
    model = geometry.load_model("BlP2-2")
    assert fourier.zeta_truncated(model, model.rho, 4, 100) == \
        (9.104472772424202, 2.0224458582674098e-05)
    for mid in ("P2", "P3", "BlP2-3"):
        model = geometry.load_model(mid)
        part, tail = fourier.zeta_truncated(model, model.rho, 4.0, 30)
        assert part > 0 and 0 <= tail < 1


@pytest.mark.parametrize("mid, lam", [("BlP2-2", (3, 2, 2)), ("BlP2-2", (3, 1, 1)),
                                      ("BlP2-3", (3, 2, 2, 2)), ("P3", (4,))])
def test_zeta_truncated_integer_heights_exact(mid, lam):
    # At integer generator exponents (m_H = -1 on BlP2-2 at (3, 1, 1)) each
    # height is a quotient of two integers, rounded once: the sum equals the
    # one over the exact Fraction heights, in enumerate_points' order.  On
    # P^n the sum is, bit for bit, math.fsum of the shell terms, within its
    # proved float bound 11 2^-53 of the points' math.fsum (itself within
    # (s + 10) 2^-53, with pow within 4 ulp).
    model = geometry.load_model(mid)
    s, B = 4.5, 20
    part, _ = fourier.zeta_truncated(model, lam, s, B)
    points = list(enumeration.enumerate_points(model, lam, B))
    terms = [float(global_height(model, pt, lam).total) ** -s for pt in points]
    if model.kind == "pn":
        assert (part, len(points)) == pn_shell_sum(model, lam, s, B)
        direct = math.fsum(terms)
        assert abs(part - direct) <= (11 * part + (s + 10) * direct) * 2.0**-53
    else:
        direct = 0.0
        for term in terms:
            direct += term
        assert part == direct
    assert len(points) > 50


@pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("x", [0.5, 12.18, 13.82])
def test_upper_gamma_closed_form(b, x):
    # zeta_truncated's tail: Gamma(b, x) at integer b = |b_set|.
    with mpmath.workdps(50):
        want = float(mpmath.gammainc(b, x))
    assert fourier._upper_gamma(b, x) == want
