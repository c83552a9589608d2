"""Fourier transforms of height functions at additive characters.

The height zeta function Z(s) = sum_x H(x)^(-s) over rational points of the
open orbit is studied through the spectral expansion

    Z(s) = sum_{a} Hhat(psi_a; s),      Hhat(psi_a; s) = prod_v Hhat_v(psi_a; s),

where a runs over integer vectors (the arithmetic dual of G_a^n(Q) modulo the
integral model) and each local transform is an oscillatory integral

    Hhat_p(psi_a; s) = int_{Q_p^n} H_p(x; s)^(-1) psi_p(<a, x>) dx,
    Hhat_oo(psi_a; s) = int_{R^n}   H_oo(x; s)^(-1) e^(2 pi i <a, x>) dx.

This module provides several independent routes to these quantities:

* character_sum: normalized complete character sums
      (1/p^(nd)) sum_{t in (Z/p^(nd))^*} e^(2 pi i u t^d / p^(nd))
  evaluated exactly, with a direct-summation mode kept available so that the
  structural evaluation (coset collapse) can be cross-checked against raw
  summation in tests.

* brute_padic_fourier: an exact evaluation of the local integral truncated to
  the polydisc |x|_p <= p^depth, by adaptive dyadic (p-adic cube) refinement.
  On each cube either every generator-system maximum is pinned by a section
  value of valuation strictly below the cube level (so the integrand is
  constant on the cube and the character factor integrates in closed form) or
  the cube is split into its p^n children.  The returned error bound covers
  the discarded region |x|_p > p^depth by a per-model geometric-series
  majorant together with a float-roundoff allowance.

* closed_form_good_prime: the two-term approximation at good primes,
      1 + sum_{d_alpha = 0} N_alpha (q-1) / (q^(n) (q^(beta_alpha) - 1))
        - sum_{d_alpha = 1} N_alpha / q^(n + beta_alpha),
  with beta_alpha = 1 + s_alpha - rho_alpha and N_alpha the number of
  F_q-points of the open stratum D_alpha minus those lying on the reduction
  of the zero locus of the linear form <a, x>.  The discarded terms (deeper
  strata and the excluded points) are returned as an explicit error bound.

* tamagawa.exact_local_density (with a character index): the exact local
  factor at every prime on P^n, a finite sum of Tate's shell integrals.

* arch_fourier: archimedean factors.  On P^n a layer-cake argument over the
  max-norm reduces the transform to at most 2^(n-1) one-dimensional
  integrals int_1^oo u^(-gamma) e^(iwu) du (a closed form at the trivial
  character), each with a proved bound: integration by parts past
  T = max(1, 2 (gamma + K)/w) and composite Gauss-Legendre with a
  Bernstein-ellipse bound before it.  BlP2-1 has a closed form at the
  trivial character and nested 2-D QUADPACK quadrature otherwise, the one
  caller of SciPy, whose bound is an estimate.

* global_fourier: assembles the adelic product.  P^n is exact at every
  finite place: zeta(sigma)^(-1) times exact factors at the primes dividing
  the character index, for a whole array of characters at once in the NumPy
  batch kernel _pn_characters.  Twisted characters on the blow-ups use
  Riemann zeta acceleration of the polar local factors, brute-force values
  at small and support primes, and closed forms at the remaining good
  primes up to a cutoff; brute primes enter only there.  The trivial
  character (on P2/P3 too) is exact at every prime, one polynomial in 1/p
  at the good primes when its exponents are integers.  The zeta completion
  of global_fourier still removes each A0 pole twice (ROADMAP).

* zeta_truncated / poisson_check: the two sides of the spectral identity,
  sum over points of bounded height versus sum over characters, each with a
  tail term (on P^n the point side's is a proved bound, off P^n an estimate
  read off the count of the points summed); used as an end-to-end check of
  every formula above.
  The point-side sum itself is enumeration.zeta_partial, which follows the
  counting strategies; this module adds only the tail.

Every transform reads the character index a as the tuple of Fractions that
geometry.character_index makes of it.  All error bounds travel with the values so that consumers can assert
|difference| <= bound instead of fixed tolerances.
"""

from __future__ import annotations

import cmath
import math
import numbers
import warnings
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from itertools import product as _iter_product

import numpy as np

from ._util import (
    CapabilityError,
    as_fraction,
    is_prime,
    prime_factors,
    primes_upto,
    refuse_past,
    vp,
    vp_fraction,
    zeta,
)
from . import enumeration, geometry, tamagawa
from .geometry import VarietyModel

TWO_PI = 2.0 * math.pi

# Largest modulus for which character sums are evaluated by direct summation.
CHARACTER_SUM_DIRECT_LIMIT = 8_000_000

# Multiplicative safety constants for the truncation tail of the brute-force
# local integral: 1 on P^n, then by the number of blown-up centers.  The tail over
# |x|_p = p^i splits into at most (i + 1) valuation profiles per blown-up
# direction, each of mass at most p^(-eps i), eps = min_alpha (1 + s_alpha -
# rho_alpha), so tail <= C * sum_{i > m} (i + 1) p^(-eps i).  C counts the independent
# degenerating directions (the pencils meeting the boundary).
_BRUTE_TAIL_CONSTANT = (1.0, 2.0, 2.0, 3.0)

# Largest depth * p^n that brute_padic_fourier accepts: its depth-first
# stack holds at most that many cubes (one tuple each, about 250 B traced).
BRUTE_STACK_LIMIT = 2**22
# Most cubes brute_padic_fourier may visit, by the bound _brute_cube_bound
# (8-11 us a cube, 2-core VM, so under a minute): the heaviest catalog call,
# BlP2-3 at p = 3, depth 11, has a bound of 2391571, visits 2391274 cubes
# and takes 20-27 s.
BRUTE_CUBE_LIMIT = 2**22

# _pn_characters divides the primes up to this bound out of the gcds of its
# characters (one NumPy pass over the rows each) and refuses a gcd that needs
# more: one whose part free of them passes 2^40.
_GCD_PRIME_LIMIT = 2**20

# Relative float-roundoff allowance per accumulated cube.
_ROUNDOFF_PER_BOX = 2.0e-16

# Empirical constant for the regularized local factors in the global Euler
# product: |Hhat_p * prod_{A0}(1 - p^(-beta)) - 1| <= K * p^(-e) with
# K = _GLOBAL_TAIL_K * rank and e from _global_tail_exponent.  Validated by
# property tests sampling primes up to 10^4 on the full model catalog.
_GLOBAL_TAIL_K = 4.0


@dataclass(frozen=True)
class LocalFourierValue:
    """A local Fourier value with its provenance and a rigorous error bound.

    Attributes:
        value: the (complex) value of the local transform.
        error_bound: nonnegative bound on |true - value|.
        method: one of "closed-form", "brute-force", "quadrature".
    """

    value: complex
    error_bound: float
    method: str

    def __post_init__(self):
        if self.method not in ("closed-form", "brute-force", "quadrature"):
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.error_bound < 0:
            raise ValueError("error bound must be nonnegative")


def _checked(model: VarietyModel, a, s, integral: bool = False) -> tuple:
    """(a, s, beta) after the checks every transform at psi_a makes: s in
    the convergence domain (geometry.convergence_beta, beta = 1 + s - rho),
    a coerced by geometry.character_index, and a integral if asked."""
    s, beta = geometry.convergence_beta(model, s)
    a = geometry.character_index(model, a)
    if integral and any(x.denominator != 1 for x in a):
        raise ValueError(f"{model.id}: this transform needs an integral character index")
    return a, s, beta


def _support_primes(a: tuple) -> tuple:
    """Primes p with min_i v_p(a_i) != 0, where psi_a is not trivial on
    exactly Z_p^n: those dividing the gcd of the numerators or some
    denominator.  Empty for the zero index."""
    num = math.gcd(*(x.numerator for x in a))
    return prime_factors(num * math.lcm(*(x.denominator for x in a))) if num else ()


def _character_sum_direct(p: int, u: int, n: int, d: int) -> complex:
    """Raw evaluation of (1/p^(nd)) sum_{t unit mod p^(nd)} e(u t^d / p^(nd)).

    Chunked numpy summation with staged modular powers; memory stays bounded
    regardless of the modulus.
    """
    K = n * d
    M = p ** K
    refuse_past(f"direct character sum: the modulus p^{K}", M, CHARACTER_SUM_DIRECT_LIMIT, "time")
    total = 0.0 + 0.0j
    chunk = 1 << 20
    w = 2.0 * math.pi / M
    for start in range(0, M, chunk):
        t = np.arange(start, min(start + chunk, M), dtype=np.int64)
        t = t[t % p != 0]
        if t.size == 0:
            continue
        x = np.ones_like(t)
        for _ in range(d):
            x = (x * t) % M
        phase = w * ((u % M) * x % M)
        total += complex(np.sum(np.cos(phase)), np.sum(np.sin(phase)))
    return total / M


def character_sum(p: int, u: int, n: int, d: int,
                  force_direct: bool = False) -> complex:
    """Normalized complete character sum over units modulo p^(nd).

    Computes (1/p^(nd)) sum over units t mod p^(nd) of e(u t^d / p^(nd)) for
    d >= 1, and the volume (p-1)/p of the unit group when d = 0 (the
    integrand is constant).  Requires p >= 5 and p not dividing u.

    For nd >= 2 with p not dividing d the sum vanishes exactly: grouping the
    units into cosets of 1 + p^(nd-1) Z / p^(nd) Z, each coset contributes
    sum_s e(u t^d d s / p) = 0 since u t^d d is a unit.  Passing
    force_direct=True bypasses this structural evaluation so tests can verify
    it against raw summation.

    Args:
        p: prime >= 5.
        u: integer not divisible by p.
        n: positive integer (the valuation weight).
        d: nonnegative integer (the multiplicity).
        force_direct: always sum term by term (may raise CapabilityError).
    """
    if not is_prime(p) or p < 5:
        raise ValueError("character sums require a prime p >= 5")
    if n < 1:
        raise ValueError("n must be positive")
    if d < 0:
        raise ValueError("d must be nonnegative")
    u = int(u)
    if u % p == 0:
        raise ValueError("u must be a p-unit")
    if d == 0:
        if force_direct:
            # Sum of p - 1 ones over units modulo p, normalized by p.
            return complex(sum(1 for t in range(1, p)) / p)
        return complex(Fraction(p - 1, p))
    K = n * d
    if K >= 2 and d % p != 0 and not force_direct:
        return 0.0 + 0.0j
    return _character_sum_direct(p, u, n, d)


def charsum_trichotomy(p: int, u: int, n: int, d: int) -> complex:
    """Reference closed form for character_sum when p > d.

    Returns (p-1)/p when d = 0, -1/p when n = d = 1, and 0 otherwise.
    """
    if not is_prime(p) or p < 5:
        raise ValueError("trichotomy requires a prime p >= 5")
    if d >= p:
        raise ValueError("trichotomy requires d < p")
    if int(u) % p == 0:
        raise ValueError("u must be a p-unit")
    if n < 1:
        raise ValueError("n must be positive")
    if d == 0:
        return complex(Fraction(p - 1, p))
    if n == 1 and d == 1:
        return complex(Fraction(-1, p))
    return 0.0 + 0.0j


# ---------------------------------------------------------------------------
# Brute-force local transforms by adaptive p-adic cube refinement.
# ---------------------------------------------------------------------------


def suggested_depth(model: VarietyModel, p: int) -> int:
    """Truncation depth balancing tail decay against cube-count growth.

    For projective spaces the only undetermined cube per level is the one
    containing the origin, so the cube count grows linearly in the depth and
    a deep truncation is cheap.  For the blown-up models the undetermined
    locus at level j contains the tube around each pencil line, about p^j
    cubes, so the total work grows like p^depth and the depth must shrink as
    p grows.
    """
    if model.kind == "pn":
        return 30
    return {2: 17, 3: 11}.get(p, 3)


def _brute_tail_bound(model: VarietyModel, p: int, depth: int,
                      eps_star: float) -> float:
    """C * sum_{i > depth} (i + 1) r^i with r = p^(-eps_star)."""
    r = float(p) ** (-eps_star)
    if r >= 1.0:
        raise ValueError("min beta_alpha too small for a float tail bound")
    m = depth
    tail = r ** (m + 1) * ((m + 2) - (m + 1) * r) / (1.0 - r) ** 2
    n_centers = 0 if model.kind == "pn" else len(model.centers)
    return _BRUTE_TAIL_CONSTANT[n_centers] * tail


def _brute_cube_bound(model: VarietyModel, p: int, depth: int) -> int:
    """An upper bound on the cubes brute_padic_fourier visits at depth m:

        V = 1 + p^n sum_{j < m} sum_G p^{j (n - r_G)},

    with r_G the rank over F_p of the linear parts (e_1, ..., e_n) of the
    sections of G that are not constant.

    A cube c + p^j Z_p^n is split, its p^n children then visited, only when
    j < m and some system G has v_p(S(c)) >= j for each of those sections:
    S(c) = e_0 p^m + sum_i e_i c_i = 0 mod p^j, and as j < m that reads
    E_G c = 0 mod p^j, with E_G the matrix of the linear parts.  Some r_G
    rows and r_G columns of E_G form a minor that p does not divide, so for
    each choice of the other n - r_G coordinates of c mod p^j the r_G chosen
    ones solve a system invertible mod p^j: at most p^{j (n - r_G)} of the
    p^{jn} cubes of level j are split for G.  The root is the one cube of
    level 0, and every other visited cube is a child of a split cube one
    level up.  On P^n (r_H = n) V = 1 + m p^n; on BlP2-1 the pencil's
    r_F = 1 gives V = 1 + p^2 (m + (p^m - 1)/(p - 1)), against 524285
    cubes visited at p = 2, depth 17.
    """
    n = model.dim
    ranks = [tamagawa._rank_mod_p([sec[1:] for sec in gen.sections if any(sec[1:])], p)
             for gen in model.generators]
    return 1 + p**n * sum(p ** (j * (n - r)) for j in range(depth) for r in ranks)


def _check_brute_limits(model: VarietyModel, p: int, depth: int) -> None:
    """Raise CapabilityError unless brute_padic_fourier at (p, depth) keeps
    its scale p^(depth n) a float, its cube stack within BRUTE_STACK_LIMIT
    and the cubes it visits (_brute_cube_bound) within BRUTE_CUBE_LIMIT."""
    at, k = f"brute force at p = {p}, depth {depth}:", depth * model.dim
    # p^k >= 2^k, so past k = 1024 the scale is refused without forming p^k.
    refuse_past(f"{at} the scale p^{k} + 1", p**k + 1 if k < 1024 else 2**1024 + 1, 2**1024,
                "float")
    refuse_past(f"{at} the cube stack depth * p^{model.dim}", depth * p**model.dim,
                BRUTE_STACK_LIMIT, "memory")
    refuse_past(f"{at} the number of cubes the refinement visits",
                _brute_cube_bound(model, p, depth), BRUTE_CUBE_LIMIT, "time")


def brute_padic_fourier(model: VarietyModel, p: int, a, s,
                        depth: int = 3) -> LocalFourierValue:
    """Local Fourier transform truncated to |x|_p <= p^depth, evaluated
    exactly by adaptive cube refinement.

    After the substitution x = t / p^depth the integral becomes

        p^(depth * n) * int_{Z_p^n} prod_G max_l |S_l(t)|_p^(m_G)
                          * psi_p(<a, t> / p^depth) dt,

    where each section l(x) of the generator system G turns into the integer
    form S(t) = e_0 p^depth + sum_i e_i t_i and m_G <= 0 are the negated
    height exponents.  A cube c + p^j Z_p^n is "determined" when every system
    has a section with v_p(S(c)) < j (the system maximum is then constant on
    the cube) or when j reaches depth (all remaining section values sit in
    Z_p, so the height factor is identically 1 there).  On a determined cube
    the character factor integrates to

        psi_p(<a, c> / p^depth) * p^(-jn) * prod_i [v_p(a_i) >= depth - j],

    so the accumulated value is exact up to float roundoff; the reported
    error bound covers the discarded region |x|_p > p^depth and the roundoff.

    Args:
        model: catalog model.
        p: any prime (small primes included; that is the point of this oracle).
        a: character index, rational vector of length model.dim.
        s: Picard vector with 1 + s_alpha - rho_alpha > 0 (convergence).
        depth: truncation exponent m >= 1 with p^(m n) < 2^1024, so that
            the scale p^(m n) is a float, m p^n <= BRUTE_STACK_LIMIT,
            which bounds the cube stack, and _brute_cube_bound <=
            BRUTE_CUBE_LIMIT, which bounds the cubes visited;
            CapabilityError past any of them, before anything is allocated.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    _check_brute_limits(model, p, depth)
    a, s, beta = _checked(model, a, s)
    eps_star = min(float(b) for b in beta)

    n = model.dim
    m = depth
    M = p ** m
    tail = _brute_tail_bound(model, p, m, eps_star)

    # Ramified characters: if some coordinate of a has negative valuation the
    # character factor prod_i [v_p(a_i) >= m - j] vanishes on every cube with
    # j <= m, so the truncated integral is exactly zero.
    avals = [None if x == 0 else vp_fraction(x, p) for x in a]
    if any(v is not None and v < 0 for v in avals):
        return LocalFourierValue(0.0 + 0.0j, tail, "brute-force")

    # p-integral coordinates reduce to residues modulo p^m.
    ahat = [x.numerator * pow(x.denominator, -1, M) % M for x in a]
    ok_level = [all(v is None or v >= m - j for v in avals)
                for j in range(m + 1)]

    exps = geometry.generator_exponents(model, s)
    systems = []
    for gen, mg in zip(model.generators, exps):
        nonconst = []
        for coeffs in gen.sections:
            if any(coeffs[1:]):
                nonconst.append((coeffs[0] * M, coeffs[1:]))
        systems.append((nonconst, mg))

    weight_cache: dict = {}

    def cube_weight(minvs: tuple) -> float:
        w = weight_cache.get(minvs)
        if w is None:
            expo = sum(mg * mv for (_, mg), mv in zip(systems, minvs))
            w = float(p) ** float(expo)
            weight_cache[minvs] = w
        return w

    pow_jn = [float(p) ** (-j * n) for j in range(m + 1)]
    level_radius = [p ** j for j in range(m + 1)]
    children = list(_iter_product(range(p), repeat=n))
    INF = m + 1

    total = 0.0 + 0.0j
    n_boxes = 0
    stack = [(0, (0,) * n)]
    while stack:
        j, c = stack.pop()
        minvs = []
        determined = True
        for nonconst, _ in systems:
            vmin = INF
            for c0, coeffs in nonconst:
                val = c0
                for e, ci in zip(coeffs, c):
                    if e:
                        val += e * ci
                if val:
                    v = vp(val, p)
                    if v < vmin:
                        vmin = v
            if vmin >= j and j < m:
                determined = False
                break
            minvs.append(min(0, min(vmin, m) - m))
        if not determined:
            radius = level_radius[j]
            for step in children:
                stack.append((j + 1, tuple(ci + radius * li
                                           for ci, li in zip(c, step))))
            continue
        if not ok_level[j]:
            continue
        w = cube_weight(tuple(minvs)) * pow_jn[j]
        r = 0
        for ai, ci in zip(ahat, c):
            if ai:
                r += ai * ci
        r %= M
        if r:
            total += w * cmath.exp(2j * math.pi * r / M)
        else:
            total += w
        n_boxes += 1

    value = total * float(p) ** (m * n)
    roundoff = _ROUNDOFF_PER_BOX * n_boxes * max(1.0, abs(value))
    return LocalFourierValue(value, tail + roundoff, "brute-force")


# ---------------------------------------------------------------------------
# Closed forms at good primes.
# ---------------------------------------------------------------------------


def _intersection_counts(model: VarietyModel, p: int, a: tuple) -> dict:
    """Mod-p point counts of the closure of {<a, x> = 0} on each boundary
    stratum.

    The closure of the affine hyperplane <a, x> = 0 meets the hyperplane at
    infinity in the projectivized direction space {a . x = 0}, a P^(n-2); on
    the blown-up surfaces the strict transform of the line meets D1 at its
    direction point (a_2 : -a_1) unless that direction reduces to a blown-up
    center mod p, in which case it meets the corresponding exceptional curve
    instead.
    """
    iota = {comp: 0 for comp in model.components}
    if model.kind == "pn":
        if model.dim >= 2:
            iota["D1"] = sum(p ** k for k in range(model.dim - 1))
        return iota
    a1, a2 = a
    hit_center = False
    for comp, (u, v) in zip(model.components[1:], model.centers):
        if (a1 * u + a2 * v) % p == 0:
            iota[comp] = 1
            hit_center = True
    iota["D1"] = 0 if hit_center else 1
    return iota


def closed_form_good_prime(model: VarietyModel, p: int, a, s):
    """Two-term closed form for Hhat_p(psi_a; s) at a good prime, plus an
    explicit bound on the omitted terms.

    Args:
        model: catalog model.
        p: good prime (>= 5, not dividing a entirely).
        a: nonzero integral character index; at a = 0 the exact local factor
            is tamagawa.denef_local_factor.
        s: Picard vector with 1 + s_alpha - rho_alpha > 0.

    Returns:
        (main_term, et_bound): the approximation and a nonnegative real bound
        on |Hhat_p - main_term| collecting the depth >= 2 strata and the
        points excluded by the hyperplane reduction.
    """
    geometry._check_good_prime(model, p)
    a, s, beta = _checked(model, a, s, integral=True)
    if not any(a):
        raise ValueError("the closed form needs a != 0; the trivial character's"
                         " local factor is tamagawa.denef_local_factor")
    # Each beta as an int where it is one (exact pole factors), else a float.
    beta = {comp: int(b) if b.denominator == 1 else float(b)
            for comp, b in zip(model.components, beta)}
    avec = tuple(int(x) for x in a)
    if all(x % p == 0 for x in avec):
        raise ValueError(
            f"p = {p} divides the character index entirely; use brute force"
        )

    n = model.dim
    q = p
    dm = geometry.divisor_multiplicities(model, avec)
    iota = _intersection_counts(model, p, avec)
    qn = Fraction(1, q ** n)

    main = Fraction(1)
    for comp, d_alpha in zip(model.components, dm.d):
        count = geometry.stratum_count(model, (comp,), p) - iota[comp]
        b = beta[comp]
        if d_alpha == 0:
            main = main + count * tamagawa._pole_factor(q, b) * qn
        elif isinstance(b, int):
            main = main - Fraction(count, q ** (n + b))
        else:
            main = main - count / float(q) ** (n + b)

    et = 0.0
    for subset in _iter_product(*[[(), (comp,)] for comp in model.components]):
        names = tuple(x for t in subset for x in t)
        if len(names) < 2:
            continue
        count = geometry.stratum_count(model, names, p)
        if count == 0:
            continue
        prod = 1.0
        for comp in names:
            prod *= float(tamagawa._pole_factor(q, beta[comp]))
        et += count * prod
    for comp, d_alpha in zip(model.components, dm.d):
        if not iota[comp]:
            continue
        point_term = float(tamagawa._pole_factor(q, beta[comp]))
        if comp != "D1" and d_alpha == 1:
            # p divides the pairing <a, center_i> while the characteristic
            # zero multiplicity is 1: the polar coefficient of f_a along E_i
            # degenerates mod p, so the oscillation weakens on the whole
            # exceptional tube.  Bound it by the full tube mass plus the
            # magnitude of the formula's own E_i term.
            et += p * (point_term + float(q) ** (-float(beta[comp])))
        else:
            et += iota[comp] * point_term
    et *= float(qn)
    return complex(float(main)), et


# ---------------------------------------------------------------------------
# Archimedean factors.
# ---------------------------------------------------------------------------


# The oscillatory power integral (_osc_power_integral).
_IBP_TERMS = 30  # K: the most integration-by-parts terms in the tail
_GL_NODES = 24  # Gauss-Legendre nodes per head panel
_ELLIPSE_RHO = 3.0  # Bernstein ellipse of the head's error bound
_PANEL_PHASE = 4.0 * math.pi  # the most phase w (b - a) a head panel spans
_ROUND = 2.0 ** -53  # unit roundoff of a float
# Per tail term m_j: its sign in the imaginary (even j) and in the real (odd
# j) part of sum_j m_j (-i)^(j+1), then the rounding weights 1 and 4j + 3.
_TAIL_WEIGHTS = np.array(
    [[(j % 2 == part) * (1.0 if j % 4 >= 2 else -1.0) for j in range(_IBP_TERMS)]
     for part in (0, 1)] + [[1.0] * _IBP_TERMS, [4.0 * j + 3.0 for j in range(_IBP_TERMS)]])
# The positive nodes and weights of the 24-point Gauss-Legendre rule on
# [-1, 1], from one 32-digit Newton step on numpy's leggauss nodes: each is
# within 2^-53 (1 + 10^-12) of its exact value, relative, which the tests
# check against a 120-bit reference rule.
_GL_HALF = (
    ("0x1.0660853eda2e8p-4", "0x1.060475e763736p-3"),
    ("0x1.8769542b94f8dp-3", "0x1.01b7117cf8bd8p-3"),
    ("0x1.429a8c588e910p-2", "0x1.f25cbce1d1ff6p-4"),
    ("0x1.bc345d81e24b5p-2", "0x1.d91c78acb1b2dp-4"),
    ("0x1.17417bac4d72bp-1", "0x1.b8177ba4a68dcp-4"),
    ("0x1.4bd2ee5fa1086p-1", "0x1.8fd8936444b16p-4"),
    ("0x1.7af18edb9ddd6p-1", "0x1.6108ef504463ap-4"),
    ("0x1.a3d74ce0d3700p-1", "0x1.2c6d5c2eff064p-4"),
    ("0x1.c5d841864d0f5p-1", "0x1.e5c6255d25edap-5"),
    ("0x1.e06585a70aa4dp-1", "0x1.6ab884f57c979p-5"),
    ("0x1.f30f9f0cbf876p-1", "0x1.d375514486f1dp-6"),
    ("0x1.fd892de691982p-1", "0x1.9465bd3112202p-7"),
)
# The whole rule, nodes ascending: the half mirrored, then the half.
_GL_X = np.array([-float.fromhex(x) for x, _ in _GL_HALF[::-1]]
                 + [float.fromhex(x) for x, _ in _GL_HALF])
_GL_W = np.array([float.fromhex(w) for _, w in _GL_HALF[::-1] + _GL_HALF])
# The steps j = 0..K-2 of the tail's ratios (gamma + j)/(wT); the semi-axes A
# and B of the Bernstein ellipse; the head's bound per unit of sum h M.
_TAIL_STEPS = np.arange(_IBP_TERMS - 1.0)
_ELLIPSE_A = 0.5 * (_ELLIPSE_RHO + 1.0 / _ELLIPSE_RHO)
_ELLIPSE_B = 0.5 * (_ELLIPSE_RHO - 1.0 / _ELLIPSE_RHO)
_GAUSS_BOUND = 64.0 / (15.0 * (_ELLIPSE_RHO * _ELLIPSE_RHO - 1.0)
                       * _ELLIPSE_RHO ** (2 * _GL_NODES))


def _osc_power_integral(gamma: float, w) -> tuple:
    """I(gamma, w) = int_1^oo u^(-gamma) e^(i w u) du for real gamma > 1 at
    every w > 0 of an array, with a proved bound on each absolute error:
    (values, bounds), arrays of the shape of w.

    I is the generalized exponential integral E_gamma(-i w).  Split at
    T = max(1, 2 (gamma + K) / w), K = _IBP_TERMS.

    Tail.  With (gamma)_k the rising factorial and
    m_k = (gamma)_k T^(-gamma-k) / w^(k+1), integrating by parts k times
    gives

        int_T^oo u^(-gamma) e^(iwu) du = -e^(iwT) sum_{j<k} m_j (-i)^(j+1) + R_k,

    |R_k| <= w^(-k) int_T^oo (gamma)_k u^(-gamma-k) du
           = (gamma)_k T^(1-gamma-k) / (w^k (gamma + k - 1)) = m_(k-1):
    the remainder is at most the last term taken.  Terms are taken until
    one is at most 2^-53 m_0, or K of them; since
    m_(j+1)/m_j = (gamma + j)/(wT) <= 1/2 for j < K, the bound is at most
    2^(1-K) m_0 = 2^(1-K) T^(-gamma)/w.  Each w is a row of its K products
    m_(j+1) = m_j (gamma + j)/(wT), zeroed past its last term, and one
    np.einsum forms the four sums of every row (the two parts, sum m_k and
    sum (4k + 3) m_k) without a 3-D temporary, in an order fixed per row:
    each w gets the floats of its one-element call at any batch size.

    Head.  When T > 1 (w < 2 (gamma + K)), int_1^T is cut into panels
    [a, b] with b - a <= min(a/2, _PANEL_PHASE/w), geometric ones first and
    then equal ones, each summed by the n-point Gauss-Legendre rule,
    n = _GL_NODES.  A panel with midpoint c and half-width h <= c/5 is
    h int_{-1}^{1} f(t) dt with f(t) = (c + ht)^(-gamma) e^(iw(c + ht)).
    In the Bernstein ellipse E_rho (rho = _ELLIPSE_RHO, semi-axes
    A = (rho + 1/rho)/2 = 5/3 and B = (rho - 1/rho)/2) Re(c + ht) >=
    c - Ah >= 2c/3 > 0, so f is analytic there (principal power) and
    |f| <= M = (c - Ah)^(-gamma) e^(wBh).  Gauss quadrature then errs by at
    most h 64 M / (15 (rho^2 - 1) rho^(2n)) on the panel (Trefethen, "Is
    Gauss quadrature better than Clenshaw-Curtis?", SIAM Review 50 (2008),
    Thm 4.5); the panel width keeps wBh <= 2 pi B.  The panels of all
    distinct w are one flat array; np.add.reduceat sums each w's P panels.

    Rounding.  With r = 2^-53, each float operation is correctly rounded
    (within r), each libm pow, exp, cos and sin is within one ulp (2r
    relative; r absolute for cos and sin), the rule's nodes and weights are
    within r, and a plain sum of t nonzero terms, in any order, is within
    (t - 1) r sum |term|.  In the head, h = (b - a)/2 is exact (Sterbenz,
    b <= 2a) and a computed node is within 3ru of its u, so its amplitude
    h W u^(-gamma) is within (3 gamma + 5) r and its phase wu within 4rwu;
    each cos or sin term is within r |amp| (3 gamma + 7 + 4wu), and the
    sums over the n nodes of a panel and then over the P panels add
    (n + P - 2) r sum |amp|.  With S0 = sum |amp| and S1 = sum |amp| u each
    component errs by r ((3 gamma + n + P + 5) S0 + 4 w S1).  In the tail
    the computed m_k is within (3 + 4k) r m_k, each part's sum of at most
    K/2 = 15 terms within 14 r sum m, e^(iwT) within sqrt(2) r (wT + 1),
    and the complex product within sqrt(5) r |e||s|; adding head and tail
    rounds once more.  Taking the modulus, the error is at most

        1.5 r [(3 gamma + n + P + 6) S0 + 4 w S1 + sum (4k + 3) m_k
               + (wT + 13) sum m_k],

    where 1.5 > sqrt(2) also covers the second-order terms.  The two
    truncation bounds are themselves floats within (5 gamma + 4K + P + 40) r
    of their values and are raised by that much.
    """
    shape = np.shape(w)
    w = np.asarray(w, dtype=float).ravel()
    N, K = len(w), _IBP_TERMS
    T = np.maximum(1.0, 2.0 * (gamma + K) / w)
    wT = w * T
    m = np.empty((N, K))
    m[:, 0] = T ** -gamma / w
    np.divide(gamma + _TAIL_STEPS, wT[:, None], out=m[:, 1:])
    np.multiply.accumulate(m, axis=1, out=m)
    # Each ratio is below 1, so the terms after the last one taken are those
    # after a done one.
    done = m <= _ROUND * m[:, :1]
    done[:, -1] = True
    tail_err = m[np.arange(N), done.argmax(axis=1)]
    m[:, 1:][done[:, :-1]] = 0.0
    s_im, s_re, sum_m, sum_jm = np.einsum("nk,jk->jn", m, _TAIL_WEIGHTS)
    cos, sin = np.cos(wT), np.sin(wT)
    # Per w: the real and imaginary parts, the rounding weight, then the
    # head's sum of h M and its number of panels.
    out = np.zeros((5, N))
    out[0] = sin * s_im - cos * s_re
    out[1] = -(cos * s_im + sin * s_re)
    out[2] = sum_jm + (wT + 13.0) * sum_m
    head = (T > 1.0).nonzero()[0]
    if head.size:
        # Each distinct w (T is a function of w) cuts [1, T] into P panels
        # [a, b], widths a/2 up to a = 2 step, then step, so b - a <=
        # min(a/2, step); a panel is (h, c, w, 3 gamma + n + 6 + P).
        index, starts, panels = {}, [], []
        heads = w[head].tolist()
        for wh, Th in zip(heads, T[head].tolist()):
            if wh not in index:
                index[wh] = len(starts)
                starts.append(len(panels))
                step, e = _PANEL_PHASE / wh, [1.0]
                while e[-1] < Th:
                    e.append(min(Th, 1.5 * e[-1] if e[-1] < 2.0 * step else e[-1] + step))
                bias = 3.0 * gamma + _GL_NODES + 6.0 + (len(e) - 1)
                panels += [(0.5 * (b - a), 0.5 * (b + a), wh, bias) for a, b in zip(e, e[1:])]
        h, c, wp, bias = np.array(panels).T
        u = c[:, None] + h[:, None] * _GL_X
        amp = u ** -gamma * (h[:, None] * _GL_W)
        phase = wp[:, None] * u
        # Per panel: the sums over its nodes of the amplitude times the real
        # and imaginary parts and the rounding weight 3 gamma + n + P + 6 +
        # 4wu, then h M, then 1, which reduceat turns into P.
        per_panel = np.ones((5, len(h)))
        np.add.reduce(amp * np.array((np.cos(phase), np.sin(phase), 4.0 * phase + bias[:, None])),
                      axis=2, out=per_panel[:3])
        per_panel[3] = h * ((c - _ELLIPSE_A * h) ** -gamma * np.exp(_ELLIPSE_B * wp * h))
        out[:, head] += np.add.reduceat(per_panel, starts, axis=1)[:, [index[wh] for wh in heads]]
    slack = 1.0 + (5.0 * gamma + 4 * K + out[4] + 40.0) * _ROUND
    bound = slack * (tail_err + _GAUSS_BOUND * out[3]) + 1.5 * _ROUND * out[2]
    return (out[0] + 1j * out[1]).reshape(shape), bound.reshape(shape)


def _arch_projective(n: int, sigma: Fraction, rows, den: int = 1) -> tuple:
    """The archimedean transform on P^n at every a = row / den of an (N, n)
    int64 array, where H_oo(x; s) = max(1, |x|)^sigma in the max-norm |x|:
    (values, bounds), float arrays (the transform is real).

    Layer cake: for u >= 1, max(1, |x|) <= u exactly when |x| <= u, so
    max(1, |x|)^(-sigma) = sigma int_1^oo u^(-sigma-1) [|x| <= u] du and

        Hhat_oo(psi_a) = sigma int_1^oo u^(-sigma-1) prod_j Phi_j(u) du,

    with Phi_j(u) = int_{-u}^{u} e^(2 pi i a_j x) dx = sin(2 pi a_j u)/(pi a_j),
    or 2u when a_j = 0.  At a = 0 this is sigma 2^n/(sigma - n).  Otherwise,
    with z zero coordinates and m = n - z nonzero ones, the product of the m
    sines is (-1)^(m // 2) 2^(1-m) sum over signs e (e_1 = +1) of
    (prod e) sin or cos (for m odd or even) of 2 pi u sum_j e_j |a_j|, so the
    transform is scale * sum_f c_f X_f over at most 2^(n-1) frequencies f,
    X_f = int_1^oo u^(-gamma) cos/sin(w u) du = Re/Im I(gamma, w) with
    gamma = sigma + 1 - z > 2 and w = 2 pi f (_osc_power_integral); w = 0
    gives 1/(gamma - 1).  Sign patterns with equal |f| merge, exactly in
    integers, into the first of them (only m >= 3 has such: |a + b| =
    |a - b| needs ab = 0); a sine at f = 0 vanishes.  Rows with
    the same z share gamma and one _osc_power_integral call.

    Bound: |scale| sum |c_f| (kernel bound of X_f) plus the rounding of
    what the kernel is handed and of the assembly.  With r = 2^-53: the
    float w is within 3rw of 2 pi f and |dI/dw| = |I(gamma - 1, w)| <= 2/w
    (one integration by parts), which costs 6r; the float gamma is within
    r (3 gamma + 2z) and |dI/dgamma| <= int_1^oo log u u^(-gamma) du =
    1/(gamma - 1)^2; c_f X_f and the sum of N terms add (N + 2) r |X_f|
    with |X_f| <= 1/(gamma - 1) (this covers the rounding of 1/(gamma - 1)
    at w = 0 too); the scale is within (4m + 1) r and its product r.  The
    allowance is twice that first-order sum, which also covers the
    second-order terms.
    """
    rows = np.asarray(rows, dtype=np.int64)
    nonzero = np.add.reduce(rows != 0, axis=1)
    value, bound = np.zeros((2, len(rows)))
    sig = float(sigma)
    for m, size in enumerate(np.bincount(nonzero, minlength=n + 1).tolist()):
        if not size:
            continue
        idx = (nonzero == m).nonzero()[0]
        if m == 0:
            value[idx] = float(sigma * 2**n / (sigma - n))
            continue
        z = n - m
        freqs = np.abs(rows[idx])
        if z:
            freqs = freqs[freqs != 0].reshape(-1, m)  # row order is kept
        signs = np.array(list(_iter_product((1, -1), repeat=m - 1)),
                         dtype=np.int64).reshape(2 ** (m - 1), m - 1)
        f = freqs[:, :1] + freqs[:, 1:] @ signs.T
        c = np.multiply.reduce(signs, axis=1) * (np.sign(f) if m % 2 else np.ones_like(f))
        f = np.abs(f)
        if m > 2:
            # Merge each pattern into the first one with the same |f|.
            first = (f[:, :, None] == f[:, None, :]).argmax(axis=2)
            c = np.add.reduce(
                c[:, None, :] * (first[:, None, :] == np.arange(len(signs))[:, None]), axis=2)
        gamma = sig + 1.0 - z
        scale = (sig * 2.0**z * (-1) ** (m // 2) * 2.0 ** (1 - m)
                 / np.multiply.reduce(math.pi * (freqs / den), axis=1))
        x, err = np.zeros((2,) + f.shape)
        x[f == 0] = (m % 2 == 0) / (gamma - 1.0)  # the cosine's X_0; a sine's is 0
        live = (c != 0) & (f != 0)
        val, err[live] = _osc_power_integral(gamma, TWO_PI * (f[live] / den))
        x[live] = val.real if m % 2 == 0 else val.imag
        abs_c, abs_scale = np.abs(c), np.abs(scale)
        value[idx] = scale * np.add.reduce(c * x, axis=1)
        per_term = (6.0 + (3.0 * gamma + 2 * z) / (gamma - 1.0) ** 2
                    + (np.add.reduce(c != 0, axis=1) + 2) / (gamma - 1.0))
        rounding = 2.0 * _ROUND * (abs_scale * np.add.reduce(abs_c, axis=1) * per_term
                                   + (4 * m + 2) * np.abs(value[idx]))
        bound[idx] = abs_scale * np.add.reduce(abs_c * err, axis=1) + rounding
    return value, bound


def _arch_integrand_2d(model: VarietyModel, s):
    """Pointwise H_oo(x, y; s)^(-1) for the 2-dimensional models."""
    exps = [float(e) for e in geometry.generator_exponents(model, s)]
    sections = [gen.sections for gen in model.generators]

    def f(x: float, y: float) -> float:
        out = 1.0
        point = (1.0, x, y)
        for coeffs_list, mg in zip(sections, exps):
            h = max(abs(c[0] * point[0] + c[1] * point[1] + c[2] * point[2])
                    for c in coeffs_list)
            out *= h ** (-mg)
        return out

    return f


def _arch_quad_2d(model: VarietyModel, a: tuple, s) -> LocalFourierValue:
    """Nested 2-D quadrature of the archimedean transform at a nonzero index
    a (a pair of Fractions), for P2 and BlP2-1.

    Both coordinates enter through absolute values, so the transform is real
    with cosine weights in each variable.  On the plateau |x| <= x0 =
    max(1, |y|) the integrand is constant in x (every section maximum is
    realized by Z or Y there), so the inner integral is exact plus an
    oscillatory-weighted power tail; inner(y) is likewise constant for
    |y| <= 1.  The bound is four times QUADPACK's error estimates.

    Raises:
        CapabilityError: if QUADPACK warns (an IntegrationWarning: divergent
            or slowly convergent, roundoff, subdivision limit) in the inner
            or the outer integral, as its estimate would enter the bound.
    """
    # Imported here, so that no other path pays for importing SciPy.
    from scipy import integrate as _integrate

    f = _arch_integrand_2d(model, s)
    exps = [float(e) for e in geometry.generator_exponents(model, s)]
    x_exp = exps[0]
    a1 = abs(float(a[0]))
    a2 = abs(float(a[1]))
    w1 = TWO_PI * a1
    err_acc = [0.0]

    def inner(y: float) -> float:
        x0 = max(1.0, abs(y))
        c = f(x0, y)
        if a1 == 0.0:
            head = c * x0
            tail = c * x0 / (x_exp - 1.0)
        else:
            head = c * math.sin(w1 * x0) / w1
            coef = c * x0 ** x_exp
            tail, e2 = _integrate.quad(lambda x: coef * x ** (-x_exp),
                                       x0, np.inf, weight="cos", wvar=w1)
            err_acc[0] += e2
        return 2.0 * (head + tail)

    w2 = TWO_PI * a2
    with warnings.catch_warnings():
        warnings.simplefilter("error", _integrate.IntegrationWarning)
        try:
            flat = inner(0.0)
            if a2 == 0.0:
                head_y = flat
                tail_y, e_outer = _integrate.quad(inner, 1.0, np.inf, limit=400)
            else:
                head_y = flat * math.sin(w2) / w2
                tail_y, e_outer = _integrate.quad(inner, 1.0, np.inf,
                                                  weight="cos", wvar=w2)
        except _integrate.IntegrationWarning as warned:
            raise CapabilityError(f"archimedean transform of {model.id} at a ="
                                  f" ({', '.join(map(str, a))}): QUADPACK warned: {warned}"
                                  ) from None
    value = 2.0 * (head_y + tail_y)
    bound = 4.0 * (e_outer + err_acc[0]) + 1e-10
    return LocalFourierValue(complex(value), bound, "quadrature")


def arch_fourier(model: VarietyModel, a, s) -> LocalFourierValue:
    """Archimedean Fourier transform of the height at psi_a.

    P^n (kind "pn") is supported at every a: a closed form at the
    trivial character and otherwise a sum of at most 2^(n-1) integrals
    I(gamma, w) = int_1^oo u^(-gamma) e^(iwu) du (_arch_projective), each
    with a proved bound (_osc_power_integral).  Past
    T = max(1, 2 (gamma + K)/w), k integrations by parts give
    -e^(iwT) sum_{j<k} (gamma)_j T^(-gamma-j) (iw)^(-j-1) with a remainder
    at most the last term taken.  Before T, panels of width at most
    min(u/2, 4 pi/w) keep every panel's Bernstein ellipse in Re u > 0 with
    |e^(iwu)| bounded, and Trefethen's ellipse bound for Gauss quadrature
    bounds each panel.  A float allowance derived from the operations
    used is added.  Of the blow-ups only BlP2-1 is supported: a four-cell
    closed form at the trivial character and nested 2-D QUADPACK
    quadrature otherwise (_arch_quad_2d), whose bound is four times
    QUADPACK's error estimate, an estimate and not a proved bound, refused
    (CapabilityError) where QUADPACK warns.  BlP2-2
    and BlP2-3 raise CapabilityError.

    Args:
        model: catalog model (P^n or BlP2-1).
        a: character index (scalar or vector of length model.dim).
        s: Picard vector, real, inside the convergence domain.
    """
    a, s, _ = _checked(model, a, s)
    exps = geometry.generator_exponents(model, s)

    if model.kind == "pn":
        den = math.lcm(*(x.denominator for x in a))
        value, bound = _arch_projective(
            model.dim, exps[0], [[int(x * den) for x in a]], den)
        return LocalFourierValue(complex(value[0]), float(bound[0]),
                                 "quadrature" if any(a) else "closed-form")

    # The four-cell decomposition and the plateau of _arch_quad_2d need the
    # single center (1 : 0 : 0), whose pencil {Y, Z} does not involve x.
    if model.kind != "fiber":
        raise CapabilityError(
            f"archimedean transform not implemented for {model.id}"
        )
    if not any(a):
        # On the quadrant the four cells (unit square, x-dominant,
        # y-dominant, intermediate) sum to
        # (1 + 1/(m_H - 1)) (1 + 1/(m_H + m_F - 2)), times 4.
        mh, mf = (float(e) for e in exps)
        value = 4.0 * (1.0 + 1.0 / (mh - 1.0)) * (1.0 + 1.0 / (mh + mf - 2.0))
        return LocalFourierValue(complex(value), 0.0, "closed-form")
    return _arch_quad_2d(model, a, s)


# ---------------------------------------------------------------------------
# Global assembly with zeta acceleration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlobalFourierValue:
    """Adelic Fourier transform with its error bound and the zeta factors
    that were peeled off for acceleration."""

    value: complex
    error_bound: float
    zeta_factors: tuple


def _global_tail_exponent(beta_all, beta_a0) -> float:
    """Decay exponent of the regularized local factor minus one.

    phi_p - 1 = -sum_alpha p^(-1-beta_alpha) + O(p^(-2 beta_min(A0)))
    after cancelling the A0 pole terms, so the decay exponent is
    min(1 + min beta_all, 2 min beta_A0).
    """
    e = 1.0 + min(beta_all)
    if beta_a0:
        e = min(e, 2.0 * min(beta_a0))
    return e


def _checked_s(model: VarietyModel, a, s) -> tuple:
    """(a, s, beta) after global_fourier's checks, before any transform
    runs: those of _checked, an integral a on the blow-ups, and
    s_alpha > rho_alpha (beta_alpha > 1) at the trivial character."""
    a, s, beta = _checked(model, a, s, integral=model.kind != "pn")
    if not any(a) and any(b <= 1 for b in beta):
        raise ValueError("the trivial character requires s_alpha > rho_alpha")
    return a, s, beta


def _pn_characters(model: VarietyModel, sigma: Fraction, rows, tates=None) -> tuple:
    """(values, error_bounds, arch values) of global_fourier on P^n, float
    arrays, at the integral characters a in the rows of an (N, n) int64
    array and a sigma = s_D1 that _checked_s has passed (the formula is in
    global_fourier).  Tate_p (tamagawa._tate_factor, whose cone check on
    P^n is the kind, one lookup for every prime) enters at k = v_p(gcd a),
    p ascending, and is kept in tates under (p, k): a caller that hands
    several chunks of characters one dict (_character_side) computes each
    factor once.  As in _util.jordan_segment the primes p <= sqrt(max gcd) are
    divided out of the gcds in turn, each by one np.gcd with p^K, the
    largest power of p at most the largest gcd it divides, whose power p^k
    is looked up in [p, ..., p^K]; what is left is 1 or one larger prime
    (k = 1).  The primes are sieved in segments, up to 2^10 and then up to
    _GCD_PRIME_LIMIT, each up to the square root of the largest gcd left,
    so a gcd of small primes (2^62, say) needs no sieve past its primes;
    a gcd whose part free of the primes up to 2^20 passes 2^40 is refused.
    """
    n = model.dim
    rows = np.asarray(rows, dtype=np.int64)
    arch, arch_err = _arch_projective(n, sigma, rows)
    sig = float(sigma)
    finite = np.full(len(rows), 1.0 / zeta(sig))
    g = np.gcd.reduce(np.abs(rows), axis=1)
    if not g.all():
        finite[g == 0] *= zeta(float(1 + sigma - model.rho[0]))

    tates = {} if tates is None else tates

    def tate(p: int, k: int) -> float:
        if (p, k) not in tates:
            num, den = tamagawa._tate_factor(model, p, k, sigma)
            tates[p, k] = num / den / (1.0 - float(p) ** (-sig))
        return tates[p, k]

    # int32 where it holds the gcds: NumPy's division by a scalar p is
    # faster there, and rest // p * p == rest is the test of p | rest.
    rest = np.maximum(g, 1).astype(np.int32 if g.max(initial=0) < 2**31 else np.int64)
    done = 1  # no prime <= done divides rest
    while (top := math.isqrt(int(rest.max(initial=1)))) > done:
        hi = min(top, 2**10 * done)
        refuse_past("P^n characters: the primes to divide out of a gcd", hi, _GCD_PRIME_LIMIT,
                    "time")
        for p in (p for p in primes_upto(hi) if p > done):
            hit = (rest // p * p == rest).nonzero()[0]
            if hit.size:
                d = rest[hit]
                most, powers = int(d.max()), [p]
                while powers[-1] * p <= most:
                    powers.append(powers[-1] * p)
                d = np.gcd(d, powers[-1])
                k = np.searchsorted(powers, d)  # d = p^(k+1)
                rest[hit] //= d
                finite[hit] *= np.array([tate(p, kk) for kk in range(1, int(k.max()) + 2)])[k]
        done = hi
    big = (rest > 1).nonzero()[0]
    if big.size:
        primes = sorted(set(rest[big].tolist()))
        finite[big] *= np.array([tate(q, 1) for q in primes])[np.searchsorted(primes, rest[big])]
    value = arch * finite
    bound = arch_err * np.abs(finite) + 1e-14 * np.maximum(1.0, np.abs(value))
    return value, bound, arch


def global_fourier(model: VarietyModel, a, s,
                   p_max: int = 2000) -> GlobalFourierValue:
    """Adelic Fourier transform Hhat(psi_a; s) = prod_v Hhat_v(psi_a; s).

    P^n is exact at every finite place, and p_max plays no role.  With
    sigma = s_D1, Tate's local factor is 1 - p^(-sigma) at p not dividing a,
    so after one check of s and a an integral a is one row of the batch
    kernel _pn_characters, which returns _arch_projective(n, sigma, a) *
    zeta(sigma)^(-1) * prod_{p | a} Tate_p / (1 - p^(-sigma)), Tate_p the
    exact shell sum tamagawa._tate_shell_sum (an int quotient at integer
    sigma), with the archimedean bound times the finite part plus
    1e-14 max(1, |value|); poisson_check hands the same kernel all its
    characters at once.  At a = 0 the product is zeta(beta)/zeta(sigma).  A
    non-integral a has Tate factor 0 at a prime dividing a denominator, so
    the value is 0 with bound 1e-14.  P1 takes the kernel at every a, P2 and
    P3 at a != 0; their trivial character takes the generic assembly below.

    Generic assembly (the blow-ups, and P2 and P3 at a = 0).  At a = 0 each
    finite factor is exact, tamagawa.exact_local_density at every prime up
    to p_max; with every beta_alpha an integer it runs at 2 and 3 only, and
    the good primes take the integer polynomial g_beta(1/p) of
    tamagawa.regularized_factor_poly (the stratum sum times the peel
    below) in the Horner pass tamagawa_number shares.  Brute force runs
    only at a twisted a: at 2, 3 and the support primes of a, with closed
    forms at the remaining good primes.  The polar parts
    (1 - p^(-beta_alpha))^(-1) for alpha with d_alpha(a) = 0 are peeled
    from every computed factor and resummed through the Riemann zeta
    function, which removes the slow part of the tail; the remaining tail
    of regularized factors is bounded by an empirically validated constant
    times p_max^(1-e)/(e-1).  That
    completion still removes each A0 pole twice (ROADMAP).

    Args:
        model: catalog model (limited by arch_fourier support).
        a: character index; integral on the blow-ups.
        s: real Picard vector in the convergence domain of the global product
            (all 1 + s_alpha - rho_alpha > 0; s_alpha > rho_alpha for the
            trivial character, which has a pole at the boundary).
        p_max: cutoff for computed good-prime factors (generic assembly),
            an int >= 1 (ValueError otherwise); the generic assembly
            refuses p_max past tamagawa.P_MAX_LIMIT (memory) before any
            factor or sieve (tamagawa.good_primes).

    Returns:
        GlobalFourierValue with the value, a combined error bound, and the
        (component, beta) pairs whose zeta factors were used.
    """
    if not isinstance(p_max, numbers.Integral) or p_max < 1:
        raise ValueError(f"p_max must be an integer >= 1, not {p_max!r}")
    a, s, beta = _checked_s(model, a, s)
    trivial = not any(a)
    if model.kind == "pn" and (model.dim == 1 or not trivial):
        if any(x.denominator != 1 for x in a):
            # Tate's factor is 0 at a prime dividing a denominator.
            return GlobalFourierValue(0j, 1e-14, ())
        value, bound, _ = _pn_characters(model, s[0], [[int(x) for x in a]])
        zeta_factors = tuple(zip(model.components, beta)) if trivial else ()
        return GlobalFourierValue(complex(value[0]), float(bound[0]), zeta_factors)
    primes = tamagawa.good_primes(p_max)
    if trivial:
        a0_names = list(model.components)
    else:
        a0_names = list(geometry.divisor_multiplicities(model, a).a0)
    beta_by_name = dict(zip(model.components, beta))
    a0_beta = [beta_by_name[name] for name in a0_names]
    zeta_factors = tuple((name, beta_by_name[name]) for name in a0_names)

    small = sorted(geometry.SMALL_PRIMES | set(_support_primes(a)))
    # A twisted character takes brute integrals at the small primes, each
    # checked against the refinement's limits before any of them runs.
    depths = {}
    if not trivial:
        eps_star = min(float(b) for b in beta)
        for p in small:
            want = math.ceil(30.0 * math.log(2.0) / (eps_star * math.log(p))) + 1
            depths[p] = max(3, min(want, suggested_depth(model, p)))
            _check_brute_limits(model, p, depths[p])
    arch = arch_fourier(model, a, s)

    # Generic path: peel the A0 poles from every computed factor, then
    # restore exactly through zeta.  With phi_p = Hhat_p prod_{A0}(1-p^(-b))
    # the assembled product is
    #   arch * prod_{p computed} phi_p * prod_{A0} [zeta(b) *
    #       prod_{p computed} (1 - p^(-b))],
    # which replaces every uncomputed local factor by its polar part; the
    # regularized remainder over p > p_max is bounded below.
    goods = [p for p in primes.tolist() if p not in small]
    computed = sorted(small + goods)  # two ascending runs, no prime in both

    def peel(p: int) -> float:
        out = 1.0
        for b in a0_beta:
            out *= 1.0 - float(p) ** (-float(b))
        return out

    finite = 1.0 + 0.0j
    rel_err = 0.0
    if trivial:
        # Every finite factor is exact: the untruncated density, and at
        # integer beta phi_p = g_beta(1/p) at the good primes.
        integer = all(b.denominator == 1 for b in beta)
        setup = tamagawa._density_setup(model, s)
        for p in small if integer else computed:
            finite *= float(tamagawa._local_density(model, p, setup)) * peel(p)
        if integer:
            g = tamagawa.regularized_factor_poly(model, [int(b) for b in beta])
            finite = tamagawa._good_prime_product(g, goods, finite)
    else:
        for p in small:
            brute = brute_padic_fourier(model, p, a, s, depth=depths[p])
            finite *= brute.value * peel(p)
            rel_err += brute.error_bound / max(
                abs(brute.value) - brute.error_bound, 1e-30)
        for p in goods:
            main, et = closed_form_good_prime(model, p, a, s)
            finite *= main * peel(p)
            rel_err += et / max(abs(main) - et, 1e-30)
    for _name, b in zeta_factors:
        finite *= tamagawa._completion_body(float(b), computed)
    e_phi = _global_tail_exponent([float(b) for b in beta],
                                  [float(b) for b in a0_beta])
    k_phi = _GLOBAL_TAIL_K * model.rank
    if e_phi <= 1.0:
        raise ValueError("tail exponent at or below 1; increase s")
    tail_rel = math.expm1(k_phi * p_max ** (1.0 - e_phi) / (e_phi - 1.0))
    value = arch.value * finite
    bound = abs(value) * (rel_err + tail_rel) + \
        arch.error_bound * abs(finite) + 1e-14 * max(1.0, abs(value))
    return GlobalFourierValue(value, bound, zeta_factors)


# ---------------------------------------------------------------------------
# Truncated height zeta function and the Poisson consistency check.
# ---------------------------------------------------------------------------


def zeta_truncated(model: VarietyModel, lam, s: float, b_cut) -> tuple:
    """Partial sum of the height zeta function over points of height <= b_cut
    together with a tail estimate for the discarded points.

    The partial sum and the number of points summed are
    enumeration.zeta_partial, which follows the counting strategy.  On
    P^n it runs over the primitive shells of the Moebius strategy, and the
    tail is enumeration.pn_zeta_tail, a proved bound on |Z(s) - partial|
    for the shells past the stop and the float sum both.  Off P^n the
    tail is an estimate from the leading term of the counting function,
    tail ~ s c integral_B^oo t^(a - s - 1) (log t)^(b-1) dt with
    c = N(B) / (B^a (log B)^(b-1)) and N(B) that count.

    Args:
        model: catalog model.
        lam: interior Picard class.
        s: finite real exponent with s > a(lambda) (abscissa of
            convergence); ValueError otherwise.
        b_cut: height cutoff.

    Returns:
        (partial_sum, tail_estimate).
    """
    lam = geometry.require_interior(model, lam)
    a_lam = geometry.a_exponent(model, lam)
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if s <= float(a_lam):
        raise ValueError(
            f"zeta function diverges: s = {s} <= a(lambda) = {float(a_lam)}"
        )
    b_cut = as_fraction(b_cut)
    if b_cut < 1:
        return 0.0, 0.0

    partial, n_cut = enumeration.zeta_partial(model, lam, s, b_cut)
    if model.kind == "pn":
        return partial, enumeration.pn_zeta_tail(model, lam, s, b_cut, partial)

    # Tail from the leading term of the counting function, its constant read
    # off the count of the points just summed.
    b_top = float(b_cut)
    if b_top <= 8.0:
        return partial, float("inf")
    if n_cut == 0:
        return partial, 0.0
    a_hat = float(a_lam)
    b_hat = len(geometry.b_set(model, lam))
    c_hat = n_cut / (b_top ** a_hat * math.log(b_top) ** (b_hat - 1))
    # integral_B^oo t^(a-s-1) (log t)^(b-1) dt = Gamma(b, (s-a) log B)/(s-a)^b
    # (substitute u = (s-a) log t), and b = |b_set| is an integer, so the
    # upper incomplete Gamma has the closed form of _upper_gamma.
    c = s - a_hat
    tail_int = _upper_gamma(b_hat, c * math.log(b_top)) / c ** b_hat
    tail = s * c_hat * tail_int
    return partial, tail


def _upper_gamma(b: int, x: float) -> float:
    """Gamma(b, x) = (b-1)! e^-x sum_{k<b} x^k/k! for an integer b >= 1,
    evaluated in 30 decimal digits and rounded to float."""
    with localcontext(Context(prec=30)):
        x = Decimal(x)
        term = total = Decimal(1)
        for k in range(1, b):
            term = term * x / k
            total += term
        return float(math.factorial(b - 1) * (-x).exp() * total)


# poisson_check hands _pn_characters at most this many characters per call, and
# refuses more than _CHARACTER_LIMIT (2.8 us a character at a = 0..2^22 - 1,
# 2-core VM: 12 s).
_CHARACTER_CHUNK = 2**14
_CHARACTER_LIMIT = 2**22


def _character_side(model: VarietyModel, sigma: Fraction, a_cut: int) -> tuple:
    """(Hhat(psi_0) + 2 sum_{a=1}^{a_cut} Re Hhat(psi_a), its error bound, the
    finite part K of Hhat(psi_0)) on P1 at s_D = sigma, in chunks of characters
    that share one dict of Tate factors."""
    refuse_past("poisson check: the number of characters a = 0..a_cut", a_cut + 1,
                _CHARACTER_LIMIT, "time")
    tates: dict = {}
    for lo in range(0, a_cut + 1, _CHARACTER_CHUNK):
        values, bounds, arch = (x.tolist() for x in _pn_characters(model, sigma, np.arange(
            lo, min(lo + _CHARACTER_CHUNK, a_cut + 1), dtype=np.int64)[:, None], tates))
        if lo == 0:
            rhs, err = values.pop(0), bounds.pop(0)
            finite_k = abs(rhs) / max(arch[0], 1e-30)
        for value, bound in zip(values, bounds):
            rhs += 2.0 * value
            err += 2.0 * bound
    return rhs, err, finite_k


def poisson_check(model: VarietyModel, lam, s: float, b_cut, a_cut: int,
                  p_max: int = 2000) -> dict:
    """Compare the truncated height zeta function against its spectral
    expansion over additive characters.

    The left side is sum_{H(x) <= b_cut} H(x)^(-s); the right side is
    Hhat(psi_0; s lam) + 2 sum_{a=1}^{a_cut} Re Hhat(psi_a; s lam).  The
    combined bound collects the zeta tail, the character tail
    2 K sigma / (pi^2 a_cut) with K the finite part of the trivial-character
    transform (each |Hhat_p(psi_a)| <= Hhat_p(psi_0)), and the per-term
    error bounds of the assembled transforms.

    Only P1 is supported: the character sum over a_1 = 1..a_cut and its
    tail bound are written for one-dimensional characters.  s is checked
    once, and the batch kernel _pn_characters evaluates a = 0..a_cut
    _CHARACTER_CHUNK at a time (about 0.6 KB a character while a chunk is
    evaluated), row by row the floats of global_fourier at each a; the two
    sums are taken left to right across the chunks (_character_side, which
    refuses more than _CHARACTER_LIMIT characters).  P^n is exact at every
    finite place, so p_max is ignored.

    Args:
        model: catalog model (P1 only).
        lam: interior Picard class.
        s: real exponent with s > a(lambda).
        b_cut: height cutoff for the point side, at least 1 (ValueError
            otherwise: no point lies below it).
        a_cut: number of nontrivial character pairs on the spectral side.
        p_max: ignored (P^n needs no Euler product cutoff).

    Returns:
        dict with keys lhs, rhs, abs_diff, combined_bound, rel_diff, pass.
    """
    if model.kind != "pn" or model.dim != 1:
        raise CapabilityError("poisson check is implemented for P1 only")
    lam = geometry.require_interior(model, lam)
    if as_fraction(b_cut) < 1:
        raise ValueError(f"b_cut must be >= 1, got {b_cut}")
    if not (isinstance(a_cut, numbers.Integral) and a_cut >= 0):
        raise ValueError(f"a_cut must be a nonnegative integer, got {a_cut!r}")
    s = float(s)

    lhs, lhs_tail = zeta_truncated(model, lam, s, b_cut)

    _, s_pic, _ = _checked_s(model, (0,), [as_fraction(s) * l for l in lam])
    sigma = float(s_pic[0])
    rhs, err, finite_k = _character_side(model, s_pic[0], a_cut)

    if a_cut > 0:
        a_tail = 2.0 * finite_k * sigma / (math.pi ** 2 * a_cut)
    else:
        a_tail = 2.0 * finite_k * sigma / math.pi ** 2 * (math.pi ** 2 / 6.0)

    combined = lhs_tail + err + a_tail
    abs_diff = abs(lhs - rhs)
    rel_diff = abs_diff / abs(lhs) if lhs else float("inf")
    return {
        "lhs": lhs,
        "rhs": rhs,
        "abs_diff": abs_diff,
        "combined_bound": combined,
        "rel_diff": rel_diff,
        "pass": abs_diff <= combined,
    }
