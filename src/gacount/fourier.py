"""Fourier transforms of height functions at additive characters.

The height zeta function Z(s) = sum_x H(x)^(-s) over rational points of the
open orbit is studied through the spectral expansion

    Z(s) = sum_{a} Hhat(psi_a; s),      Hhat(psi_a; s) = prod_v Hhat_v(psi_a; s),

where a runs over integer vectors (the arithmetic dual of G_a^n(Q) modulo the
integral model) and each local transform is an oscillatory integral

    Hhat_p(psi_a; s) = int_{Q_p^n} H_p(x; s)^(-1) psi_p(<a, x>) dx,
    Hhat_oo(psi_a; s) = int_{R^n}   H_oo(x; s)^(-1) e^(2 pi i <a, x>) dx.

This module provides several independent routes to these quantities:

* character_value / character_sum: normalized complete character sums
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
  oscillatory integrals (a closed form at the trivial character); BlP2-1
  has a closed form at the trivial character and 2-D quadrature otherwise.

* global_fourier: assembles the adelic product.  P^n is exact at every
  finite place: zeta(sigma)^(-1) times exact factors at the primes dividing
  the character index.  The blow-ups use Riemann zeta acceleration of the
  polar local factors, brute-force values at small and support primes, and
  closed forms at the remaining good primes up to a cutoff; brute primes
  enter only there (and at the trivial character on P2/P3).

* zeta_truncated / poisson_check: the two sides of the spectral identity,
  sum over points of bounded height versus sum over characters, each carrying
  explicit tail bounds; used as an end-to-end consistency check of every
  formula above.

All error bounds travel with the values so that consumers can assert
|difference| <= bound instead of fixed tolerances.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iter_product
from typing import Optional, Sequence, Union

import mpmath
import numpy as np
from scipy import integrate as _integrate

from ._util import (
    CapabilityError,
    as_fraction,
    floor_frac_root,
    is_prime,
    phi_sieve,
    prime_factors,
    primes_upto,
    vp,
    vp_fraction,
)
from . import enumeration, geometry, heights, tamagawa
from .geometry import VarietyModel, load_model

TWO_PI = 2.0 * math.pi

# Largest modulus for which character sums are evaluated by direct summation.
CHARACTER_SUM_DIRECT_LIMIT = 8_000_000

# Multiplicative safety constants for the truncation tail of the brute-force
# local integral, one per model.  The tail over |x|_p = p^i decomposes into
# at most (i + 1) valuation profiles per blown-up direction, each carrying
# mass at most p^(-eps i) with eps = min_alpha (1 + s_alpha - rho_alpha), so
# tail <= C * sum_{i > m} (i + 1) p^(-eps i).  C counts the independent
# degenerating directions (the pencils meeting the boundary).
_BRUTE_TAIL_CONSTANT = {
    "P1": 1.0,
    "P2": 1.0,
    "P3": 1.0,
    "BlP2-1": 2.0,
    "BlP2-2": 2.0,
    "BlP2-3": 3.0,
}

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


@dataclass(frozen=True)
class CharacterArgument:
    """An additive character psi_a(x) = e^(2 pi i <a, x>) indexed by a in Q^n.

    The character is trivial on the standard compact Z_p^n at every p exactly
    when every coordinate of a is p-integral; integral vectors a are trivial
    on the product of all standard compacts.
    """

    a: tuple

    def __init__(self, a):
        if isinstance(a, CharacterArgument):
            object.__setattr__(self, "a", a.a)
            return
        if isinstance(a, (int, Fraction, float, str)):
            a = (a,)
        object.__setattr__(self, "a", tuple(as_fraction(x) for x in a))

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.a)

    @property
    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.a)

    def min_valuation(self, p: int) -> Optional[int]:
        """min_i v_p(a_i), or None (plus infinity) for the zero vector."""
        vals = [vp_fraction(x, p) for x in self.a if x != 0]
        return min(vals) if vals else None

    def support_primes(self) -> tuple:
        """Primes p with min_valuation(p) != 0, where psi_a is not trivial on
        exactly Z_p^n: those dividing the gcd of the numerators or some
        denominator.  Empty for the zero vector."""
        if self.is_zero:
            return ()
        num = 0
        den = 1
        for x in self.a:
            num = math.gcd(num, x.numerator)
            den = math.lcm(den, x.denominator)
        return prime_factors(num * den)


def _coerce_character(a) -> CharacterArgument:
    return a if isinstance(a, CharacterArgument) else CharacterArgument(a)


def character_value(p: int, x) -> complex:
    """psi_p(x) = e^(2 pi i {x}_p) where {x}_p is the p-fractional part.

    For rational x = u / p^k with u a p-unit numerator over a p-free
    denominator b, the fractional part is (num * b^(-1) mod p^k) / p^k.
    p-integral x gives 1.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    x = as_fraction(x)
    if x == 0:
        return 1.0 + 0.0j
    k = vp(x.denominator, p)
    if k == 0:
        return 1.0 + 0.0j
    pk = p ** k
    b = x.denominator // pk
    r = (x.numerator * pow(b, -1, pk)) % pk
    return cmath.exp(2j * math.pi * r / pk)


def _character_sum_direct(p: int, u: int, n: int, d: int) -> complex:
    """Raw evaluation of (1/p^(nd)) sum_{t unit mod p^(nd)} e(u t^d / p^(nd)).

    Chunked numpy summation with staged modular powers; memory stays bounded
    regardless of the modulus.
    """
    K = n * d
    M = p ** K
    if M > CHARACTER_SUM_DIRECT_LIMIT:
        raise CapabilityError(
            f"direct character sum with modulus {M} exceeds the budget"
        )
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
    if not model.centers:
        return 30
    return {2: 17, 3: 11}.get(p, 3)


def _brute_tail_bound(model: VarietyModel, p: int, depth: int,
                      eps_star: float) -> float:
    """C * sum_{i > depth} (i + 1) r^i with r = p^(-eps_star)."""
    r = float(p) ** (-eps_star)
    if r >= 1.0:
        raise ValueError("s outside the convergence domain")
    m = depth
    tail = r ** (m + 1) * ((m + 2) - (m + 1) * r) / (1.0 - r) ** 2
    return _BRUTE_TAIL_CONSTANT[model.id] * tail


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
        depth: truncation exponent m >= 1.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    s = geometry.coerce_picard(model, s)
    rho = geometry.rho_vector(model)
    eps_star = min(float(1 + sa - ra) for sa, ra in zip(s, rho))
    if eps_star <= 0:
        raise ValueError("s must satisfy s_alpha > rho_alpha - 1 everywhere")
    arg = _coerce_character(a)
    if len(arg.a) != model.dim:
        raise ValueError("character index has wrong length")

    n = model.dim
    m = depth
    M = p ** m
    tail = _brute_tail_bound(model, p, m, eps_star)

    # Ramified characters: if some coordinate of a has negative valuation the
    # character factor prod_i [v_p(a_i) >= m - j] vanishes on every cube with
    # j <= m, so the truncated integral is exactly zero.
    avals = [None if x == 0 else vp_fraction(x, p) for x in arg.a]
    if any(v is not None and v < 0 for v in avals):
        return LocalFourierValue(0.0 + 0.0j, tail, "brute-force")

    # p-integral coordinates reduce to residues modulo p^m.
    ahat = []
    for x in arg.a:
        if x == 0:
            ahat.append(0)
        else:
            ahat.append((x.numerator * pow(x.denominator, -1, M)) % M)
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


def _pole_term(q: int, beta: Fraction):
    """(q - 1) / (q^beta - 1), exact when beta is a positive integer."""
    if beta <= 0:
        raise ValueError("pole factor requires beta > 0")
    if beta.denominator == 1:
        return Fraction(q - 1, q ** int(beta) - 1)
    return (q - 1) / (float(q) ** float(beta) - 1.0)


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
    if not model.centers:
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
        a: integral character index; the zero vector dispatches to the exact
            untwisted local density.
        s: Picard vector with 1 + s_alpha - rho_alpha > 0.

    Returns:
        (main_term, et_bound): the approximation and a nonnegative real bound
        on |Hhat_p - main_term| collecting the depth >= 2 strata and the
        points excluded by the hyperplane reduction.
    """
    geometry._check_good_prime(model, p)
    s = geometry.coerce_picard(model, s)
    rho = geometry.rho_vector(model)
    beta = {comp: 1 + sa - ra
            for comp, sa, ra in zip(model.components, s, rho)}
    if any(b <= 0 for b in beta.values()):
        raise ValueError("s must satisfy s_alpha > rho_alpha - 1 everywhere")
    arg = _coerce_character(a)
    if len(arg.a) != model.dim:
        raise ValueError("character index has wrong length")
    if arg.is_zero:
        return complex(float(tamagawa.denef_local_factor(model, p, s))), 0.0
    if not arg.is_integral:
        raise ValueError("closed form requires an integral character index")
    avec = tuple(int(x) for x in arg.a)
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
            main = main + count * _pole_term(q, b) * qn
        elif b.denominator == 1:
            main = main - Fraction(count, q ** (n + int(b)))
        else:
            main = main - count / float(q) ** (n + float(b))

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
            prod *= float(_pole_term(q, beta[comp]))
        et += count * prod
    for comp, d_alpha in zip(model.components, dm.d):
        if not iota[comp]:
            continue
        point_term = float(_pole_term(q, beta[comp]))
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


def _arch_projective(n: int, sigma: Fraction, a: tuple) -> LocalFourierValue:
    """The archimedean transform on P^n, where H_oo(x; s) = max(1, |x|)^sigma
    in the max-norm |x|.

    Layer cake: for u >= 1, max(1, |x|) <= u exactly when |x| <= u, so
    max(1, |x|)^(-sigma) = sigma int_1^oo u^(-sigma-1) [|x| <= u] du and

        Hhat_oo(psi_a) = sigma int_1^oo u^(-sigma-1) prod_j Phi_j(u) du,

    with Phi_j(u) = int_{-u}^{u} e^(2 pi i a_j x) dx = sin(2 pi a_j u)/(pi a_j),
    or 2u when a_j = 0.  At a = 0 this is sigma 2^n/(sigma - n).  Otherwise,
    with z zero coordinates and m = n - z nonzero ones, the product of the m
    sines is (-1)^(m // 2) 2^(1-m) sum over signs e (e_1 = +1) of
    (prod e) sin or cos (for m odd or even) of 2 pi u sum_j e_j |a_j|, so the
    transform is a sum of at most 2^(n-1) one-dimensional integrals
    int_1^oo u^(z-sigma-1) cos/sin(w u) du, each by QUADPACK's Fourier
    integrator; w = 0 gives 1/(sigma - z) exactly.  The bound is four times
    QUADPACK's error estimates plus a float allowance.
    """
    if not any(a):
        return LocalFourierValue(complex(sigma * 2**n / (sigma - n)), 0.0,
                                 "closed-form")
    freqs = [abs(x) for x in a if x]
    m = len(freqs)
    z = n - m
    trig = "cos" if m % 2 == 0 else "sin"
    # Merge the sign patterns by |frequency| (exact, a is rational).
    terms: dict = {}
    for signs in _iter_product((1, -1), repeat=m - 1):
        f = freqs[0] + sum(e * x for e, x in zip(signs, freqs[1:]))
        c = math.prod(signs)
        if f < 0:
            f = -f
            if trig == "sin":
                c = -c
        terms[f] = terms.get(f, 0) + c
    gamma = float(sigma) + 1.0 - z
    scale = (float(sigma) * 2.0**z * (-1) ** (m // 2) * 2.0 ** (1 - m)
             / math.prod(math.pi * float(x) for x in freqs))
    total = 0.0
    err = 0.0
    for f, c in terms.items():
        if c == 0:
            continue
        if f == 0:
            if trig == "cos":
                total += c / (gamma - 1.0)
            continue
        val, e = _integrate.quad(lambda u: u ** (-gamma), 1.0, np.inf,
                                 weight=trig, wvar=TWO_PI * float(f))
        total += c * val
        err += abs(c) * e
    value = scale * total
    bound = 4.0 * abs(scale) * err + 1e-14 * max(1.0, abs(value))
    return LocalFourierValue(complex(value), bound, "quadrature")


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


def _arch_quad_2d(model: VarietyModel, arg: CharacterArgument,
                  s) -> LocalFourierValue:
    """Nested 2-D quadrature of the archimedean transform at a nonzero a,
    for P2 and BlP2-1.

    Both coordinates enter through absolute values, so the transform is real
    with cosine weights in each variable.  On the plateau |x| <= x0 =
    max(1, |y|) the integrand is constant in x (every section maximum is
    realized by Z or Y there), so the inner integral is exact plus an
    oscillatory-weighted power tail; inner(y) is likewise constant for
    |y| <= 1.  The bound is four times QUADPACK's error estimates.
    """
    f = _arch_integrand_2d(model, s)
    exps = [float(e) for e in geometry.generator_exponents(model, s)]
    x_exp = exps[0]
    a1 = abs(float(arg.a[0]))
    a2 = abs(float(arg.a[1]))
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
    flat = inner(0.0)
    if a2 == 0.0:
        head_y = flat
        tail_y, e_outer = _integrate.quad(inner, 1.0, np.inf, limit=400)
    else:
        head_y = flat * math.sin(w2) / w2
        tail_y, e_outer = _integrate.quad(inner, 1.0, np.inf,
                                          weight="cos", wvar=w2)
    value = 2.0 * (head_y + tail_y)
    bound = 4.0 * (e_outer + err_acc[0]) + 1e-10
    return LocalFourierValue(complex(value), bound, "quadrature")


def arch_fourier(model: VarietyModel, a, s) -> LocalFourierValue:
    """Archimedean Fourier transform of the height at psi_a.

    P^n (no blow-up centers) is supported at every a: a closed form at the
    trivial character and a sum of at most 2^(n-1) one-dimensional
    oscillatory integrals otherwise (_arch_projective).  Of the blow-ups
    only BlP2-1 is supported: a four-cell closed form at the trivial
    character and nested 2-D quadrature otherwise (_arch_quad_2d).  BlP2-2
    and BlP2-3 raise CapabilityError.

    Args:
        model: catalog model (P^n or BlP2-1).
        a: character index (scalar or vector of length model.dim).
        s: Picard vector, real, inside the convergence domain.
    """
    s = geometry.coerce_picard(model, s)
    rho = geometry.rho_vector(model)
    if any(1 + sa - ra <= 0 for sa, ra in zip(s, rho)):
        raise ValueError("s must satisfy s_alpha > rho_alpha - 1 everywhere")
    arg = _coerce_character(a)
    if len(arg.a) != model.dim:
        raise ValueError("character index has wrong length")
    exps = geometry.generator_exponents(model, s)

    if not model.centers:
        return _arch_projective(model.dim, exps[0], arg.a)

    # The four-cell decomposition and the plateau of _arch_quad_2d need the
    # single center (1 : 0 : 0), whose pencil {Y, Z} does not involve x.
    if model.centers != ((1, 0),):
        raise CapabilityError(
            f"archimedean transform not implemented for {model.id}"
        )
    if arg.is_zero:
        # On the quadrant the four cells (unit square, x-dominant,
        # y-dominant, intermediate) sum to
        # (1 + 1/(m_H - 1)) (1 + 1/(m_H + m_F - 2)), times 4.
        mh, mf = (float(e) for e in exps)
        value = 4.0 * (1.0 + 1.0 / (mh - 1.0)) * (1.0 + 1.0 / (mh + mf - 2.0))
        return LocalFourierValue(complex(value), 0.0, "closed-form")
    return _arch_quad_2d(model, arg, s)


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


def _zeta(x: float) -> float:
    key = float(x)
    val = _ZETA_CACHE.get(key)
    if val is None:
        with mpmath.workdps(30):
            val = float(mpmath.zeta(key))
        _ZETA_CACHE[key] = val
    return val


_ZETA_CACHE: dict = {}


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


def global_fourier(model: VarietyModel, a, s, p_max: int = 2000,
                   depth: Optional[int] = None) -> GlobalFourierValue:
    """Adelic Fourier transform Hhat(psi_a; s) = prod_v Hhat_v(psi_a; s).

    P^n is exact at every finite place, and p_max and depth play no role.
    With sigma = s_D1, the local factor at a prime p not dividing a is
    Tate's 1 - p^(-sigma) (tamagawa.exact_local_density), so the product
    over all primes is

        arch * zeta(sigma)^(-1) * prod_{p in support(a)} Hhat_p / (1 - p^(-sigma))

    with the support factors exact; the bound is the archimedean one plus
    float slack.  At a = 0 every factor is (1 - p^(-sigma))/(1 - p^(-beta))
    and the product is zeta(beta)/zeta(sigma).  P1 uses this at every a;
    P2 and P3 at a != 0.  The trivial character on P2 and P3 still takes the
    generic assembly below, whose completion removes each A0 pole twice
    (ROADMAP, "Benchmark follow-ups").

    Generic assembly (the blow-ups): brute force at 2, 3 and at the support
    primes of a, closed forms at the remaining good primes up to p_max.  The
    polar parts (1 - p^(-beta_alpha))^(-1) for alpha with d_alpha(a) = 0 are
    peeled from every computed factor and resummed through the Riemann zeta
    function, which removes the slow part of the tail; the remaining tail of
    regularized factors is bounded by an empirically validated constant
    times p_max^(1-e)/(e-1).

    Args:
        model: catalog model (limited by arch_fourier support).
        a: character index; integral on the blow-ups.
        s: real Picard vector in the convergence domain of the global product
            (all 1 + s_alpha - rho_alpha > 0; s_alpha > rho_alpha for the
            trivial character, which has a pole at the boundary).
        p_max: cutoff for closed-form good-prime factors (generic assembly).
        depth: brute-force truncation depth override for the finitely many
            brute primes of the generic assembly; None picks a depth from
            the convergence margin.

    Returns:
        GlobalFourierValue with the value, a combined error bound, and the
        (component, beta) pairs whose zeta factors were used.
    """
    s = geometry.coerce_picard(model, s)
    rho = geometry.rho_vector(model)
    beta = [1 + sa - ra for sa, ra in zip(s, rho)]
    if any(b <= 0 for b in beta):
        raise ValueError("s must satisfy s_alpha > rho_alpha - 1 everywhere")
    arg = _coerce_character(a)
    if len(arg.a) != model.dim:
        raise ValueError("character index has wrong length")
    if arg.is_zero and any(sa <= ra for sa, ra in zip(s, rho)):
        raise ValueError("the trivial character requires s_alpha > rho_alpha")

    if arg.is_zero:
        a0_names = list(model.components)
    else:
        a0_names = list(geometry.divisor_multiplicities(model, arg.a).a0)
    beta_by_name = dict(zip(model.components, beta))
    a0_beta = [beta_by_name[name] for name in a0_names]
    zeta_factors = tuple((name, beta_by_name[name]) for name in a0_names)

    arch = arch_fourier(model, arg, s)

    # P^n, exact at every finite place (the trivial character on P2 and P3
    # excepted, see above).
    if not model.centers and (model.dim == 1 or not arg.is_zero):
        sigma = float(s[0])
        finite = 1.0 / _zeta(sigma)
        for b in a0_beta:
            finite *= _zeta(float(b))
        for p in arg.support_primes():
            local = tamagawa.exact_local_density(model, p, s, arg.a)
            finite *= float(local) / (1.0 - float(p) ** (-sigma))
        value = arch.value * finite
        bound = arch.error_bound * abs(finite) + 1e-14 * max(1.0, abs(value))
        return GlobalFourierValue(value, bound, zeta_factors)

    if not arg.is_integral:
        raise ValueError("global assembly requires an integral index")
    eps_star = min(float(b) for b in beta)
    small = sorted(set(model.small_primes) | set(arg.support_primes()))

    def brute_depth(p: int) -> int:
        if depth is not None:
            return depth
        want = int(math.ceil(30.0 * math.log(2.0)
                             / (eps_star * math.log(p)))) + 1
        cap = suggested_depth(model, p)
        return max(3, min(want, max(cap, 3)))

    brute = {p: brute_padic_fourier(model, p, arg, s, depth=brute_depth(p))
             for p in small}

    # Generic path: peel the A0 poles from every computed factor, then
    # restore exactly through zeta.  With phi_p = Hhat_p prod_{A0}(1-p^(-b))
    # the assembled product is
    #   arch * prod_{p computed} phi_p * prod_{A0} [zeta(b) *
    #       prod_{p computed} (1 - p^(-b))],
    # which replaces every uncomputed local factor by its polar part; the
    # regularized remainder over p > p_max is bounded below.
    goods = [p for p in primes_upto(p_max) if p >= 5 and p not in small]
    computed = sorted(set(small) | set(goods))

    def peel(p: int) -> float:
        out = 1.0
        for b in a0_beta:
            out *= 1.0 - float(p) ** (-float(b))
        return out

    finite = 1.0 + 0.0j
    rel_err = 0.0
    for p in small:
        finite *= brute[p].value * peel(p)
        rel_err += brute[p].error_bound / max(
            abs(brute[p].value) - brute[p].error_bound, 1e-30)
    for p in goods:
        if arg.is_zero:
            main = complex(float(tamagawa.denef_local_factor(model, p, s)))
            et = 0.0
        else:
            main, et = closed_form_good_prime(model, p, arg, s)
        finite *= main * peel(p)
        rel_err += et / max(abs(main) - et, 1e-30)
    for _name, b in zeta_factors:
        part = _zeta(float(b))
        for p in computed:
            part *= 1.0 - float(p) ** (-float(b))
        finite *= part
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

    For P1 the partial sum is exact in the fiber parametrization (3 points of
    generator height 1, then 4 phi(F) points of generator height F) and the
    tail bound 4 F_max^(2 - lambda s) / (lambda s - 2) is rigorous since
    phi(F) <= F.  For the other models the points are enumerated directly and
    the tail is estimated from a fitted leading term of the counting
    function, tail ~ s c integral_B^oo t^(a - s - 1) (log t)^(b-1) dt.

    Args:
        model: catalog model.
        lam: interior Picard class.
        s: real exponent with s > a(lambda) (abscissa of convergence).
        b_cut: height cutoff.

    Returns:
        (partial_sum, tail_estimate).
    """
    lam = geometry.coerce_picard(model, lam)
    geometry.require_interior(model, lam)
    a_lam = geometry.a_exponent(model, lam)
    s = float(s)
    if s <= float(a_lam):
        raise ValueError(
            f"zeta function diverges: s = {s} <= a(lambda) = {float(a_lam)}"
        )
    b_cut = as_fraction(b_cut)
    if b_cut < 1:
        return 0.0, 0.0

    if model.id == "P1":
        lam1 = lam[0]
        c = float(lam1) * s
        f_max = max(enumeration.height_radius(b_cut, lam1), 1)
        phi = phi_sieve(f_max)
        partial = 3.0
        for f in range(2, f_max + 1):
            partial += 4.0 * phi[f] * float(f) ** (-c)
        tail = 4.0 * float(f_max) ** (2.0 - c) / (c - 2.0)
        return partial, tail

    if model.id == "BlP2-1":
        partial = _blp21_zeta_partial(model, lam, s, b_cut)
    else:
        partial = 0.0
        for pt in enumeration.enumerate_points(model, lam, b_cut):
            h = heights.global_height(model, pt, lam).total
            partial += float(h) ** (-s)

    # Tail from a fitted leading term of the counting function.
    b_top = float(b_cut)
    if b_top <= 8.0:
        return partial, float("inf")
    ladder = enumeration.count_ladder(
        model, lam, [b_top / 8.0, b_top / 4.0, b_top / 2.0, b_top]
    )
    a_hat = float(a_lam)
    b_hat = len(geometry.b_set(model, lam))
    counts = ladder.counts()
    if counts[-1] == 0:
        return partial, 0.0
    c_hat = counts[-1] / (b_top ** a_hat * math.log(b_top) ** (b_hat - 1))
    # integral_B^oo t^(a-s-1) (log t)^(b-1) dt = Gamma(b, (s-a) log B)/(s-a)^b
    # (substitute u = (s-a) log t); exact, no quadrature needed.
    c = s - a_hat
    with mpmath.workdps(30):
        tail_int = float(mpmath.gammainc(b_hat, c * math.log(b_top))) / c ** b_hat
    tail = s * c_hat * tail_int
    return partial, tail


def _coprime_range_count(m: int, g: int, mu_div) -> int:
    """#{X : |X| <= m, gcd(X, g) = 1} via the squarefree divisors of g."""
    total = 0
    for e, mu in mu_div:
        total += mu * (2 * (m // e) + 1)
    return total


def _squarefree_divisors(g: int) -> list:
    """(divisor, mu) pairs over the squarefree divisors of g."""
    out = [(1, 1)]
    for q in prime_factors(g):
        out = out + [(e * q, -mu) for e, mu in out]
    return out


def _blp21_zeta_partial(model: VarietyModel, lam, s: float, b_cut) -> float:
    """Exact partial zeta sum for the one-point blow-up in the fiber
    parametrization.

    Points are grouped by the reduced fiber coordinate y = q/f with
    F = max(|q|, f) (3 fibers at F = 1, 4 phi(F) otherwise) and within a
    fiber by (g, X) with g >= 1, gcd(g, X) = 1; the generator heights are
    h_F = F and h_H = max(g F, |X|), so each point contributes
    max(g F, |X|)^(-m_H s) F^(-m_F s).
    """
    m_h, m_f = geometry.generator_exponents(model, lam)
    c_h = float(m_h) * s
    c_f = float(m_f) * s
    f_max = enumeration.height_radius(b_cut, lam[0])
    if f_max < 1:
        return 0.0
    phi = phi_sieve(f_max)
    total = 0.0
    for F in range(1, f_max + 1):
        t_cap = enumeration._blp21_fiber_bound(lam, b_cut, F)
        if t_cap < F:
            continue
        weight = 3.0 if F == 1 else 4.0 * phi[F]
        inner = 0.0
        for g in range(1, t_cap // F + 1):
            base = g * F
            divs = _squarefree_divisors(g)
            # The plateau |X| <= g F, where h_H = g F.
            inner += _coprime_range_count(base, g, divs) * \
                float(base) ** (-c_h)
            # The wings g F < |X| <= T_F, where h_H = |X|.
            for x in range(base + 1, t_cap + 1):
                if math.gcd(x, g) == 1:
                    inner += 2.0 * float(x) ** (-c_h)
        total += weight * inner * float(F) ** (-c_f)
    return total


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
    tail bound are written for one-dimensional characters.

    Args:
        model: catalog model (P1 only).
        lam: interior Picard class.
        s: real exponent with s > a(lambda).
        b_cut: height cutoff for the point side.
        a_cut: number of nontrivial character pairs on the spectral side.
        p_max: Euler product cutoff passed to global_fourier.

    Returns:
        dict with keys lhs, rhs, abs_diff, combined_bound, rel_diff, pass.
    """
    if model.id != "P1":
        raise CapabilityError("poisson check is implemented for P1 only")
    lam = geometry.coerce_picard(model, lam)
    geometry.require_interior(model, lam)
    if a_cut < 0:
        raise ValueError("a_cut must be nonnegative")
    s = float(s)

    lhs, lhs_tail = zeta_truncated(model, lam, s, b_cut)

    s_pic = tuple(as_fraction(s) * l for l in lam)
    sigma = float(geometry.generator_exponents(model, s_pic)[0])

    g0 = global_fourier(model, (0,), s_pic, p_max=p_max)
    rhs = g0.value.real
    err = g0.error_bound
    for a1 in range(1, a_cut + 1):
        ga = global_fourier(model, (a1,), s_pic, p_max=p_max)
        rhs += 2.0 * ga.value.real
        err += 2.0 * ga.error_bound

    arch0 = arch_fourier(model, (0,), s_pic)
    finite_k = abs(g0.value) / max(arch0.value.real, 1e-30)
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
