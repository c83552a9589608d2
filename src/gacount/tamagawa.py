"""Predicted leading constants: local densities and regularized Euler products.

At a good prime (p not in {2, 3}) the local height transform of the trivial
character evaluates in closed form over the boundary strata:

    Hhat_p(s) = p^{-n} * sum_A #D_A^o(F_p) * prod_{alpha in A}
                (p - 1) / (p^{1 + s_alpha - rho_alpha} - 1),

the sum running over all subsets A of boundary components (A = {} is the
open orbit with p^n points).  At s = rho this is #X(F_p)/p^n, the expected
local density.  The product over all places diverges like zeta(1)^rank, so
each finite place is regularized by (1 - 1/p)^rank; the Tamagawa number is

    tau = arch_density * prod_p density_p * (1 - 1/p)^rank,

and the predicted leading constant of the point count is
tau * prod_alpha rho_alpha^{-1} / (rank - 1)!.

Writing u = 1/p, the regularized good factor is the polynomial

    g(u) = (sum_A #D_A^o as a polynomial in p) * u^n * (1 - u)^rank,

which this module peels into zeta factors: exponents e_k are chosen so that
g(u) = prod_k (1 - u^k)^{e_k} * (1 + h(u)) with h(u) = O(u^6).  For P^n the
peel is exact with g = 1 - u^{n+1} (the product telescopes to 1/zeta(n+1)),
for BlP2-1 it is (1 - u^2)^2, and for BlP2-2/3 the residual h is an explicit
rational function with |h(1/p)| <= C_h p^{-6} for p >= 5, where C_h is
computed rigorously from the coefficients of h's numerator.  The reported
Euler product multiplies the exact factors for p <= P_max by the
zeta-completion of the peeled shapes over p > P_max and bounds the omitted
prod (1 + h_p) by exp(sum |h_p|) - 1 <= exp(C_h P_max^{-5} / 5 * margin) - 1.

The primes 2 and 3 enter through exact_local_density, which sums the whole
untruncated p-adic integral in closed form over valuation cones read off the
generator sections alone (never the stratum polynomials), so those two
factors are exact Fractions and the product carries no small-prime error.
The truncated cube refinement fourier.brute_padic_fourier stays as the
independent oracle the tests hold it against.

Per-prime factors are independent pure computations; this module evaluates
them serially in ascending order so reported floats are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

import mpmath

from . import geometry
from ._util import CapabilityError, as_fraction, is_prime, primes_upto, vp_fraction
from .geometry import VarietyModel

PEEL_ORDER = 5
# Flat allowance (relative to the archimedean density) for assembling the
# product in floats; the true roundoff is ~1e-13 relative for any P_max.
FLOAT_ASSEMBLY_EPS = 1e-12


@dataclass(frozen=True)
class LocalFactor:
    """One local factor of a height transform or Euler product."""

    place: Union[int, str]  # a prime, or "infinity"
    value: Union[float, complex, Fraction]
    provenance: str  # "closed-form" | "brute-force" | "quadrature"
    error_bound: float

    def __post_init__(self):
        if self.provenance not in ("closed-form", "brute-force", "quadrature"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.provenance == "closed-form" and self.error_bound != 0:
            raise ValueError("closed-form factors must carry error_bound 0")
        if self.provenance != "closed-form" and not self.error_bound > 0:
            raise ValueError("non-closed-form factors need a positive error_bound")


@dataclass(frozen=True)
class EulerProductResult:
    """A regularized Euler product truncated at p_max with rigorous bounds."""

    model_id: str
    p_max: int
    rank: int
    arch_density: float
    partial_product: float  # prod_{p <= p_max} of regularized local factors
    zeta_completion: float  # prod_{p > p_max} of the peeled zeta shapes
    peeled: tuple  # ((k, e_k), ...): zeta(k)^{e_k} factors peeled off
    tamagawa: float  # arch_density * partial_product * zeta_completion
    tail_bound: float  # |error| from truncating p > p_max (plus float slack)
    small_prime_error: float  # always 0.0: the factors at p = 2, 3 are exact


def archimedean_density(model: VarietyModel) -> float:
    """The real density integral H_inf(x; rho)^{-1} dx over affine n-space.

    All values are exact piecewise integrals of products of max-functions;
    the cell decompositions are recorded below.

    P^n:  integrand max(1, |x_1|, ..., |x_n|)^{-(n+1)}.  The unit box gives
          2^n; the shell max = t > 1 has surface measure n 2^n t^{n-1}, so
          the outside gives n 2^n int t^{-2} dt = n 2^n.  Total 2^n (n + 1).
    BlP2-1: integrand max(1,|x|,|y|)^{-2} max(1,|y|)^{-1}.  By quadrant
          symmetry 4x the first quadrant, which splits into four cells each
          of mass 1: {x,y<=1} -> 1; {y<=1<=x}: int x^{-2} = 1; {1<=y, x<=y}:
          int y^{-3} * y dy = 1; {1<=y<=x}: int y^{-1} int_y x^{-2} = 1.
          Total 16.
    BlP2-2: integrand [max(1,|x|,|y|) max(1,|x|) max(1,|y|)]^{-1}.  First
          quadrant: {x,y<=1} -> 1; {x<=1<=y} and {y<=1<=x} -> 1 each;
          {x,y>=1} -> 2 (the two orderings each give int y^{-2} dy = 1).
          Total 4 * 5 = 20.
    BlP2-3: integrand [max(1,|x|) max(1,|y|) max(1,|x-y|)]^{-1}, invariant
          under the 12-element group generated by (x,y) -> (y,x), -> (-x,-y)
          and -> (x-y, -y).  On the fundamental domain {x > 0, x/2 <= y <= x}
          the integral evaluates to J = 1/4 + (ln 2 - 1/2) + pi^2/12 + ln 2,
          using int_1^2 ln(t)/(t(t-1))-type pieces that reduce to
          Li_2(1/2) = pi^2/12 - ln^2(2)/2.  Total 12 J = pi^2 + 24 ln 2 - 3.
    """
    if not model.centers:
        n = model.dim
        return float(2**n * (n + 1))
    r = len(model.centers)
    if r == 1:
        return 16.0
    if r == 2:
        return 20.0
    return math.pi**2 + 24.0 * math.log(2.0) - 3.0


def denef_local_factor(model: VarietyModel, p: int, s) -> Union[Fraction, float]:
    """Closed-form local factor of the height transform at a good prime.

    Args:
        model: catalog entry.
        p: prime outside {2, 3}.
        s: Picard vector with s_alpha > rho_alpha - 1 for every alpha.

    Returns:
        The stratum sum as an exact Fraction when every exponent
        1 + s_alpha - rho_alpha is an integer, else a float.
    """
    svec = geometry.coerce_picard(model, s)
    exps = [1 + sv - Fraction(r) for sv, r in zip(svec, model.rho)]
    if any(e <= 0 for e in exps):
        raise ValueError(
            f"s = {svec} outside the convergence domain: need s_a > rho_a - 1"
        )
    exact = all(e.denominator == 1 for e in exps)
    n = model.dim
    total = Fraction(0) if exact else 0.0
    for subset in model.stratum_polys:
        count = geometry.stratum_count(model, subset, p)  # validates p
        term = Fraction(count) if exact else float(count)
        for name, e in zip(model.components, exps):
            if name in subset:
                if exact:
                    term *= Fraction(p - 1, p ** int(e) - 1)
                else:
                    term *= (p - 1) / (float(p) ** float(e) - 1.0)
        total += term
    if exact:
        return total / Fraction(p) ** n
    return total / float(p) ** n


def _rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p of a list of integer vectors, by Gaussian elimination."""
    rows = [[c % p for c in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv % p
            rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def exact_local_density(model: VarietyModel, p: int, s,
                        a: Optional[Sequence] = None) -> Union[Fraction, float]:
    """The untruncated integral int_{Q_p^n} H_p(x; s)^{-1} psi_p(<a, x>) dx,
    exactly; a = None or the zero vector gives the local density.

    Derived from model.generators and generator_exponents alone, at any
    prime p, so it checks the stratum sum of denef_local_factor rather than
    restating it.  Write m_G for the exponent of system G and L_l for the
    linear part of a section l.  Every system holds a section with p-unit
    constant term and no linear part (value of absolute value 1), and the
    other constant terms are integers, so by the ultrametric inequality the
    system's maximum is max(1, max_l |L_l(x)|_p): constant terms drop out.

    Z_p^n contributes 1.  Every other x is p^{-k} t with k >= 1 and t
    primitive (measure p^{kn} dt).  With v_G(t) = min_l v_p(L_l(t)), G
    contributes p^{-m_G max(0, k - v_G(t))}.  v_G(t) > 0 exactly when t mod
    p lies in V_G, the common zero space of G's linear forms mod p.  If those
    forms have full rank n, V_G holds no primitive residue.  Otherwise the
    method needs
      (a) G's forms independent mod p, of rank r_G, so that
          (L_l(t)/p)_l is Haar-uniform on Z_p^{r_G} over each residue of
          V_G, and v_G = j >= 1 has conditional mass q^{-(j-1)} (1 - 1/q)
          with q = p^{r_G};
      (b) V_G and V_G' meeting only in 0 for G != G', so that at most one
          system vanishes at a primitive residue (the unimodular centers
          give this on the catalog);
    and raises CapabilityError when either fails.  With M = sum_G m_G over
    systems with linear forms, a = M - n, A_G = p^{n - M + m_G} and N_0 the
    primitive residues in no V_G, the shell sums are geometric:

        outside every V_G:  N_0 p^{-n} sum_{k>=1} p^{-ak},
        inside V_G:         (p^{n - r_G} - 1) p^{-n} sum_{k>=1} A_G^k
                            [(1 - 1/q) sum_{j=1}^{k} q^{1-j} p^{-m_G(k-j)}
                             + q^{-k}],

    and the second double series is (1 - 1/q) A_G / ((1 - A_G/q)(1 - p^{-a}))
    + (A_G/q) / (1 - A_G/q).  On the catalog p^{-a} and A_G/q are
    p^{-(1 + s_alpha - rho_alpha)} for D1 and the E_i, so both converge on
    the domain denef_local_factor accepts.

    Twisted characters (a != 0, k = min_i v_p(a_i)) need a model without
    cones, such as P^n: then H_p^{-1} is p^{-iM} on the whole shell
    |x|_p = p^i.  A character integrates over the ball |x|_p <= p^i to
    p^{in} when it is trivial there (i <= k) and to 0 otherwise, so the
    shell integral is Tate's p^{in} [i <= k] - p^{(i-1)n} [i - 1 <= k],
    every shell past k + 1 vanishes, and
        [k >= 0] (1 + sum_{i=1}^{k} (p^{in} - p^{(i-1)n}) p^{-iM}
                  - p^{kn} p^{-(k+1)M}).
    The sum is finite, so it is a Fraction for integer M and a float sum
    otherwise.  On a model with cones the integrand is not constant on the
    shells and a twisted a raises CapabilityError.

    Args:
        model: a VarietyModel (catalog or not).
        p: any prime, 2 and 3 included.
        s: Picard vector whose exponents 1 + s_alpha - rho_alpha are
            positive, and integers unless a is twisted.
        a: character index, a rational vector of length model.dim.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    svec = geometry.coerce_picard(model, s)
    exps = [1 + sv - Fraction(r) for sv, r in zip(svec, model.rho)]
    n = model.dim
    avals = [] if a is None else [as_fraction(x) for x in a]
    if avals and len(avals) != n:
        raise ValueError("character index has wrong length")
    twisted = any(avals)
    if any(e <= 0 or (e.denominator != 1 and not twisted) for e in exps):
        raise ValueError(f"need positive integer exponents 1 + s - rho, got {exps}")
    total_m = Fraction(0)
    cones = []  # (name, linear forms, m_G, r_G) for systems with V_G != 0
    for gen, m in zip(model.generators, geometry.generator_exponents(model, svec)):
        if not any(sec[0] % p and not any(sec[1:]) for sec in gen.sections):
            raise CapabilityError(f"{gen.name} has no p-unit constant section at {p}")
        forms = [sec[1:] for sec in gen.sections if any(sec[1:])]
        if not forms:
            continue  # the maximum is identically 1
        total_m += m
        r = _rank_mod_p(forms, p)
        if r == n:
            continue
        if r < len(forms):
            raise CapabilityError(f"{gen.name}: sections dependent mod {p}")
        cones.append((gen.name, forms, int(m), r))
    for i, (name, forms, _, _) in enumerate(cones):
        for other, forms2, _, _ in cones[i + 1:]:
            if _rank_mod_p(forms + forms2, p) < n:
                raise CapabilityError(
                    f"{name} and {other} vanish together at a residue mod {p}"
                )
    if twisted:
        if cones:
            raise CapabilityError(
                f"{model.id}: twisted transforms need a model without"
                f" valuation cones at {p}"
            )
        k = min(vp_fraction(x, p) for x in avals if x)
        exact = total_m.denominator == 1
        P = Fraction(p) if exact else float(p)
        M = int(total_m) if exact else float(total_m)
        if k < 0:
            return Fraction(0) if exact else 0.0
        total = 1 - P ** (k * n - (k + 1) * M)
        for i in range(1, k + 1):
            total += (P ** (i * n) - P ** ((i - 1) * n)) * P ** (-i * M)
        return total
    total_m = int(total_m)
    P = Fraction(p)
    decay = P ** (n - total_m)  # p^{-a}
    if decay >= 1:
        raise ValueError("the local integral diverges at this s")
    outside = p**n - 1 - sum(p ** (n - r) - 1 for _, _, _, r in cones)
    total = 1 + outside * decay / (P**n * (1 - decay))
    for _, _, m, r in cones:
        q = P**r
        A = P ** (n - total_m + m)
        ratio = A / q
        if ratio >= 1:
            raise ValueError("the local integral diverges at this s")
        inner = (1 - 1 / q) * A / ((1 - ratio) * (1 - decay)) + ratio / (1 - ratio)
        total += (p ** (n - r) - 1) * inner / P**n
    return total


def local_density(model: VarietyModel, p: int) -> Fraction:
    """Local density at s = rho, any prime; #X(F_p)/p^n on the catalog."""
    return exact_local_density(model, p, geometry.rho_vector(model))


def good_prime_factor(model: VarietyModel, p: int) -> Fraction:
    """Regularized factor local_density(p) * (1 - 1/p)^rank at a good prime."""
    dens = denef_local_factor(model, p, geometry.rho_vector(model))
    return dens * (1 - Fraction(1, p)) ** model.rank


def regularization_residual(model: VarietyModel, p: int, s) -> Union[Fraction, float]:
    """|Hhat_p(s) * prod_alpha (1 - p^{-(1+s_alpha-rho_alpha)}) - 1|.

    A diagnostic for the convergence rate of the regularized product; decays
    like p^{-2} on the catalog (exactly p^{-3} for P2 at s = rho).
    """
    svec = geometry.coerce_picard(model, s)
    exps = [1 + sv - Fraction(r) for sv, r in zip(svec, model.rho)]
    if any(e <= Fraction(1, 2) for e in exps):
        raise ValueError("need s_alpha > rho_alpha - 1/2 for the residual bound")
    value = denef_local_factor(model, p, s)
    if isinstance(value, Fraction):
        for e in exps:
            value *= 1 - Fraction(1, p ** int(e))
        return abs(value - 1)
    for e in exps:
        value *= 1.0 - float(p) ** (-float(e))
    return abs(value - 1.0)


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list:
    """Product of integer polynomials; fast when b is sparse."""
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a):
                out[i + j] += x * y
    return out


def _series_log(a: Sequence[int], order: int) -> list:
    """Coefficients 1..order of log of a power series with a[0] = 1."""
    out = [Fraction(0)] * (order + 1)
    for m in range(1, order + 1):
        am = a[m] if m < len(a) else 0
        s = sum(
            (j * out[j] * (a[m - j] if m - j < len(a) else 0)
             for j in range(1, m)),
            Fraction(0),
        )
        out[m] = am - s / m
    return out


def regularized_factor_poly(model: VarietyModel) -> list:
    """Integer g(u) with g(1/p) = local_density(p) * (1 - 1/p)^rank at good p."""
    n = model.dim
    total = [0] * (n + 1)
    for poly in model.stratum_polys.values():
        for k, c in enumerate(poly):
            total[k] += c
    g = list(reversed(total))  # * u^n turns p^k into u^{n-k}
    for _ in range(model.rank):
        g = _poly_mul(g, [1, -1])
    return g


@lru_cache(maxsize=None)
def _peel_data(model_id: str):
    """Zeta-peel exponents and the rigorous residual constant for a model.

    Returns (peeled, C_h) with peeled = ((k, e_k), ...) such that
    g(u) = prod (1 - u^k)^{e_k} (1 + h(u)), h(u) = O(u^{PEEL_ORDER+1}), and
    |h(u)| <= C_h * u^{PEEL_ORDER+1} for 0 < u <= 1/5.  Only the log series
    and C_h are rational; the polynomials stay in integers.

    Raises:
        CapabilityError: g is not 1 + O(u^2), a peel exponent is not an
            integer, or the peel leaves terms of order <= PEEL_ORDER.
    """
    model = geometry.load_model(model_id)
    g = regularized_factor_poly(model)
    K = PEEL_ORDER
    c = _series_log(g, K)
    if c[1] != 0:
        raise CapabilityError(f"{model_id}: regularized factor is not 1 + O(u^2)")
    e: dict = {}
    for k in range(2, K + 1):
        tot = c[k]
        for d in range(2, k):
            if k % d == 0 and d in e:
                tot += e[d] * Fraction(d, k)
        ek = -tot
        if ek.denominator != 1:
            raise CapabilityError(f"{model_id}: non-integer peel exponent at k={k}")
        if ek != 0:
            e[k] = int(ek)
    num = list(g)
    den = [1]
    for k, ek in e.items():
        base = [1] + [0] * (k - 1) + [-1]
        for _ in range(abs(ek)):
            if ek > 0:
                den = _poly_mul(den, base)
            else:
                num = _poly_mul(num, base)
    length = max(len(num), len(den))
    num += [0] * (length - len(num))
    den += [0] * (length - len(den))
    resid = [a - b for a, b in zip(num, den)]  # h = resid / den
    if any(resid[: K + 1]):
        raise CapabilityError(f"{model_id}: peel left terms of order <= {K}")
    # sum_{m > K} |resid_m| 5^{-(m - K - 1)} over one common denominator.
    top = length - 1
    c_num = Fraction(
        sum(abs(v) * 5 ** (top - m) for m, v in enumerate(resid) if m > K),
        5 ** max(top - K - 1, 0),
    )
    den_at_u5 = Fraction(1)
    for k, ek in e.items():
        if ek > 0:
            den_at_u5 *= (1 - Fraction(1, 5**k)) ** ek
    return tuple(sorted(e.items())), c_num / den_at_u5


def _euler_tail_bound(model: VarietyModel, p_max: int) -> float:
    """Bound |prod_{p > p_max} (1 + h_p) - 1| via sum |h_p| <= C_h/(5 P^5)."""
    _, c_h = _peel_data(model.id)
    if c_h == 0:
        return 0.0
    K = PEEL_ORDER
    h_sum = float(c_h) * p_max ** (-K) / K
    h_max = float(c_h) * float(p_max + 1) ** (-(K + 1))
    if not h_max < 0.5:
        raise ValueError(f"p_max = {p_max} is too small for the Euler tail bound")
    return math.expm1(h_sum / (1.0 - h_max))


def tamagawa_number(
    model: VarietyModel,
    p_max: int = 10_000,
    small_depth: Optional[int] = None,
) -> EulerProductResult:
    """Regularized Euler product for tau = arch * prod_p density_p (1-1/p)^rank.

    Args:
        model: catalog entry.
        p_max: truncation point, at least 100; factors above it enter only
            through the peeled zeta completion.
        small_depth: accepted for compatibility and ignored; the factors at
            p = 2, 3 are exact (exact_local_density).

    Returns:
        EulerProductResult; the tamagawa field approximates tau with
        |error| <= tail_bound (small_prime_error is always 0.0).
    """
    if p_max < 100:
        raise ValueError("p_max must be at least 100")
    arch = archimedean_density(model)
    rho = geometry.rho_vector(model)
    partial = 1.0
    for p in sorted(model.small_primes):
        reg = (1 - Fraction(1, p)) ** model.rank
        partial *= float(exact_local_density(model, p, rho) * reg)
    g = [float(c) for c in regularized_factor_poly(model)]
    primes = [p for p in primes_upto(p_max) if p >= 5]
    for p in primes:
        u = 1.0 / p
        acc = 0.0
        for c in reversed(g):
            acc = acc * u + c
        partial *= acc
    peeled, _ = _peel_data(model.id)
    completion = 1.0
    with mpmath.workdps(30):
        for k, ek in peeled:
            body = float(mpmath.zeta(k))
            for p in (2, 3, *primes):
                body *= 1.0 - float(p) ** (-k)
            completion *= body ** (-ek)
    tam = arch * partial * completion
    tail = abs(tam) * _euler_tail_bound(model, p_max) + FLOAT_ASSEMBLY_EPS * arch
    return EulerProductResult(
        model_id=model.id,
        p_max=p_max,
        rank=model.rank,
        arch_density=arch,
        partial_product=partial,
        zeta_completion=completion,
        peeled=peeled,
        tamagawa=tam,
        tail_bound=tail,
        small_prime_error=0.0,
    )


def predicted_constant(
    model: VarietyModel,
    p_max: int = 10_000,
    small_depth: Optional[int] = None,
    result: Optional[EulerProductResult] = None,
) -> float:
    """Leading constant c * tau / (rank - 1)! with c = prod_alpha 1/rho_alpha.

    small_depth is accepted for compatibility and ignored; p = 2, 3 are exact.
    """
    if result is None:
        result = tamagawa_number(model, p_max=p_max)
    c = Fraction(1)
    for r in model.rho:
        c /= r
    return result.tamagawa * float(c) / math.factorial(model.rank - 1)
