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

the case beta = (1, ..., 1) of regularized_factor_poly's g_beta (which
fourier.global_fourier reads at the trivial character).  This module
peels g into zeta factors: exponents e_k are chosen so that
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
independent oracle the tests hold it against.  At a twisted character on
P^n it is Tate's finite shell sum, _tate_factor, which fourier reads too.

Per-prime factors are independent pure computations; this module evaluates
them serially in ascending order so reported floats are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from . import geometry
from ._util import CapabilityError, is_prime, primes_upto, refuse_past, vp_fraction, zeta
from .geometry import VarietyModel

PEEL_ORDER = 5
# Flat allowance (relative to the archimedean density) for assembling the
# product in floats; the true roundoff is ~1e-13 relative for any P_max.
FLOAT_ASSEMBLY_EPS = 1e-12
# The prime sieve and lists of tamagawa_number trace 59 MB at p_max = 10^7
# (Python 3.11) and grow linearly: the limit keeps a call near 0.6 GB.
P_MAX_LIMIT = 10**8


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
    if model.kind == "pn":
        n = model.dim
        return float(2**n * (n + 1))
    r = len(model.centers)
    if r == 1:
        return 16.0
    if r == 2:
        return 20.0
    return math.pi**2 + 24.0 * math.log(2.0) - 3.0


def denef_local_factor(model: VarietyModel, p: int, s) -> Union[Fraction, float]:
    """Closed-form local factor of the height transform at a good prime:
    Denef's stratum sum of the module docstring.

    Args:
        model: catalog entry.
        p: prime outside {2, 3}.
        s: Picard vector with s_alpha > rho_alpha - 1 for every alpha.

    Returns:
        The stratum sum as an exact Fraction when every exponent
        1 + s_alpha - rho_alpha is an integer, else a float.
    """
    _, exps = geometry.convergence_beta(model, s)
    exact = all(e.denominator == 1 for e in exps)
    exps = [int(e) if exact else float(e) for e in exps]
    total = Fraction(0) if exact else 0.0
    for subset in model.stratum_polys:
        count = geometry.stratum_count(model, subset, p)  # validates p
        term = Fraction(count) if exact else float(count)
        for name, e in zip(model.components, exps):
            if name in subset:
                term *= _pole_factor(p, e)
        total += term
    if exact:
        return total / Fraction(p) ** model.dim
    return total / float(p) ** model.dim


def _pole_factor(p: int, e: Union[int, float]) -> Union[Fraction, float]:
    """(p - 1) / (p^e - 1), the stratum factor of a component with exponent
    e = 1 + s_alpha - rho_alpha > 0: a Fraction for an int e, else a float."""
    if isinstance(e, int):
        return Fraction(p - 1, p**e - 1)
    return (p - 1) / (float(p) ** e - 1.0)


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


@lru_cache(maxsize=1024)
def _system_data(model: VarietyModel, p: int) -> tuple:
    """The checks of exact_local_density that depend on (model, p) alone.

    Returns (linear, cone_ranks): the indices of the generator systems with
    linear forms, and (index, r_G) for those among them whose forms have
    rank r_G < n mod p (V_G != 0).  Raises CapabilityError when a system
    has no p-unit constant section, when a cone's forms are dependent mod
    p, or when two cones vanish together at a residue; the cache keeps no
    exception, so every call raises again.
    """
    n = model.dim
    linear = []
    cones = []  # (index, name, linear forms, r_G) for systems with V_G != 0
    for i, gen in enumerate(model.generators):
        if not any(sec[0] % p and not any(sec[1:]) for sec in gen.sections):
            raise CapabilityError(f"{gen.name} has no p-unit constant section at {p}")
        forms = [sec[1:] for sec in gen.sections if any(sec[1:])]
        if not forms:
            continue  # the maximum is identically 1
        linear.append(i)
        r = _rank_mod_p(forms, p)
        if r == n:
            continue
        if r < len(forms):
            raise CapabilityError(f"{gen.name}: sections dependent mod {p}")
        cones.append((i, gen.name, forms, r))
    for j, (_, name, forms, _) in enumerate(cones):
        for _, other, forms2, _ in cones[j + 1:]:
            if _rank_mod_p(forms + forms2, p) < n:
                raise CapabilityError(
                    f"{name} and {other} vanish together at a residue mod {p}"
                )
    return tuple(linear), tuple((i, r) for i, _, _, r in cones)


def _tate_shell_sum(p: int, k: int, n: int, M: Fraction) -> tuple:
    """Tate's shell sum of exact_local_density (k = min_i v_p(a_i), M the
    total exponent) as (num, den): at integer M integers, den = p^{(k+1)
    max(M, 0)}, so num / den is the float of the Fraction; else (sum, 1)."""
    exact = M.denominator == 1
    P, M = (p, int(M)) if exact else (float(p), float(M))
    if k < 0:
        return (0 if exact else 0.0), 1
    e = (k + 1) * max(M, 0) if exact else 0
    total = P**e - P ** (k * n - (k + 1) * M + e)
    for i in range(1, k + 1):
        total += (P ** (i * n) - P ** ((i - 1) * n)) * P ** (e - i * M)
    return total, p**e


def _tate_factor(model: VarietyModel, p: int, k: int, M: Fraction) -> tuple:
    """_tate_shell_sum(p, k, model.dim, M) after the check it needs: a model
    without valuation cones at p (exact_local_density), else CapabilityError."""
    if _system_data(model, p)[1]:
        raise CapabilityError(f"{model.id}: twisted transforms need a model without"
                              f" valuation cones at {p}")
    return _tate_shell_sum(p, k, model.dim, M)


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
    The sum is finite (_tate_shell_sum), so it is a Fraction for integer M
    and a float sum otherwise.  Nor does the trivial character's derivation
    use integrality: when some m_G is not an integer the same geometric
    series are summed in floats.  On a model with cones the integrand is not
    constant on the shells and a twisted a raises CapabilityError
    (_tate_factor, which fourier's P^n kernel reads too).

    Args:
        model: a VarietyModel (catalog or not).
        p: any prime, 2 and 3 included.
        s: Picard vector whose exponents 1 + s_alpha - rho_alpha are
            positive.
        a: character index (geometry.character_index).

    Returns:
        A Fraction when every exponent the sum reads (M, or m_G) is an
        integer, else a float.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    svec, _ = geometry.convergence_beta(model, s)
    n = model.dim
    a = () if a is None else geometry.character_index(model, a)
    exps_g = geometry.generator_exponents(model, svec)
    linear, cone_ranks = _system_data(model, p)
    total_m = sum((exps_g[i] for i in linear), Fraction(0))
    if any(a):
        k = min(vp_fraction(x, p) for x in a if x)
        num, den = _tate_factor(model, p, k, total_m)
        return Fraction(num, den) if total_m.denominator == 1 else num
    exact = all(exps_g[i].denominator == 1 for i in linear)
    cast = int if exact else float
    P = Fraction(p) if exact else float(p)
    total_m = cast(total_m)
    decay = P ** (n - total_m)  # p^{-a}
    if decay >= 1:
        raise ValueError("the local integral diverges at this s")
    outside = p**n - 1 - sum(p ** (n - r) - 1 for _, r in cone_ranks)
    total = 1 + outside * decay / (P**n * (1 - decay))
    for i, r in cone_ranks:
        m = cast(exps_g[i])
        q = P**r
        A = P ** (n - total_m + m)
        ratio = A / q
        if ratio >= 1:
            raise ValueError("the local integral diverges at this s")
        inner = (1 - 1 / q) * A / ((1 - ratio) * (1 - decay)) + ratio / (1 - ratio)
        total += (p ** (n - r) - 1) * inner / P**n
    return total


def _mul_binomial(a: Sequence[int], k: int, m: int) -> list:
    """a(u) * (1 - u^k)^m for an integer polynomial a and m >= 0, in one pass
    over the m + 1 binomial terms c_j u^{jk}: c_0 = 1 and c_{j+1} =
    -c_j (m - j)/(j + 1) = (-1)^{j+1} C(m, j+1), an exact integer division.
    The loop over the sparse factor's terms is the outer one, so each term
    adds c_j a into one slice of the output."""
    width = len(a)
    out = [0] * (width + k * m)
    c = 1
    for j in range(m + 1):
        lo = j * k
        out[lo:lo + width] = [y + c * x for y, x in zip(out[lo:lo + width], a)]
        c = -c * (m - j) // (j + 1)
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


def regularized_factor_poly(model: VarietyModel, beta: Sequence[int]) -> list:
    """Integer g_beta(u) with g_beta(1/p) = Hhat_p(s) * prod_alpha (1 - p^{-beta_alpha})
    at every good prime p, for integer exponents beta_alpha = 1 + s_alpha -
    rho_alpha >= 1 in component order; at beta = (1, ..., 1) it is
    (#X(F_p)/p^n) * (1 - 1/p)^rank.

    With u = 1/p, the stratum term #D_S^o(F_p) p^{-n} of denef_local_factor
    is rev(poly_S)(u) (the point count as a polynomial in p, times u^n), and
    (p - 1)/(p^b - 1) * (1 - p^{-b}) = u^{b-1} (1 - u), so

        g_beta(u) = sum_S rev(poly_S)(u) prod_{alpha in S} u^{beta_alpha - 1} (1 - u)
                                         prod_{alpha not in S} (1 - u^{beta_alpha}),

    each binomial one _mul_binomial pass.  Every term has degree
    n + sum beta, so the terms add coefficient by coefficient.
    """
    n = model.dim
    terms = []
    for subset, poly in model.stratum_polys.items():
        inside = [b for name, b in zip(model.components, beta) if name in subset]
        rev = [0] * (n + 1 - len(poly)) + list(reversed(poly))
        term = _mul_binomial([0] * (sum(inside) - len(inside)) + rev, 1, len(inside))
        for name, b in zip(model.components, beta):
            if name not in subset:
                term = _mul_binomial(term, b, 1)
        terms.append(term)
    return [sum(c) for c in zip(*terms)]


def _good_prime_product(g: Sequence[int], primes: Sequence[int], start):
    """start * prod_p g(1/p) over the primes in the order given, from one
    NumPy float64 Horner pass over all of them: u = 1.0 / p, then a multiply
    and an add ufunc per coefficient, the same IEEE operations (no fused
    multiply-add) as a scalar loop per prime.  math.prod multiplies the
    values into start left to right, as that loop would, so the result is
    the float (or complex) of the per-prime loop."""
    u = 1.0 / np.array(primes, dtype=np.float64)
    acc = np.zeros_like(u)
    for c in reversed([float(c) for c in g]):
        acc = acc * u + c
    return math.prod(acc.tolist(), start=start)


def _peel_data(model: VarietyModel):
    """Zeta-peel exponents and the rigorous residual constant for a model.

    Returns (peeled, C_h) with peeled = ((k, e_k), ...) such that
    g(u) = prod (1 - u^k)^{e_k} (1 + h(u)), h(u) = O(u^{PEEL_ORDER+1}), and
    |h(u)| <= C_h * u^{PEEL_ORDER+1} for 0 < u <= 1/5.  Only the log series
    and C_h are rational; the polynomials stay in integers.

    h = resid / den with num = g prod_{e_k < 0} (1 - u^k)^{-e_k}, den =
    prod_{e_k > 0} (1 - u^k)^{e_k} and resid = num - den.  Each power
    (1 - u^k)^{|e_k|} enters num or den as one binomial pass
    (_mul_binomial; BlP2-3's four powers hold 214 factors 1 - u^k).
    Integer products are exact in any order, so the polynomials, and with
    them C_h, do not depend on how they are formed.
    With top = deg resid, |resid(u)| <= u^{K+1} sum_{m>K} |resid_m|
    5^{-(m-K-1)} for u <= 1/5, and the sum is the integer
    sum_{m>K} |resid_m| 5^{top-m} (one Horner pass in 5) over 5^{top-K-1};
    1/den(u) <= 1/den(1/5) there, since every factor 1 - u^k of den
    decreases in u.

    Nothing is cached: tamagawa_number computes the peel once per call and
    passes C_h on to _euler_tail_bound.

    Raises:
        CapabilityError: g is not 1 + O(u^2), a peel exponent is not an
            integer, or the peel leaves terms of order <= PEEL_ORDER.
    """
    g = regularized_factor_poly(model, (1,) * model.rank)
    K = PEEL_ORDER
    c = _series_log(g, K)
    if c[1] != 0:
        raise CapabilityError(f"{model.id}: regularized factor is not 1 + O(u^2)")
    e: dict = {}
    for k in range(2, K + 1):
        tot = c[k]
        for d in range(2, k):
            if k % d == 0 and d in e:
                tot += e[d] * Fraction(d, k)
        ek = -tot
        if ek.denominator != 1:
            raise CapabilityError(f"{model.id}: non-integer peel exponent at k={k}")
        if ek != 0:
            e[k] = int(ek)
    num = list(g)
    den = [1]
    for k, ek in e.items():
        if ek > 0:
            den = _mul_binomial(den, k, ek)
        else:
            num = _mul_binomial(num, k, -ek)
    length = max(len(num), len(den))
    num += [0] * (length - len(num))
    den += [0] * (length - len(den))
    resid = [a - b for a, b in zip(num, den)]  # h = resid / den
    if any(resid[: K + 1]):
        raise CapabilityError(f"{model.id}: peel left terms of order <= {K}")
    top = length - 1
    horner = 0
    for v in resid[K + 1:]:
        horner = horner * 5 + abs(v)
    c_num = Fraction(horner, 5 ** max(top - K - 1, 0))
    den_at_u5 = Fraction(1)
    for k, ek in e.items():
        if ek > 0:
            den_at_u5 *= (1 - Fraction(1, 5**k)) ** ek
    return tuple(sorted(e.items())), c_num / den_at_u5


def good_primes(p_max: int) -> list:
    """The primes 5 <= p <= p_max, ascending: the one prime sieve of the Euler
    products, which refuses p_max past P_MAX_LIMIT (memory) before it runs."""
    refuse_past("p_max", p_max, P_MAX_LIMIT, "memory")
    return [p for p in primes_upto(p_max) if p >= 5]


def _euler_tail_bound(c_h: Fraction, p_max: int) -> float:
    """Bound |prod_{p > p_max} (1 + h_p) - 1| via sum |h_p| <= C_h/(5 P^5),
    for C_h the residual constant of _peel_data."""
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

    The zeta completion prod_k (zeta(k) prod_{p <= p_max} (1 - p^-k))^(-e_k)
    takes each zeta(k) as the correctly rounded float that _util.zeta
    proves, so its error is float assembly like the rest of the product,
    which FLOAT_ASSEMBLY_EPS covers.

    The good-prime factors g(1/p), 5 <= p <= p_max, come from one NumPy
    float64 Horner pass over all primes in ascending order
    (_good_prime_product, which global_fourier shares), with the floats of
    a scalar loop per prime.  Each completion body is a math.prod over
    Python's float pow, which NumPy's power need not match to the last bit.  So every field is the
    float the per-prime loops give.  The peel (_peel_data) is computed once
    per call and not cached; its C_h feeds the tail bound.

    Args:
        model: catalog entry.
        p_max: truncation point, from 100 to P_MAX_LIMIT; factors above it
            enter only through the peeled zeta completion.
        small_depth: accepted for compatibility and ignored; the factors at
            p = 2, 3 are exact (exact_local_density).

    Returns:
        EulerProductResult; the tamagawa field approximates tau with
        |error| <= tail_bound (small_prime_error is always 0.0).

    Raises:
        CapabilityError: if p_max passes P_MAX_LIMIT (memory), before the sieve.
    """
    if p_max < 100:
        raise ValueError("p_max must be at least 100")
    primes = good_primes(p_max)
    arch = archimedean_density(model)
    partial = 1.0
    for p in sorted(geometry.SMALL_PRIMES):
        reg = (1 - Fraction(1, p)) ** model.rank
        partial *= float(exact_local_density(model, p, model.rho) * reg)
    partial = _good_prime_product(regularized_factor_poly(model, (1,) * model.rank),
                                  primes, partial)
    peeled, c_h = _peel_data(model)
    completion = 1.0
    for k, ek in peeled:
        body = math.prod([1.0 - float(p) ** (-k) for p in (2, 3, *primes)],
                         start=zeta(k))
        completion *= body ** (-ek)
    tam = arch * partial * completion
    tail = abs(tam) * _euler_tail_bound(c_h, p_max) + FLOAT_ASSEMBLY_EPS * arch
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
    result: Optional[EulerProductResult] = None,
    *,
    lam=None,
) -> float:
    """Leading constant c_lambda of N_lambda(B) ~ c_lambda B^a (log B)^(b-1).

    c_rho = c tau / (rank - 1)! with c = prod_alpha 1/rho_alpha.  At
    lambda = t rho, H_lambda = H_rho^t, so N_lambda(B) = N_rho(B^(1/t))
    ~ c_rho B^(1/t) (log B^(1/t))^(b-1) with b = rank, and c_lambda =
    c_rho t^(-(b-1)).  Any other lambda raises CapabilityError.
    """
    vals = geometry.require_interior(model, model.rho if lam is None else lam)
    t = vals[0] / model.rho[0]
    if vals != tuple(t * r for r in model.rho):
        raise CapabilityError(f"{model.id}: predicted constant only at multiples of rho")
    if result is None:
        result = tamagawa_number(model, p_max=p_max)
    c = geometry.c_coeff(model, model.rho)
    return (result.tamagawa * float(c) / math.factorial(model.rank - 1)
            * float(t ** (1 - model.rank)))
