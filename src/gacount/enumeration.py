"""Exact bounded-height enumeration and asymptotic fits.

count_points(model, lambda, B) returns the exact number of affine rational
points with H(x; lambda) <= B.  Three strategies cover the catalog, each
provably complete on its models:

P^n (Moebius strategy).  H(x) = h^{lambda_1} with h = max(Z, |X_i|) on the
primitive vector, so N(B) = #{primitive (Z, X), Z >= 1, h <= T} with
T = floor(B^{1/lambda_1}).  Counting by the common divisor d gives

    N = sum_{d <= T} mu(d) * (T//d) * (2*(T//d) + 1)^n.

BlP2-1 (fiber strategy).  Group points by the reduced fiber coordinate
y = q/f, f >= 1, gcd(q, f) = 1, and write F = max(|q|, f).  There are 3
fibers with F = 1 and 4*phi(F) with F >= 2.  On a fixed fiber the primitive
vector is (g*f, X, g*q) with g >= 1, gcd(g, X) = 1; the generator heights
are h_F = F and h_H = max(g*F, |X|), so with m_H = lambda_E and
m_F = lambda_D - lambda_E the height bound becomes max(g*F, |X|) <= T_F
where T_F is the largest integer M with M^{m_H} * F^{m_F} <= B (an exact
big-integer comparison).  Writing G_F = T_F // F, the fiber contributes

    sum_{e <= G_F} mu(e) * (G_F//e) * (2*(T_F//e) + 1),

and fibers are exhausted once F^{lambda_D} > B since the minimal height on
the fiber is F^{lambda_D}.

BlP2-2 / BlP2-3 (box strategy).  All primitive vectors with
h_std = max(Z, |X|, |Y|) <= R are scanned and filtered by an exact height
comparison.  Completeness of the box: the component heights multiply to
prod_alpha H_alpha = h_std (the boundary classes sum to the hyperplane
class), so H >= h_std^{lambda_min} * prod_alpha H_alpha^{lambda_alpha -
lambda_min}.  On BlP2-2 every H_alpha >= 1 (the gcds g_1 = gcd(Y, Z) and
g_2 = gcd(X, Z) are coprime, so g_1 g_2 | Z, which gives H_D1 = h_F1 h_F2 /
h_H >= 1), hence h_std <= B^{1/lambda_min}.  On BlP2-3 the components D1 and
E3 can dip as low as 1/2 (tight at (Z, X, Y) = (1, 2, 1)) but their product
H_D1 * H_E3 = h_F1 h_F2 / h_H is still >= 1, which yields the slack bound
h_std^{lambda_min} <= B * 2^{|lambda_D - lambda_E3|}.  The scan is guarded
by a candidate budget since its cost is ~ R^3.

Counts are exact integers, deterministic, and independent of the worker
partitioning: a parallel run splits the outer loop into index ranges and
adds the integer partial sums.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from . import geometry, heights
from ._util import CapabilityError, as_fraction, floor_frac_root, height_leq, mu_sieve, phi_sieve
from .geometry import VarietyModel
from .heights import RationalPoint

DEFAULT_CANDIDATE_BUDGET = 5_000_000


def height_radius(B: Fraction, exponent: Fraction) -> int:
    """Largest integer M >= 0 with M^exponent <= B (exponent > 0)."""
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    p, q = exponent.numerator, exponent.denominator
    return floor_frac_root(B**q, p)


def _ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _box_radius(model: VarietyModel, lam: Sequence[Fraction], B: Fraction) -> int:
    """Sound standard-box radius for the model (see module docstring)."""
    lam_min = min(lam)
    slack = Fraction(0)
    if model.id == "BlP2-3":
        slack = abs(lam[0] - lam[3])
    return height_radius(B * Fraction(2) ** _ceil_fraction(slack), lam_min)


def _generator_heights_raw(model: VarietyModel, coords: Sequence[int]) -> tuple:
    """h_G for a primitive coordinate tuple without building a RationalPoint."""
    out = []
    for gen in model.generators:
        vals = [heights.section_value(s, coords) for s in gen.sections]
        out.append(max(abs(v) for v in vals) // math.gcd(*vals))
    return tuple(out)


def _pn_partial(n: int, T: int, lo: int, hi: int) -> int:
    """Moebius partial sum over d in [lo, hi)."""
    hi = min(hi, T + 1)
    if lo >= hi:
        return 0
    mu = mu_sieve(hi - 1)
    total = 0
    for d in range(lo, hi):
        if mu[d]:
            t = T // d
            total += mu[d] * t * (2 * t + 1) ** n
    return total


def _blp21_fiber_bound(lam: Sequence[Fraction], B: Fraction, F: int) -> int:
    """T_F = largest M with M^{m_H} F^{m_F} <= B for BlP2-1."""
    m_h = lam[1]
    m_f = lam[0] - lam[1]
    rhs = B * Fraction(F) ** (-m_f) if m_f.denominator == 1 else None
    if rhs is None:
        # Clear the fractional exponent: M^{m_h*d} <= B^d * F^{-m_f*d}.
        d = m_f.denominator
        return height_radius(B**d * Fraction(F) ** (-(m_f * d)), m_h * d)
    if rhs < 1:
        return 0
    return height_radius(rhs, m_h)


def _blp21_partial(lam: Sequence[Fraction], B: Fraction, lo: int, hi: int) -> int:
    """Fiber partial sum over F in [lo, hi)."""
    f_max = height_radius(B, lam[0])
    hi = min(hi, f_max + 1)
    if lo >= hi:
        return 0
    phi = phi_sieve(hi - 1)
    rows = []
    g_max = 0
    for F in range(lo, hi):
        t = _blp21_fiber_bound(lam, B, F)
        g = t // F
        rows.append((F, t, g))
        g_max = max(g_max, g)
    mu = mu_sieve(g_max)
    total = 0
    for F, t, g in rows:
        if g == 0:
            continue
        inner = 0
        for e in range(1, g + 1):
            if mu[e]:
                inner += mu[e] * (g // e) * (2 * (t // e) + 1)
        total += (3 if F == 1 else 4 * phi[F]) * inner
    return total


def _box_partial(
    model_id: str, lam: Sequence[Fraction], B: Fraction, lo: int, hi: int
) -> int:
    """Box-scan partial count over Z in [lo, hi)."""
    model = geometry.load_model(model_id)
    m = geometry.generator_exponents(model, lam)
    R = _box_radius(model, lam, B)
    hi = min(hi, R + 1)
    total = 0
    for z in range(lo, hi):
        for x in range(-R, R + 1):
            gzx = math.gcd(z, x)
            for y in range(-R, R + 1):
                if math.gcd(gzx, y) != 1:
                    continue
                hs = _generator_heights_raw(model, (z, x, y))
                if height_leq(hs, m, B):
                    total += 1
    return total


def _partial_count(args) -> int:
    """Top-level dispatch for worker processes (must stay picklable)."""
    strategy, model_id, lam, B, lo, hi = args
    if strategy == "pn":
        model = geometry.load_model(model_id)
        T = height_radius(B, lam[0])
        return _pn_partial(model.dim, T, lo, hi)
    if strategy == "fiber":
        return _blp21_partial(lam, B, lo, hi)
    return _box_partial(model_id, lam, B, lo, hi)


def _outer_range(model: VarietyModel, lam, B: Fraction) -> tuple:
    """(strategy, outer loop end) for the model's counting strategy."""
    if not model.centers:
        return "pn", height_radius(B, lam[0])
    if model.id == "BlP2-1":
        return "fiber", height_radius(B, lam[0])
    return "box", _box_radius(model, lam, B)


def count_points(
    model: VarietyModel,
    lam,
    B,
    workers: int = 1,
    candidate_budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> int:
    """Exact number of affine rational points with H(x; lambda) <= B.

    Args:
        model: catalog entry.
        lam: interior Picard vector (all coordinates positive rationals).
        B: height bound; values below 1 return 0 by convention.
        workers: number of processes; the result is identical for any value.
        candidate_budget: cap on box-scan candidates (BlP2-2/3 only).

    Returns:
        The exact count as a Python int.

    Raises:
        CapabilityError: if a box scan would exceed candidate_budget.
    """
    vals = geometry.require_interior(model, lam)
    B = as_fraction(B)
    if B < 1:
        return 0
    strategy, end = _outer_range(model, vals, B)
    if strategy == "box":
        n_candidates = end * (2 * end + 1) ** model.dim
        if n_candidates > candidate_budget:
            raise CapabilityError(
                f"box scan for {model.id} at B={B} needs {n_candidates} candidates"
                f" (budget {candidate_budget}); raise the budget or lower B"
            )
    if end < 1:
        return 0
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n_chunks = min(end, max(1, 4 * workers)) if workers > 1 else 1
    step = -(-end // n_chunks)
    tasks = [
        (strategy, model.id, tuple(vals), B, lo, min(lo + step, end + 1))
        for lo in range(1, end + 1, step)
    ]
    if workers == 1 or len(tasks) == 1:
        return sum(_partial_count(t) for t in tasks)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(_partial_count, tasks))


def enumerate_points(
    model: VarietyModel,
    lam,
    B,
    candidate_budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> Iterator[RationalPoint]:
    """Yield every point with H <= B by scanning the sound standard box.

    Intended for small bounds (tests, plots, oracles); the scan cost grows
    like the cube of the box radius regardless of model.
    """
    vals = geometry.require_interior(model, lam)
    B = as_fraction(B)
    if B < 1:
        return
    m = geometry.generator_exponents(model, vals)
    lam_min = min(vals)
    slack = abs(vals[0] - vals[3]) if model.id == "BlP2-3" else Fraction(0)
    R = height_radius(B * Fraction(2) ** _ceil_fraction(slack), lam_min)
    n = model.dim
    n_candidates = R * (2 * R + 1) ** n
    if n_candidates > candidate_budget:
        raise CapabilityError(
            f"enumeration box for {model.id} at B={B} needs {n_candidates}"
            f" candidates (budget {candidate_budget})"
        )

    def rec(prefix):
        if len(prefix) == n + 1:
            if math.gcd(*prefix) == 1:
                hs = _generator_heights_raw(model, prefix)
                if height_leq(hs, m, B):
                    yield RationalPoint(tuple(prefix))
            return
        for v in range(-R, R + 1):
            yield from rec(prefix + [v])

    for z in range(1, R + 1):
        yield from rec([z])


@dataclass(frozen=True)
class CountLadder:
    """Counts along an ascending ladder of height bounds."""

    model_id: str
    lam: tuple
    rows: tuple  # of (B, N) with B ascending
    elapsed_ms: tuple = ()
    fits: Optional[dict] = None

    def bounds(self) -> tuple:
        return tuple(b for b, _ in self.rows)

    def counts(self) -> tuple:
        return tuple(n for _, n in self.rows)


def count_ladder(model: VarietyModel, lam, B_list, workers: int = 1) -> CountLadder:
    """Run count_points over an ascending ladder of bounds.

    The Moebius and fiber strategies rebuild their small sieves per rung (the
    sieve range is the nesting work that can be shared; rebuilding keeps the
    partials picklable and costs a negligible fraction of the scan).
    """
    vals = geometry.require_interior(model, lam)
    Bs = [as_fraction(b) for b in B_list]
    if any(b2 <= b1 for b1, b2 in zip(Bs, Bs[1:])):
        raise ValueError("ladder bounds must be strictly ascending")
    rows = []
    elapsed = []
    for b in Bs:
        t0 = time.perf_counter()
        n = count_points(model, vals, b, workers=workers)
        elapsed.append(1000.0 * (time.perf_counter() - t0))
        rows.append((b, n))
    for (_, n1), (_, n2) in zip(rows, rows[1:]):
        if n2 < n1:
            raise CapabilityError("counts must be nondecreasing in B")
    return CountLadder(model.id, tuple(vals), tuple(rows), tuple(elapsed))


def fit_leading(ladder: CountLadder, a, b: int):
    """Least-squares polynomial Q of degree b-1 with N(B) ~ B^a Q(log B).

    Args:
        ladder: counts with at least b+2 rungs.
        a: growth exponent (rational or float).
        b: expected log power; Q has degree b-1.

    Returns:
        (coeffs, residual_norm): Q's coefficients in ascending degree order
        and the Euclidean norm of the residual.  coeffs[-1] estimates the
        leading constant c * tau / (b-1)!.
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    if len(ladder.rows) < b + 2:
        raise ValueError(f"need at least {b + 2} rungs for a degree-{b - 1} fit")
    logb = np.array([math.log(float(B)) for B, _ in ladder.rows])
    y = np.array([n / float(B) ** float(a) for B, n in ladder.rows])
    V = np.vander(logb, b, increasing=True)
    coeffs, *_ = np.linalg.lstsq(V, y, rcond=None)
    resid = float(np.linalg.norm(V @ coeffs - y))
    return tuple(float(c) for c in coeffs), resid


def estimate_exponents(ladder: CountLadder) -> tuple:
    """Regression estimate (a_hat, b_hat) from log N ~ a log B + (b-1) loglog B.

    Requires a ladder spanning at least 3 decades with B > 1 and N >= 1 on
    every rung.
    """
    if len(ladder.rows) < 3:
        raise ValueError("need at least 3 rungs")
    Bs = [float(B) for B, _ in ladder.rows]
    if max(Bs) < 1000.0 * min(Bs):
        raise ValueError("ladder must span at least 3 decades")
    if min(Bs) <= 1.0 or any(n < 1 for _, n in ladder.rows):
        raise ValueError("need B > 1 and N >= 1 on every rung")
    X = np.array([[1.0, math.log(B), math.log(math.log(B))] for B in Bs])
    y = np.array([math.log(n) for _, n in ladder.rows])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    return float(coef[1]), 1.0 + float(coef[2])
