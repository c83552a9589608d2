"""Exact bounded-height enumeration and asymptotic fits.

count_points(model, lambda, B) returns the exact number of affine rational
points with H(x; lambda) <= B.  Three strategies cover the catalog, each
provably complete on its models.  The strategy is read off the catalog data,
never off the model's name: a model without blow-up centers takes the
Moebius strategy, the single center (1, 0) the fiber strategy, and any other
set of centers the box scan (_outer_range).

P^n (Moebius strategy).  H(x) = h^{lambda_1} with h = max(Z, |X_i|) on the
primitive vector, so N(B) = #{primitive (Z, X), Z >= 1, h <= T} with
T = floor(B^{1/lambda_1}).  Counting by the common divisor d gives

    N = sum_{d <= T} mu(d) * (T//d) * (2*(T//d) + 1)^n.

The d with T//d = q form the block T//(q+1) < d <= T//q, whose mu-sum is
M(T//q) - M(T//(q+1)) for the Mertens function M, so with q over the at most
2 sqrt(T) distinct values of T//d

    N = sum_q q * (2q + 1)^n * (M(T//q) - M(T//(q+1))),

and _util.mertens_quotients gives every M(T//k) in O(T^{2/3}) time.

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
h_std^{lambda_min} <= B * 2^{|lambda_D - lambda_E3|}.  The catalog records
that pair of components as VarietyModel.box_slack.  The scan is guarded by a
candidate budget since its cost is ~ R^3.

The box kernel.  _box_kernel decides a whole Z-slice of the box at once in
NumPy int64: the primitivity mask gcd(Z, X) = 1 (the gcd of the X grid is
taken once), every section value l as an integer linear form (its X-part is
taken once per grid), and h_G = max|l| // gcd(l).  A float filter then
compares L = sum_G m_G log h_G with log B.  Let u = 2^-53 and assume np.log
and math.log are within 4 ulp (ulp(y) <= 2u|y|).  Rounding h_G to float
moves log h_G by at most 1.01u; the log adds 8u log h_G, rounding m_G and the
product 2u |m_G log h_G| and the sum over k <= 4 systems k u sum|m_G log h_G|.
With h_G <= Hmax_G = max_l sum|coefficients of l| * max(R, Z), at most
15u sum_G |m_G| (1 + log Hmax_G).  log B = log(num) - log(den) is off by at
most 20u (1 + log num + log den).  The kernel takes the margin

    delta = 2^-40 (1 + log num + log den + sum_G |m_G| (1 + log Hmax_G)),

more than 200 times the sum of the two errors: a candidate with
L < log B - delta has H < B, one with L > log B + delta has H > B, and every
candidate in between, every tie H = B among them, is decided exactly by
_util.height_leq.  The kernel raises CapabilityError if some Hmax_G, which
bounds every section value, leaves int64.  count_points' box strategy counts
the kernel's points, and zeta_truncated sums over them with the heights the
kernel already has.

enumerate_points is the oracle: it yields the points of the loop _box_scan,
which decides each primitive candidate by height_leq alone and shares no code
with the kernel but the generator heights.  On P^n and BlP2-1 every
H_alpha >= 1 as well, so the same box with radius B^{1/lambda_min} is sound
there, and the tests hold the Moebius and fiber strategies against it.

Counts are exact integers, deterministic, and independent of the worker
partitioning: a parallel run splits the outer loop of the fiber and box
strategies into index ranges and adds the integer partial sums; the Moebius
strategy takes milliseconds and always runs as one task.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import geometry, heights
from ._util import (CapabilityError, as_fraction, floor_frac_root, height_leq, mertens_quotients,
                    mu_sieve, phi_sieve)
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
    slack = Fraction(0)
    if model.box_slack:
        i, j = model.box_slack
        slack = abs(lam[i] - lam[j])
    return height_radius(B * Fraction(2) ** _ceil_fraction(slack), min(lam))


def _check_box_budget(model: VarietyModel, B: Fraction, R: int, budget: int) -> None:
    n_candidates = R * (2 * R + 1) ** model.dim
    if n_candidates > budget:
        raise CapabilityError(
            f"box scan for {model.id} at B={B} needs {n_candidates} candidates"
            f" (budget {budget}); raise the budget or lower B"
        )


def _box_scan(
    model: VarietyModel, lam: Sequence[Fraction], B: Fraction, R: int, lo: int, hi: int
) -> Iterator[tuple]:
    """Primitive (Z, X1, ..., Xn) with H <= B, |X_i| <= R and lo <= Z < hi,
    Z ascending, then the X_i lexicographically: one exact height_leq per
    primitive candidate.  The oracle of _box_kernel."""
    m = geometry.generator_exponents(model, lam)
    side = range(-R, R + 1)
    for z in range(lo, hi):
        for xs in product(side, repeat=model.dim):
            coords = (z,) + xs
            if math.gcd(*coords) == 1 and height_leq(
                heights.generator_heights(model, coords), m, B
            ):
                yield coords


# Scale of the band around log B inside which _box_kernel decides candidates
# exactly (module docstring, "The box kernel").
_LOG_MARGIN = 2.0**-40


def _box_kernel(
    model: VarietyModel, lam: Sequence[Fraction], B: Fraction, R: int, lo: int, hi: int
) -> Iterator[tuple]:
    """The points of _box_scan, one Z-slice at a time.

    Yields (z, xs, hs) for z = lo, ..., hi - 1: xs is the int64 array (k, n)
    of the X_i of the slice's k points with H <= B, in lexicographic order,
    and hs the int64 array (k, number of generator systems) of their
    generator heights h_G.  The (2R+1)^n grid of the X_i, its gcd and the
    X-part of every section are built once; each slice then holds a fixed
    number of arrays of (2R+1)^n int64 or float64 values (8 (2R+1)^n bytes
    each), never the whole box.

    Raises:
        CapabilityError: if a section value could leave int64 (Hmax_G in the
            module docstring).
    """
    m = geometry.generator_exponents(model, lam)
    m_float = np.array([float(e) for e in m])
    # Hmax_G bounds every section value of system G on the slices scanned.
    h_max = [max(sum(map(abs, sec)) for sec in gen.sections) * max(R, hi - 1)
             for gen in model.generators]
    if max(h_max) > np.iinfo(np.int64).max:
        raise CapabilityError(
            f"box kernel for {model.id}: section values up to {max(h_max)} leave int64"
        )
    log_num, log_den = math.log(B.numerator), math.log(B.denominator)
    log_b = log_num - log_den
    margin = _LOG_MARGIN * (
        1.0 + log_num + log_den
        + sum(abs(e) * (1.0 + math.log(h)) for e, h in zip(m_float, h_max))
    )
    side = 2 * R + 1
    grid = np.indices((side,) * model.dim, dtype=np.int64).reshape(model.dim, -1).T - R
    grid_gcd = np.gcd.reduce(grid, axis=1)
    # Per system: the Z coefficients of its sections as a column and their
    # X-parts over the grid as rows.
    linear = [
        (np.array([[sec[0]] for sec in gen.sections], dtype=np.int64),
         np.array([sec[1:] for sec in gen.sections], dtype=np.int64) @ grid.T)
        for gen in model.generators
    ]
    for z in range(lo, hi):
        hs = np.empty((len(grid), len(linear)), dtype=np.int64)
        for j, (coef_z, parts) in enumerate(linear):
            vals = np.abs(parts + coef_z * z)
            hs[:, j] = vals.max(axis=0) // np.gcd.reduce(vals, axis=0)
        log_h = np.log(hs) @ m_float
        primitive = np.gcd(grid_gcd, z) == 1
        keep = primitive & (log_h < log_b - margin)
        for i in np.flatnonzero(primitive & (np.abs(log_h - log_b) <= margin)):
            keep[i] = height_leq(hs[i].tolist(), m, B)
        yield z, grid[keep], hs[keep]


def _pn_count(n: int, T: int) -> int:
    """The Moebius sum on P^n over the quotient blocks (module docstring)."""
    M = mertens_quotients(T)
    return sum(q * (2 * q + 1) ** n * (M[T // q] - M[T // (q + 1)]) for q in M if q)


def _blp21_fiber_bound(lam: Sequence[Fraction], B: Fraction, F: int) -> int:
    """T_F = largest M with M^{m_H} F^{m_F} <= B for BlP2-1."""
    m_h = lam[1]
    m_f = lam[0] - lam[1]
    if m_h.denominator == m_f.denominator == 1:
        # Integer exponents: M^{m_H} <= floor(B F^{-m_F}), all in integers.
        e, k = int(m_h), int(m_f)
        top = B.numerator * F ** max(-k, 0) // (B.denominator * F ** max(k, 0))
        return math.isqrt(top) if e == 2 else floor_frac_root(top, e)
    if m_f.denominator == 1:
        return height_radius(B * Fraction(F) ** (-m_f), m_h)
    # Clear the fractional exponent: M^{m_h*d} <= B^d * F^{-m_f*d}.
    d = m_f.denominator
    return height_radius(B**d * Fraction(F) ** (-(m_f * d)), m_h * d)


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


def _partial_count(task) -> int:
    """Top-level dispatch for worker processes (must stay picklable)."""
    strategy, model, lam, B, end, lo, hi = task
    if strategy == "fiber":
        return _blp21_partial(lam, B, lo, hi)
    return sum(len(xs) for _, xs, _ in _box_kernel(model, lam, B, end, lo, hi))


def _outer_range(model: VarietyModel, lam, B: Fraction) -> tuple:
    """(strategy, outer loop end) for the model's counting strategy, read off
    its blow-up centers: none is P^n, the single center (1, 0) is the fiber
    strategy, anything else the box scan."""
    if not model.centers:
        return "pn", height_radius(B, lam[0])
    if model.centers == ((1, 0),):
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
            The Moebius strategy (P^n) ignores it and never starts a pool.
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
        _check_box_budget(model, B, end, candidate_budget)
    if end < 1:
        return 0
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if strategy == "pn":
        return _pn_count(model.dim, end)
    n_chunks = min(end, max(1, 4 * workers)) if workers > 1 else 1
    step = -(-end // n_chunks)
    tasks = [
        (strategy, model, tuple(vals), B, end, lo, min(lo + step, end + 1))
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
    """Yield every point with H <= B by scanning the sound standard box, in
    lexicographic (Z, X1, ..., Xn) order.

    Intended for small bounds (tests, plots, oracles); the scan cost grows
    like the cube of the box radius regardless of model.
    """
    vals = geometry.require_interior(model, lam)
    B = as_fraction(B)
    if B < 1:
        return
    R = _box_radius(model, vals, B)
    _check_box_budget(model, B, R, candidate_budget)
    for coords in _box_scan(model, vals, B, R, 1, R + 1):
        yield RationalPoint(coords)


@dataclass(frozen=True)
class CountLadder:
    """Counts along an ascending ladder of height bounds."""

    model: VarietyModel
    lam: tuple
    rows: tuple  # of (B, N) with B ascending
    elapsed_ms: tuple = ()


def count_ladder(model: VarietyModel, lam, B_list, workers: int = 1) -> CountLadder:
    """Run count_points over an ascending ladder of bounds, each rung on its
    own (its cost is dominated by the top rung)."""
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
    return CountLadder(model, tuple(vals), tuple(rows), tuple(elapsed))


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
