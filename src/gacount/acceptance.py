"""Acceptance criteria for the verification laboratory.

Ten checks, A1 through A10, each packaged as a function returning an
AcceptanceResult.  They combine exact oracle equalities (enumeration,
stratum counts, Picard arithmetic) with desk-scale numeric convergence at
pinned tolerances (counting constants, local Fourier transforms, the
Poisson identity).  Every check is self-contained so the command line can
run any subset; none mutates package state beyond the module-level caches
in fourier.

The pass conditions are deliberately strict.  Where a check carries a
stated wall-clock budget the elapsed time is part of the verdict, and
failures report the measured numbers so a red line is directly actionable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Callable, Optional, Sequence

import mpmath
import numpy as np

from . import enumeration, fourier, geometry, heights, tamagawa
from ._util import prime_factors, primes_upto


@dataclass(frozen=True)
class AcceptanceResult:
    """Outcome of one acceptance criterion."""

    criterion: str
    passed: bool
    detail: str
    elapsed_s: float

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{self.criterion:<4} {flag} [{self.elapsed_s:8.2f}s] {self.detail}"


def _result(criterion: str, t0: float, passed: bool, detail: str) -> AcceptanceResult:
    return AcceptanceResult(criterion, passed, detail, time.perf_counter() - t0)


def a1() -> AcceptanceResult:
    """P1, anticanonical: N(B)/B at B = 10^6 within 0.5% of 12/pi^2."""
    t0 = time.perf_counter()
    model = geometry.load_model("P1")
    B = 10**6
    n = enumeration.count_points(model, model.rho, B)
    ratio = n / B
    target = 12.0 / math.pi**2
    rel = abs(ratio / target - 1.0)
    elapsed = time.perf_counter() - t0
    ok = rel <= 5e-3 and elapsed < 5.0
    return AcceptanceResult(
        "A1",
        ok,
        f"N(1e6)/1e6 = {ratio:.6f}, 12/pi^2 = {target:.6f}, rel = {rel:.2e}"
        f" (tol 5.0e-03, budget 5 s)",
        elapsed,
    )


def a2() -> AcceptanceResult:
    """P2, anticanonical: N(B)/B at B = 10^7 within 5% of 4/zeta(3), and the
    predicted constant equal to 12/(3 zeta(3)) to 1e-6."""
    t0 = time.perf_counter()
    model = geometry.load_model("P2")
    B = 10**7
    n = enumeration.count_points(model, model.rho, B)
    ratio = n / B
    with mpmath.workdps(40):
        target = float(4 / mpmath.zeta(3))
    rel = abs(ratio / target - 1.0)
    predicted = tamagawa.predicted_constant(model)
    diff = abs(predicted - target)
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.05 and diff <= 1e-6 and elapsed < 120.0
    return AcceptanceResult(
        "A2",
        ok,
        f"N(1e7)/1e7 = {ratio:.6f} vs 4/zeta(3) = {target:.6f} (rel {rel:.2e},"
        f" tol 5e-2); predicted = {predicted:.9f} (|diff| = {diff:.2e}, tol 1e-6;"
        f" budget 2 min)",
        elapsed,
    )


def a3() -> AcceptanceResult:
    """BlP2-1, anticanonical: degree-1 fit of N(B)/B against log B over
    B in [1e3, 1e6] within 10% of 72/pi^4, and the predicted constant equal
    to 432/(6 pi^4) to 1e-6."""
    t0 = time.perf_counter()
    model = geometry.load_model("BlP2-1")
    ladder = enumeration.count_ladder(
        model, model.rho,
        [10**3, 3 * 10**3, 10**4, 3 * 10**4, 10**5, 3 * 10**5, 10**6],
    )
    coeffs, _ = enumeration.fit_leading(ladder, 1, 2)
    lead = coeffs[-1]
    target = 432.0 / (6.0 * math.pi**4)
    rel = abs(lead / target - 1.0)
    predicted = tamagawa.predicted_constant(model)
    diff = abs(predicted - target)
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.10 and diff <= 1e-6 and elapsed < 300.0
    return AcceptanceResult(
        "A3",
        ok,
        f"fit lead = {lead:.6f} vs 432/(6 pi^4) = {target:.6f} (rel {rel:.3f},"
        f" tol 0.10); predicted = {predicted:.6f} (|diff| = {diff:.2e}, tol 1e-6;"
        f" budget 5 min)",
        elapsed,
    )


def a4() -> AcceptanceResult:
    """BlP2-1 exponent discrimination: lambda = (1,1) estimates a near 3,
    lambda = rho estimates a near 1 with a visible log factor, and the
    Picard arithmetic reports (a, b) = (3, 1) and (1, 2) exactly."""
    t0 = time.perf_counter()
    model = geometry.load_model("BlP2-1")
    lad_hi = enumeration.count_ladder(
        model, (1, 1), [10, 31, 100, 316, 1000, 3162, 10000]
    )
    a_hi, _ = enumeration.estimate_exponents(lad_hi)
    lad_rho = enumeration.count_ladder(model, model.rho, [10**k for k in range(3, 10)])
    a_rho, b_rho = enumeration.estimate_exponents(lad_rho)
    exact_hi = (geometry.a_exponent(model, (1, 1)), len(geometry.b_set(model, (1, 1))))
    exact_rho = (
        geometry.a_exponent(model, model.rho),
        len(geometry.b_set(model, model.rho)),
    )
    ok = (
        abs(a_hi / 3.0 - 1.0) <= 0.05
        and abs(a_rho / 1.0 - 1.0) <= 0.05
        and b_rho >= 1.5
        and exact_hi == (Fraction(3), 1)
        and exact_rho == (Fraction(1), 2)
    )
    return _result(
        "A4",
        t0,
        ok,
        f"lambda=(1,1): a_hat = {a_hi:.4f} (target 3 +-5%); lambda=rho: a_hat ="
        f" {a_rho:.4f} (target 1 +-5%), b_hat = {b_rho:.3f} (>= 1.5); picard"
        f" (a,b) = {tuple(map(str, exact_hi))} and {tuple(map(str, exact_rho))}"
        f" (want (3,1) and (1,2))",
    )


def a5() -> AcceptanceResult:
    """Trivial-character oracle: brute p-adic integration agrees with the
    stratum-count local factor for every model, p in {5,7,11},
    s in {rho+1, rho+2}, within the stated truncation bound (<= 1e-3)."""
    t0 = time.perf_counter()
    worst_ratio = 0.0
    worst_bound = 0.0
    n_cases = 0
    fails = []
    for mid in geometry.MODEL_IDS:
        model = geometry.load_model(mid)
        zero = (0,) * model.dim
        for p in (5, 7, 11):
            for shift in (1, 2):
                s = tuple(r + shift for r in model.rho)
                brute = fourier.brute_padic_fourier(model, p, zero, s, depth=3)
                exact = tamagawa.denef_local_factor(model, p, s)
                diff = abs(brute.value - complex(float(exact)))
                n_cases += 1
                worst_bound = max(worst_bound, brute.error_bound)
                worst_ratio = max(worst_ratio, diff / brute.error_bound)
                if diff > brute.error_bound or brute.error_bound > 1e-3:
                    fails.append(f"{mid} p={p} shift={shift} diff={diff:.2e}"
                                 f" bound={brute.error_bound:.2e}")
    elapsed = time.perf_counter() - t0
    ok = not fails and elapsed < 120.0
    head = "; ".join(fails[:3]) if fails else (
        f"{n_cases} cases, worst |diff|/bound = {worst_ratio:.3f},"
        f" max bound = {worst_bound:.2e} (<= 1e-3; budget 2 min)"
    )
    return AcceptanceResult("A5", ok, head, elapsed)


def a6() -> AcceptanceResult:
    """Character-sum trichotomy: evaluator vs closed form to 1e-9 on the
    full grid p in {5,7,11,13}, n <= 3, d <= 3, all units u."""
    t0 = time.perf_counter()
    worst = 0.0
    n_cases = 0
    for p in (5, 7, 11, 13):
        for n in (1, 2, 3):
            q = p**n
            units = [u for u in range(1, q) if u % p]
            for d in (0, 1, 2, 3):
                for u in units:
                    got = fourier.character_sum(p, u, n, d)
                    want = complex(fourier.charsum_trichotomy(p, u, n, d))
                    worst = max(worst, abs(got - want))
                    n_cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    return AcceptanceResult(
        "A6",
        ok,
        f"{n_cases} cases, worst |diff| = {worst:.2e} (tol 1e-9; budget 30 s)",
        elapsed,
    )


def a7() -> AcceptanceResult:
    """Nontrivial characters at good primes: closed-form main term within the
    explicit error-term bound of brute force on the standard index grid, and
    ramified characters integrate to zero within the truncation bound."""
    t0 = time.perf_counter()
    index_grid = {1: [(1,), (2,)], 2: [(1, 0), (0, 1), (1, 1), (2, 3)]}
    n_cases = 0
    worst_ratio = 0.0
    fails = []
    tested_models = []
    for mid in geometry.MODEL_IDS:
        model = geometry.load_model(mid)
        if model.dim not in index_grid:
            continue
        tested_models.append(mid)
        for p in (5, 7, 11):
            depth = fourier.suggested_depth(model, p)
            for shift in (1, 2):
                s = tuple(r + shift for r in model.rho)
                for a in index_grid[model.dim]:
                    closed, et_bound = fourier.closed_form_good_prime(model, p, a, s)
                    brute = fourier.brute_padic_fourier(model, p, a, s, depth=depth)
                    diff = abs(closed - brute.value)
                    tol = et_bound + brute.error_bound
                    n_cases += 1
                    worst_ratio = max(worst_ratio, diff / tol)
                    if diff > tol:
                        fails.append(f"{mid} p={p} a={a} shift={shift}"
                                     f" diff={diff:.2e} tol={tol:.2e}")
        for p in (5, 7):
            s = tuple(r + 1 for r in model.rho)
            ram = (Fraction(1, p),) + (0,) * (model.dim - 1)
            val = fourier.brute_padic_fourier(model, p, ram, s, depth=3)
            n_cases += 1
            if abs(val.value) > val.error_bound:
                fails.append(f"{mid} ramified p={p}: |value| = {abs(val.value):.2e}")
    ok = not fails
    head = "; ".join(fails[:3]) if fails else (
        f"{n_cases} cases over {tested_models}, worst |diff|/tol ="
        f" {worst_ratio:.3f}; ramified transforms all vanish"
    )
    return _result("A7", t0, ok, head)


def a8() -> AcceptanceResult:
    """Poisson identity on P1: truncated height zeta sum equals the character
     sum within the combined bound, 1e-2 relative at s = 2 and 1e-4 at s = 5."""
    t0 = time.perf_counter()
    model = geometry.load_model("P1")
    runs = [
        (2.0, 10**6, 50, 1e-2),
        (5.0, 10**4, 8000, 1e-4),
    ]
    details = []
    ok = True
    for s, b_cut, a_cut, tol in runs:
        r = fourier.poisson_check(model, model.rho, s, b_cut, a_cut, p_max=1000)
        good = r["pass"] and r["rel_diff"] <= tol
        ok = ok and good
        details.append(
            f"s={s:g}: lhs={r['lhs']:.6f} rhs={r['rhs']:.6f}"
            f" rel={r['rel_diff']:.2e} (tol {tol:.0e},"
            f" bound {'ok' if r['pass'] else 'VIOLATED'})"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    return AcceptanceResult("A8", ok, "; ".join(details) + "; budget 2 min", elapsed)


def _random_point(rng: np.random.Generator, dim: int) -> heights.RationalPoint:
    """A random affine rational point with small numerators and denominators."""
    while True:
        nums = rng.integers(-9, 10, size=dim)
        dens = rng.integers(1, 10, size=dim)
        if any(nums):
            return heights.RationalPoint.from_affine(
                [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
            )


def _random_interior(rng: np.random.Generator, rank: int) -> tuple:
    return tuple(int(v) for v in rng.integers(1, 5, size=rank))


def a9() -> AcceptanceResult:
    """Structural invariants: height multiplicativity, integer-translation
    invariance, local-global consistency, stratum-count oracle equality,
    and rho_alpha >= 2 throughout the catalog.  All comparisons exact."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    problems = []

    for mid in geometry.MODEL_IDS:
        model = geometry.load_model(mid)
        # Multiplicativity of the finite part in the Picard argument.
        for _ in range(50):
            pt = _random_point(rng, model.dim)
            lam = _random_interior(rng, model.rank)
            mu = _random_interior(rng, model.rank)
            both = tuple(a + b for a, b in zip(lam, mu))
            lhs = heights.finite_height_part(model, pt, both)
            rhs = (heights.finite_height_part(model, pt, lam)
                   * heights.finite_height_part(model, pt, mu))
            if lhs != rhs:
                problems.append(f"{mid}: finite part not multiplicative at {pt.coords}")
                break
        # Invariance under translation by integral vectors.
        for _ in range(50):
            pt = _random_point(rng, model.dim)
            lam = _random_interior(rng, model.rank)
            shift = rng.integers(-5, 6, size=model.dim)
            moved = heights.RationalPoint.from_affine(
                [x + int(v) for x, v in zip(pt.affine(), shift)]
            )
            if (heights.finite_height_part(model, pt, lam)
                    != heights.finite_height_part(model, moved, lam)):
                problems.append(f"{mid}: translation breaks finite part at {pt.coords}")
                break
        # Local heights multiply back to the global finite part; the product
        # runs over the support of the finite part plus two control primes
        # that must contribute a factor of 1.
        for _ in range(200):
            pt = _random_point(rng, model.dim)
            lam = _random_interior(rng, model.rank)
            fin = heights.finite_height_part(model, pt, lam)
            support = set(prime_factors(fin.numerator * fin.denominator))
            prod = Fraction(1)
            for p in sorted(support | {2, 101}):
                prod *= heights.local_height(model, pt, p, lam)
            if prod != fin:
                problems.append(f"{mid}: local-global mismatch at {pt.coords}")
                break
        # Stratum counts: catalog polynomials vs first-principles recount.
        names = model.components
        subsets = chain.from_iterable(
            combinations(names, k) for k in range(len(names) + 1)
        )
        for subset in subsets:
            for p in primes_upto(31):
                if p in geometry.SMALL_PRIMES:
                    continue
                if (geometry.stratum_count(model, subset, p)
                        != geometry.brute_stratum_count(model, subset, p)):
                    problems.append(f"{mid}: stratum {subset} differs at p={p}")
        # The anticanonical multiplicities of an additive compactification.
        if any(r < 2 for r in model.rho):
            problems.append(f"{mid}: some rho_alpha < 2")

    ok = not problems
    head = "; ".join(problems[:3]) if problems else (
        "multiplicativity, translation invariance, local-global product,"
        " stratum oracle (p <= 31), and rho_alpha >= 2 all exact"
    )
    return _result("A9", t0, ok, head)


def a10() -> AcceptanceResult:
    """Enumeration soundness: the standard-box oracle equals count_points
    exactly for every model at B <= 200, and parallel counts are identical
    across 1, 2, and 8 workers."""
    t0 = time.perf_counter()
    problems = []
    n_checked = 0
    for mid in geometry.MODEL_IDS:
        model = geometry.load_model(mid)
        for B in (1, 7, 50, 200):
            box = sum(1 for _ in enumeration.enumerate_points(model, model.rho, B))
            fast = enumeration.count_points(model, model.rho, B)
            n_checked += 1
            if box != fast:
                problems.append(f"{mid} B={B}: box {box} != count {fast}")
        counts = [
            enumeration.count_points(model, model.rho, 200, workers=w)
            for w in (1, 2, 8)
        ]
        if len(set(counts)) != 1:
            problems.append(f"{mid}: worker counts differ {counts}")
    ok = not problems
    head = "; ".join(problems[:3]) if problems else (
        f"{n_checked} box-vs-count equalities and worker invariance"
        " across 1/2/8 processes"
    )
    return _result("A10", t0, ok, head)


CHECKS: Sequence[tuple] = (
    ("A1", a1),
    ("A2", a2),
    ("A3", a3),
    ("A4", a4),
    ("A5", a5),
    ("A6", a6),
    ("A7", a7),
    ("A8", a8),
    ("A9", a9),
    ("A10", a10),
)


def run_all(only: Optional[Sequence[str]] = None) -> list:
    """Run the requested criteria (all by default) in catalog order."""
    table = {cid: fn for cid, fn in CHECKS}
    if only is None:
        wanted = [cid for cid, _ in CHECKS]
    else:
        wanted = [w.upper() for w in only]
        unknown = [w for w in wanted if w not in table]
        if unknown:
            raise ValueError(f"unknown criteria: {unknown}; valid: A1..A10")
    return [table[cid]() for cid in wanted]
