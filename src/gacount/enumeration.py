"""Exact bounded-height enumeration and asymptotic fits.

count_points(model, lambda, B) returns the exact number of affine rational
points with H(x; lambda) <= B.  Three strategies cover the catalog, each
provably complete on its models.  The strategy is the model's kind, which
the catalog derives from each entry's data and never from its name (geometry
module docstring): "pn" takes the Moebius strategy, "fiber" the fiber
strategy and "box" the box scan (_outer_range).

P^n (Moebius strategy).  H(x) = h^{lambda_1} with h = max(Z, |X_i|) on the
primitive vector, so N(B) = #{primitive (Z, X), Z >= 1, h <= T} with
T = floor(B^{1/lambda_1}).  Counting by the common divisor d gives

    N = sum_{d <= T} mu(d) * (T//d) * (2*(T//d) + 1)^n.

The d with T//d = q form the block T//(q+1) < d <= T//q, whose mu-sum is
M(T//q) - M(T//(q+1)) for the Mertens function M, so with q over the at most
2 sqrt(T) distinct values of T//d

    N = sum_q q * (2q + 1)^n * (M(T//q) - M(T//(q+1))),

and _util.mertens_quotients gives every M(T//k) in O(T^{2/3}) time, from an
int64 table of M(v) for v <= T^{2/3} (a traced peak of 200 MB at T = 2^36,
with the int8 mu segment it sums and the dict of quotients): count_points
refuses T > 2^36 (a table past 2^24 values) before sieving.

BlP2-1 (fiber strategy).  Group points by the reduced fiber coordinate
y = q/f, f >= 1, gcd(q, f) = 1, and write F = max(|q|, f).  There are
w_F = 3 fibers with F = 1 and w_F = 4*phi(F) with F >= 2 (_fiber_weights,
which P1's zeta sum reads too).  On a fixed fiber the primitive vector is
(g*f, X, g*q) with g >= 1, gcd(g, X) = 1; the
generator heights are h_F = F and h_H = max(g*F, |X|), so with m_H = lambda_E
and m_F = lambda_D - lambda_E the height bound becomes max(g*F, |X|) <= T_F
where T_F is the largest integer M with M^{m_H} * F^{m_F} <= B (an exact
integer root, _blp21_fiber_bounds).  Writing G_F = T_F // F, the fiber
contributes

    w_F * sum_{e <= G_F} mu(e) * (G_F//e) * (2*(T_F//e) + 1)
        = w_F * (1 + 2 * sum_{e <= G_F} mu(e) * (G_F//e) * (T_F//e)),

since sum_{e <= G} mu(e) (G//e) = 1 for G >= 1 (each g <= G is counted by
sum_{e | g} mu(e)).  Since gF <= T_F iff (gF)^{m_H} F^{m_F} <= B iff
g^{m_H} F^{lambda_D} <= B, G_F >= 1 iff F^{lambda_D} <= B iff
F <= f_max = floor(B^{1/lambda_D}), where the fibers end (every fiber
counted has G_F >= 1), and G_F is nonincreasing in F (m_H, lambda_D > 0):
for each e the fibers with G_F >= e form a prefix of 1, ..., f_max.  T_F is
monotone in F, nonincreasing when m_F >= 0 and nondecreasing otherwise.

The pairs (F, e) with e <= G_F are split at E0, the smallest e with
#{F : G_F > e} <= e; E0 is about B^{1/5} at lambda = rho (G_F ~
sqrt(B / F^3)) and sqrt(B) at (1, 1).  For e <= E0 one NumPy pass per e
runs over the prefix of fibers with G_F >= e, with mu from
_util.mu_sieve(E0).  The e > E0 lie in the at most E0 fibers with
G_F > E0, and there the sum runs over the quotient blocks of T_F
(_blp21_blocks).  G_F//e = (T_F//e)//F, as both are floor(T_F / (F e)), so
on the block T_F//(q+1) < e <= T_F//q, where T_F//e = q, the terms add up to

    w_F * q * (q//F) * (M(T_F//q) - M(T_F//(q+1)))

with M the Mertens function.  q runs from T_F//(E0+1), whose block is cut
to start after E0, down to T_F//G_F, whose block ends at G_F: G_F = T_F//F
is itself a quotient of T_F, so T_F//(T_F//G_F) = G_F.  That is about
T_F / E0 rows per fiber: 50k rows in all for the 800k pairs at
lambda = rho, B = 1e11.  The rows are built in
chunks of 2^14 (a row finds its fiber by a searchsorted in the cumulative
row counts, so a chunk may end inside a fiber).  Every block end of F = 1
is a quotient of T_1 = G_1, so its rows below the first read M from
_util.mertens_quotients(T_1), O(T_1^{2/3}); every other fiber stops at
G_F <= G_2 (about G_1 / 2.8 at lambda = rho).  The rest of M comes from one
int8 mu_segment over E0 <= e <= max(G_2, T_1//(T_1//(E0+1))), the end of the
first row of F = 1, each cell of 127 values overwritten by its running sums,
which int8 holds, with an int64 sum before each cell (_mertens_lookup).

The sums are exact in int64.  By the monotonicity of T_F the one check
max(T_1, T_{f_max}) < 2^30, made before any table is built, bounds every
T_F (CapabilityError past it), and w_F <= 4F.  A term of the per-e passes
is |w_F mu(e) (G_F//e) (T_F//e)| <= 4F (T_F / F) T_F = 4 T_F^2 < 2^62.  A
block of q holds at most T_F//q - T_F//(q+1) <= T_F / (q (q+1)) + 1 values
of e, which bounds its mu-sum, so its term is below
4F q (q/F) (T_F / q^2 + 1) = 4 (T_F + q^2): at most 8 T_F when
q^2 <= T_F, and in any case below 4 T_F + T_F^2 < 2^62, since
q <= T_F / (E0 + 1) <= T_F / 2 (E0 >= 1).  Each partial product is at most
its term.  The rows of F = 1 read from the Mertens table are these terms
without the factor w_1 = 3, which multiplies their exact sum as a Python
int.  Every pass has fewer than 2^31 terms (at most 2^14 rows, f_max <=
T_{f_max} fibers, since G_{f_max} >= 1, or T_1 rows of F = 1), and
_exact_sum adds their high and low 32-bit halves apart: under 2^31 * 2^30
and 2^31 * 2^32, both inside int64.  The weights sum to less than
2 f_max^2 < 2^62.

Memory: the fiber table (T_F, G_F, w_F) takes 24 bytes per fiber, the mu
segment 5 bytes per e in its range, at most [E0, G_1], while it is sieved (an
int32 product of its small primes, _util) and 1 + 8/127 after, the Mertens
table of T_1 an int64 M(v) per v <= T_1^{2/3}, and each chunk of rows a few
int64 arrays of 2^14 entries.  No array runs over the pairs or the rows, or
over the e <= G_1 in int64, so the sieve sets the peak (1.65 MB traced at
lambda = rho, B = 1e11 with Python 3.11 and NumPy 2.4; 1.87 MB with the
segment up to G_1, 2.05 MB for the per-fiber loop over e that the blocks
replace).  At large f_max or G_1 the per-e passes over the fibers (48 bytes a
fiber: 474 MB at (1, 1), B = 1e7) or the segment (at most 5 G_1 bytes: 488 MB
at G_1 = 10^8) set it, so before any table is built the fiber sum refuses
f_max > 2^24 and G_1 = T_1 > 2^27, about 0.7 GB each.

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
NumPy int64.  Every generator system G of the catalog is the section
Z = (1, 0, ..., 0) and linear forms l in the X_i alone (the kernel raises
CapabilityError on any other system), so the gcd of G's section values at
(z, X) is gcd(z, g_G(X)), with g_G the gcd of the |l(X)|: |l_i(X)| itself
on a pencil {l_i, Z}, the gcd of the X_i on H.  g_G and the largest |l(X)|
of each system are taken once over the (2R+1)^n grid of the X_i, with the
gcd of the grid (8 (2R+1)^n bytes each, two per system and one for the
grid).  Each slice computes one table t = gcd(0..max g, z), at most 2R + 1
entries on the catalog (|X - Y| <= 2R), and reads
h_G = max(z, max|l(X)|) // t[g_G] and the primitivity mask t[gcd(X)] == 1
by gathers: no gcd per candidate.  A float filter then
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
_util.height_test, prepared once per call: its scale, integer exponents and
powers of B are computed once, so a tie costs integer powers alone.  The
kernel raises CapabilityError if some Hmax_G, which bounds every section
value, leaves int64.  count_points' box strategy counts the kernel's points.

The point side of the height zeta function lives here too: zeta_partial
sums H(x)^(-s) over the points with H <= B along the same strategies (the
Moebius fibers on P1, 2^16 at a time so that its memory does not grow with
B, until no later term can change the float sum; the fibers on BlP2-1; the
box kernel's points otherwise, each slice's heights H = num/den from its
generator heights as int64 products when they provably stay below 2^53)
and returns the number of points summed; fourier.zeta_truncated adds the
tail estimate.

enumerate_points is the oracle: it yields the points of the loop _box_scan,
which decides each primitive candidate by the exact test alone and shares no
code with the kernel but the generator heights and that test.  On P^n and BlP2-1 every
H_alpha >= 1 as well, so the same box with radius B^{1/lambda_min} is sound
there, and the tests hold the Moebius and fiber strategies against it.

Counts are exact integers, deterministic, and independent of the worker
partitioning: a parallel run splits the box strategy's outer loop into Z
ranges and adds the integer partial sums.  The Moebius and fiber strategies
run as one task (the fiber rows pile up at small F, which no split
into equal F ranges balances).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import product
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import geometry, heights
from ._util import (CapabilityError, as_fraction, floor_frac_root, height_test, mertens_quotients,
                    mu_segment, mu_sieve, phi_segment, prime_factors)
from .geometry import VarietyModel
from .heights import RationalPoint

# Box candidate budgets: the loop oracle enumerate_points, and the NumPy kernel
# of count_points and zeta_partial (3.2e7 candidates take 3.3 s, 2-core VM).
DEFAULT_CANDIDATE_BUDGET = 5_000_000
KERNEL_CANDIDATE_BUDGET = 50_000_000


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
            f" (budget {budget}); lower B"
        )


def _box_scan(
    model: VarietyModel, lam: Sequence[Fraction], B: Fraction, R: int, lo: int, hi: int
) -> Iterator[tuple]:
    """Primitive (Z, X1, ..., Xn) with H <= B, |X_i| <= R and lo <= Z < hi,
    Z ascending, then the X_i lexicographically: one exact height test
    (_util.height_test, prepared once per call) per primitive candidate.
    The oracle of _box_kernel."""
    leq = height_test(geometry.generator_exponents(model, lam), B)
    side = range(-R, R + 1)
    for z in range(lo, hi):
        for xs in product(side, repeat=model.dim):
            coords = (z,) + xs
            if math.gcd(*coords) == 1 and leq(heights.generator_heights(model, coords)):
                yield coords


# Scale of the band around log B inside which _box_kernel decides candidates
# exactly (module docstring, "The box kernel").
_LOG_MARGIN = 2.0**-40


def _section_bounds(model: VarietyModel, R: int, hi: int) -> list[int]:
    """Hmax_G = max_l sum|coefficients of l| * max(R, hi - 1) per system G,
    which bounds every section value |l(Z, X)| with |X_i| <= R, 1 <= Z < hi."""
    return [max(sum(map(abs, sec)) for sec in gen.sections) * max(R, hi - 1)
            for gen in model.generators]


def _box_kernel(
    model: VarietyModel, lam: Sequence[Fraction], B: Fraction, R: int, lo: int, hi: int
) -> Iterator[tuple]:
    """The points of _box_scan, one Z-slice at a time.

    Yields (z, xs, hs) for z = lo, ..., hi - 1: xs is the int64 array (k, n)
    of the X_i of the slice's k points with H <= B, in lexicographic order,
    and hs the int64 array (k, number of generator systems) of their
    generator heights h_G.  The (2R+1)^n grid of the X_i, its gcd and, per
    system, the gcd g_G and the largest |value| of its sections other than Z
    are built once; each slice then reads its gcds from one table
    t = gcd(0..max g, z) and holds a fixed number of arrays of (2R+1)^n
    int64 or float64 values (8 (2R+1)^n bytes each), never the whole box.

    Raises:
        CapabilityError: if a system is not the section Z = (1, 0, ..., 0)
            and forms in the X_i alone, or a section value could leave int64
            (Hmax_G in the module docstring); both before any array is built.
    """
    unit_z = (1,) + (0,) * model.dim
    unfit = [gen.name for gen in model.generators if unit_z not in gen.sections
             or any(sec[0] for sec in gen.sections if sec != unit_z)]
    if unfit:
        raise CapabilityError(f"box kernel for {model.id}: systems {', '.join(unfit)}"
                              f" are not the section Z and forms in the X_i alone")
    m = geometry.generator_exponents(model, lam)
    leq = height_test(m, B)
    m_float = np.array([float(e) for e in m])
    h_max = _section_bounds(model, R, hi)
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
    grid_gcd = np.gcd.reduce(np.abs(grid), axis=1)
    # Per system, over the grid: the gcd g_G and the largest of the values
    # |l(X)| of its sections other than Z.
    systems = []
    for gen in model.generators:
        forms = np.array([sec[1:] for sec in gen.sections if sec != unit_z], dtype=np.int64)
        values = np.abs(forms.reshape(-1, model.dim) @ grid.T)
        systems.append((np.gcd.reduce(values, axis=0), values.max(axis=0, initial=0)))
    numbers = np.arange(max(int(grid_gcd.max()), *(int(g.max()) for g, _ in systems)) + 1,
                        dtype=np.int64)
    for z in range(lo, hi):
        table = np.gcd(numbers, z)
        hs = np.empty((len(grid), len(systems)), dtype=np.int64)
        for j, (g, top) in enumerate(systems):
            np.floor_divide(np.maximum(top, z), table[g], out=hs[:, j])
        log_h = np.log(hs) @ m_float
        primitive = table[grid_gcd] == 1
        keep = primitive & (log_h < log_b - margin)
        ties = np.flatnonzero(primitive & (np.abs(log_h - log_b) <= margin))
        if ties.size:
            keep[ties] = [leq(row) for row in hs[ties].tolist()]
        yield z, grid[keep], hs[keep]


def _pn_count(n: int, T: int) -> int:
    """The Moebius sum on P^n over the quotient blocks (module docstring)."""
    if T > _PN_T_LIMIT:
        raise CapabilityError(f"Moebius sum on P{n}: T = {T} needs a mu sieve of"
                              f" T^(2/3) values (limit T <= 2^36)")
    M = mertens_quotients(T)
    return sum(q * (2 * q + 1) ** n * (M[T // q] - M[T // (q + 1)]) for q in M if q)


def _blp21_fiber_bounds(lam: Sequence[Fraction], B: Fraction, fibers) -> list[int]:
    """T_F, the largest M with M^{m_H} F^{m_F} <= B, for each F in fibers.

    With d the lcm of the denominators of m_H and m_F, p = m_H d and
    k = m_F d are integers and the bound is M^p <= B^d F^{-k}; as M^p is an
    integer, that is M^p <= floor(num^d F^{max(-k, 0)} / (den^d F^{max(k, 0)}))
    for B = num/den, an integer p-th root.
    """
    m_h, m_f = lam[1], lam[0] - lam[1]
    d = math.lcm(m_h.denominator, m_f.denominator)
    p, k = int(m_h * d), int(m_f * d)
    num, den = B.numerator**d, B.denominator**d
    root = math.isqrt if p == 2 else (lambda top: floor_frac_root(top, p))
    if k == 0:
        return [root(num // den)] * len(fibers)
    up, down = max(-k, 0), max(k, 0)
    return [root(num * F**up // (den * F**down)) for F in fibers]


# Fiber bounds stay below _T_LIMIT, so every term of the fiber sum fits int64;
# the block pass takes its rows in chunks of _ROW_CHUNK, and P1's zeta sum its
# fibers in chunks of _WEIGHT_CHUNK, testing its stop every _STOP_STRIDE
# fibers.  The memory limits on the Moebius sum's T and the fiber sum's f_max
# and G_1 follow (module docstring).
_T_LIMIT = 2**30
_ROW_CHUNK = 2**14
_WEIGHT_CHUNK = 2**16
_STOP_STRIDE = 64
_PN_T_LIMIT = 2**36
_FIBER_LIMIT = 2**24
_SEGMENT_LIMIT = 2**27


def _fiber_weights(lo: int, hi: int) -> np.ndarray:
    """The int64 fiber weights w_F for 1 <= lo <= F < hi: w_1 = 3 and
    w_F = 4 phi(F) for F >= 2, the number of reduced fibers q/f with
    max(|q|, f) = F (module docstring)."""
    w = 4 * phi_segment(lo, hi)
    if lo == 1 < hi:
        w[0] = 3
    return w


def _exact_sum(terms: np.ndarray) -> int:
    """Exact sum of fewer than 2^31 int64 values, each below 2^62 in absolute
    value: the high and low 32-bit halves are summed apart, each within int64."""
    return (int((terms >> 32).sum()) << 32) + int((terms & 0xFFFFFFFF).sum())


def _blp21_count(lam: Sequence[Fraction], B: Fraction, f_max: int) -> int:
    """The fiber sum over the fibers F <= f_max, split at E0 (module docstring).

    Raises:
        CapabilityError: if a fiber bound T_F reaches 2^30 (int64), f_max
            passes 2^24 or G_1 = T_1 passes 2^27 (memory).
    """
    t_1, t_end = _blp21_fiber_bounds(lam, B, (1, f_max))
    if max(t_1, t_end) >= _T_LIMIT or f_max > _FIBER_LIMIT or t_1 > _SEGMENT_LIMIT:
        raise CapabilityError(
            f"fiber sum for BlP2-1 at B={B}: fiber bounds {t_1}..{t_end} over {f_max}"
            f" fibers pass the limits (T_F < 2^30, f_max <= 2^24, G_1 <= 2^27)"
        )
    T = np.array(_blp21_fiber_bounds(lam, B, range(1, f_max + 1)), dtype=np.int64)
    G = T // np.arange(1, f_max + 1, dtype=np.int64)
    w = _fiber_weights(1, f_max + 1)
    # G is nonincreasing, so #{F : G_F > e} <= e first holds at the first
    # index e with G[e] <= e; 1 <= e0 <= G_1.
    drops = np.flatnonzero(G <= np.arange(f_max))
    e0 = int(drops[0]) if len(drops) else f_max
    # prefix[e - 1] = #{F : G_F >= e} for e = 1, ..., e0 + 1.
    prefix = (f_max - np.searchsorted(G[::-1], np.arange(1, e0 + 2))).tolist()
    s = 0
    for e, mu_e in enumerate(mu_sieve(e0)[1:], start=1):
        if mu_e:
            k = prefix[e - 1]
            s += mu_e * _exact_sum(w[:k] * (G[:k] // e) * (T[:k] // e))
    k = prefix[e0]
    return int(w.sum()) + 2 * (s + _blp21_blocks(T[:k], G[:k], w[:k], e0))


# _mertens_lookup keeps running sums of mu within cells of _MERTENS_CELL
# values: at most 127 in absolute value, so int8 holds them.
_MERTENS_CELL = 127


def _mertens_lookup(a: int, b: int):
    """The function k -> M(k) - M(a - 1) = sum_{a <= j <= k} mu(j), applied
    to a NumPy array of integers a <= k < b, M the Mertens function.

    The int8 mu_segment from a is cut into cells of 127 values and each cell
    is overwritten by its own running sums; an int64 array holds the sum
    before each cell.  That is 1 + 8/127 bytes per k, and a lookup is one
    add per k.
    """
    cells = mu_segment(a, a + -(-(b - a) // _MERTENS_CELL) * _MERTENS_CELL)
    cells = cells.reshape(-1, _MERTENS_CELL)
    np.cumsum(cells, axis=1, dtype=np.int8, out=cells)
    before = np.zeros(len(cells), dtype=np.int64)
    np.cumsum(cells[:-1, -1], out=before[1:])
    sums = cells.ravel()

    def mertens(k: np.ndarray) -> np.ndarray:
        return before[(k - a) // _MERTENS_CELL] + sums[k - a]

    return mertens


def _blp21_blocks(T: np.ndarray, G: np.ndarray, w: np.ndarray, e0: int) -> int:
    """sum over the fibers F = 1, ..., len(T), each with G_F > E0 = e0, of
    w_F sum_{E0 < e <= G_F} mu(e) (G_F//e) (T_F//e), one row per quotient
    block of T_F (module docstring).

    The rows of fiber F run over q = T_F//(E0+1) down to T_F//G_F; row r of
    all fibers finds its fiber by a searchsorted of r in the cumulative row
    counts, so a chunk of rows may end inside a fiber.  Fiber F = 1 keeps
    only its first row there: its rows q < T_1//(E0+1) read
    M(T_1//q) - M(T_1//(q+1)) from mertens_quotients(T_1), so the mu segment
    runs up to G_2 and that first row's T_1//q alone.
    """
    if not len(T):
        return 0
    q_top = T // (e0 + 1)
    counts = q_top - T // G + 1
    counts[0] = 1
    t_1, q_1 = int(T[0]), int(q_top[0])
    M = mertens_quotients(t_1)
    m_q = np.array([M[t_1 // q] for q in range(1, q_1 + 1)], dtype=np.int64)
    qs = np.arange(1, q_1, dtype=np.int64)
    s = int(w[0]) * _exact_sum(qs * qs * (m_q[:-1] - m_q[1:]))
    ends = np.cumsum(counts)
    # Row r of fiber f has q = q_top[f] - (r - its first row) = q_first[f] - r.
    q_first = q_top + ends - counts
    mertens = _mertens_lookup(e0, max(int(G[1]) if len(G) > 1 else 0, t_1 // q_1) + 1)
    total = int(ends[-1])
    for r0 in range(0, total, _ROW_CHUNK):
        r = np.arange(r0, min(r0 + _ROW_CHUNK, total), dtype=np.int64)
        f = np.searchsorted(ends, r, side="right")
        q = q_first[f] - r
        t = T[f]
        # The block T_F//(q+1) < e <= T_F//q, the first one cut at E0.
        lo = np.maximum(t // (q + 1), e0)
        s += _exact_sum(w[f] * q * (q // (f + 1)) * (mertens(t // q) - mertens(lo)))
    return s


def _partial_count(task) -> int:
    """Box-scan count over Z in [lo, hi), top level for worker processes."""
    model, lam, B, end, lo, hi = task
    return sum(len(xs) for _, xs, _ in _box_kernel(model, lam, B, end, lo, hi))


def _outer_range(model: VarietyModel, lam, B: Fraction) -> tuple:
    """(strategy, outer loop end) for the model's counting strategy, which is
    its kind: "pn" (Moebius), "fiber" or "box"."""
    if model.kind == "box":
        return "box", _box_radius(model, lam, B)
    return model.kind, height_radius(B, lam[0])


def count_points(model: VarietyModel, lam, B, workers: int = 1) -> int:
    """Exact number of affine rational points with H(x; lambda) <= B.

    Args:
        model: catalog entry.
        lam: interior Picard vector (all coordinates positive rationals).
        B: height bound; values below 1 return 0 by convention.
        workers: number of processes for the box scan (BlP2-2/3); the
            result is identical for any value.  The Moebius (P^n) and fiber
            (BlP2-1) strategies ignore it and never start a pool.

    Returns:
        The exact count as a Python int.

    Raises:
        CapabilityError: if a box scan would exceed KERNEL_CANDIDATE_BUDGET,
            or the Moebius or fiber sum would pass its int64 or memory limits
            (T <= 2^36 on P^n; T_F < 2^30, f_max <= 2^24, G_1 <= 2^27 on BlP2-1).
    """
    vals = geometry.require_interior(model, lam)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    B = as_fraction(B)
    if B < 1:
        return 0
    strategy, end = _outer_range(model, vals, B)
    if strategy == "box":
        _check_box_budget(model, B, end, KERNEL_CANDIDATE_BUDGET)
    if end < 1:
        return 0
    if strategy == "pn":
        return _pn_count(model.dim, end)
    if strategy == "fiber":
        return _blp21_count(vals, B, end)
    n_chunks = min(end, max(1, 4 * workers)) if workers > 1 else 1
    step = -(-end // n_chunks)
    tasks = [
        (model, tuple(vals), B, end, lo, min(lo + step, end + 1))
        for lo in range(1, end + 1, step)
    ]
    if workers == 1 or len(tasks) == 1:
        return sum(_partial_count(t) for t in tasks)
    # Imported here: concurrent.futures.process loads multiprocessing, which
    # no other path of a gacount process needs.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(_partial_count, tasks))


def enumerate_points(model: VarietyModel, lam, B) -> Iterator[RationalPoint]:
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
    _check_box_budget(model, B, R, DEFAULT_CANDIDATE_BUDGET)
    for coords in _box_scan(model, vals, B, R, 1, R + 1):
        yield RationalPoint(coords)


def zeta_partial(model: VarietyModel, lam, s: float, B) -> tuple:
    """(sum of H(x; lambda)^(-s) over the points with H <= B, their number):
    the point side of fourier.zeta_truncated along the counting strategy,
    each term x ** (-s) of a Python float x added left to right.

    P1 sums its Moebius fibers (w_F points of generator height F,
    _fiber_weights, _WEIGHT_CHUNK fibers at a time, so the memory does not
    grow with B) and stops once no later term can change the float sum.
    The term of F is t_F = fl(w_F fl(F^-c)), c = lambda_1 s, with
    w_F <= 4F.  Assume pow within 4 ulp (as the box kernel assumes of log);
    then t_F <= 4 F^(1-c) (1 + 2^-49), and the bound
    b_F = 4.004 * F * F^-c, computed in floats, is at least
    4.004 F^(1-c) (1 - 2^-49).  For c >= 1, F^(1-c) is nonincreasing, so
    every t_f with f >= F is below b_F.  Once b_F < ulp(partial)/2 (checked
    every _STOP_STRIDE fibers; partial >= 3 by then, far above any
    subnormal term), each later partial + t_f rounds to nearest back to
    partial, so partial never changes again: the sum is bit-identical to
    the full one.  The count of the fibers in later chunks then comes from
    count_points.

    BlP2-1 sums its fibers (_blp21_zeta_partial, counted by count_points),
    the rest the points of _box_kernel with the generator heights it has
    computed, in the order of enumerate_points.  There H = prod_G h_G^m_G.
    When every m_G is an integer, H = num/den with num = prod h_G^up_G and
    den = prod h_G^down_G (up, down the positive and negative parts of m).
    Each h_G <= max|l| <= Hmax_G (_section_bounds), so num and den are at
    most prod Hmax_G^up_G and prod Hmax_G^down_G.  When both bounds are
    below 2^53, every partial product of the slice's int64 products is
    exact, both products convert to float64 exactly and NumPy's quotient is
    the correctly rounded num/den, the float Python's int / int gives.
    Otherwise, and at rational m_G, each row's height is
    float(prod_G Fraction(h_G) ** m_G): the correctly rounded quotient at
    integer m_G, a float product at rational ones.
    """
    vals = geometry.require_interior(model, lam)
    B = as_fraction(B)
    if B < 1:
        return 0.0, 0
    strategy, end = _outer_range(model, vals, B)
    if strategy == "pn" and model.dim == 1:
        c = float(vals[0]) * s
        partial, count = 0.0, 0
        for lo in range(1, end + 1, _WEIGHT_CHUNK):
            w = _fiber_weights(lo, min(lo + _WEIGHT_CHUNK, end + 1))
            count += int(w.sum())
            for f, w_f in enumerate(w.tolist(), start=lo):
                if (not f % _STOP_STRIDE and c >= 1.0
                        and 4.004 * f * float(f) ** (-c) < 0.5 * math.ulp(partial)):
                    return partial, count if lo + _WEIGHT_CHUNK > end else count_points(
                        model, vals, B)
                partial += w_f * float(f) ** (-c)
        return partial, count
    if strategy == "fiber":
        return _blp21_zeta_partial(model, vals, s, B, end), count_points(model, vals, B)
    # On P^n the box radius is height_radius(B, lambda_1), the end
    # _outer_range gives.
    _check_box_budget(model, B, end, KERNEL_CANDIDATE_BUDGET)
    m = geometry.generator_exponents(model, vals)
    up = [max(int(e), 0) for e in m]
    down = [max(-int(e), 0) for e in m]
    h_max = _section_bounds(model, end, end + 1)
    exact = (all(e.denominator == 1 for e in m)
             and max(math.prod(map(pow, h_max, up)), math.prod(map(pow, h_max, down))) < 2**53)
    partial = 0.0
    n = 0
    for _, _, hs in _box_kernel(model, vals, B, end, 1, end + 1):
        if exact:
            hts = (np.prod(hs ** up, axis=1) / np.prod(hs ** down, axis=1)).tolist()
        else:
            hts = [float(math.prod(Fraction(g) ** e for g, e in zip(row, m)))
                   for row in hs.tolist()]
        for h in hts:
            partial += h ** (-s)
        n += len(hs)
    return partial, n


def _blp21_zeta_partial(model: VarietyModel, lam, s: float, B: Fraction, f_max: int) -> float:
    """The point sum of zeta_partial on BlP2-1, fiber by fiber.

    Points are grouped by the reduced fiber coordinate y = q/f with
    F = max(|q|, f) <= f_max (w_F of them, _fiber_weights) and
    within a fiber by (g, X) with g >= 1, gcd(g, X) = 1; the generator
    heights are h_F = F and h_H = max(g F, |X|), so each point contributes
    max(g F, |X|)^(-m_H s) F^(-m_F s).
    """
    m_h, m_f = geometry.generator_exponents(model, lam)
    c_h = float(m_h) * s
    c_f = float(m_f) * s
    weights = _fiber_weights(1, f_max + 1).tolist()
    total = 0.0
    t_caps = _blp21_fiber_bounds(lam, B, range(1, f_max + 1))
    for F, (t_cap, weight) in enumerate(zip(t_caps, weights), start=1):
        inner = 0.0
        for g in range(1, t_cap // F + 1):
            base = g * F
            # (e, mu(e)) over the squarefree divisors e of g.
            divs = [(1, 1)]
            for q in prime_factors(g):
                divs += [(e * q, -mu) for e, mu in divs]
            # The plateau |X| <= g F, where h_H = g F: its #{X : gcd(X, g)
            # = 1} is sum_{e | g} mu(e) (2 (gF // e) + 1).
            inner += sum(mu * (2 * (base // e) + 1) for e, mu in divs) * \
                float(base) ** (-c_h)
            # The wings g F < |X| <= T_F, where h_H = |X|.
            for x in range(base + 1, t_cap + 1):
                if math.gcd(x, g) == 1:
                    inner += 2.0 * float(x) ** (-c_h)
        total += weight * inner * float(F) ** (-c_f)
    return total


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
