"""Exact bounded-height enumeration and asymptotic fits.

count_points(model, lambda, B) returns the exact number of affine rational
points with H(x; lambda) <= B.  Four strategies cover the catalog, each
provably complete on its models.  The strategy is the model's kind, which
the catalog derives from each entry's data and never from its name (geometry
module docstring): "pn" takes the Moebius strategy, "fiber" the fiber
strategy, "torsor" the torsor strategy and "box" the box scan
(_outer_range).

P^n (Moebius strategy).  H(x) = h^{lambda_1} with h = max(Z, |X_i|) on the
primitive vector, so N(B) = #{primitive (Z, X), Z >= 1, h <= T} with
T = floor(B^{1/lambda_1}).  Counting by the common divisor d gives

    N = sum_{d <= T} mu(d) f(T//d),    f(q) = q (2q + 1)^n.

With s = isqrt(T), every d > s has T//d = q <= T//(s+1), and the d > s
with T//d = q form the block max(T//(q+1), s) < d <= T//q, whose mu-sum is
M(T//q) - M(max(T//(q+1), s)) for the Mertens function M (the max matters
at q = T//(s+1) alone), so

    N = sum_{d <= s} mu(d) f(T//d)
        + sum_{q <= T//(s+1)} f(q) (M(T//q) - M(max(T//(q+1), s))),

with mu(d) = M(d) - M(d-1) and M(d) = M(T//(T//d)) for d <= s: every M read
is an M(T//k), and _util.mertens_quotients(T) gives them all by one lookup
on an int64 array of k, in O(T^{2/3}) time from an int64 table of M(v) for
v <= T^{2/3} (a traced peak of 153 MB at T = 2^36, with the int8 mu
segment it sums): count_points refuses T > 2^36 (a table past 2^24
values) before sieving.

Each part is summed in int64 (_exact_sum) wherever a term's proved bound is
below 2^62.  The term of d is at most f(T//d), nonincreasing in d.  A block
holds at most T//q - T//(q+1) < T/(q(q+1)) + 1 values of d, so its term is
below f(q) (T/(q(q+1)) + 1) = (2q+1)^n T/(q+1) + f(q), increasing in q.
Every partial product of a term is at most its bound.  So each part has one
split point, found by bisection: the d <= min(T//(q_A + 1), s), with q_A the
largest q with f(q) < 2^62, and the q past the largest whose block bound is
below 2^62, are summed as Python ints.  The first part reaches them at
T = 1518500250, 1048576 and 27555 on P1, P2 and P3, the second at
T = 536890608 on P3 (past 2^36 on P1 and P2), so at the bench T (707106,
669432 and 562341) only P3's d <= 20 are Python ints.

The float root.  BlP2-1's fiber bounds and BlP2-2's torsor ends are the
floor of the root r of c t^e = B in t > 0, for arrays of c > 0 and one
exponent e != 0 (its ceiling for the decreasing t -> c t^e, e < 0), and
_float_root takes them all from y = exp(log_rhs / e), log_rhs = log B
- log c.  Lemma.  Let log_rhs be the float64 value of log num - log den
(B = num/den, math.log of the Python ints) minus sum_j fl(m_j) log a_j
(np.log of the int64 a_j, exact as float64) for log c = sum_j m_j log a_j,
with positive integers a_j < 2^53 and rationals m_j, added in any order
with at most eight roundings of a sum; let
S = log num + log den + sum_j |m_j| log a_j and C >= (1 + S)/4 with
C/|e| <= 2^40.  Let u = 2^-53 and assume math.log, np.log and np.exp
within 4 ulp (ulp(x) <= 2u|x|).  Then with delta = 2^-40 (1 + C/|e|) the
floats fl(y fl(1 - delta)) and fl(y fl(1 + delta)) bracket r.  Proof.  An
integer n converts to a float within relative u, which moves its log by at
most u, and the log adds 8u log n; a term fl(m_j) log a_j is off by
8u |m_j| log a_j from np.log, u from rounding m_j and u from the product,
10.01u |m_j| log a_j in all.  Every partial sum is at most 1.01 (1 + S) in
size, so the roundings of the sums add at most 8.1u (1 + S), and log_rhs
is within 10.1u + 18.2u S < 19u (1 + S) <= 76u C of log(B/c), and at most
4.04 C in size.  Dividing by fl(e) and rounding the quotient add
2.01u |log_rhs / e| <= 8.2u C/|e|, so z = fl(log_rhs / fl(e)) is within
84.2u C/|e| <= 84.2 * 2^-13 of log r = log(B/c)/e, and y = fl(exp(z))
within relative 8u of exp(z): |y/r - 1| < 85.2u C/|e| + 8.1u
< 100u (1 + C/|e|).  delta is 81 times that, and the roundings of
1 -+ delta and of the products add 2u each.  So where the floors
(ceilings) of the two ends agree they are those of r, and where they
differ the prepared exact test _util.height_test bisects between them
(_util.last_true); the root clipped to [0, cap] ([1, cap + 1] for e < 0)
is as exact, and the upper end alone, so clipped, is an upper bound.

BlP2-1 (fiber strategy).  Group points by the reduced fiber coordinate
y = q/f, f >= 1, gcd(q, f) = 1, and write F = max(|q|, f).  There are
w_F = 3 fibers with F = 1 and w_F = 4*phi(F) with F >= 2 (_fiber_weights
at n = 1, the shell counts of P1; "The zeta sums" below).  On a fixed
fiber the primitive vector is (g*f, X, g*q) with g >= 1, gcd(g, X) = 1;
the generator heights are h_F = F and h_H = max(g*F, |X|), so with m_H = lambda_E
and m_F = lambda_D - lambda_E the height bound becomes max(g*F, |X|) <= T_F
where T_F is the largest integer M with M^{m_H} * F^{m_F} <= B (the float
root above, _blp21_fiber_bounds; T_F = T_1 at m_F = 0).  Writing
G_F = T_F // F, the fiber contributes

    w_F * sum_{e <= G_F} mu(e) * (G_F//e) * (2*(T_F//e) + 1)
        = w_F * (1 + 2 * sum_{e <= G_F} mu(e) * (G_F//e) * (T_F//e)),

since sum_{e <= G} mu(e) (G//e) = 1 for G >= 1 (each g <= G is counted by
sum_{e | g} mu(e)).  Since gF <= T_F iff (gF)^{m_H} F^{m_F} <= B iff
g^{m_H} F^{lambda_D} <= B, G_F >= 1 iff F^{lambda_D} <= B iff
F <= f_max = floor(B^{1/lambda_D}), where the fibers end (every fiber
counted has G_F >= 1), and G_F is nonincreasing in F (m_H, lambda_D > 0):
for each e the fibers with G_F >= e form a prefix of 1, ..., f_max.  T_F is
monotone in F, nonincreasing when m_F >= 0 and nondecreasing otherwise.

The central fiber.  Lemma.  F = 1 holds 3 N_P1(T_1) points, N_P1 the
Moebius sum _pn_count(1, T_1).  Proof.  Its three fibers y = 0, 1, -1 each
carry the primitive (g, X), g >= 1, with h_F = 1, h_H = max(g, |X|) <= T_1.

At f_max = 1 the count is the central fiber's alone.  Otherwise the pairs
(F, e), F >= 2, with e <= G_F are split at E0, the smallest e with
#{F >= 2 : G_F > e} <= e, so 1 <= E0 <= G_2; E0 is about B^{1/5} at
lambda = rho (G_F ~ sqrt(B / F^3)) and sqrt(B) at (1, 1).  Both parts read
one int8 _util.mu_segment over 1 <= e <= G_2.  For e <= E0 one NumPy pass
per e runs over the prefix of fibers F >= 2 with G_F >= e, with mu(e) from
the segment's first E0 values.  The e > E0 lie in the at most E0 fibers
with G_F > E0, and there the sum runs over the quotient blocks of T_F.
G_F//e = (T_F//e)//F, as both are floor(T_F / (F e)), so on the block
T_F//(q+1) < e <= T_F//q, where T_F//e = q, the terms add up to

    w_F * q * (q//F) * (M(T_F//q) - M(T_F//(q+1)))

with M the Mertens function.  q runs from T_F//(E0+1), whose block is cut
to start after E0, down to T_F//G_F, whose block ends at G_F: G_F = T_F//F
is itself a quotient of T_F, so T_F//(T_F//G_F) = G_F.  That is about
T_F / E0 rows per fiber: 33k rows in all for the 500k pairs at
lambda = rho, B = 1e11, laid out by _util.ragged in parts of 2^14, so a
part may end inside a fiber.  Every block end lies in [E0, G_2], so M
comes from the same segment: after the per-e passes it is cast to int32 and
overwritten by its running sums, M(k) at index k - 1, which int32 holds, and
their differences, as |M(k)| <= k <= G_2 <= 2^27.

The sums are exact in int64.  Every T_F, F >= 2, is at most
max(T_2, f_max) <= 2^28 + 1 under the memory guards below: when m_F >= 0,
T_F <= T_2 <= 2 G_2 + 1; when m_F < 0, T_F <= T_{f_max} <= f_max, as
M^{m_H} <= B f_max^{-m_F} < (f_max + 1)^{lambda_D} f_max^{m_H - lambda_D}
< (f_max + 1)^{m_H} (lambda_D < m_H) gives M < f_max + 1.  And w_F <= 4F.
A term of the per-e passes is |w_F mu(e) (G_F//e) (T_F//e)|
<= 4F (T_F / F) T_F = 4 T_F^2 < 2^62.  A block of q holds at most
T_F//q - T_F//(q+1) <= T_F / (q (q+1)) + 1 values of e, which bounds its
mu-sum, so its term is below 4F q (q/F) (T_F / q^2 + 1) = 4 (T_F + q^2):
at most 8 T_F when q^2 <= T_F, and in any case below 4 T_F + T_F^2 < 2^62,
since q <= T_F / (E0 + 1) <= T_F / 2 (E0 >= 1 where a fiber F >= 2 is).
Each partial product is at most its term.  Every pass has fewer than 2^31
terms (at most 2^14 rows, or f_max <= T_{f_max} fibers, since
G_{f_max} >= 1), and _exact_sum adds their high and low 32-bit halves
apart: under 2^31 * 2^30 and 2^31 * 2^32, both inside int64.  The weights
sum to less than 2 f_max^2 < 2^62.  The central fiber's sum is exact under
the Moebius sum's own T_1 <= 2^36, and its factor 3 a Python int product.

Memory: the fiber table (T_F, G_F, w_F) takes 24 bytes per fiber, and
the float estimate of T_F two float64 arrays more while it is built; the
central fiber's Mertens table of T_1 (at most 153 MB at T_1 = 2^36, above)
is freed, as _pn_count returns, before the mu segment is sieved, so the two
are never held at once; the segment takes 5 bytes per e in [1, G_2] while
it is sieved (an int32 product of its small primes, _util) and while it is
cast to its sums (int8 and int32), and 4 bytes after, as the sums are taken
in place; each chunk of rows a few int64 arrays of 2^14 entries.  No array
runs over the pairs or the rows, or over the e <= G_2 in int64 (1.66 MB
traced at lambda = rho, B = 1e11, and 6.43 MB at 1e13, G_2 = 1118033, with
Python 3.11 and NumPy 2.4).  At large f_max or G_2 the per-e passes over
the fibers (48 bytes a fiber: 474 MB at (1, 1), B = 1e7) or the segment
(at most 5 G_2 bytes: a peak RSS of 584 MB at rho, B = 1e17,
G_2 = 111803398) set the peak, so before any table is built the fiber sum
refuses f_max > 2^24 and G_2 > 2^27, about 0.7 GB each, and T_1 > 2^36,
the Moebius sum's limit.

BlP2-3 (box strategy), and the zeta sums of BlP2-2 and BlP2-3.  All
primitive vectors with h_std = max(Z, |X|, |Y|) <= R are scanned and
filtered by an exact height comparison.  Completeness of the box: the component heights multiply to
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

The box kernel.  _box_kernel decides the box in NumPy int64 and float64, a
block of whole Z-slices per pass: as many slices as hold _SLICE_BLOCK = 2^14
candidates, at least one.  Every generator system G of the catalog is the
section Z = (1, 0, ..., 0) and linear forms l in the X_i alone (the kernel
raises CapabilityError on any other system), so the gcd of G's section
values at (z, X) is gcd(z, g_G(X)), with g_G the gcd of the |l(X)|:
|l_i(X)| itself on a pencil {l_i, Z}, the gcd of the X_i on H.  g_G and
top_G, the largest |l(X)| of each system, are taken once over the (2R+1)^n
grid of the X_i, with the gcd of the grid (8 (2R+1)^n bytes each, two per
system and one for the grid), and so is a table logs[v] = log v for
1 <= v <= max_G Hmax_G (Hmax_G below).  Each block computes one table
t = gcd(0..max g, z) per slice z in one np.gcd call, at most 2R + 1 entries
a slice on the catalog (|X - Y| <= 2R).  t[g_G] divides z and every l(X),
hence max(top_G, z), so h_G = max(top_G, z) / t[g_G] exactly, and the block
reads the primitivity mask t[gcd(X)] == 1 and

    L = sum_{m_G != 0} m_G (logs[max(top_G, z)] - logs[t[g_G]])

by gathers alone: no candidate pays a gcd, a division or a log.  Let
u = 2^-53 and assume np.log and math.log are within 4 ulp (ulp(y) <= 2u|y|).
Both arguments are integers at most Hmax_G = max_l sum|coefficients of l| * R
(|X_i|, Z <= R), far below 2^53 since the table is in memory, so each
converts to float exactly and its log is off by at most 8u log Hmax_G; the
difference, between 0 and log Hmax_G, then by 17.01u log Hmax_G with its
rounding.  Rounding m_G and the product adds 2.01u |m_G| log Hmax_G, and the
sum over k <= 4 systems k u sum|m_G| log Hmax_G, at most
24u sum_G |m_G| (1 + log Hmax_G) in all.  log B = log(num) - log(den) is off
by at most 20u (1 + log num + log den), and rounding log B -+ delta by
u (log num + log den + delta).  The kernel takes the margin

    delta = 2^-40 (1 + log num + log den + sum_G |m_G| (1 + log Hmax_G)),

more than 300 times the sum of these errors: a candidate with
L < log B - delta has H < B, one with L > log B + delta has H > B, and every
candidate in between, every tie H = B among them, is decided exactly by
_util.height_test, prepared once per call: its scale, integer exponents and
powers of B are computed once, so a tie costs integer powers alone.  The
integer heights max(top_G, z) // t[g_G] are formed only for the primitive
rows with L <= log B + delta: the ties, which the exact test reads, and the
rows kept.  The kernel raises CapabilityError if some Hmax_G, which bounds
every section value, leaves int64.  count_points' box strategy counts the
kernel's points.

BlP2-2 (torsor strategy).  BlP2-2 is P^2 blown up at (1 : 0 : 0) and
(0 : 1 : 0), a toric surface, so its points are the integral points of its
universal torsor (Salberger, "Tamagawa measures on universal torsors and
points of bounded height on Fano varieties", Asterisque 251, 1998).  For a
primitive (Z, X, Y) with Z >= 1 put g1 = gcd(Y, Z) and g2 = gcd(X, Z).  A
common divisor of g1 and g2 divides Z, X and Y, so gcd(g1, g2) = 1 and

    Z = g1 g2 k,  X = g2 x,  Y = g1 y,  gcd(x, g1 k) = gcd(y, g2 k) = 1

(gcd(X, Z) = g2 gcd(x, g1 k)).  Conversely every g1, g2, k >= 1 and x, y
with gcd(g1, g2) = gcd(x, g1 k) = gcd(y, g2 k) = 1 give a primitive vector
(gcd(Z, X, Y) = gcd(g2, g1 y) = 1) whose two gcds are g1 and g2: the torsor
coordinates of a point are unique.  The generator heights are

    h_H = max(g1 g2 k, g2 |x|, g1 |y|),  h_1 = max(|y|, g2 k),  h_2 = max(|x|, g1 k),

h_1 from the pencil {Y, Z} and h_2 from {X, Z}.  Swapping X and Y swaps the
two pencils, so N(B) is symmetric in their exponents, and the count gives
the smaller one to Y: m_1 <= m_2.  Then e_x = m_H + m_2, e_y = m_H + m_1
and e_D = m_H + m_1 + m_2 are the Picard coordinates lambda_E of the two
exceptional curves and lambda_D, all positive.  With u = |x| / (g1 k) and
v = |y| / (g2 k),

    H = g1^{e_x} g2^{e_y} k^{e_D} S(u, v),
    S = max(1, u, v)^{m_H} max(1, v)^{m_1} max(1, u)^{m_2}.

S = 1 for u, v <= 1, and for u > 1 its least value over v is
u^{min(e_x, e_D)}: v <= 1 gives u^{e_x}, 1 < v <= u gives
u^{e_x} v^{m_1} >= u^{min(e_x, e_D)}, v > u gives v^{e_y} u^{m_2} > u^{e_D}.
So a triple (g1, g2, k) holds points only if g1^{e_x} g2^{e_y} k^{e_D} <= B
(k <= B^{1/e_D}, then g2, then g1), and its |x| stop at
g1 k (B / (g1^{e_x} g2^{e_y} k^{e_D}))^{1/min(e_x, e_D)}.

A row (g1, g2, k, s) stands for the x with max(|x|, g1 k) = s >= g1 k, whose
heights do not depend on the sign of x or, on the plateau s = g1 k, on x at
all: the row s = g1 k has weight #{|x| <= g1 k : gcd(x, g1 k) = 1}
= 2 phi(g1 k) + [g1 k = 1], a row s > g1 k weight 2 if gcd(s, g1 k) = 1
and 0 otherwise.  With t = |y|, t1 = g2 k and t2 = g2 s / g1 >= t1, the
heights are (max(g2 s, g1 t), max(t, t1), s), so H is

    the H of the heights (g2 s, t1, s), a constant,   for t <= t1,
    (g2 s)^{m_H} s^{m_2} t^{m_1}                        for t1 < t <= t2,
    g1^{m_H} s^{m_2} t^{e_y}                            for t > t2:

h_H cannot grow while h_1 is flat, as g1 t > g2 s >= g1 g2 k gives t > t1.
H is continuous in real t >= 0 and nonincreasing before t2 when m_1 <= 0,
nondecreasing when m_1 >= 0, and increasing after t2 (e_y > 0), whatever
the sign of m_H: the t with H <= B form one band t_lo <= |y| <= t_hi, from
the first nonempty piece of [0, t1], [t1 + 1, floor(t2)] and
[floor(t2) + 1, oo) to the last (_torsor_bands).  The y of the band prime
to g2 k number sum_{e | g2 k} mu(e) (c(t_hi, e) - c(t_lo - 1, e)), with
c(t, e) = 2 (t//e) + 1 the multiples of e in [-t, t] for t >= 0 and 0 for
t < 0; as sum_{e | n} mu(e) = [n = 1], a row adds its weight times

    2 sum_{e | g2 k} mu(e) (t_hi//e - (t_lo - 1)//e) - [g2 k = 1 and t_lo = 0],

the e from one table of the squarefree divisors of the n up to the largest
g2 k (_squarefree_divisors), and the plateau weights 2 phi(g1 k) + [g1 k = 1]
from one _util.jordan_segment up to the largest g1 k.

Every band end is exact.  At all integers g1, g2, k, s >= 1, t >= 0 the
heights above have H_alpha >= 1 (h_H / h_1 >= g1, h_H / h_2 >= g2 and
h_1 h_2 >= each term of h_H), so H >= h_H^{lambda_min} and H <= B forces
g1 g2 k, g2 s, g1 t <= R, the box radius above: the enumeration caps k, g2,
g1 and s there, every height whose log is taken is at most R, and no band
changes when its roots are clipped to [0, R] (floors) or [1, R + 1]
(ceilings).  A band end is the float root (above) of c t^e = B on its
piece, with C = 1 + log num + log den + (|m_H| + |m_1| + |m_2|)(1 + log R):
every log_rhs of the count sums log B and at most four terms m log a with
a <= R and the |m| adding up to at most 4 (|m_H| + |m_1| + |m_2|), so
1 + S <= 4C.  The constant piece compares its log H, within 19u C of its
value as in the lemma's proof, with log B within 2^-40 C, and the exact
test decides inside.  The ends of the enumeration of k, g2, g1 and s are
the float root's upper ends: upper bounds, which at worst add empty rows.

The sums are exact in int64, as the count refuses R >= 2^30.  A weight
is at most 2 g1 k + 1 <= 2R + 1 and |t_hi//e - (t_lo - 1)//e| <= R + 1, so
a term is below (2R + 1)(R + 1) < 2^62; the rows come in parts of 2^14
(_util.ragged, as BlP2-1's quotient blocks do), each row with at most 64
squarefree divisors (g2 k <= 2^18 has at most six prime factors), so
_exact_sum adds fewer than 2^31 terms.
Before any row is built the count refuses more than 2^18 triples, g1 k or
g2 k past 2^18 (the triples take a few int64 arrays each, the divisor table
about 0.6 n ln n entries for n up to the largest g2 k, the phi sieve a few
int64 arrays up to the largest g1 k) and more than 2^27 planned rows
(time).  At rho the plan has about 1.1 B rows:
B = 10^6 takes 0.24 s, 10^7 1.9 s and 10^8 21 s with a peak RSS of 51 MB
(2-core VM); 1.5 10^8 is refused by its rows, 10^9 by its triples.

The zeta sums.  The point side of the height zeta function lives here
too: zeta_partial sums H(x)^(-s) over the points with H <= B along the
same strategies and counts the points summed in the same pass (on BlP2-1
the fibers of the table _blp21_fibers builds for the count too; on BlP2-2
and BlP2-3 the box kernel's points, each block's heights H = num/den from
its generator heights as int64 products when they provably stay below
2^53); fourier.zeta_truncated adds the tail.

On P^n the sum runs over the primitive shells.  Of the vectors (Z, X) with
Z >= 1, c(m) = m (2m+1)^n - (m-1)(2m-1)^n = sum_k c_k m^k have
max(Z, |X_i|) = m, and each is d times a primitive vector of max m/d for
exactly one d | m, so by Moebius inversion the primitive shell F holds

    w_n(F) = sum_{d | F} mu(d) c(F/d) = sum_{k >= 1} c_k J_k(F) + c_0 [F = 1]

points (_fiber_weights), all of height F^{lambda_1}, with J_k(F) =
sum_{d | F} mu(d) (F/d)^k the Jordan totient (_util.jordan_segment) and
sum_{d | F} mu(d) = [F = 1].  c(m) is 4m - 1 on P1 (w_1 = 3, w_F = 4 phi(F),
the weights of BlP2-1's fibers), 12m^2 - 4m + 1 on P2 and
32m^3 - 12m^2 + 8m - 1 on P3.  With c = lambda_1 s the sum takes the terms
t_F = fl(w_F fl(F^-c)) of the shells F <= F_end (_pn_zeta_stop), computed
by NumPy _WEIGHT_CHUNK shells at a time, so that its memory does not grow
with B, and adds them by one math.fsum, which rounds their exact sum once.

The float sum.  Let r = 2^-53 and pow be within 4 ulp (8r, as the box
kernel assumes of log), and let K_n be the sum of the positive c_k
(4, 13 and 40 on P1, P2 and P3).  The loop refuses K_n F_end^n > 2^53 before
it starts, so every w_F <= c(F) <= K_n F^n converts to a float exactly; each
t_F is then within 9r(1 + r) t_F of w_F F^-c, and the float sum S within
r sum t_F + 9r(1 + r) T <= 11 r S of the exact sum T of its shells' terms.
Subnormal terms add at most F_end (2^53 + 1) 2^-1073 < 2^-990 in all
(F_end <= 2^25), far below r S (S >= w_1 = 3^n).

The tail.  Past F_end, w_F <= K_n F^n and x^(n-c) decreases (c > n + 1),
so the shells past F_end add at most K_n F_end^(n+1-c)/e, e = c - n - 1,
and pn_zeta_tail reports that times 1 + 2^-40, plus 16 r S.  The float
tail is within r(e ln F_end + 11) of its value (the rounding of e moves
F^-e by a factor e^(r e ln F)), under the 2^-40 it is raised by while
e < 10^4: F_end <= 2^25, and F_end <= 2 root when root >= 1, where
root^e = K_n 2^53/(16 3^n e) < 2^53/e (K_n <= 3^(n+1), the sum of the
absolute coefficients of m(2m+1)^n and (m-1)(2m-1)^n), so
e ln F_end < min(17.4 e, e ln 2 + 37 - ln e) < 7000.  Past that
F_end <= 2, where the tail is K_n/e or below K_n 2^-10000, inside the
slack of the 16 r term (5 r S >= 5 r 3^n), which also covers the last
addition.  F_end is about the first F whose tail bound is at most
16 3^n r, the float bound of a sum >= 3^n, past which no shell can move
the reported bound much; any stop is sound, as the tail is taken at it.

enumerate_points is the oracle: it yields the points of the loop _box_scan,
which decides each primitive candidate by the exact test alone and shares no
code with the kernel but the generator heights and that test.  On P^n and BlP2-1 every
H_alpha >= 1 as well, so the same box with radius B^{1/lambda_min} is sound
there, and the tests hold the Moebius, fiber and torsor strategies against
it.

Every strategy runs in the calling process and returns an exact integer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import chain, product
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import geometry, heights
from ._util import (CapabilityError, as_fraction, floor_frac_root, height_test, jordan_segment,
                    last_true, mertens_quotients, mu_segment, ragged, refuse_past)
from .geometry import VarietyModel
from .heights import RationalPoint

# Box candidate budgets: the loop oracle enumerate_points, and the NumPy kernel
# of count_points and zeta_partial (3.2e7 candidates take 1.1-1.5 s, 2-core VM).
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


def _check_box_budget(model: VarietyModel, R: int, budget: int = KERNEL_CANDIDATE_BUDGET) -> None:
    refuse_past(f"box scan of {model.id}: the number of candidates R (2R + 1)^{model.dim}",
                R * (2 * R + 1) ** model.dim, budget, "time")


def _box_scan(
    model: VarietyModel, lam: Sequence[Fraction], B: Fraction, R: int
) -> Iterator[tuple]:
    """Primitive (Z, X1, ..., Xn) with H <= B, |X_i| <= R and 1 <= Z <= R,
    Z ascending, then the X_i lexicographically: one exact height test
    (_util.height_test, prepared once per call) per primitive candidate.
    The oracle of _box_kernel."""
    leq = height_test(geometry.generator_exponents(model, lam), B)
    side = range(-R, R + 1)
    for z in range(1, R + 1):
        for xs in product(side, repeat=model.dim):
            coords = (z,) + xs
            if math.gcd(*coords) == 1 and leq(heights.generator_heights(model, coords)):
                yield coords


# Scale of the float margins: of the band around log B inside which
# _box_kernel and the torsor's constant piece decide exactly, and of the
# bracket of _float_root (module docstring, "The box kernel", "The float root").
_LOG_MARGIN = 2.0**-40
# Candidates one NumPy pass of _box_kernel decides: as many whole Z-slices as
# fit, at least one.
_SLICE_BLOCK = 2**14


def _section_bounds(model: VarietyModel, R: int) -> list[int]:
    """Hmax_G = max_l sum|coefficients of l| * R per system G, which bounds
    every section value |l(Z, X)| with |X_i| <= R, 1 <= Z <= R."""
    return [max(sum(map(abs, sec)) for sec in gen.sections) * R for gen in model.generators]


def _box_kernel(
    model: VarietyModel, lam: Sequence[Fraction], B: Fraction, R: int
) -> Iterator[tuple]:
    """The points of _box_scan, a block of whole Z-slices at a time.

    Yields (zs, xs, hs) per block of slices, in _box_scan's order: zs is
    the int64 array (k,) of the Z of the block's k points with H <= B, xs
    the int64 array (k, n) of their X_i and hs the int64 array
    (k, number of generator systems) of their generator heights h_G.  The
    (2R+1)^n grid of the X_i, its gcd and, per system, the gcd g_G and the
    largest |value| of its sections other than Z are built once (8 (2R+1)^n
    bytes each), and so is the log table (8 max Hmax_G bytes).  A block of
    b slices, b = max(1, _SLICE_BLOCK // (2R+1)^n), holds its gcd tables and
    a fixed number of float64 and bool arrays of its b (2R+1)^n candidates,
    and int64 arrays of its rows with L <= log B + delta alone (module
    docstring), never the whole box.

    Raises:
        CapabilityError: if the box holds more than KERNEL_CANDIDATE_BUDGET
            candidates (time), a system is not the section Z = (1, 0, ..., 0)
            and forms in the X_i alone, or a section value could leave int64
            (Hmax_G in the module docstring); all before any array is built.
    """
    _check_box_budget(model, R)
    unit_z = (1,) + (0,) * model.dim
    unfit = [gen.name for gen in model.generators if unit_z not in gen.sections
             or any(sec[0] for sec in gen.sections if sec != unit_z)]
    if unfit:
        raise CapabilityError(f"box kernel for {model.id}: systems {', '.join(unfit)}"
                              f" are not the section Z and forms in the X_i alone")
    m = geometry.generator_exponents(model, lam)
    leq = height_test(m, B)
    m_float = np.array([float(e) for e in m])
    h_max = _section_bounds(model, R)
    refuse_past(f"box kernel of {model.id}: the largest section value", max(h_max),
                np.iinfo(np.int64).max, "int64")
    log_num, log_den = math.log(B.numerator), math.log(B.denominator)
    log_b = log_num - log_den
    margin = _LOG_MARGIN * (
        1.0 + log_num + log_den
        + sum(abs(e) * (1.0 + math.log(h)) for e, h in zip(m_float, h_max))
    )
    side = 2 * R + 1
    grid = np.indices((side,) * model.dim, dtype=np.int64).reshape(model.dim, -1).T - R
    grid_gcd = np.gcd.reduce(np.abs(grid), axis=1)
    # logs[v] = log v for v <= max Hmax_G; logs[0] = 0 is never read.
    logs = np.log(np.maximum(np.arange(max(h_max) + 1), 1))
    # Per system, over the grid: the gcd g_G and the largest of the values
    # |l(X)| of its sections other than Z.
    systems = []
    for gen in model.generators:
        forms = np.array([sec[1:] for sec in gen.sections if sec != unit_z], dtype=np.int64)
        values = np.abs(forms.reshape(-1, model.dim) @ grid.T)
        systems.append((np.gcd.reduce(values, axis=0), values.max(axis=0, initial=0)))
    numbers = np.arange(max(int(grid_gcd.max()), *(int(g.max()) for g, _ in systems)) + 1,
                        dtype=np.int64)
    rows = max(1, _SLICE_BLOCK // len(grid))
    for z0 in range(1, R + 1, rows):
        zs = np.arange(z0, min(z0 + rows, R + 1), dtype=np.int64)
        table = np.gcd(numbers, zs[:, None])
        log_table = logs[table]
        log_h = np.zeros((len(zs), len(grid)))
        for (g, top), e in zip(systems, m_float):
            if e:
                term = np.take(logs, np.maximum(top, zs[:, None]))
                term -= np.take(log_table, g, axis=1)
                term *= e
                log_h += term
        # The rows not above the band, then their exact heights; the rows in
        # the band are decided by leq.
        kept = np.flatnonzero(np.take(table == 1, grid_gcd, axis=1) & (log_h <= log_b + margin))
        row, col = np.divmod(kept, len(grid))
        hs = np.stack([np.maximum(top[col], zs[row]) // table[row, g[col]]
                       for g, top in systems], axis=1)
        ties = np.flatnonzero(log_h.ravel()[kept] >= log_b - margin)
        if ties.size:
            ok = np.ones(len(kept), dtype=bool)
            ok[ties] = [leq(h) for h in hs[ties].tolist()]
            row, col, hs = row[ok], col[ok], hs[ok]
        yield zs[row], grid[col], hs


def _pn_count(n: int, T: int) -> int:
    """The Moebius sum on P^n: the d <= isqrt(T) one by one, the larger d
    over the quotient blocks, in int64 below the split points (module
    docstring)."""
    refuse_past(f"Moebius sum on P{n}: T", T, _PN_T_LIMIT, "memory")
    s = math.isqrt(T)
    top = T // (s + 1)
    quot = T // np.arange(1, s + 1, dtype=np.int64)
    # M(d) = M(T//(T//d)) for d <= s, then M(T//q) for q <= top.
    m = mertens_quotients(T)(np.concatenate((quot, np.arange(1, top + 1, dtype=np.int64))))
    mu = np.diff(m[:s], prepend=0)
    dm = m[s:] - np.append(m[s + 1 :], m[s - 1])

    def f(q):
        return q * (2 * q + 1) ** n

    # The terms d <= d_1 and q > q_1 may pass 2^62; the rest are int64.
    d_1 = min(T // (last_true(lambda q: f(q) < _TERM_LIMIT, T) + 1), s)
    q_1 = last_true(lambda q: f(q) * (T + q * (q + 1)) < _TERM_LIMIT * q * (q + 1), top)
    qs = np.arange(1, q_1 + 1, dtype=np.int64)
    total = _exact_sum(mu[d_1:] * f(quot[d_1:])) + _exact_sum(f(qs) * dm[:q_1])
    total += sum(mu_d * f(t) for mu_d, t in zip(mu[:d_1].tolist(), quot[:d_1].tolist()) if mu_d)
    return total + sum(f(q) * dm_q for q, dm_q in enumerate(dm[q_1:].tolist(), start=q_1 + 1))


def _float_root(log_rhs: np.ndarray, e: float, scale: float, cap, fits=None) -> np.ndarray:
    """The root of c t^e = B for an array of c (module docstring, "The float
    root"), as an int64 array: the largest integer t in [0, cap] with
    c t^e <= B when e > 0, the smallest in [1, cap + 1] when e < 0.

    log_rhs is the float64 array of log B - log c, which the root
    overwrites, scale the lemma's C and cap a number or an array.  fits(i, t)
    is the exact test c_i t^e <= B; without it the result is the upper end
    of the bracket, an upper bound.
    """
    y = np.divide(log_rhs, e, out=log_rhs)
    np.exp(y, out=y)
    delta = _LOG_MARGIN * (1.0 + scale / abs(e))
    rnd, low, high = (np.floor, 0, cap) if e > 0 else (np.ceil, 1, cap + 1)
    top = y * (1.0 + delta)
    rnd(np.clip(top, low, high, out=top), out=top)
    ends = top.astype(np.int64)
    if fits is None:
        return ends
    y *= 1.0 - delta
    rnd(np.clip(y, low, high, out=y), out=y)
    for i in np.flatnonzero(y != top).tolist():
        lo, span = int(y[i]), int(top[i] - y[i])
        if e > 0:  # the largest t with c t^e <= B
            ends[i] = lo + last_true(lambda q: fits(i, lo + q), span)
        else:  # the smallest t with c t^e <= B, past the q failing t
            ends[i] = lo + last_true(lambda q: not fits(i, lo + q - 1), span)
    return ends


def _blp21_fiber_bounds(lam: Sequence[Fraction], B: Fraction, fibers: np.ndarray) -> np.ndarray:
    """T_F, the largest M with M^{m_H} F^{m_F} <= B, for an int64 array of
    fibers whose T_F are below 2^62, as an int64 array: the float root
    (module docstring) with C = 1 + log num + log den + |m_F| (1 + log f), f
    the largest fiber, and the exact test at the heights (M, F).  At m_F = 0
    every T_F is T_1 = height_radius(B, m_H).  Beside the bounds it holds the
    root's float64 arrays, the one of log_rhs built here in place.
    """
    m_h, m_f = lam[1], lam[0] - lam[1]
    if m_f == 0:
        return np.full(len(fibers), height_radius(B, m_h), dtype=np.int64)
    log_num, log_den = math.log(B.numerator), math.log(B.denominator)
    log_rhs = fibers.astype(np.float64)
    np.log(log_rhs, out=log_rhs)
    log_rhs *= -float(m_f)
    log_rhs += log_num - log_den
    scale = 1.0 + log_num + log_den + abs(float(m_f)) * (1.0 + math.log(int(fibers.max())))
    leq = height_test((m_h, m_f), B)
    return _float_root(log_rhs, float(m_h), scale, np.inf, lambda i, t: leq((t, int(fibers[i]))))


# The torsor count's box radius stays below _T_LIMIT, so every term of its sum
# fits int64; the Moebius sum adds its terms below _TERM_LIMIT in int64
# (_exact_sum); the P^n zeta sum takes its shells in chunks of _WEIGHT_CHUNK.
# The memory limits on the Moebius sum's T (and BlP2-1's T_1) and the fiber
# sum's f_max and G_2 follow (module docstring).
_T_LIMIT = 2**30
_TERM_LIMIT = 2**62
_WEIGHT_CHUNK = 2**16
_PN_T_LIMIT = 2**36
_FIBER_LIMIT = 2**24
_SEGMENT_LIMIT = 2**27
# The zeta sums of P^n and BlP2-1 refuse more than _ZETA_STEP_LIMIT planned
# steps of their loops.
_ZETA_STEP_LIMIT = 2**25


def _shell_coefficients(n: int) -> list:
    """c_0, ..., c_n of c(m) = m (2m+1)^n - (m-1)(2m-1)^n = sum_k c_k m^k,
    the number of (Z, X) in Z^{n+1} with Z >= 1 and max(Z, |X_i|) = m."""
    up = [math.comb(n, j) << j for j in range(n + 1)]  # (2m+1)^n
    down = [u if (n - j) % 2 == 0 else -u for j, u in enumerate(up)]  # (2m-1)^n
    return [down[0]] + [down[k] + up[k - 1] - down[k - 1] for k in range(1, n + 1)]


def _fiber_weights(n: int, lo: int, hi: int) -> np.ndarray:
    """The int64 primitive shell counts w_n(F) for 1 <= lo <= F < hi: the
    number of primitive (Z, X) in Z^{n+1} with Z >= 1 and max(Z, |X_i|) = F,
    sum_{k >= 1} c_k J_k(F) + c_0 [F = 1] (module docstring).  At n = 1,
    w_1 = 3 and w_F = 4 phi(F), the reduced fibers q/f with max(|q|, f) = F.
    Exact in int64 while 3^(n+1) (hi - 1)^n < 2^63 (3^(n+1) bounds the sum
    of the |c_k|), which the guards of its callers keep."""
    coeffs = _shell_coefficients(n)
    w = sum(c * jordan_segment(lo, hi, k) for k, c in enumerate(coeffs) if k and c)
    if lo == 1 < hi:
        w[0] += coeffs[0]
    return w


def _exact_sum(terms: np.ndarray) -> int:
    """Exact sum of fewer than 2^31 int64 values, each below 2^62 in absolute
    value: the high and low 32-bit halves are summed apart, each within int64."""
    return (int((terms >> 32).sum()) << 32) + int((terms & 0xFFFFFFFF).sum())


def _blp21_fibers(lam: Sequence[Fraction], B: Fraction, f_max: int) -> tuple:
    """The fiber table (T, G, w) of the fibers F = 1, ..., f_max: int64
    arrays of T_F, G_F = T_F // F and w_F (module docstring), which the
    count and the zeta sum both read.

    Raises:
        CapabilityError: if f_max passes 2^24, T_1 passes 2^36 (the central
            fiber's Moebius sum) or G_2 passes 2^27 (the mu segment of the
            fibers F >= 2), all memory, before any table.  Under them every
            T_F, F >= 2, is at most max(T_2, f_max) <= 2^28 + 1, inside
            int64 (module docstring).
    """
    refuse_past("fiber sum on BlP2-1: the number of fibers f_max", f_max, _FIBER_LIMIT, "memory")
    refuse_past("fiber sum on BlP2-1: T_1", height_radius(B, lam[1]), _PN_T_LIMIT, "memory")
    t_2 = int(_blp21_fiber_bounds(lam, B, np.array([2], dtype=np.int64))[0])
    refuse_past("fiber sum on BlP2-1: G_2", t_2 // 2, _SEGMENT_LIMIT, "memory")
    fibers = np.arange(1, f_max + 1, dtype=np.int64)
    T = _blp21_fiber_bounds(lam, B, fibers)
    return T, T // fibers, _fiber_weights(1, 1, f_max + 1)


def _blp21_count(T: np.ndarray, G: np.ndarray, w: np.ndarray) -> int:
    """The fiber sum over the fiber table of _blp21_fibers: the central
    fiber F = 1 by P1's Moebius sum, the fibers F >= 2 split at E0, the
    e > E0 one row per quotient block of T_F, all reading mu and M from one
    mu segment over [1, G_2] (module docstring)."""
    central = 3 * _pn_count(1, int(T[0]))
    if len(T) == 1:
        return central
    T, G, w = T[1:], G[1:], w[1:]
    # G is nonincreasing, so #{F >= 2 : G_F > e} <= e first holds at the
    # first index e with G[e] <= e; 1 <= e0 <= G_2.
    drops = np.flatnonzero(G <= np.arange(len(G)))
    e0 = int(drops[0]) if len(drops) else len(G)
    # prefix[e - 1] = #{F >= 2 : G_F >= e} for e = 1, ..., e0 + 1.
    prefix = (len(G) - np.searchsorted(G[::-1], np.arange(1, e0 + 2))).tolist()
    mu = mu_segment(1, int(G[0]) + 1)
    s = 0
    for e, mu_e in enumerate(mu[:e0].tolist(), start=1):
        if mu_e:
            k = prefix[e - 1]
            s += mu_e * _exact_sum(w[:k] * (G[:k] // e) * (T[:k] // e))
    # M[k - 1] = M(k): the int32 cast summed in place, never beside a
    # second cast copy of the segment.
    M = mu.astype(np.int32)
    del mu
    np.cumsum(M, out=M)
    weights = int(w.sum())
    # The fibers with G_F > E0, each with its rows q = T_F//G_F, ...,
    # T_F//(E0+1); every block starts at lo >= E0 >= 1.
    k = prefix[e0]
    T, G, w = T[:k], G[:k], w[:k]
    q_low = T // G
    for f, q, _, _ in ragged(T // (e0 + 1) - q_low + 1, q_low):
        t = T[f]
        # The block T_F//(q+1) < e <= T_F//q, cut at E0 for q = T_F//(E0+1).
        lo = np.maximum(t // (q + 1), e0)
        s += _exact_sum(w[f] * q * (q // (f + 2)) * (M[t // q - 1] - M[lo - 1]))
    return central + weights + 2 * s


# The torsor count refuses more than _TORSOR_ROW_LIMIT planned rows (time), and
# past _TORSOR_TABLE_LIMIT entries its tables (memory): the triples
# (g1, g2, k), and the divisor table up to the largest g1 k and g2 k.
_TORSOR_ROW_LIMIT = 2**27
_TORSOR_TABLE_LIMIT = 2**18


def _squarefree_divisors(n_max: int) -> tuple:
    """(start, divs, mu): the squarefree divisors of n = 1, ..., n_max are
    divs[start[n - 1]:start[n]], ascending, and mu is mu(1..n_max) (int8)."""
    mu = mu_segment(1, n_max + 1)
    d = np.flatnonzero(mu) + 1
    owner, j = ragged(n_max // d, 1, whole=True)
    n = d[owner] * j
    order = np.argsort(n, kind="stable")
    start = np.cumsum(np.bincount(n, minlength=n_max + 1))
    return start, d[owner[order]], mu


def _torsor_count(model: VarietyModel, lam: Sequence[Fraction], B: Fraction, R: int) -> int:
    """N(B) on BlP2-2: the Moebius sums over the y-bands of the torsor rows
    (g1, g2, k, s), in int64 chunks (module docstring); R is the box radius.

    Raises:
        CapabilityError: if R reaches 2^30 (int64), the k, pairs (g2, k),
            triples (g1, g2, k) or the largest g1 k or g2 k pass 2^18
            (memory), or the planned rows 2^27 (time); all before any row.
    """
    m = geometry.generator_exponents(model, lam)
    m = (m[0], min(m[1:]), max(m[1:]))
    e_d = sum(m)
    # The exponents m_H, m_1, m_2, e_x, e_y, e_D and min(e_x, e_D) as floats.
    f_h, f_1, f_2, e_x, e_y, f_d = map(float, m + (m[0] + m[2], m[0] + m[1], e_d))
    e_s = min(e_x, f_d)
    log_num, log_den = math.log(B.numerator), math.log(B.denominator)
    log_b = log_num - log_den
    scale = 1.0 + log_num + log_den + (abs(f_h) + abs(f_1) + abs(f_2)) * (1.0 + math.log(R))
    on = f"torsor count on {model.id}:"
    refuse_past(f"{on} the box radius R + 1", R + 1, _T_LIMIT, "int64")
    K = min(height_radius(B, e_d), R)
    refuse_past(f"{on} the number of k", K, _TORSOR_TABLE_LIMIT, "memory")
    k = np.arange(1, K + 1, dtype=np.int64)
    n_g2 = _float_root(log_b - f_d * np.log(k), e_y, scale, R // k)
    refuse_past(f"{on} the number of pairs (g2, k)", n_g2.sum(), _TORSOR_TABLE_LIMIT, "memory")
    pair, g2 = ragged(n_g2, 1, whole=True)
    k = k[pair]
    log_pair = log_b - e_y * np.log(g2) - f_d * np.log(k)
    n_g1 = _float_root(log_pair.copy(), e_x, scale, R // (g2 * k))
    refuse_past(f"{on} the number of triples (g1, g2, k)", n_g1.sum(), _TORSOR_TABLE_LIMIT,
                "memory")
    triple, g1 = ragged(n_g1, 1, whole=True)
    keep = np.gcd(g1, g2[triple]) == 1
    g1, triple = g1[keep], triple[keep]
    g2, k, log_pair = g2[triple], k[triple], log_pair[triple]
    a, n = g1 * k, g2 * k
    refuse_past(f"{on} the largest g1 k and g2 k", max(a.max(), n.max()), _TORSOR_TABLE_LIMIT,
                "memory")
    # The rows s = g1 k, ..., last: past last, H > B at every y.
    last = _float_root(e_s * np.log(a) + log_pair - e_x * np.log(g1), e_s, scale, R // g2)
    counts = np.maximum(last - a + 1, 0)
    refuse_past(f"{on} the number of rows (g1, g2, k, |x|)", int(counts.sum()), _TORSOR_ROW_LIMIT,
                "time")
    start, divs, mu = _squarefree_divisors(int(n.max()))
    # The plateau weights #{|x| <= g1 k : gcd(x, g1 k) = 1} = 2 phi(g1 k) + [g1 k = 1].
    plateau = 2 * jordan_segment(1, int(a.max()) + 1, 1)[a - 1] + (a == 1)
    bands = _torsor_bands(height_test(m, B), (f_h, f_1, f_2, e_y), log_b, scale, R)
    out = 0
    for f, s, _, _ in ragged(counts, a):
        w = np.where(s == a[f], plateau[f], 2 * (np.gcd(s, a[f]) == 1))
        live = np.flatnonzero(w)
        f, s, w = f[live], s[live], w[live]
        t_lo, t_hi = bands(g1[f], g2[f], k[f], s)
        live = np.flatnonzero(t_lo <= t_hi)
        f, w, t_lo, t_hi = f[live], w[live], t_lo[live], t_hi[live]
        # Each row adds w (2 sum_{e | g2 k} mu(e) (t_hi//e - (t_lo - 1)//e)
        # - [g2 k = 1 and t_lo = 0]).
        lo = start[n[f] - 1]
        row, i = ragged(start[n[f]] - lo, lo, whole=True)
        e = divs[i]
        terms = w[row] * mu[e - 1] * (t_hi[row] // e - (t_lo[row] - 1) // e)
        out += 2 * _exact_sum(terms) - int(w[(n[f] == 1) & (t_lo == 0)].sum())
    return out


def _torsor_bands(leq, m: tuple, log_b: float, scale: float, R: int):
    """The function (g1, g2, k, s) -> (t_lo, t_hi) on int64 arrays of torsor
    rows: the band t_lo <= |y| <= t_hi where H <= B (empty if t_lo > t_hi),
    from its three pieces (module docstring).  leq is the exact height test
    of the generator heights, m the floats of (m_H, m_1, m_2, m_H + m_1),
    scale that of the float margins, R the box radius."""
    m_h, m_1, m_2, e_y = m
    margin = _LOG_MARGIN * scale

    def bands(g1, g2, k, s) -> tuple:
        x, t1 = g2 * s, g2 * k
        t2 = x // g1
        log_s, log_x = np.log(s), np.log(x)
        # 0 <= t <= t1: H is that of the heights (g2 s, g2 k, s).
        log_h = m_h * log_x + m_1 * np.log(t1) + m_2 * log_s
        a_ok = log_h < log_b - margin
        for i in np.flatnonzero(np.abs(log_h - log_b) <= margin).tolist():
            a_ok[i] = leq((int(x[i]), int(t1[i]), int(s[i])))
        # t > t2: the heights (g1 t, t, s), H = g1^m_H s^m_2 t^(m_H + m_1).
        c_hi = _float_root(log_b - (m_h * np.log(g1) + m_2 * log_s), e_y, scale, R,
                           lambda i, t: leq((int(g1[i]) * t, t, int(s[i]))))
        # t1 < t <= t2: the heights (g2 s, t, s), H = (g2 s)^m_H s^m_2 t^m_1.
        b_lo, b_hi = t1 + 1, t2
        if m_1:
            b_c = _float_root(log_b - (m_h * log_x + m_2 * log_s), m_1, scale, R,
                              lambda i, t: leq((int(x[i]), t, int(s[i]))))
            if m_1 > 0:
                b_hi = np.minimum(t2, b_c)
            else:
                b_lo = np.maximum(b_lo, b_c)
        else:
            b_hi = np.where(a_ok, t2, t1)
        b_ok = b_lo <= b_hi
        t_lo = np.where(a_ok, 0, np.where(b_ok, b_lo, t2 + 1))
        t_hi = np.where(t2 < c_hi, c_hi, np.where(b_ok, b_hi, np.where(a_ok, t1, -1)))
        return t_lo, t_hi

    return bands


def _outer_range(model: VarietyModel, lam, B: Fraction) -> tuple:
    """(strategy, outer loop end) for the model's counting strategy, which is
    its kind: "pn" (Moebius) and "fiber" up to their own ends, "box" and
    "torsor" up to the box radius."""
    if model.kind in ("box", "torsor"):
        return model.kind, _box_radius(model, lam, B)
    return model.kind, height_radius(B, lam[0])


def count_points(model: VarietyModel, lam, B) -> int:
    """Exact number of affine rational points with H(x; lambda) <= B.

    Args:
        model: catalog entry.
        lam: interior Picard vector (all coordinates positive rationals).
        B: height bound; values below 1 return 0 by convention.

    Returns:
        The exact count as a Python int.

    Raises:
        CapabilityError: if a box scan would exceed KERNEL_CANDIDATE_BUDGET,
            or the Moebius, fiber or torsor sum would pass its int64, memory
            or time limits (README, "Limits"), before the work starts.
    """
    vals = geometry.require_interior(model, lam)
    B = as_fraction(B)
    if B < 1:
        return 0
    strategy, end = _outer_range(model, vals, B)
    if end < 1:
        return 0
    if strategy == "pn":
        return _pn_count(model.dim, end)
    if strategy == "fiber":
        return _blp21_count(*_blp21_fibers(vals, B, end))
    if strategy == "torsor":
        return _torsor_count(model, vals, B, end)
    return sum(len(xs) for _, xs, _ in _box_kernel(model, vals, B, end))


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
    _check_box_budget(model, R, DEFAULT_CANDIDATE_BUDGET)
    for coords in _box_scan(model, vals, B, R):
        yield RationalPoint(coords)


def _pn_zeta_stop(n: int, c: float, end: int) -> tuple:
    """(F_end, K_n): the last shell of the P^n zeta sum at c = lambda_1 s
    over the shells 1..end, and K_n, the sum of the positive c_k.  F_end is
    end for c <= n + 1, else the smaller of end and about the first F whose
    tail bound K_n F^(n+1-c)/(c - n - 1) is at most 16 3^n 2^-53, the float
    bound of a sum >= w_1 = 3^n (module docstring).  Any stop >= 1 is sound,
    as the reported tail is taken at it, so a float root serves."""
    K = sum(max(c_k, 0) for c_k in _shell_coefficients(n))
    e = c - (n + 1)
    if e <= 0.0:
        return end, K
    log_root = min(math.log2(K / (16.0 * 3**n * 2.0**-53 * e)) / e, 1000.0)
    return min(end, max(1, math.ceil(2.0**log_root))), K


def pn_zeta_tail(model: VarietyModel, lam, s: float, B, partial: float) -> float:
    """The proved bound on |Z(s) - partial| for the sum partial that
    zeta_partial returns on P^n at s with lambda_1 s > n + 1:
    K_n F_end^(n+1-c)/(c - n - 1) (1 + 2^-40) for the shells past its stop
    F_end and 16 2^-53 partial for its float sum, c = lambda_1 s (module
    docstring, "The zeta sums"); lam is an interior class, as
    geometry.require_interior gives it.  Where the float c rounds to
    n + 1 or below although lambda_1 s > n + 1, the bound is inf."""
    n, c = model.dim, float(lam[0]) * s
    f_end, K = _pn_zeta_stop(n, c, height_radius(as_fraction(B), lam[0]))
    e = c - (n + 1)
    return (K * f_end ** -e / e * (1.0 + 2.0**-40) + 16.0 * 2.0**-53 * partial
            if e > 0 else math.inf)


def zeta_partial(model: VarietyModel, lam, s: float, B) -> tuple:
    """(sum of H(x; lambda)^(-s) over the points with H <= B, their number):
    the point side of fourier.zeta_truncated along the counting strategy.

    P^n sums its primitive shells F = 1..F_end, F_end from _pn_zeta_stop at
    c = lambda_1 s: w_n(F) points of height F^lambda_1 (_fiber_weights,
    _WEIGHT_CHUNK shells at a time, so the memory does not grow with B),
    each term fl(w_F fl(F^-c)) computed by NumPy and all of them added by
    one math.fsum, within 11 2^-53 of the sum (module docstring, "The zeta
    sums").  The count is that of the points summed.  The loop refuses
    more than _ZETA_STEP_LIMIT shells, and a weight bound K_n F_end^n past
    2^53, before it starts.

    BlP2-1 sums and counts the fibers of one table (_blp21_fibers, which
    refuses B past count_points' limits before the sum starts), the rest
    the points of _box_kernel with the generator heights it has
    computed, in the order of enumerate_points, each term x ** (-s) of a
    Python float x added left to right.  There H = prod_G h_G^m_G.
    When every m_G is an integer, H = num/den with num = prod h_G^up_G and
    den = prod h_G^down_G (up, down the positive and negative parts of m).
    Each h_G <= max|l| <= Hmax_G (_section_bounds), so num and den are at
    most prod Hmax_G^up_G and prod Hmax_G^down_G.  When both bounds are
    below 2^53, every partial product of the block's int64 products is
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
    if strategy == "pn":
        n, c = model.dim, float(vals[0]) * s
        end, K = _pn_zeta_stop(n, c, end)
        on = f"zeta sum on {model.id}:"
        refuse_past(f"{on} the number of fibers of its loop", end, _ZETA_STEP_LIMIT, "time")
        refuse_past(f"{on} the weight bound K_n F_end^n", K * end**n, 2**53, "float")
        counts = []

        def terms(lo: int) -> list:
            w = _fiber_weights(n, lo, min(lo + _WEIGHT_CHUNK, end + 1))
            counts.append(_exact_sum(w))
            return (w * np.arange(lo, lo + len(w), dtype=float) ** -c).tolist()

        partial = math.fsum(chain.from_iterable(map(terms, range(1, end + 1, _WEIGHT_CHUNK))))
        return partial, sum(counts)
    if strategy == "fiber":
        T, G, w = _blp21_fibers(vals, B, end)
        return _blp21_zeta_partial(vals, s, T, G, w), _blp21_count(T, G, w)
    m = geometry.generator_exponents(model, vals)
    up = [max(int(e), 0) for e in m]
    down = [max(-int(e), 0) for e in m]
    h_max = _section_bounds(model, end)
    exact = (all(e.denominator == 1 for e in m)
             and max(math.prod(map(pow, h_max, up)), math.prod(map(pow, h_max, down))) < 2**53)
    partial = 0.0
    n = 0
    for _, _, hs in _box_kernel(model, vals, B, end):
        if exact:
            hts = (np.prod(hs ** up, axis=1) / np.prod(hs ** down, axis=1)).tolist()
        else:
            hts = [float(math.prod(Fraction(g) ** e for g, e in zip(row, m)))
                   for row in hs.tolist()]
        for h in hts:
            partial += h ** (-s)
        n += len(hs)
    return partial, n


def _blp21_zeta_partial(lam, s: float, T: np.ndarray, G: np.ndarray, w: np.ndarray) -> float:
    """The point sum of zeta_partial on BlP2-1 over the fiber table (T, G, w).

    Points are grouped by the reduced fiber coordinate y = q/f with
    F = max(|q|, f) <= len(T) (w_F of them, _blp21_fibers) and
    within a fiber by (g, X) with g >= 1, gcd(g, X) = 1; the generator
    heights are h_F = F and h_H = max(g F, |X|), so each point contributes
    max(g F, |X|)^(-m_H s) F^(-m_F s).  The loop takes 1 + T_F - g F steps
    for each g <= G_F of fiber F, at most sum_F G_F T_F in all.

    Raises:
        CapabilityError: if sum_F G_F T_F passes 2^25, before the loop.
    """
    # G_1 T_1 = T_1^2 may pass int64 (T_1 <= 2^36); the other G_F T_F stay
    # below 2^56 (module docstring).
    refuse_past("zeta sum on BlP2-1: the number of steps of its loop over (g, X)",
                int(G[0]) * int(T[0]) + _exact_sum(G[1:] * T[1:]), _ZETA_STEP_LIMIT, "time")
    phi = [0, *jordan_segment(1, int(G[0]) + 1, 1).tolist()]
    m_h, m_f = lam[1], lam[0] - lam[1]
    c_h = float(m_h) * s
    c_f = float(m_f) * s
    total = 0.0
    for F, (t_cap, g_cap, weight) in enumerate(zip(T.tolist(), G.tolist(), w.tolist()), start=1):
        inner = 0.0
        for g in range(1, g_cap + 1):
            base = g * F
            # The plateau |X| <= g F, where h_H = g F: gF is a multiple of
            # g, so #{X : gcd(X, g) = 1} = 2 F phi(g) + [g = 1].
            inner += (2 * F * phi[g] + (g == 1)) * float(base) ** (-c_h)
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


def count_ladder(model: VarietyModel, lam, B_list) -> CountLadder:
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
        n = count_points(model, vals, b)
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
