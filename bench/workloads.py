"""The benchmark's workloads: seeded inputs, the ops that run them, their checks.

Each workload is a list of ops.  An op is one call into a public function that
a ``gacount`` subcommand makes; it is timed on its own and then checked.  The
ops of a workload run one after another in a single process (one closed-loop
client, ``workers=1``).

The seed draws the sizes of ``count`` and ``spectral`` from a narrow band
above their nominal values: a size is ``nominal * (1 + k/1000)`` with ``k``
drawn from ``0..BAND_PERMILLE``, and the default seed uses ``k = 0``.  The
band is narrow so that the work done by a pass hardly depends on the seed.
``constant`` runs the command defaults at every seed.  ``pins.json`` (written
by ``pin.py``) holds the exact outputs at every ``k`` of the band, so:

* every count must equal its pinned count at its ``k``, at every seed; each
  counted model is also checked against the box-scan oracle
  ``enumerate_points`` at a small seeded B, as acceptance check A10 does;
* predicted constants carry an error bound, so their intervals must contain
  the known value (2^n / zeta(n+1) for P^n and 96/pi^4 for BlP2-1, never the
  stated 72/pi^4 of acceptance check A3) or overlap the pinned interval;
* every ``poisson_check`` must report ``pass``, every ``global_fourier``
  interval must overlap its interval pinned at the nominal p_max, and the
  truncated zeta sum must equal its pinned sum at its ``k`` up to rounding;
* an op's relative error bound may not exceed its pinned value by more than
  ``REL_BOUND_SLACK``, so a speed-up bought by loosening a bound fails.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import mpmath

from gacount import enumeration, fourier, tamagawa

DEFAULT_SEED = 0
BAND_PERMILLE = 20
# A bound may grow by at most this factor over its pinned value.
REL_BOUND_SLACK = 1.25
# A truncated zeta sum is compared with its pinned sum to this relative
# tolerance, so that adding the same terms in another order still passes.
SUM_RTOL = 1e-12

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

# (op id, model, lambda or None for the anticanonical class, nominal B,
#  range of the small oracle bound).  Together these use all three counting
# strategies: Moebius (P^n), fiber (BlP2-1, both fiber-bound branches) and the
# box scan (BlP2-2/3).
COUNT_OPS = (
    ("P1", "P1", None, 5 * 10**11, (30, 80)),
    ("P2", "P2", None, 3 * 10**17, (30, 80)),
    ("P3", "P3", None, 10**23, (30, 80)),
    ("BlP2-1", "BlP2-1", None, 10**11, (30, 80)),
    ("BlP2-1.lam11", "BlP2-1", (1, 1), 10**4, (8, 16)),
    ("BlP2-2", "BlP2-2", None, 400, (30, 80)),
    ("BlP2-3", "BlP2-3", None, 200, (30, 80)),
)

# (op id, model, small_depth), as ``gacount constant --small-depth``; None is
# the per-model default.  BlP2-3 runs at depth 8 (about 1 s) instead of its
# default (17 at p = 2 and 11 at p = 3, about 33 s), which alone would fill a
# run and leave no median; the cube refinement at p = 2, 3 is the same code
# at any depth, and BlP2-1 covers it at the default depths.  BlP2-2 is left
# out: it uses the same mechanism as BlP2-1 and BlP2-3.
CONSTANT_OPS = (
    ("P1", "P1", None),
    ("P2", "P2", None),
    ("P3", "P3", None),
    ("BlP2-1", "BlP2-1", None),
    ("BlP2-3", "BlP2-3", 8),
)
# The ``gacount constant --pmax`` default.
CONSTANT_P_MAX = 10_000
# Op groups that take milliseconds: run.py samples them in extra cold starts
# (``passrun.py --short``), so that their median rests on enough passes.
SHORT_GROUPS = {"constant": ("pn",)}

# (op id, s, nominal bcut, a_cut, p_max) for fourier.poisson_check on P1.
POISSON_OPS = (
    ("poisson.s5", 5, 10**4, 1000, 1000),
    ("poisson.s2", 2, 10**6, 50, 1000),
)
# global_fourier on P2 at s = rho + 1 for every a in [0, GRID]^2; the trivial
# character a = 0 takes the exact good-prime factors (denef_local_factor),
# the others the two-term closed forms.
GLOBAL_GRID = 3
GLOBAL_P_MAX = 1000
# (op id, model, nominal bound) for zeta_truncated at s = ZETA_S.  Each seed
# band lies inside one step of the box radius (BlP2-2: R = 10 on [100, 121),
# BlP2-3: R = 10 on [50, 61)), so the seed hardly changes the work done.
ZETA_OPS = (
    ("zeta.BlP2-2", "BlP2-2", 100),
    ("zeta.BlP2-3", "BlP2-3", 58),
)
ZETA_S = 4

WORKLOADS = ("count", "constant", "spectral")


@dataclass(frozen=True)
class Op:
    """One timed call and the check of its output.

    ``check`` maps the call's output to ``(ok, detail, rel_bound)``, where
    ``rel_bound`` is the op's reported error bound over |value| (None for exact
    outputs and estimates).
    """

    id: str
    group: str  # "pn" (projective spaces) or "blowup"
    run: Callable[[], object]
    check: Callable[[object], tuple]


def jitter(nominal: int, k: int) -> int:
    """The size ``nominal * (1 + k/1000)``, rounded down."""
    return nominal + nominal * k // 1000


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def _group(model) -> str:
    return "blowup" if model.centers else "pn"


def _rel_ok(rel: float, pinned: float) -> bool:
    return rel <= pinned * REL_BOUND_SLACK


# ---------------------------------------------------------------------------
# Sizes drawn from the seed.  Draws happen in a fixed order, so one seed gives
# the same inputs everywhere.


def count_sizes(seed: int) -> dict:
    """op id -> (k, small oracle bound)."""
    rng = random.Random(seed)
    out = {}
    for op_id, _, _, _, (lo, hi) in COUNT_OPS:
        k = 0 if seed == DEFAULT_SEED else rng.randint(0, BAND_PERMILLE)
        out[op_id] = (k, rng.randint(lo, hi))
    return out


def spectral_sizes(seed: int) -> dict:
    """op id (or "global") -> k."""
    rng = random.Random(seed)
    keys = [op[0] for op in POISSON_OPS] + ["global"] + [op[0] for op in ZETA_OPS]
    return {key: 0 if seed == DEFAULT_SEED else rng.randint(0, BAND_PERMILLE)
            for key in keys}


def global_chars() -> list:
    return [(a1, a2) for a1 in range(GLOBAL_GRID + 1)
            for a2 in range(GLOBAL_GRID + 1)]


# ---------------------------------------------------------------------------
# Calls.  pin.py uses the same functions at every k of the band.


def count_call(model, lam, B: int) -> int:
    return enumeration.count_points(model, lam or model.rho, B)


def constant_call(model, p_max: int, small_depth: Optional[int]) -> dict:
    res = tamagawa.tamagawa_number(model, p_max=p_max, small_depth=small_depth)
    value = tamagawa.predicted_constant(model, result=res)
    err = res.tail_bound + res.small_prime_error
    # predicted = tau * c / (rank-1)!, so its bound scales the same way.
    return {"value": value, "bound": err * value / res.tamagawa,
            "rel": err / res.tamagawa}


def poisson_call(models, s, bcut: int, a_cut: int, p_max: int) -> dict:
    p1 = models["P1"]
    return fourier.poisson_check(p1, p1.rho, s, bcut, a_cut, p_max=p_max)


def global_call(models, a, p_max: int):
    p2 = models["P2"]
    return fourier.global_fourier(p2, a, tuple(r + 1 for r in p2.rho), p_max=p_max)


def zeta_call(model, B: int) -> float:
    partial, _tail_estimate = fourier.zeta_truncated(model, model.rho, ZETA_S, B)
    return partial


# ---------------------------------------------------------------------------
# Workloads.


def _count_ops(models, seed: int, pins: dict) -> list:
    sizes = count_sizes(seed)
    ops = []
    for op_id, mid, lam, nominal, _ in COUNT_OPS:
        model = models[mid]
        k, small_b = sizes[op_id]
        B = jitter(nominal, k)
        pin = pins["count"][op_id]

        def check(n, model=model, lam=lam, k=k, small_b=small_b, pinned=pin[k]):
            if n != pinned:
                return False, f"N = {n} != pinned {pinned} (k = {k})", None
            box = sum(1 for _ in enumeration.enumerate_points(
                model, lam or model.rho, small_b))
            fast = count_call(model, lam, small_b)
            if box != fast:
                return False, f"B = {small_b}: box {box} != count {fast}", None
            return True, f"N = {n}; oracle B = {small_b}: {fast}", None

        ops.append(Op(op_id, _group(model),
                      lambda model=model, lam=lam, B=B: count_call(model, lam, B),
                      check))
    return ops


def _constant_ops(models, seed: int, pins: dict) -> list:
    ops = []
    for op_id, mid, depth in CONSTANT_OPS:
        model = models[mid]
        pin = pins["constant"][op_id]
        if not model.centers:
            with mpmath.workdps(30):
                target = float(2**model.dim / mpmath.zeta(model.dim + 1))
            label = f"2^{model.dim}/zeta({model.dim + 1})"
        elif mid == "BlP2-1":
            target, label = 96.0 / math.pi**4, "96/pi^4"
        else:
            target, label = None, "pinned interval"

        def check(out, target=target, label=label, pin=pin):
            v, b = out["value"], out["bound"]
            if target is not None:
                inside = abs(v - target) <= b
            else:
                inside = abs(v - pin["value"]) <= b + pin["bound"]
            if not inside:
                return False, f"{v!r} +- {b:.3g} misses {label}", out["rel"]
            if not _rel_ok(out["rel"], pin["rel"]):
                return False, f"rel bound {out['rel']:.3g} > pinned {pin['rel']:.3g}", out["rel"]
            return True, f"{v:.9f} +- {b:.2e} contains {label}", out["rel"]

        ops.append(Op(op_id, _group(model),
                      lambda model=model, depth=depth: constant_call(model, CONSTANT_P_MAX, depth),
                      check))
    return ops


def _spectral_ops(models, seed: int, pins: dict) -> list:
    sizes = spectral_sizes(seed)
    ops = []
    for op_id, s, bcut, a_cut, p_max in POISSON_OPS:
        B = jitter(bcut, sizes[op_id])
        pin = pins["spectral"][op_id]

        def check(r, pin=pin):
            rel = r["combined_bound"] / abs(r["rhs"])
            if r["pass"] is not True:
                return False, f"|lhs-rhs| = {r['abs_diff']:.3g} > {r['combined_bound']:.3g}", rel
            if not _rel_ok(rel, pin["rel"]):
                return False, f"rel bound {rel:.3g} > pinned {pin['rel']:.3g}", rel
            return True, f"|lhs-rhs| = {r['abs_diff']:.3g} <= {r['combined_bound']:.3g}", rel

        ops.append(Op(op_id, "pn",
                      lambda s=s, B=B, a_cut=a_cut, p_max=p_max:
                      poisson_call(models, s, B, a_cut, p_max),
                      check))

    p_max = jitter(GLOBAL_P_MAX, sizes["global"])
    global_pins = pins["spectral"]["global"]

    def global_check(values):
        rel = max(g.error_bound / abs(g.value) for g in values)
        for a, g in zip(global_chars(), values):
            ref = global_pins[f"{a[0]},{a[1]}"]
            gap = abs(g.value - complex(ref["re"], ref["im"]))
            if gap > g.error_bound + ref["bound"]:
                return False, f"a = {a}: {g.value} +- {g.error_bound:.3g} misses the pinned interval", rel
            if not _rel_ok(g.error_bound / abs(g.value), ref["rel"]):
                return False, f"a = {a}: rel bound {g.error_bound / abs(g.value):.3g} > pinned {ref['rel']:.3g}", rel
        return True, f"{len(values)} intervals overlap their pinned intervals", rel

    ops.append(Op("global.P2", "pn",
                  lambda: [global_call(models, a, p_max) for a in global_chars()],
                  global_check))

    for op_id, mid, nominal in ZETA_OPS:
        k = sizes[op_id]
        B = jitter(nominal, k)

        def zeta_check(partial, k=k, pinned=pins["spectral"][op_id][k]):
            if abs(partial - pinned) > SUM_RTOL * abs(pinned):
                return False, f"partial sum {partial!r} != pinned {pinned!r} (k = {k})", None
            return True, f"partial sum {partial:.12f}", None

        ops.append(Op(op_id, "blowup",
                      lambda model=models[mid], B=B: zeta_call(model, B), zeta_check))
    return ops


def build(workload: str, seed: int, models: dict, short: bool = False) -> list:
    """The ops of one workload at one seed; with ``short``, only the ops of
    the workload's SHORT_GROUPS."""
    pins = load_pins()
    if workload == "count":
        ops = _count_ops(models, seed, pins)
    elif workload == "constant":
        ops = _constant_ops(models, seed, pins)
    elif workload == "spectral":
        ops = _spectral_ops(models, seed, pins)
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    if short:
        ops = [op for op in ops if op.group in SHORT_GROUPS.get(workload, ())]
    return ops
