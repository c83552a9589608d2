"""Spans around the calls into gacount's public functions, and the per-layer
metrics computed from them.

``Tracer.install`` replaces each listed function by a wrapper in every
``gacount`` module namespace that holds it, so calls through a module
attribute (``fourier.brute_padic_fourier``) and through a name bound by
``from ._util import vp`` are both seen.  ``uninstall`` restores them.

Timed functions get a span: id, parent span id, op id, name, start and end
(``time.perf_counter``).  A span's self time is its duration minus that of
its child spans.  A generator (``enumerate_points``) gets one span whose
duration is the time spent inside it, summed over its ``next`` calls.  The
hot leaves ``vp``, ``height_leq`` and ``section_value`` and the cheap
``divisor_multiplicities`` get a call counter only.  Spans stay in memory and
are written out by ``dump`` after the pass.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

from gacount import enumeration, geometry
from gacount._util import as_fraction

# module -> functions given a timed span.
TIMED = {
    "gacount.enumeration": ("count_points", "count_ladder"),
    "gacount.heights": ("global_height",),
    "gacount._util": ("mu_sieve", "phi_sieve", "primes_upto"),
    "gacount.fourier": ("brute_padic_fourier", "closed_form_good_prime",
                        "arch_fourier", "global_fourier", "zeta_truncated",
                        "poisson_check"),
    "gacount.tamagawa": ("tamagawa_number", "predicted_constant",
                         "archimedean_density", "denef_local_factor"),
    "gacount.geometry": ("load_model", "stratum_count"),
}
GENERATORS = {"gacount.enumeration": ("enumerate_points",)}
COUNTED = {
    "gacount._util": ("vp", "height_leq"),
    "gacount.heights": ("section_value",),
    "gacount.geometry": ("divisor_multiplicities",),
}
# Spans whose arguments and output feed a work counter.
KEEP_ARGS = {"enumeration.count_points", "enumeration.count_ladder",
             "fourier.brute_padic_fourier"}


def layer_name(module: str) -> str:
    """``gacount._util`` -> ``util``: metric names start with a letter."""
    return module.split(".")[-1].lstrip("_")


def count_points_work(model, lam, B) -> tuple:
    """(strategy, outer loop length, box candidates) of one count_points call.

    Asks enumeration the same question count_points asks it (``_outer_range``:
    the Moebius sum runs to T, the fiber sum to F_max, the box scan to the
    radius R of the sound standard box), so these counters follow whatever
    strategy the counted code picks.  A box scan has R (2R + 1)^n candidates.
    """
    B = as_fraction(B)
    if B < 1:
        return "none", 0, 0
    strategy, end = enumeration._outer_range(
        model, geometry.require_interior(model, lam), B)
    candidates = end * (2 * end + 1) ** model.dim if strategy == "box" else 0
    return strategy, end, candidates


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.op_id = None
        # [id, parent, op, name, start, end, (arguments, output) or None]
        self.spans = []
        self.child_s = []  # per span: summed duration of its children
        self.stack = []
        self.calls = defaultdict(lambda: [0])
        self._patched = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn):
        spans, child_s, stack = self.spans, self.child_s, self.stack
        keep = name in KEEP_ARGS
        sig = inspect.signature(fn) if keep else None

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            rec = [sid, parent, self.op_id, name, 0.0, 0.0, None]
            spans.append(rec)
            child_s.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec[4], rec[5] = t0, t1
                if parent >= 0:
                    child_s[parent] += t1 - t0
            if keep:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[6] = (dict(bound.arguments), out)
            return out

        return wrapper

    def _generator(self, name, fn):
        spans, child_s, stack = self.spans, self.child_s, self.stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            rec = [sid, parent, self.op_id, name, 0.0, 0.0, None]
            spans.append(rec)
            child_s.append(0.0)
            busy = 0.0
            items = 0
            start = perf_counter()
            it = fn(*args, **kwargs)
            try:
                while True:
                    stack.append(sid)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        break
                    finally:
                        busy += perf_counter() - t0
                        stack.pop()
                    items += 1
                    yield item
            finally:
                # The span's duration is the time spent inside the generator.
                rec[4], rec[5] = start, start + busy
                rec[6] = ({}, items)
                if parent >= 0:
                    child_s[parent] += busy

        return wrapper

    def _counter(self, name, fn):
        cell = self.calls[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every listed function in every gacount namespace holding it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "gacount" or n.startswith("gacount.")]
        for table, make in ((TIMED, self._timed), (GENERATORS, self._generator),
                            (COUNTED, self._counter)):
            for modname, names in table.items():
                owner = sys.modules[modname]
                for fname in names:
                    # A function a later version removes reads as never called.
                    orig = getattr(owner, fname, None)
                    if orig is None:
                        continue
                    wrapper = make(f"{layer_name(modname)}.{fname}", orig)
                    for mod in modules:
                        for attr, val in list(vars(mod).items()):
                            if val is orig:
                                setattr(mod, attr, wrapper)
                                self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def self_s(self, sid: int) -> float:
        rec = self.spans[sid]
        return rec[5] - rec[4] - self.child_s[sid]

    def per_layer(self) -> dict:
        """Per-layer metric name -> value (units and meaning in README.md)."""
        dur = defaultdict(float)
        self_t = defaultdict(float)
        ncalls = defaultdict(int)
        for rec in self.spans:
            name = rec[3]
            dur[name] += rec[5] - rec[4]
            self_t[name] += self.self_s(rec[0])
            ncalls[name] += 1
        m = {}
        outer = candidates = hits = 0
        rungs = points = 0
        brute = {key: {"calls": 0, "s": 0.0, "depth_sum": 0, "max_bound": 0.0}
                 for key in ("p23", "p5plus")}
        for rec in self.spans:
            name, kept = rec[3], rec[6]
            if kept is None:
                continue
            args, out = kept
            if name == "enumeration.count_points":
                strategy, end, cand = count_points_work(
                    args["model"], args["lam"], args["B"])
                outer += end
                if strategy == "box":
                    candidates += cand
                    hits += out
            elif name == "enumeration.count_ladder":
                rungs += len(args["B_list"])
            elif name == "enumeration.enumerate_points":
                points += out
            elif name == "fourier.brute_padic_fourier":
                b = brute["p23" if args["p"] in (2, 3) else "p5plus"]
                b["calls"] += 1
                b["s"] += rec[5] - rec[4]
                b["depth_sum"] += args["depth"]
                b["max_bound"] = max(b["max_bound"], out.error_bound)
        m["enumeration.count_points.calls"] = ncalls["enumeration.count_points"]
        m["enumeration.count_points.self_s"] = self_t["enumeration.count_points"]
        m["enumeration.count_points.outer"] = outer
        m["enumeration.box.candidates"] = candidates
        m["enumeration.box.hit_ratio"] = hits / candidates if candidates else 0.0
        m["enumeration.enumerate_points.points"] = points
        m["enumeration.enumerate_points.s"] = dur["enumeration.enumerate_points"]
        m["enumeration.count_ladder.rungs"] = rungs
        m["enumeration.count_ladder.s"] = dur["enumeration.count_ladder"]
        m["heights.global_height.calls"] = ncalls["heights.global_height"]
        m["heights.global_height.s"] = dur["heights.global_height"]
        m["heights.section_value.calls"] = self.calls["heights.section_value"][0]
        for fname in ("mu_sieve", "phi_sieve", "primes_upto"):
            m[f"util.{fname}.s"] = dur[f"util.{fname}"]
        m["util.height_leq.calls"] = self.calls["util.height_leq"][0]
        m["util.vp.calls"] = self.calls["util.vp"][0]
        for key, b in brute.items():
            for counter, value in b.items():
                m[f"fourier.brute_padic_fourier.{key}.{counter}"] = value
        for fname in ("closed_form_good_prime", "arch_fourier"):
            m[f"fourier.{fname}.calls"] = ncalls[f"fourier.{fname}"]
            m[f"fourier.{fname}.s"] = dur[f"fourier.{fname}"]
        m["fourier.global_fourier.calls"] = ncalls["fourier.global_fourier"]
        m["fourier.global_fourier.self_s"] = self_t["fourier.global_fourier"]
        m["fourier.zeta_truncated.self_s"] = self_t["fourier.zeta_truncated"]
        m["tamagawa.tamagawa_number.self_s"] = self_t["tamagawa.tamagawa_number"]
        m["tamagawa.archimedean_density.s"] = dur["tamagawa.archimedean_density"]
        m["tamagawa.denef_local_factor.calls"] = ncalls["tamagawa.denef_local_factor"]
        m["tamagawa.denef_local_factor.s"] = dur["tamagawa.denef_local_factor"]
        m["geometry.load_model.s"] = dur["geometry.load_model"]
        m["geometry.stratum_count.calls"] = ncalls["geometry.stratum_count"]
        m["geometry.stratum_count.s"] = dur["geometry.stratum_count"]
        m["geometry.divisor_multiplicities.calls"] = \
            self.calls["geometry.divisor_multiplicities"][0]
        return m

    def dump(self, path: str) -> None:
        """Write every span as JSON: id, parent, op, name, start, end, self_s."""
        rows = [{"id": r[0], "parent": r[1], "op": r[2], "name": r[3],
                 "start": r[4], "end": r[5], "self_s": self.self_s(r[0])}
                for r in self.spans]
        counters = {name: cell[0] for name, cell in self.calls.items()}
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counters": counters}, fh,
                      separators=(",", ":"))
