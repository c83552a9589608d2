"""One pass of a workload in a fresh interpreter; bench/run.py starts it.

    python3 bench/passrun.py --root DIR --workload NAME --seed N \
        --spawned-at T [--trace-out PATH] [--short]

``--spawned-at`` is the parent's ``time.perf_counter()`` just before it
started this process (a system-wide monotonic clock on Linux), so set-up time
runs from interpreter start to ready: importing the gacount command line and
everything it imports, then loading all six models.  The ops then run one
after another and are timed one by one.  Outputs are checked only after the
last op, outside the timed region.  A ``--short`` pass runs only the ops of
the workload's ``SHORT_GROUPS`` (none for most workloads, so it measures
set-up alone).  The pass prints one JSON object on standard output.

Speed probes.  The speed of a core on a shared machine drifts by tens of
percent within seconds, so every ``PROBE_EVERY_S`` a timer signal runs
``probe``, a fixed loop that does not touch gacount, and records how long it
took.  Each timed span (set-up, every op) is reported as its length without
the probes that ran inside it, together with the mean time of those probes:
the machine's speed while the span ran.  A span too short to hold a probe
takes the probes on either side of it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import sys
import time
from fractions import Fraction

PROBE_EVERY_S = 0.1
# (start, duration) of every probe, in time order.
PROBES: list = []


def probe(*_signal_args) -> None:
    """Time a fixed pure-Python loop and record it in PROBES.

    It mixes what the ops spend their time on (integer and big-integer
    arithmetic, gcd, Fraction arithmetic, dict stores, float powers) and takes
    about 2 ms on a 2.1 GHz Xeon.
    """
    t0 = time.perf_counter()
    acc = 0
    seen = {}
    for i in range(1, 4000):
        acc += math.gcd(i * 7919, 1 << 40) + (i * i) % 13
        seen[i & 1023] = acc
    f = Fraction(0)
    for i in range(1, 150):
        f += Fraction(1, i)
    x = 0.0
    for i in range(1, 2000):
        x += i ** -1.5
    PROBES.append((t0, time.perf_counter() - t0))


def span(start: float, end: float) -> tuple:
    """(seconds, probe seconds) of the span [start, end): its length without
    the probes run inside it, and the mean time of those probes (of the
    nearest probe on either side if none ran inside)."""
    inside = [d for t, d in PROBES if start <= t < end]
    seconds = end - start - sum(inside)
    if not inside:
        inside = ([d for t, d in PROBES if t < start][-1:]
                  + [d for t, d in PROBES if t >= end][:1])
    return seconds, sum(inside) / len(inside)


def main() -> int:
    signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--short", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import gacount.cli  # noqa: F401  (the cold start a gacount command pays)
    from gacount import geometry

    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.op_id = "setup"
    models = {mid: geometry.load_model(mid) for mid in geometry.MODEL_IDS}
    ready = time.perf_counter()
    probe()

    import mpmath
    import numpy
    import scipy

    import workloads

    versions = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                "mpmath": mpmath.__version__}
    ops = workloads.build(args.workload, args.seed, models, short=args.short)
    outputs = []
    for op in ops:
        if tracer:
            tracer.op_id = op.id
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # an op that raises counts as failed
            out, err = None, f"{type(exc).__name__}: {exc}"
        outputs.append((op, out, err, t0, time.perf_counter()))
    probe()
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer:
        tracer.uninstall()
        layers = tracer.per_layer()
        tracer.dump(args.trace_out)

    rows = []
    for op, out, err, t0, t1 in outputs:
        if err is None:
            try:
                ok, detail, rel = op.check(out)
            except Exception as exc:
                ok, detail, rel = False, f"check raised {type(exc).__name__}: {exc}", None
        else:
            ok, detail, rel = False, err, None
        seconds, probe_s = span(t0, t1)
        rows.append({"id": op.id, "group": op.group, "s": seconds,
                     "probe_s": probe_s, "ok": bool(ok), "detail": detail,
                     "rel_bound": rel})
    setup_s, setup_probe_s = span(args.spawned_at, ready)
    print(json.dumps({"setup_s": setup_s, "setup_probe_s": setup_probe_s,
                      "probes": len(PROBES), "peak_rss_mb": peak_rss_mb,
                      "ops": rows, "layers": layers, "versions": versions}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
