"""gacount benchmark: one closed-loop client, one fresh interpreter per pass.

    python3 bench/run.py --workload {count,constant,spectral} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  Each
pass is a new ``python3`` process (bench/passrun.py), because a gacount user
pays a cold start on every command and the package's in-process caches
(``fourier._ZETA_CACHE``, ``fourier._BRUTE_DIM1_CACHE``, the lru_cache on
``tamagawa._peel_data``) would otherwise stay warm and report cache hits as
speed-ups.  Passes run back to back, one at a time, for about ``--seconds``.

Times are in reference seconds.  On a shared machine the speed of a core
drifts by tens of percent within seconds, and process CPU time drifts with
it.  So each measured time is divided by the mean time of a fixed probe loop
that a timer runs in the same process while the measured code runs
(``passrun.probe``), and multiplied by ``REFERENCE_S``, the probe's time on
the machine where the benchmark was defined, unloaded.  A value is then the
time the work would take at that machine's unloaded speed.  Raw seconds are
printed and kept in the result file too.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json, each the
median over the run's passes.  After the full passes, short passes
(``passrun.py --short``) bring the number of cold starts up to
``MIN_COLD_STARTS``; each adds a set-up sample and, on ``constant``, a sample
of the millisecond P^n ops.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics (medians over the traced passes, in
raw seconds and counts) and the tracing overhead, traced minus untraced
``wall_s``.

Every metric is printed by name with its unit, then the environment, then one
JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run
whose outputs fail a check exits with code 1; a run that cannot start (no
``src/gacount`` next to this directory) exits with code 2 and prints no
result.  Raw per-pass data and the spans of the last traced pass go to
``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
PASS_SCRIPT = os.path.join(HERE, "passrun.py")
WORKLOADS = ("count", "constant", "spectral")
# Probe time on an unloaded 2-core 2.1 GHz Xeon VM, Python 3.11.7.
REFERENCE_S = 0.0020
# A run's set-up time, and the time of a workload's short ops, is the median
# of at least this many cold starts; runs with fewer full passes add short
# passes.
MIN_COLD_STARTS = 15
# A run whose passes hang is stopped after this long.
HARD_LIMIT_S = 170.0


class PassError(RuntimeError):
    """A pass process that failed to produce a result."""


def fail(msg: str) -> None:
    """Stop without a result (exit code 2)."""
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_pass(workload: str, seed: int, deadline: float, trace_out=None,
             short: bool = False) -> dict:
    """Start one pass process, wait for it and return its JSON result."""
    env = dict(os.environ)
    # One thread: keep numpy's BLAS from starting a pool at import.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, PASS_SCRIPT, "--root", ROOT, "--workload", workload,
           "--seed", str(seed)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if short:
        cmd.append("--short")
    timeout = max(1.0, deadline - time.perf_counter())
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassError(f"pass exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise PassError(f"pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_seconds(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_S / probe_s


def pass_metrics(p: dict) -> dict:
    """End-to-end values of one pass; times in reference seconds.

    Each span's time is scaled by the probes run while it ran.  A group's
    time (pn_s, blowup_s) is the sum over its ops and is present only if the
    pass ran one.  wall_s is set-up plus every op, without the probes and
    the output checks.
    """
    out = {"setup_s": reference_seconds(p["setup_s"], p["setup_probe_s"]),
           "peak_rss_mb": p["peak_rss_mb"]}
    for op in p["ops"]:
        op["ref_s"] = reference_seconds(op["s"], op["probe_s"])
        key = op["group"] + "_s"
        out[key] = out.get(key, 0.0) + op["ref_s"]
    out["wall_s"] = out["setup_s"] + sum(op["ref_s"] for op in p["ops"])
    out["raw_wall_s"] = p["setup_s"] + sum(op["s"] for op in p["ops"])
    return out


def environment(seed: int, versions: dict) -> dict:
    """nproc, interpreter and library versions, the source revision, seed."""
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "seed": seed, **versions}
    info["git_sha"] = "unavailable"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=60)
        if git.returncode == 0:
            info["git_sha"] = git.stdout.strip()
    # The checkout a benchmark runs in may not be a git repository, so the
    # sources are also identified by content.
    digest = hashlib.sha256()
    for base in ("src", "bench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".py", ".json", ".toml")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    info["source_sha256"] = digest.hexdigest()
    return info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "gacount", "__init__.py")):
        fail(f"no gacount sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_out = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")

    start = time.perf_counter()
    run_end = start + args.seconds
    hard_end = start + HARD_LIMIT_S
    plain, traced, short = [], [], []
    try:
        # Start another pass only while one more is expected to finish in
        # time, so a run measures for about --seconds.
        while True:
            want_trace = bool(args.trace) and len(traced) < len(plain)
            t0 = time.perf_counter()
            p = run_pass(args.workload, args.seed, hard_end,
                         trace_out if want_trace else None)
            p["pass_s"] = time.perf_counter() - t0
            p["metrics"] = pass_metrics(p)
            (traced if want_trace else plain).append(p)
            typical = statistics.median(q["pass_s"] for q in plain + traced)
            complete = not args.trace or traced
            if complete and time.perf_counter() + typical > run_end:
                break
        while not args.trace and len(plain) + len(short) < MIN_COLD_STARTS:
            q = run_pass(args.workload, args.seed, hard_end, short=True)
            q["metrics"] = pass_metrics(q)
            short.append(q)
    except PassError as exc:
        fail(str(exc))

    def median_of(passes: list, key: str) -> float:
        return statistics.median(q["metrics"][key] for q in passes
                                 if key in q["metrics"])

    all_ops = [op for p in plain + traced + short for op in p["ops"]]
    attempted = len(all_ops)
    failed = sum(1 for op in all_ops if not op["ok"])
    rels = [op["rel_bound"] for op in all_ops if op["rel_bound"] is not None]

    if args.trace:
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["bench.trace_overhead_s"] = (median_of(traced, "wall_s")
                                            - median_of(plain, "wall_s"))
    else:
        values = {key: median_of(plain, key)
                  for key in ("wall_s", "peak_rss_mb")}
        for key in ("setup_s", "pn_s", "blowup_s"):
            values[key] = median_of(plain + short, key)
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    env = environment(args.seed, plain[0]["versions"])
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced"
          f" and {len(traced)} traced passes, {len(short)} short passes;"
          f" median probe {statistics.median(op['probe_s'] for p in plain for op in p['ops']):.5f} s"
          f" (reference {REFERENCE_S} s)")
    for i, op in enumerate(plain[0]["ops"]):
        ref = statistics.median(p["ops"][i]["ref_s"] for p in plain)
        raw = statistics.median(p["ops"][i]["s"] for p in plain)
        print(f"  op {op['id']:<14} {ref:8.4f} ref s {raw:8.4f} raw s  "
              f"{'ok  ' if op['ok'] else 'FAIL'} {op['detail']}")
    for op in all_ops:
        if not op["ok"]:
            print(f"  FAILED {op['id']}: {op['detail']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"raw wall = {median_of(plain, 'raw_wall_s')!r} s (median, unscaled)")
    print(f"fail_frac = {failed / attempted!r} (failed {failed} of {attempted} ops)")
    if rels:
        print(f"rel_bound = {max(rels)!r} (largest error bound / |value| over the ops)")
    if args.trace:
        print(f"tracing overhead = {values['bench.trace_overhead_s']!r} s per pass"
              f" (traced wall_s {median_of(traced, 'wall_s'):.4f} s,"
              f" untraced {median_of(plain, 'wall_s'):.4f} s)")
    print("env " + json.dumps(env, sort_keys=True))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seconds=args.seconds,
                  trace=args.trace, env=env, passes=plain, traced_passes=traced,
                  short_passes=short)
    out_path = os.path.join(
        OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
