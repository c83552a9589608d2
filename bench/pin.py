"""Write bench/pins.json: the outputs that the benchmark's checks compare with.

Run from the repository root, on a commit whose outputs are trusted:

    python3 bench/pin.py

Counts and the truncated zeta sums are pinned at every ``k`` of the seed band
(``0..BAND_PERMILLE``), so every seed is checked exactly; intervals and
relative bounds are pinned at the nominal sizes.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from gacount import geometry  # noqa: E402

import workloads as w  # noqa: E402


def main() -> None:
    models = {mid: geometry.load_model(mid) for mid in geometry.MODEL_IDS}
    band = range(w.BAND_PERMILLE + 1)
    count = {}
    for op_id, mid, lam, nominal, _ in w.COUNT_OPS:
        count[op_id] = [w.count_call(models[mid], lam, w.jitter(nominal, k))
                        for k in band]
    constant = {}
    for op_id, mid, depth in w.CONSTANT_OPS:
        constant[op_id] = w.constant_call(models[mid], w.CONSTANT_P_MAX, depth)
    spectral = {}
    for op_id, s, bcut, a_cut, p_max in w.POISSON_OPS:
        r = w.poisson_call(models, s, bcut, a_cut, p_max)
        spectral[op_id] = {"rel": r["combined_bound"] / abs(r["rhs"])}
    spectral["global"] = {}
    for a in w.global_chars():
        g = w.global_call(models, a, w.GLOBAL_P_MAX)
        spectral["global"][f"{a[0]},{a[1]}"] = {
            "re": g.value.real, "im": g.value.imag, "bound": g.error_bound,
            "rel": g.error_bound / abs(g.value),
        }
    for op_id, mid, nominal in w.ZETA_OPS:
        spectral[op_id] = [w.zeta_call(models[mid], w.jitter(nominal, k))
                           for k in band]
    pins = {"count": count, "constant": constant, "spectral": spectral}
    with open(w.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {w.PINS_PATH}")


if __name__ == "__main__":
    main()
