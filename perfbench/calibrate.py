"""Record the reference GMIs that the benchmark's output checks compare to.

    python3 perfbench/calibrate.py

Writes perfbench/reference.json. For wdm_link and demap_burst it runs
N_SEEDS ops per size on seeds the benchmark does not use, and records per
demapper the mean GMI and the GMI standard error: the standard deviation
of the per-symbol penalty over sqrt(Ns), averaged over the ops. For
awgn_design it records the quadrature GMI of each format. Rerun it only
when a change is meant to alter GMI, and say so in the change.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(1, str(BENCH_DIR))

import numpy as np  # noqa: E402

import prs4d  # noqa: E402
import prs4d.constellation  # noqa: E402,F401
import prs4d.demapper  # noqa: E402,F401
import prs4d.harness  # noqa: E402,F401
from run import source_hash  # noqa: E402
from workloads import AWGN_FORMATS, REFERENCE_PATH, Workload  # noqa: E402

N_SEEDS = 12
CALIBRATION_SEED = -1  # benchmark runs take seeds >= 0


def penalty_se(capture: list):
    """Wrap gmi_from_llrs so each call appends its GMI standard error."""
    original = prs4d.demapper.gmi_from_llrs

    def wrapped(llrs, m):
        gmi = original(llrs, m)
        sign = 1.0 - 2.0 * np.asarray(llrs.bits)
        pen = (np.logaddexp(0.0, -sign * llrs.llrs) / math.log(2)).sum(axis=1)
        if abs((m - pen.mean()) - gmi) > 1e-9:
            raise AssertionError("penalty does not reproduce the GMI")
        capture.append(float(pen.std(ddof=1) / math.sqrt(pen.size)))
        return gmi

    return original, wrapped


def calibrate_run_point(name: str, size: str) -> dict:
    work = Workload(name, size, prs4d)
    gmis = {"iid": [], "cg": []}
    ses = {"iid": [], "cg": []}
    for index in range(N_SEEDS):
        capture = []
        original, wrapped = penalty_se(capture)
        prs4d.demapper.gmi_from_llrs = wrapped
        try:
            out = work.run_op(CALIBRATION_SEED, 0, index)
        finally:
            prs4d.demapper.gmi_from_llrs = original
        for kind, se in zip(out["gmi"], capture):
            gmis[kind].append(out["gmi"][kind])
            ses[kind].append(se)
        print(name, size, index, out["gmi"], flush=True)
    return {kind: {"mean": statistics.fmean(gmis[kind]),
                   "se": statistics.fmean(ses[kind]),
                   "seed_std": statistics.stdev(gmis[kind]),
                   "n_seeds": N_SEEDS}
            for kind in gmis}


def calibrate_awgn(size: str) -> dict:
    work = Workload("awgn_design", size, prs4d)
    out = {}
    for index in range(len(AWGN_FORMATS)):
        out.update(work.run_op(0, 0, index)["gmi"])
    return out


def main() -> int:
    ref = {"source_hash": source_hash()}
    for name in ("wdm_link", "demap_burst"):
        ref[name] = {size: calibrate_run_point(name, size)
                     for size in ("tiny", "full")}
    ref["awgn_design"] = {size: calibrate_awgn(size)
                          for size in ("tiny", "full")}
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    print(json.dumps(ref, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
