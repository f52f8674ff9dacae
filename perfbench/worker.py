"""One fresh-interpreter share of a benchmark run.

Started by run.py, never imported. It imports prs4d from the checkout's
src/, builds the workload, runs and checks the warm-up op, prints READY,
then runs ops for its share of the measuring time. Its last stdout line is
a JSON object with per-op timings, GMIs, failures and (traced) spans.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(BENCH_DIR))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import prs4d  # noqa: E402
import prs4d.constellation  # noqa: E402,F401
import prs4d.demapper  # noqa: E402,F401
import prs4d.harness  # noqa: E402,F401
from tracing import Tracer, op_layer_metrics  # noqa: E402
from workloads import Workload  # noqa: E402

SPAN_LAYERS = ("constellation.", "txdsp.", "channel.", "rxdsp.", "demapper.",
               "harness.")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def ref_fft_ms() -> float:
    """Median time of a fixed 2^17-point complex FFT: a machine-speed probe."""
    x = np.random.default_rng(0).standard_normal(2**17) * (1 + 1j)
    times = []
    for _ in range(15):
        t = time.perf_counter()
        np.fft.fft(x)
        times.append(time.perf_counter() - t)
    return 1e3 * float(np.median(times))


def usage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime, r.ru_stime, r.ru_minflt


def timed_op(work: Workload, seed: int, worker: int, index: int,
             tracer: Tracer | None = None) -> dict:
    """Run one op, traced if a tracer is given, timed by wall clock and rusage.

    An op that raises is a failed op. Its outputs are checked later, after
    the measuring, so that checks add neither time nor memory to it.
    """
    with tracer.installed() if tracer else contextlib.nullcontext():
        u0, s0, f0 = usage()
        t0 = time.perf_counter()
        try:
            out, errors = work.run_op(seed, worker, index), []
        except Exception as exc:
            out, errors = None, [f"{type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - t0
        u1, s1, f1 = usage()
    return {"index": index, "traced": tracer is not None, "out": out,
            "wall_s": wall, "cpu_s": (u1 - u0) + (s1 - s0), "sys_s": s1 - s0,
            "minor_faults": f1 - f0, "errors": errors}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--worker", type=int, required=True)
    ap.add_argument("--window", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), required=True)
    args = ap.parse_args()

    if not Path(prs4d.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"prs4d imported from {prs4d.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    threads = blas_threads()
    if threads is not None and threads > (os.cpu_count() or 1):
        print(f"BLAS would start {threads} threads on {os.cpu_count()} cores",
              file=sys.stderr)
        return 2

    work = Workload(args.workload, args.size, prs4d)
    ops = [timed_op(work, args.seed, args.worker, 0)]
    print("READY", flush=True)

    probes = [ref_fft_ms()]
    tracer = Tracer() if args.trace else None
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = [m["name"] for m in spec["per_layer"]
                   if m["name"].startswith(SPAN_LAYERS)]
    t_end = time.perf_counter() + args.window
    index = 1
    while index == 1 or time.perf_counter() < t_end:
        if tracer is None:
            ops.append(timed_op(work, args.seed, args.worker, index))
        else:
            # the same op untraced and traced, alternating which runs first
            pair = {}
            for shimmed in ((False, True) if index % 2 else (True, False)):
                op = timed_op(work, args.seed, args.worker, index,
                              tracer if shimmed else None)
                if shimmed:
                    op["layers"] = op_layer_metrics(
                        tracer.ops[-1], layer_names, tracer.absent)
                pair[shimmed] = op
                ops.append(op)
            plain, shim = pair[False]["out"], pair[True]["out"]
            if plain is not None and (shim or {}).get("gmi") != plain["gmi"]:
                pair[True]["errors"].append(
                    f"traced GMIs {shim and shim['gmi']} differ from "
                    f"untraced {plain['gmi']}")
        index += 1
    probes.append(ref_fft_ms())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for op in ops:
        out = op.pop("out")
        # a traced op is checked by equality with its untraced twin
        if out is not None and not op["traced"]:
            op["errors"] += work.check(out)
        op["op_seed"] = out and out["op_seed"]
        op["gmi"] = out and out["gmi"]

    result = {
        "ops": ops,
        "ref_fft_ms": probes,
        "peak_rss_mb": peak_rss_mb,
        "absent": tracer.absent if tracer else [],
        "spans": tracer.ops if tracer else [],
        "provenance": {
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": threads,
            "config_hash": work.config_hash(), "config": work.config,
        },
    }
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
