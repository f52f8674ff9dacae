"""prs4d benchmark: one run of one workload.

    python3 perfbench/run.py --workload wdm_link --seed 1 --seconds 14 --trace 0

Run from the root of a checkout. The run starts WORKERS fresh interpreters
one after another (allocator history moves wdm_link op times by up to
1.6x, so no op shares a process with another run). Each sets up, runs the
checked warm-up op, then measures ops for its share of --seconds.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones, which come from shims that record spans around the
program's public functions. Every metric is printed by name with its unit;
the last stdout line is the JSON result. Run details, per-op GMIs and spans
go to perfbench/out/. The exit code is nonzero, with no result printed,
when the program cannot be imported or run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKERS = 2
DEADLINE_S = 170.0
THREAD_VARS = ("PRS4D_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")
# Workers run one BLAS thread unless the caller says otherwise: on a shared
# 2-core host, two BLAS threads tripled the run-to-run spread of
# demap_burst op_s (IQR/median 0.14 vs 0.04 over 5 seeds) for a 5% gain.
BLAS_DEFAULTS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(BENCH_DIR))
from tracing import median_metrics  # noqa: E402
from workloads import NAMES  # noqa: E402


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout if it is a git repository, else "none"."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "prs4d").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_worker(args, worker: int, window: float, deadline: float, env: dict):
    """Start one worker, time its set-up up to READY, return its result."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--worker", str(worker), "--window", repr(window),
           "--trace", str(args.trace), "--size", args.size]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        if not select.select([proc.stdout], [], [],
                             max(0.0, deadline - time.monotonic()))[0]:
            raise RuntimeError(f"worker {worker} set-up passed the deadline")
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready.strip() != "READY":
        raise RuntimeError(f"worker {worker} exited with code {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def end_to_end(results, attempted, failed):
    measured = [op for r in results for op in r["ops"] if op["index"] > 0]
    return {
        "op_s": statistics.median(op["wall_s"] for op in measured),
        "cpu_s_per_op": statistics.median(op["cpu_s"] for op in measured),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "success_ratio": (attempted - failed) / attempted,
    }


def per_layer(results):
    traced = [op for r in results for op in r["ops"] if op["traced"]]
    plain = [op for r in results for op in r["ops"]
             if op["index"] > 0 and not op["traced"]]
    metrics = median_metrics([op["layers"] for op in traced])
    metrics.update({
        "proc.minor_faults_per_op": statistics.median(
            op["minor_faults"] for op in traced),
        "proc.sys_s_per_op": statistics.median(op["sys_s"] for op in traced),
        "proc.cpu_per_wall": statistics.median(
            op["cpu_s"] / op["wall_s"] for op in traced),
        "trace.overhead_ratio":
            statistics.median(op["wall_s"] for op in traced)
            / statistics.median(op["wall_s"] for op in plain),
        "machine.ref_fft_ms": statistics.median(
            p for r in results for p in r["ref_fft_ms"]),
    })
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long sizes for the self-test")
    args = ap.parse_args()

    if not (ROOT / "src" / "prs4d" / "__init__.py").is_file():
        return fail(f"no prs4d package under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    nproc = os.cpu_count() or 1
    worker_env = {**BLAS_DEFAULTS, **os.environ}
    env = {k: v for k, v in sorted(worker_env.items())
           if k in THREAD_VARS or k.startswith("MALLOC_")}
    for var in THREAD_VARS:
        if var in env and env[var].isdigit() and int(env[var]) > nproc:
            return fail(f"{var}={env[var]} asks for more than {nproc} cores")

    deadline = time.monotonic() + DEADLINE_S
    try:
        results = [run_worker(args, k, args.seconds / WORKERS, deadline,
                              worker_env) for k in range(WORKERS)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))

    ops = [op for r in results for op in r["ops"]]
    attempted = len(ops)
    failed = sum(1 for op in ops if op["errors"])
    values = (per_layer(results) if args.trace
              else end_to_end(results, attempted, failed))
    absent = results[0]["absent"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    provenance = dict(results[0]["provenance"])
    provenance.update({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "workers": WORKERS,
        "nproc": nproc, "cpu_model": cpu_model(), "git_commit": git_commit(),
        "source_hash": source_hash(), "env": env,
        "ref_fft_ms_start": results[0]["ref_fft_ms"][0],
        "ref_fft_ms_end": results[-1]["ref_fft_ms"][-1],
    })
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": provenance, "metrics": metrics, "absent": absent,
        "setup_s": [r["setup_s"] for r in results],
        "ops": [dict(op, worker=k) for k, r in enumerate(results)
                for op in r["ops"]],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(
            json.dumps([r["spans"] for r in results]))

    errors = [f"op {op['index']}: {e}" for op in ops for e in op["errors"]]
    for err in errors[:10]:
        print(f"FAILED {err}")
    if len(errors) > 10:
        print(f"FAILED ... and {len(errors) - 10} more, see {OUT_DIR}")
    n_measured = sum(1 for op in ops if op["index"] > 0 and not op["traced"])
    print(f"{args.workload} seed {args.seed}: {attempted} ops attempted, "
          f"{failed} failed, {n_measured} timed untraced ops")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    for name in absent:
        print(f"  absent: {name} (no such function in prs4d)")
    print("provenance: " + json.dumps(provenance, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
