"""Smoke test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

For each workload it runs run.py untraced and traced with seed 1, and
untraced with seed 2. It checks that every metric BENCHMARK.json names is
printed with its unit, that no op failed and no shim target is absent, that
the same seed gives identical GMIs and that another seed gives other ones.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from workloads import NAMES  # noqa: E402


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One tiny run: its JSON result line and the record it wrote."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}-tiny-seed{seed}-trace{trace}"
    record = json.loads((BENCH_DIR / "out" / f"{stem}.json").read_text())
    return result, record


def first_op_gmis(record: dict) -> dict:
    return next(op["gmi"] for op in record["ops"]
                if op["worker"] == 0 and op["index"] == 0)


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL  {what}", flush=True)
        sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in NAMES:
        records = {}
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            result, record = run(workload, seed, trace)
            records[seed, trace] = record
            tag = f"{workload} seed {seed} trace {trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{tag}: {result['failed']}/{result['attempted']} ops failed")
            check(not record["absent"], f"{tag}: no shim target is absent")
            wanted = spec["per_layer" if trace else "end_to_end"]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"]
                      and isinstance(got["value"], (int, float)),
                      f"{tag}: {m['name']} in {m['unit']}")
            print(f"ok    {tag}: {result['attempted']} ops, "
                  f"{len(wanted)} metrics with units", flush=True)
        same = first_op_gmis(records[1, 0]) == first_op_gmis(records[1, 1])
        check(same, f"{workload}: same seed, identical GMIs")
        differ = first_op_gmis(records[1, 0]) != first_op_gmis(records[2, 0])
        check(differ, f"{workload}: another seed, other GMIs")
        print(f"ok    {workload}: seed determinism", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
