"""Workload definitions: configs made from the seed, one op each, output checks.

Each workload calls only the public entry points ``harness.run_point``,
``demapper.awgn_gmi_reference`` and ``constellation.build_format``, looked up
as module attributes at call time so the tracing shims see every call.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# A correct op lands further than this many standard errors from the
# reference mean with probability below 1e-6.
Z_TOL = 5.0
# awgn_gmi_reference is a deterministic quadrature.
AWGN_TOL = 1e-9
# Gauss-Hermite order of the closure reference. Near 10 dB its quadrature
# error is 0.003 bit/4D (against 8 and 10 nodes), a tenth of the closure
# tolerance, at a third of the 8-node cost, which checking every op needs.
CLOSURE_NODES = 6

AWGN_FORMATS = ("pm8qam", "6b4d_2a8psk", "4d64prs")
AWGN_SNR_DB = 8.1

NAMES = ("wdm_link", "demap_burst", "awgn_design")


def op_seed(seed: int, worker: int, index: int) -> int:
    """Program seed of op `index` of worker `worker` in a run with `seed`."""
    tag = f"prs4d-bench/{seed}/{worker}/{index}".encode()
    return int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "big")


def run_point_config(name: str, size: str):
    """ExperimentConfig of a run_point workload at "full" or "tiny" size."""
    from prs4d.harness import ExperimentConfig

    if name == "wdm_link":
        # Paper WDM width (11 x 50 GHz, 45 GBd). One 80 km span in 1 km
        # steps keeps an op near 4 s; 8 dBm/ch puts it in the nonlinear
        # regime with GMI below saturation, where cg beats iid.
        if size == "tiny":
            return ExperimentConfig(
                format="4d64prs", n_channels=3, n_symbols=2**13, n_spans=1,
                step_km=10.0, launch_dbm=8.0, demapper="both")
        return ExperimentConfig(
            format="4d64prs", n_channels=11, n_symbols=2**13, n_spans=1,
            step_km=1.0, launch_dbm=8.0, demapper="both")
    if name == "demap_burst":
        # Paper symbol count, linear regime: demapping dominates.
        ns = 2**13 if size == "tiny" else 2**16
        return ExperimentConfig(
            format="4d64prs", n_channels=1, n_symbols=ns, n_spans=1,
            step_km=80.0, launch_dbm=-20.0, demapper="both")
    raise ValueError(f"{name} is not a run_point workload")


def awgn_nodes(size: str) -> int:
    return 3 if size == "tiny" else 8


class Workload:
    """One workload at one size: set up once, then run and check ops."""

    def __init__(self, name: str, size: str, prs4d):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.size = size
        self.prs4d = prs4d
        if name == "awgn_design":
            self.cfg = None
            self.config = {"formats": AWGN_FORMATS, "snr_db": AWGN_SNR_DB,
                           "method": "quadrature",
                           "n_nodes": awgn_nodes(size)}
            for fmt in AWGN_FORMATS:
                prs4d.constellation.build_format(fmt)
        else:
            self.cfg = run_point_config(name, size)
            self.config = dataclasses.asdict(self.cfg)
            self.constellation = prs4d.constellation.build_format(
                self.cfg.format, self.cfg.prs_rho, self.cfg.prs_theta,
                self.cfg.ring_ratio)

    @functools.cached_property
    def reference(self) -> dict:
        return json.loads(REFERENCE_PATH.read_text())[self.name][self.size]

    def config_hash(self) -> str:
        text = json.dumps(self.config, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def run_op(self, seed: int, worker: int, index: int) -> dict:
        """Run op `index` and return its GMIs keyed by demapper or format."""
        if self.cfg is None:
            fmt = AWGN_FORMATS[(seed + worker + index) % len(AWGN_FORMATS)]
            c = self.prs4d.constellation.build_format(fmt)
            gmi = self.prs4d.demapper.awgn_gmi_reference(
                c, AWGN_SNR_DB, "quadrature", n_nodes=awgn_nodes(self.size))
            return {"op_seed": None, "gmi": {fmt: gmi}, "m": c.m}
        s = op_seed(seed, worker, index)
        records = self.prs4d.harness.run_point(self.cfg, seed=s)
        return {"op_seed": s, "gmi": {r.demapper: r.gmi_bit4d for r in records},
                "sigma2": {r.demapper: r.sigma2 for r in records},
                "m": self.constellation.m}

    def check(self, out: dict) -> list[str]:
        """Reasons the op's outputs are wrong; empty when they are right."""
        errors = []
        for key, gmi in out["gmi"].items():
            if not (math.isfinite(gmi) and 0.0 <= gmi <= out["m"]):
                errors.append(f"{key}: GMI {gmi!r} outside [0, {out['m']}]")
                continue
            ref = self.reference[key]
            if self.cfg is None:
                tol = AWGN_TOL
                dev = abs(gmi - ref)
            else:
                tol = Z_TOL * ref["se"] * math.sqrt(1.0 + 1.0 / ref["n_seeds"])
                dev = abs(gmi - ref["mean"])
            if dev > tol:
                errors.append(f"{key}: GMI {gmi:.6f} is {dev:.3g} from the "
                              f"reference, tolerance {tol:.3g}")
        if self.name == "demap_burst" and not errors:
            errors += self.check_closure(out)
        return errors

    def check_closure(self, out: dict) -> list[str]:
        """Linear regime: iid GMI equals the AWGN reference at 1/(4 sigma^2)."""
        sigma2 = out["sigma2"]["iid"]
        snr_db = 10.0 * math.log10(1.0 / (4.0 * sigma2))
        ref = self.prs4d.demapper.awgn_gmi_reference(
            self.constellation, snr_db, "quadrature", n_nodes=CLOSURE_NODES)
        tol = Z_TOL * self.reference["iid"]["se"]
        dev = abs(out["gmi"]["iid"] - ref)
        if dev > tol:
            return [f"closure: iid GMI {out['gmi']['iid']:.6f} vs AWGN "
                    f"{ref:.6f} at {snr_db:.3f} dB, tolerance {tol:.3g}"]
        return []
