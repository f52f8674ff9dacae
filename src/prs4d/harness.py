"""Experiment orchestration: end-to-end runs and GMI sweep grids.

Defaults mirror the headline simulation setup (45 GBaud, roll-off 0.1,
2^16 symbols, 11 channels on a 50 GHz grid, 80 km spans with inline CDC
and 5 dB-NF EDFAs, 0.1 km SSFM steps). Desk-scale experiments override
symbol count, channel count, span count and step size.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import constellation as const
from . import demapper as dm
from . import rxdsp, txdsp
from .channel import FiberParams, LinkConfig, propagate_link

CSV_HEADER = ("launch_dbm,distance_km,n_channels,format,demapper,"
              "gmi_bit4d,ndr_gbps,seed,runtime_s")

VALID_FORMATS = ("pm8qam", "6b4d_2a8psk", "4d64prs")
VALID_DEMAPPERS = ("iid", "cg", "both")


@dataclass
class ExperimentConfig:
    """Flat configuration for a single transmission experiment."""

    format: str = "4d64prs"
    prs_rho: float = const.DEFAULT_PRS_RHO
    prs_theta: float = const.DEFAULT_PRS_THETA
    ring_ratio: float = 1.0 / 0.65
    n_channels: int = 11
    spacing_ghz: float = 50.0
    baud_gbd: float = 45.0
    rolloff: float = 0.1
    n_symbols: int = 2**16
    seed: int = 1234
    n_spans: int = 30
    span_km: float = 80.0
    step_km: float = 0.1
    alpha_db_km: float = 0.219
    disp_ps_nm_km: float = 4.255
    gamma_w_km: float = 1.464
    nf_db: float = 5.0
    launch_dbm: float | list = 0.0
    demapper: str = "both"
    phase_window: int = 128
    sps: int = 0  # 0 = auto (smallest power of two covering the WDM band)
    epsilon_reg: float = 1e-6
    ase_enabled: bool = True
    timings: bool = False

    def __post_init__(self):
        if self.format not in VALID_FORMATS:
            raise ValueError(f"format must be one of {VALID_FORMATS}")
        if self.demapper not in VALID_DEMAPPERS:
            raise ValueError(f"demapper must be one of {VALID_DEMAPPERS}")
        for name in ("n_channels", "n_symbols", "n_spans", "phase_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("spacing_ghz", "gamma_w_km", "alpha_db_km"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("baud_gbd", "span_km"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not 0 < self.step_km <= self.span_km:
            raise ValueError("step_km must be in (0, span_km]")
        if not 0 < self.rolloff <= 1:
            raise ValueError("rolloff must be in (0, 1]")
        powers = np.atleast_1d(np.asarray(self.launch_dbm, dtype=float))
        if powers.size == 0:
            raise ValueError("launch_dbm list must be non-empty")

    @property
    def baud_hz(self) -> float:
        return self.baud_gbd * 1e9

    @property
    def spacing_hz(self) -> float:
        return self.spacing_ghz * 1e9

    def effective_sps(self) -> int:
        if self.sps:
            return self.sps
        band = ((self.n_channels - 1) * self.spacing_hz
                + (1 + self.rolloff) * self.baud_hz)
        sps = 2
        while sps * self.baud_hz < 1.1 * band:
            sps *= 2
        return sps

    def fiber(self) -> FiberParams:
        return FiberParams(
            alpha_db_km=self.alpha_db_km,
            disp_ps_nm_km=self.disp_ps_nm_km,
            gamma_w_km=self.gamma_w_km,
            length_km=self.span_km,
        )

    def build_constellation(self) -> const.Constellation4D:
        return const.build_format(self.format, self.prs_rho, self.prs_theta,
                                  self.ring_ratio)


@dataclass
class ResultRecord:
    """One (config point, demapper) GMI measurement."""

    launch_dbm: float
    distance_km: float
    n_channels: int
    format: str
    demapper: str
    gmi_bit4d: float
    ndr_gbps: float
    seed: int
    runtime_s: float
    sigma2: float = field(default=0.0, compare=False)

    def csv_row(self) -> str:
        def g(v):
            return f"{v:.10g}"

        return ",".join([
            g(self.launch_dbm), g(self.distance_km), str(self.n_channels),
            self.format, self.demapper, g(self.gmi_bit4d), g(self.ndr_gbps),
            str(self.seed), g(self.runtime_s),
        ])


def derived_seed(master: int, *coords) -> int:
    """Stable per-grid-point seed: hash of the master seed and coordinates."""
    tag = repr((int(master),) + tuple(coords)).encode()
    return int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "big")


def run_point(cfg: ExperimentConfig, launch_dbm: float | None = None,
              seed: int | None = None) -> list[ResultRecord]:
    """Run one full TX -> link -> RX -> demap experiment.

    Evaluates the center WDM channel. Returns one record per requested
    demapper (iid, cg or both), deterministic for a fixed seed.
    """
    t0 = time.perf_counter()
    if launch_dbm is None:
        launch_dbm = float(np.atleast_1d(np.asarray(cfg.launch_dbm))[0])
    seed = cfg.seed if seed is None else seed

    c = cfg.build_constellation()
    sps = cfg.effective_sps()
    baud = cfg.baud_hz
    center = (cfg.n_channels - 1) // 2
    center_offset = (center - (cfg.n_channels - 1) / 2) * cfg.spacing_hz

    channels = []
    tx_center = None
    for ch in range(cfg.n_channels):
        bits = txdsp.generate_bits(derived_seed(seed, "bits", ch),
                                   cfg.n_symbols * c.m)
        indices, points = const.map_bits_to_symbols(bits, c)
        sig = txdsp.rrc_shape(points, sps, cfg.rolloff, baud=baud)
        sig = txdsp.set_mean_power(sig, launch_dbm)
        channels.append(sig)
        if ch == center:
            tx_center = (bits, indices, points)

    mux = txdsp.wdm_mux(channels, cfg.spacing_hz, sps * baud,
                        baud=baud, rolloff=cfg.rolloff)
    link = LinkConfig(span=cfg.fiber(), n_spans=cfg.n_spans,
                      step_km=cfg.step_km, edfa_nf_db=cfg.nf_db,
                      ase_enabled=cfg.ase_enabled,
                      seed=derived_seed(seed, "ase"))
    rx_sig = propagate_link(mux, link)

    rx = rxdsp.channel_select(rx_sig, center_offset, baud, cfg.rolloff)
    bits, indices, tx_points = tx_center
    rx = rxdsp.genie_phase_compensation(rx, tx_points, cfg.phase_window)
    # unbiased gain normalization: keeps clouds centered on the
    # constellation (the LS scale shrinks them by the relative noise power)
    rx, _ = rxdsp.genie_gain(rx, tx_points)
    batch = rxdsp.SymbolBatch(tx_bits=bits, tx_indices=indices,
                              tx_points=tx_points, rx_points=rx)

    sigma2 = dm.estimate_iid_sigma2(batch)
    wanted = ("iid", "cg") if cfg.demapper == "both" else (cfg.demapper,)
    records = []
    for kind in wanted:
        if kind == "iid":
            model = dm.NoiseModel.iid(sigma2)
        else:
            covs = dm.estimate_point_covariances(
                batch, c, epsilon=cfg.epsilon_reg * sigma2)
            model = dm.NoiseModel.cg(covs)
        llrs = dm.compute_llrs(batch, c, model)
        gmi = dm.gmi_from_llrs(llrs, c.m)
        runtime = time.perf_counter() - t0 if cfg.timings else 0.0
        records.append(ResultRecord(
            launch_dbm=launch_dbm,
            distance_km=cfg.n_spans * cfg.span_km,
            n_channels=cfg.n_channels,
            format=cfg.format,
            demapper=kind,
            gmi_bit4d=gmi,
            ndr_gbps=gmi * cfg.baud_gbd,
            seed=seed,
            runtime_s=runtime,
            sigma2=sigma2,
        ))
    return records


def _worker_count() -> int:
    env = os.environ.get("PRS4D_WORKERS")
    return max(1, int(env)) if env else 1


def _run_grid(tasks, workers=None):
    """Run (cfg, launch, seed) tasks, optionally in parallel, in order."""
    workers = _worker_count() if workers is None else workers
    if workers <= 1:
        return [run_point(*t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_star, tasks))


def _run_star(task):
    return run_point(*task)


def sweep_power(cfg: ExperimentConfig, powers, workers=None) -> list[ResultRecord]:
    """One run per launch power, each with an independent derived seed."""
    powers = list(powers)
    if not powers:
        raise ValueError("empty power list")
    tasks = [(cfg, float(p), derived_seed(cfg.seed, "power", float(p)))
             for p in powers]
    return [r for recs in _run_grid(tasks, workers) for r in recs]


def sweep_distance(cfg: ExperimentConfig, span_counts,
                   workers=None) -> list[ResultRecord]:
    """One run per span count at the configured launch power."""
    span_counts = list(span_counts)
    if not span_counts:
        raise ValueError("empty span-count list")
    launch = float(np.atleast_1d(np.asarray(cfg.launch_dbm))[0])
    tasks = [
        (replace(cfg, n_spans=int(n)), launch,
         derived_seed(cfg.seed, "spans", int(n)))
        for n in span_counts
    ]
    return [r for recs in _run_grid(tasks, workers) for r in recs]


def fit_optimum_power(powers: np.ndarray, gmis: np.ndarray) -> tuple[float, float]:
    """3-point quadratic fit around the grid maximum.

    Returns (optimum power, fitted GMI). Falls back to the grid value
    when the maximum sits on the grid edge or the fit is not concave.
    """
    powers = np.asarray(powers, dtype=float)
    gmis = np.asarray(gmis, dtype=float)
    k = int(np.argmax(gmis))
    if k == 0 or k == powers.size - 1:
        return float(powers[k]), float(gmis[k])
    p = powers[k - 1:k + 2]
    g = gmis[k - 1:k + 2]
    a, b, c0 = np.polyfit(p, g, 2)
    if a >= 0:
        return float(powers[k]), float(gmis[k])
    p_opt = -b / (2 * a)
    p_opt = float(np.clip(p_opt, p[0], p[-1]))
    return p_opt, float(a * p_opt**2 + b * p_opt + c0)


def sweep_channels(cfg: ExperimentConfig, channel_counts, powers=None,
                   workers=None) -> list[ResultRecord]:
    """Per channel count: sweep power, report GMI at the fitted optimum."""
    channel_counts = list(channel_counts)
    if not channel_counts:
        raise ValueError("empty channel-count list")
    if powers is None:
        powers = list(np.arange(-2.0, 4.01, 0.5))
    out = []
    for n_ch in channel_counts:
        cfg_n = replace(cfg, n_channels=int(n_ch),
                        seed=derived_seed(cfg.seed, "channels", int(n_ch)))
        recs = sweep_power(cfg_n, powers, workers)
        kinds = sorted({r.demapper for r in recs})
        for kind in kinds:
            series = sorted((r for r in recs if r.demapper == kind),
                            key=lambda r: r.launch_dbm)
            p = np.array([r.launch_dbm for r in series])
            g = np.array([r.gmi_bit4d for r in series])
            p_opt, g_opt = fit_optimum_power(p, g)
            tmpl = series[0]
            out.append(ResultRecord(
                launch_dbm=p_opt, distance_km=tmpl.distance_km,
                n_channels=int(n_ch), format=tmpl.format, demapper=kind,
                gmi_bit4d=g_opt, ndr_gbps=g_opt * cfg.baud_gbd,
                seed=cfg_n.seed, runtime_s=0.0,
            ))
    return out


def find_reach(records: list[ResultRecord], gmi_target: float) -> float:
    """Distance where GMI crosses the target, by linear interpolation.

    Records may arrive in any order; they are sorted by distance first.
    Raises if the target is not bracketed.
    """
    recs = sorted(records, key=lambda r: r.distance_km)
    for a, b in zip(recs, recs[1:]):
        lo, hi = sorted((a.gmi_bit4d, b.gmi_bit4d))
        if lo <= gmi_target <= hi:
            if a.gmi_bit4d == b.gmi_bit4d:
                return a.distance_km
            frac = (gmi_target - a.gmi_bit4d) / (b.gmi_bit4d - a.gmi_bit4d)
            return a.distance_km + frac * (b.distance_km - a.distance_km)
    raise ValueError(f"GMI target {gmi_target} not bracketed by the records")


def write_csv(records: list[ResultRecord], path) -> None:
    """Write records as CSV with LF endings and 10-significant-digit floats."""
    with open(path, "w", newline="\n") as f:
        f.write(records_to_csv(records))


def records_to_csv(records: list[ResultRecord]) -> str:
    return CSV_HEADER + "\n" + "".join(r.csv_row() + "\n" for r in records)
