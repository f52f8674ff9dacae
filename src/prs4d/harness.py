"""Experiment orchestration: run_point is transmit -> propagate_link ->
receive at one config. Every sweep follows one rule: its records at a grid
value equal run_point(replace(cfg, field=value)) at cfg.seed, bit for bit
but for the measured runtime_s. A power sweep runs each distinct power
once; a distance sweep propagates once and receives after each span count.
optimize_prs_params, the 4D-64PRS design search, scores each geometry with
the demapper's AWGN reference, so it lives here beside the experiments.

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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import constellation as const
from . import demapper as dm
from . import rxdsp, txdsp
from .channel import FiberParams, LinkConfig, propagate_link, propagate_spans

CSV_HEADER = ("launch_dbm,distance_km,n_channels,format,demapper,"
              "gmi_bit4d,ndr_gbps,seed,runtime_s")

VALID_DEMAPPERS = ("iid", "cg", "both")
_COV_RIDGE = 1e-6  # ridge on each cg covariance, relative to the iid sigma2
_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}
# config field type: (accepted values, description, parser of the text form)
_FIELD_TYPES = {"str": (str, "a string", str),
                "bool": ((bool, np.bool_), "True or False", lambda t: _BOOLS[t.lower()]),
                "int": ((int, np.integer), "an integer", int),
                "float": ((int, float, np.integer, np.floating), "one number", float)}


def _type_error(name: str, kind: str, value) -> ValueError:
    hint = " (sweep powers with sweep-power)" if name == "launch_dbm" else ""
    return ValueError(f"{name} must be {_FIELD_TYPES[kind][1]}, got {value!r}{hint}")


@dataclass
class ExperimentConfig:
    """Flat configuration of one transmission point (one launch power)."""

    format: str = "4d64prs"
    prs_rho: float = const.DEFAULT_PRS_RHO
    prs_theta: float = const.DEFAULT_PRS_THETA
    ring_ratio: float = const.DEFAULT_RING_RATIO
    n_channels: int = 11
    spacing_ghz: float = 50.0
    baud_gbd: float = 45.0
    rolloff: float = 0.1
    n_symbols: int = 2**16
    seed: int = 1234
    n_spans: int = 30
    span_km: float = FiberParams.length_km
    step_km: float = LinkConfig.step_km
    alpha_db_km: float = FiberParams.alpha_db_km
    disp_ps_nm_km: float = FiberParams.disp_ps_nm_km
    gamma_w_km: float = FiberParams.gamma_w_km
    nf_db: float = LinkConfig.edfa_nf_db
    launch_dbm: float = 0.0
    demapper: str = "both"
    phase_window: int = 128
    ase_enabled: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _FIELD_TYPES[f.type][0]) or (
                    f.type != "bool" and isinstance(value, (bool, np.bool_))):
                raise _type_error(f.name, f.type, value)
            if isinstance(value, (float, np.floating)) and not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        self.launch_dbm = float(self.launch_dbm)
        if self.format not in const.FORMATS:
            raise ValueError(f"format must be one of {const.FORMATS}")
        if self.demapper not in VALID_DEMAPPERS:
            raise ValueError(f"demapper must be one of {VALID_DEMAPPERS}")
        for name, least in (("n_channels", 1), ("n_symbols", dm.MIN_SYMBOLS),
                            ("n_spans", 1), ("phase_window", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be an integer >= {least}")
        for name in ("spacing_ghz", "gamma_w_km", "alpha_db_km"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.ase_enabled and self.alpha_db_km == 0:
            raise ValueError("alpha_db_km must be > 0 with ase_enabled (ASE needs EDFA gain)")
        for name in ("baud_gbd", "span_km"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not 0 < self.step_km <= self.span_km:
            raise ValueError("step_km must be in (0, span_km]")
        if not 0 < self.rolloff <= 1:
            raise ValueError("rolloff must be in (0, 1]")
        width = (1 + self.rolloff) * self.baud_gbd  # one channel's occupied band
        if self.n_channels > 1 and txdsp.spectra_overlap(self.spacing_ghz, width):
            raise ValueError(f"spacing_ghz must be >= (1 + rolloff) * baud_gbd "
                             f"= {width:g} with n_channels > 1, got {self.spacing_ghz:g}")
        if self.ase_enabled and self.nf_db < 3:
            raise ValueError("nf_db must be >= 3 with ase_enabled (n_sp >= 1)")
        kerr = (8 / 9 * self.gamma_w_km * self.n_channels  # rad/W per SSFM step
                * self.fiber().effective_length_km(self.step_km))
        if kerr > 0 and self.launch_dbm > (p_max := 30 - 10 * np.log10(kerr)):
            raise ValueError(
                f"launch_dbm must be <= {p_max:.4g} with step_km={self.step_km:g} "
                f"(1 rad of mean Kerr phase per step), got {self.launch_dbm:g}")

    @property
    def baud_hz(self) -> float:
        return self.baud_gbd * 1e9

    @property
    def spacing_hz(self) -> float:
        return self.spacing_ghz * 1e9

    @property
    def band_hz(self) -> float:
        return ((self.n_channels - 1) * self.spacing_hz
                + (1 + self.rolloff) * self.baud_hz)

    def effective_sps(self) -> int:
        """Smallest power of two >= 2 whose rate covers 1.1x the WDM band."""
        sps = 2
        while sps * self.baud_hz < 1.1 * self.band_hz:
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


def optimize_prs_params(snr_db: float, rhos, thetas) -> tuple[float, float, float]:
    """(rho, theta, gmi) of the 4D-64PRS geometry on the grid rhos x thetas
    with the largest AWGN GMI at snr_db. Degenerate grid points are skipped;
    a tie goes to the earlier rho, then the earlier theta (scan order).
    """
    if not (len(rhos) and len(thetas)):
        raise ValueError("grid must contain at least one point")
    best, best_gmi = None, -np.inf
    for rho in map(float, rhos):
        for theta in map(float, thetas):
            try:
                c = const.build_4d64prs(rho, theta)
            except ValueError:
                continue
            gmi = dm.awgn_gmi_reference(c, snr_db, n_nodes=5)
            if gmi > best_gmi:
                best, best_gmi = (rho, theta), gmi
    if best is None:
        raise ValueError("all grid points are degenerate")
    return (*best, best_gmi)


def parse_field(name: str, text: str):
    """Config field name's value read from text by its type's parser."""
    kinds = {f.name: f.type for f in fields(ExperimentConfig)}
    if name not in kinds:
        raise ValueError(f"unknown config key {name!r}; valid keys: "
                         f"{', '.join(sorted(kinds))}")
    try:
        return _FIELD_TYPES[kinds[name]][2](text)
    except (KeyError, ValueError):  # KeyError: not a boolean word
        raise _type_error(name, kinds[name], text) from None


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
    runtime_s: float = field(compare=False)
    sigma2: float = field(default=0.0, compare=False)

    def csv_row(self) -> str:
        return (f"{self.launch_dbm:.10g},{self.distance_km:.10g},"
                f"{self.n_channels},{self.format},{self.demapper},"
                f"{self.gmi_bit4d:.10g},{self.ndr_gbps:.10g},{self.seed},"
                f"{self.runtime_s:.10g}")


def derived_seed(master: int, *coords) -> int:
    """Seed of one random stream of a point: hash of the master seed and
    the stream's coordinates."""
    tag = repr((int(master),) + tuple(coords)).encode()
    return int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "big")


def _transmit(cfg: ExperimentConfig):
    """Shape and multiplex every WDM channel: returns the constellation,
    the launch field, the center channel's sent indices and the link."""
    c = cfg.build_constellation()
    sps = cfg.effective_sps()
    channels = []
    for ch in range(cfg.n_channels):
        bits = txdsp.generate_bits(derived_seed(cfg.seed, "bits", ch),
                                   cfg.n_symbols * c.m)
        indices, points = const.map_bits_to_symbols(bits, c)
        sig = txdsp.rrc_shape(points, sps, cfg.rolloff, baud=cfg.baud_hz)
        channels.append(txdsp.set_mean_power(sig, cfg.launch_dbm))
        if ch == (cfg.n_channels - 1) // 2:
            tx_indices = indices
            if cfg.demapper != "iid":  # the cg estimate's floor, before any span
                dm.point_counts(tx_indices, c.M)
    mux = txdsp.wdm_mux(channels, cfg.spacing_hz, cfg.baud_hz, cfg.rolloff)
    link = LinkConfig(span=cfg.fiber(), n_spans=cfg.n_spans,
                      step_km=cfg.step_km, edfa_nf_db=cfg.nf_db,
                      ase_enabled=cfg.ase_enabled,
                      seed=derived_seed(cfg.seed, "ase"))
    return c, mux, tx_indices, link


def _receive(cfg: ExperimentConfig, c, rx_sig, tx_indices,
             t0: float) -> list[ResultRecord]:
    """Select the center channel, undo phase and gain with the genie, and
    demap; each record's runtime runs from t0 to the last demap."""
    center_offset = ((cfg.n_channels - 1) // 2
                     - (cfg.n_channels - 1) / 2) * cfg.spacing_hz
    rx = rxdsp.channel_select(rx_sig, center_offset, cfg.baud_hz, cfg.rolloff)
    tx_points = np.take(c.points, tx_indices, axis=0)
    rx = rxdsp.genie_phase_compensation(rx, tx_points, cfg.phase_window)
    # unbiased gain normalization: keeps clouds centered on the
    # constellation (the LS scale shrinks them by the relative noise power)
    rx = rxdsp.genie_gain(rx, tx_points)
    batch = rxdsp.SymbolBatch(tx_indices, rx)

    sigma2 = dm.estimate_iid_sigma2(batch, c)
    wanted = ("iid", "cg") if cfg.demapper == "both" else (cfg.demapper,)
    gmis = {}
    for kind in wanted:
        if kind == "iid":
            model = dm.NoiseModel.iid(sigma2)
        else:
            model = dm.NoiseModel.cg(dm.estimate_point_covariances(
                batch, c, epsilon=_COV_RIDGE * sigma2))
        gmis[kind] = dm.gmi_from_llrs(dm.compute_llrs(batch, c, model), c.m)
    runtime = time.perf_counter() - t0
    return [ResultRecord(
        launch_dbm=cfg.launch_dbm, distance_km=cfg.n_spans * cfg.span_km,
        n_channels=cfg.n_channels, format=cfg.format, demapper=kind,
        gmi_bit4d=gmi, ndr_gbps=gmi * cfg.baud_gbd, seed=cfg.seed,
        runtime_s=runtime, sigma2=sigma2) for kind, gmi in gmis.items()]


def run_point(cfg: ExperimentConfig,
              seed: int | None = None) -> list[ResultRecord]:
    """Run one full TX -> link -> RX -> demap experiment at cfg's point.

    Evaluates the center WDM channel at cfg.seed. Returns one record per
    requested demapper (iid, cg or both), deterministic for a fixed config
    but for runtime_s, the whole point's wall time. seed=s is
    shorthand for replace(cfg, seed=s), kept for perfbench/workloads.py's
    call form; it goes with the next benchmark change.
    """
    t0 = time.perf_counter()
    cfg = cfg if seed is None else replace(cfg, seed=seed)
    c, mux, tx_indices, link = _transmit(cfg)
    return _receive(cfg, c, propagate_link(mux, link), tx_indices, t0)


def _worker_count() -> int:
    env = os.environ.get("PRS4D_WORKERS")
    if not env:
        return 1
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"PRS4D_WORKERS must be an integer >= 1, got {env!r}")
    return int(env)


def sweep_power(cfg: ExperimentConfig, powers) -> list[ResultRecord]:
    """run_point(replace(cfg, launch_dbm=p)) for each power p at cfg.seed, in
    order on PRS4D_WORKERS processes; a repeated power is run once."""
    powers = [float(p) for p in powers]
    cfgs = {p: replace(cfg, launch_dbm=p) for p in powers}
    if not cfgs:
        raise ValueError("empty power list")
    workers = _worker_count()
    if workers <= 1:
        points = dict(zip(cfgs, map(run_point, cfgs.values())))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = dict(zip(cfgs, pool.map(run_point, cfgs.values())))
    return [r for p in powers for r in points[p]]


def sweep_distance(cfg: ExperimentConfig, span_counts) -> list[ResultRecord]:
    """GMI after each span count from one propagation at cfg.seed.

    The record at n equals run_point(replace(cfg, n_spans=n)). Records come
    in input order, duplicates kept; a record's runtime runs from the start
    of the curve to its last demap.
    """
    span_counts = list(span_counts)
    cfgs = {n: replace(cfg, n_spans=n) for n in span_counts}
    if not cfgs:
        raise ValueError("empty span-count list")
    t0 = time.perf_counter()
    c, mux, tx_indices, link = _transmit(cfgs[max(cfgs)])
    spans, taps = propagate_spans(mux, link), {}
    for n in range(1, link.n_spans + 1):
        # next() and del, not enumerate(spans), whose reused result tuple
        # would keep this field alive through the next span
        rx_sig = next(spans)
        if n in cfgs:
            taps[n] = _receive(cfgs[n], c, rx_sig, tx_indices, t0)
        del rx_sig
    return [r for n in span_counts for r in taps[n]]


def fit_optimum_power(powers: np.ndarray, gmis: np.ndarray) -> tuple[float, float]:
    """3-point quadratic fit around the grid maximum of the sorted distinct
    powers; a repeated power must repeat its GMI.

    Returns (optimum power, fitted GMI). Falls back to the grid value
    when the maximum sits on the grid edge or the fit is not concave.
    """
    powers, gmis = np.unique(np.column_stack((powers, gmis)), axis=0).T
    for p in powers[1:][np.diff(powers) == 0][:1]:
        raise ValueError(f"power {p:g} dBm repeats with different GMIs")
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


def sweep_channels(cfg: ExperimentConfig, channel_counts,
                   powers) -> list[ResultRecord]:
    """Per distinct channel count n: sweep_power(replace(cfg, n_channels=n),
    powers) at cfg.seed, one record per demapper at the fitted optimum
    power, with no sigma2 and the sweep's runtime, in input order. With one
    power p a record equals run_point(replace(cfg, n_channels=n, launch_dbm=p))."""
    channel_counts = list(channel_counts)
    cfgs = {n: replace(cfg, n_channels=n) for n in channel_counts}
    if not cfgs:
        raise ValueError("empty channel-count list")
    fits = {}
    for n, cfg_n in cfgs.items():
        t0 = time.perf_counter()
        recs = sweep_power(cfg_n, powers)
        runtime = time.perf_counter() - t0
        for kind in dict.fromkeys(r.demapper for r in recs):
            series = [r for r in recs if r.demapper == kind]
            p_opt, g_opt = fit_optimum_power([r.launch_dbm for r in series],
                                             [r.gmi_bit4d for r in series])
            fits.setdefault(n, []).append(replace(
                series[0], launch_dbm=p_opt, gmi_bit4d=g_opt,
                ndr_gbps=g_opt * cfg.baud_gbd, runtime_s=runtime, sigma2=0.0))
    return [r for n in channel_counts for r in fits[n]]


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


def records_to_csv(records: list[ResultRecord]) -> str:
    """Records as CSV text: LF endings, 10-significant-digit floats."""
    return CSV_HEADER + "\n" + "".join(r.csv_row() + "\n" for r in records)
