"""Experiment orchestration: _curve is the one chain, transmit ->
propagate_link -> receive after each span count of configs equal but for
n_spans. run_grid is the one runner of every grid of config fields, and of
every CLI record command, n_spans values being taps of one _curve per point:
its records at a point equal run_point(replace(cfg, **point)) at cfg.seed,
bit for bit but for runtime_s. It builds, so checks, every value at every
tap before any span, hands those very configs to _curve and runs each
distinct config once, on one pool of PRS4D_WORKERS processes (an integer
>= 1 in the environment, default 1). run_point, the one-tap curve
_curve([cfg]), is the benchmark's entry point. A record carries its config,
and _series is the one series rule: one demapper at configs equal but for
the swept fields. optimum_records, the one optimum-power fit of a run_grid's
records, and find_reach keep to it. optimize_prs_params, the 4D-64PRS design
search, scores each geometry with the demapper's AWGN reference. The module
returns data only: cli renders every table.

The system is the paper's and is fixed: txdsp's WDM grid, rxdsp.PHASE_WINDOW's
128-symbol genie phase estimate, FiberParams' default fiber (80 km spans at
0.219 dB/km and 4.255 ps/nm/km) and channel.NF_DB's 5 dB-NF EDFAs. Config
defaults mirror the headline run (2^16 symbols, 11 channels, inline CDC,
0.1 km SSFM steps); desk-scale experiments override symbol count, channel
count, span count and step size; studies vary gamma_w_km and ase_enabled.

The frozen ExperimentConfig checks field types by channel.check_fields, its own
rules, and the rest by building cfg.constellation and cfg.link, whose builders
hold the rules; each is built once, and the run uses those very objects.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import constellation as const
from . import demapper as dm
from . import rxdsp, txdsp
from .channel import (FIELD_TYPES, FiberParams, LinkConfig, check_fields,
                      field_error, propagate_link)

VALID_DEMAPPERS = ("iid", "cg", "both")
_COV_RIDGE = 1e-6  # ridge on each cg covariance, relative to the iid sigma2


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat configuration of one transmission point (one launch power)."""

    format: str = "4d64prs"
    prs_rho: float = const.DEFAULT_PRS_RHO
    prs_theta: float = const.DEFAULT_PRS_THETA
    ring_ratio: float = const.DEFAULT_RING_RATIO
    n_channels: int = 11
    n_symbols: int = 2**16
    seed: int = 1234
    n_spans: int = 30
    step_km: float = LinkConfig.step_km
    gamma_w_km: float = FiberParams.gamma_w_km
    launch_dbm: float = field(
        default=0.0, metadata={"hint": " (sweep powers with sweep-power)"})
    demapper: str = "both"
    ase_enabled: bool = True

    def __post_init__(self):
        check_fields(self)
        self.constellation  # the format's and the geometry's checks
        if self.demapper not in VALID_DEMAPPERS:
            raise ValueError(f"demapper must be one of {VALID_DEMAPPERS}")
        for name, least in (("n_channels", 1), ("n_symbols", dm.MIN_SYMBOLS)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be an integer >= {least}")
        top = np.iinfo(np.intp).max  # numpy's index range, tested in integers
        if self.n_symbols > (most := top // self.constellation.m):  # the bits
            raise ValueError(f"n_symbols must be <= {most} to index its bits")
        if (self.n_channels > (most := top // self.n_symbols)  # implied by the next
                or self.effective_sps() > most):  # (sps > n_channels), but float-safe
            raise ValueError("n_channels must be small enough that numpy can index the frame")
        with np.errstate(over="ignore"):  # set_mean_power's watts
            if not 0 < np.power(10.0, (self.launch_dbm - 30) / 10) < np.inf:
                raise ValueError(f"launch_dbm must be a finite power above 0 W, "
                                 f"got {self.launch_dbm:g}")
        link = self.link  # the fiber's and the link's own checks
        kerr = (8 / 9 * self.gamma_w_km * self.n_channels  # rad/W per SSFM step
                * link.span.effective_length_km(self.step_km))
        if kerr > 0 and self.launch_dbm > (p_max := 30 - 10 * np.log10(kerr)):
            raise ValueError(
                f"launch_dbm must be <= {p_max:.4g} with step_km={self.step_km:g} "
                f"(1 rad of mean Kerr phase per step), got {self.launch_dbm:g}")

    def effective_sps(self) -> int:
        """Smallest power of two >= 2 whose rate covers 1.1x the WDM band."""
        sps = 2
        while sps * txdsp.BAUD_HZ < 1.1 * txdsp.band_hz(self.n_channels):
            sps *= 2
        return sps

    @functools.cached_property
    def link(self) -> LinkConfig:
        """The run's link, ASE seeded by derived_seed(seed, "ase")."""
        return LinkConfig(span=FiberParams(gamma_w_km=self.gamma_w_km),
                          n_spans=self.n_spans, step_km=self.step_km,
                          ase_enabled=self.ase_enabled, seed=derived_seed(self.seed, "ase"))

    @functools.cached_property
    def constellation(self) -> const.Constellation4D:
        return const.build_format(self.format, self.prs_rho, self.prs_theta,
                                  self.ring_ratio)


def optimize_prs_params(snr_db: float, rhos, thetas) -> tuple[float, float, float]:
    """(rho, theta, gmi) of the 4D-64PRS geometry on the grid rhos x thetas
    with the largest AWGN GMI at snr_db (build_4d64prs rejects a point out of
    range); a tie goes to the earlier rho, then the earlier theta (scan order).
    """
    grid = [(float(rho), float(theta)) for rho in rhos for theta in thetas]
    if not grid:
        raise ValueError("grid must contain at least one point")
    gmis = [dm.awgn_gmi_reference(const.build_4d64prs(*p), snr_db, n_nodes=5)
            for p in grid]
    k = int(np.argmax(gmis))  # the first of equal maxima
    return (*grid[k], gmis[k])


def parse_field(name: str, text: str):
    """Config field name's value read from text by its type's parser."""
    by_name = {f.name: f for f in fields(ExperimentConfig)}
    if name not in by_name:
        raise ValueError(f"unknown config key {name!r}; valid keys: "
                         f"{', '.join(sorted(by_name))}")
    try:
        return FIELD_TYPES[by_name[name].type][2](text)
    except (KeyError, ValueError):  # KeyError: not a boolean word
        raise field_error(by_name[name], text) from None


@dataclass
class ResultRecord:
    """One demapper's GMI at config, the point's config after the sweep's
    replace. The other columns of the record table that cli renders read
    config, and so does the series rule."""

    config: ExperimentConfig
    demapper: str
    gmi_bit4d: float
    runtime_s: float = field(compare=False)
    sigma2: float = field(default=0.0, compare=False)
    launch_dbm = property(lambda r: r.config.launch_dbm)
    n_channels = property(lambda r: r.config.n_channels)
    format = property(lambda r: r.config.format)
    seed = property(lambda r: r.config.seed)
    distance_km = property(lambda r: r.config.n_spans * r.config.link.span.length_km)
    ndr_gbps = property(lambda r: r.gmi_bit4d * txdsp.BAUD_GBD)


def derived_seed(master: int, *coords) -> int:
    """Seed of one random stream of a point: hash of the master seed and
    the stream's coordinates."""
    tag = repr((int(master),) + tuple(coords)).encode()
    return int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "big")


def _transmit(cfg: ExperimentConfig):
    """The shaped WDM launch field and the center channel's sent indices."""
    c, sps = cfg.constellation, cfg.effective_sps()
    channels = []
    for ch in range(cfg.n_channels):
        bits = txdsp.generate_bits(derived_seed(cfg.seed, "bits", ch),
                                   cfg.n_symbols * c.m)
        indices, points = const.map_bits_to_symbols(bits, c)
        sig = txdsp.rrc_shape(points, sps)
        channels.append(txdsp.set_mean_power(sig, cfg.launch_dbm))
        if ch == (cfg.n_channels - 1) // 2:
            tx_indices = indices
            if cfg.demapper != "iid":  # the cg estimate's floor, before any span
                dm.point_counts(tx_indices, c.M)
    del bits, indices, points, sig  # the mux holds the spectra alone
    return txdsp.wdm_mux(channels), tx_indices


def _receive(cfg: ExperimentConfig, rx_sig, tx_indices,
             t0: float) -> list[ResultRecord]:
    """Select the center channel, undo phase and gain with the genie, and
    demap; each record's runtime runs from t0 to the last demap."""
    c = cfg.constellation
    rx = rxdsp.channel_select(rx_sig, (cfg.n_channels - 1) // 2, cfg.n_channels)
    tx_points = np.take(c.points, tx_indices, axis=0)
    rx = rxdsp.genie_phase_compensation(rx, tx_points)
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
            model = dm.NoiseModel(dm.estimate_point_covariances(
                batch, c, epsilon=_COV_RIDGE * sigma2))
        gmis[kind] = dm.gmi_from_llrs(dm.compute_llrs(batch, c, model), c.m)
    runtime = time.perf_counter() - t0
    return [ResultRecord(cfg, kind, gmi, runtime, sigma2) for kind, gmi in gmis.items()]


def run_point(cfg: ExperimentConfig,
              seed: int | None = None) -> list[ResultRecord]:
    """Run one full TX -> link -> RX -> demap experiment at cfg's point: the
    one-tap curve _curve([cfg]), the benchmark's and the tracer's entry point
    (the CLI runs every record command through run_grid).

    Evaluates the center WDM channel at cfg.seed. Returns one record per
    requested demapper (iid, cg or both), deterministic for a fixed config
    but for runtime_s, the whole point's wall time. seed=s is
    shorthand for replace(cfg, seed=s), kept for perfbench/workloads.py's
    call form; it goes with the next benchmark change.
    """
    return _curve([cfg if seed is None else replace(cfg, seed=seed)])


def _curve(cfgs) -> list[ResultRecord]:
    """The records of each of cfgs, checked configs equal but for n_spans,
    from one propagation to the longest of them at their seed. A config's
    records equal run_point's at it, because span k draws the same ASE
    whatever n_spans is. Records come in input order, duplicates kept; a
    record's runtime runs from the start of the curve to its last demap.

    Frames alive: the launch frame is the span generator's alone, so span 1
    frees it; each tap receives the one frame of its span count, dropped
    before the next span runs.
    """
    records = dict.fromkeys(cfgs)  # an equal config repeats the first's records
    t0 = time.perf_counter()
    mux, tx_indices = _transmit(longest := max(records, key=lambda c: c.n_spans))
    spans = propagate_link(mux, longest.link)
    del mux  # the generator's alone: freed in span 1, before any tap
    for n in range(1, longest.n_spans + 1):
        # next() and del, not enumerate(spans), whose reused result tuple
        # would keep this field alive through the next span
        rx_sig = next(spans)
        for c in records:
            if c.n_spans == n:
                records[c] = _receive(c, rx_sig, tx_indices, t0)
        del rx_sig
    return [r for c in cfgs for r in records[c]]


def _series(r: ResultRecord, *swept: str) -> tuple:
    """r's series key: its demapper and its config's fields but demapper and
    swept, a geometry field that r's format does not read at its default."""
    unread = ({k for _, keys in const.BUILDERS.values() for k in keys}
              - set(const.BUILDERS[r.format][1]))
    return (r.demapper, *(f.default if f.name in unread else getattr(r.config, f.name)
                          for f in fields(r.config) if f.name not in ("demapper", *swept)))


def optimum_records(records) -> list[ResultRecord]:
    """One record per series, fitted at its optimum launch power, in
    first-seen order. A series shares one _series(r, "launch_dbm"); a power it
    repeats must repeat its GMI. The optimum is the vertex of the 3-point
    parabola around the grid maximum of the sorted distinct powers, or that
    grid point when it is an edge or the parabola is not concave. A fitted
    record has the config at that power, checked like any other, sigma2 0
    and the summed runtime_s of its distinct powers' points."""
    series = {}
    for r in records:
        series.setdefault(_series(r, "launch_dbm"), []).append(r)
    fits = []
    for recs in series.values():
        powers, gmis = np.unique([(r.launch_dbm, r.gmi_bit4d) for r in recs], axis=0).T
        for p in powers[1:][np.diff(powers) == 0][:1]:
            raise ValueError(f"power {p:g} dBm repeats with different GMIs")
        k = int(np.argmax(gmis))
        p_opt, g_opt = float(powers[k]), float(gmis[k])
        if 0 < k < powers.size - 1:
            a, b, c0 = np.polyfit(powers[k - 1:k + 2], gmis[k - 1:k + 2], 2)
            if a < 0:
                p_opt = float(np.clip(-b / (2 * a), powers[k - 1], powers[k + 1]))
                g_opt = float(a * p_opt**2 + b * p_opt + c0)
        fits.append(ResultRecord(
            replace(recs[0].config, launch_dbm=p_opt), recs[0].demapper, g_opt,
            runtime_s=sum({r.launch_dbm: r.runtime_s for r in recs}.values()), sigma2=0.0))
    return fits


def run_grid(cfg: ExperimentConfig, **grid) -> list[ResultRecord]:
    """run_point(replace(cfg, **point)) at cfg.seed for each point of the
    product of grid's field values, in keyword order. The n_spans values, or
    [cfg.n_spans], are the taps of one _curve per point of the other fields
    and come innermost. Every value at every tap, and no config at
    cfg.n_spans when taps are given, is built and checked before the first
    span, and the run uses those very configs; each distinct config runs
    once, its records repeated in input order. The curves run on one pool
    of at most PRS4D_WORKERS processes and never more than there are
    curves."""
    grid = {name: list(values) for name, values in grid.items()}
    if empty := [name for name, values in grid.items() if not values]:
        raise ValueError(f"empty {empty[0]} list")
    taps = grid.pop("n_spans", [cfg.n_spans])
    built = [[replace(cfg, n_spans=n, **dict(zip(grid, values))) for n in taps]
             for values in itertools.product(*grid.values())]
    curves = {}  # a point is its first-tap config
    for configs in built:  # an equal point (power 0 beside 0.0) shares the first's curve
        curves.setdefault(configs[0], configs)
    env = os.environ.get("PRS4D_WORKERS") or "1"
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"PRS4D_WORKERS must be an integer >= 1, got {env!r}")
    workers = min(int(env), len(curves))
    if workers <= 1:
        done = dict(zip(curves, map(_curve, curves.values())))
    else:
        from concurrent.futures import ProcessPoolExecutor  # not module-level: 7-8 ms
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = dict(zip(curves, pool.map(_curve, curves.values())))
    return [r for configs in built for r in done[configs[0]]]


def find_reach(records: list[ResultRecord], gmi_target: float) -> float:
    """Distance where one series' GMI crosses the target, by linear
    interpolation.

    Records may arrive in any order; they are sorted by distance first. They
    must share one _series(r, "launch_dbm", "n_spans"), and a repeated
    distance must repeat its GMI. Raises if the target is not bracketed.
    """
    if len({_series(r, "launch_dbm", "n_spans") for r in records}) > 1:
        raise ValueError("records must come from one series")
    pts = np.unique(np.reshape([(r.distance_km, r.gmi_bit4d) for r in records],
                               (-1, 2)), axis=0)
    for d in pts[1:, 0][np.diff(pts[:, 0]) == 0][:1]:
        raise ValueError(f"distance {d:g} km repeats with different GMIs")
    for (d0, g0), (d1, g1) in zip(pts.tolist(), pts[1:].tolist()):
        if min(g0, g1) <= gmi_target <= max(g0, g1):
            if g0 == g1:
                return d0
            return d0 + (gmi_target - g0) / (g1 - g0) * (d1 - d0)
    raise ValueError(f"GMI target {gmi_target} not bracketed by the records")
