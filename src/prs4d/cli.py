"""Command-line front end: flat key=value configs, sweeps, CSV and SVG output.

Every command but optimize-constellation, which searches the 4D-64PRS
geometry itself, reads its constellation and link from the one config (a
--config file, then --set overrides). Grids take lo:hi:step or a comma list.
Commands render CSV and SVG text; one writer sends it to a file, or to
stdout for '-'. Output paths and plot grids are checked before any run.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import constellation as const
from . import demapper as dm
from . import harness

_CONFIG_FIELDS = {f.name: f for f in fields(harness.ExperimentConfig)}


def _coerce(name: str, raw: str):
    """Parse a config value string into the field's declared type."""
    kind, raw = _CONFIG_FIELDS[name].type, raw.strip()
    if kind == "str":
        return raw
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{name}: expected a boolean, got {raw!r}")
    parse, what = (int, "an integer") if kind == "int" else (float, "a number")
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"{name}: expected {what}, got {raw!r}") from None


def parse_config(path: str | None, overrides: list[str] | None = None
                 ) -> harness.ExperimentConfig:
    """Build an ExperimentConfig from a flat key=value file plus overrides.

    Missing file (path None) means pure defaults. Unknown keys are
    rejected with the list of valid keys; field invariants are checked
    by the config dataclass itself.
    """
    kv = {}
    if path is not None:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                key, val = (s.strip() for s in line.split("=", 1))
                kv[key] = val
    for ov in overrides or []:
        if "=" not in ov:
            raise ValueError(f"override {ov!r}: expected key=value")
        key, val = (s.strip() for s in ov.split("=", 1))
        kv[key] = val

    parsed = {}
    for key, val in kv.items():
        if key not in _CONFIG_FIELDS:
            valid = ", ".join(sorted(_CONFIG_FIELDS))
            raise ValueError(f"unknown config key {key!r}; valid keys: {valid}")
        parsed[key] = _coerce(key, val)
    return harness.ExperimentConfig(**parsed)


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def emit_plot(records, x_field: str, y_field: str) -> str:
    """Render one SVG polyline per (format, demapper) series as SVG text.

    Hand-rolled SVG so identical inputs produce byte-identical text.
    """
    if not records:
        raise ValueError("no records to plot")
    series = {}
    for r in records:
        series.setdefault((r.format, r.demapper), []).append(r)
    if any(len(pts) < 2 for pts in series.values()):
        raise ValueError("each series needs at least 2 records to plot")

    xs = np.array([getattr(r, x_field) for r in records], dtype=float)
    ys = np.array([getattr(r, y_field) for r in records], dtype=float)
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 20, 50

    def sx(v):
        return ml + (v - x0) / (x1 - x0) * (width - ml - mr)

    def sy(v):
        return height - mb - (v - y0) / (y1 - y0) * (height - mb - mt)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
        f'y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        f'stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        out.append(
            f'<text x="{sx(xv):.2f}" y="{height - mb + 18}" font-size="11" '
            f'text-anchor="middle">{xv:.4g}</text>')
        out.append(
            f'<text x="{ml - 6}" y="{sy(yv) + 4:.2f}" font-size="11" '
            f'text-anchor="end">{yv:.4g}</text>')
    out.append(
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 12}" '
        f'font-size="13" text-anchor="middle">{x_field}</text>')
    out.append(
        f'<text x="16" y="{(mt + height - mb) / 2:.1f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{(mt + height - mb) / 2:.1f})">{y_field}</text>')

    for i, key in enumerate(sorted(series)):
        pts = sorted(series[key], key=lambda r: getattr(r, x_field))
        color = _PALETTE[i % len(_PALETTE)]
        path_pts = " ".join(
            f"{sx(getattr(r, x_field)):.2f},{sy(getattr(r, y_field)):.2f}"
            for r in pts)
        out.append(f'<polyline points="{path_pts}" fill="none" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(
            f'<text x="{width - mr - 6}" y="{mt + 16 + 16 * i}" '
            f'font-size="12" text-anchor="end" fill="{color}">'
            f'{key[0]}/{key[1]}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _add_common(p, output="results.csv", plot=True):
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   dest="overrides", help="override a config field")
    p.add_argument("--output", default=output,
                   help="output CSV path, - for stdout")
    if plot:
        p.add_argument("--plot", default=None, metavar="SVG",
                       help="also write an SVG line plot")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="prs4d",
        description="WDM fiber transmission simulator and 4D format evaluator",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one transmission point")
    _add_common(p, plot=False)

    p = sub.add_parser("sweep-power", help="GMI vs launch power")
    _add_common(p)
    p.add_argument("--powers", default="-4:6:1",
                   help="launch powers in dBm, lo:hi:step or comma list")

    p = sub.add_parser("sweep-distance", help="GMI after each span count, "
                       "from one propagation")
    _add_common(p)
    p.add_argument("--spans", default="4,6,8,10,12,14",
                   help="span counts, lo:hi:step or comma list")

    p = sub.add_parser("sweep-channels", help="optimum-power rate vs channels")
    _add_common(p)
    p.add_argument("--channels", default="1,3,5",
                   help="channel counts, lo:hi:step or comma list")
    p.add_argument("--powers", default="-2:4:0.5",
                   help="power grid used to locate the optimum")

    p = sub.add_parser("gmi-awgn", help="AWGN GMI reference curve")
    _add_common(p, output="-", plot=False)
    p.add_argument("--snr", default="0:20:2", help="SNR grid in dB")

    p = sub.add_parser("optimize-constellation",
                       help="grid-search the ring-switching geometry")
    p.add_argument("--snr", default=const.DEFAULT_PRS_SNR_DB,
                   help="design SNR in dB")
    for name, grid in (("rho", const.DEFAULT_PRS_RHOS),
                       ("theta", const.DEFAULT_PRS_THETAS)):
        p.add_argument(f"--{name}", default=None,
                       help=f"{name} grid (default: {len(grid)} values over "
                            f"[{grid[0]:g}, {grid[-1]:g}])")

    p = sub.add_parser("export-constellation", help="write points + labels CSV")
    _add_common(p, output="constellation.csv", plot=False)
    return ap


def _parse_grid(flag: str, spec: str) -> list[float]:
    """Finite lo:hi:step (hi included), or a comma list of numbers."""
    try:
        vals = [float(v) for v in spec.split(":" if ":" in spec else ",")]
    except ValueError:
        vals = []
    if vals and ":" not in spec:
        return vals
    if len(vals) != 3 or not all(map(math.isfinite, vals)):
        raise ValueError(f"{flag} {spec!r}: expected lo:hi:step or a comma "
                         "list of numbers")
    lo, hi, step = vals
    if step == 0:
        raise ValueError(f"{flag} {spec!r}: step must be nonzero")
    n = math.floor((hi - lo) / step + 1e-9) + 1
    if n < 1:
        raise ValueError(f"{flag} {spec!r}: empty range")
    return [lo + k * step for k in range(n)]


def _parse_counts(flag: str, spec: str) -> list[int]:
    """A grid of counts; every value must be an integer >= 1."""
    vals = _parse_grid(flag, spec)
    bad = [v for v in vals if not (v >= 1 and v.is_integer())]
    if bad:
        raise ValueError(f"{flag} {spec!r}: counts must be integers >= 1, "
                         f"got {bad[0]:g}")
    return [int(v) for v in vals]


def _check_writable(flag: str, path: str) -> None:
    """Fail before the run, not after it, if path cannot be written."""
    if path in (None, "-"):  # no such output, or stdout
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"{flag} {path!r}: no such directory {parent!r}")
    target = path if os.path.exists(path) else parent
    if not path or os.path.isdir(path) or not os.access(target, os.W_OK):
        raise ValueError(f"{flag} {path!r}: not a writable file")


def _write(path: str, text: str) -> None:
    """The one output writer: '-' is stdout, any other path a file."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as f:
            f.write(text)


# sweep command: (grid flag, plot x field, plot y field, harness sweep)
_SWEEPS = {
    "sweep-power": ("--powers", "launch_dbm", "gmi_bit4d", harness.sweep_power),
    "sweep-distance": ("--spans", "distance_km", "gmi_bit4d", harness.sweep_distance),
    "sweep-channels": ("--channels", "n_channels", "ndr_gbps", harness.sweep_channels),
}


def _run(args) -> int:
    if args.command == "optimize-constellation":
        try:
            snr = float(args.snr)
        except ValueError:
            raise ValueError(f"--snr {args.snr!r}: expected a number") from None
        rhos = (const.DEFAULT_PRS_RHOS if args.rho is None
                else _parse_grid("--rho", args.rho))
        thetas = (const.DEFAULT_PRS_THETAS if args.theta is None
                  else _parse_grid("--theta", args.theta))
        params, gmi = const.optimize_prs_params(snr, rhos, thetas)
        _write("-", f"rho={params.rho:.10g} theta={params.theta:.10g} "
                    f"gmi={gmi:.10g}\n")
        return 0

    cfg = parse_config(args.config, args.overrides)
    plot = getattr(args, "plot", None)
    _check_writable("--output", args.output)
    _check_writable("--plot", plot)
    if args.command == "export-constellation":
        text = const.constellation_to_csv(cfg.build_constellation())
    elif args.command == "gmi-awgn":
        c = cfg.build_constellation()
        text = "snr_db,format,gmi_bit4d\n" + "".join(
            f"{snr:.10g},{cfg.format},{dm.awgn_gmi_reference(c, snr):.10g}\n"
            for snr in _parse_grid("--snr", args.snr))
    elif args.command == "simulate":
        text = harness.records_to_csv(harness.run_point(cfg))
    else:
        flag, xf, yf, sweep = _SWEEPS[args.command]
        spec = getattr(args, flag[2:])
        grid = (_parse_grid if flag == "--powers" else _parse_counts)(flag, spec)
        if plot and len(grid) < 2:
            raise ValueError(f"--plot needs at least 2 values of {flag}, "
                             f"got {spec!r}")
        powers = [_parse_grid("--powers", args.powers)] if flag == "--channels" else []
        records = sweep(cfg, grid, *powers)
        text = harness.records_to_csv(records)
    _write(args.output, text)
    if plot:
        _write(plot, emit_plot(records, xf, yf))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
