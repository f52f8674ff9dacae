"""Command-line front end: flat key=value configs, sweeps, CSV and SVG output.

Each command that reads the config (a --config file, then --set overrides)
is one _COMMANDS row: its help, --output default, plot axes (None: no
--plot), grid flags as (flag, default, help, config field or None) and
run(cfg, *unfielded, **by_field), a grid that sets a config field passed
under that field's name, so each record command is one harness.run_grid
call. build_parser registers the rows in one loop, and _run takes one path:
parse the grids, read the config, check the output targets and --plot, run,
then write the CSV and the plot through _write. prs4d's renderers live here:
_csv writes every table, records_to_csv the record table, emit_plot the SVG.
optimize-constellation reads no config; its grid flags are the _DESIGN_GRIDS
rows. A grid is a comma list, or lo:hi:step counted and built in exact
decimals, hi included, and a command's grids span at most _MAX_GRID points;
a grid value that sets a config field is read by harness.parse_field, so a
bad one fails with the config's own "KEY must be" line."""

from __future__ import annotations

import argparse
import math
import os
import sys
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np

from . import constellation as const
from . import demapper as dm
from . import harness


def parse_config(path: str | None, overrides: list[str] | None = None
                 ) -> harness.ExperimentConfig:
    """Build an ExperimentConfig from a flat key=value file plus overrides.

    Missing file (path None) means pure defaults. A later line of a key
    wins; harness.parse_field reads each value, and the config dataclass
    checks every field's invariants.
    """
    lines = []
    if path is not None:
        with open(path) as f:  # blank lines and # comments are skipped
            lines = [(f"{path}:{n}", text) for n, raw in enumerate(f, 1)
                     if (text := raw.split("#", 1)[0].strip())]
    kv = {}
    for where, text in lines + [(f"override {ov!r}", ov) for ov in overrides or []]:
        key, eq, val = text.partition("=")
        if not eq:
            raise ValueError(f"{where}: expected key=value")
        kv[key.strip()] = val.strip()
    return harness.ExperimentConfig(
        **{key: harness.parse_field(key, val) for key, val in kv.items()})


CSV_COLUMNS = ("launch_dbm", "distance_km", "n_channels", "format", "demapper",
               "gmi_bit4d", "ndr_gbps", "seed", "runtime_s")  # ResultRecord fields
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="prs4d",
        description="WDM fiber transmission simulator and 4D format evaluator",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (summary, output, axes, grids, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides", help="override a config field")
        p.add_argument("--output", default=output,
                       help="output CSV path, - for stdout")
        if axes:
            p.add_argument("--plot", default=None, metavar="SVG",
                           help="also write an SVG line plot")
        p.set_defaults(grid_flags=grids)
        for flag, default, text, _ in grids:
            p.add_argument(flag, default=default, help=text)

    p = sub.add_parser("optimize-constellation",
                       help="grid-search the ring-switching geometry")
    p.add_argument("--snr", default=const.DEFAULT_PRS_SNR_DB,
                   help="design SNR in dB")
    p.set_defaults(grid_flags=_DESIGN_GRIDS)
    for flag, default, text, _ in _DESIGN_GRIDS:
        p.add_argument(flag, default=default, help=text)
    return ap


_MAX_GRID = 10**5  # values in one lo:hi:step range, and points in one command's grids


def _parse_grid(flag: str, spec: str, field: str | None = None) -> list:
    """Finite lo:hi:step, or a comma list of numbers; a grid that sets config
    field `field` reads each one with harness.parse_field. A range is counted
    and built in exact decimals, hi included: lo + k step for each k >= 0 up
    to hi, as an int for an integer field and otherwise the nearest double,
    so 0.3:2:0.05 holds 0.6, not 0.6000000000000001."""
    texts = spec.split(":" if ":" in spec else ",")
    try:
        vals = [float(t) for t in texts]
        if ":" in spec:  # three finite numbers, or the unpacking or Fraction raises
            lo, hi, step = (Fraction(Decimal(t)) for t in texts)
    except (ArithmeticError, ValueError):
        raise ValueError(f"{flag} {spec!r}: expected lo:hi:step or a comma "
                         "list of numbers") from None
    if field is not None:
        try:
            vals = [harness.parse_field(field, t) for t in texts]
        except ValueError as exc:
            raise ValueError(f"{flag} {spec!r}: {exc}") from None
    if ":" not in spec:
        return vals
    if step == 0:
        raise ValueError(f"{flag} {spec!r}: step must be nonzero")
    count = (hi - lo) // step + 1
    if count < 1:
        raise ValueError(f"{flag} {spec!r}: empty range")
    if count > _MAX_GRID:  # a float's .6g form, and past the float range alike
        shown = (f"{count:.6g}" if count < 1e308
                 else f"{Decimal(count).normalize(Context(6)):e}")
        raise ValueError(f"{flag} {spec!r}: {shown} values, more than {_MAX_GRID}")
    return [type(vals[0])(lo + k * step) for k in range(count)]


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


def _csv(columns, rows) -> str:
    """Columns, then rows, as CSV lines: a float cell in .10g, any other by str."""
    return "".join(",".join(f"{v:.10g}" if isinstance(v, (float, np.floating)) else str(v)
                            for v in row) + "\n" for row in [columns, *rows])


def records_to_csv(records) -> str:
    """The record table: one row of CSV_COLUMNS per harness.ResultRecord."""
    return _csv(CSV_COLUMNS, ([getattr(r, c) for c in CSV_COLUMNS] for r in records))


# name: (help, --output default, plot (x, y) record fields or None for no
# --plot, grid flags as (flag, default, help, config field or None),
# run(cfg, *unfielded, **by_field) -> records or _csv text): each grid whose
# spec names a config field is passed under that name, the others in order
_COMMANDS = {
    "simulate": ("run one transmission point", "results.csv", None, (),
                 lambda cfg, **grid: harness.run_grid(cfg, **grid)),
    "sweep-power": ("GMI vs launch power, on PRS4D_WORKERS processes (default 1)",
                    "results.csv", ("launch_dbm", "gmi_bit4d"), (
        ("--powers", "-4:6:1", "launch powers in dBm, lo:hi:step or comma list",
         "launch_dbm"),), lambda cfg, **grid: harness.run_grid(cfg, **grid)),
    "sweep-distance": ("GMI after each span count, from one propagation", "results.csv",
                       ("distance_km", "gmi_bit4d"), (
        ("--spans", "4,6,8,10,12,14", "span counts, lo:hi:step or comma list",
         "n_spans"),), lambda cfg, **grid: harness.run_grid(cfg, **grid)),
    "sweep-channels": ("optimum-power rate vs channels, on PRS4D_WORKERS "
                       "processes (default 1)", "results.csv",
                       ("n_channels", "ndr_gbps"), (
        ("--channels", "1,3,5", "channel counts, lo:hi:step or comma list", "n_channels"),
        ("--powers", "-2:4:0.5", "power grid used to locate the optimum", "launch_dbm"),
    ), lambda cfg, **grid: harness.optimum_records(harness.run_grid(cfg, **grid))),
    "gmi-awgn": ("AWGN GMI reference curve", "-", None, (
        ("--snr", "0:20:2", "SNR grid in dB", None),),
        lambda cfg, snrs: _csv(("snr_db", "format", "gmi_bit4d"), (
            (snr, cfg.format, dm.awgn_gmi_reference(cfg.constellation, snr)) for snr in snrs))),
    "export-constellation": ("write points + labels CSV", "constellation.csv", None, (),
        lambda cfg: _csv(("index", "label_bits", "s1", "s2", "s3", "s4"), (  # .17g round-trips
            (i, "".join(map(str, lab)), *(f"{v:.17g}" for v in row)) for i, (lab, row)
            in enumerate(zip(cfg.constellation.labels, cfg.constellation.points))))),
}
_DESIGN_GRIDS = (("--rho", "1.2:2:0.1", "rho grid (default: %(default)s)", None),
                 ("--theta", "0.25:0.65:0.05", "theta grid (default: %(default)s)", None))
# main joins each grid flag to a next value that starts with '-', which argparse
# takes for an option (-4:6:1); optimize-constellation's --snr is gmi-awgn's flag
_GRID_FLAGS = {g[0] for g in sum((row[3] for row in _COMMANDS.values()), _DESIGN_GRIDS)}


def _run(args) -> int:
    grids = [_parse_grid(flag, getattr(args, flag[2:]), field)
             for flag, _, _, field in args.grid_flags]
    if (count := math.prod(map(len, grids))) > _MAX_GRID:  # before any config is built
        raise ValueError(f"{' x '.join(g[0] for g in args.grid_flags)}: "
                         f"{count} grid points, more than {_MAX_GRID}")
    if args.command == "optimize-constellation":
        try:
            snr = float(args.snr)
        except ValueError:
            raise ValueError(f"--snr {args.snr!r}: expected a number") from None
        rho, theta, gmi = harness.optimize_prs_params(snr, *grids)
        _write("-", f"rho={rho:.10g} theta={theta:.10g} gmi={gmi:.10g}\n")
        return 0

    _, _, axes, flags, run = _COMMANDS[args.command]
    cfg = parse_config(args.config, args.overrides)
    plot = getattr(args, "plot", None)
    _check_writable("--output", args.output)
    _check_writable("--plot", plot)
    if plot is not None and len({p if p == "-" else os.path.abspath(p)
                                 for p in (args.output, plot)}) == 1:
        raise ValueError(f"--plot {plot!r}: the same target as --output")
    if plot and len(set(grids[0])) < 2:
        raise ValueError(f"--plot needs at least 2 distinct values of "
                         f"{flags[0][0]}, got {getattr(args, flags[0][0][2:])!r}")
    out = run(cfg, *(g for (*_, f), g in zip(flags, grids) if not f),
              **{f: g for (*_, f), g in zip(flags, grids) if f})
    _write(args.output, out if isinstance(out, str) else records_to_csv(out))
    if plot:
        _write(plot, emit_plot(out, *axes))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in _GRID_FLAGS and argv[i].startswith("-"):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
