"""Span tracing by shims set as module attributes of the prs4d package.

Each shim records one span (name, start, end, parent) per call, plus counts
taken from the call's arguments or result. Spans stay in memory until the
run ends. Shims are installed only around a traced op, so an untraced op
runs the program's own functions. A target that no longer exists is
reported as absent and the metrics built on it are left out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import time

# Span name -> (module, attribute) places that hold the function. harness
# imports propagate_link by name, so it is shimmed where harness finds it.
TARGETS = {
    "harness.run_point": [("harness", "run_point")],
    "constellation.build_format": [("constellation", "build_format")],
    "constellation.map_bits_to_symbols": [("constellation", "map_bits_to_symbols")],
    "txdsp.generate_bits": [("txdsp", "generate_bits")],
    "txdsp.rrc_shape": [("txdsp", "rrc_shape")],
    "txdsp.set_mean_power": [("txdsp", "set_mean_power")],
    "txdsp.wdm_mux": [("txdsp", "wdm_mux")],
    "channel.propagate_link": [("harness", "propagate_link"),
                               ("channel", "propagate_link")],
    "channel.ssfm_span": [("channel", "ssfm_span")],
    "channel.inline_cdc": [("channel", "inline_cdc")],
    "channel.edfa": [("channel", "edfa")],
    "rxdsp.channel_select": [("rxdsp", "channel_select")],
    "rxdsp.genie_phase_compensation": [("rxdsp", "genie_phase_compensation")],
    "rxdsp.genie_gain": [("rxdsp", "genie_gain")],
    "demapper.estimate_iid_sigma2": [("demapper", "estimate_iid_sigma2")],
    "demapper.estimate_point_covariances": [("demapper", "estimate_point_covariances")],
    "demapper.gmi_from_llrs": [("demapper", "gmi_from_llrs")],
    "demapper.awgn_gmi_reference": [("demapper", "awgn_gmi_reference")],
    # split by noise model into demapper.llrs_iid / demapper.llrs_cg
    "demapper.llrs": [("demapper", "llrs_for_points")],
}


def _ssfm_counts(a, result):
    # full steps plus one shorter final step, as ssfm_span splits the span
    fiber, step = a["fiber"], a["step_km"]
    n_full, rem = divmod(fiber.length_km, step)
    steps = int(round(n_full)) + (1 if rem > 1e-9 * fiber.length_km else 0)
    return {"steps": steps, "samples": a["signal"].x.size}


COUNTERS = {
    "channel.ssfm_span": _ssfm_counts,
    "txdsp.wdm_mux": lambda a, result: {"samples": result.x.size},
    "demapper.llrs": lambda a, result: {"entries": len(a["y"]) * a["c"].M},
}


class Tracer:
    """Installs the shims around traced ops and keeps each op's spans."""

    def __init__(self):
        self.ops: list[list[dict]] = []
        self._spans: list[dict] = []
        self._stack: list[int] = []
        self._places = []  # (span name, module, attribute) present now
        for name, places in TARGETS.items():
            for mod, attr in places:
                try:
                    module = importlib.import_module(f"prs4d.{mod}")
                except ImportError:
                    continue
                if callable(getattr(module, attr, None)):
                    self._places.append((name, module, attr))
        self.absent = sorted(set(TARGETS) - {p[0] for p in self._places})

    def _shim(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None}
            if name == "demapper.llrs":
                span["name"] = f"demapper.llrs_{bound['model'].kind}"
            self._stack.append(len(self._spans))
            self._spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.update(counter(bound, result))
            return result

        return shim

    @contextlib.contextmanager
    def installed(self):
        """Shim every present target while one op runs, then restore."""
        saved = []
        self._spans = []
        try:
            for name, module, attr in self._places:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._shim(name, fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            self.ops.append(self._spans)


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


# Metrics that are not "<span name>_s" self times -> the span they come from.
SOURCE_SPAN = {
    "txdsp.frame_samples": "txdsp.wdm_mux",
    "channel.ssfm_steps": "channel.ssfm_span",
    "channel.step_ms": "channel.ssfm_span",
    "channel.msample_steps_per_s": "channel.ssfm_span",
    "demapper.llrs_iid_s": "demapper.llrs",
    "demapper.llrs_cg_s": "demapper.llrs",
    "demapper.logpdf_entries": "demapper.llrs",
    "demapper.mentries_per_s": "demapper.llrs",
}


def op_layer_metrics(spans: list[dict], names: list[str],
                     absent: list[str]) -> dict:
    """The named per-layer metrics of one op, from its spans.

    Times are self times in seconds; a metric whose span target is absent
    is left out.
    """
    self_s: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + t
    ssfm = [s for s in spans if s["name"] == "channel.ssfm_span"]
    steps = sum(s["steps"] for s in ssfm)
    sample_steps = sum(s["steps"] * s["samples"] for s in ssfm)
    ssfm_t = self_s.get("channel.ssfm_span", 0.0)
    entries = sum(s["entries"] for s in spans
                  if s["name"].startswith("demapper.llrs_"))
    llr_t = (self_s.get("demapper.llrs_iid", 0.0)
             + self_s.get("demapper.llrs_cg", 0.0))
    derived = {
        "txdsp.frame_samples": max(
            (s["samples"] for s in spans if s["name"] == "txdsp.wdm_mux"),
            default=0),
        "channel.ssfm_steps": steps,
        "channel.step_ms": 1e3 * ssfm_t / steps if steps else 0.0,
        "channel.msample_steps_per_s":
            sample_steps / ssfm_t / 1e6 if ssfm_t > 0 else 0.0,
        "demapper.logpdf_entries": entries,
        "demapper.mentries_per_s": entries / llr_t / 1e6 if llr_t > 0 else 0.0,
    }
    out = {}
    for metric in names:
        if SOURCE_SPAN.get(metric, metric[:-2]) in absent:
            continue
        out[metric] = (derived[metric] if metric in derived
                       else self_s.get(metric[:-2], 0.0))
    return out


def median_metrics(per_op: list[dict]) -> dict:
    """Median over ops of each metric that every op reported."""
    if not per_op:
        return {}
    keys = set.intersection(*(set(d) for d in per_op))
    return {k: statistics.median(d[k] for d in per_op) for k in sorted(keys)}
