"""The benchmark's tracer binds prs4d names; a refactor must keep them.

perfbench/tracing.py shims functions by module attribute and reads some of
their arguments by name. A renamed function or argument there would drop a
per-layer metric silently, so this checks the contract directly.
"""

import functools
import importlib
import importlib.util
import inspect
import json
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_callable(tracing):
    for name, places in tracing.TARGETS.items():
        for mod, attr in places:
            module = importlib.import_module(f"prs4d.{mod}")
            assert callable(getattr(module, attr, None)), f"{name}: {mod}.{attr}"


@pytest.mark.parametrize("mod, attr, params", [
    ("channel", "ssfm_span", ("signal", "fiber", "step_km")),
    ("demapper", "llrs_for_points", ("y", "c", "model")),
    # perfbench/workloads.py passes these positionally
    ("constellation", "build_format",
     ("name", "prs_rho", "prs_theta", "ring_ratio")),
    ("demapper", "awgn_gmi_reference", ("c", "snr_db", "method")),
    # perfbench/calibrate.py wraps it with this signature
    ("demapper", "gmi_from_llrs", ("llrs", "m")),
])
def test_counted_arguments_keep_their_names(mod, attr, params):
    fn = getattr(importlib.import_module(f"prs4d.{mod}"), attr)
    assert tuple(inspect.signature(fn).parameters)[:len(params)] == params


def test_awgn_design_call_matches_its_reference(workloads):
    """perfbench/workloads.py calls awgn_gmi_reference(c, AWGN_SNR_DB,
    "quadrature", n_nodes=3) for each format and checks the GMI against
    reference.json's tiny awgn_design entry within AWGN_TOL."""
    from prs4d import constellation, demapper

    fn = demapper.awgn_gmi_reference
    assert tuple(inspect.signature(fn).parameters) == ("c", "snr_db", "method", "n_nodes")
    ref = json.loads(workloads.REFERENCE_PATH.read_text())["awgn_design"]["tiny"]
    for fmt in workloads.AWGN_FORMATS:
        c = constellation.build_format(fmt)
        gmi = fn(c, workloads.AWGN_SNR_DB, "quadrature", n_nodes=3)
        assert abs(gmi - ref[fmt]) <= workloads.AWGN_TOL, fmt
    with pytest.raises(ValueError, match="^unknown method 'monte_carlo'"):
        fn(c, workloads.AWGN_SNR_DB, method="monte_carlo")


def test_run_point_seed_keyword_is_replace(workloads, without_runtime):
    """perfbench/workloads.py calls run_point(cfg, seed=s) with a 64-bit
    op_seed. That is run_point(replace(cfg, seed=s)): the same records,
    sigma2 and CSV but for runtime_s, also for s >= 2**63. A bool seed is
    rejected by the config, not run as seed 1."""
    from prs4d import harness

    cfg = harness.ExperimentConfig(
        format="pm8qam", n_channels=1, n_symbols=2**12, n_spans=1,
        step_km=80.0, launch_dbm=0.0, demapper="both")
    s = next(s for i in range(64) if (s := workloads.op_seed(1, 0, i)) >= 2**63)
    keyword = harness.run_point(cfg, seed=s)
    replaced = harness.run_point(replace(cfg, seed=s))
    assert keyword == replaced and [r.seed for r in keyword] == [s, s]
    assert [r.sigma2 for r in keyword] == [r.sigma2 for r in replaced]
    assert (without_runtime(harness.records_to_csv(keyword))
            == without_runtime(harness.records_to_csv(replaced)))
    with pytest.raises(ValueError, match="^seed must be an integer"):
        harness.run_point(cfg, seed=True)


@pytest.mark.parametrize("name", ["wdm_link", "demap_burst"])
@pytest.mark.parametrize("size", ["full", "tiny"])
def test_run_point_configs_pass_the_config_checks(workloads, name, size):
    """Every op builds its workload's config and replaces the seed with an
    op_seed. A boundary check that rejected either would fail every op,
    and success_ratio would read 0."""
    cfg = workloads.run_point_config(name, size)
    assert replace(cfg, seed=workloads.op_seed(1, 0, 0)).n_symbols == cfg.n_symbols


def test_calibration_reads_the_llr_batch_fields():
    """perfbench/calibrate.py recomputes the GMI from LlrBatch.llrs/.bits."""
    from prs4d.demapper import LlrBatch

    batch = LlrBatch(llrs=np.zeros((2, 3)), bits=np.ones((2, 3), np.uint8))
    assert batch.llrs.shape == batch.bits.shape == (2, 3)


def test_run_point_passes_the_traced_transmitter(tracing):
    """One run_point shapes and scales each channel once and multiplexes
    once into a time-domain frame of Ns * sps samples, which one SSFM step
    propagates; otherwise the txdsp.* and channel.* metrics would read 0
    without any error. The tracer counts samples by SampledSignal.x."""
    from prs4d import harness

    cfg = harness.ExperimentConfig(
        format="pm8qam", n_channels=3, n_symbols=256, n_spans=1,
        step_km=80.0, launch_dbm=0.0, demapper="iid")
    tracer = tracing.Tracer()
    with tracer.installed():
        harness.run_point(cfg, seed=1)
    names = [s["name"] for s in tracer.ops[0]]
    assert names.count("txdsp.rrc_shape") == cfg.n_channels
    assert names.count("txdsp.set_mean_power") == cfg.n_channels
    assert names.count("txdsp.wdm_mux") == 1
    metrics = tracing.op_layer_metrics(
        tracer.ops[0], ["txdsp.frame_samples", "channel.ssfm_steps"],
        tracer.absent)
    frame = cfg.n_symbols * cfg.effective_sps()
    assert metrics == {"txdsp.frame_samples": frame, "channel.ssfm_steps": 1}
    [span] = [s for s in tracer.ops[0] if s["name"] == "channel.ssfm_span"]
    assert span["samples"] == frame



def test_run_point_names_one_llr_span_per_law(tracing):
    """The tracer names each llrs_for_points span from NoiseModel.kind, so
    a run_point with demapper="both" must pass one model of kind "iid" and
    one of kind "cg"; a model without kind, or with other kind values,
    would drop demapper.llrs_iid_s and demapper.llrs_cg_s silently."""
    from prs4d import harness

    cfg = harness.ExperimentConfig(
        format="pm8qam", n_channels=1, n_symbols=2**13, n_spans=1,
        step_km=80.0, launch_dbm=0.0, demapper="both")
    tracer = tracing.Tracer()
    with tracer.installed():
        harness.run_point(cfg, seed=1)
    names = [s["name"] for s in tracer.ops[0]]
    assert names.count("demapper.llrs_iid") == names.count("demapper.llrs_cg") == 1
    wanted = ["demapper.llrs_iid_s", "demapper.llrs_cg_s"]
    metrics = tracing.op_layer_metrics(tracer.ops[0], wanted, tracer.absent)
    assert sorted(metrics) == sorted(wanted)
    assert all(v > 0 for v in metrics.values()), metrics


def test_traced_link_calls_are_counted(monkeypatch):
    """The tracer shims harness.propagate_link and channel.ssfm_span: one
    run_point calls the first once and the second once per span, and a
    distance curve propagates once up to its largest count, so a curve
    costs max(counts) spans. propagate_link is the span generator, so
    channel.propagate_link_s times only its creation; the link's time is
    in channel.ssfm_span_s and channel.edfa_s."""
    from prs4d import channel, harness

    calls = []

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "propagate_link",
                        counted("link", harness.propagate_link))
    monkeypatch.setattr(channel, "ssfm_span", counted("span", channel.ssfm_span))
    cfg = harness.ExperimentConfig(
        format="pm8qam", n_channels=1, n_symbols=256, n_spans=3,
        step_km=80.0, launch_dbm=0.0, demapper="iid")
    harness.run_point(cfg)
    assert calls == ["link"] + ["span"] * cfg.n_spans
    calls.clear()
    harness.run_grid(cfg, n_spans=[4, 2, 4])
    assert calls == ["link"] + ["span"] * 4


def test_shimmed_calls_stay_on_the_calling_thread(tracing, monkeypatch):
    """The tracer keeps one span stack, which is not thread-safe, so every
    shimmed call of a traced run_point must run on the calling thread:
    ssfm_span's helper thread may run only private, unshimmed code. Two
    CPUs are reported so that the helper runs on any host."""
    from prs4d import channel, harness

    threads = {}

    def recorded(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
    for name, places in tracing.TARGETS.items():
        for mod, attr in places:
            module = importlib.import_module(f"prs4d.{mod}")
            monkeypatch.setattr(module, attr,
                                recorded(name, getattr(module, attr)))
    monkeypatch.setattr(channel, "_kerr", recorded("_kerr", channel._kerr))
    cfg = harness.ExperimentConfig(
        format="pm8qam", n_channels=3, n_symbols=256, n_spans=1,
        step_km=20.0, launch_dbm=0.0, demapper="iid")
    tracer = tracing.Tracer()
    with tracer.installed():
        harness.run_point(cfg, seed=1)
    assert len(threads.pop("_kerr")) == 2  # the helper thread did run
    assert "channel.ssfm_span" in threads
    assert all(t == {threading.get_ident()} for t in threads.values()), threads
