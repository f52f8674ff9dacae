import concurrent.futures
import pickle
import re
import time
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from prs4d import channel, cli, rxdsp, txdsp
from prs4d import constellation as const
from prs4d import demapper as dm
from prs4d import harness as H
from prs4d.channel import C_LIGHT, H_PLANCK, NF_DB


def tiny_config(**kw):
    """1-channel, short, transparent-by-default link that runs in ~a second."""
    base = dict(format="pm8qam", n_channels=1, n_symbols=2**11, n_spans=1,
                step_km=10.0, gamma_w_km=0.0, ase_enabled=False,
                demapper="iid", seed=7)
    base.update(kw)
    return H.ExperimentConfig(**base)


class TestExperimentConfig:
    def test_defaults_mirror_headline_setup(self):
        cfg = H.ExperimentConfig()
        assert (txdsp.BAUD_GBD, txdsp.BAUD_HZ, txdsp.SPACING_HZ) == (45.0, 45e9, 50e9)
        assert (txdsp.ROLLOFF, H._PHASE_WINDOW) == (0.1, 128)
        assert cfg.n_symbols == 2**16
        assert cfg.n_channels == 11
        assert cfg.link.span == channel.FiberParams()
        assert (cfg.link.span.length_km, cfg.link.span.disp_ps_nm_km) == (80.0, 4.255)
        assert cfg.link.span.alpha_db_km == 0.219
        assert cfg.gamma_w_km == 1.464
        assert cfg.step_km == 0.1

    @pytest.mark.parametrize("kw", [
        {"format": "qpsk"}, {"demapper": "hard"}, {"n_channels": 0},
        {"n_spans": 0}, {"gamma_w_km": -1.0}, {"step_km": -1.0},
        {"launch_dbm": []}, {"n_symbols": 0},
    ])
    def test_invalid_fields_rejected(self, kw):
        with pytest.raises(ValueError):
            H.ExperimentConfig(**kw)

    @pytest.mark.parametrize("kw, name", [
        ({"launch_dbm": -4000.0}, "launch_dbm"),
        ({"launch_dbm": -3206.1}, "launch_dbm"),
        ({"step_km": 0.0}, "step_km"), ({"step_km": 80.5}, "step_km"),
        ({"launch_dbm": [-2.0, 0.0, 2.0]}, "launch_dbm"),
        ({"launch_dbm": "0"}, "launch_dbm"),
        ({"demapper": "hard"}, "demapper"),
        ({"launch_dbm": None}, "launch_dbm"),
        ({"launch_dbm": True}, "launch_dbm"),
        ({"n_channels": 0}, "n_channels"),
        ({"gamma_w_km": np.nan}, "gamma_w_km"),
        ({"launch_dbm": np.nan}, "launch_dbm"),
        ({"launch_dbm": [0.0, np.inf]}, "launch_dbm"),
        ({"step_km": 1e-12}, "step_km"),  # more steps per span than the ceiling
        ({"n_symbols": 256.5}, "n_symbols"), ({"n_channels": 1.5}, "n_channels"),
        ({"seed": 1.5}, "seed"),
        ({"step_km": None}, "step_km"), ({"ase_enabled": None}, "ase_enabled"),
        ({"gamma_w_km": [1.0]}, "gamma_w_km"),
        ({"prs_theta": 1.0}, "prs_theta"), ({"prs_rho": -1.0}, "prs_rho"),
        ({"format": "4d64prs", "prs_theta": 0.0}, "prs_theta"),
        # past numpy's index range, rejected before any array is built
        ({"n_channels": 10**330}, "n_channels"),
        ({"n_channels": 1, "n_symbols": 10**23}, "n_symbols"),
        ({"n_channels": np.iinfo(np.intp).max // 2**16}, "n_channels"),
        # finite, but past a float once in watts or as a linear gain
        ({"launch_dbm": 1e308}, "launch_dbm"),
    ])
    def test_boundary_values_name_the_field(self, kw, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            H.ExperimentConfig(**kw)

    def test_launch_power_keeps_one_radian_per_step(self):
        """3 channels of the paper fiber in 10 km steps: L_eff = 7.854 km, so
        (8/9) gamma 3 P L_eff reaches 1 rad at P = 32.6 mW, 15.13 dBm."""
        a = 0.219 * np.log(10.0) / 10.0
        kerr = 8 / 9 * 1.464 * 3 * (1.0 - np.exp(-10.0 * a)) / a
        assert kerr * 10 ** (15.1 / 10 - 3) < 1 < kerr * 10 ** (15.2 / 10 - 3)
        H.ExperimentConfig(n_channels=3, step_km=10.0, launch_dbm=15.1)
        with pytest.raises(ValueError, match=r"^launch_dbm must be <= 15\.13 "
                           r"with step_km=10 .*got 15\.2$") as err:
            H.ExperimentConfig(n_channels=3, step_km=10.0, launch_dbm=15.2)
        assert "\n" not in str(err.value)
        assert H.ExperimentConfig(gamma_w_km=0.0, launch_dbm=400.0).launch_dbm == 400.0

    @pytest.mark.parametrize("kw, build", [
        ({"gamma_w_km": -1.0}, lambda: channel.FiberParams(gamma_w_km=-1.0)),
        ({"n_spans": 0}, lambda: channel.LinkConfig(channel.FiberParams(), 0)),
        ({"step_km": 0.0}, lambda: channel.LinkConfig(channel.FiberParams(), 1,
                                                      step_km=0.0)),
        ({"step_km": 80.5}, lambda: channel.LinkConfig(channel.FiberParams(), 1,
                                                       step_km=80.5)),
        ({"step_km": 1e-12}, lambda: channel.LinkConfig(channel.FiberParams(), 1,
                                                        step_km=1e-12)),
    ], ids=["gamma_negative", "no_spans", "step_zero", "step_over_span",
            "step_ceiling"])
    def test_link_rule_message_is_the_links(self, kw, build):
        """The config states no link rule: its error is the link's own."""
        with pytest.raises(ValueError) as cfg_err:
            H.ExperimentConfig(**kw)
        with pytest.raises(ValueError) as link_err:
            build()
        assert str(cfg_err.value) == str(link_err.value)

    @pytest.mark.parametrize("kw, build", [
        ({"prs_theta": 1.0}, lambda: const.build_4d64prs(const.DEFAULT_PRS_RHO, 1.0)),
        ({"prs_rho": -1.0}, lambda: const.build_4d64prs(-1.0, const.DEFAULT_PRS_THETA)),
        ({"format": "4d64prs", "prs_theta": 0.0},
         lambda: const.build_4d64prs(const.DEFAULT_PRS_RHO, 0.0)),
        ({"format": "6b4d_2a8psk", "ring_ratio": 0.0},
         lambda: const.build_6b4d_2a8psk(0.0)),
        ({"format": "qpsk"}, lambda: const.build_format("qpsk")),
    ], ids=["theta_over_pi_4", "rho_negative", "theta_zero", "ring_ratio_zero",
            "unknown_format"])
    def test_geometry_rule_message_is_the_builders(self, kw, build):
        """The config states no format or geometry rule: it fails when it is
        constructed, with the builder's own error."""
        with pytest.raises(ValueError) as cfg_err:
            H.ExperimentConfig(**kw)
        with pytest.raises(ValueError) as build_err:
            build()
        assert str(cfg_err.value) == str(build_err.value)

    def test_every_field_type_is_in_the_one_table(self):
        """A new field of any config dataclass cannot skip the type check."""
        for cls in (channel.FiberParams, channel.LinkConfig, H.ExperimentConfig):
            for f in fields(cls):
                assert f.type in channel.FIELD_TYPES, (cls.__name__, f.name)
        span = next(f for f in fields(channel.LinkConfig) if f.name == "span")
        assert channel.FIELD_TYPES[span.type][0] is channel.FiberParams

    @pytest.mark.parametrize("seed", [2**64, -2**63 - 1])
    def test_seed_beyond_64_bits_runs(self, seed):
        """An int is finite by type, so the config hands numpy no seed to
        check, and derived_seed hashes an int of any size."""
        recs = H.run_point(tiny_config(seed=seed, ase_enabled=True))
        assert [r.seed for r in recs] == [seed]

    def test_paper_fiber_written_once(self):
        """The fiber loss and the EDFA noise figure are the paper's, written
        once as FiberParams' default and channel.NF_DB: no config field."""
        link = H.ExperimentConfig().link
        assert link.span == channel.FiberParams()
        assert (link.step_km, channel.NF_DB) == (channel.LinkConfig.step_km, 5.0)
        assert (len(fields(H.ExperimentConfig)), len(fields(link))) == (13, 5)
        assert not {"alpha_db_km", "nf_db"} & {
            f.name for cls in (H.ExperimentConfig, channel.LinkConfig) for f in fields(cls)}
        assert link.seed == H.derived_seed(1234, "ase")

    def test_effective_sps_single_channel(self):
        assert tiny_config().effective_sps() == 2

    def test_effective_sps_full_band(self):
        # 11 channels x 50 GHz: band 549.5 GHz, next pow2 oversampling = 16
        assert H.ExperimentConfig().effective_sps() == 16

    def test_numpy_launch_power_is_a_plain_float(self):
        cfg = tiny_config(launch_dbm=np.float64(-2.5))
        assert type(cfg.launch_dbm) is float and cfg.launch_dbm == -2.5

    @pytest.mark.parametrize("name, value", [
        ("n_channels", 0), ("launch_dbm", 40), ("launch_dbm", "3")])
    def test_built_config_is_frozen(self, name, value):
        """An assignment would skip every check: no channel to receive, a
        power past the Kerr bound, a string power that numpy rejects."""
        cfg = H.ExperimentConfig(n_channels=3)
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, value)
        assert (cfg.n_channels, cfg.launch_dbm) == (3, 0.0)

    def test_pickled_config_keeps_its_checked_parts(self):
        """A pool worker gets an equal config with the same constellation."""
        cfg = tiny_config(format="4d64prs")
        twin = pickle.loads(pickle.dumps(cfg))
        assert twin == cfg and hash(twin) == hash(cfg)
        np.testing.assert_array_equal(twin.constellation.points,
                                      cfg.constellation.points)
        assert not twin.constellation.points.flags.writeable
        assert twin.link == cfg.link


class TestDerivedSeed:
    def test_deterministic(self):
        assert H.derived_seed(1, "power", -2.0) == H.derived_seed(1, "power", -2.0)

    def test_distinct_across_coordinates(self):
        seeds = {H.derived_seed(1, "power", float(p)) for p in range(20)}
        assert len(seeds) == 20

    def test_distinct_across_masters(self):
        assert H.derived_seed(1, "x") != H.derived_seed(2, "x")

    def test_uint64_range(self):
        s = H.derived_seed(12345, "spans", 8)
        assert 0 <= s < 2**64


class TestRunPoint:
    def test_transparent_link_full_gmi(self):
        recs = H.run_point(tiny_config())
        assert len(recs) == 1
        assert recs[0].gmi_bit4d == pytest.approx(6.0, abs=1e-3)

    def test_ndr_cross_column(self):
        rec = H.run_point(tiny_config())[0]
        assert rec.ndr_gbps == rec.gmi_bit4d * 45.0

    def test_both_demappers_share_data(self):
        recs = H.run_point(tiny_config(n_symbols=2**12, demapper="both",
                                       ase_enabled=True,
                                       launch_dbm=-2.0))
        assert [r.demapper for r in recs] == ["iid", "cg"]
        assert recs[0].launch_dbm == recs[1].launch_dbm == -2.0
        # iid noise after an ASE-only link: CG may not help, but the
        # invariant bounds the gap from below
        assert recs[1].gmi_bit4d >= recs[0].gmi_bit4d - 0.01

    @pytest.mark.parametrize("seed", [1.5, np.float64(1.0), "1"])
    def test_non_integer_seed_rejected(self, seed):
        """The seed keyword is replace(cfg, seed=...): the config's check."""
        msg = f"^seed must be an integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=msg):
            H.run_point(tiny_config(), seed=seed)

    def test_numpy_integer_seed_runs_as_int(self, without_runtime):
        a = H.run_point(tiny_config(ase_enabled=True), seed=3)
        b = H.run_point(tiny_config(ase_enabled=True), seed=np.int64(3))
        assert (without_runtime(cli.records_to_csv(a))
                == without_runtime(cli.records_to_csv(b)))

    def test_deterministic_records(self, without_runtime):
        """A rerun reproduces every column but the measured runtime_s."""
        cfg = tiny_config(ase_enabled=True, launch_dbm=-1.0)
        a = H.run_point(cfg)
        b = H.run_point(cfg)
        assert a == b and [r.sigma2 for r in a] == [r.sigma2 for r in b]
        assert (without_runtime(cli.records_to_csv(a))
                == without_runtime(cli.records_to_csv(b)))

    def test_golden_nonlinear_two_span_point(self):
        """Pinned outputs of a nonlinear 3-channel, 2-span point.

        Two spans take the signal through SSFM, inline CDC and the EDFA
        twice; a refactor of any of them that moves numerics fails here.
        """
        cfg = H.ExperimentConfig(n_symbols=2**12, n_channels=3, n_spans=2,
                                 step_km=10.0, launch_dbm=6.0)
        recs = {r.demapper: r for r in H.run_point(cfg)}
        assert recs["iid"].gmi_bit4d == pytest.approx(5.815730259080983,
                                                      rel=1e-12)
        assert recs["cg"].gmi_bit4d == pytest.approx(5.897838516595698,
                                                     rel=1e-12)
        for r in recs.values():
            assert r.sigma2 == pytest.approx(0.007880014101011485, rel=1e-12)

    def test_constellation_built_once_per_config(self, monkeypatch):
        """The config's check builds the constellation the run uses: none
        more for cfg, one for the seed's new config."""
        cfg, calls = tiny_config(), []
        build = const.build_format
        monkeypatch.setattr(const, "build_format",
                            lambda *a: calls.append(a) or build(*a))
        H.run_point(cfg)
        assert len(calls) == 0
        H.run_point(cfg, seed=3)
        assert len(calls) == 1

    def test_propagates_over_the_config_link(self, monkeypatch):
        cfg, links = tiny_config(), []
        link = H.propagate_link
        monkeypatch.setattr(H, "propagate_link",
                            lambda sig, lk: links.append(lk) or link(sig, lk))
        H.run_point(cfg)
        assert len(links) == 1 and links[0] is cfg.link

    def test_runtime_is_always_measured(self):
        """Every record says what it cost; no option turns the clock on."""
        rec = H.run_point(tiny_config())[0]
        assert rec.runtime_s > 0.0

    def test_runtime_spans_the_whole_point(self, monkeypatch):
        """The clock starts before the link, not at the demapper: a link
        slowed by 50 ms shows in the runtime, which stays within the
        caller's own wall time of the call."""
        link = H.propagate_link

        def slow_link(*args):
            time.sleep(0.05)
            return link(*args)

        monkeypatch.setattr(H, "propagate_link", slow_link)
        t0 = time.perf_counter()
        rec = H.run_point(tiny_config())[0]
        assert 0.05 <= rec.runtime_s <= time.perf_counter() - t0

    def test_runtime_is_not_part_of_record_equality(self):
        """runtime_s is a measurement, like sigma2 not a result: records
        that differ only in it are equal."""
        rec = H.run_point(tiny_config())[0]
        assert replace(rec, runtime_s=rec.runtime_s + 1.0) == rec

    def test_both_records_carry_the_point_runtime(self):
        """The point is timed once, after the last demap, so the iid record
        does not leave out the cg demap and the cg record does not count
        the iid one."""
        iid, cg = H.run_point(tiny_config(demapper="both", n_symbols=2**13))
        assert (iid.demapper, cg.demapper) == ("iid", "cg")
        assert iid.runtime_s == cg.runtime_s > 0.0


class TestLinearClosure:
    """gamma = 0: the link is 20 EDFAs of white ASE, so the measured SNR
    and GMI must match theory to within the estimators' own errors.

    Tolerances are Z standard errors, with Z = 5 (a correct run fails with
    probability below 1e-6). sigma^2 is the mean of 4 Ns squared Gaussian
    residuals, so its relative standard error is sqrt(2 / (4 Ns)). The GMI
    standard error is the spread of the per-symbol penalty over sqrt(Ns),
    taken from Ns AWGN symbols at the analytic SNR.
    """

    Z = 5.0
    NS = 2**14

    @staticmethod
    def analytic_snr(cfg, launch_dbm):
        """P / (2 N_spans n_sp h nu (G - 1) baud): ASE of every EDFA in the
        symbol-rate bandwidth of both polarizations."""
        p = 10 ** ((launch_dbm - 30) / 10)
        n_sp = 10 ** (NF_DB / 10) / 2
        h_nu = H_PLANCK * C_LIGHT / 1550e-9
        g = 10 ** (cfg.link.span.loss_db / 10)
        return p / (2 * cfg.n_spans * n_sp * h_nu * (g - 1) * txdsp.BAUD_HZ)

    @staticmethod
    def gmi_standard_error(c, snr, ns):
        rng = np.random.default_rng(0)
        sigma2 = 1.0 / (4 * snr)
        idx = rng.integers(0, c.M, ns)
        y = c.points[idx] + rng.normal(scale=np.sqrt(sigma2), size=(ns, 4))
        llrs = dm.llrs_for_points(y, c, dm.NoiseModel.iid(sigma2))
        signs = 1.0 - 2.0 * c.labels[idx]
        penalty = np.logaddexp(0.0, -signs * llrs).sum(axis=1) / np.log(2)
        return penalty.std() / np.sqrt(ns)

    @pytest.mark.parametrize("fmt", ["4d64prs", "pm8qam"])
    def test_snr_and_gmi_match_ase_theory(self, fmt):
        cfg = H.ExperimentConfig(format=fmt, n_channels=1, n_spans=20,
                                 n_symbols=self.NS, step_km=80.0,
                                 gamma_w_km=0.0, demapper="iid",
                                 launch_dbm=-8.0)
        rec = H.run_point(cfg)[0]
        snr = self.analytic_snr(cfg, -8.0)

        snr_err_db = 10 * np.log10(snr * 4 * rec.sigma2)
        snr_tol_db = 10 / np.log(10) * self.Z * np.sqrt(2 / (4 * self.NS))
        assert abs(snr_err_db) < snr_tol_db

        c = cfg.constellation
        ref = dm.awgn_gmi_reference(c, 10 * np.log10(snr), n_nodes=6)
        gmi_tol = self.Z * self.gmi_standard_error(c, snr, self.NS)
        assert abs(rec.gmi_bit4d - ref) < gmi_tol


# the sweep-channels command's own run: the optimum fit of one channel x power grid
sweep_channels = cli._COMMANDS["sweep-channels"][-1]


class TestSweeps:
    def test_sweeps_run_every_value_at_the_config_seed(self):
        cfg = tiny_config()
        recs = (H.run_grid(cfg, launch_dbm=[-2.0, 0.0, 2.0])
                + sweep_channels(cfg, n_channels=[1, 3], launch_dbm=[-1.0, 0.0, 1.0]))
        assert [r.seed for r in recs] == [cfg.seed] * 5

    def test_sweep_power_checks_each_power_as_given(self):
        """A power reaches the config's type check unconverted: True and "3"
        are not numbers, as on the config itself."""
        with pytest.raises(ValueError, match="^launch_dbm must be one number, got True"):
            H.run_grid(tiny_config(), launch_dbm=[True, "3"])

    def test_sweep_channels_reads_the_powers_once(self):
        """A one-pass power iterable serves every channel count."""
        cfg = tiny_config()
        assert (sweep_channels(cfg, n_channels=[1, 3], launch_dbm=iter([0.0, 1.0]))
                == sweep_channels(cfg, n_channels=[1, 3], launch_dbm=[0.0, 1.0]))

    def test_process_pool_grid_equals_serial(self, monkeypatch, without_runtime):
        """Two pool workers give the serial records and CSV, for a power
        sweep and for the optimum fit over a channel grid. The pool forks
        after a two-thread span in this process, and each forked worker
        runs its own spans on two threads again."""
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
        cfg = tiny_config(gamma_w_km=1.464, ase_enabled=True)
        H.run_point(cfg)
        for sweep in (lambda: H.run_grid(cfg, launch_dbm=[-1.0, 3.0]),
                      lambda: sweep_channels(cfg, n_channels=[1, 3],
                                             launch_dbm=[-1.0, 3.0, 1.0])):
            monkeypatch.setenv("PRS4D_WORKERS", "1")
            serial = sweep()
            monkeypatch.setenv("PRS4D_WORKERS", "2")
            pooled = sweep()
            assert pooled == serial
            assert (without_runtime(cli.records_to_csv(pooled))
                    == without_runtime(cli.records_to_csv(serial)))

    @pytest.mark.parametrize("value", ["0", "-3", "two", "1.5"])
    def test_bad_worker_count_rejected(self, monkeypatch, value):
        monkeypatch.setenv("PRS4D_WORKERS", value)
        with pytest.raises(ValueError,
                           match=f"^PRS4D_WORKERS must be an integer >= 1, "
                                 f"got '{value}'$"):
            H.run_grid(tiny_config(), launch_dbm=[0.0])

    # run_grid's own grids are checked against run_point by
    # test_sweep_distance_taps_run_point and TestRunGrid's
    # test_power_by_tap_grid_is_run_point; this is the fit's case
    @pytest.mark.parametrize("sweep", [sweep_channels], ids=["sweep_channels"])
    def test_sweep_is_a_loop_over_run_point(self, sweep, without_runtime):
        """The fit of a one-count, one-power channel sweep is
        run_point(replace(cfg, n_channels=3)) at cfg.seed: the records and
        the CSV but for the measured runtime_s (a fit carries no sigma2). At
        -20 dBm the GMI is below 6 bit/4D, so it shows the noise draws."""
        cfg = tiny_config(gamma_w_km=1.464, ase_enabled=True, launch_dbm=-20.0,
                          n_symbols=2**12, demapper="both")
        point = H.run_point(replace(cfg, n_channels=3))
        recs = sweep(cfg, n_channels=[3], launch_dbm=[cfg.launch_dbm])
        assert recs == point
        assert without_runtime(cli.records_to_csv(recs)) == without_runtime(
            cli.records_to_csv(point))

    def test_sweep_distance_taps_run_point(self, without_runtime):
        """One propagation at cfg.seed gives, at each count n, the records of
        run_point(replace(cfg, n_spans=n)) bit for bit but for runtime_s,
        because span k draws the same ASE whatever n_spans is. Input order
        and duplicates are kept, and the runtime runs from the start of the
        curve, so it does not decrease along it."""
        cfg = tiny_config(gamma_w_km=1.464, ase_enabled=True, launch_dbm=2.0,
                          n_symbols=2**12, demapper="both")
        counts = [3, 1, 2, 3]
        curve = H.run_grid(cfg, n_spans=counts)
        points = [r for n in counts for r in H.run_point(replace(cfg, n_spans=n))]
        assert curve == points
        assert [r.sigma2 for r in curve] == [r.sigma2 for r in points]
        assert without_runtime(cli.records_to_csv(curve)) == without_runtime(
            cli.records_to_csv(points))
        assert {r.seed for r in curve} == {cfg.seed}
        runtimes = [r.runtime_s for r in H.run_grid(cfg, n_spans=[1, 2, 3])]
        assert 0.0 < runtimes[0] and runtimes == sorted(runtimes)

    @pytest.mark.parametrize("run", [
        H.run_point, lambda cfg: H.run_grid(cfg, n_spans=[cfg.n_spans])])
    def test_later_spans_hold_no_extra_frame(self, run):
        """Going from 1 to 3 spans raises the peak traced memory by less
        than 0.9 frame: the one consumer of propagate_link, which run_point
        reaches as the one-tap curve, keeps no span's field alive while the
        next span runs."""
        cfg = tiny_config(n_channels=3, n_symbols=2**13, gamma_w_km=1.464,
                          ase_enabled=True)
        frame_bytes = 2 * cfg.n_symbols * cfg.effective_sps() * 16
        run(cfg)  # numpy.fft's lazy import, untraced

        def peak(n_spans):
            tracemalloc.start()
            try:
                run(replace(cfg, n_spans=n_spans))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3) - peak(1) < 0.9 * frame_bytes

    @pytest.mark.parametrize("run, taps", [
        (H.run_point, 1), (lambda cfg: H.run_grid(cfg, n_spans=[1, 2, 3]), 3)],
        ids=["run_point", "sweep_distance"])
    def test_receiver_holds_one_frame(self, monkeypatch, run, taps):
        """At each _receive the traced memory holds one frame, the received
        field: the launch frame is the span generator's alone, freed in span
        1 of run_point's one-tap curve as of any other, so it never sits
        beside a tap."""
        cfg = tiny_config(n_symbols=2**13, ase_enabled=True)
        frame_bytes = 2 * cfg.n_symbols * cfg.effective_sps() * 16
        held, receive = [], H._receive
        run(cfg)  # numpy.fft's lazy import, untraced

        def spy(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return receive(*args)

        monkeypatch.setattr(H, "_receive", spy)
        tracemalloc.start()
        try:
            run(cfg)
        finally:
            tracemalloc.stop()
        assert len(held) == taps and max(held) < 1.5 * frame_bytes

    def test_launch_frame_is_the_generators_alone(self, monkeypatch):
        """At each ssfm_span entry after span 1 the traced memory holds one
        frame, the last span's field: run_point hands the launch frame to
        the span generator, which frees it in span 1, so no span from 2 on
        runs beside it."""
        cfg = tiny_config(n_channels=3, n_symbols=2**13, n_spans=3,
                          ase_enabled=True)
        frame_bytes = 2 * cfg.n_symbols * cfg.effective_sps() * 16
        held, span = [], channel.ssfm_span
        H.run_point(cfg)  # numpy.fft's lazy import, untraced

        def spy(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return span(*args)

        monkeypatch.setattr(channel, "ssfm_span", spy)
        tracemalloc.start()
        try:
            H.run_point(cfg)
        finally:
            tracemalloc.stop()
        assert len(held) == 3 and max(held[1:]) < 1.5 * frame_bytes

    @pytest.mark.parametrize("count", [1.0, True])
    def test_count_equal_to_the_config_own_is_checked(self, count):
        """A count equal to cfg's own, 1.0 or True, is still checked: each
        tap builds its own config, which fails the type check."""
        with pytest.raises(ValueError, match=f"^n_spans must be an integer, got {count}$"):
            H.run_grid(tiny_config(), n_spans=[count])

    def test_sweep_distance_distances(self):
        recs = H.run_grid(tiny_config(), n_spans=[1, 2, 3])
        assert [r.distance_km for r in recs] == [80.0, 160.0, 240.0]

    def test_fractional_counts_rejected_before_propagation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(channel, "ssfm_span", lambda *a: calls.append(a))
        with pytest.raises(ValueError,
                           match="^n_spans must be an integer, got 2.7$"):
            H.run_grid(tiny_config(), n_spans=[1, 2.7])
        with pytest.raises(ValueError,
                           match="^n_channels must be an integer, got 1.9$"):
            sweep_channels(tiny_config(), n_channels=[1.9], launch_dbm=[0.0])
        assert calls == []

    @pytest.mark.parametrize("demapper", ["cg", "both"])
    def test_too_few_cg_counts_fail_before_propagation(self, monkeypatch, demapper):
        """A cg run that the covariance estimate would reject fails with its
        message before the first span: 1 500 PM-8QAM symbols at seed 1 send
        point 0 only 29 times."""
        def no_span(*args):
            raise AssertionError("ssfm_span called")

        monkeypatch.setattr(channel, "ssfm_span", no_span)
        cfg = tiny_config(n_symbols=1500, n_spans=2, seed=1, demapper=demapper)
        message = "^constellation point 0 transmitted 29 times; need at least 30$"
        with pytest.raises(ValueError, match=message):
            H.run_point(cfg)
        with pytest.raises(ValueError, match=message):
            H.run_grid(cfg, n_spans=[1, 2])

    def test_symbol_floor_is_the_iid_estimate_floor(self):
        """The config rejects fewer symbols than estimate_iid_sigma2 takes, so
        no run_point or run_grid reaches the first span with them."""
        with pytest.raises(ValueError, match=f"^n_symbols must be an integer "
                                             f">= {dm.MIN_SYMBOLS}$"):
            tiny_config(n_symbols=dm.MIN_SYMBOLS - 1)
        batch = rxdsp.SymbolBatch(np.zeros(dm.MIN_SYMBOLS - 1, dtype=int),
                                  np.zeros((dm.MIN_SYMBOLS - 1, 4)))
        with pytest.raises(ValueError, match=f"need at least {dm.MIN_SYMBOLS} symbols"):
            dm.estimate_iid_sigma2(batch, tiny_config().constellation)
        assert len(H.run_point(tiny_config(n_symbols=dm.MIN_SYMBOLS))) == 1

    def test_numpy_integer_counts_run(self):
        cfg = tiny_config(ase_enabled=True)
        assert (H.run_grid(cfg, n_spans=np.array([2, 1]))
                == H.run_grid(cfg, n_spans=[2, 1]))
        powers = [-1.0, 0.0, 1.0]
        assert (sweep_channels(cfg, n_channels=[np.int64(1)], launch_dbm=powers)
                == sweep_channels(cfg, n_channels=[1], launch_dbm=powers))

    def test_repeated_values_run_once(self, monkeypatch):
        """A repeated power or channel count is the same point at cfg.seed:
        it propagates once, and its records repeat in input order. A
        repeated channel count is one series, so its optimum is fitted once."""
        calls, span = [], channel.ssfm_span
        monkeypatch.setattr(channel, "ssfm_span",
                            lambda *a: calls.append(a) or span(*a))
        cfg = tiny_config(ase_enabled=True)
        recs = H.run_grid(cfg, launch_dbm=[0.0, -1.0, 0.0, 0.0])
        assert len(calls) == 2
        assert [r.launch_dbm for r in recs] == [0.0, -1.0, 0.0, 0.0]
        assert recs[0] == recs[2] == recs[3] != recs[1]
        calls.clear()
        recs = sweep_channels(cfg, n_channels=[1, 3, 1],
                              launch_dbm=[-1.0, 0.0, 0.0, 1.0])
        assert len(calls) == 2 * 3
        assert [r.n_channels for r in recs] == [1, 3]

    def test_pool_has_no_more_processes_than_points(self, monkeypatch):
        """A fork pool starts all its processes at the first task, so 5000
        workers for two distinct powers would fork 5000 processes. The
        stand-in pool records its size and maps serially: it never forks."""
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setenv("PRS4D_WORKERS", "5000")
        cfg = tiny_config()
        H.run_grid(cfg, launch_dbm=[0.0, 1.0, 0.0])
        sweep_channels(cfg, n_channels=[1, 3], launch_dbm=[0.0, 1.0, 2.0])
        assert sizes == [2, 6]  # one pool for the whole channel grid

    def test_sweep_channels_runs_only_its_grid_points(self, monkeypatch):
        """cfg's own 8 dBm is past the Kerr bound at 11 channels in one
        80 km step, but the sweep runs 0 and 2 dBm only, which are valid."""
        calls = []
        monkeypatch.setattr(channel, "ssfm_span",
                            lambda signal, *a: calls.append(a) or signal)
        cfg = tiny_config(gamma_w_km=1.464, n_symbols=4096, step_km=80.0,
                          launch_dbm=8.0)
        with pytest.raises(ValueError, match="^launch_dbm must be <= "):
            replace(cfg, n_channels=11)
        recs = sweep_channels(cfg, n_channels=[1, 11], launch_dbm=[0.0, 2.0])
        assert [r.n_channels for r in recs] == [1, 11]
        assert len(calls) == 4

    def test_sweep_channels_checks_every_point_before_any_span(self, monkeypatch):
        """(11 channels, 8 dBm) is past the Kerr bound: the sweep fails
        before it runs any point, the valid 1-channel ones included."""
        def forbidden(*args):
            raise AssertionError("ssfm_span ran")

        monkeypatch.setattr(channel, "ssfm_span", forbidden)
        cfg = tiny_config(gamma_w_km=1.464, n_symbols=4096, step_km=80.0,
                          demapper="both")
        with pytest.raises(ValueError, match="^launch_dbm must be <= "):
            sweep_channels(cfg, n_channels=[1, 11], launch_dbm=[0.0, 8.0])

    def test_sweep_channels_structure(self):
        recs = sweep_channels(tiny_config(), n_channels=[1], launch_dbm=[-1.0, 0.0, 1.0])
        assert len(recs) == 1
        assert recs[0].n_channels == 1
        assert -1.0 <= recs[0].launch_dbm <= 1.0


class TestRunGrid:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_power_by_tap_grid_is_run_point(self, monkeypatch, workers,
                                            without_runtime):
        """A power x span grid, a power repeated and the taps unsorted and
        repeated, equals run_point(replace(cfg, launch_dbm=p, n_spans=n)) at
        cfg.seed at every point, taps innermost: records, sigma2 and the CSV
        but for runtime_s, serially and on two processes. A power grid
        alone is the one tap cfg.n_spans. At -20 dBm the GMI is below 6
        bit/4D, so it shows the noise draws."""
        cfg = tiny_config(gamma_w_km=1.464, ase_enabled=True, n_symbols=2**12,
                          demapper="both")
        powers, taps = [-20.0, -22.0, -20.0], [2, 1, 2]
        monkeypatch.setenv("PRS4D_WORKERS", workers)
        for grid, size in (({"n_spans": taps}, 18), ({}, 6)):
            points = [r for p in powers for n in grid.get("n_spans", [cfg.n_spans])
                      for r in H.run_point(replace(cfg, launch_dbm=p, n_spans=n))]
            recs = H.run_grid(cfg, launch_dbm=powers, **grid)
            assert len(recs) == size and recs == points
            assert [r.sigma2 for r in recs] == [r.sigma2 for r in points]
            assert without_runtime(cli.records_to_csv(recs)) == without_runtime(
                cli.records_to_csv(points))

    def test_product_in_keyword_order_with_taps_innermost(self, monkeypatch):
        """The other fields run in keyword order, and n_spans comes
        innermost wherever its keyword stands."""
        monkeypatch.setattr(channel, "ssfm_span", lambda signal, *a: signal)
        recs = H.run_grid(tiny_config(), n_spans=[2, 1], n_channels=[3, 1],
                          launch_dbm=[0.0, -1.0])
        assert [(r.n_channels, r.launch_dbm, r.config.n_spans) for r in recs] == [
            (n, p, s) for n in (3, 1) for p in (0.0, -1.0) for s in (2, 1)]

    def test_one_pool_task_per_distinct_point(self, monkeypatch):
        """The pool maps one kind of task, _curve, over the distinct powers'
        lists of tap configs, the taps in the grid's order."""
        tasks = []

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, curves):
                curves = list(curves)
                tasks.append((fn, [[(c.launch_dbm, c.n_spans) for c in curve]
                                   for curve in curves]))
                return super().map(fn, curves)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setenv("PRS4D_WORKERS", "2")
        H.run_grid(tiny_config(), launch_dbm=[0.0, -1.0, 0.0], n_spans=[2, 1])
        assert tasks == [(H._curve, [[(0.0, 2), (0.0, 1)], [(-1.0, 2), (-1.0, 1)]])]

    def test_each_config_is_built_once(self, monkeypatch):
        """A 2-power x 2-tap grid builds 4 configs, each (point, tap) once,
        and serially every record carries one of the very configs that were
        checked, each of them once; two processes give the serial records."""
        cfg = tiny_config(ase_enabled=True)
        built, checked = [], []
        build, check = const.build_format, H.check_fields
        monkeypatch.setattr(const, "build_format",
                            lambda *a: built.append(a) or build(*a))
        monkeypatch.setattr(H, "check_fields",
                            lambda cfg: checked.append(cfg) or check(cfg))
        recs = H.run_grid(cfg, launch_dbm=[-20.0, -18.0], n_spans=[1, 2])
        assert len(built) == len(checked) == 4
        assert len(recs) == 4
        assert sorted(id(r.config) for r in recs) == sorted(map(id, checked))
        monkeypatch.setenv("PRS4D_WORKERS", "2")
        assert H.run_grid(cfg, launch_dbm=[-20.0, -18.0], n_spans=[1, 2]) == recs

    @pytest.mark.parametrize("grid, n_built", [
        ({"launch_dbm": [-2.0, 0.0, 2.0], "n_spans": [1, 2]}, 6),
        ({"n_spans": [2, 1, 2]}, 2),
        ({"launch_dbm": [0.0, 0.0], "n_spans": [2, 2]}, 1),
    ], ids=["power_by_tap", "repeated_tap", "repeated_point"])
    def test_builds_only_the_configs_it_runs(self, monkeypatch, grid, n_built):
        """With cfg.n_spans = 7, outside the taps, each distinct (point, tap)
        config is built once and no config at 7 spans is built: a point is
        built at its first tap, and a repeated tap or point reuses its
        config."""
        monkeypatch.setattr(channel, "ssfm_span", lambda signal, *a: signal)
        cfg = tiny_config(n_spans=7)
        built, build = [], const.build_format
        monkeypatch.setattr(const, "build_format",
                            lambda *a: built.append(a) or build(*a))
        recs = H.run_grid(cfg, **grid)
        assert len(built) == n_built
        assert 7 not in {r.config.n_spans for r in recs}

    def test_pool_has_one_process_per_curve(self, monkeypatch):
        """5000 workers for two distinct powers at three taps each size the
        pool 2: the taps of a power are one curve, so one process. The
        stand-in pool records its size and maps serially: it never forks."""
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setenv("PRS4D_WORKERS", "5000")
        H.run_grid(tiny_config(), launch_dbm=[0.0, 1.0, 0.0], n_spans=[1, 2, 3])
        assert sizes == [2]

    @pytest.mark.parametrize("grid, message", [
        ({"launch_dbm": [0.0, 1.0], "n_spans": [1, 2, 2.5]},
         "n_spans must be an integer, got 2.5"),
        ({"n_channels": [1, 11], "launch_dbm": [0.0, 8.0]},
         "launch_dbm must be <= 5.546 with step_km=80 (1 rad of mean Kerr "
         "phase per step), got 8"),
        ({"launch_dbm": [0.0], "n_spans": []}, "empty n_spans list"),
        ({"launch_dbm": []}, "empty launch_dbm list"),
        ({"n_spans": [1, True]}, "n_spans must be an integer, got True"),
        ({"n_spans": [1, 1.0]}, "n_spans must be an integer, got 1.0"),
        ({"n_spans": [1, [1]]}, "n_spans must be an integer, got [1]"),
        ({"n_channels": [1, True]}, "n_channels must be an integer, got True"),
        ({"launch_dbm": [1.0, True]}, "launch_dbm must be one number, got True "
         "(sweep powers with sweep-power)"),
    ], ids=["tap", "point", "empty", "empty_power", "bool_tap", "float_tap",
            "list_tap", "bool_point", "bool_power"])
    def test_bad_last_value_fails_before_any_span(self, monkeypatch, grid,
                                                  message):
        """A bad tap or point at the grid's last value fails with the
        field's own one-line message before the pool opens, so before the
        first span runs; a tap or point equal to a good one, True or 1.0
        beside 1, is no count and is checked on its own."""
        def forbidden(*args, **kw):
            raise AssertionError("a span ran or the pool opened")

        monkeypatch.setattr(channel, "ssfm_span", forbidden)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
        monkeypatch.setenv("PRS4D_WORKERS", "2")
        cfg = tiny_config(gamma_w_km=1.464, n_symbols=4096, step_km=80.0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            H.run_grid(cfg, **grid)


def series(powers, gmis, **kw):
    """Hand-made iid records of one series, one per (power, GMI), at
    tiny_config(**kw), each point taking 1 s more than the one before."""
    return [H.ResultRecord(tiny_config(launch_dbm=p, **kw), "iid", g,
                           runtime_s=k + 1.0, sigma2=0.1)
            for k, (p, g) in enumerate(zip(powers, gmis))]


def fit(powers, gmis):
    """(launch_dbm, gmi_bit4d) of the one record optimum_records fits."""
    (r,) = H.optimum_records(series(powers, gmis))
    return r.launch_dbm, r.gmi_bit4d


class TestFitOptimumPower:
    """The one optimum-power fit, optimum_records, on hand-made records and
    on real sweeps of two series."""

    def test_recovers_exact_quadratic(self):
        p = np.array([-1.0, 0.0, 1.0, 2.0])
        g = 5.0 - (p - 0.3) ** 2
        p_opt, g_opt = fit(p, g)
        assert p_opt == pytest.approx(0.3, abs=1e-12)
        assert g_opt == pytest.approx(5.0, abs=1e-12)

    def test_edge_maximum_falls_back_to_grid(self):
        p = np.array([0.0, 1.0, 2.0])
        g = np.array([3.0, 2.0, 1.0])
        assert fit(p, g) == (0.0, 3.0)

    def test_repeated_power_is_one_grid_point(self):
        """0, 1, 1, 2 is the grid 0, 1, 2: the parabola through (0, 1),
        (1, 2), (2, 1.5) peaks at 7/6 dBm, off the grid."""
        p_opt, g_opt = fit([0, 1, 1, 2], [1, 2, 2, 1.5])
        assert p_opt == pytest.approx(7 / 6, abs=1e-12)
        assert g_opt == pytest.approx(1 + 49 / 48, abs=1e-12)

    def test_unsorted_grid_fits_as_sorted(self):
        p = np.array([2.0, -1.0, 1.0, 0.0])
        g = 5.0 - (p - 0.3) ** 2
        order = np.argsort(p)
        assert fit(p, g) == fit(p[order], g[order])
        assert fit(p, g)[0] == pytest.approx(0.3, abs=1e-12)

    def test_repeated_power_with_two_gmis_rejected(self):
        with pytest.raises(ValueError,
                           match="^power 1 dBm repeats with different GMIs$"):
            fit([0, 1, 1, 2], [1, 2, 2.5, 1.5])

    def test_flat_series_falls_back(self):
        p = np.array([0.0, 1.0, 2.0])
        g = np.array([1.0, 1.0, 1.0])
        p_opt, g_opt = fit(p, g)
        assert g_opt == 1.0

    def test_two_demappers_fit_in_first_seen_order(self):
        """cg comes first, interleaved with iid: two fitted records, cg then
        iid, each with sigma2 0, its own ndr_gbps and the summed runtime_s
        of its distinct powers (the repeated 1 dBm point counts once)."""
        iid = series([0, 1, 2, 1], [1, 2, 1.5, 2])
        iid[3].runtime_s = iid[1].runtime_s  # the same point, repeated
        cg = [replace(r, demapper="cg") for r in series([0, 1, 2], [4, 3, 2])]
        fits = H.optimum_records([cg[0], iid[0], cg[1], iid[1], cg[2], iid[2],
                                  iid[3]])
        assert [r.demapper for r in fits] == ["cg", "iid"]
        assert (fits[0].launch_dbm, fits[0].gmi_bit4d) == (0.0, 4.0)
        assert fits[1].launch_dbm == pytest.approx(7 / 6, abs=1e-12)
        assert [r.ndr_gbps for r in fits] == [r.gmi_bit4d * txdsp.BAUD_GBD
                                              for r in fits]
        assert [r.sigma2 for r in fits] == [0.0, 0.0]
        assert [r.runtime_s for r in fits] == [1 + 2 + 3.0, 1 + 2 + 3.0]

    def test_two_geometries_are_two_series(self):
        """Real sweeps of the shipped 4D-64PRS geometry and of rho = 0.5,
        theta = 0.40 at one seed fit to one record each, never to a
        parabola through both."""
        cfg = H.ExperimentConfig(n_channels=1, n_symbols=2**12, n_spans=20,
                                 step_km=40.0, demapper="iid")
        shipped = H.run_grid(cfg, launch_dbm=[-6.0, -2.0, 2.0])
        other = H.run_grid(replace(cfg, prs_rho=0.5, prs_theta=0.40),
                           launch_dbm=[-4.0, 0.0, 4.0])
        fits = H.optimum_records(shipped + other)
        assert fits == H.optimum_records(shipped) + H.optimum_records(other)
        assert [(r.config.prs_rho, r.config.prs_theta) for r in fits] == [
            (cfg.prs_rho, cfg.prs_theta), (0.5, 0.40)]

    def test_unread_geometry_is_one_series(self):
        """PM-8QAM reads no geometry field, so real sweeps at prs_rho 1.6
        and 0.5 run one experiment twice: one fit per demapper, at the
        first sweep's config. At -20 dBm the GMI is below 6 bit/4D."""
        cfg = tiny_config(gamma_w_km=1.464, ase_enabled=True, n_symbols=2**12,
                          demapper="both")
        first = H.run_grid(cfg, launch_dbm=[-22.0, -20.0, -18.0])
        again = H.run_grid(replace(cfg, prs_rho=0.5), launch_dbm=[-22.0, -20.0, -18.0])
        fits = H.optimum_records(first + again)
        assert [r.demapper for r in fits] == ["iid", "cg"]
        assert fits == H.optimum_records(first)

    @pytest.mark.parametrize("fmt, one, other, n_fits", [
        ("pm8qam", {"prs_rho": 1.6, "ring_ratio": 1.5},
         {"prs_rho": 0.5, "ring_ratio": 2.0}, 1),
        ("6b4d_2a8psk", {"prs_rho": 1.6, "prs_theta": 0.45},
         {"prs_rho": 0.5, "prs_theta": 0.40}, 1),
        ("6b4d_2a8psk", {"ring_ratio": 1.5}, {"ring_ratio": 2.0}, 2),
        ("4d64prs", {"ring_ratio": 1.5}, {"ring_ratio": 2.0}, 1),
        ("4d64prs", {"prs_rho": 1.6, "prs_theta": 0.45},
         {"prs_rho": 0.5, "prs_theta": 0.40}, 2),
    ])
    def test_series_keys_the_geometry_its_format_reads(self, fmt, one, other,
                                                         n_fits):
        """Hand-made sweeps that differ only in geometry fields are one
        series where the format reads none of them, two where it does."""
        recs = [r for geometry in (one, other)
                for r in series([0, 1, 2], [3, 4, 3.5], format=fmt, **geometry)]
        assert len(H.optimum_records(recs)) == n_fits

    def test_two_steps_are_two_series(self):
        """One sweep at the default step and at step_km=80 is two links, so
        two series, not one power that repeats with two GMIs."""
        cfg = tiny_config(gamma_w_km=H.ExperimentConfig.gamma_w_km,
                          ase_enabled=True, step_km=H.ExperimentConfig.step_km)
        fine = H.run_grid(cfg, launch_dbm=[8.0, 10.0, 12.0])
        coarse = H.run_grid(replace(cfg, step_km=80.0), launch_dbm=[8.0, 10.0, 12.0])
        fits = H.optimum_records(fine + coarse)
        assert fits == H.optimum_records(fine) + H.optimum_records(coarse)
        assert [r.config.step_km for r in fits] == [cfg.step_km, 80.0]

    def test_two_distances_are_two_series(self):
        """The grouping reach needs: records at two distances, in any order,
        fit to one record per distance, in first-seen order."""
        near = series([0, 1, 2], [3, 4, 3.5])
        far = series([2, 1, 0], [1, 3, 2], n_spans=2)
        fits = H.optimum_records(far + near)
        assert [r.distance_km for r in fits] == [160.0, 80.0]
        assert [r.sigma2 for r in fits] == [0.0, 0.0]
        assert [r.runtime_s for r in fits] == [6.0, 6.0]
        assert fits[1].launch_dbm == pytest.approx(7 / 6, abs=1e-12)
        assert fits[1].gmi_bit4d == pytest.approx(3 + 49 / 48, abs=1e-12)
        assert fits[0].launch_dbm == pytest.approx(5 / 6, abs=1e-12)
        assert fits[0].gmi_bit4d == pytest.approx(2 + 25 / 24, abs=1e-12)


def rec(n_spans, gmi, demapper="iid", **kw):
    """A hand-made 4D-64PRS record after n_spans 80 km spans, at
    tiny_config(**kw)."""
    cfg = tiny_config(**{"format": "4d64prs", "n_spans": n_spans, **kw})
    return H.ResultRecord(cfg, demapper, gmi, runtime_s=0.0)


class TestFindReach:
    def test_hand_computed_interpolation(self):
        out = H.find_reach([rec(10, 5.0), rec(20, 4.0)], 4.5)
        assert out == pytest.approx(1200.0)

    def test_uneven_spacing(self):
        # crossing between (800, 5.2) and (1600, 4.0): 800 + 0.65*800 = 1320
        out = H.find_reach([rec(10, 5.2), rec(20, 4.0)], 4.42)
        assert out == pytest.approx(1320.0)

    def test_order_independent(self):
        records = [rec(30, 3.0), rec(10, 5.0), rec(20, 4.0)]
        assert H.find_reach(records, 4.5) == H.find_reach(records[::-1], 4.5)
        assert H.find_reach(records, 4.5) == pytest.approx(1200.0)

    def test_target_above_max_errors(self):
        with pytest.raises(ValueError):
            H.find_reach([rec(10, 5.0), rec(20, 4.0)], 5.5)

    def test_target_below_min_errors(self):
        with pytest.raises(ValueError):
            H.find_reach([rec(10, 5.0), rec(20, 4.0)], 3.5)

    def test_exact_grid_hit(self):
        assert H.find_reach([rec(10, 5.0), rec(20, 4.0)], 4.0) == 1600.0

    @pytest.mark.parametrize("other", [{"demapper": "cg"}, {"format": "pm8qam"},
                                       {"n_channels": 3}, {"seed": 9},
                                       {"prs_rho": 0.5}])
    def test_mixed_series_rejected(self, other):
        """5.5/5.6 in one series and 4.5/4.7 in a series that differs in one
        demapper or config field: mixed, 5.55 seemed reached at 800 km."""
        records = [rec(10, 5.5), rec(20, 5.6), rec(10, 4.5, **other),
                   rec(20, 4.7, **other)]
        with pytest.raises(ValueError, match="^records must come from one series$"):
            H.find_reach(records, 5.55)

    def test_repeated_distance_with_two_gmis_rejected(self):
        with pytest.raises(ValueError,
                           match="^distance 800 km repeats with different GMIs$"):
            H.find_reach([rec(10, 5.0), rec(10, 4.8), rec(20, 4.0)], 4.5)

    def test_repeated_taps_are_one_point(self):
        """run_grid repeats a repeated span count's records."""
        records = [rec(10, 5.0), rec(20, 4.0), rec(10, 5.0), rec(20, 4.0)]
        assert H.find_reach(records, 4.5) == pytest.approx(1200.0)
        assert H.find_reach(records, 5.0) == 800.0

    def test_reach_of_fitted_grid_records(self):
        """The reach composition on real records: one run_grid over power x
        span count, optimum_records fits each (distance, demapper), and each
        demapper's fits are one find_reach series, whose midpoint GMI is
        crossed inside the 800-3 200 km grid. iid and cg fits together are
        two series."""
        cfg = H.ExperimentConfig(format="pm8qam", n_channels=1, n_symbols=2**12,
                                 step_km=40.0, demapper="both")
        fits = H.optimum_records(H.run_grid(cfg, launch_dbm=[-4, -2, 0],
                                            n_spans=[10, 20, 40]))
        assert [(r.distance_km, r.demapper) for r in fits] == [
            (d, kind) for d in (800.0, 1600.0, 3200.0) for kind in ("iid", "cg")]
        for kind in ("iid", "cg"):
            curve = [r for r in fits if r.demapper == kind]
            gmis = [r.gmi_bit4d for r in curve]
            assert 800.0 <= H.find_reach(curve, (max(gmis) + min(gmis)) / 2) <= 3200.0
        with pytest.raises(ValueError, match="^records must come from one series$"):
            H.find_reach(fits, fits[0].gmi_bit4d)

