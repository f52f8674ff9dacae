import re
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from prs4d import channel, rxdsp
from prs4d import demapper as dm
from prs4d import harness as H
from prs4d.channel import C_LIGHT, H_PLANCK


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
        assert cfg.baud_gbd == 45.0
        assert cfg.rolloff == 0.1
        assert cfg.n_symbols == 2**16
        assert cfg.n_channels == 11
        assert cfg.span_km == 80.0
        assert cfg.alpha_db_km == 0.219
        assert cfg.disp_ps_nm_km == 4.255
        assert cfg.gamma_w_km == 1.464
        assert cfg.nf_db == 5.0
        assert cfg.step_km == 0.1

    @pytest.mark.parametrize("kw", [
        {"format": "qpsk"}, {"demapper": "hard"}, {"n_channels": 0},
        {"rolloff": 0.0}, {"rolloff": 1.5}, {"alpha_db_km": -1.0},
        {"launch_dbm": []}, {"n_symbols": 0},
    ])
    def test_invalid_fields_rejected(self, kw):
        with pytest.raises(ValueError):
            H.ExperimentConfig(**kw)

    @pytest.mark.parametrize("kw, name", [
        ({"baud_gbd": 0.0}, "baud_gbd"), ({"span_km": 0.0}, "span_km"),
        ({"step_km": 0.0}, "step_km"), ({"step_km": 80.5}, "step_km"),
        ({"launch_dbm": [-2.0, 0.0, 2.0]}, "launch_dbm"),
        ({"launch_dbm": "0"}, "launch_dbm"),
        ({"spacing_ghz": -1.0}, "spacing_ghz"),
        ({"launch_dbm": None}, "launch_dbm"),
        ({"launch_dbm": True}, "launch_dbm"),
        ({"spacing_ghz": np.nan}, "spacing_ghz"),
        ({"gamma_w_km": np.nan}, "gamma_w_km"),
        ({"launch_dbm": np.nan}, "launch_dbm"),
        ({"launch_dbm": [0.0, np.inf]}, "launch_dbm"),
        ({"nf_db": np.nan}, "nf_db"),
        ({"n_symbols": 256.5}, "n_symbols"), ({"n_channels": 1.5}, "n_channels"),
        ({"seed": 1.5}, "seed"),
        ({"step_km": None}, "step_km"), ({"ase_enabled": None}, "ase_enabled"),
        ({"gamma_w_km": [1.0]}, "gamma_w_km"),
    ])
    def test_boundary_values_name_the_field(self, kw, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            H.ExperimentConfig(**kw)

    def test_lossless_span_with_ase_rejected(self):
        with pytest.raises(ValueError, match="^alpha_db_km .*ase_enabled") as err:
            H.ExperimentConfig(alpha_db_km=0.0)
        assert "\n" not in str(err.value)
        assert not H.ExperimentConfig(alpha_db_km=0.0, ase_enabled=False).ase_enabled

    def test_sub_quantum_noise_figure_rejected_with_ase(self):
        """NF < 3 dB means n_sp < 1 in the high-gain ASE formula."""
        with pytest.raises(ValueError, match=r"^nf_db must be >= 3 with ase_enabled"):
            H.ExperimentConfig(nf_db=2.0)
        assert H.ExperimentConfig(nf_db=2.0, ase_enabled=False).nf_db == 2.0

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

    def test_overlapping_channels_rejected(self):
        """WDM spectra of (1 + rolloff) * baud_gbd = 49.5 GHz must not overlap.
        Ones that just touch pass, though (1 + 0.1) * 45 is 49.50000000000001
        in binary; a single channel has no neighbour to overlap."""
        with pytest.raises(ValueError, match=r"^spacing_ghz must be >= \(1 \+ rolloff\) "
                           r"\* baud_gbd = 49\.5 with n_channels > 1, got 49\.4$") as err:
            H.ExperimentConfig(n_channels=2, spacing_ghz=49.4)
        assert "\n" not in str(err.value)
        assert H.ExperimentConfig(n_channels=3, spacing_ghz=49.5).spacing_ghz == 49.5
        assert H.ExperimentConfig(n_channels=1, spacing_ghz=10.0).n_channels == 1

    @pytest.mark.parametrize("seed", [2**64, -2**63 - 1])
    def test_seed_beyond_64_bits_runs(self, seed):
        """An int is finite by type, so the config hands numpy no seed to
        check, and derived_seed hashes an int of any size."""
        recs = H.run_point(tiny_config(seed=seed, ase_enabled=True))
        assert [r.seed for r in recs] == [seed]

    def test_paper_fiber_written_once(self):
        cfg = H.ExperimentConfig()
        assert cfg.fiber() == channel.FiberParams()
        assert (cfg.step_km, cfg.nf_db) == (channel.LinkConfig.step_km,
                                            channel.LinkConfig.edfa_nf_db)

    def test_effective_sps_single_channel(self):
        assert tiny_config().effective_sps() == 2

    def test_effective_sps_full_band(self):
        # 11 channels x 50 GHz: band 549.5 GHz, next pow2 oversampling = 16
        assert H.ExperimentConfig().effective_sps() == 16

    def test_numpy_launch_power_is_a_plain_float(self):
        cfg = tiny_config(launch_dbm=np.float64(-2.5))
        assert type(cfg.launch_dbm) is float and cfg.launch_dbm == -2.5


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
                                       ase_enabled=True, nf_db=5.0,
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
        assert without_runtime(H.records_to_csv(a)) == without_runtime(H.records_to_csv(b))

    def test_deterministic_records(self, without_runtime):
        """A rerun reproduces every column but the measured runtime_s."""
        cfg = tiny_config(ase_enabled=True, launch_dbm=-1.0)
        a = H.run_point(cfg)
        b = H.run_point(cfg)
        assert a == b and [r.sigma2 for r in a] == [r.sigma2 for r in b]
        assert without_runtime(H.records_to_csv(a)) == without_runtime(H.records_to_csv(b))

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
        n_sp = 10 ** (cfg.nf_db / 10) / 2
        h_nu = H_PLANCK * C_LIGHT / 1550e-9
        g = 10 ** (cfg.alpha_db_km * cfg.span_km / 10)
        return p / (2 * cfg.n_spans * n_sp * h_nu * (g - 1) * cfg.baud_hz)

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

        c = cfg.build_constellation()
        ref = dm.awgn_gmi_reference(c, 10 * np.log10(snr), n_nodes=6)
        gmi_tol = self.Z * self.gmi_standard_error(c, snr, self.NS)
        assert abs(rec.gmi_bit4d - ref) < gmi_tol


class TestSweeps:
    def test_sweep_power_one_record_per_point(self):
        recs = H.sweep_power(tiny_config(ase_enabled=True), [-2.0, 0.0, 2.0])
        assert [r.launch_dbm for r in recs] == [-2.0, 0.0, 2.0]

    def test_sweeps_run_every_value_at_the_config_seed(self):
        cfg = tiny_config()
        recs = (H.sweep_power(cfg, [-2.0, 0.0, 2.0])
                + H.sweep_channels(cfg, [1, 3], powers=[-1.0, 0.0, 1.0]))
        assert [r.seed for r in recs] == [cfg.seed] * 5

    def test_sweep_power_empty_rejected(self):
        with pytest.raises(ValueError):
            H.sweep_power(tiny_config(), [])

    def test_process_pool_grid_equals_serial(self, monkeypatch, without_runtime):
        """Two pool workers give the serial records and CSV. The pool forks
        after a two-thread span in this process, and each forked worker
        runs its own spans on two threads again."""
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
        cfg = tiny_config(gamma_w_km=1.464, ase_enabled=True)
        H.run_point(cfg)
        monkeypatch.setenv("PRS4D_WORKERS", "1")
        serial = H.sweep_power(cfg, [-1.0, 3.0])
        monkeypatch.setenv("PRS4D_WORKERS", "2")
        pooled = H.sweep_power(cfg, [-1.0, 3.0])
        assert pooled == serial
        assert (without_runtime(H.records_to_csv(pooled))
                == without_runtime(H.records_to_csv(serial)))

    @pytest.mark.parametrize("value", ["0", "-3", "two", "1.5"])
    def test_bad_worker_count_rejected(self, monkeypatch, value):
        monkeypatch.setenv("PRS4D_WORKERS", value)
        with pytest.raises(ValueError,
                           match=f"^PRS4D_WORKERS must be an integer >= 1, "
                                 f"got '{value}'$"):
            H.sweep_power(tiny_config(), [0.0])

    @pytest.mark.parametrize("sweep, field, value, workers", [
        (H.sweep_power, "launch_dbm", -1.0, "1"),
        (H.sweep_power, "launch_dbm", -1.0, "2"),
        (H.sweep_distance, "n_spans", 2, "1"),
        (lambda cfg, grid: H.sweep_channels(cfg, grid, [cfg.launch_dbm]),
         "n_channels", 3, "1"),
    ], ids=["sweep_power", "sweep_power_2_workers", "sweep_distance",
            "sweep_channels"])
    def test_sweep_is_a_loop_over_run_point(self, sweep, field, value,
                                            workers, monkeypatch, without_runtime):
        """A one-value sweep is run_point(replace(cfg, field=value)) at
        cfg.seed, bit for bit: the records, sigma2 where the record carries
        it (a fitted optimum over channel counts does not), and the CSV but
        for the measured runtime_s. At -20 dBm the GMI is below 6 bit/4D,
        so it shows the noise draws."""
        cfg = tiny_config(gamma_w_km=1.464, ase_enabled=True, launch_dbm=-20.0,
                          n_symbols=2**12, demapper="both")
        point = H.run_point(replace(cfg, **{field: value}))
        monkeypatch.setenv("PRS4D_WORKERS", workers)
        recs = sweep(cfg, [value])
        assert recs == point
        if field != "n_channels":
            assert [r.sigma2 for r in recs] == [r.sigma2 for r in point]
        assert without_runtime(H.records_to_csv(recs)) == without_runtime(
            H.records_to_csv(point))

    def test_sweep_distance_taps_run_point(self, without_runtime):
        """One propagation at cfg.seed gives, at each count n, the records of
        run_point(replace(cfg, n_spans=n)) bit for bit but for runtime_s,
        because span k draws the same ASE whatever n_spans is. Input order
        and duplicates are kept, and the runtime runs from the start of the
        curve, so it does not decrease along it."""
        cfg = tiny_config(gamma_w_km=1.464, ase_enabled=True, launch_dbm=2.0,
                          n_symbols=2**12, demapper="both")
        counts = [3, 1, 2, 3]
        curve = H.sweep_distance(cfg, counts)
        points = [r for n in counts for r in H.run_point(replace(cfg, n_spans=n))]
        assert curve == points
        assert [r.sigma2 for r in curve] == [r.sigma2 for r in points]
        assert without_runtime(H.records_to_csv(curve)) == without_runtime(
            H.records_to_csv(points))
        assert {r.seed for r in curve} == {cfg.seed}
        runtimes = [r.runtime_s for r in H.sweep_distance(cfg, [1, 2, 3])]
        assert 0.0 < runtimes[0] and runtimes == sorted(runtimes)

    @pytest.mark.parametrize("run", [
        H.run_point, lambda cfg: H.sweep_distance(cfg, [cfg.n_spans])])
    def test_later_spans_hold_no_extra_frame(self, run):
        """Going from 1 to 3 spans raises the peak traced memory by less
        than 0.9 frame: no consumer of propagate_spans keeps a span's
        field alive while the next span runs."""
        cfg = tiny_config(n_channels=3, n_symbols=2**13, gamma_w_km=1.464,
                          ase_enabled=True)
        frame_bytes = 2 * cfg.n_symbols * cfg.effective_sps() * 16

        def peak(n_spans):
            tracemalloc.start()
            try:
                run(replace(cfg, n_spans=n_spans))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3) - peak(1) < 0.9 * frame_bytes

    def test_sweep_distance_distances(self):
        recs = H.sweep_distance(tiny_config(), [1, 2, 3])
        assert [r.distance_km for r in recs] == [80.0, 160.0, 240.0]

    def test_fractional_counts_rejected_before_propagation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(channel, "ssfm_span", lambda *a: calls.append(a))
        with pytest.raises(ValueError,
                           match="^n_spans must be an integer, got 2.7$"):
            H.sweep_distance(tiny_config(), [1, 2.7])
        with pytest.raises(ValueError,
                           match="^n_channels must be an integer, got 1.9$"):
            H.sweep_channels(tiny_config(), [1.9], powers=[0.0])
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
            H.sweep_distance(cfg, [1, 2])

    def test_symbol_floor_is_the_iid_estimate_floor(self):
        """The config rejects fewer symbols than estimate_iid_sigma2 takes, so
        no run_point or sweep_distance reaches the first span with them."""
        with pytest.raises(ValueError, match=f"^n_symbols must be an integer "
                                             f">= {dm.MIN_SYMBOLS}$"):
            tiny_config(n_symbols=dm.MIN_SYMBOLS - 1)
        batch = rxdsp.SymbolBatch(np.zeros(dm.MIN_SYMBOLS - 1, dtype=int),
                                  np.zeros((dm.MIN_SYMBOLS - 1, 4)))
        with pytest.raises(ValueError, match=f"need at least {dm.MIN_SYMBOLS} symbols"):
            dm.estimate_iid_sigma2(batch, tiny_config().build_constellation())
        assert len(H.run_point(tiny_config(n_symbols=dm.MIN_SYMBOLS))) == 1

    def test_numpy_integer_counts_run(self):
        cfg = tiny_config(ase_enabled=True)
        assert (H.sweep_distance(cfg, np.array([2, 1]))
                == H.sweep_distance(cfg, [2, 1]))
        assert (H.sweep_channels(cfg, [np.int64(1)], powers=[-1.0, 0.0, 1.0])
                == H.sweep_channels(cfg, [1], powers=[-1.0, 0.0, 1.0]))

    def test_repeated_values_run_once(self, monkeypatch):
        """A repeated power or channel count is the same point at cfg.seed:
        it propagates once, and its records repeat in input order."""
        calls, span = [], channel.ssfm_span
        monkeypatch.setattr(channel, "ssfm_span",
                            lambda *a: calls.append(a) or span(*a))
        cfg = tiny_config(ase_enabled=True)
        recs = H.sweep_power(cfg, [0.0, -1.0, 0.0, 0.0])
        assert len(calls) == 2
        assert [r.launch_dbm for r in recs] == [0.0, -1.0, 0.0, 0.0]
        assert recs[0] == recs[2] == recs[3] != recs[1]
        calls.clear()
        recs = H.sweep_channels(cfg, [1, 3, 1], powers=[-1.0, 0.0, 0.0, 1.0])
        assert len(calls) == 2 * 3
        assert [r.n_channels for r in recs] == [1, 3, 1]
        assert recs[0] == recs[2] and recs[0].runtime_s == recs[2].runtime_s

    def test_repeated_powers_reach_the_pool_once(self, monkeypatch):
        """Under PRS4D_WORKERS each distinct power is one pool task, and the
        records are the serial ones, duplicates kept."""
        tasks = []

        class Pool(H.ProcessPoolExecutor):
            def map(self, fn, cfgs):
                cfgs = list(cfgs)
                tasks.extend(c.launch_dbm for c in cfgs)
                return super().map(fn, cfgs)

        monkeypatch.setattr(H, "ProcessPoolExecutor", Pool)
        cfg = tiny_config(ase_enabled=True)
        monkeypatch.setenv("PRS4D_WORKERS", "2")
        pooled = H.sweep_power(cfg, [0.0, -1.0, 0.0])
        assert tasks == [0.0, -1.0]
        monkeypatch.setenv("PRS4D_WORKERS", "1")
        assert pooled == H.sweep_power(cfg, [0.0, -1.0, 0.0])

    def test_sweep_channels_structure(self):
        recs = H.sweep_channels(tiny_config(), [1], powers=[-1.0, 0.0, 1.0])
        assert len(recs) == 1
        assert recs[0].n_channels == 1
        assert -1.0 <= recs[0].launch_dbm <= 1.0


class TestFitOptimumPower:
    def test_recovers_exact_quadratic(self):
        p = np.array([-1.0, 0.0, 1.0, 2.0])
        g = 5.0 - (p - 0.3) ** 2
        p_opt, g_opt = H.fit_optimum_power(p, g)
        assert p_opt == pytest.approx(0.3, abs=1e-12)
        assert g_opt == pytest.approx(5.0, abs=1e-12)

    def test_edge_maximum_falls_back_to_grid(self):
        p = np.array([0.0, 1.0, 2.0])
        g = np.array([3.0, 2.0, 1.0])
        assert H.fit_optimum_power(p, g) == (0.0, 3.0)

    def test_repeated_power_is_one_grid_point(self):
        """0, 1, 1, 2 is the grid 0, 1, 2: the parabola through (0, 1),
        (1, 2), (2, 1.5) peaks at 7/6 dBm, off the grid."""
        p_opt, g_opt = H.fit_optimum_power([0, 1, 1, 2], [1, 2, 2, 1.5])
        assert p_opt == pytest.approx(7 / 6, abs=1e-12)
        assert g_opt == pytest.approx(1 + 49 / 48, abs=1e-12)

    def test_unsorted_grid_fits_as_sorted(self):
        p = np.array([2.0, -1.0, 1.0, 0.0])
        g = 5.0 - (p - 0.3) ** 2
        order = np.argsort(p)
        assert H.fit_optimum_power(p, g) == H.fit_optimum_power(p[order], g[order])
        assert H.fit_optimum_power(p, g)[0] == pytest.approx(0.3, abs=1e-12)

    def test_repeated_power_with_two_gmis_rejected(self):
        with pytest.raises(ValueError,
                           match="^power 1 dBm repeats with different GMIs$"):
            H.fit_optimum_power([0, 1, 1, 2], [1, 2, 2.5, 1.5])

    def test_flat_series_falls_back(self):
        p = np.array([0.0, 1.0, 2.0])
        g = np.array([1.0, 1.0, 1.0])
        p_opt, g_opt = H.fit_optimum_power(p, g)
        assert g_opt == 1.0


def rec(distance_km, gmi):
    return H.ResultRecord(launch_dbm=0.0, distance_km=distance_km,
                          n_channels=1, format="pm8qam", demapper="iid",
                          gmi_bit4d=gmi, ndr_gbps=gmi * 45, seed=0,
                          runtime_s=0.0)


class TestFindReach:
    def test_hand_computed_interpolation(self):
        out = H.find_reach([rec(1000, 5.0), rec(2000, 4.0)], 4.5)
        assert out == pytest.approx(1500.0)

    def test_uneven_spacing(self):
        # crossing between (800, 5.2) and (1600, 4.0): 800 + 0.65*800 = 1320
        out = H.find_reach([rec(800, 5.2), rec(1600, 4.0)], 4.42)
        assert out == pytest.approx(1320.0)

    def test_order_independent(self):
        records = [rec(3000, 3.0), rec(1000, 5.0), rec(2000, 4.0)]
        assert H.find_reach(records, 4.5) == H.find_reach(records[::-1], 4.5)
        assert H.find_reach(records, 4.5) == pytest.approx(1500.0)

    def test_target_above_max_errors(self):
        with pytest.raises(ValueError):
            H.find_reach([rec(1000, 5.0), rec(2000, 4.0)], 5.5)

    def test_target_below_min_errors(self):
        with pytest.raises(ValueError):
            H.find_reach([rec(1000, 5.0), rec(2000, 4.0)], 3.5)

    def test_exact_grid_hit(self):
        assert H.find_reach([rec(1000, 5.0), rec(2000, 4.0)], 4.0) == 2000.0


class TestCsv:
    def test_header_exact(self):
        assert H.CSV_HEADER == ("launch_dbm,distance_km,n_channels,format,"
                                "demapper,gmi_bit4d,ndr_gbps,seed,runtime_s")

    def test_write_csv_roundtrip(self):
        records = [rec(1000, 5.123456789), rec(2000, 4.0)]
        raw = H.records_to_csv(records)
        assert "\r" not in raw
        lines = raw.splitlines()
        assert lines[0] == H.CSV_HEADER
        assert len(lines) == 3
        parts = lines[1].split(",")
        assert float(parts[6]) == pytest.approx(float(parts[5]) * 45, rel=1e-9)

    def test_byte_identical_rewrite(self):
        records = [rec(1000, 5.0)]
        assert H.records_to_csv(records) == H.records_to_csv(records)

    def test_ten_significant_digits(self):
        row = rec(1234.56789, 4.0 / 3.0).csv_row()
        assert "1.333333333" in row
