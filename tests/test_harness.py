import numpy as np
import pytest

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
    ])
    def test_boundary_values_name_the_field(self, kw, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            H.ExperimentConfig(**kw)

    def test_effective_sps_single_channel(self):
        assert tiny_config().effective_sps() == 2

    def test_effective_sps_full_band(self):
        # 11 channels x 50 GHz: band 549.5 GHz, next pow2 oversampling = 16
        assert H.ExperimentConfig().effective_sps() == 16

    def test_explicit_sps_wins(self):
        assert tiny_config(sps=8).effective_sps() == 8


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
        recs = H.run_point(tiny_config(), launch_dbm=0.0)
        assert len(recs) == 1
        assert recs[0].gmi_bit4d == pytest.approx(6.0, abs=1e-3)

    def test_ndr_cross_column(self):
        rec = H.run_point(tiny_config(), launch_dbm=0.0)[0]
        assert rec.ndr_gbps == rec.gmi_bit4d * 45.0

    def test_both_demappers_share_data(self):
        recs = H.run_point(tiny_config(n_symbols=2**12, demapper="both",
                                       ase_enabled=True, nf_db=5.0),
                           launch_dbm=-2.0)
        assert [r.demapper for r in recs] == ["iid", "cg"]
        assert recs[0].launch_dbm == recs[1].launch_dbm == -2.0
        # iid noise after an ASE-only link: CG may not help, but the
        # invariant bounds the gap from below
        assert recs[1].gmi_bit4d >= recs[0].gmi_bit4d - 0.01

    def test_deterministic_records(self):
        cfg = tiny_config(ase_enabled=True)
        a = H.run_point(cfg, launch_dbm=-1.0)
        b = H.run_point(cfg, launch_dbm=-1.0)
        assert H.records_to_csv(a) == H.records_to_csv(b)

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

    def test_runtime_zero_without_timings(self):
        rec = H.run_point(tiny_config(), launch_dbm=0.0)[0]
        assert rec.runtime_s == 0.0

    def test_runtime_recorded_with_timings(self):
        rec = H.run_point(tiny_config(timings=True), launch_dbm=0.0)[0]
        assert rec.runtime_s > 0.0


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
                                 gamma_w_km=0.0, demapper="iid")
        rec = H.run_point(cfg, launch_dbm=-8.0)[0]
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

    def test_sweep_power_independent_seeds(self):
        recs = H.sweep_power(tiny_config(), [-2.0, 0.0, 2.0])
        assert len({r.seed for r in recs}) == 3
        assert recs[0].seed == H.derived_seed(7, "power", -2.0)

    def test_sweep_power_empty_rejected(self):
        with pytest.raises(ValueError):
            H.sweep_power(tiny_config(), [])

    def test_sweep_distance_distances(self):
        recs = H.sweep_distance(tiny_config(), [1, 2, 3])
        assert [r.distance_km for r in recs] == [80.0, 160.0, 240.0]

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

    def test_write_csv_roundtrip(self, tmp_path):
        records = [rec(1000, 5.123456789), rec(2000, 4.0)]
        path = tmp_path / "out.csv"
        H.write_csv(records, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == H.CSV_HEADER
        assert len(lines) == 3
        parts = lines[1].split(",")
        assert float(parts[6]) == pytest.approx(float(parts[5]) * 45, rel=1e-9)

    def test_byte_identical_rewrite(self, tmp_path):
        records = [rec(1000, 5.0)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        H.write_csv(records, p1)
        H.write_csv(records, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_ten_significant_digits(self):
        row = rec(1234.56789, 4.0 / 3.0).csv_row()
        assert "1.333333333" in row
