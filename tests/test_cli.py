import argparse
import hashlib
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from prs4d import channel, cli, constellation as C, demapper as D, harness as H


class TestParseConfig:
    def test_no_file_gives_defaults(self):
        assert cli.parse_config(None) == H.ExperimentConfig()

    def test_empty_file_gives_defaults(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("")
        assert cli.parse_config(str(p)) == H.ExperimentConfig()

    def test_file_values_and_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# a comment\nformat = pm8qam\nstep_km = 0.5\n\n"
                     "n_symbols = 4096  # inline comment\n")
        cfg = cli.parse_config(str(p))
        assert cfg.format == "pm8qam"
        assert cfg.step_km == 0.5
        assert cfg.n_symbols == 4096

    def test_override_applied_last(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("step_km = 0.1\n")
        cfg = cli.parse_config(str(p), ["step_km=0.5"])
        assert cfg.step_km == 0.5

    def test_unknown_key_lists_valid_keys(self):
        with pytest.raises(ValueError, match="step_km"):
            cli.parse_config(None, ["no_such_key=1"])

    def test_invariant_violation_names_field(self):
        with pytest.raises(ValueError, match="gamma_w_km"):
            cli.parse_config(None, ["gamma_w_km=-1"])

    def test_launch_power_list(self):
        """A config is one point; a power list belongs to sweep-power."""
        with pytest.raises(ValueError, match=r"^launch_dbm must be one number, "
                                             r"got '-2,0,2' \(sweep powers "
                                             r"with sweep-power\)$"):
            cli.parse_config(None, ["launch_dbm=-2,0,2"])

    def test_launch_power_scalar(self):
        cfg = cli.parse_config(None, ["launch_dbm=1.5"])
        assert cfg.launch_dbm == 1.5

    def test_bool_coercion(self):
        assert cli.parse_config(None, ["ase_enabled=false"]).ase_enabled is False
        assert cli.parse_config(None, ["ase_enabled=1"]).ase_enabled is True
        with pytest.raises(ValueError):
            cli.parse_config(None, ["ase_enabled=maybe"])

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("just a word\n")
        with pytest.raises(ValueError, match="key=value"):
            cli.parse_config(str(p))

    def test_malformed_override_rejected(self):
        with pytest.raises(ValueError):
            cli.parse_config(None, ["step_km"])


# a text each field type's parser, or the config's check of it, rejects
UNPARSABLE = {"str": "bogus", "bool": "maybe", "int": "2.5", "float": "x"}


class TestFieldRoundTrip:
    """Every config field reads through one parser, so a field added to
    ExperimentConfig is readable with no CLI edit."""

    @pytest.mark.parametrize("f", fields(H.ExperimentConfig), ids=lambda f: f.name)
    def test_default_as_text_gives_the_default(self, f):
        default = getattr(H.ExperimentConfig(), f.name)
        assert (cli.parse_config(None, [f"{f.name}={default}"])
                == H.ExperimentConfig())

    @pytest.mark.parametrize("f", fields(H.ExperimentConfig), ids=lambda f: f.name)
    def test_unparsable_text_fails_in_one_line(self, tmp_path, capsys, f):
        out = tmp_path / "r.csv"
        assert cli.main(["simulate", "--output", str(out), "--set",
                         f"{f.name}={UNPARSABLE[f.type]}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {f.name} must be ") and err.count("\n") == 1
        assert not out.exists()


class TestParseGrid:
    def test_colon_range(self):
        assert cli._parse_grid("--powers", "-4:6:2") == [-4.0, -2.0, 0.0, 2.0, 4.0, 6.0]

    def test_comma_list(self):
        assert cli._parse_grid("--powers", "1,2.5,4") == [1.0, 2.5, 4.0]

    def test_single_point_range(self):
        assert cli._parse_grid("--powers", "10:10:1") == [10.0]

    def test_range_stops_at_upper_bound(self):
        assert cli._parse_grid("--powers", "0:2:0.7") == pytest.approx([0.0, 0.7, 1.4])
        assert cli._parse_grid("--powers", "4:0:-2") == [4.0, 2.0, 0.0]
        assert len(cli._parse_grid("--powers", "0:1:0.1")) == 11

    def test_float_range_holds_the_decimal_values(self):
        """Each value is the double nearest lo + k step in decimal: lo + k * step
        in doubles gave 0.6000000000000001, 1.5000000000000002 and
        1.6500000000000001 here."""
        assert cli._parse_grid("--rho", "0.3:2:0.05") == [
            round(0.3 + 0.05 * k, 2) for k in range(35)]
        assert cli._parse_grid("--powers", "0:2:0.7") == [0, 0.7, 1.4]

    def test_integer_grid_stays_integer(self):
        grid = cli._parse_grid("--spans", "2:10:3", "n_spans")
        assert grid == [2, 5, 8] and all(type(v) is int for v in grid)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty range"):
            cli._parse_grid("--powers", "5:4:1")

    @pytest.mark.parametrize("command, flag", [
        ("gmi-awgn", "--snr"), ("sweep-power", "--powers"),
        ("sweep-channels", "--powers"), ("optimize-constellation", "--rho"),
        ("optimize-constellation", "--theta"),
    ])
    @pytest.mark.parametrize("spec", ["1:2", "1,x", "0:nan:1"])
    def test_malformed_grid_names_the_flag(self, tmp_path, capsys, command,
                                           flag, spec):
        out = tmp_path / "r.csv"
        args = [command, f"{flag}={spec}"]
        if command != "optimize-constellation":
            args += ["--output", str(out)] + TINY
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (f"error: {flag} {spec!r}: expected "
                                "lo:hi:step or a comma list of numbers\n")

    @pytest.mark.parametrize("command, flag, spec, error", [
        ("sweep-power", "--powers", "0:1e308:1e-308",
         "--powers '0:1e308:1e-308': 1e+616 values, more than 100000"),
        ("gmi-awgn", "--snr", "1e308:-1e308:-1e308",
         "snr_db must be a finite SNR in dB, got 1e+308"),
        ("gmi-awgn", "--snr", "1e308:-1e308:1e-308", "--snr '1e308:-1e308:1e-308': empty range"),
    ])
    def test_range_of_no_finite_length_names_the_flag(self, capsys, command,
                                                      flag, spec, error):
        """hi - lo overflows a double, but the count is exact: 1e616 + 1
        values fail the bound, and the 3 values 1e308, 0, -1e308 parse and
        reach the run, whose SNR check rejects the first."""
        assert cli.main([command, f"{flag}={spec}", "--output", "-"] + TINY) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_range_stops_at_or_below_hi(self):
        """The count is exact: no margin of 1e-9 steps reaches past hi, and
        a range whose hi - lo overflows a double has its 3 values."""
        assert cli._parse_grid("--snr", "0:0.9999999999:1") == [0.0]
        assert cli._parse_grid("--snr", "0:2.9999999995:1") == [0.0, 1.0, 2.0]
        assert cli._parse_grid("--snr", "1e308:-1e308:-1e308") == [1e308, 0.0, -1e308]

    def test_range_longer_than_the_bound_fails_before_it_is_built(self, capsys):
        """The count is checked before any value is made: one past the bound
        fails with one line that names the count, and a count near 10^300
        reads in six significant digits, not 301."""
        for spec, count in [(f"0:{cli._MAX_GRID}:1", f"{cli._MAX_GRID + 1}"),
                            ("0:1:1e-300", "1e+300")]:
            assert cli.main(["sweep-power", f"--powers={spec}", "--output", "-"]
                            + TINY) == 1
            assert capsys.readouterr() == ("", f"error: --powers {spec!r}: "
                                           f"{count} values, more than "
                                           f"{cli._MAX_GRID}\n")

    def test_range_of_exactly_the_bound_parses(self):
        grid = cli._parse_grid("--powers", f"1:{cli._MAX_GRID}:1")
        assert len(grid) == cli._MAX_GRID and grid[-1] == cli._MAX_GRID

    @pytest.mark.parametrize("args, runner, shown", [
        (["sweep-channels", "--channels", f"1:{10**5}:1", "--powers", f"1:{10**5}:1",
          "--output", "-"], "run_grid", "--channels x --powers: 10000000000"),
        (["optimize-constellation", "--rho", f"1:{10**5}:1", "--theta", "0.1,0.2"],
         "optimize_prs_params", "--rho x --theta: 200000"),
        (["sweep-power", "--powers", ",".join(["0"] * (10**5 + 1)), "--output", "-"],
         "run_grid", "--powers: 100001"),
    ], ids=["range_product", "design_product", "comma_list"])
    def test_grid_past_the_bound_fails_before_any_config(
            self, capsys, monkeypatch, args, runner, shown):
        """The bound holds for a command's points, not only for each range:
        a product of two ranges or a long comma list fails in one line
        before any config is read or any point is listed."""
        def forbidden(*a, **k):
            raise AssertionError("ran")

        monkeypatch.setattr(cli, "parse_config", forbidden)
        monkeypatch.setattr(H, runner, forbidden)
        assert cli.main(args) == 1
        assert capsys.readouterr() == ("", f"error: {shown} grid points, more "
                                           f"than {cli._MAX_GRID}\n")

    def test_grid_of_exactly_the_bound_runs(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(H, "run_grid", lambda cfg, **grid: calls.append(grid) or [])
        assert cli.main(["sweep-channels", "--channels", "1:10:1", "--powers",
                         f"1:{cli._MAX_GRID // 10}:1", "--output", "-"] + TINY) == 0
        assert [len(g["n_channels"]) * len(g["launch_dbm"]) for g in calls] == [cli._MAX_GRID]


# each command's option strings in order (--plot where it plots), its
# --output default and the default of each of its grid flags
SURFACE = {
    "simulate": (("--config", "--set", "--output"), "results.csv", {}),
    "sweep-power": (("--config", "--set", "--output", "--plot", "--powers"),
                    "results.csv", {"--powers": "-4:6:1"}),
    "sweep-distance": (("--config", "--set", "--output", "--plot", "--spans"),
                       "results.csv", {"--spans": "4,6,8,10,12,14"}),
    "sweep-channels": (("--config", "--set", "--output", "--plot", "--channels",
                        "--powers"), "results.csv",
                       {"--channels": "1,3,5", "--powers": "-2:4:0.5"}),
    "gmi-awgn": (("--config", "--set", "--output", "--snr"), "-", {"--snr": "0:20:2"}),
    "optimize-constellation": (("--snr", "--rho", "--theta"), None,
                               {"--snr": 8.1, "--rho": "1.2:2:0.1",
                                "--theta": "0.25:0.65:0.05"}),
    "export-constellation": (("--config", "--set", "--output"), "constellation.csv",
                             {}),
}


@pytest.mark.parametrize("command", SURFACE)
def test_cli_surface(command):
    """The options and defaults each command offers, as the parser builds them."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(SURFACE)
    options, output, grids = SURFACE[command]
    actions = {a.option_strings[-1]: a for a in sub.choices[command]._actions}
    assert tuple(actions) == ("--help", *options)
    assert (actions["--output"].default if output else None) == output
    assert {flag: actions[flag].default for flag in grids} == grids


def rec(fmt, dmp, x, y):
    cfg = H.ExperimentConfig(format=fmt, n_channels=3, n_spans=10, seed=0, launch_dbm=x)
    return H.ResultRecord(cfg, dmp, y, runtime_s=0.0)


class TestCsv:
    """cli._csv renders every table; the record table is its CSV_COLUMNS."""

    def test_header_exact(self):
        assert cli.records_to_csv([]) == ("launch_dbm,distance_km,n_channels,format,"
                                          "demapper,gmi_bit4d,ndr_gbps,seed,runtime_s\n")

    def test_write_csv_roundtrip(self):
        records = [rec("4d64prs", "iid", 0.0, 5.123456789), rec("4d64prs", "iid", 1.0, 4.0)]
        raw = cli.records_to_csv(records)
        assert "\r" not in raw
        lines = raw.splitlines()
        assert lines[0] == ",".join(cli.CSV_COLUMNS)
        assert len(lines) == 3
        parts = lines[1].split(",")
        assert float(parts[6]) == pytest.approx(float(parts[5]) * 45, rel=1e-9)

    def test_byte_identical_rewrite(self):
        records = [rec("4d64prs", "iid", 0.0, 5.0)]
        assert cli.records_to_csv(records) == cli.records_to_csv(records)

    def test_ten_significant_digits(self, capsys):
        """A float cell has 10 significant digits, in the record table and
        in gmi-awgn's curve alike."""
        row = cli.records_to_csv([rec("4d64prs", "iid", 1.2345678912345,
                                      4.0 / 3.0)]).splitlines()[1]
        assert row.startswith("1.234567891,")
        assert "1.333333333" in row
        assert cli.main(["gmi-awgn", "--set", "format=pm8qam",
                         "--snr", "1.2345678912345"]) == 0
        ref = D.awgn_gmi_reference(C.build_pm8qam(), 1.2345678912345)
        assert capsys.readouterr().out.splitlines()[1] == f"1.234567891,pm8qam,{ref:.10g}"
        assert len(f"{ref:.10g}".replace(".", "").lstrip("0")) == 10


class TestEmitPlot:
    def test_two_records_one_polyline(self):
        svg = cli.emit_plot([rec("pm8qam", "iid", -2, 5.0),
                             rec("pm8qam", "iid", 0, 5.5)],
                            "launch_dbm", "gmi_bit4d")
        assert svg.count("<polyline") == 1
        pts = svg.split('points="')[1].split('"')[0].split()
        assert len(pts) == 2

    def test_series_count(self):
        records = [rec(f, d, x, 5.0 + 0.1 * x)
                   for f in ("pm8qam", "4d64prs") for d in ("iid", "cg")
                   for x in (-2, 0, 2)]
        svg = cli.emit_plot(records, "launch_dbm", "gmi_bit4d")
        assert svg.count("<polyline") == 4

    def test_byte_identical(self):
        records = [rec("pm8qam", "iid", -2, 5.0), rec("pm8qam", "iid", 0, 5.5)]
        assert (cli.emit_plot(records, "launch_dbm", "gmi_bit4d")
                == cli.emit_plot(records, "launch_dbm", "gmi_bit4d"))

    def test_single_record_series_rejected(self):
        with pytest.raises(ValueError):
            cli.emit_plot([rec("pm8qam", "iid", 0, 5.0)],
                          "launch_dbm", "gmi_bit4d")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cli.emit_plot([], "launch_dbm", "gmi_bit4d")


TINY = ["--set", "n_channels=1", "--set", "n_symbols=2048",
        "--set", "n_spans=1", "--set", "step_km=10", "--set", "gamma_w_km=0",
        "--set", "ase_enabled=false", "--set", "demapper=iid",
        "--set", "format=pm8qam"]


@pytest.mark.parametrize("args, workers", [
    (["simulate", "--output", "-"] + TINY, "1"),
    (["sweep-power", "--powers", "-1,1", "--output", "-"] + TINY, "2"),
    (["gmi-awgn", "--snr", "8", "--output", "-"], "1"),
    (["optimize-constellation", "--rho", "1.2,1.6", "--theta", "0.3,0.45"], "1"),
], ids=["simulate", "sweep-power-2-workers", "gmi-awgn", "optimize-constellation"])
def test_commands_run_without_scipy(tmp_path, args, workers):
    """scipy is no run-time dependency: with a scipy whose import raises
    first on the path, a waveform command, a sweep on a process pool and
    the design commands each exit 0."""
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text(
        'raise ImportError("scipy is not a run-time dependency")\n')
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys\n"
            "try:\n    import scipy\nexcept ImportError:\n    pass\n"
            "else:\n    sys.exit('scipy imported past the shim')\n"
            f"from prs4d import cli\nsys.exit(cli.main({args!r}))")
    env = {**os.environ, "PRS4D_WORKERS": workers,
           "PYTHONPATH": os.pathsep.join([str(tmp_path), src])}
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestMain:
    def test_simulate_end_to_end(self, tmp_path):
        out = tmp_path / "r.csv"
        code = cli.main(["simulate", "--output", str(out)] + TINY)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(cli.CSV_COLUMNS)
        assert len(lines) == 2
        assert float(lines[1].split(",")[5]) == pytest.approx(6.0, abs=1e-3)

    def test_simulate_rerun_byte_identical(self, tmp_path, without_runtime):
        """Two reruns differ in no byte but the measured runtime_s."""
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["simulate", "--output", str(a)] + TINY) == 0
        assert cli.main(["simulate", "--output", str(b)] + TINY) == 0
        assert without_runtime(a.read_bytes()) == without_runtime(b.read_bytes())

    def test_simulate_rows_are_run_point(self, capsys, without_runtime):
        """simulate is the one-point grid run_grid(cfg): its rows are the
        benchmark's run_point(cfg) rows but for runtime_s."""
        sets = TINY + ["--set", "ase_enabled=true", "--set", "demapper=both",
                       "--set", "n_symbols=4096"]
        assert cli.main(["simulate", "--output", "-"] + sets) == 0
        point = H.run_point(cli.parse_config(None, sets[1::2]))
        assert (without_runtime(capsys.readouterr().out)
                == without_runtime(cli.records_to_csv(point)))

    def test_sweep_power_with_plot(self, tmp_path):
        out, svg = tmp_path / "r.csv", tmp_path / "r.svg"
        code = cli.main(["sweep-power", "--powers=-1,1",
                         "--output", str(out), "--plot", str(svg)] + TINY)
        assert code == 0
        assert out.exists() and svg.exists()
        assert svg.read_text().count("<polyline") == 1

    def test_sweep_power_rows_are_simulate_rows(self, capsysbinary,
                                                without_runtime):
        """Each sweep-power row is byte for byte the simulate row at that
        power but for runtime_s, and every row carries the config seed."""
        args = ["--output", "-", "--set", "ase_enabled=true",
                "--set", "seed=11"] + TINY
        assert cli.main(["sweep-power", "--powers=-1,1"] + args) == 0
        header, *rows = capsysbinary.readouterr().out.splitlines(keepends=True)
        for power, row in zip(["-1", "1"], rows, strict=True):
            assert cli.main(["simulate", "--set", f"launch_dbm={power}"] + args) == 0
            assert (without_runtime(capsysbinary.readouterr().out)
                    == without_runtime(header + row))
        column = cli.CSV_COLUMNS.index("seed")
        assert [row.split(b",")[column] for row in rows] == [b"11", b"11"]

    def test_bad_config_returns_one(self, tmp_path, capsys):
        code = cli.main(["simulate", "--set", "gamma_w_km=-1",
                         "--output", str(tmp_path / "r.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("override", [
        "n_symbols=abc", "step_km=fast", "seed=1e3", "launch_dbm=1,x",
        "launch_dbm=-2,0,2",
    ])
    def test_unparsable_value_names_the_key(self, tmp_path, capsys, override):
        key = override.split("=")[0]
        code = cli.main(["simulate", "--set", override,
                         "--output", str(tmp_path / "r.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1

    def test_sweep_distance_rejects_power_list(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert cli.main(["sweep-distance", "--spans", "1,2", "--output",
                         str(out)] + TINY + ["--set", "launch_dbm=-2,0,2"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "launch_dbm" in err
        assert not out.exists()

    def test_zero_grid_step_returns_one(self, tmp_path, capsys):
        code = cli.main(["sweep-power", "--powers", "0:4:0",
                         "--output", str(tmp_path / "r.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "step must be nonzero" in err

    @pytest.mark.parametrize("command, flag, spec", [
        ("sweep-distance", "--spans", "1:3:0.5"),
        ("sweep-distance", "--spans", "2.7,3.2"),
        ("sweep-distance", "--spans", "0,2"),
        ("sweep-channels", "--channels", "1,2.5"),
        ("sweep-channels", "--channels", "-1"),
    ])
    def test_non_integral_count_returns_one(self, tmp_path, capsys, monkeypatch,
                                            command, flag, spec):
        """A count the field's parser rejects names the flag; a count
        below 1 fails the config's range check, which names the field."""
        calls = []
        monkeypatch.setattr(channel, "ssfm_span", lambda *a: calls.append(a))
        field = {"--spans": "n_spans", "--channels": "n_channels"}[flag]
        out = tmp_path / "r.csv"
        assert cli.main([command, f"{flag}={spec}", "--output", str(out)]
                        + TINY) == 1
        err = capsys.readouterr().err
        bad = [v for v in spec.replace(":", ",").split(",") if "." in v]
        if bad:
            assert err == (f"error: {flag} {spec!r}: {field} must be an "
                           f"integer, got {bad[0]!r}\n")
        else:
            assert err == f"error: {field} must be an integer >= 1\n"
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("command", [
        ["sweep-power", "--powers=0"], ["sweep-distance", "--spans=1"],
        ["sweep-channels", "--channels=1", "--powers=0"], ["simulate"]],
        ids=["sweep-power", "sweep-distance", "sweep-channels", "simulate"])
    def test_bad_worker_count_returns_one(self, tmp_path, capsys,
                                          monkeypatch, command):
        """Every record command, simulate included, reads PRS4D_WORKERS
        through run_grid."""
        out = tmp_path / "r.csv"
        for value in ("two", "0"):
            monkeypatch.setenv("PRS4D_WORKERS", value)
            assert cli.main(command + ["--output", str(out)] + TINY) == 1
            assert capsys.readouterr().err == (
                f"error: PRS4D_WORKERS must be an integer >= 1, got {value!r}\n")
            assert not out.exists()

    @pytest.mark.parametrize("override", [
        "timings=1", "epsilon_reg=1e-6", "baud_gbd=45", "spacing_ghz=50",
        "rolloff=0.1", "span_km=80", "disp_ps_nm_km=4.255", "phase_window=128"])
    def test_removed_config_keys_return_one(self, tmp_path, capsys, override):
        """Every record is timed, and the cg ridge, the WDM grid, the span
        and the genie window are fixed, so none is a config key any more."""
        out = tmp_path / "r.csv"
        assert cli.main(["simulate", "--output", str(out)] + TINY
                        + ["--set", override]) == 1
        err = capsys.readouterr().err
        key = override.split("=")[0]
        assert err.startswith(f"error: unknown config key {key!r}; valid keys: ")
        assert err.count("\n") == 1 and not out.exists()

    def test_unknown_key_returns_one(self, tmp_path, capsys):
        code = cli.main(["simulate", "--set", "bogus=1",
                         "--output", str(tmp_path / "r.csv")])
        assert code == 1
        assert "valid keys" in capsys.readouterr().err

    def test_export_constellation(self, tmp_path):
        out = tmp_path / "c.csv"
        assert cli.main(["export-constellation", "--set", "format=4d64prs",
                         "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,label_bits,s1,s2,s3,s4"
        assert len(lines) == 65

    def test_empty_grid_returns_one(self, capsys):
        assert cli.main(["gmi-awgn", "--snr", "5:4:1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "empty range" in captured.err

    @pytest.mark.parametrize("snr", ["nan", "inf"])
    def test_gmi_awgn_bad_snr_returns_one(self, capsys, snr):
        assert cli.main(["gmi-awgn", "--snr", snr]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: snr_db must be")
        assert captured.err.count("\n") == 1

    def test_export_constellation_applies_overrides(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["export-constellation", "--output", str(a)]) == 0
        assert cli.main(["export-constellation", "--set", "prs_rho=1.2",
                         "--output", str(b)]) == 0
        assert a.read_text() != b.read_text()

    def test_export_constellation_unknown_key_returns_one(self, tmp_path,
                                                          capsys):
        code = cli.main(["export-constellation", "--set", "prs_rh=1.2",
                         "--output", str(tmp_path / "c.csv")])
        assert code == 1
        assert "valid keys" in capsys.readouterr().err

    def test_gmi_awgn_stdout(self, capsys):
        assert cli.main(["gmi-awgn", "--set", "format=pm8qam",
                         "--snr", "30:30:1"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "snr_db,format,gmi_bit4d"
        gmi = float(lines[1].split(",")[2])
        assert 5.99 <= gmi <= 6.0 + 1e-9

    def test_gmi_awgn_scores_the_config_geometry(self, capsys):
        assert cli.main(["gmi-awgn", "--set", "prs_rho=0.5",
                         "--set", "prs_theta=0.4", "--snr", "8.1"]) == 0
        ref = D.awgn_gmi_reference(C.build_format("4d64prs", 0.5, 0.4), 8.1)
        assert capsys.readouterr().out == ("snr_db,format,gmi_bit4d\n"
                                           f"8.1,4d64prs,{ref:.10g}\n")

    def test_export_constellation_reads_format_from_config(self, tmp_path):
        out = tmp_path / "c.csv"
        assert cli.main(["export-constellation", "--set", "format=pm8qam",
                         "--output", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()[:16]
        assert digest == "0f2807f24af0452e"  # PM-8QAM's, as TestBitGenAndExport pins it

    @pytest.mark.parametrize("flag", ["--output", "--plot"])
    def test_unwritable_path_fails_before_propagation(self, tmp_path, capsys,
                                                      monkeypatch, flag):
        calls = []
        monkeypatch.setattr(channel, "ssfm_span", lambda *a: calls.append(a))
        bad = str(tmp_path / "missing" / "x")
        args = ["sweep-power", "--powers=-1,1", "--output",
                str(tmp_path / "r.csv"), "--plot", str(tmp_path / "r.svg"),
                flag, bad]  # the last occurrence of a flag wins
        assert cli.main(args + TINY) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {flag} {bad!r}: no such directory "
                       f"{str(tmp_path / 'missing')!r}\n")
        assert calls == [] and not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("overrides, key, names", [
        (["gamma_w_km=1.464", "launch_dbm=400"], "launch_dbm", "step_km"),
        (["step_km=1e-12"], "step_km", "100000 steps per span"),
    ])
    def test_unphysical_link_fails_before_propagation(
            self, tmp_path, capsys, monkeypatch, overrides, key, names):
        def forbidden(*args):
            raise AssertionError("ssfm_span ran")

        monkeypatch.setattr(channel, "ssfm_span", forbidden)
        out = tmp_path / "r.csv"
        sets = [a for ov in overrides for a in ("--set", ov)]
        assert cli.main(["simulate", "--output", str(out)] + TINY + sets) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and names in err
        assert err.count("\n") == 1 and not out.exists()

    def test_exception_without_a_message_is_named(self, capsys, monkeypatch):
        """An exception whose message is empty, as a MemoryError's often is,
        prints its type's name on the error line."""
        def no_memory(*a, **k):
            raise MemoryError

        monkeypatch.setattr(channel, "_schedule", no_memory)
        assert cli.main(["simulate", "--output", "-"] + TINY) == 1
        assert capsys.readouterr() == ("", "error: MemoryError\n")

    @pytest.mark.parametrize("overrides, key", [
        (["prs_rho=-1"], "prs_rho"),
        (["prs_theta=0.9"], "prs_theta"),
        (["format=6b4d_2a8psk", "ring_ratio=0"], "ring_ratio"),
    ])
    def test_bad_geometry_names_its_key(self, capsys, overrides, key):
        sets = [a for ov in overrides for a in ("--set", ov)]
        assert cli.main(["gmi-awgn", "--snr", "0"] + sets) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key} must be ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("args, flag, grid, rows", [
        (["sweep-power", "--output", "-"] + TINY, "--powers", "-1:1:2", 3),
        (["gmi-awgn"] + TINY, "--snr", "-2,0", 3),
    ])
    def test_negative_grid_takes_a_space_or_an_equals_sign(
            self, capsys, without_runtime, args, flag, grid, rows):
        outs = []
        for form in ([flag, grid], [f"{flag}={grid}"]):
            assert cli.main(args + form) == 0
            outs.append(without_runtime(capsys.readouterr().out))
        assert outs[0] == outs[1] and outs[0].count("\n") == rows

    def test_negative_rho_fails_alike_after_a_space_or_an_equals_sign(self, capsys):
        """-1 reaches the design search either way, whose builder rejects it:
        no grid point is skipped."""
        for form in (["--rho", "-1,1.6"], ["--rho=-1,1.6"]):
            assert cli.main(["optimize-constellation", "--theta", "0.45"] + form) == 1
            assert capsys.readouterr() == ("", "error: prs_rho must be > 0, got -1.0\n")

    def test_huge_ring_ratio_fails_in_the_builder(self, capsys):
        """ring_ratio**2 overflowed a Python float, whose OverflowError line
        named no field; hypot keeps the radii finite, so the builder's own
        check rejects the collapsed rings."""
        assert cli.main(["export-constellation", "--set", "format=6b4d_2a8psk",
                         "--set", "ring_ratio=1e200", "--output", "-"]) == 1
        assert capsys.readouterr() == (
            "", "error: ring_ratio=1e+200 collapses constellation points\n")

    def test_infinite_rho_fails_in_the_builder(self, capsys):
        """np.argmax took the NaN GMI of rho = inf for the best point."""
        assert cli.main(["optimize-constellation", "--rho", "0.5,inf", "--theta", "0.4"]) == 1
        assert capsys.readouterr() == ("", "error: prs_rho must be finite, got inf\n")

    def test_optimize_default_grids_hold_the_decimals(self, capsys, monkeypatch):
        """The default search runs over exact decimals: linspace gave
        0.6000000000000001 for theta."""
        grids = []
        monkeypatch.setattr(H, "optimize_prs_params",
                            lambda snr, *g: grids.extend(g) or (1.6, 0.45, 4.5))
        assert cli.main(["optimize-constellation"]) == 0
        assert grids == [[1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0],
                         [0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65]]

    def test_optimize_bad_snr_returns_one(self, capsys):
        assert cli.main(["optimize-constellation", "--snr", "x"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --snr 'x': expected a number\n"

    def test_optimize_one_point_grid(self, capsys, monkeypatch):
        calls = []
        score = D.awgn_gmi_reference

        def counted(*args, **kwargs):
            calls.append(args)
            return score(*args, **kwargs)

        monkeypatch.setattr(D, "awgn_gmi_reference", counted)
        assert cli.main(["optimize-constellation", "--rho", "1.6",
                         "--theta", "0.45"]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.startswith("rho=1.6 theta=0.45 gmi=")


class TestEntryPoint:
    """python -m prs4d.cli, through sys.exit(main())."""

    def run(self, *args):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-m", "prs4d.cli", *args],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_bad_set_exits_one_with_one_line(self, tmp_path):
        out = tmp_path / "r.csv"
        done = self.run("simulate", "--output", str(out), "--set", "n_spans=2.5")
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == "error: n_spans must be an integer, got '2.5'\n"
        assert not out.exists()

    def test_tiny_simulate_prints_the_csv(self):
        done = self.run("simulate", "--output", "-", *TINY)
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout.splitlines()[0] == ",".join(cli.CSV_COLUMNS)


def subcommands(option):
    """The CLI commands whose parser takes option, so new ones are covered."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sorted(name for name, p in sub.choices.items()
                  if option in p._option_string_actions)


# desk-size grids; a command not listed runs on its defaults
GRIDS = {"sweep-power": ["--powers=-1,1"], "sweep-distance": ["--spans", "1,2"],
         "sweep-channels": ["--channels", "1,2", "--powers=-1,1"],
         "gmi-awgn": ["--snr", "0,10"]}
# the grid flag of each command that plots, with one value
ONE_VALUE = {"sweep-power": ("--powers", "0"), "sweep-distance": ("--spans", "2"),
             "sweep-channels": ("--channels", "1")}


class TestOutputPath:
    @pytest.mark.parametrize("command", subcommands("--output"))
    def test_dash_prints_the_file_bytes(self, tmp_path, capsysbinary,
                                        monkeypatch, command, without_runtime):
        """Stdout gets the file's bytes, but for each run's own runtime_s."""
        monkeypatch.chdir(tmp_path)
        args = [command] + GRIDS.get(command, []) + TINY
        assert cli.main(args + ["--output", "f.csv"]) == 0
        assert capsysbinary.readouterr().out == b""
        assert cli.main(args + ["--output", "-"]) == 0
        assert (without_runtime(capsysbinary.readouterr().out)
                == without_runtime((tmp_path / "f.csv").read_bytes()))
        assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]

    @pytest.mark.parametrize("command", ["simulate", *subcommands("--plot")])
    def test_every_record_is_timed(self, capsys, command):
        """Every row carries a measured runtime_s > 0. The iid and cg rows of
        one point share it, and along a distance sweep it does not fall,
        since the clock runs from the start of the curve."""
        args = [command, "--output", "-"] + GRIDS.get(command, []) + TINY
        assert cli.main(args + ["--set", "demapper=both",
                                "--set", "n_symbols=4096"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        runtimes = [float(row.split(",")[-1]) for row in rows]
        assert header.endswith(",runtime_s") and len(rows) % 2 == 0
        assert all(t > 0 for t in runtimes)
        assert runtimes[0::2] == runtimes[1::2]
        if command == "sweep-distance":
            assert runtimes == sorted(runtimes)

    def test_sweep_channels_takes_a_repeated_unsorted_power_grid(
            self, capsys, without_runtime):
        """A repeated power is one grid point of the optimum fit, in any
        order. This link peaks near -19 dBm, so the fit is off the grid; its
        own point is -30 dBm, as 0 dBm breaks the Kerr bound at this gamma."""
        args = ["sweep-channels", "--channels", "1", "--output", "-"] + TINY + [
            "--set", "ase_enabled=true", "--set", "gamma_w_km=2000",
            "--set", "launch_dbm=-30"]
        assert cli.main(args + ["--powers=-20,-19,-19,-18"]) == 0
        repeated = capsys.readouterr().out
        assert cli.main(args + ["--powers=-18,-19,-20"]) == 0
        assert without_runtime(repeated) == without_runtime(capsys.readouterr().out)
        p_opt = float(repeated.splitlines()[1].split(",")[0])
        assert -20 < p_opt < -18 and p_opt != -19

    def test_repeated_channel_count_is_one_series(self, capsys):
        """--channels 1,3,1 fits each (count, demapper) series once, in
        first-seen order: a repeated count adds no row."""
        assert cli.main(["sweep-channels", "--channels", "1,3,1", "--powers=-1,1",
                         "--output", "-"] + TINY + ["--set", "demapper=both",
                                                    "--set", "n_symbols=4096"]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        assert [(n, kind) for _, _, n, _, kind, *_ in rows] == [
            ("1", "iid"), ("1", "cg"), ("3", "iid"), ("3", "cg")]

    @pytest.mark.parametrize("command", subcommands("--plot"))
    def test_plot_of_one_grid_value_fails_before_propagation(
            self, tmp_path, capsys, monkeypatch, command):
        """One value, alone or repeated, is one point of every series: a
        repeated channel count is one fitted series, so it too fails before
        the run, not at the plot after it."""
        calls = []
        monkeypatch.setattr(channel, "ssfm_span", lambda *a: calls.append(a))
        flag, one = ONE_VALUE[command]
        for value in (one, f"{one},{one}"):
            assert cli.main([command, flag, value, "--output", str(tmp_path / "r.csv"),
                             "--plot", str(tmp_path / "r.svg")] + TINY) == 1
            assert capsys.readouterr().err == (f"error: --plot needs at least 2 "
                                               f"distinct values of {flag}, got {value!r}\n")
        assert calls == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--output", "--plot"])
    def test_empty_path_fails_before_propagation(self, tmp_path, capsys,
                                                 monkeypatch, flag):
        calls = []
        monkeypatch.setattr(channel, "ssfm_span", lambda *a: calls.append(a))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["sweep-power", "--powers=-1,1", "--output", "r.csv",
                         "--plot", "r.svg", flag, ""] + TINY) == 1
        assert capsys.readouterr().err == f"error: {flag} '': not a writable file\n"
        assert calls == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("output, plot", [
        ("-", "-"), ("r.csv", "r.csv"), ("r.csv", "./r.csv")],
        ids=["stdout", "same_path", "same_file"])
    def test_plot_on_the_output_target_fails_before_propagation(
            self, tmp_path, capsys, monkeypatch, output, plot):
        calls = []
        monkeypatch.setattr(channel, "ssfm_span", lambda *a: calls.append(a))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["sweep-power", "--powers=-1,1", "--output", output,
                         "--plot", plot] + TINY) == 1
        assert capsys.readouterr() == (
            "", f"error: --plot {plot!r}: the same target as --output\n")
        assert calls == [] and list(tmp_path.iterdir()) == []

    def test_optimize_help_reads_the_default_grids(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["optimize-constellation", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "rho grid (default: 1.2:2:0.1)" in out
        assert "theta grid (default: 0.25:0.65:0.05)" in out

    def test_simulate_refuses_plot(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["simulate", "--plot", str(tmp_path / "p.svg")] + TINY)
        assert exit_.value.code == 2
        assert "unrecognized arguments: --plot" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
