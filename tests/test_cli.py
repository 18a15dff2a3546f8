import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import fermipulse as fp
from fermipulse.cli import ConfigError, Temperature, load_config, main


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# fermipulse v")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestTemperature:
    def test_parse_ef(self):
        t = Temperature.parse("1.36EF")
        assert t.value == 1.36 and t.unit == "EF"

    def test_parse_trap(self):
        t = Temperature.parse("250trap")
        assert t.value == 250.0 and t.unit == "trap"

    def test_bare_number_defaults_to_ef(self):
        assert Temperature.parse("0.5").unit == "EF"

    def test_tau_conversion(self):
        assert Temperature.parse("2trap").tau(1000) == 2.0
        assert Temperature.parse("1.36EF").tau(10**6) == pytest.approx(
            1.36 * fp.fermi_energy(10**6)
        )

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            Temperature.parse("warmish")
        with pytest.raises(ConfigError):
            Temperature.parse("-3EF")


class TestConfig:
    def test_file_and_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"atoms": 500, "grid": "11x13", "statistics": "mb"}))
        cfg = load_config(str(cfgfile), {"atoms": 900})
        assert cfg.atoms == 900
        assert cfg.grid == (11, 13)
        assert cfg.statistics == "mb"

    def test_grid_flag_overrides_file(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"grid": "11x13", "atoms": 100, "temperatures": ["1EF"]}))
        out = tmp_path / "g"
        assert main(["formfunc", "--config", str(cfgfile), "--grid", "5x7", "--output", str(out)]) == 0
        _, rows = read_rows(tmp_path / "g_formfunc_coh_fd_1EF.csv")
        assert len(rows) == 5 * 7

    @pytest.mark.parametrize("text", ["91x121", "91X121", " 91 x 121 "])
    def test_grid_spellings_accepted(self, tmp_path, text):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"grid": text}))
        assert load_config(str(cfgfile), {}).grid == (91, 121)
        assert main(["fugacity", "--atoms", "100", "--grid", text]) == 0

    def test_grid_list_accepted(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"grid": [91, 121]}))
        assert load_config(str(cfgfile), {}).grid == (91, 121)

    def test_unknown_field_named(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"atom_count": 5}))
        with pytest.raises(ConfigError) as info:
            load_config(str(cfgfile), {})
        assert "atom_count" in str(info.value)

    def test_empty_temperatures_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"temperatures": []}))
        rc = main(["fugacity", "--config", str(cfgfile)])
        assert rc == 2
        assert "temperatures" in capsys.readouterr().err

    def test_bad_json_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text("{not json")
        rc = main(["fugacity", "--config", str(cfgfile)])
        assert rc == 2

    def test_grid_too_small_exit_2(self, capsys):
        rc = main(["formfunc", "--grid", "1x5", "--output", "x"])
        assert rc == 2
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, flags, fieldname",
        [
            pytest.param(None, ["--grid", "axb"], "grid", id="grid-flag"),
            pytest.param({"grid": "axb"}, [], "grid", id="grid-file"),
            # a grid string has exactly one x between two counts
            pytest.param(None, ["--grid", "x3x3x"], "grid", id="grid-extra-x-flag"),
            pytest.param({"grid": "3x3x"}, [], "grid", id="grid-trailing-x-file"),
            pytest.param(None, ["--grid", "3xx3"], "grid", id="grid-double-x-flag"),
            pytest.param({"grid": [2.5, 3]}, [], "grid", id="grid-float"),
            # a count is ASCII digits: no separator, sign or other script
            pytest.param(None, ["--grid", "3x1_0"], "grid", id="grid-digit-separator"),
            pytest.param(None, ["--grid", "3x\u0663"], "grid", id="grid-arabic-indic-digit"),
            pytest.param(None, ["--grid", "+3x3"], "grid", id="grid-sign"),
            pytest.param(None, ["--threads", "1_0"], "threads", id="threads-digit-separator"),
            pytest.param({"atoms": "abc"}, [], "atoms", id="atoms-text"),
            pytest.param({"atoms": True}, [], "atoms", id="atoms-bool"),
            pytest.param({"kla": True}, [], "kla", id="kla-bool"),
            # back-scattering at the detuning window's edge would overflow x
            pytest.param(None, ["--kla", "1e160"], "kla", id="kla-past-float-range"),
            pytest.param({"threads": True}, [], "threads", id="threads-bool"),
            pytest.param(None, ["--atoms", "1", "--temperature", "1EF"], "temperatures", id="one-atom-in-ef"),
            pytest.param(None, ["--gamma-ratio", "0.2"], "gamma_ratio", id="gamma-ratio-broadband"),
            # full-mode spectra integrate |varpi| <= 12, where this ratio
            # would reach a negative scattered wavenumber
            pytest.param(
                None,
                ["--atoms", "100", "--temperature", "1EF", "--grid", "2x2", "--gamma-ratio", "0.09"],
                "gamma_ratio",
                id="gamma-ratio-past-quadrature-window",
            ),
            pytest.param(None, ["--varpi-window", "30000"], "varpi_window", id="window-past-zero-wavenumber"),
            pytest.param({"temperatures": [True]}, [], "temperatures", id="temperatures-bool"),
            pytest.param({"temperatures": "1EF"}, [], "temperatures", id="temperatures-string"),
            # the Maxwell-Boltzmann closed forms have no Fermi-Dirac state to run on
            pytest.param(None, ["--method", "closed-form-mb"], "method", id="closed-form-mb-with-fd"),
            pytest.param(
                None,
                ["--method", "closed-form-mb", "--statistics", "both"],
                "method",
                id="closed-form-mb-with-both",
            ),
            # the output prefix names every CSV, and --strict is a switch
            pytest.param({"output": None}, [], "output", id="output-null"),
            pytest.param({"output": ["x"]}, [], "output", id="output-list"),
            pytest.param({"output": ""}, [], "output", id="output-empty"),
            pytest.param(None, ["--output", ""], "output", id="output-empty-flag"),
            pytest.param({"strict": "yes"}, [], "strict", id="strict-text"),
        ],
    )
    def test_malformed_input_exit_2(self, tmp_path, capsys, config, flags, fieldname):
        args = ["fugacity", *flags]
        if config is not None:
            cfgfile = tmp_path / "run.json"
            cfgfile.write_text(json.dumps(config))
            args += ["--config", str(cfgfile)]
        rc = main(args)
        assert rc == 2
        assert fieldname in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["formfunc", "spectrum", "total"])
    def test_kla_past_float_range_exit_2(self, tmp_path, capsys, command):
        out = tmp_path / "big"
        rc = main([command, "--atoms", "100", "--temperature", "1EF", "--kla", "1e160", "--output", str(out)])
        assert rc == 2
        assert "kla" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_threads_zero_exit_2(self, capsys):
        rc = main(["fugacity", "--atoms", "100", "--threads", "0"])
        assert rc == 2
        assert "threads" in capsys.readouterr().err

    def test_config_hash_stable(self):
        a = load_config(None, {"atoms": 100}).config_hash()
        b = load_config(None, {"atoms": 100}).config_hash()
        c = load_config(None, {"atoms": 101}).config_hash()
        assert a == b != c

    @pytest.mark.parametrize(
        "overrides, digest",
        [
            ({"atoms": 100}, "3e44f74de110"),
            ({"atoms": 100, "output": "elsewhere/run", "threads": 2, "strict": True}, "3e44f74de110"),
            (
                {
                    "atoms": 5000,
                    "temperatures": ["0.1EF", "3trap"],
                    "grid": (5, 7),
                    "method": "convolution",
                    "mode": "full",
                    "tolerance": 1e-9,
                    "statistics": "both",
                    "kla": 3.0,
                },
                "c81a61eca003",
            ),
            # a number hashes by its value, not by how it was written
            ({"atoms": 100.0}, "3e44f74de110"),
            (
                {
                    "atoms": 5000,
                    "temperatures": ["0.1EF", "3trap"],
                    "grid": (5, 7),
                    "method": "convolution",
                    "mode": "full",
                    "tolerance": 1e-9,
                    "statistics": "both",
                    "kla": 3,
                },
                "c81a61eca003",
            ),
            # a method or mode hashes by what it names
            ({"atoms": 100, "method": " Auto", "mode": "AUTO"}, "3e44f74de110"),
        ],
    )
    def test_config_hash_pinned(self, overrides, digest):
        # output, threads and strict do not shape the data, so they stay out
        assert load_config(None, overrides).config_hash() == digest


class TestFormfuncCommand:
    def test_surfaces(self, tmp_path):
        out = tmp_path / "ff"
        rc = main(
            [
                "formfunc",
                "--atoms", "1000",
                "--temperature", "1.36EF",
                "--grid", "5x7",
                "--output", str(out),
                "--strict",
            ]
        )
        assert rc == 0
        header, rows = read_rows(tmp_path / "ff_formfunc_coh_fd_1.36EF.csv")
        assert header == ["theta_deg", "varpi", "x_total", "value"]
        assert len(rows) == 5 * 7
        by_key = {(r[0], r[1]): float(r[3]) for r in rows}
        assert by_key[("0.0", "0.0")] == 1.0
        for r in rows:
            for cell in r:
                assert math.isfinite(float(cell))
        _, rows_in = read_rows(tmp_path / "ff_formfunc_in_fd_1.36EF.csv")
        peak = {(r[0], r[1]): float(r[3]) for r in rows_in}[("0.0", "0.0")]
        assert 0.0 < peak < 1.0

    def test_million_atom_peak_cells(self, tmp_path):
        # coherent (0,0) cell reads exactly 1.0 in N^2 units; incoherent
        # (0,0) cell sits at the known classical-regime peak in N units
        out = tmp_path / "big"
        rc = main(
            [
                "formfunc",
                "--atoms", "1000000",
                "--temperature", "1.36EF",
                "--grid", "2x3",
                "--output", str(out),
                "--strict",
            ]
        )
        assert rc == 0
        _, rows = read_rows(tmp_path / "big_formfunc_coh_fd_1.36EF.csv")
        cells = {(r[0], r[1]): float(r[3]) for r in rows}
        assert cells[("0.0", "0.0")] == 1.0
        _, rows = read_rows(tmp_path / "big_formfunc_in_fd_1.36EF.csv")
        cells = {(r[0], r[1]): float(r[3]) for r in rows}
        assert 7.6e-3 <= cells[("0.0", "0.0")] <= 8.4e-3

    def test_forced_power_series_divergence_exit_3(self, tmp_path, capsys):
        rc = main(
            [
                "formfunc",
                "--atoms", "1000",
                "--temperature", "0.2EF",
                "--method", "power-series",
                "--grid", "3x3",
                "--output", str(tmp_path / "err"),
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "SeriesDivergence" in err
        # z >= 1 fails the whole state, so the state is named, not a point
        assert "method power-series at 0.2EF fd: power series requires z < 1" in err
        assert "theta=" not in err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_exit_3(self, tmp_path, capsys, monkeypatch, bad):
        from fermipulse import cli

        real = cli.coherent_form

        def poisoned(state, point, *rest):
            values = real(state, point, *rest).copy()
            values[1, 2] = bad
            return values

        monkeypatch.setattr(cli, "coherent_form", poisoned)
        out = tmp_path / "nf"
        rc = main(
            ["formfunc", "--atoms", "100", "--temperature", "1EF", "--grid", "3x4", "--output", str(out)]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "FormFunctionError" in err and "non-finite" in err
        # the rows before the bad one are on disk
        lines = (tmp_path / "nf_formfunc_coh_fd_1EF.csv").read_text().splitlines()
        assert len(lines) == 2 + 1 * 4 + 2

    def test_value_column_formatted_as_repr(self, tmp_path, monkeypatch):
        # repr edge cases: negative zero, the smallest subnormal, the
        # switches to exponent notation below 1e-4 and at 1e16, 17 digits
        from fermipulse import cli

        targets = [-0.0, 5e-324, 1e-05, 9.999999999999998e15, 1e16, 1 / 3]
        seen = []

        def scripted(state, x, *rest):
            seen.append((state, x, np.reshape(targets, (2, 3)) * state.total_atoms**2))
            return seen[-1][2]

        monkeypatch.setattr(cli, "coherent_form", scripted)
        out = tmp_path / "fmt"
        rc = main(
            ["formfunc", "--atoms", "100", "--temperature", "1EF", "--grid", "2x3", "--output", str(out)]
        )
        assert rc == 0
        ((state, x, returned),) = seen
        # the 2x3 grid over theta in [0, pi] and the default window |varpi| <= 6
        theta, varpi = np.meshgrid(np.degrees(np.linspace(0.0, math.pi, 2)), np.linspace(-6.0, 6.0, 3), indexing="ij")
        values = returned / state.total_atoms**2
        columns = (theta, varpi, x, values)
        expected = [",".join(map(str, row)) for row in zip(*(c.ravel().tolist() for c in columns))]
        lines = (tmp_path / "fmt_formfunc_coh_fd_1EF.csv").read_text().splitlines()
        assert lines[2:] == expected
        assert [line.rsplit(",", 1)[1] for line in lines[2:]] == list(map(str, targets))

    def test_failure_names_first_failing_point(self, tmp_path, capsys, monkeypatch):
        from fermipulse import cli

        def failing(state, point, *rest):
            raise fp.ToleranceNotMet("series did not settle", index=7)

        monkeypatch.setattr(cli, "incoherent_form", failing)
        out = tmp_path / "f"
        rc = main(
            ["formfunc", "--atoms", "100", "--temperature", "1EF", "--grid", "3x5", "--output", str(out)]
        )
        assert rc == 3
        err = capsys.readouterr().err
        # flat index 7 of a 3x5 grid is theta row 1 (90 degrees), varpi column 2 (0)
        assert f"at theta={math.pi / 2:.6g}, varpi=0: series did not settle" in err

    def test_state_wide_failure_names_the_state(self, tmp_path, capsys):
        # the direct sum refuses the whole state before any point is evaluated
        rc = main(
            [
                "formfunc",
                "--atoms", "1000",
                "--temperature", "1EF",
                "--method", "quad-sum",
                "--grid", "3x3",
                "--output", str(tmp_path / "q"),
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "method quad-sum at 1EF fd: direct four-index sum capped" in err
        assert "theta=" not in err


class TestSpectrumCommand:
    def test_outputs_and_mirroring(self, tmp_path):
        out = tmp_path / "sp"
        rc = main(
            [
                "spectrum",
                "--atoms", "1000",
                "--temperature", "1.36EF",
                "--grid", "9x9",
                "--output", str(out),
                "--strict",
            ]
        )
        assert rc == 0
        header, rows = read_rows(tmp_path / "sp_angular_fd_1.36EF.csv")
        assert header == ["theta_deg", "dN_coh", "dN_in"]
        assert len(rows) == 9
        header, rows = read_rows(tmp_path / "sp_frequency_fd_1.36EF.csv")
        assert header == ["varpi", "dN_coh", "dN_in"]
        vals = {float(r[0]): (float(r[1]), float(r[2])) for r in rows}
        assert vals[0.0][0] == 0.0
        for w in (3.0, 6.0):
            assert vals[w][0] == pytest.approx(vals[-w][0], rel=1e-6)

    def test_resonance_row_shared_across_temperatures(self, tmp_path):
        out = tmp_path / "sp3"
        rc = main(
            [
                "spectrum",
                "--atoms", "1000",
                "--temperature", "0.001EF,1.0EF",
                "--grid", "5x5",
                "--output", str(out),
                "--strict",
            ]
        )
        assert rc == 0
        rows = {}
        for label in ("0.001EF", "1EF"):
            _, r = read_rows(tmp_path / f"sp3_frequency_fd_{label}.csv")
            rows[label] = {float(c[0]): float(c[2]) for c in r}
        assert rows["0.001EF"][0.0] == rows["1EF"][0.0]


    @pytest.mark.parametrize("temperature", ["0.3EF", "0.5EF", "1EF"])
    def test_full_mode_fermi_dirac_few_hundred_atoms(self, tmp_path, temperature):
        # the signed Laguerre sum's round-off once stopped the detuning
        # quadrature of the first two states, and the power series' per-x
        # stop that of the third (z = 0.2); the exponential sums and the
        # series cut once at eps of the peak decay cleanly
        out = tmp_path / "sp5"
        args = ["--atoms", "300", "--mode", "full", "--statistics", "fd", "--grid", "13x17"]
        assert main(["spectrum", *args, "--temperature", temperature, "--output", str(out)]) == 0
        for kind in ("angular", "frequency"):
            _, rows = read_rows(tmp_path / f"sp5_{kind}_fd_{temperature}.csv")
            assert all(math.isfinite(float(v)) and float(v) >= 0.0 for r in rows for v in r[1:])

    def test_wide_band_full_mode_exit_0(self, tmp_path):
        # gamma 0.05 resolves to full mode; adaptive Simpson over varpi once
        # refined into round-off at 0.97 and exited 3
        out = tmp_path / "wb"
        args = ["--atoms", "10000", "--temperature", "1.0EF", "--grid", "91x25", "--gamma-ratio", "0.05"]
        assert main(["spectrum", *args, "--statistics", "both", "--output", str(out)]) == 0
        for stat in ("fd", "mb"):
            _, rows = read_rows(tmp_path / f"wb_angular_{stat}_1EF.csv")
            assert len(rows) == 91
            assert all(math.isfinite(float(v)) and float(v) >= 0.0 for r in rows for v in r[1:])

    def test_non_finite_value_exit_3(self, tmp_path, capsys, monkeypatch):
        from fermipulse import cli

        real = cli.angular_distribution

        def poisoned(*args, **kwargs):
            d_coh, d_in = real(*args, **kwargs)
            d_coh = d_coh.copy()
            d_coh[1] = math.nan
            return d_coh, d_in

        monkeypatch.setattr(cli, "angular_distribution", poisoned)
        out = tmp_path / "nf"
        rc = main(
            ["spectrum", "--atoms", "100", "--temperature", "1EF", "--grid", "3x3", "--output", str(out)]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "FormFunctionError" in err and "non-finite" in err

    def test_one_stderr_line_per_state(self, tmp_path, capsys):
        out = tmp_path / "sp4"
        args = ["--atoms", "100", "--temperature", "0.5EF,1EF", "--grid", "3x3", "--output", str(out)]
        for command in ("spectrum", "formfunc"):
            assert main([command, *args]) == 0
            err = capsys.readouterr().err.splitlines()
            assert err == [f"{command}: 0.5EF fd done", f"{command}: 1EF fd done"]


class TestTotalCommand:
    def test_sweep_with_both_statistics(self, tmp_path):
        out = tmp_path / "tot"
        rc = main(
            [
                "total",
                "--atoms", "1000",
                "--temperature", "0.05EF,1.36EF",
                "--statistics", "both",
                "--output", str(out),
            ]
        )
        assert rc == 0
        header, rows = read_rows(tmp_path / "tot_total.csv")
        assert header == ["kT_over_EF", "N_coh", "N_in", "statistics"]
        assert [r[3] for r in rows] == ["fd", "mb", "fd", "mb"]
        by = {(float(r[0]), r[3]): (float(r[1]), float(r[2])) for r in rows}
        # MB coherent exceeds FD below the degeneracy crossover
        assert by[(0.05, "mb")][0] > by[(0.05, "fd")][0]

    def test_incoherent_total_weakly_temperature_dependent(self, tmp_path):
        out = tmp_path / "flat"
        rc = main(
            [
                "total",
                "--atoms", "100000",
                "--temperature", "0.05EF,0.5EF,1.36EF",
                "--output", str(out),
            ]
        )
        assert rc == 0
        _, rows = read_rows(tmp_path / "flat_total.csv")
        n_in = [float(r[2]) for r in rows]
        assert (max(n_in) - min(n_in)) / min(n_in) < 0.05

    def test_hot_million_atoms_exit_0(self, tmp_path):
        # n_max 218,238 to 727,031: auto checks the power series by its
        # moments, where the pointwise table-sum check once exited 3 for FD
        out = tmp_path / "hot"
        args = ["--atoms", "1000000", "--statistics", "both", "--temperature", "30EF,100EF"]
        assert main(["total", *args, "--output", str(out)]) == 0
        _, rows = read_rows(tmp_path / "hot_total.csv")
        assert [r[3] for r in rows] == ["fd", "mb", "fd", "mb"]
        for r in rows:
            n_coh, n_in = float(r[1]), float(r[2])
            assert 0.0 < n_coh < math.inf and 0.0 < n_in < math.inf


    def test_failure_keeps_earlier_rows(self, tmp_path, capsys, monkeypatch):
        # rows are written as each state finishes, so a failure at the
        # second state leaves the first state's row on disk
        from fermipulse import cli

        real = cli.total_photons
        calls = []

        def failing_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise fp.QuadratureFailure("did not converge")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "total_photons", failing_second)
        out = tmp_path / "part"
        rc = main(["total", "--atoms", "300", "--temperature", "0.5EF,1EF", "--output", str(out)])
        assert rc == 3
        assert "QuadratureFailure" in capsys.readouterr().err
        lines = (tmp_path / "part_total.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("# fermipulse v")
        assert lines[1] == "kT_over_EF,N_coh,N_in,statistics"
        assert lines[2].startswith("0.5,") and lines[2].endswith(",fd")

    def test_single_atom_exit_2_without_csv(self, tmp_path, capsys):
        # kT/E_F has no value when E_F = 0
        out = tmp_path / "one"
        rc = main(["total", "--atoms", "1", "--temperature", "1trap", "--output", str(out)])
        assert rc == 2
        assert "atoms" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(["total", "--atoms", "300", "--temperature", "1EF", "--output", str(blocker / "run")])
        assert rc == 2
        assert "output" in capsys.readouterr().err


class TestFugacityCommand:
    def test_prints_state_summary(self, capsys):
        rc = main(["fugacity", "--atoms", "100", "--temperature", "1trap"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "log_z=" in out and "n_max=" in out and "EF=" in out

    def test_prints_methods_per_channel(self, capsys):
        args = ["fugacity", "--atoms", "300", "--statistics", "both", "--temperature", "0.1EF,0.5EF,1EF"]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        fields = [dict(f.split("=", 1) for f in line.split()) for line in lines]
        methods = [(f["statistics"], f["kT"], f["coh_method"], f["inc_method"]) for f in fields]
        assert methods == [
            ("fd", "0.1EF", "laguerre", "convolution"),
            ("mb", "0.1EF", "closed-form-mb", "closed-form-mb"),
            ("fd", "0.5EF", "exp-sum", "exp-sum"),
            ("mb", "0.5EF", "closed-form-mb", "closed-form-mb"),
            ("fd", "1EF", "power-series", "power-series"),
            ("mb", "1EF", "closed-form-mb", "closed-form-mb"),
        ]
        # the fit's size and bound only where it runs
        assert [("K" in f, "fit_bound" in f) for f in fields] == [(f is fields[2],) * 2 for f in fields]
        assert 1 <= int(fields[2]["K"]) <= 32
        assert 0.0 < float(fields[2]["fit_bound"]) <= 1e-11 * 300

    def test_prints_forced_method_per_channel(self, capsys):
        args = ["fugacity", "--atoms", "300", "--temperature", "0.5EF", "--method", "quad-sum"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "coh_method=laguerre inc_method=quad-sum" in out and "K=" not in out
        # a forced method the state refuses fails as in the other commands
        assert main([*args[:-1], "power-series"]) == 3
        assert "SeriesDivergence" in capsys.readouterr().err

    @pytest.mark.parametrize("temperature", ["1e20trap", "1e300trap"])
    def test_shell_cutoff_beyond_cap_exit_3(self, capsys, temperature):
        rc = main(["fugacity", "--atoms", "100", "--temperature", temperature])
        assert rc == 3
        assert "ConvergenceFailure" in capsys.readouterr().err

    @pytest.mark.parametrize("module", ["fermipulse.cli", "fermipulse"])
    def test_module_entry_point(self, package_env, module):
        proc = subprocess.run(
            [sys.executable, "-m", module, "fugacity", "--atoms", "100", "--temperature", "0.5EF"],
            capture_output=True,
            text=True,
            env=package_env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("statistics=fd ")


class TestDeterminism:
    def test_strict_runs_byte_identical(self, tmp_path):
        args = [
            "spectrum",
            "--atoms", "1000",
            "--temperature", "0.5EF",
            "--grid", "7x7",
            "--strict",
        ]
        rc1 = main(args + ["--output", str(tmp_path / "a")])
        rc2 = main(args + ["--output", str(tmp_path / "b")])
        assert rc1 == rc2 == 0
        for suffix in ("angular_fd_0.5EF.csv", "frequency_fd_0.5EF.csv"):
            assert (tmp_path / f"a_{suffix}").read_bytes() == (tmp_path / f"b_{suffix}").read_bytes()


def _formfunc_runs():
    # each forced method valid for each statistics, at the temperatures
    # where it is valid: 0.1 E_F is degenerate (n_max 46, so quad-sum
    # runs), 1 E_F has z < 1 (so the FD power series runs, and auto takes
    # it and its cross-check)
    valid = {
        "fd": {
            "auto": "0.1EF,1EF",
            "power-series": "1EF",
            "laguerre": "0.1EF,1EF",
            "quad-sum": "0.1EF",
            "convolution": "0.1EF,1EF",
        },
        "mb": {
            "auto": "0.1EF,1EF",
            "power-series": "0.1EF,1EF",
            "laguerre": "0.1EF,1EF",
            "closed-form-mb": "0.1EF,1EF",
            "quad-sum": "0.1EF",
            "convolution": "0.1EF,1EF",
        },
    }
    for stat, methods in valid.items():
        for method, temps in methods.items():
            args = ["formfunc", "--atoms", "200", "--grid", "9x7", "--statistics", stat]
            yield f"formfunc-{stat}-{method}", [*args, "--method", method, "--temperature", temps]


_PINNED_RUNS = {
    **dict(_formfunc_runs()),
    "total-frozen": [
        "total", "--atoms", "300", "--statistics", "both", "--mode", "frozen", "--temperature", "0.1EF,1EF",
    ],
    "spectrum-frozen": [
        "spectrum", "--atoms", "300", "--statistics", "both", "--mode", "frozen",
        "--grid", "9x7", "--temperature", "0.1EF,1EF",
    ],
    "spectrum-full": [
        "spectrum", "--atoms", "300", "--statistics", "both", "--mode", "full",
        "--grid", "7x5", "--temperature", "0.05EF,3EF",
    ],
    # auto on the exponential sums: Fermi-Dirac at 0.5 E_F has z = 2.0 at
    # 200 atoms and 1.7 at 300
    "formfunc-fd-exp-sum": [
        "formfunc", "--atoms", "200", "--statistics", "fd", "--temperature", "0.5EF", "--grid", "9x7",
    ],
    "total-fd-exp-sum": ["total", "--atoms", "300", "--statistics", "fd", "--temperature", "0.5EF"],
    # a grid of 1271 cells per file; n_max is 943
    "formfunc-both-31x41": [
        "formfunc", "--atoms", "1000", "--statistics", "both", "--temperature", "1.36EF", "--grid", "31x41",
    ],
}

# sha256 (first 16 hex digits) over every CSV a run writes, in name order,
# each file's name followed by its bytes
_PINNED_DIGESTS = {
    "formfunc-fd-auto": "43e9497e66386c88",
    "formfunc-fd-power-series": "85cb83576d91e19d",
    "formfunc-fd-laguerre": "d090923033e6ae65",
    "formfunc-fd-quad-sum": "594a3d5e135136d4",
    "formfunc-fd-convolution": "19dd32b06761060c",
    "formfunc-mb-auto": "2e994f9ef295c015",
    "formfunc-mb-power-series": "afb7532b2b45ef92",
    "formfunc-mb-laguerre": "d72b10268f5b9e49",
    "formfunc-mb-closed-form-mb": "03e1e7f9b6d0b40b",
    "formfunc-mb-quad-sum": "81a3d076a5377538",
    "formfunc-mb-convolution": "9a6feeb69941cbef",
    "total-frozen": "cb2a9e7324544a4d",
    "spectrum-frozen": "39e2442da154e11b",
    "spectrum-full": "e4691aa721c8c0aa",
    "formfunc-fd-exp-sum": "820cb3c92f6b050c",
    "total-fd-exp-sum": "9bff62eae19298c2",
    "formfunc-both-31x41": "670dff2ea3361d7f",
}


class TestPinnedOutput:
    """The CSVs of small runs, pinned byte for byte.

    A refactor must leave every digest as it is.  A change that moves a
    number on purpose re-records the digests and says which runs moved
    and why.
    """

    @pytest.mark.parametrize("name", list(_PINNED_RUNS))
    def test_csv_digest(self, tmp_path, name):
        assert main([*_PINNED_RUNS[name], "--output", str(tmp_path / "run")]) == 0
        digest = hashlib.sha256()
        for path in sorted(tmp_path.glob("*.csv")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest()[:16] == _PINNED_DIGESTS[name]
