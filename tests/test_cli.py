import json
import math
import subprocess
import sys

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

    def test_config_hash_stable(self):
        a = load_config(None, {"atoms": 100}).config_hash()
        b = load_config(None, {"atoms": 100}).config_hash()
        c = load_config(None, {"atoms": 101}).config_hash()
        assert a == b != c


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
        assert "theta" in err and "varpi" in err


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


class TestFugacityCommand:
    def test_prints_state_summary(self, capsys):
        rc = main(["fugacity", "--atoms", "100", "--temperature", "1trap"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "log_z=" in out and "n_max=" in out and "EF=" in out

    def test_module_entry_point(self, package_env):
        proc = subprocess.run(
            [sys.executable, "-m", "fermipulse.cli", "fugacity", "--atoms", "100", "--temperature", "0.5EF"],
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
