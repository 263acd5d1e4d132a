import json

import pytest

from ternsim.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDecode:
    @pytest.mark.parametrize("a,b,digit", [
        ("0", "0", 0), ("1", "0", 3), ("2", "2", 8), ("2", "1", 7),
    ])
    def test_digits(self, capsys, a, b, digit):
        code, out, _ = run(capsys, "decode", a, b)
        assert code == 0
        assert f"digit: {digit}" in out

    def test_invalid_level(self, capsys):
        code, _, err = run(capsys, "decode", "3", "0")
        assert code == 1
        assert "must be 0, 1 or 2" in err


class TestVerify:
    def test_digital_all(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "--backend", "digital",
                           "--out", str(tmp_path))
        assert code == 0
        assert "d13/digital: 3/3" in out
        assert (tmp_path / "verify_d29_digital.json").exists()

    def test_fault_exits_3(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "--decoder", "d29", "--backend",
                           "digital", "--fault", "swap:Y7,Y5",
                           "--out", str(tmp_path))
        assert code == 3
        doc = json.loads((tmp_path / "verify_d29_digital.json").read_text())
        bad = [v for v in doc["vectors"] if not v["ok"]]
        assert len(bad) == 2

    def test_analog_d13(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "--decoder", "d13", "--backend",
                           "analog", "--out", str(tmp_path))
        assert code == 0
        assert "d13/analog: 3/3" in out

    def test_solver_failure_exits_2(self, capsys, tmp_path, monkeypatch):
        from ternsim import analysis
        from ternsim.engine import NonConvergence

        def fail(*args, **kwargs):
            raise NonConvergence(1, "Y2")

        monkeypatch.setattr(analysis, "steady_output", fail)
        code, _, _ = run(capsys, "verify", "--decoder", "d13", "--backend",
                         "analog", "--out", str(tmp_path))
        assert code == 2
        doc = json.loads((tmp_path / "verify_d13_analog.json").read_text())
        assert all("NonConvergence" in v["error"] for v in doc["vectors"])

    def test_bad_fault_spec(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--decoder", "d13", "--backend",
                           "digital", "--fault", "chop:Y0",
                           "--out", str(tmp_path))
        assert code == 1


class TestSimulate:
    def test_builtin_with_inputs(self, capsys, tmp_path):
        code, out, _ = run(capsys, "simulate", "--builtin", "d13", "--inputs",
                           "2", "--t-stop", "30e-9", "--out", str(tmp_path))
        assert code == 0
        csvs = list(tmp_path.glob("*.csv"))
        assert len(csvs) == 1
        header = csvs[0].read_text().splitlines()[0]
        assert header.startswith("time,")

    def test_run_shorter_than_10ns_settles(self, capsys, tmp_path):
        code, out, _ = run(capsys, "simulate", "--builtin", "d13", "--inputs",
                           "2", "--t-stop", "5e-9", "--out", str(tmp_path))
        assert code == 0
        assert "NOT SETTLED" not in out
        assert all(f"Y{i} settled" in out for i in range(3))

    def test_sweep_writes_one_file_per_vector(self, capsys, tmp_path):
        code, out, _ = run(capsys, "simulate", "--builtin", "d13",
                           "--sweep-inputs", "--t-stop", "30e-9",
                           "--out", str(tmp_path))
        assert code == 0
        assert len(list(tmp_path.glob("*.csv"))) == 3

    def test_vcd_format(self, capsys, tmp_path):
        code, out, _ = run(capsys, "simulate", "--builtin", "d13", "--inputs",
                           "0", "--t-stop", "30e-9", "--formats", "csv,vcd",
                           "--out", str(tmp_path))
        assert code == 0
        assert len(list(tmp_path.glob("*.vcd"))) == 1

    def test_display_waveform_matches_digit_7_column(self, capsys, tmp_path):
        from ternsim.core import TernaryLevel, VoltageBands, voltage_to_level
        code, _, _ = run(capsys, "simulate", "--builtin", "display",
                         "--inputs", "2,1", "--out", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "display_A2_B1.csv").read_text().splitlines()
        header, last = rows[0].split(","), rows[-1].split(",")
        bands = VoltageBands.default()
        segments = [f"Y{s}" for s in "abcdefg"]
        got = {name: voltage_to_level(float(v), bands)
               for name, v in zip(header, last) if name in segments}
        high = {k for k, v in got.items() if v == TernaryLevel.L2}
        assert high == {"Yd", "Ye", "Yf", "Yg"}

    def test_identical_invocations_bit_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code, _, _ = run(capsys, "simulate", "--builtin", "d13",
                             "--inputs", "1", "--t-stop", "20e-9",
                             "--formats", "csv,vcd", "--out", str(out))
            assert code == 0
        for name in ("d13_X1.csv", "d13_X1.vcd"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_netlist_file(self, capsys, tmp_path):
        net = tmp_path / "rc.net"
        net.write_text("Vs a 0 PWL(0 0 10n 1.0)\nR1 a mid 1k\nR2 mid 0 1k\n"
                       ".port out mid mid\n.end\n")
        code, out, _ = run(capsys, "simulate", "--netlist", str(net),
                           "--t-stop", "20e-9", "--out", str(tmp_path))
        assert code == 0

    def test_inputs_driven_at_netlist_supply(self, capsys, tmp_path):
        net = tmp_path / "d13_12.net"
        code, _, _ = run(capsys, "emit-netlist", "--builtin", "d13",
                         "--out-file", str(net))
        assert code == 0
        text = net.read_text()
        assert "Vvdd vdd 0 DC 1.0\n" in text
        net.write_text(text.replace("Vvdd vdd 0 DC 1.0\n", "Vvdd vdd 0 DC 1.2\n"))
        run(capsys, "simulate", "--netlist", str(net), "--inputs", "2",
            "--t-stop", "2e-9", "--out", str(tmp_path))
        rows = (tmp_path / "d13_X2.csv").read_text().splitlines()
        header = rows[0].split(",")
        x, vdd = header.index("X"), header.index("vdd")
        for row in rows[1:]:
            cols = row.split(",")
            assert float(cols[vdd]) == 1.2
            assert cols[x] == cols[vdd]

    def test_floating_island_exits_2(self, capsys, tmp_path):
        net = tmp_path / "d13_island.net"
        run(capsys, "emit-netlist", "--builtin", "d13", "--out-file", str(net))
        text = net.read_text()
        assert text.endswith(".end\n")
        net.write_text(text[:-len(".end\n")]
                       + "R9 fl1 fl2 1k\nR10 fl1 fl2 1k\n.end\n")
        code, _, err = run(capsys, "simulate", "--netlist", str(net),
                           "--inputs", "2", "--out", str(tmp_path))
        assert code == 2
        assert err == "error: singular system: node 'fl1' has no DC path\n"

    def test_parse_error_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text("M1 a\n")
        code, _, err = run(capsys, "simulate", "--netlist", str(bad),
                           "--out", str(tmp_path))
        assert code == 1
        assert "line 1" in err

    def test_bad_solver_setting_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--builtin", "d13", "--dt",
                           "-1", "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("error: dt must be positive")

    @pytest.mark.parametrize("flag,value", [
        ("--dt", "nan"), ("--t-stop", "nan"), ("--t-stop", "inf"),
    ])
    def test_non_finite_setting_exit_1(self, capsys, tmp_path, flag, value):
        code, out, err = run(capsys, "simulate", "--builtin", "d13",
                             "--inputs", "2", flag, value,
                             "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "finite" in err
        assert list(tmp_path.iterdir()) == []

    def test_too_many_steps_exit_1(self, capsys, tmp_path):
        code, out, err = run(capsys, "simulate", "--builtin", "d13",
                             "--inputs", "2", "--t-stop", "1e300",
                             "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: t_stop/dt = inf steps exceeds")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_format_rejected_before_simulating(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--builtin", "d13", "--inputs",
                           "2", "--t-stop", "1e-9", "--formats", "csv,bogus",
                           "--out", str(tmp_path))
        assert code == 1
        assert "unknown format 'bogus'" in err
        assert list(tmp_path.iterdir()) == []

    def test_bad_inputs_count(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--builtin", "d29", "--inputs",
                           "2", "--out", str(tmp_path))
        assert code == 1
        assert "expected 2" in err


class TestCompare:
    def test_text_report(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compare", "--out", str(tmp_path))
        assert code == 0
        assert "x7 measured I/O-pin-power model" in out
        assert "PowerPlay Early Power Estimator" in out
        assert (tmp_path / "resource_report.txt").exists()

    def test_json_report(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compare", "--format", "json",
                           "--out", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "resource_report.json").read_text())
        keys = {c["key"]: c["value"] for c in doc["reference"]}
        assert keys["ternary_total_power_mw"] == 62.0
        assert keys["baseline_io_power_mw"] == 14.0


class TestOutputDir:
    def test_env_var_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TERNSIM_OUT", str(tmp_path / "envout"))
        code, _, _ = run(capsys, "verify", "--decoder", "d13",
                         "--backend", "digital")
        assert code == 0
        assert (tmp_path / "envout" / "verify_d13_digital.txt").exists()


class TestEmitNetlist:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "emit-netlist", "--builtin", "d29")
        assert code == 0
        assert out.startswith("* circuit: d29")
        assert ".end" in out

    def test_roundtrip_through_parser(self, capsys, tmp_path):
        path = tmp_path / "display.net"
        code, _, _ = run(capsys, "emit-netlist", "--builtin", "display",
                         "--out-file", str(path))
        assert code == 0
        from ternsim.netlist import parse, elaborate, builtin_network
        assert parse(path.read_text()) == elaborate(builtin_network("display"))
