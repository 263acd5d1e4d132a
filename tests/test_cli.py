import json
import math
import random
import warnings

import pytest

from ternsim import analysis
from ternsim.cli import main
from ternsim.engine import (NonConvergence, NonFiniteIterate, NotRelaxed,
                            SingularSystem, TransientError, Waveform)
from ternsim.netlist import builtin_network, elaborate, serialize


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

    def test_fault_absent_from_one_decoder_fails_before_any_run(
            self, capsys, tmp_path):
        # d13 and d29 have Y1 and Y2; display's ports are Ya..Yg
        code, out, err = run(capsys, "verify", "--decoder", "all",
                             "--fault", "swap:Y1,Y2", "--out", str(tmp_path))
        assert code == 1
        assert "'display'" in err and out == ""
        assert list(tmp_path.iterdir()) == []


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

    def test_netlist_sweep_refused(self, capsys, tmp_path):
        net = tmp_path / "div.net"
        net.write_text("V1 a 0 DC 1\nR1 a b 1k\nR2 b 0 1k\n.port out Y b\n")
        code, out, err = run(capsys, "simulate", "--netlist", str(net),
                             "--sweep-inputs", "--out", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        assert "--sweep-inputs requires --builtin" in err
        assert not (tmp_path / "o").exists()

    def test_unsettled_output_exits_2(self, capsys, tmp_path):
        # The source ramps until 2 ns, so the output is still moving when
        # the run stops there.
        net = tmp_path / "ramp.net"
        net.write_text("V1 a 0 PWL(0 0 2n 1)\nR1 a b 1k\nR2 b 0 1k\n"
                       ".port out Y b\n")
        code, out, _ = run(capsys, "simulate", "--netlist", str(net),
                           "--t-stop", "2e-9", "--out", str(tmp_path))
        assert code == 2
        assert "Y NOT SETTLED" in out

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

    def test_supply_port_of_any_name(self, capsys, tmp_path):
        # A supply pin is the input port named after its source's node,
        # whatever the name: renamed from vdd to vcc, d13 takes one level.
        net = tmp_path / "d13_vcc.net"
        run(capsys, "emit-netlist", "--builtin", "d13", "--out-file", str(net))
        net.write_text(net.read_text().replace("vdd", "vcc"))
        out_dir = tmp_path / "out"
        for inputs in (["--inputs", "1"], []):
            code, _, err = run(capsys, "simulate", "--netlist", str(net),
                               *inputs, "--t-stop", "5e-9",
                               "--out", str(out_dir))
            assert (code, err) == (0, "")
        assert sorted(p.name for p in out_dir.iterdir()) == ["d13_X0.csv",
                                                            "d13_X1.csv"]
        code, _, err = run(capsys, "simulate", "--netlist", str(net),
                           "--inputs", "1,1", "--out", str(out_dir))
        assert code == 1
        assert err == "error: expected 1 input level(s) (X), got 2\n"

    def test_memristance_overflow_exit_1(self, capsys, tmp_path):
        # Warnings as errors: one leaked from numpy would escape main.
        net = tmp_path / "overflow.net"
        net.write_text("V1 vdd 0 DC 1\nM1 vdd y RON=1e160 ROFF=1e300\n"
                       "R2 y 0 1k\n.port out Y y\n")
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "simulate", "--netlist", str(net),
                                 "--out", str(out_dir))
        assert code == 1
        assert err == ("error: line 2: r_on * r_off must be a positive "
                       "finite float, got 1e+160 * 1e+300\n")
        assert not out_dir.exists()

    def test_huge_supply_exits_2(self, capsys, tmp_path):
        # The FET's stamps overflow to inf - inf: a solver failure, not the
        # "Singular matrix" of a bare numpy error.
        net = tmp_path / "huge.net"
        net.write_text("V1 vdd 0 DC 1e160\nR1 vdd y 1k\n"
                       "T1 y vdd 0 NMOS VTH=0.3 K=2m\n.port out Y y\n")
        code, _, err = run(capsys, "simulate", "--netlist", str(net),
                           "--t-stop", "1e-10", "--out", str(tmp_path))
        assert code == 2
        assert "Newton iterate 1 is not finite at node 'vdd'" in err
        assert "Singular matrix" not in err and "Traceback" not in err

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

    @pytest.mark.parametrize("edit,match", [
        (("Vvdd vdd 0 DC 1.0", "Vvdd vdd 0 DC 1e400"), "is not finite"),
        (("Vvdd vdd 0 DC 1.0", "Vvdd vdd 0 DC -1"), "must be positive"),
        ((".end", "R9 Y0 0 0\n.end"), "resistance must be positive"),
        ((".end", "R9 Y0 0 -1k\n.end"), "resistance must be positive"),
    ])
    def test_bad_netlist_value_exit_1(self, capsys, tmp_path, edit, match):
        net = tmp_path / "d13.net"
        run(capsys, "emit-netlist", "--builtin", "d13", "--out-file", str(net))
        net.write_text(net.read_text().replace(*edit))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "simulate", "--netlist", str(net),
                             "--inputs", "2", "--t-stop", "1e-9",
                             "--out", str(out_dir))
        assert code == 1
        assert out == "" and err.startswith("error: ") and match in err
        assert not out_dir.exists()

    def test_input_port_on_source_node_exit_1(self, capsys, tmp_path):
        net = tmp_path / "port.net"
        net.write_text("V1 vdd 0 DC 1\nR1 vdd y 1k\nR2 y 0 1k\n"
                       ".port in X vdd\n.port out Y y\n.end\n")
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "simulate", "--netlist", str(net),
                             "--t-stop", "1e-9", "--out", str(out_dir))
        assert code == 1
        assert out == ""
        assert err == ("error: line 4: input port 'X' is on node 'vdd', "
                       "which source 'V1' drives: a supply pin must be named "
                       "after its node\n")
        assert not out_dir.exists()

    def test_input_port_on_ground_exit_1(self, capsys, tmp_path):
        # Before, numpy's "could not broadcast" error reached the user.
        net = tmp_path / "ground.net"
        net.write_text("V1 vdd 0 DC 1\nR1 vdd y 1k\nR2 y 0 1k\n"
                       ".port in X 0\n.port out Y y\n.end\n")
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "simulate", "--netlist", str(net),
                             "--t-stop", "1e-9", "--out", str(out_dir))
        assert (code, out) == (1, "")
        assert err == ("error: line 4: input port 'X' is on node '0', "
                       "which ground drives: a supply pin must be named "
                       "after its node\n")
        assert not out_dir.exists()

    def test_nonpositive_supply_exit_1(self, capsys, tmp_path):
        # A PWL point counts toward the supply as a DC value does.
        net = tmp_path / "neg.net"
        net.write_text("V1 a 0 PWL(0 -1 1n 0)\nR1 a 0 1k\n.end\n")
        code, out, err = run(capsys, "simulate", "--netlist", str(net),
                             "--out", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err == ("error: supply voltage (highest source value) must be "
                       "positive, got 0.0\n")

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


class TestErrorBoundary:
    @pytest.mark.parametrize("argv,env_out", [
        (["simulate", "--builtin", "d13", "--inputs", "2", "--out", "{file}"],
         None),
        (["verify", "--decoder", "d13", "--backend", "digital",
          "--out", "{file}"], None),
        (["compare", "--out", "{file}"], None),
        (["verify", "--decoder", "d13", "--backend", "digital"], "{file}"),
        (["emit-netlist", "--builtin", "d13",
          "--out-file", "{tmp}/missing/d13.net"], None),
        (["simulate", "--netlist", "{latin1}"], None),
        (["verify", "--decoder", "bogus"], None),
        ([], None),
    ], ids=["simulate-out-file", "verify-out-file", "compare-out-file",
            "env-out-file", "emit-missing-dir", "non-utf8-netlist",
            "usage-error", "no-command"])
    def test_unusable_input_exits_1(self, capsys, tmp_path, monkeypatch,
                                    argv, env_out):
        paths = {"tmp": tmp_path, "file": tmp_path / "file",
                 "latin1": tmp_path / "latin1.net"}
        paths["file"].write_text("")
        paths["latin1"].write_bytes(b"* r\xe9sistance\nV1 a 0 DC 1\n"
                                    b"R1 a 0 1k\n.end\n")
        if env_out:
            monkeypatch.setenv("TERNSIM_OUT", env_out.format(**paths))
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 1
        assert out == "" and err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file",
                                                             "latin1.net"]

    def test_unwritable_path_named_in_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "emit-netlist", "--builtin", "d13",
                           "--out-file", str(tmp_path / "missing" / "d13.net"))
        assert code == 1
        assert "missing/d13.net" in err
        assert ".d13.net." not in err

    def test_failed_write_leaves_no_temp_file(self, capsys, tmp_path):
        # The report's path is a directory: the rename onto it fails, the
        # temp file written beside it is removed, and the error names the
        # report's path, not the temp file.
        (tmp_path / "verify_d13_digital.txt").mkdir()
        code, _, err = run(capsys, "verify", "--decoder", "d13", "--backend",
                           "digital", "--out", str(tmp_path))
        assert code == 1
        assert "verify_d13_digital.txt" in err and "Traceback" not in err
        assert ".verify_d13_digital.txt." not in err
        assert not list(tmp_path.glob(".verify_d13_digital.txt.*"))

    @pytest.mark.parametrize("error", [
        NonConvergence(200, "Y2"),
        SingularSystem("g"),
        NonFiniteIterate(3, "y"),
        NotRelaxed(8, "Mu1"),
        TransientError(NonConvergence(200, "Y2"), 1e-9,
                       Waveform(dt=50e-12, times=[], probes={}, states={})),
    ], ids=lambda e: type(e).__name__)
    def test_every_solver_failure_exits_2(self, capsys, tmp_path,
                                          monkeypatch, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(analysis, "verify", fail)
        code, _, err = run(capsys, "verify", "--decoder", "d13",
                           "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "verify", "--help")
        assert code == 0
        assert out.startswith("usage: ternsim verify")


# Extreme values a mutant netlist may carry in place of any number.
EXTREMES = ("0", "-1", "1e-300", "1e300", "1e160", "1e-30", "3e9", "-0.5",
            "nan", "inf")


def mutant(lines, rng):
    """``lines`` with one to three seeded edits: a line deleted, tokens cut,
    a node rewired, a device's two first nodes swapped, or an extreme value
    set."""
    lines = list(lines)
    nodes = sorted({t for ln in lines if ln[:1] in "MRTV"
                    for t in ln.split()[1:4] if "=" not in t} | {"fresh"})
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        tokens = lines[i].split()
        op = rng.choice(("delete", "cut", "rewire", "swap", "extreme"))
        if op == "delete" or not tokens:
            del lines[i]
            if not lines:
                return lines
            continue
        if op == "cut":
            tokens = tokens[:rng.randrange(len(tokens))]
        elif op == "rewire" and len(tokens) > 1:
            tokens[rng.randrange(1, min(4, len(tokens)))] = rng.choice(nodes)
        elif op == "swap" and len(tokens) > 2:
            tokens[1], tokens[2] = tokens[2], tokens[1]
        elif op == "extreme":
            j = rng.randrange(len(tokens))
            key, eq, _ = tokens[j].rpartition("=")
            tokens[j] = key + eq + rng.choice(EXTREMES)
        lines[i] = " ".join(tokens)
    return lines


class TestNetlistFuzz:
    """Seeded mutants of the d13 and d29 netlists through ``simulate``.

    The contract: ``main`` returns 0, 1 or 2, nothing escapes it (numpy
    warnings are errors under the test settings), and every value in a
    written CSV is finite.  75 mutants per decoder take about 0.4 s.
    """

    @pytest.mark.parametrize("decoder", ["d13", "d29"])
    def test_mutants_keep_the_cli_contract(self, capsys, tmp_path, decoder):
        lines = serialize(elaborate(builtin_network(decoder))).splitlines()
        rng = random.Random(f"fuzz-{decoder}")
        codes = []
        for k in range(75):
            text = "\n".join(mutant(lines, rng)) + "\n"
            path, out = tmp_path / f"m{k}.net", tmp_path / f"m{k}"
            path.write_text(text)
            try:
                with warnings.catch_warnings():
                    # A TAU below dt/2 draws the engine's documented advice
                    # on stderr; any other warning stays an error.
                    warnings.filterwarnings("ignore", "dt=.* exceeds tau/2",
                                            UserWarning)
                    code = main(["simulate", "--netlist", str(path),
                                 "--t-stop", "2e-9", "--out", str(out)])
            except Exception as exc:
                pytest.fail(f"{type(exc).__name__}: {exc} escaped main on "
                            f"mutant {k}:\n{text}")
            assert code in (0, 1, 2), (k, text)
            codes.append(code)
            for csv_path in out.glob("*.csv"):
                rows = csv_path.read_text().splitlines()[1:]
                values = [float(v) for row in rows for v in row.split(",")]
                assert values and all(map(math.isfinite, values)), (k, text)
        capsys.readouterr()
        # The mutants reach the solver as well as the parser.
        assert {0, 1} <= set(codes), codes
