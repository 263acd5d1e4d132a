import copy
import dataclasses
import math
import pickle

import pytest

from ternsim.devices import MemristorParams
from ternsim.netlist import (CellKind, DuplicateNameError, NetlistError,
                             NetlistSyntaxError, SEGMENT_TERMS,
                             UnboundNodeError, UnknownDeviceError, build_cell,
                             builtin_network, elaborate, mutate_network,
                             parse, serialize)
from ternsim.netlist.cells import GateNetwork, InvalidArity
from ternsim.netlist.parser import parse_value
from ternsim.netlist.model import (Circuit, Memristor, Port, Resistor,
                                   VSource)

MINIMAL = """\
Vdd vdd 0 DC 1.0
M1 vdd out RON=500 ROFF=10k VON=0.27 VOFF=0.27 TAU=500p X0=0
R1 out 0 1k
"""
P = MemristorParams()


def device(circuit, name):
    """The device of ``circuit`` called ``name``."""
    return next(d for d in circuit.devices if d.name == name)


def gate_driving(net, name):
    """The gate of ``net`` whose output is ``name``."""
    return next(g for g in net.gates if g.output == name)


class TestParse:
    def test_minimal_netlist(self):
        c = parse(MINIMAL)
        assert len(c.devices) == 3
        assert c.nodes == {"vdd", "out", "0"}
        m = device(c, "M1")
        assert m.params.r_off == 10_000.0
        assert m.params.tau == pytest.approx(500e-12)

    def test_si_suffixes(self):
        c = parse("V1 a 0 DC 1.0\nR1 a b 4.7k\nR2 b 0 220m\n")
        assert device(c, "R1").ohms == pytest.approx(4700.0)
        assert device(c, "R2").ohms == pytest.approx(0.22)

    def test_case_insensitive_keywords(self):
        c = parse("v1 a 0 dc 1.0\nr1 a 0 1K\n")
        assert device(c, "v1").dc == 1.0

    def test_comments_and_blank_lines(self):
        c = parse("* a comment\n\n" + MINIMAL + "\n* trailing\n")
        assert len(c.devices) == 3

    def test_pwl_source(self):
        c = parse("V1 a 0 PWL(0 0 1n 1.0 2n 0.5)\nR1 a 0 1k\n")
        src = device(c, "V1")
        assert src.value_at(0.0) == 0.0
        assert src.value_at(0.5e-9) == pytest.approx(0.5)
        assert src.value_at(5e-9) == 0.5

    def test_ports(self):
        c = parse(MINIMAL + ".port out result out\n.end\n")
        assert c.port("result").node == "out"

    def test_end_stops_parsing(self):
        c = parse(MINIMAL + ".end\nthis is not a netlist line\n")
        assert len(c.devices) == 3


class TestParseErrors:
    def _line_of(self, exc_info):
        return exc_info.value.line

    def test_memristor_arity(self):
        with pytest.raises(NetlistSyntaxError) as e:
            parse("M1 a")
        assert self._line_of(e) == 1
        assert "2 nodes" in str(e.value)

    def test_unknown_device(self):
        with pytest.raises(UnknownDeviceError) as e:
            parse("V1 a 0 DC 1\nQ1 a b c\n")
        assert self._line_of(e) == 2

    def test_duplicate_name(self):
        with pytest.raises(DuplicateNameError) as e:
            parse("V1 a 0 DC 1\nR1 a b 1k\nR1 b 0 1k\n")
        assert self._line_of(e) == 3

    def test_port_unknown_node(self):
        with pytest.raises(UnboundNodeError) as e:
            parse(MINIMAL + ".port out y nowhere\n")
        assert self._line_of(e) == 4
        # a circuit with no devices still has its ports checked
        with pytest.raises(UnboundNodeError) as e:
            parse(".port in X x\n.port out Y y\n.end\n")
        assert self._line_of(e) == 1

    def test_bad_value(self):
        with pytest.raises(NetlistSyntaxError) as e:
            parse("V1 a 0 DC 1\nR1 a 0 12x3\n")
        assert self._line_of(e) == 2

    def test_missing_dc_value(self):
        with pytest.raises(NetlistSyntaxError) as e:
            parse("V1 a 0 DC\n")
        assert self._line_of(e) == 1

    def test_pwl_odd_points(self):
        with pytest.raises(NetlistSyntaxError) as e:
            parse("V1 a 0 PWL(0 0 1n)\n")
        assert self._line_of(e) == 1

    def test_bad_polarity(self):
        with pytest.raises(NetlistSyntaxError) as e:
            parse("T1 d g s CMOS VTH=0.3 K=1m\n")
        assert self._line_of(e) == 1

    def test_memristor_unknown_key(self):
        with pytest.raises(NetlistSyntaxError) as e:
            parse("M1 a b RON=500 BOGUS=1\n")
        assert self._line_of(e) == 1

    def test_memristor_temperature_key_rejected(self):
        # T= is not part of the grammar; serialize could never emit it.
        with pytest.raises(NetlistSyntaxError) as e:
            parse("V1 a 0 DC 1\nM1 a 0 RON=500 T=350\n")
        assert self._line_of(e) == 2
        assert "unknown parameter" in str(e.value)

    @pytest.mark.parametrize("text,line,match", [
        ("V1 a 0 DC 1\n.foo x\n", 2, "unknown directive '.foo'"),
        ("V1 a 0 PWL(0 0 1n 1\nR1 a 0 1k\n", 1, r"malformed PWL\(\.\.\.\)"),
        ("V1 a 0 DC 1\nM1 a 0 RON=\n", 2, "missing value for 'RON'"),
    ])
    def test_refused_at_its_line(self, text, line, match):
        with pytest.raises(NetlistSyntaxError, match=match) as e:
            parse(text)
        assert self._line_of(e) == line

    def test_dangling_node(self):
        with pytest.raises(UnboundNodeError) as e:
            parse("V1 a 0 DC 1\nR1 a 0 1k\nR2 a floater 1k\n")
        assert self._line_of(e) == 3

    def test_floating_source_negative_terminal(self):
        with pytest.raises(UnboundNodeError):
            parse("V1 a b DC 1\nR1 a b 1k\nR2 b 0 1k\n")

    @pytest.mark.parametrize("text,line,match", [
        ("V1 a 0 DC 1\nV2 a 0 DC 0.5\nR1 a 0 1k\n", 2,
         "source 'V2': node 'a' is already pinned to source 'V1'"),
        ("R1 a 0 1k\nV1 a 0 DC 1\nV2 0 0 DC 1\n", 3,
         "source 'V2': node '0' is already pinned to ground"),
    ], ids=["two-sources-one-node", "source-on-ground"])
    def test_source_on_pinned_node(self, text, line, match):
        with pytest.raises(NetlistError, match=match) as e:
            parse(text)
        assert self._line_of(e) == line

    def test_input_ports_on_one_node(self):
        # Before, both were signal inputs, and either one alone pinned x.
        with pytest.raises(NetlistError, match="input port 'Q': node 'x' is "
                           "already pinned to input port 'P'") as e:
            parse("V1 vdd 0 DC 1\nR1 vdd x 1k\nR2 x 0 1k\n"
                  ".port in P x\n.port in Q x\n")
        assert self._line_of(e) == 5

    def test_bad_port_direction(self):
        with pytest.raises(NetlistSyntaxError) as e:
            parse(MINIMAL + ".port inout x out\n")
        assert self._line_of(e) == 4

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "1e398k"])
    def test_non_finite_value(self, text):
        with pytest.raises(NetlistSyntaxError, match="not finite") as e:
            parse_value(text, 7)
        assert self._line_of(e) == 7

    @pytest.mark.parametrize("line", [
        "R1 a 0 1e400",
        "T1 a a 0 NMOS VTH=1e400 K=1m",
        "V2 a 0 PWL(0 0 1e400 1)",
        "V2 b 0 DC 1e400",
    ])
    def test_non_finite_device_value(self, line):
        with pytest.raises(NetlistSyntaxError, match="'1e400' is not finite"
                           ) as e:
            parse(f"V1 a 0 DC 1\n{line}\n")
        assert self._line_of(e) == 2

    @pytest.mark.parametrize("ohms", ["0", "-1k", "0.0", "1e-400", "1e-320"])
    def test_nonpositive_resistance(self, ohms):
        with pytest.raises(NetlistSyntaxError, match="must be positive") as e:
            parse(f"V1 a 0 DC 1\nR1 a 0 1k\nR2 a 0 {ohms}\n")
        assert self._line_of(e) == 3

    @pytest.mark.parametrize("ron,roff", [("1e160", "1e300"),
                                          ("1e-200", "1e-150")])
    def test_memristance_numerator_out_of_range(self, ron, roff):
        with pytest.raises(NetlistSyntaxError, match=r"r_on \* r_off") as e:
            parse(f"V1 a 0 DC 1\nR1 a 0 1k\nM1 a 0 RON={ron} ROFF={roff}\n")
        assert self._line_of(e) == 3


class TestDeviceChecks:
    """Devices built in Python are checked as parsed ones are."""

    @pytest.mark.parametrize("ohms", [0.0, -1e3, 1e-320, math.nan])
    def test_resistance_must_be_positive(self, ohms):
        with pytest.raises(ValueError, match="ohms="):
            Resistor("R1", "a", "0", ohms)

    @pytest.mark.parametrize("kwargs,match", [
        ({}, "exactly one of"),
        ({"dc": 1.0, "pwl": ((0.0, 1.0),)}, "exactly one of"),
        ({"pwl": ()}, "exactly one of"),
        ({"dc": math.nan}, "must be finite"),
        ({"dc": math.inf}, "must be finite"),
        ({"pwl": ((0.0, 1.0), (1e-9, math.inf))}, "must be finite"),
        ({"pwl": ((0.0, 1.0), (math.nan, 0.0))}, "must be finite"),
        ({"pwl": ((2e-9, 1.0), (1e-9, 0.0))}, "strictly increasing"),
        ({"pwl": ((1e-9, 1.0), (1e-9, 0.0))}, "strictly increasing"),
    ])
    def test_source_waveform_checked(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            VSource("Vvdd", "vdd", "0", **kwargs)

    def test_pwl_order_error_keeps_its_line(self):
        with pytest.raises(NetlistSyntaxError) as e:
            parse("R1 a 0 1k\nV1 a 0 PWL(0 0 2n 1 1n 0)\n")
        assert e.value.line == 2
        assert e.value.reason == "PWL times must be strictly increasing"

    def test_input_port_on_a_source_node(self):
        # Only a port named after its source's node is a supply pin.
        with pytest.raises(NetlistError) as e:
            parse("V1 vdd 0 DC 1\nR1 vdd y 1k\nR2 y 0 1k\n"
                  ".port in X vdd\n.port out Y y\n")
        assert e.value.line == 4
        assert all(w in e.value.reason for w in ("'X'", "'vdd'", "'V1'"))
        supply = parse("V1 vdd 0 DC 1\nR1 vdd y 1k\nR2 y 0 1k\n"
                       ".port in vdd vdd\n.port out Y y\n")
        assert supply.signal_inputs() == []

    def test_input_port_on_ground(self):
        # Ground is pinned like a source's node: a port on it is no signal.
        with pytest.raises(NetlistError) as e:
            parse("V1 vdd 0 DC 1\nR1 vdd y 1k\nR2 y 0 1k\n"
                  ".port in X 0\n.port out Y y\n")
        assert e.value.line == 4
        assert e.value.reason == ("input port 'X' is on node '0', which "
                                  "ground drives: a supply pin must be "
                                  "named after its node")


class TestSerialize:
    @pytest.mark.parametrize("name", ["d13", "d29", "display"])
    def test_roundtrip_builtins(self, name):
        circuit = elaborate(builtin_network(name))
        again = parse(serialize(circuit))
        assert again == circuit

    @pytest.mark.parametrize("kind,n", [
        (CellKind.STI, None), (CellKind.NTI, None), (CellKind.PTI, None),
        (CellKind.TAND2, None), (CellKind.TOR2, None), (CellKind.TNOR, None),
        (CellKind.SFBUF, None), (CellKind.TORN, 3), (CellKind.TORN, 5),
    ])
    def test_roundtrip_cells(self, kind, n):
        circuit = build_cell(kind, n=n)
        assert parse(serialize(circuit)) == circuit

    def test_roundtrip_pwl_source(self):
        circuit = parse("V1 a 0 PWL(0 0 2n 1)\nR1 a b 1k\nR2 b 0 1k\n"
                        ".port out Y b\n")
        text = serialize(circuit)
        assert "V1 a 0 PWL(0.0 0.0 2e-09 1.0)" in text.splitlines()
        assert parse(text) == circuit

    def test_serialize_idempotent_through_parse(self):
        circuit = elaborate(builtin_network("d13"))
        text = serialize(circuit)
        assert serialize(parse(text)) == text

    def test_empty_circuit_header_only(self):
        text = serialize(Circuit(name="empty"))
        assert text == "* circuit: empty\n.end\n"


class TestCircuit:
    def test_circuit_is_immutable(self):
        circuit = parse(MINIMAL + ".port out y out\n")
        assert isinstance(circuit.devices, tuple)
        assert isinstance(circuit.ports, tuple)
        for name, value in (("devices", []), ("ports", []), ("name", "x"),
                            ("cells", {})):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(circuit, name, value)
        with pytest.raises(TypeError):
            elaborate(builtin_network("d13")).cells["TAND2"] = 1


    def test_validate_refusals(self):
        loop = (VSource("V1", "a", "b", dc=1.0), Resistor("R1", "a", "b", 1e3))
        with pytest.raises(UnboundNodeError,
                           match=r"no device is connected to ground \(node 0\)"):
            Circuit("floating", loop)
        grounded = (VSource("V1", "a", "0", dc=1.0),
                    Resistor("R1", "a", "0", 1e3))
        twice = (Port("Y", "out", "a"), Port("Y", "out", "a"))
        with pytest.raises(DuplicateNameError,
                           match="duplicate port name 'Y'"):
            Circuit("twice", grounded, twice)

    # Each breaks a rule that the solver, given the circuit, would get
    # wrong without a word: V1 pinned as if grounded (Y 0.5 V, not 1/3 V),
    # one M1 series kept, Y reporting node z, a bare KeyError.
    @pytest.mark.parametrize("devices,ports,error,match", [
        ((VSource("V1", "a", "m", dc=1.0), Resistor("R0", "m", "0", 1e3),
          Resistor("R1", "a", "y", 1e3), Resistor("R2", "y", "0", 1e3)),
         (Port("Y", "out", "y"),), UnboundNodeError,
         "source 'V1': negative terminal must be ground"),
        ((VSource("V1", "a", "0", dc=1.0), Memristor("M1", "a", "y", P),
          Memristor("M1", "y", "0", P)),
         (Port("Y", "out", "y"),), DuplicateNameError,
         "duplicate device name 'M1'"),
        ((VSource("V1", "a", "0", dc=1.0), Resistor("R1", "a", "y", 1e3),
          Resistor("R2", "y", "z", 1e3), Resistor("R3", "z", "0", 1e3)),
         (Port("Y", "out", "y"), Port("Y", "out", "z")), DuplicateNameError,
         "duplicate port name 'Y'"),
        ((VSource("V1", "a", "0", dc=1.0), Resistor("R1", "a", "y", 1e3),
          Resistor("R2", "y", "0", 1e3)),
         (Port("Y", "out", "q"),), UnboundNodeError,
         "port 'Y' binds unknown node 'q'"),
    ], ids=["source-off-ground", "two-M1", "two-Y", "unknown-node"])
    def test_malformed_circuit_refused_when_built(self, devices, ports,
                                                   error, match):
        with pytest.raises(error, match=match) as e:
            Circuit("bad", devices, ports)
        assert e.value.line is None

    def test_replace_is_checked(self, d13):
        stray = (*d13.ports, Port("Z", "out", "nowhere"))
        with pytest.raises(UnboundNodeError,
                           match="port 'Z' binds unknown node 'nowhere'"):
            dataclasses.replace(d13, ports=stray)
        assert dataclasses.replace(d13, name="again") == Circuit(
            "again", d13.devices, d13.ports)

    def test_copies_are_checked(self, d13):
        # TestCompileOnce::test_copies_start_without_compiled_programs (in
        # test_engine.py) checks that a valid circuit's copies are equal.
        broken = copy.copy(d13)
        object.__setattr__(broken, "ports",
                           (*d13.ports, Port("Z", "out", "nowhere")))
        for rebuild in (copy.copy, copy.deepcopy,
                        lambda c: pickle.loads(pickle.dumps(c))):
            with pytest.raises(UnboundNodeError):
                rebuild(broken)


class TestCells:
    def test_tand2_ports_and_devices(self):
        c = build_cell(CellKind.TAND2)
        assert len(c.memristors()) == 2
        assert {p.name for p in c.ports} == {"a", "b", "out"}

    def test_tnor_shares_internal_node(self):
        c = build_cell(CellKind.TNOR)
        mem_nodes = {n for d in c.memristors() for n in d.nodes}
        sti_gates = {d.gate for d in c.mosfets()
                     if d.params.vth == pytest.approx(0.55)}
        assert len(sti_gates) == 1
        assert sti_gates <= mem_nodes

    def test_sfbuf_devices(self):
        c = build_cell(CellKind.SFBUF)
        assert len(c.mosfets()) == 1
        assert len([d for d in c.devices if isinstance(d, Resistor)]) == 1

    def test_torn_arity_validation(self):
        with pytest.raises(InvalidArity):
            build_cell(CellKind.TORN, n=1)
        with pytest.raises(InvalidArity):
            build_cell(CellKind.TAND2, n=3)


class TestBuilders:
    @pytest.mark.parametrize("name", ["d13", "d29", "display"])
    def test_builtin_compiles_one_network(self, monkeypatch, name):
        built = []
        post_init = GateNetwork.__post_init__

        def counting(self):
            built.append(self.name)
            post_init(self)

        monkeypatch.setattr(GateNetwork, "__post_init__", counting)
        builtin_network(name)
        assert built == [name]

    def test_d13_census(self, d13_network):
        assert d13_network.census() == {"NTI": 2, "PTI": 1, "TNOR": 1,
                                        "SFBUF": 2}

    def test_d13_ports(self, d13):
        assert [p.name for p in d13.output_ports()] == ["Y0", "Y1", "Y2"]
        assert [p.name for p in d13.input_ports() if p.name != "vdd"] == ["X"]

    def test_d13_connectivity_from_input(self, d13):
        # every internal node is reachable from X through device terminals
        adjacency = {}
        for dev in d13.devices:
            nodes = dev.nodes
            for n in nodes:
                adjacency.setdefault(n, set()).update(nodes)
        seen, frontier = {"X"}, ["X"]
        while frontier:
            n = frontier.pop()
            for m in adjacency.get(n, ()):
                if m not in seen:
                    seen.add(m)
                    frontier.append(m)
        assert seen >= d13.nodes

    def test_d29_census_matches_composition(self, d29_network):
        census = d29_network.census()
        assert census["TAND2"] == 9
        # two embedded 1-3 decoders plus one buffer per intermediate line
        assert census["NTI"] == 4
        assert census["PTI"] == 2
        assert census["TNOR"] == 2
        assert census["SFBUF"] == 2 * 2 + 6

    def test_d29_wiring_follows_product_equations(self, d29_network):
        and7 = gate_driving(d29_network, "Y7")
        assert and7.kind is CellKind.TAND2
        assert set(and7.inputs) == {"sA2", "sB1"}
        and3 = gate_driving(d29_network, "Y3")
        assert set(and3.inputs) == {"sA1", "sB0"}

    def test_display_ports(self, display):
        outs = [p.name for p in display.output_ports()]
        assert outs == [f"Y{s}" for s in "abcdefg"]
        ins = [p.name for p in display.input_ports() if p.name != "vdd"]
        assert ins == ["A", "B"]

    def test_display_segment_c_has_no_tor(self, display_network):
        rst1 = gate_driving(display_network, "nc")
        assert rst1.kind is CellKind.NTI
        assert rst1.inputs == ("sY2",)
        driver = gate_driving(display_network, "sY2")
        assert driver.kind is CellKind.SFBUF

    def test_display_segment_e_is_five_input_tor(self, display_network):
        or_e = gate_driving(display_network, "re")
        assert or_e.kind is CellKind.TORN
        assert len(or_e.inputs) == 5
        assert set(or_e.inputs) == {f"sY{i}" for i in (1, 3, 4, 5, 7)}

    def test_segment_terms_use_only_lines_0_to_7(self):
        used = {i for terms in SEGMENT_TERMS.values() for i in terms}
        assert used <= set(range(8))

    def test_builders_deterministic(self):
        a = elaborate(builtin_network("d29"))
        b = elaborate(builtin_network("d29"))
        assert a == b

    def test_unknown_builtin_named(self):
        with pytest.raises(KeyError, match="unknown builtin 'bogus'"):
            builtin_network("bogus")

    def test_mutate_network_swaps_outputs(self, d29_network):
        bad = mutate_network(d29_network, "swap:Y7,Y5")
        ports = dict(bad.outputs)
        assert ports["Y7"] == "Y5" and ports["Y5"] == "Y7"
        with pytest.raises(ValueError):
            mutate_network(d29_network, "swap:Y7")
        with pytest.raises(ValueError):
            mutate_network(d29_network, "drop:Y7,Y5")

    def test_mutate_network_rejects_swap_with_itself(self, d29_network):
        with pytest.raises(ValueError, match="two different port names"):
            mutate_network(d29_network, "swap:Y1,Y1")
