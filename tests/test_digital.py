import io
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternsim.core import (BitPair, InvalidEncoding, LEVELS, decode_2bit,
                          encode_2bit, ref_nti, ref_pti, ref_sti, ref_tand,
                          ref_tor)
from ternsim.digital import (EncodedTrace, GateDag, build_dag,
                             divider_emulation, eval_circuit, eval_gate,
                             or_reduce_segment, run_trace, truth_table)
from ternsim.netlist import CellKind, builtin_network, mutate_network
from ternsim.netlist.cells import GateNetwork, GateSpec

L0, L1, L2 = LEVELS
BITS = [encode_2bit(lv) for lv in LEVELS]
TWO_INPUT = (CellKind.TAND2, CellKind.TOR2, CellKind.TNOR)


def enc(*levels):
    return [encode_2bit(lv) for lv in levels]


class TestEvalGate:
    def test_tand_example(self):
        assert eval_gate(CellKind.TAND2, enc(L2, L1)) == encode_2bit(L1)

    def test_pti_example(self):
        assert eval_gate(CellKind.PTI, enc(L1)) == encode_2bit(L2)

    def test_tor_identity(self):
        assert eval_gate(CellKind.TOR2, enc(L0, L0)) == encode_2bit(L0)

    @pytest.mark.parametrize("kind,fn", [
        (CellKind.STI, ref_sti), (CellKind.NTI, ref_nti),
        (CellKind.PTI, ref_pti), (CellKind.SFBUF, lambda a: a),
    ])
    def test_single_input_exhaustive(self, kind, fn):
        for a in LEVELS:
            assert eval_gate(kind, enc(a)) == encode_2bit(fn(a))

    @pytest.mark.parametrize("kind,fn", [
        (CellKind.TAND2, ref_tand), (CellKind.TOR2, ref_tor),
        (CellKind.TNOR, lambda a, b: ref_sti(ref_tor(a, b))),
    ])
    def test_two_input_exhaustive(self, kind, fn):
        for a, b in itertools.product(LEVELS, repeat=2):
            assert eval_gate(kind, enc(a, b)) == encode_2bit(fn(a, b))

    def test_torn_exhaustive_3(self):
        for combo in itertools.product(LEVELS, repeat=3):
            assert eval_gate(CellKind.TORN, enc(*combo)) == encode_2bit(max(combo))

    def test_reserved_code_rejected(self):
        with pytest.raises(InvalidEncoding):
            eval_gate(CellKind.STI, [BitPair(1, 1)])

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            eval_gate(CellKind.TAND2, enc(L0))


class TestDividerEmulation:
    def test_or_rail_pair(self):
        assert divider_emulation(L2, L0, "OR") == L2

    def test_and_equal_inputs_pass_through(self):
        assert divider_emulation(L1, L1, "AND") == L1

    def test_and_matches_min_exhaustively(self):
        for a, b in itertools.product(LEVELS, repeat=2):
            assert divider_emulation(a, b, "AND") == ref_tand(a, b), (a, b)

    def test_or_matches_max_exhaustively(self):
        for a, b in itertools.product(LEVELS, repeat=2):
            assert divider_emulation(a, b, "OR") == ref_tor(a, b), (a, b)

    def test_memristances_are_500_1500(self):
        from ternsim.devices import digital_memristance
        assert digital_memristance(1.0, 0.0) == 500
        assert digital_memristance(0.0, 1.0) == 1500

    def test_bad_orientation(self):
        with pytest.raises(ValueError):
            divider_emulation(L0, L0, "XOR")


class TestOrReduce:
    def test_high(self):
        assert or_reduce_segment(BitPair(1, 0)) == 1

    def test_low(self):
        assert or_reduce_segment(BitPair(0, 0)) == 0

    def test_mid(self):
        assert or_reduce_segment(BitPair(0, 1)) == 1

    def test_reserved(self):
        with pytest.raises(InvalidEncoding):
            or_reduce_segment(BitPair(1, 1))


class TestEvalCircuit:
    def test_d13_mid_input(self, d13_network):
        dag = build_dag(d13_network)
        out = eval_circuit(dag, {"X": encode_2bit(L1)})
        assert out == {"Y0": encode_2bit(L0), "Y1": encode_2bit(L2),
                       "Y2": encode_2bit(L0)}

    def test_d29_rail_pair(self, d29_network):
        dag = build_dag(d29_network)
        out = eval_circuit(dag, {"A": encode_2bit(L2), "B": encode_2bit(L2)})
        assert out["Y8"] == encode_2bit(L2)
        assert all(out[f"Y{k}"] == encode_2bit(L0) for k in range(8))

    def test_display_digit_4(self, display_network):
        dag = build_dag(display_network)
        out = eval_circuit(dag, {"A": encode_2bit(L1), "B": encode_2bit(L1)})
        high = {p for p, b in out.items() if decode_2bit(b) == L2}
        assert high == {"Ya", "Yd", "Ye"}

    def test_d13_exhaustive(self, d13_network):
        dag = build_dag(d13_network)
        for x in LEVELS:
            out = eval_circuit(dag, {"X": encode_2bit(x)})
            for i in range(3):
                want = L2 if i == int(x) else L0
                assert out[f"Y{i}"] == encode_2bit(want)

    def test_d29_exhaustive_product_equations(self, d29_network):
        dag = build_dag(d29_network)
        for a, b in itertools.product(LEVELS, repeat=2):
            out = eval_circuit(dag, {"A": encode_2bit(a), "B": encode_2bit(b)})
            hot = 3 * int(a) + int(b)
            for k in range(9):
                want = L2 if k == hot else L0
                assert out[f"Y{k}"] == encode_2bit(want), (a, b, k)

    def test_no_output_carries_reserved_code(self, display_network):
        dag = build_dag(display_network)
        for a, b in itertools.product(LEVELS, repeat=2):
            out = eval_circuit(dag, {"A": encode_2bit(a), "B": encode_2bit(b)})
            for bp in out.values():
                assert not (bp.hi and bp.lo)

    def test_missing_input_rejected(self, d29_network):
        dag = build_dag(d29_network)
        with pytest.raises(KeyError,
                           match="missing value for primary input 'B'"):
            eval_circuit(dag, {"A": encode_2bit(L0)})

    def test_fault_injection_fails_expected_vectors(self, d29_network):
        dag = build_dag(mutate_network(d29_network, "swap:Y7,Y5"))
        bad = []
        for a, b in itertools.product(LEVELS, repeat=2):
            out = eval_circuit(dag, {"A": encode_2bit(a), "B": encode_2bit(b)})
            hot = 3 * int(a) + int(b)
            ok = all(out[f"Y{k}"] == encode_2bit(L2 if k == hot else L0)
                     for k in range(9))
            if not ok:
                bad.append((int(a), int(b)))
        assert sorted(bad) == [(1, 2), (2, 1)]


class TestTrace:
    def test_run_trace_and_csv(self, d13_network):
        dag = build_dag(d13_network)
        vectors = [{"X": encode_2bit(lv)} for lv in (L0, L1, L2)]
        trace = run_trace(dag, vectors)
        assert len(trace.outputs) == 3
        buf = io.StringIO()
        trace.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "time,X,Y0,Y1,Y2"
        assert lines[1] == "0,0,2,0,0"
        assert lines[3] == "2,2,0,0,2"

    def test_trace_rejects_reserved_output(self):
        with pytest.raises(InvalidEncoding):
            EncodedTrace(inputs=({"A": BitPair(0, 0)},),
                         outputs=({"Y": BitPair(1, 1)},))


def reference_walk(network, inputs):
    """The gate pass as one ``eval_gate`` call per gate, by net name."""
    values = {name: inputs[name] for name in network.inputs}
    for gate in network.gates:
        values[gate.output] = eval_gate(gate.kind,
                                        [values[n] for n in gate.inputs])
    return {port: values[net] for port, net in network.outputs}


def all_vectors(network):
    for combo in itertools.product(BITS, repeat=len(network.inputs)):
        yield dict(zip(network.inputs, combo))


def assert_matches_reference(network):
    dag = build_dag(network)
    for vec in all_vectors(network):
        assert eval_circuit(dag, vec) == reference_walk(network, vec), vec


def tiled_display(k):
    """k prefixed copies of the display decoder sharing A and B."""
    base = builtin_network("display")

    def net(i, n):
        return n if n in base.inputs else f"t{i}_{n}"

    gates = tuple(GateSpec(g.kind, f"t{i}_{g.name}",
                           tuple(net(i, n) for n in g.inputs), net(i, g.output))
                  for i in range(k) for g in base.gates)
    outputs = tuple((f"t{i}_{p}", net(i, n))
                    for i in range(k) for p, n in base.outputs)
    return GateNetwork(f"display_x{k}", base.inputs, outputs, gates)


@st.composite
def gate_networks(draw):
    """Topologically ordered networks over every cell kind, with a vector."""
    nets = [f"i{k}" for k in range(draw(st.integers(1, 3)))]
    inputs = tuple(nets)
    gates = []
    for k in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(list(CellKind)))
        arity = (draw(st.integers(2, 6)) if kind is CellKind.TORN
                 else 2 if kind in TWO_INPUT else 1)
        ins = draw(st.lists(st.sampled_from(nets), min_size=arity,
                            max_size=arity))
        gates.append(GateSpec(kind, f"u{k}", tuple(ins), f"g{k}"))
        nets.append(f"g{k}")
    ports = draw(st.lists(st.sampled_from(nets), min_size=1, max_size=5))
    network = GateNetwork("random", inputs,
                          tuple((f"P{j}", n) for j, n in enumerate(ports)),
                          tuple(gates))
    vec = {n: draw(st.sampled_from(BITS)) for n in inputs}
    return network, vec


class TestCompiledPass:
    @pytest.mark.parametrize("name", ["d13", "d29", "display"])
    def test_builtin_and_swap_faults_match_reference(self, name):
        network = builtin_network(name)
        ports = [p for p, _ in network.outputs]
        assert_matches_reference(network)
        for a, b in itertools.combinations(ports, 2):
            assert_matches_reference(mutate_network(network, f"swap:{a},{b}"))

    def test_tiled_display_matches_reference(self):
        assert_matches_reference(tiled_display(8))

    @given(gate_networks())
    def test_random_networks_match_reference(self, case):
        network, vec = case
        assert eval_circuit(build_dag(network), vec) == reference_walk(network, vec)

    @pytest.mark.parametrize("kind,arity", [
        *((k, 1) for k in (CellKind.STI, CellKind.NTI, CellKind.PTI,
                           CellKind.SFBUF)),
        *((k, 2) for k in TWO_INPUT),
        *((CellKind.TORN, n) for n in range(2, 7)),
    ])
    def test_table_matches_eval_gate(self, kind, arity):
        table = truth_table(kind, arity)
        assert len(table) == 3 ** arity
        for idx, combo in enumerate(itertools.product(BITS, repeat=arity)):
            assert BITS[table[idx]] == eval_gate(kind, list(combo)), combo

    def test_compiled_fields_stay_out_of_eq_and_repr(self, d13_network):
        dag = build_dag(d13_network)
        twin = GateDag(name=dag.name, inputs=dag.inputs, outputs=dag.outputs,
                       gates=dag.gates)
        assert dag == twin and hash(dag) == hash(twin)
        assert repr(dag).startswith("GateDag(name='d13', inputs=('X',), ")
        assert "_program" not in repr(dag)


class TestEvalCircuitErrors:
    @pytest.mark.parametrize("port", ["X", "U"])
    def test_reserved_code_on_input(self, port):
        # U is read by no gate
        network = GateNetwork("n", ("X", "U"), (("Y", "y"),),
                              (GateSpec(CellKind.STI, "u1", ("X",), "y"),))
        vec = {"X": encode_2bit(L0), "U": encode_2bit(L0), port: BitPair(1, 1)}
        with pytest.raises(InvalidEncoding):
            eval_circuit(build_dag(network), vec)

    def test_undefined_net_rejected(self):
        gate = GateSpec(CellKind.TAND2, "g1", ("X", "zz"), "y")
        with pytest.raises(ValueError) as exc:
            GateDag(name="n", inputs=("X",), outputs=(("Y", "y"),),
                    gates=(gate,))
        assert str(exc.value) == "gate 'g1' uses undefined nets ['zz']"

    def test_undefined_output_net_rejected(self):
        with pytest.raises(ValueError, match="output port 'Y'"):
            GateDag(name="n", inputs=("X",), outputs=(("Y", "zz"),), gates=())
