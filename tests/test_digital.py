import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternsim.core import (BitPair, InvalidEncoding, LEVELS, TernaryLevel,
                          decode_2bit, encode_2bit, ref_nti, ref_pti, ref_sti)
from ternsim.analysis import input_vectors
from ternsim.digital import (EncodedTrace, _eval_levels, eval_circuit,
                             eval_levels, or_reduce_segment, run_trace)
from ternsim.netlist import CellKind, builtin_network, mutate_network
from ternsim.netlist.cells import (GateNetwork, GateSpec, divider_emulation,
                                   truth_table)

import digital_oracle as oracle
from digital_oracle import ref_tand, ref_tor
from conftest import tiled_display

L0, L1, L2 = LEVELS
BITS = [encode_2bit(lv) for lv in LEVELS]
TWO_INPUT = (CellKind.TAND2, CellKind.TOR2, CellKind.TNOR)


def enc(*levels):
    return [encode_2bit(lv) for lv in levels]


def one_gate(kind, codes):
    """One gate on two-bit codes, through the compiled pass: ``eval_circuit``
    on a network of that gate alone."""
    ins = tuple(f"i{k}" for k in range(len(codes)))
    network = GateNetwork("gate", ins, (("Y", "y"),),
                          (GateSpec(kind, "u", ins, "y"),))
    return eval_circuit(network, dict(zip(ins, codes)))["Y"]


# Each kind's oracle function on levels: the gate semantics, apart from the
# divider model and the tables that state them in src/.
ORACLE = {
    CellKind.STI: ref_sti, CellKind.NTI: ref_nti, CellKind.PTI: ref_pti,
    CellKind.SFBUF: lambda a: a, CellKind.TAND2: ref_tand,
    CellKind.TOR2: ref_tor, CellKind.TNOR: lambda a, b: ref_sti(ref_tor(a, b)),
    CellKind.TORN: max,
}


class TestDividerEmulation:
    """min and max on the nine level pairs are acceptance criterion 07."""

    @pytest.mark.parametrize("a,b,bad", [
        (-1, L0, -1), (3, L0, 3), (L1, 0.5, 0.5), (L2, None, None),
        (L0, "2", "2"), ([1], L1, [1])])
    def test_non_level_inputs_rejected(self, a, b, bad):
        # (-1, 0) used to read as (L2, L0), and 3 to raise IndexError.
        for orientation in ("AND", "OR"):
            with pytest.raises(ValueError) as e:
                divider_emulation(a, b, orientation)
            assert str(e.value) == f"{bad!r} is not a ternary level"

    def test_always_returns_a_level(self):
        # Equal inputs used to come back as given: (1.0, 1.0) as 1.0.
        values = [*LEVELS, 0, 1, 2, 0.0, 1.0, 2.0]
        for a, b in itertools.product(values, repeat=2):
            for orientation, ref in (("AND", ref_tand), ("OR", ref_tor)):
                out = divider_emulation(a, b, orientation)
                assert type(out) is TernaryLevel
                assert out == ref(LEVELS[int(a)], LEVELS[int(b)])

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

    def test_non_code(self):
        with pytest.raises(InvalidEncoding, match="1 is not a two-bit code"):
            or_reduce_segment(1)


class TestEvalCircuit:
    def test_display_digit_4(self, display_network):
        out = eval_circuit(display_network,
                           {"A": encode_2bit(L1), "B": encode_2bit(L1)})
        high = {p for p, b in out.items() if decode_2bit(b) == L2}
        assert high == {"Ya", "Yd", "Ye"}

    def test_d13_exhaustive(self, d13_network):
        for x in LEVELS:
            out = eval_circuit(d13_network, {"X": encode_2bit(x)})
            for i in range(3):
                want = L2 if i == int(x) else L0
                assert out[f"Y{i}"] == encode_2bit(want)

    def test_d29_exhaustive_product_equations(self, d29_network):
        for a, b in itertools.product(LEVELS, repeat=2):
            out = eval_circuit(d29_network,
                               {"A": encode_2bit(a), "B": encode_2bit(b)})
            hot = 3 * int(a) + int(b)
            for k in range(9):
                want = L2 if k == hot else L0
                assert out[f"Y{k}"] == encode_2bit(want), (a, b, k)

    def test_no_output_carries_reserved_code(self, display_network):
        for a, b in itertools.product(LEVELS, repeat=2):
            out = eval_circuit(display_network,
                               {"A": encode_2bit(a), "B": encode_2bit(b)})
            for bp in out.values():
                assert not (bp.hi and bp.lo)

    def test_missing_input_rejected(self, d29_network):
        with pytest.raises(ValueError,
                           match="missing input port 'B' of 'd29'"):
            eval_circuit(d29_network, {"A": encode_2bit(L0)})

    def test_fault_injection_fails_expected_vectors(self, d29_network):
        network = mutate_network(d29_network, "swap:Y7,Y5")
        bad = []
        for a, b in itertools.product(LEVELS, repeat=2):
            out = eval_circuit(network,
                               {"A": encode_2bit(a), "B": encode_2bit(b)})
            hot = 3 * int(a) + int(b)
            ok = all(out[f"Y{k}"] == encode_2bit(L2 if k == hot else L0)
                     for k in range(9))
            if not ok:
                bad.append((int(a), int(b)))
        assert sorted(bad) == [(1, 2), (2, 1)]


class TestEvalLevels:
    """``eval_levels`` is ``eval_circuit`` read in levels, not codes."""

    @pytest.mark.parametrize("name", ["d13", "d29", "display"])
    def test_matches_eval_circuit_clean_and_under_swaps(self, name):
        network = builtin_network(name)
        for net in [network, *swap_faults(network)]:
            for vec in input_vectors(name):
                codes = eval_circuit(net, {p: encode_2bit(lv)
                                           for p, lv in vec.items()})
                got = eval_levels(net, vec)
                assert got == {p: decode_2bit(bp) for p, bp in codes.items()}
                assert list(got) == [p for p, _ in net.outputs]
                assert all(type(lv) is TernaryLevel for lv in got.values())

    def test_missing_input_rejected(self, d29_network):
        with pytest.raises(ValueError,
                           match="missing input port 'B' of 'd29'"):
            eval_levels(d29_network, {"A": L0})

    @pytest.mark.parametrize("value,shown", [
        (3, "3"), (-1, "-1"), (1.5, "1.5"), (float("nan"), "nan"),
        ("2", "'2'"), (None, "None"), ([1], r"\[1\]"),
        (encode_2bit(L1), "BitPair"),
    ])
    def test_non_level_rejected(self, d29_network, value, shown):
        with pytest.raises(ValueError,
                           match=f"input port 'B' of 'd29': {shown}.* is not "
                                 f"a ternary level$"):
            eval_levels(d29_network, {"A": L2, "B": value})


class TestTrace:
    def test_run_trace(self, d13_network):
        vectors = [{"X": encode_2bit(lv)} for lv in (L0, L1, L2)]
        trace = run_trace(d13_network, vectors)
        assert trace.inputs == tuple(vectors)
        assert [{p: int(decode_2bit(b)) for p, b in step.items()}
                for step in trace.outputs] == [
            {"Y0": 2, "Y1": 0, "Y2": 0}, {"Y0": 0, "Y1": 2, "Y2": 0},
            {"Y0": 0, "Y1": 0, "Y2": 2}]

    def test_trace_rejects_reserved_output(self):
        with pytest.raises(InvalidEncoding) as exc:
            EncodedTrace(inputs=({"A": BitPair(0, 0)},),
                         outputs=({"Y": BitPair(1, 1)},))
        assert str(exc.value) == "output 'Y': two-bit code 11 is reserved"

    def test_trace_rejects_non_code_output(self):
        with pytest.raises(InvalidEncoding) as exc:
            EncodedTrace(inputs=({"A": BitPair(0, 0)},), outputs=({"Y": "10"},))
        assert str(exc.value) == "output 'Y': '10' is not a two-bit code"


@st.composite
def gate_networks(draw):
    """Topologically ordered networks over every cell kind."""
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
    return GateNetwork("random", inputs,
                       tuple((f"P{j}", n) for j, n in enumerate(ports)),
                       tuple(gates))


class TestCompiledPass:
    def test_tiled_display_matches_reference(self):
        assert_matches_oracle(tiled_display(8))

    @given(gate_networks())
    def test_random_networks_match_reference(self, network):
        assert_matches_oracle(network)

    @pytest.mark.parametrize("kind,arity", [
        *((k, 1) for k in (CellKind.STI, CellKind.NTI, CellKind.PTI,
                           CellKind.SFBUF)),
        *((k, 2) for k in TWO_INPUT),
        *((CellKind.TORN, n) for n in range(2, 7)),
    ])
    def test_table_matches_oracle(self, kind, arity):
        # The table states the kind's oracle function, and a gate of that
        # kind, compiled alone, evaluates to it: a wide TORN folds pairwise.
        table = truth_table(kind, arity)
        assert len(table) == 3 ** arity
        for idx, combo in enumerate(itertools.product(LEVELS, repeat=arity)):
            assert table[idx] == ORACLE[kind](*combo), combo
            assert BITS[table[idx]] == one_gate(kind, enc(*combo)), combo

    def test_compiled_fields_stay_out_of_eq_and_repr(self, d13_network):
        net = d13_network
        twin = GateNetwork(name=net.name, inputs=net.inputs,
                           outputs=net.outputs, gates=net.gates)
        assert net == twin and hash(net) == hash(twin)
        assert repr(net).startswith("GateNetwork(name='d13', inputs=('X',), ")
        assert "_program" not in repr(net)


class TestEvalCircuitErrors:
    @pytest.mark.parametrize("port", ["X", "U"])
    def test_reserved_code_on_input(self, port):
        # U is read by no gate
        network = GateNetwork("n", ("X", "U"), (("Y", "y"),),
                              (GateSpec(CellKind.STI, "u1", ("X",), "y"),))
        vec = {"X": encode_2bit(L0), "U": encode_2bit(L0), port: BitPair(1, 1)}
        with pytest.raises(InvalidEncoding):
            eval_circuit(network, vec)

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            one_gate(CellKind.TAND2, enc(L0))

    def test_undefined_net_rejected(self):
        gate = GateSpec(CellKind.TAND2, "g1", ("X", "zz"), "y")
        with pytest.raises(ValueError) as exc:
            GateNetwork(name="n", inputs=("X",), outputs=(("Y", "y"),),
                        gates=(gate,))
        assert str(exc.value) == "gate 'g1' reads undefined net 'zz'"

    def test_undefined_output_net_rejected(self):
        with pytest.raises(ValueError) as exc:
            GateNetwork(name="n", inputs=("X",), outputs=(("Y", "zz"),),
                        gates=())
        assert str(exc.value) == "output port 'Y' bound to undefined net 'zz'"

    @pytest.mark.parametrize("driven", ["X", "y"])
    def test_multiple_drivers_rejected(self, driven):
        # X is a primary input; y is driven by the first gate
        gates = (GateSpec(CellKind.STI, "g1", ("X",), "y"),
                 GateSpec(CellKind.NTI, "g2", ("X",), driven))
        with pytest.raises(ValueError) as exc:
            GateNetwork(name="n", inputs=("X",), outputs=(("Y", "y"),),
                        gates=gates)
        assert str(exc.value) == f"net {driven!r} has multiple drivers"

    @pytest.mark.parametrize("inputs,outputs,names,dup", [
        (("X", "X"), (("Y", "y"),), ("g1", "g2"), "port name 'X'"),
        (("X",), (("X", "y"),), ("g1", "g2"), "port name 'X'"),
        (("X",), (("Y", "y"), ("Y", "z")), ("g1", "g2"), "port name 'Y'"),
        (("X",), (("Y", "y"), ("Z", "z")), ("g1", "g1"), "gate name 'g1'"),
    ], ids=["input", "input-and-output", "output", "gate"])
    def test_repeated_name_rejected(self, inputs, outputs, names, dup):
        gates = (GateSpec(CellKind.STI, names[0], ("X",), "y"),
                 GateSpec(CellKind.NTI, names[1], ("X",), "z"))
        with pytest.raises(ValueError) as exc:
            GateNetwork(name="n", inputs=inputs, outputs=outputs, gates=gates)
        assert str(exc.value) == f"{dup} is used twice"


def swap_faults(network):
    ports = [p for p, _ in network.outputs]
    return [mutate_network(network, f"swap:{a},{b}")
            for a, b in itertools.combinations(ports, 2)]


def random_network(seed):
    """A seeded topologically ordered network over every cell kind."""
    rng = random.Random(seed)
    nets = [f"i{k}" for k in range(rng.randint(1, 3))]
    inputs = tuple(nets)
    gates = []
    for k in range(rng.randint(1, 12)):
        kind = rng.choice(list(CellKind))
        arity = (rng.randint(2, 6) if kind is CellKind.TORN
                 else 2 if kind in TWO_INPUT else 1)
        gates.append(GateSpec(kind, f"u{k}",
                              tuple(rng.choice(nets) for _ in range(arity)),
                              f"g{k}"))
        nets.append(f"g{k}")
    ports = rng.sample(nets, min(len(nets), 5))
    return GateNetwork(f"random{seed}", inputs,
                       tuple((f"P{j}", n) for j, n in enumerate(ports)),
                       tuple(gates))


def assert_matches_oracle(network):
    for levels in itertools.product(range(3), repeat=len(network.inputs)):
        assert (_eval_levels(network, levels)
                == oracle.eval_levels(network, levels)), (network.name, levels)


def outcome(fn, *args):
    """What ``fn`` returns, or the type and text of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # compared by the caller, not swallowed
        return type(exc), str(exc)


class TestGatePassOracle:
    """The two-input program against the variable-arity pass of
    ``digital_oracle``, one lookup per gate."""

    @pytest.mark.parametrize("name", ["d13", "d29", "display"])
    def test_builtin(self, name):
        assert_matches_oracle(builtin_network(name))

    def test_all_60_swap_faults(self):
        faults = [f for name in ("d13", "d29", "display")
                  for f in swap_faults(builtin_network(name))]
        assert len(faults) == 60
        for network in faults:
            assert_matches_oracle(network)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tiled(self, k):
        assert_matches_oracle(tiled_display(k))

    def test_seeded_random_networks(self):
        torn_arities = set()
        for seed in range(300):
            network = random_network(seed)
            torn_arities |= {len(g.inputs) for g in network.gates
                             if g.kind is CellKind.TORN}
            assert_matches_oracle(network)
        assert torn_arities == {2, 3, 4, 5, 6}

    @pytest.mark.parametrize("name", ["d13", "d29", "display"])
    def test_codes_and_errors_match(self, name):
        # Every input takes each level, the reserved code 11, or is missing.
        network = builtin_network(name)
        codes = [*BITS, BitPair(1, 1), None]
        for combo in itertools.product(codes, repeat=len(network.inputs)):
            vec = {n: c for n, c in zip(network.inputs, combo) if c is not None}
            assert (outcome(eval_circuit, network, vec)
                    == outcome(oracle.eval_circuit, network, vec)), combo
        assert outcome(eval_circuit, network, {})[0] is ValueError
        bad = dict.fromkeys(network.inputs, BitPair(1, 1))
        assert outcome(eval_circuit, network, bad)[0] is InvalidEncoding

    # Folding corner cases: each network is checked on every input vector,
    # and the step count shows that the foldable gates were folded.

    def chain(self, net, prefix):
        """NTI -> PTI -> STI -> SFBUF on ``net``; returns its gates and net."""
        gates, src = [], net
        for k, kind in enumerate((CellKind.NTI, CellKind.PTI, CellKind.STI,
                                  CellKind.SFBUF)):
            gates.append(GateSpec(kind, f"{prefix}{k}", (src,), f"{prefix}n{k}"))
            src = f"{prefix}n{k}"
        return gates, src

    def test_ported_one_input_net_read_downstream(self):
        # n and s are ported and also read by later gates, so both are
        # materialized; m is folded into the TAND.
        gates = (GateSpec(CellKind.NTI, "u1", ("X",), "n"),
                 GateSpec(CellKind.SFBUF, "u2", ("n",), "s"),
                 GateSpec(CellKind.PTI, "u3", ("s",), "m"),
                 GateSpec(CellKind.TAND2, "u4", ("m", "Z"), "y"),
                 GateSpec(CellKind.TOR2, "u5", ("s", "n"), "w"))
        network = GateNetwork("ported", ("X", "Z"),
                              (("P", "n"), ("Q", "s"), ("Y", "y"), ("W", "w")),
                              gates)
        assert_matches_oracle(network)
        assert len(network._program) == 4

    @pytest.mark.parametrize("order", ["a-first", "b-later"])
    def test_chains_into_torn_fold_steps(self, order):
        # A folded chain on the first fold step's a operand, another on the
        # b operand of the second fold step, and a third on the final
        # step's b.
        g1, c1 = self.chain("X", "p")
        g2, c2 = self.chain("Z", "q")
        g3, c3 = self.chain("Z", "r")
        ins = (c1, "Z", c2, c3) if order == "a-first" else ("Z", c1, c2, c3)
        gates = (*g1, *g2, *g3, GateSpec(CellKind.TORN, "or", ins, "y"),
                 GateSpec(CellKind.STI, "inv", ("y",), "Yn"))
        network = GateNetwork("torn", ("X", "Z"), (("Y", "y"), ("N", "Yn")),
                              gates)
        assert_matches_oracle(network)
        assert len(network._program) == 4

    def test_tand_reads_one_folded_net_twice(self):
        g1, c1 = self.chain("X", "p")
        gates = (*g1, GateSpec(CellKind.STI, "inv", (c1,), "m"),
                 GateSpec(CellKind.TAND2, "and", ("m", "m"), "y"),
                 GateSpec(CellKind.TNOR, "nor", (c1, "m"), "z"))
        network = GateNetwork("same", ("X",), (("Y", "y"), ("Z", "z")), gates)
        assert_matches_oracle(network)
        assert len(network._program) == 2

    def test_ports_on_a_primary_input_and_its_buffer(self):
        gates = (GateSpec(CellKind.SFBUF, "buf", ("X",), "s"),
                 GateSpec(CellKind.SFBUF, "buf2", ("s",), "t"),
                 GateSpec(CellKind.NTI, "inv", ("t",), "u"))
        network = GateNetwork("pins", ("X", "Z"),
                              (("P", "X"), ("Q", "s"), ("R", "Z"), ("U", "u")),
                              gates)
        assert_matches_oracle(network)
        assert len(network._program) == 2


def assert_slots_compact(network):
    """Every slot below ``_size`` is 0, a primary input's, or some step's
    ``out``: a folded net takes none."""
    used = {0, *range(1, len(network.inputs) + 1),
            *(out for *_, out in network._program)}
    assert used == set(range(network._size)), network.name


class TestCompactSlots:
    @pytest.mark.parametrize("name,size", [
        ("d13", 5), ("d29", 14), ("display", 27)])
    def test_builtin_and_swap_faults(self, name, size):
        network = builtin_network(name)
        assert network._size == size
        for net in [network, *swap_faults(network)]:
            assert_slots_compact(net)

    def test_seeded_random_networks(self):
        for seed in range(300):
            assert_slots_compact(random_network(seed))


def assert_tables_on_levels(network):
    """Every step's table has 9 entries, 3 when ``a`` is slot 0, and holds
    only levels: every slot holds a level, never a packed value."""
    for table, a, _, _ in network._program:
        assert len(table) == (3 if a == 0 else 9), network.name
        assert set(table) <= {0, 1, 2}, network.name


class TestLevelTables:
    def test_builtins_swap_faults_and_tiles(self):
        networks = [tiled_display(k) for k in (1, 2, 3, 8)]
        for name in ("d13", "d29", "display"):
            networks += [builtin_network(name),
                         *swap_faults(builtin_network(name))]
        assert len(networks) == 67
        for network in networks:
            assert_tables_on_levels(network)

    def test_seeded_random_networks(self):
        torn_arities = set()
        for seed in range(300):
            network = random_network(seed)
            torn_arities |= {len(g.inputs) for g in network.gates
                             if g.kind is CellKind.TORN}
            assert_tables_on_levels(network)
        assert torn_arities == {2, 3, 4, 5, 6}


def one_input_unported_steps(network):
    """Compiled one-input steps (``a`` is slot 0) whose net no port reads."""
    ported = set(network._output_slots)
    return [s for s in network._program if s[1] == 0 and s[3] not in ported]


class TestFoldedProgram:
    """Every unported one-input gate is folded into the steps that read it."""

    @pytest.mark.parametrize("name,steps", [
        ("d13", 3), ("d29", 11), ("display", 31)])
    def test_builtin_and_swap_faults(self, name, steps):
        network = builtin_network(name)
        for net in [network, *swap_faults(network)]:
            assert one_input_unported_steps(net) == [], net.name
            assert len(net._program) == steps, net.name

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_tiled(self, k):
        network = tiled_display(k)
        assert one_input_unported_steps(network) == []
        assert len(network._program) == 31 * k
