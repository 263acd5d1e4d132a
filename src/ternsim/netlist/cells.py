"""Cell library and decoder builders.

Topology is described once, at gate level (:class:`GateNetwork`), and consumed
by both backends: :func:`elaborate` expands a network into a transistor/
memristor :class:`Circuit` for the analog engine, and the network compiles
itself into two-input lookups for the digital backend.  This module
defines each cell kind's arity, function on levels (``_FUNCTION``, the gate
semantics, which :func:`truth_table` tabulates) and device expansion.

Cell topologies:

* NTI / PTI are complementary MOSFET pairs; the NTI switches a third of the
  way up the supply, the PTI two thirds, implemented purely through threshold
  choice.
* STI is a ratioed inverter: a complementary pair with both thresholds just
  above VDD/2 plus an equal-resistor rail divider, so mid-band inputs leave
  both devices off and the divider holds the output at exactly VDD/2.  A
  plain complementary pair has no stable mid output (ideal square-law devices
  in saturation give the output node zero conductance) and would amplify the
  level loss of an upstream memristor divider past the quantization bands.
* TAND/TOR are memristor-ratioed dividers.  TOR points every anode at its
  input, TAND at the output, so the forward-biased device ends up on-state
  toward the higher (OR) or lower (AND) input and the divider approximates
  max/min.  Their functions come from :func:`divider_emulation`, the
  paper's FPGA model of that divider over the two-state integer memristance
  (:func:`~ternsim.devices.digital_memristance`); a TNOR is an STI after the
  OR divider and a TORN folds the OR divider pairwise.
* SFBUF is an NMOS source follower with a pull-down resistor.  Its device is
  sized wide with a near-native threshold so the follower drop stays inside
  the downstream quantization margins.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..core import (LEVELS, BitPair, TernaryLevel, as_level, decode_2bit,
                    encode_2bit, ref_nti, ref_pti, ref_sti)
from ..devices import MemristorParams, MosfetParams, digital_memristance
from .model import GND, Circuit, Memristor, Mosfet, Port, Resistor, VSource


class InvalidArity(ValueError):
    """Raised when a gate is built or driven with the wrong input count."""


class CellKind(enum.Enum):
    STI = "STI"
    NTI = "NTI"
    PTI = "PTI"
    TAND2 = "TAND2"
    TOR2 = "TOR2"
    TORN = "TORN"
    TNOR = "TNOR"
    SFBUF = "SFBUF"


# Input count of each kind; TORN takes any count from two up.
_ARITY = {CellKind.STI: 1, CellKind.NTI: 1, CellKind.PTI: 1, CellKind.SFBUF: 1,
          CellKind.TAND2: 2, CellKind.TOR2: 2, CellKind.TNOR: 2}

# Integer divider emulation: voltages scaled to {0, 500, 1000} millivolt
# integers, quantized with a low band at <= 250 and a high band at >= 750.
_LO_MAX_MV = 250
_HI_MIN_MV = 750


def divider_emulation(v_a: TernaryLevel, v_b: TernaryLevel,
                      orientation: str) -> TernaryLevel:
    """A TAND ("AND") or TOR ("OR") output from the two-state memristance
    divider, the FPGA model of the memristor gates.

    The bias implied by the input pair sets each memristance (forward 500,
    reverse 1500); the output is the integer resistive divider between the
    two input voltages, quantized back to a level.  Raises ValueError, as
    ``as_level`` does, for a non-level input.
    """
    if orientation not in ("AND", "OR"):
        raise ValueError(f"orientation must be AND or OR, got {orientation!r}")
    hi, lo = sorted((500 * as_level(v_a), 500 * as_level(v_b)), reverse=True)
    # A TOR's anodes face its inputs, so the higher input's device is
    # forward-biased; a TAND's face its output, so the lower input's is.
    bias = (hi, lo) if orientation == "OR" else (lo, hi)
    r_hi, r_lo = digital_memristance(*bias), digital_memristance(*bias[::-1])
    out_mv = lo + r_lo * (hi - lo) // (r_hi + r_lo)
    return LEVELS[(out_mv > _LO_MAX_MV) + (out_mv >= _HI_MIN_MV)]


def _tor(a: TernaryLevel, b: TernaryLevel) -> TernaryLevel:
    return divider_emulation(a, b, "OR")


# Each kind's function on input levels: the gate semantics.  The inverters
# and the buffer are functional; the memristor gates run the divider model.
_FUNCTION = {
    CellKind.STI: ref_sti, CellKind.NTI: ref_nti, CellKind.PTI: ref_pti,
    CellKind.SFBUF: lambda a: a,
    CellKind.TAND2: lambda a, b: divider_emulation(a, b, "AND"),
    CellKind.TOR2: _tor, CellKind.TNOR: lambda a, b: ref_sti(_tor(a, b)),
    CellKind.TORN: lambda *levels: functools.reduce(_tor, levels),
}


def _check_arity(kind: CellKind, n: int, who: str) -> None:
    """Raise InvalidArity, naming ``who``, unless ``kind`` takes ``n`` inputs."""
    want = _ARITY.get(kind)
    if (n != want) if want else (n < 2):
        raise InvalidArity(f"{who} takes {want or 'at least 2'} inputs, "
                           f"got {n}")


def eval_gate(kind: CellKind, inputs) -> BitPair:
    """Evaluate one gate on encoded inputs via the reference semantics."""
    levels = [decode_2bit(b) for b in inputs]
    _check_arity(kind, len(levels), kind.value)
    return encode_2bit(_FUNCTION[kind](*levels))


@functools.cache
def truth_table(kind: CellKind, arity: int) -> tuple:
    """Output level (0..2) of a gate for every input combination.

    Entry ``sum(level_i * 3 ** (arity - 1 - i))`` holds the kind's function
    on input levels ``level_0 .. level_{arity-1}``.
    """
    _check_arity(kind, arity, kind.value)
    return tuple(int(_FUNCTION[kind](*levels))
                 for levels in itertools.product(LEVELS, repeat=arity))


# An operand reads its slot through a one-input function indexed by level: a
# written slot through the identity, a one-input gate's ``a`` through (0,).
_IDENTITY = (0, 1, 2)


# Cached because fault variants recompile the same tables; the keys are
# cached tables and one of 27 one-input functions per operand.
@functools.cache
def _compose(table: tuple, fa: tuple, fb: tuple) -> tuple:
    """``table`` read through one-input functions on its operands: entry
    ``3 * i + j`` is ``table[3 * fa[i] + fb[j]]``."""
    return tuple(table[3 * i + j] for i in fa for j in fb)


# Channel-length modulation keeps saturated devices from presenting an exactly
# singular output node to the Newton solver.
_LAMBDA = 0.05
_K_INV = 2e-3

NTI_NMOS = MosfetParams("NMOS", vth=0.30, k=_K_INV, channel_mod=_LAMBDA)
NTI_PMOS = MosfetParams("PMOS", vth=0.70, k=_K_INV, channel_mod=_LAMBDA)
PTI_NMOS = MosfetParams("NMOS", vth=0.70, k=_K_INV, channel_mod=_LAMBDA)
PTI_PMOS = MosfetParams("PMOS", vth=0.30, k=_K_INV, channel_mod=_LAMBDA)
STI_NMOS = MosfetParams("NMOS", vth=0.55, k=_K_INV, channel_mod=_LAMBDA)
STI_PMOS = MosfetParams("PMOS", vth=0.55, k=_K_INV, channel_mod=_LAMBDA)
STI_RAIL_OHMS = 100e3
# Wide, near-native-threshold follower.  The device must be strong enough to
# hold the buffered rails inside the quantization bands, and the load must be
# stiff enough to sink current injected back through off-state memristors of
# downstream divider gates (a 10k load lets idle lines float toward mid).
SFBUF_NMOS = MosfetParams("NMOS", vth=0.05, k=1.0, channel_mod=_LAMBDA)
SFBUF_LOAD_OHMS = 1e3
MEM_CELL = MemristorParams()
# The supply net of every elaborated circuit, and its port's name.
VDD = "vdd"


@dataclass(frozen=True)
class GateSpec:
    """One gate instance inside a network: kind, name, input nets, output net."""

    kind: CellKind
    name: str
    inputs: tuple
    output: str

    def __post_init__(self):
        _check_arity(self.kind, len(self.inputs),
                     f"{self.kind.value} {self.name!r}")


@dataclass(frozen=True)
class GateNetwork:
    """Gate-level description shared by the analog and digital backends.

    ``gates`` is topologically ordered: every gate's inputs are primary
    inputs or outputs of earlier gates.  Primary inputs are also port names,
    so they and the output ports share one namespace.

    Construction compiles it to two-input lookups, as FPGA flows map gates
    to fixed fan-in LUTs: slot 0 holds level 0, then come primary inputs and
    nets that steps write.  A step ``(table, a, b, out)`` sets ``vals[out] =
    table[3 * vals[a] + vals[b]]`` (:func:`truth_table`'s index), a level, so
    a table has 9 entries, or 3 for a one-input gate, which reads slot 0 as
    ``a``.  As a TORN is the OR divider folded pairwise, an n-input TORN
    compiles to n - 1 steps of the two-input TORN table; the later ones read
    its slot as ``a``.

    As a LUT mapper absorbs buffers and inverters into the LUTs that read
    them, a one-input gate whose net is bound to no output port emits no
    step: its function is composed into each reader's table (on ``a`` or
    ``b``), so its net takes no slot.  A one-input gate on a ported net
    emits one step, reading its folded source.  d13 compiles to 3 steps
    over 5 slots, d29 to 11 over 14 and display to 31 over 27.
    """

    name: str
    inputs: tuple
    outputs: tuple  # ((port name, net name), ...)
    gates: tuple
    _program: tuple = field(init=False, repr=False, compare=False)
    _size: int = field(init=False, repr=False, compare=False)
    _output_slots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ports = [*self.inputs, *(port for port, _ in self.outputs)]
        for what, names in (("port", ports),
                            ("gate", [g.name for g in self.gates])):
            if len(set(names)) < len(names):
                dup = next(n for n in names if names.count(n) > 1)
                raise ValueError(f"{what} name {dup!r} is used twice")
        ported = {net for _, net in self.outputs}
        # Net -> (slot, function): the net's level is function[vals[slot]];
        # a folded net names its source's slot.
        slots = {net: (i, _IDENTITY) for i, net in enumerate(self.inputs, 1)}
        size = len(slots) + 1  # a slot is taken only by a net a step writes
        program = []
        for g in self.gates:
            for net in g.inputs:
                if net not in slots:
                    raise ValueError(f"gate {g.name!r} reads undefined net {net!r}")
            if g.output in slots:
                raise ValueError(f"net {g.output!r} has multiple drivers")
            ins = [slots[net] for net in g.inputs]
            table = truth_table(g.kind, min(len(ins), 2))
            a, fa = (0, (0,)) if len(ins) == 1 else ins.pop(0)
            if a == 0 and g.output not in ported:  # folded into its readers
                b, fb = ins[0]
                slots[g.output] = (b, _compose(table, fa, fb))
                continue
            for b, fb in ins:  # a wide TORN folds pairwise into its slot
                program.append((_compose(table, fa, fb), a, b, size))
                a, fa = size, _IDENTITY
            slots[g.output] = (size, _IDENTITY)
            size += 1
        for port, net in self.outputs:
            if net not in slots:
                raise ValueError(f"output port {port!r} bound to undefined net {net!r}")
        object.__setattr__(self, "_program", tuple(program))
        object.__setattr__(self, "_size", size)
        object.__setattr__(self, "_output_slots", tuple(
            slots[net][0] for _, net in self.outputs))

    def census(self) -> dict:
        out: dict = {}
        for g in self.gates:
            out[g.kind.value] = out.get(g.kind.value, 0) + 1
        return out


def _expand_gate(gate: GateSpec, devices: list):
    """Append the device-level expansion of one gate instance."""
    g = gate.name
    ins, out = gate.inputs, gate.output
    kind = gate.kind
    if kind in (CellKind.NTI, CellKind.PTI):
        npar, ppar = (NTI_NMOS, NTI_PMOS) if kind is CellKind.NTI else (PTI_NMOS, PTI_PMOS)
        devices.append(Mosfet(f"T{g}_n", out, ins[0], GND, npar))
        devices.append(Mosfet(f"T{g}_p", out, ins[0], VDD, ppar))
    elif kind is CellKind.STI:
        _expand_sti(g, ins[0], out, devices)
    elif kind is CellKind.SFBUF:
        devices.append(Mosfet(f"T{g}_n", VDD, ins[0], out, SFBUF_NMOS))
        devices.append(Resistor(f"R{g}_load", out, GND, SFBUF_LOAD_OHMS))
    elif kind is CellKind.TAND2:
        for label, net in zip("ab", ins):
            devices.append(Memristor(f"M{g}_{label}", out, net, MEM_CELL))
    elif kind in (CellKind.TOR2, CellKind.TORN):
        for i, net in enumerate(ins, start=1):
            devices.append(Memristor(f"M{g}_in{i}", net, out, MEM_CELL))
    elif kind is CellKind.TNOR:
        mid = f"{g}.or"
        for i, net in enumerate(ins, start=1):
            devices.append(Memristor(f"M{g}_in{i}", net, mid, MEM_CELL))
        _expand_sti(f"{g}_sti", mid, out, devices)
    else:  # pragma: no cover - exhaustive over kinds
        raise InvalidArity(f"cannot expand cell kind {kind}")


def _expand_sti(name: str, inp: str, out: str, devices: list):
    devices.append(Mosfet(f"T{name}_n", out, inp, GND, STI_NMOS))
    devices.append(Mosfet(f"T{name}_p", out, inp, VDD, STI_PMOS))
    devices.append(Resistor(f"R{name}_t", VDD, out, STI_RAIL_OHMS))
    devices.append(Resistor(f"R{name}_b", out, GND, STI_RAIL_OHMS))


def elaborate(network: GateNetwork) -> Circuit:
    """Expand a gate network into a flat device-level circuit.

    A 1 V DC supply is attached when any cell needs one.  Input ports are
    left undriven; the engine pins them from a stimulus.
    """
    devices: list = []
    for gate in network.gates:
        _expand_gate(gate, devices)
    uses_vdd = any(VDD in dev.nodes for dev in devices)
    if uses_vdd:
        devices.insert(0, VSource("Vvdd", VDD, GND, dc=1.0))
    ports = [Port(name, "in", name) for name in network.inputs]
    ports += [Port(port, "out", net) for port, net in network.outputs]
    if uses_vdd:
        ports.append(Port(VDD, "in", VDD))
    return Circuit(name=network.name, devices=devices, ports=ports,
                   cells=network.census())


def build_cell(kind: CellKind, n: Optional[int] = None) -> Circuit:
    """Build one standalone cell as a circuit with conventional port names.

    ``n`` is the input count: required for TORN, optional for other kinds.
    """
    if n is None:
        n = _ARITY.get(kind, 0)
    _check_arity(kind, n, f"{kind.value} cell")
    ins = (tuple(f"in{i}" for i in range(1, n + 1)) if kind is CellKind.TORN
           else ("in",) if n == 1 else ("a", "b"))
    net = GateNetwork(name=kind.value.lower(), inputs=ins,
                      outputs=(("out", "out"),),
                      gates=(GateSpec(kind, "u1", ins, "out"),))
    return elaborate(net)


def _d13_gates(p: str, input_net: str, outs) -> list:
    """Gates of a 1-3 decoder; its own nets and gate names start with ``p``."""
    return [
        GateSpec(CellKind.NTI, f"{p}inv0", (input_net,), outs[0]),
        GateSpec(CellKind.PTI, f"{p}pmid", (input_net,), f"{p}pout"),
        GateSpec(CellKind.NTI, f"{p}inv2", (f"{p}pout",), outs[2]),
        GateSpec(CellKind.SFBUF, f"{p}buf0", (outs[0],), f"{p}s0"),
        GateSpec(CellKind.SFBUF, f"{p}buf2", (outs[2],), f"{p}s2"),
        GateSpec(CellKind.TNOR, f"{p}nor1", (f"{p}s0", f"{p}s2"), outs[1]),
    ]


def _d29_gates() -> list:
    """Gates of the 2-9 decoder, which the display decoder extends."""
    gates = [*_d13_gates("a_", "A", ("A0", "A1", "A2")),
             *_d13_gates("b_", "B", ("B0", "B1", "B2"))]
    gates += [GateSpec(CellKind.SFBUF, f"buf{s.lower()}{i}", (f"{s}{i}",),
                       f"s{s}{i}") for s in "AB" for i in range(3)]
    gates += [GateSpec(CellKind.TAND2, f"and{k}",
                       (f"sA{k // 3}", f"sB{k % 3}"), f"Y{k}") for k in range(9)]
    return gates


def decoder_1_3_network() -> GateNetwork:
    """1-to-3 line decoder: two NTI, one PTI, a TNOR, and two followers.

    The low output comes straight from the first NTI, the high output from an
    NTI on the PTI, and the middle output from a TNOR of the other two with a
    source-follower stage before its OR inputs.
    """
    outs = ("Y0", "Y1", "Y2")
    return GateNetwork(name="d13", inputs=("X",),
                       outputs=tuple((o, o) for o in outs),
                       gates=tuple(_d13_gates("", "X", outs)))


def decoder_2_9_network() -> GateNetwork:
    """2-to-9 line decoder: two 1-3 decoders fanned into nine TAND gates.

    Output k = 3i + j is the AND of intermediate lines A_i and B_j; each
    intermediate line is buffered once before fanning out to its three TANDs.
    """
    return GateNetwork(name="d29", inputs=("A", "B"),
                       outputs=tuple((f"Y{k}", f"Y{k}") for k in range(9)),
                       gates=tuple(_d29_gates()))


# Seven-segment sum terms over the 2-9 decoder outputs; segment c is a plain
# buffered copy of line 2.
SEGMENT_TERMS = {
    "a": (1, 4),
    "b": (5, 6),
    "c": (2,),
    "d": (1, 4, 7),
    "e": (1, 3, 4, 5, 7),
    "f": (1, 2, 3, 7),
    "g": (0, 1, 7),
}


def decoder_display_network() -> GateNetwork:
    """Seven-segment display decoder: 2-9 decoder routed through TOR gates.

    Decoder lines are buffered, OR-ed per segment, and each segment passes
    through a two-inverter restoring stage so the ports swing rail to rail.
    """
    gates = _d29_gates()
    used = sorted({i for terms in SEGMENT_TERMS.values() for i in terms})
    for i in used:
        gates.append(GateSpec(CellKind.SFBUF, f"bufy{i}", (f"Y{i}",), f"sY{i}"))
    outputs = []
    for seg, terms in SEGMENT_TERMS.items():
        ins = tuple(f"sY{i}" for i in terms)
        if len(ins) == 1:
            or_net = ins[0]
        else:
            kind = CellKind.TOR2 if len(ins) == 2 else CellKind.TORN
            or_net = f"r{seg}"
            gates.append(GateSpec(kind, f"or_{seg}", ins, or_net))
        gates.append(GateSpec(CellKind.NTI, f"rst1_{seg}", (or_net,), f"n{seg}"))
        gates.append(GateSpec(CellKind.NTI, f"rst2_{seg}", (f"n{seg}",), f"Y{seg}"))
        outputs.append((f"Y{seg}", f"Y{seg}"))
    return GateNetwork(name="display", inputs=("A", "B"),
                       outputs=tuple(outputs), gates=tuple(gates))


BUILTIN_NETWORKS = {
    "d13": decoder_1_3_network,
    "d29": decoder_2_9_network,
    "display": decoder_display_network,
}


def builtin_network(name: str) -> GateNetwork:
    try:
        return BUILTIN_NETWORKS[name]()
    except KeyError:
        raise KeyError(f"unknown builtin {name!r}; choices: "
                       f"{sorted(BUILTIN_NETWORKS)}") from None


def mutate_network(network: GateNetwork, fault: str) -> GateNetwork:
    """Apply a named wiring fault, e.g. ``swap:Y7,Y5`` to swap two outputs."""
    op, _, arg = fault.partition(":")
    if op != "swap":
        raise ValueError(f"unknown fault {fault!r} (supported: swap:P1,P2)")
    names = [s.strip() for s in arg.split(",")]
    if len(names) != 2 or names[0] == names[1]:
        raise ValueError("swap fault needs two different port names")
    ports = dict(network.outputs)
    if names[0] not in ports or names[1] not in ports:
        raise ValueError(f"fault ports must be outputs of {network.name!r}")
    ports[names[0]], ports[names[1]] = ports[names[1]], ports[names[0]]
    outputs = tuple((p, ports[p]) for p, _ in network.outputs)
    return GateNetwork(name=f"{network.name}~{fault}", inputs=network.inputs,
                       outputs=outputs, gates=network.gates)
