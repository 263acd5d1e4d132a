"""Two-bit-encoded gate-level backend.

Mirrors the FPGA realization of the logic family: ternary values travel as
two-bit codes ((0, 1, 2) = (00, 01, 10); 11 is reserved), each gate is a
lookup table, like an FPGA LUT, and the gates evaluate in one zero-delay
topological pass.  The tables are built from ``eval_gate``, which states the
gate semantics.  The memristor divider gates can also be emulated with the
integer two-state memristance model (500 forward / 1500 reverse) to show
both routes agree.
"""

from __future__ import annotations

import csv
import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .core import (BIT_CODES, BitPair, InvalidEncoding, TernaryLevel,
                   decode_2bit, encode_2bit, ref_nti, ref_pti, ref_sti,
                   ref_tand, ref_tor)
from .devices import digital_memristance
from .netlist.cells import CellKind, GateNetwork

@dataclass(frozen=True)
class GateDag:
    """Topologically ordered combinational gate graph, compiled to lookups.

    Every net gets an integer slot, primary inputs first and then gate
    outputs in gate order, and every gate becomes ``(table, input_slots,
    output_slot)`` with ``table`` from :func:`truth_table`.
    """

    name: str
    inputs: tuple
    outputs: tuple  # ((port, net), ...)
    gates: tuple
    _program: tuple = field(init=False, repr=False, compare=False)
    _output_slots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        slots = {net: i for i, net in enumerate(self.inputs)}
        program = []
        for out_slot, g in enumerate(self.gates, start=len(self.inputs)):
            missing = [n for n in g.inputs if n not in slots]
            if missing:
                raise ValueError(f"gate {g.name!r} uses undefined nets {missing}")
            program.append((truth_table(g.kind, len(g.inputs)),
                            tuple(slots[n] for n in g.inputs), out_slot))
            slots[g.output] = out_slot
        for port, net in self.outputs:
            if net not in slots:
                raise ValueError(f"output port {port!r} bound to undefined "
                                 f"net {net!r}")
        object.__setattr__(self, "_program", tuple(program))
        object.__setattr__(self, "_output_slots", tuple(
            (port, slots[net]) for port, net in self.outputs))


def build_dag(network: GateNetwork) -> GateDag:
    """Compile a gate network into an evaluable DAG (same topology source
    as the analog elaboration)."""
    return GateDag(name=network.name, inputs=network.inputs,
                   outputs=network.outputs, gates=network.gates)


def eval_gate(kind: CellKind, inputs) -> BitPair:
    """Evaluate one gate on encoded inputs via the reference semantics."""
    levels = [decode_2bit(b) for b in inputs]
    n = len(levels)
    if kind in (CellKind.STI, CellKind.NTI, CellKind.PTI, CellKind.SFBUF):
        if n != 1:
            raise ValueError(f"{kind.value} takes one input, got {n}")
        fn = {CellKind.STI: ref_sti, CellKind.NTI: ref_nti,
              CellKind.PTI: ref_pti, CellKind.SFBUF: lambda a: a}[kind]
        return encode_2bit(fn(levels[0]))
    if kind in (CellKind.TAND2, CellKind.TOR2, CellKind.TNOR):
        if n != 2:
            raise ValueError(f"{kind.value} takes two inputs, got {n}")
        if kind is CellKind.TAND2:
            return encode_2bit(ref_tand(*levels))
        if kind is CellKind.TOR2:
            return encode_2bit(ref_tor(*levels))
        return encode_2bit(ref_sti(ref_tor(*levels)))
    if kind is CellKind.TORN:
        if n < 2:
            raise ValueError(f"TORN takes at least two inputs, got {n}")
        return encode_2bit(max(levels))
    raise ValueError(f"unknown cell kind {kind}")  # pragma: no cover


@functools.cache
def truth_table(kind: CellKind, arity: int) -> tuple:
    """Output level (0..2) of a gate for every input combination.

    Entry ``sum(level_i * 3 ** (arity - 1 - i))`` holds the output for input
    levels ``level_0 .. level_{arity-1}``, as :func:`eval_gate` gives it.
    """
    if kind is CellKind.TORN and arity > 2:
        # TORN is max, so fold in one input at a time; its 3**arity
        # eval_gate calls would dominate compiling the display.
        pair, rest = truth_table(kind, 2), truth_table(kind, arity - 1)
        return tuple(pair[3 * r + c] for r in rest for c in range(3))
    return tuple(
        int(decode_2bit(eval_gate(kind, [BIT_CODES[c] for c in combo])))
        for combo in itertools.product(range(3), repeat=arity))


def eval_circuit(dag: GateDag, inputs: Mapping) -> dict:
    """Single topological pass over the DAG; zero-delay semantics.

    Raises InvalidEncoding if a primary input carries the reserved code 11.
    """
    vals = [0] * (len(dag.inputs) + len(dag.gates))
    for slot, name in enumerate(dag.inputs):
        try:
            code = inputs[name]
        except KeyError:
            raise KeyError(f"missing value for primary input {name!r}") from None
        vals[slot] = decode_2bit(code)
    for table, ins, out in dag._program:
        idx = 0
        for s in ins:
            idx = 3 * idx + vals[s]
        vals[out] = table[idx]
    return {port: BIT_CODES[vals[slot]] for port, slot in dag._output_slots}


# Integer divider emulation: voltages scaled to {0, 500, 1000} millivolt
# integers, quantized with a low band at <= 250 and a high band at >= 750.
_MV = (0, 500, 1000)
_LO_MAX_MV = 250
_HI_MIN_MV = 750


def divider_emulation(v_a: TernaryLevel, v_b: TernaryLevel,
                      orientation: str) -> TernaryLevel:
    """Re-derive a TAND/TOR output from the two-state memristance divider.

    The bias implied by the input pair sets each memristance (forward 500,
    reverse 1500); the output is the integer resistive divider between the
    two input voltages, quantized back to a level.  Agrees with min/max on
    all nine input pairs for both orientations.
    """
    if orientation not in ("AND", "OR"):
        raise ValueError(f"orientation must be AND or OR, got {orientation!r}")
    va, vb = _MV[int(v_a)], _MV[int(v_b)]
    if va == vb:
        return v_a
    if orientation == "OR":
        # Anodes face the inputs: the higher input's device is forward-biased.
        r_a = digital_memristance(va, vb)
        r_b = digital_memristance(vb, va)
    else:
        # Anodes face the output: the lower input's device is forward-biased.
        r_a = digital_memristance(vb, va)
        r_b = digital_memristance(va, vb)
    v_hi, r_lo_side = (va, r_b) if va > vb else (vb, r_a)
    v_lo = min(va, vb)
    out_mv = v_lo + r_lo_side * (v_hi - v_lo) // (r_a + r_b)
    if out_mv <= _LO_MAX_MV:
        return TernaryLevel.L0
    if out_mv >= _HI_MIN_MV:
        return TernaryLevel.L2
    return TernaryLevel.L1


def or_reduce_segment(out: BitPair) -> int:
    """Collapse a two-bit ternary output to the single bit a display pin needs."""
    if out.hi and out.lo:
        raise InvalidEncoding("two-bit code 11 is reserved")
    return out.hi | out.lo


@dataclass(frozen=True)
class EncodedTrace:
    """Per-step input and output codes from a DAG run."""

    inputs: tuple   # tuple of dicts, port -> BitPair
    outputs: tuple  # tuple of dicts, port -> BitPair

    def __post_init__(self):
        for step in self.outputs:
            for port, b in step.items():
                if b.hi and b.lo:
                    raise InvalidEncoding(f"output {port!r} carries code 11")

    def to_csv(self, fh) -> None:
        """Write ``time,<port>...`` rows of decoded levels; the column
        convention matches the analog CSV export so traces diff directly."""
        writer = csv.writer(fh)
        in_names = sorted(self.inputs[0]) if self.inputs else []
        out_names = sorted(self.outputs[0]) if self.outputs else []
        writer.writerow(["time"] + in_names + out_names)
        for i, (ins, outs) in enumerate(zip(self.inputs, self.outputs)):
            row = [int(decode_2bit(ins[n])) for n in in_names]
            row += [int(decode_2bit(outs[n])) for n in out_names]
            writer.writerow([i] + row)


def run_trace(dag: GateDag, vectors: Iterable) -> EncodedTrace:
    """Evaluate the DAG over a sequence of encoded input vectors."""
    ins, outs = [], []
    for vec in vectors:
        ins.append(dict(vec))
        outs.append(eval_circuit(dag, vec))
    return EncodedTrace(inputs=tuple(ins), outputs=tuple(outs))
