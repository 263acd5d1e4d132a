"""Two-bit-encoded gate-level backend.

Mirrors the FPGA realization of the logic family: ternary values travel as
two-bit codes ((0, 1, 2) = (00, 01, 10); 11 is reserved), gates evaluate in
one zero-delay topological pass, and the memristor divider gates can also be
emulated with the integer two-state memristance model (500 forward / 1500
reverse) to show both routes agree.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import (BitPair, InvalidEncoding, TernaryLevel, decode_2bit,
                   encode_2bit, ref_nti, ref_pti, ref_sti, ref_tand, ref_tor)
from .devices import digital_memristance
from .netlist.cells import CellKind, GateNetwork


@dataclass(frozen=True)
class GateDag:
    """Topologically ordered combinational gate graph."""

    name: str
    inputs: tuple
    outputs: tuple  # ((port, net), ...)
    gates: tuple

    def __post_init__(self):
        defined = set(self.inputs)
        for g in self.gates:
            missing = [n for n in g.inputs if n not in defined]
            if missing:
                raise ValueError(f"gate {g.name!r} uses undefined nets {missing}")
            defined.add(g.output)


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


def eval_circuit(dag: GateDag, inputs: Mapping) -> dict:
    """Single topological pass over the DAG; zero-delay semantics."""
    values = {}
    for name in dag.inputs:
        try:
            values[name] = inputs[name]
        except KeyError:
            raise KeyError(f"missing value for primary input {name!r}") from None
    for gate in dag.gates:
        values[gate.output] = eval_gate(gate.kind, [values[n] for n in gate.inputs])
    return {port: values[net] for port, net in dag.outputs}


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
