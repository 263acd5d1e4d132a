"""Two-bit-encoded gate-level backend.

Mirrors the FPGA realization of the logic family: ternary values travel as
two-bit codes ((0, 1, 2) = (00, 01, 10); 11 is reserved), gates are lookup
tables, like FPGA LUTs, and they evaluate in one zero-delay topological pass
in which every slot holds a level.  A :class:`GateNetwork` compiles itself
to two-input lookups of 9 entries (3 for a one-input gate) when built: a
wide TORN folds pairwise, and every one-input gate whose net is bound to no
output port is folded into the tables of the steps that read it, so such a
net is never materialized.  The tables come from ``eval_gate``, which states
the gate semantics, and are composed only by lookups into each other; it and
``truth_table`` live in :mod:`.netlist.cells` and are re-exported here.
``eval_levels`` answers in levels per port, as ``engine.steady_output`` does
on the analog side; ``eval_circuit`` and ``run_trace`` in two-bit codes.  The
memristor divider gates can also be emulated with the integer two-state
memristance model (500 forward / 1500 reverse) to show both routes agree.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import (BIT_CODES, LEVELS, BitPair, InvalidEncoding, TernaryLevel,
                   as_level, decode_2bit, levels_of)
from .devices import digital_memristance
from .netlist.cells import GateNetwork, eval_gate, truth_table


def build_dag(network: GateNetwork) -> GateNetwork:
    """Return ``network``, which compiles its own lookups when built.

    Only the benchmark workloads in ``perfbench/workloads.py`` still call
    it; the next change to the benchmark drops those calls and this function.
    """
    return network


def _eval_levels(network: GateNetwork, levels) -> list:
    """One zero-delay pass over the network's two-input lookups: output
    levels, as ints in ``network.outputs`` order, for input levels given in
    ``network.inputs`` order."""
    vals = [0] * network._size
    # Plain ints keep the lookup's arithmetic on the interpreter's int path.
    vals[1:len(levels) + 1] = map(int, levels)
    for table, a, b, out in network._program:
        vals[out] = table[3 * vals[a] + vals[b]]
    return [vals[slot] for slot in network._output_slots]


def eval_levels(network: GateNetwork, inputs: Mapping) -> dict:
    """The network's outputs, port -> TernaryLevel, on input levels by port,
    as ``engine.steady_output`` takes them; ValueError as ``levels_of``."""
    out = _eval_levels(network, levels_of(inputs, network.inputs, network.name))
    return {port: LEVELS[lv] for (port, _), lv in zip(network.outputs, out)}


def eval_circuit(network: GateNetwork, inputs: Mapping) -> dict:
    """The network's outputs, port -> BitPair, on two-bit input codes.  Raises
    ValueError as ``levels_of`` for an unknown or missing port, else
    InvalidEncoding naming the first port with code 11."""
    try:
        levels = [decode_2bit(inputs[name]) for name in network.inputs]
    except (KeyError, InvalidEncoding) as exc:  # a port fault is named first
        levels_of(dict.fromkeys(inputs, 0), network.inputs, network.name)
        port = next(p for p in network.inputs if inputs[p] == BitPair(1, 1))
        raise InvalidEncoding(f"input port {port!r} of {network.name!r}: "
                              f"{exc}") from None
    if len(levels) != len(inputs):  # an unknown port: levels_of names it
        levels_of(inputs, network.inputs, network.name)
    out = _eval_levels(network, levels)
    return {port: BIT_CODES[lv] for (port, _), lv in zip(network.outputs, out)}


# Integer divider emulation: voltages scaled to {0, 500, 1000} millivolt
# integers, quantized with a low band at <= 250 and a high band at >= 750.
_LO_MAX_MV = 250
_HI_MIN_MV = 750


def divider_emulation(v_a: TernaryLevel, v_b: TernaryLevel,
                      orientation: str) -> TernaryLevel:
    """Re-derive a TAND/TOR output from the two-state memristance divider.

    The bias implied by the input pair sets each memristance (forward 500,
    reverse 1500); the output is the integer resistive divider between the
    two input voltages, quantized back to a level.  Agrees with min/max on
    all nine input pairs for both orientations.  Raises ValueError, as
    ``as_level`` does, for a non-level input.
    """
    if orientation not in ("AND", "OR"):
        raise ValueError(f"orientation must be AND or OR, got {orientation!r}")
    va, vb = 500 * as_level(v_a), 500 * as_level(v_b)
    if va == vb:
        return TernaryLevel(va // 500)
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
    return int(decode_2bit(out) != TernaryLevel.L0)


@dataclass(frozen=True)
class EncodedTrace:
    """Per-step input and output codes from a gate-level run."""

    inputs: tuple   # tuple of dicts, port -> BitPair
    outputs: tuple  # tuple of dicts, port -> BitPair

    def __post_init__(self):
        for step in self.outputs:
            for port, b in step.items():
                if b.hi and b.lo:
                    raise InvalidEncoding(f"output {port!r} carries code 11")

    def to_csv(self, fh) -> None:
        """Write a ``time,<inputs>,<outputs>`` header, each group of ports
        sorted by name, then a row per step: its index in ``time`` and each
        port's level as 0, 1 or 2."""
        writer = csv.writer(fh)
        in_names = sorted(self.inputs[0]) if self.inputs else []
        out_names = sorted(self.outputs[0]) if self.outputs else []
        writer.writerow(["time"] + in_names + out_names)
        for i, (ins, outs) in enumerate(zip(self.inputs, self.outputs)):
            row = [int(decode_2bit(ins[n])) for n in in_names]
            row += [int(decode_2bit(outs[n])) for n in out_names]
            writer.writerow([i] + row)


def run_trace(network: GateNetwork, vectors: Iterable) -> EncodedTrace:
    """Evaluate the network over a sequence of encoded input vectors."""
    ins, outs = [], []
    for vec in vectors:
        ins.append(dict(vec))
        outs.append(eval_circuit(network, vec))
    return EncodedTrace(inputs=tuple(ins), outputs=tuple(outs))
