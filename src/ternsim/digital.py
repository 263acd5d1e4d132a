"""Two-bit-encoded gate-level backend.

Mirrors the FPGA realization of the logic family: ternary values travel as
two-bit codes ((0, 1, 2) = (00, 01, 10); 11 is reserved), gates are lookup
tables, like FPGA LUTs, and they evaluate in one zero-delay topological pass
in which every slot holds a level.  A :class:`GateNetwork` compiles itself
to two-input lookups of 9 entries (3 for a one-input gate) when built: a
wide TORN folds pairwise, and every one-input gate whose net is bound to no
output port is folded into the tables of the steps that read it, so such a
net is never materialized.  The tables come from ``truth_table``, which
tabulates each cell kind's function on levels, the statement of the gate
semantics, and are composed only by lookups into each other; these lookups
are the package's one gate evaluator.  ``truth_table`` lives in
:mod:`.netlist.cells`, which works on levels only.  The memristor divider
gates' tables come from the paper's FPGA model, the integer two-state
memristance divider (500 forward / 1500 reverse) of
``cells.divider_emulation``, so a digital verify runs that model.
``eval_levels`` answers in levels per port, as ``engine.steady_output`` does
on the analog side; ``eval_circuit`` and ``run_trace`` in two-bit codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import (BIT_CODES, LEVELS, BitPair, InvalidEncoding, TernaryLevel,
                   check_ports, decode_2bit, levels_of)
from .netlist.cells import GateNetwork


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
    ValueError as ``check_ports`` for an unknown or missing port, else
    InvalidEncoding naming the first port whose value is code 11 or no
    BitPair."""
    try:
        levels = [decode_2bit(inputs[name]) for name in network.inputs]
    except (KeyError, InvalidEncoding):  # port faults first
        check_ports(inputs, network.inputs, network.name)
        for port in network.inputs:
            try:
                decode_2bit(inputs[port])
            except InvalidEncoding as exc:
                raise InvalidEncoding(f"input port {port!r} of "
                                      f"{network.name!r}: {exc}") from None
    if len(levels) != len(inputs):  # an unknown port: check_ports names it
        check_ports(inputs, network.inputs, network.name)
    out = _eval_levels(network, levels)
    return {port: BIT_CODES[lv] for (port, _), lv in zip(network.outputs, out)}


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
                try:  # inline: a decode_2bit call per output slows a trace
                    if not (b.hi and b.lo):
                        continue
                except AttributeError:
                    pass
                try:
                    decode_2bit(b)
                except InvalidEncoding as exc:
                    raise InvalidEncoding(f"output {port!r}: {exc}") from None


def run_trace(network: GateNetwork, vectors: Iterable) -> EncodedTrace:
    """Evaluate the network over a sequence of encoded input vectors."""
    ins, outs = [], []
    for vec in vectors:
        ins.append(dict(vec))
        outs.append(eval_circuit(network, vec))
    return EncodedTrace(inputs=tuple(ins), outputs=tuple(outs))
