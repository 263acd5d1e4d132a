"""Variable-arity gate pass: the oracle of ``ternsim.digital._eval_levels``.

The digital backend compiles each ``GateNetwork`` into two-input lookups,
packing the inputs of a wide TORN in extra steps.  This module keeps the
plainer pass those replaced: one lookup per gate, indexed by all of the gate's
inputs at once, ``sum(level_i * 3 ** (n - 1 - i))``.  It reads only a
network's public fields and ``truth_table``, so it shares no compiled state
with the pass it checks.  ``eval_circuit`` wraps it in the two-bit encoding,
with the errors the backend documents.
"""

from __future__ import annotations

from typing import Mapping

from ternsim.core import BIT_CODES, decode_2bit
from ternsim.netlist.cells import GateNetwork, truth_table


def eval_levels(network: GateNetwork, levels) -> list:
    """Output levels in ``network.outputs`` order, for input levels given in
    ``network.inputs`` order."""
    vals = dict(zip(network.inputs, levels))
    for gate in network.gates:
        idx = 0
        for net in gate.inputs:
            idx = 3 * idx + vals[net]
        vals[gate.output] = truth_table(gate.kind, len(gate.inputs))[idx]
    return [vals[net] for _, net in network.outputs]


def eval_circuit(network: GateNetwork, inputs: Mapping) -> dict:
    """``eval_levels`` on two-bit codes, port -> BitPair.

    A missing primary input raises ``ValueError`` naming it; the reserved code
    11 raises ``InvalidEncoding``.  Inputs are read in ``network.inputs``
    order, so the first bad one decides the error.
    """
    levels = []
    for name in network.inputs:
        try:
            code = inputs[name]
        except KeyError:
            raise ValueError(f"missing input port {name!r} of "
                             f"{network.name!r}") from None
        levels.append(decode_2bit(code))
    out = eval_levels(network, levels)
    return {port: BIT_CODES[lv] for (port, _), lv in zip(network.outputs, out)}
