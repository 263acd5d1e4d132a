"""Circuit model, SPICE-like text format, and the decoder cell library."""

from .model import (GND, Circuit, Device, DuplicateNameError, Memristor,
                    Mosfet, NetlistError, NetlistSyntaxError, Port, Resistor,
                    UnboundNodeError, UnknownDeviceError, VSource)
from .parser import parse, serialize
from .cells import (BUILTIN_NETWORKS, CellKind, GateNetwork, GateSpec,
                    InvalidArity, SEGMENT_TERMS, build_cell, builtin_network,
                    decoder_1_3_network, decoder_2_9_network,
                    decoder_display_network, elaborate, mutate_network)

__all__ = [
    "GND", "Circuit", "Device", "Port", "Memristor", "Mosfet", "Resistor",
    "VSource", "NetlistError", "NetlistSyntaxError", "UnknownDeviceError",
    "DuplicateNameError", "UnboundNodeError", "parse", "serialize",
    "CellKind", "GateSpec", "GateNetwork", "InvalidArity", "SEGMENT_TERMS",
    "build_cell", "elaborate", "builtin_network", "mutate_network",
    "BUILTIN_NETWORKS", "decoder_1_3_network", "decoder_2_9_network",
    "decoder_display_network",
]
