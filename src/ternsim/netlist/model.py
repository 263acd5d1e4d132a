"""Circuit data model: nodes, device instances and named ports.

Circuits are flat (no hierarchy); builders in :mod:`ternsim.netlist.cells`
expand gate-level networks into these device lists.  Node ``"0"`` is ground.
Circuits are immutable, and checked when built.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

from ..devices import MemristorParams, MosfetParams

GND = "0"


class NetlistError(ValueError):
    """Base class for netlist syntax and consistency errors."""

    def __init__(self, line: Optional[int], reason: str):
        self.line = line
        self.reason = reason
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{reason}")


class NetlistSyntaxError(NetlistError):
    pass


class UnknownDeviceError(NetlistError):
    pass


class DuplicateNameError(NetlistError):
    pass


class UnboundNodeError(NetlistError):
    pass


@dataclass(frozen=True)
class Memristor:
    name: str
    anode: str
    cathode: str
    params: MemristorParams

    @property
    def nodes(self):
        return (self.anode, self.cathode)


@dataclass(frozen=True)
class Mosfet:
    name: str
    drain: str
    gate: str
    source: str
    params: MosfetParams

    @property
    def nodes(self):
        return (self.drain, self.gate, self.source)


@dataclass(frozen=True)
class Resistor:
    name: str
    n1: str
    n2: str
    ohms: float

    def __post_init__(self):
        # 1e-320 is refused too: its conductance overflows.
        if not (0 < self.ohms < math.inf and math.isfinite(1.0 / self.ohms)):
            raise ValueError(f"resistance must be positive and finite, "
                             f"got ohms={self.ohms}")

    @property
    def nodes(self):
        return (self.n1, self.n2)


@dataclass(frozen=True)
class VSource:
    """Independent voltage source; DC or piecewise-linear in time.

    The negative terminal must be ground: the engine treats source nodes as
    fixed voltages in the nodal equations, which only supports grounded
    sources.  It needs ``dc`` or ``pwl``, finite, PWL times increasing.
    """

    name: str
    pos: str
    neg: str
    dc: Optional[float] = None
    pwl: Optional[tuple] = None  # ((t0, v0), (t1, v1), ...)

    def __post_init__(self):
        if (self.dc is None) == (self.pwl is None) or self.pwl == ():
            raise ValueError(f"source {self.name!r} needs exactly one of a "
                             f"DC value and PWL points")
        points = [(0.0, self.dc)] if self.pwl is None else self.pwl
        if not all(math.isfinite(t) and math.isfinite(v) for t, v in points):
            raise ValueError(f"source {self.name!r} values must be finite")
        if any(t1 <= t0 for (t0, _), (t1, _) in zip(points, points[1:])):
            raise ValueError("PWL times must be strictly increasing")

    @property
    def nodes(self):
        return (self.pos, self.neg)

    def value_at(self, t: float) -> float:
        if self.dc is not None:
            return self.dc
        pts = self.pwl
        if t <= pts[0][0]:
            return pts[0][1]
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            if t <= t1:
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        return pts[-1][1]


Device = Memristor | Mosfet | Resistor | VSource


@dataclass(frozen=True)
class Port:
    name: str
    direction: str  # "in" | "out"
    node: str


@dataclass(frozen=True)
class Circuit:
    """Node/device graph with named input/output ports; immutable and valid.

    ``devices`` and ``ports`` are kept as tuples (any iterable is accepted)
    and ``cells`` as a read-only mapping.  ``cells`` is optional builder
    metadata: a census of gate instances by cell kind, for resource
    reporting.  Parsed circuits have an empty census.  Equality is
    structural: name, devices and ports.  The engine keeps the one solver
    program it compiles for the circuit in ``_programs``.

    Every circuit is checked when it is built (a constructor call, a
    ``dataclasses.replace``, a copy or an unpickle): a broken rule raises a
    NetlistError subclass.  ``lines`` maps device names and ``("port",
    name)`` keys to source line numbers, so that a parsed circuit's errors
    name their line; it is not kept.
    """

    name: str = "circuit"
    devices: tuple = ()
    ports: tuple = ()  # Port, declaration order
    # cell kind name -> count; metadata, not structure
    cells: Mapping = field(default_factory=dict, compare=False)
    _programs: dict = field(default_factory=dict, init=False, compare=False,
                            repr=False)
    lines: InitVar[Optional[Mapping]] = None

    def __post_init__(self, lines):
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "ports", tuple(self.ports))
        object.__setattr__(self, "cells", MappingProxyType(dict(self.cells)))
        self._check(lines or {})

    def __reduce__(self):
        # A copy or a pickle starts with no compiled programs.
        return (type(self), (self.name, self.devices, self.ports,
                             dict(self.cells)))

    @property
    def nodes(self) -> set:
        out = set()
        for dev in self.devices:
            out.update(dev.nodes)
        return out

    def input_ports(self) -> list:
        return [p for p in self.ports if p.direction == "in"]

    def signal_inputs(self) -> list:
        """Input ports a stimulus drives: off ground and the source nodes."""
        driven = {GND, *(s.pos for s in self.sources())}
        return [p for p in self.input_ports() if p.node not in driven]

    def output_ports(self) -> list:
        return [p for p in self.ports if p.direction == "out"]

    def memristors(self) -> list:
        return [d for d in self.devices if isinstance(d, Memristor)]

    def mosfets(self) -> list:
        return [d for d in self.devices if isinstance(d, Mosfet)]

    def sources(self) -> list:
        return [d for d in self.devices if isinstance(d, VSource)]

    def _check(self, lines: Mapping) -> None:
        """Raise a NetlistError subclass, at its line in ``lines`` where
        known, unless every structural rule holds."""
        names = set()
        for dev in self.devices:
            if dev.name in names:
                raise DuplicateNameError(lines.get(dev.name),
                                         f"duplicate device name {dev.name!r}")
            names.add(dev.name)
        nodes = self.nodes
        port_names = set()
        for p in self.ports:
            if p.name in port_names:
                raise DuplicateNameError(lines.get(("port", p.name)),
                                         f"duplicate port name {p.name!r}")
            port_names.add(p.name)
            if p.node not in nodes:
                raise UnboundNodeError(lines.get(("port", p.name)),
                                       f"port {p.name!r} binds unknown node {p.node!r}")
        pinned = {GND: "ground"}
        for src in self.sources():
            if src.neg != GND:
                raise UnboundNodeError(
                    lines.get(src.name),
                    f"source {src.name!r}: negative terminal must be ground")
            if src.pos in pinned:
                raise NetlistError(
                    lines.get(src.name),
                    f"source {src.name!r}: node {src.pos!r} is already "
                    f"pinned to {pinned[src.pos]}")
            pinned[src.pos] = f"source {src.name!r}"
        inputs = {}
        for p in self.input_ports():
            if p.node in pinned and p.name != p.node:
                raise NetlistError(
                    lines.get(("port", p.name)),
                    f"input port {p.name!r} is on node {p.node!r}, which "
                    f"{pinned[p.node]} drives: a supply pin must be named "
                    f"after its node")
            if p.node in inputs:
                raise NetlistError(
                    lines.get(("port", p.name)),
                    f"input port {p.name!r}: node {p.node!r} is already "
                    f"pinned to input port {inputs[p.node]!r}")
            inputs[p.node] = p.name
        # Every non-port node needs at least two device terminals on it.
        port_nodes = {p.node for p in self.ports}
        counts: dict = {}
        owner: dict = {}
        for dev in self.devices:
            for n in dev.nodes:
                counts[n] = counts.get(n, 0) + 1
                owner.setdefault(n, dev.name)
        for node, cnt in counts.items():
            if cnt < 2 and node not in port_nodes and node != GND:
                raise UnboundNodeError(
                    lines.get(owner[node]),
                    f"node {node!r} is dangling (single terminal, not a port)")
