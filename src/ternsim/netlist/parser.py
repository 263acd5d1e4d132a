"""Line-oriented netlist text format.

One device per line, ``*`` comments, case-insensitive keywords, SI value
suffixes k/m/u/n/p.  Node ``0`` is ground.

    V<name> <n+> <n-> DC <volts>
    V<name> <n+> <n-> PWL(t1 v1 t2 v2 ...)
    M<name> <anode> <cathode> RON= ROFF= VON= VOFF= TAU= X0=
    T<name> <drain> <gate> <source> <NMOS|PMOS> VTH= K= [LAMBDA=]
    R<name> <n1> <n2> <ohms>
    .port <in|out> <name> <node>
    .end

Not SPICE-compatible; the format covers exactly the five device kinds the
cell library needs.
"""

from __future__ import annotations

import math
import re

from ..devices import MemristorParams, MosfetParams
from .model import (Circuit, Memristor, Mosfet, NetlistError,
                    NetlistSyntaxError, Port, Resistor, UnknownDeviceError,
                    VSource)

_SUFFIXES = {"k": 1e3, "m": 1e-3, "u": 1e-6, "n": 1e-9, "p": 1e-12}
_VALUE_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)([kmunp]?)$")

_MEM_KEYS = {"RON": "r_on", "ROFF": "r_off", "VON": "v_on", "VOFF": "v_off",
             "TAU": "tau", "X0": "x0"}
_FET_KEYS = {"VTH": "vth", "K": "k", "LAMBDA": "channel_mod"}


def parse_value(text: str, line: int) -> float:
    """Parse a finite number with an optional SI suffix (case-insensitive)."""
    m = _VALUE_RE.match(text.strip().lower())
    if m is None:
        raise NetlistSyntaxError(line, f"bad numeric value {text!r}")
    value = float(m.group(1)) * _SUFFIXES.get(m.group(2), 1.0)
    if not math.isfinite(value):  # 1e400 overflows to inf
        raise NetlistSyntaxError(line, f"numeric value {text!r} is not finite")
    return value


def _split_kv(tokens, keymap, line, what):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise NetlistSyntaxError(line, f"{what}: expected KEY=value, got {tok!r}")
        key, _, val = tok.partition("=")
        field = keymap.get(key.upper())
        if field is None:
            raise NetlistSyntaxError(line, f"{what}: unknown parameter {key!r}")
        if not val:
            raise NetlistSyntaxError(line, f"{what}: missing value for {key!r}")
        if field in out:
            raise NetlistSyntaxError(line, f"{what}: parameter {key!r} is "
                                           f"given twice")
        out[field] = parse_value(val, line)
    return out


def _parse_memristor(name, args, line):
    if len(args) < 2:
        raise NetlistSyntaxError(line, "memristor requires 2 nodes")
    kv = _split_kv(args[2:], _MEM_KEYS, line, "memristor")
    return Memristor(name, args[0], args[1], MemristorParams(**kv))


def _parse_mosfet(name, args, line):
    if len(args) < 4:
        raise NetlistSyntaxError(line, "mosfet requires 3 nodes and a polarity")
    polarity = args[3].upper()
    if polarity not in ("NMOS", "PMOS"):
        raise NetlistSyntaxError(line, f"mosfet polarity must be NMOS or PMOS, got {args[3]!r}")
    kv = _split_kv(args[4:], _FET_KEYS, line, "mosfet")
    if "vth" not in kv:
        raise NetlistSyntaxError(line, "mosfet requires VTH=")
    return Mosfet(name, args[0], args[1], args[2],
                  MosfetParams(polarity, **kv))


def _parse_resistor(name, args, line):
    if len(args) != 3:
        raise NetlistSyntaxError(line, "resistor requires 2 nodes and a value")
    return Resistor(name, args[0], args[1], parse_value(args[2], line))


def _parse_source(name, args, line):
    if len(args) < 3:
        raise NetlistSyntaxError(line, "source requires 2 nodes and a waveform")
    pos, neg = args[0], args[1]
    kind = args[2].upper()
    if kind == "DC":
        if len(args) != 4:
            raise NetlistSyntaxError(line, "DC source requires exactly one value")
        return VSource(name, pos, neg, dc=parse_value(args[3], line))
    if kind.startswith("PWL"):
        blob = " ".join(args[2:])
        m = re.match(r"(?i)^PWL\s*\(([^)]*)\)$", blob)
        if m is None:
            raise NetlistSyntaxError(line, "malformed PWL(...) waveform")
        vals = [parse_value(tok, line) for tok in m.group(1).split()]
        if len(vals) < 2 or len(vals) % 2 != 0:
            raise NetlistSyntaxError(line, "PWL needs an even number of t/v values")
        return VSource(name, pos, neg, pwl=tuple(zip(vals[0::2], vals[1::2])))
    raise NetlistSyntaxError(line, f"source waveform must be DC or PWL, got {args[2]!r}")


_DEVICE_PARSERS = {"M": _parse_memristor, "T": _parse_mosfet,
                   "R": _parse_resistor, "V": _parse_source}


def _parse_port(args, line):
    if len(args) != 3:
        raise NetlistSyntaxError(line, ".port requires: <in|out> <name> <node>")
    direction = args[0].lower()
    if direction not in ("in", "out"):
        raise NetlistSyntaxError(line, f".port direction must be in or out, got {args[0]!r}")
    return Port(name=args[1], direction=direction, node=args[2])


def parse(text: str) -> Circuit:
    """Parse netlist text into a Circuit; its errors name their line."""
    name, devices, ports = "netlist", [], []
    lines_of: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("*"):
            m = re.match(r"\*\s*circuit:\s*(\S+)", line)
            if m:
                name = m.group(1)
            continue
        tokens = line.split()
        head = tokens[0]
        if head.lower() == ".end":
            break
        if head.lower() == ".port":
            port = _parse_port(tokens[1:], lineno)
            ports.append(port)
            lines_of[("port", port.name)] = lineno
            continue
        if head.startswith("."):
            raise NetlistSyntaxError(lineno, f"unknown directive {head!r}")
        if len(head) < 2:
            raise NetlistSyntaxError(lineno, f"device name {head!r} too short")
        build = _DEVICE_PARSERS.get(head[0].upper())
        if build is None:
            raise UnknownDeviceError(lineno, f"unknown device type {head[0]!r} in {head!r}")
        try:
            dev = build(head, tokens[1:], lineno)
        except NetlistError:
            raise
        except ValueError as exc:  # the device refused a value
            raise NetlistSyntaxError(lineno, str(exc)) from exc
        devices.append(dev)
        lines_of[dev.name] = lineno
    return Circuit(name, devices, ports, lines=lines_of)


def _fmt(v: float) -> str:
    return repr(float(v))


def serialize(circuit: Circuit) -> str:
    """Render a circuit back to netlist text; inverse of parse up to whitespace."""
    out = [f"* circuit: {circuit.name}"]
    for dev in circuit.devices:
        if isinstance(dev, Memristor):
            p = dev.params
            out.append(
                f"{dev.name} {dev.anode} {dev.cathode} "
                f"RON={_fmt(p.r_on)} ROFF={_fmt(p.r_off)} VON={_fmt(p.v_on)} "
                f"VOFF={_fmt(p.v_off)} TAU={_fmt(p.tau)} X0={_fmt(p.x0)}")
        elif isinstance(dev, Mosfet):
            p = dev.params
            lam = f" LAMBDA={_fmt(p.channel_mod)}" if p.channel_mod else ""
            out.append(f"{dev.name} {dev.drain} {dev.gate} {dev.source} "
                       f"{p.polarity} VTH={_fmt(p.vth)} K={_fmt(p.k)}{lam}")
        elif isinstance(dev, Resistor):
            out.append(f"{dev.name} {dev.n1} {dev.n2} {_fmt(dev.ohms)}")
        elif isinstance(dev, VSource):
            if dev.dc is not None:
                out.append(f"{dev.name} {dev.pos} {dev.neg} DC {_fmt(dev.dc)}")
            else:
                pts = " ".join(f"{_fmt(t)} {_fmt(v)}" for t, v in dev.pwl)
                out.append(f"{dev.name} {dev.pos} {dev.neg} PWL({pts})")
        else:  # pragma: no cover - exhaustive over device kinds
            raise TypeError(f"cannot serialize {dev!r}")
    for port in circuit.ports:
        out.append(f".port {port.direction} {port.name} {port.node}")
    out.append(".end")
    return "\n".join(out) + "\n"
