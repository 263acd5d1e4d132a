"""Verification and reporting: truth tables, settling/glitch metrics,
seven-segment rendering, and the resource/power comparison report.

Expected decoder outputs follow the product equations (the 2-9 table has
Yk = Ai AND Bj with k = 3i + j; the published tabulation of that decoder
carries transcription errata and is not reproduced), and the display's
follow the glyph of digit k.  Power and FPGA utilization figures for the
comparison report are carried as constants quoted from the reference
implementation report, never recomputed.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import asdict, dataclass, field
from typing import Mapping, Optional

import numpy as np

from .core import (INDETERMINATE, L0, L1, L2, LEVELS, REGIONS,
                   TernaryLevel, VoltageBands, encode_2bit, levels_of)
from .digital import eval_levels, or_reduce_segment
from .engine import SolverError, Stimulus, Waveform, steady_output
from .netlist.cells import GateNetwork, builtin_network, elaborate
from .netlist.model import Circuit, Resistor

DECODERS = ("d13", "d29", "display")
BACKENDS = ("analog", "digital")

SEGMENTS = "abcdefg"

# Lit-segment encodings (active segments) for the digits the display
# decoder can produce.
DIGIT_SEGMENTS = {
    0: "abcdef",
    1: "bc",
    2: "abdeg",
    3: "abcdg",
    4: "bcfg",
    5: "acdfg",
    6: "acdefg",
    7: "abc",
    8: "abcdefg",
}
_DIGIT_OF = {segs: digit for digit, segs in DIGIT_SEGMENTS.items()}


def _reference_table(decoder: str) -> tuple:
    """A decoder's input ports, and its reference outputs per input vector.

    The table maps each vector's input levels, in ``input_vectors`` order,
    to its expected output levels, following the product equations: line
    3A+B is high.  Display's segments come from the glyph of digit 3A+B in
    ``DIGIT_SEGMENTS``, not from the cell library's segment wiring.
    """
    if decoder == "d13":
        return ("X",), {(x,): {f"Y{i}": L2 if i == x else L0
                               for i in range(3)}
                        for x in LEVELS}
    table = {}
    for a, b in itertools.product((L2, L1, L0), repeat=2):
        hot = 3 * a + b
        if decoder == "d29":
            table[a, b] = {f"Y{k}": L2 if k == hot else L0 for k in range(9)}
        else:  # active low: a segment is driven high where digit 3A+B is unlit
            table[a, b] = {f"Y{s}": L0 if s in DIGIT_SEGMENTS[hot] else L2
                           for s in SEGMENTS}
    return ("A", "B"), table


# Each decoder's good-machine response, built once: (ports, table).
_REFERENCE = {d: _reference_table(d) for d in DECODERS}


def _reference(decoder: str) -> tuple:
    try:
        return _REFERENCE[decoder]
    except KeyError:
        raise KeyError(f"unknown decoder {decoder!r}") from None


def input_vectors(decoder: str) -> list:
    """All input vectors for a decoder, as new dicts: X = 0, 1, 2 on d13,
    (A, B) from (2, 2) down to (0, 0) on d29 and display."""
    ports, table = _reference(decoder)
    return [dict(zip(ports, key)) for key in table]


def expected_outputs(decoder: str, inputs: Mapping) -> dict:
    """Reference output levels for one input vector, as a new dict.  Raises
    KeyError for an unknown decoder, and ValueError as ``levels_of`` does."""
    ports, table = _reference(decoder)
    try:
        if len(inputs) == len(ports):
            return dict(table[tuple([inputs[p] for p in ports])])
    except (KeyError, TypeError):  # TypeError: an unhashable value
        pass
    return dict(table[tuple(levels_of(inputs, ports, decoder))])


@dataclass
class VectorResult:
    inputs: dict
    expected: dict
    observed: dict
    error: Optional[str] = None  # why the backend gave no answer

    @property
    def ok(self) -> bool:
        return self.error is None and self.observed == self.expected


@dataclass
class TruthTableReport:
    decoder: str
    backend: str
    vectors: list
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return all(v.ok for v in self.vectors)

    def summary(self) -> str:
        n_ok = sum(v.ok for v in self.vectors)
        return (f"{self.decoder}/{self.backend}: {n_ok}/{len(self.vectors)} "
                f"vectors {'PASS' if self.passed else 'FAIL'}")

    def to_text(self) -> str:
        lines = [self.summary()]
        for v in self.vectors:
            ins = " ".join(f"{k}={int(lv)}" for k, lv in v.inputs.items())
            obs = " ".join(f"{k}={_fmt_level(lv)}" for k, lv in v.observed.items())
            mark = "ok" if v.ok else "MISMATCH"
            error = f" error: {v.error}" if v.error else ""
            lines.append(f"  [{mark}] {ins} -> {obs}{error}")
        lines += [f"  note: {n}" for n in self.notes]
        return "\n".join(lines)

    def to_json(self) -> str:
        doc = {
            "decoder": self.decoder,
            "backend": self.backend,
            "passed": self.passed,
            "notes": list(self.notes),
            "vectors": [{
                "inputs": {k: int(lv) for k, lv in v.inputs.items()},
                "expected": {k: _fmt_level(lv) for k, lv in v.expected.items()},
                "observed": {k: _fmt_level(lv) for k, lv in v.observed.items()},
                "error": v.error,
                "ok": v.ok,
            } for v in self.vectors],
        }
        return json.dumps(doc, indent=2)


def _fmt_level(lv) -> str:
    return str(int(lv)) if isinstance(lv, TernaryLevel) else "X"


_D29_ERRATUM = ("2-9 expected values follow the product equations "
                "(output 3A+B high); the published tabulation of this "
                "decoder contains transcription errata and is not used.")


def verify(backend: str, decoder: str, *,
           network: Optional[GateNetwork] = None) -> TruthTableReport:
    """Exhaustive truth-table check of one decoder on one backend.

    ``network`` overrides the builtin topology (used for fault injection).
    Both backends map each vector's input levels to output levels by port; a
    solver failure reads INDETERMINATE on every output, with its ``error``.
    """
    if backend not in BACKENDS:
        raise KeyError(f"unknown backend {backend!r}")
    net = network if network is not None else builtin_network(decoder)
    observe = (functools.partial(eval_levels, net) if backend == "digital"
               else functools.partial(steady_output, elaborate(net)))
    ports, table = _reference(decoder)
    results = []
    for key, expected in table.items():
        vec = dict(zip(ports, key))
        try:
            result = VectorResult(vec, dict(expected), observe(vec))
        except SolverError as exc:
            result = VectorResult(vec, dict(expected),
                                  dict.fromkeys(expected, INDETERMINATE),
                                  f"{type(exc).__name__}: {exc}")
        results.append(result)
    notes = (_D29_ERRATUM,) if decoder in ("d29", "display") else ()
    return TruthTableReport(decoder, backend, results, notes)


@dataclass(frozen=True)
class GlitchEvent:
    """Transient excursion out of a node's final band between stimulus events."""

    node: str
    t_start: float
    t_end: float
    excursion_band: str

    def __post_init__(self):
        if self.t_end <= self.t_start:
            raise ValueError("glitch must have t_end > t_start")


def _events(w: Waveform, stim: Optional[Stimulus]) -> list:
    """The stimulus events a run reached: 0, then each in (0, end of run]."""
    times = stim.event_times() if stim is not None else ()
    return [0.0, *(t for t in times if 0.0 < t <= w.times[-1])]


def detect_glitches(w: Waveform, stim: Stimulus, bands: VoltageBands) -> list:
    """Find band excursions that leave and re-enter a port node's settled band.

    Windows run from 0, and from each stimulus event inside the run, to the
    next; within a window a node must first reach its final band, and any
    later run of at least two samples outside that band that returns to it
    is reported.  The minimum width suppresses single-sample solver jitter.
    """
    if not len(w.times):  # a transient that failed before its first sample
        return []
    events = _events(w, stim)
    bounds = []
    for i, t in enumerate(events):
        t_next = events[i + 1] if i + 1 < len(events) else w.times[-1] + w.dt
        i0 = int(round(t / w.dt))
        i1 = min(int(round(t_next / w.dt)), len(w.times))
        if i1 - i0 >= 2:
            bounds.append((i0, i1))
    glitches = []
    for node in dict.fromkeys(w.port_nodes.values()):
        codes = bands.codes(w.probes[node])
        for i0, i1 in bounds:
            # Runs of samples off the final band, as [start, end) pairs
            # relative to i0; the window's last sample is never off.
            off = np.concatenate(([False], codes[i0:i1] != codes[i1 - 1]))
            runs = np.flatnonzero(np.diff(off)).reshape(-1, 2).tolist()
            for start, end in runs:
                # A run from the window's start is the approach, not a glitch.
                if start > 0 and end - start >= 2:
                    glitches.append(GlitchEvent(
                        node=node,
                        t_start=float(w.times[i0 + start]),
                        t_end=float(w.times[i0 + end]),
                        excursion_band=REGIONS[codes[i0 + start]]))
    return glitches


def measure_settling(w: Waveform, node: str, bands: VoltageBands,
                     stim: Optional[Stimulus] = None,
                     min_hold: Optional[float] = None) -> Optional[float]:
    """Seconds from the last stimulus event inside the run, or from 0, to the
    final entry into the settled band.  None when the node did not settle:
    no samples, or a trailing stable run shorter than ``min_hold``, by
    default the lesser of 10 ns and half the run, but at least one step."""
    if node in w.port_nodes:
        node = w.port_nodes[node]
    codes = bands.codes(w.probes[node])
    if not codes.size:  # a transient that failed before its first sample
        return None
    unsettled = np.flatnonzero(codes != codes[-1])
    entry = int(unsettled[-1]) + 1 if unsettled.size else 0
    hold = float(w.times[-1] - w.times[entry])
    if min_hold is None:
        min_hold = max(w.dt, min(10e-9, 0.5 * float(w.times[-1])))
    if hold < min_hold:
        return None
    return max(0.0, float(w.times[entry]) - _events(w, stim)[-1])


@dataclass(frozen=True)
class ReferenceConstant:
    """A figure quoted from the reference FPGA implementation report."""

    key: str
    value: object
    unit: str
    source: str


# Figures reported for the reference FPGA realization (Cyclone IV EP4CE6E22)
# of the ternary display decoder and its binary BCD-to-seven-segment
# baseline.  Quoted, never recomputed; the power model behind them is the
# vendor's estimator.
REFERENCE_CONSTANTS = (
    ReferenceConstant("ternary_io_power_mw", 2.0, "mW",
                      "Table V, thermal power: I/O"),
    ReferenceConstant("ternary_static_power_mw", 60.0, "mW",
                      "Table V, thermal power: static"),
    ReferenceConstant("ternary_total_power_mw", 62.0, "mW",
                      "Table V, thermal power: total FPGA"),
    ReferenceConstant("baseline_io_power_mw", 14.0, "mW",
                      "Sec. VI-C, baseline I/O power"),
    ReferenceConstant("baseline_static_power_mw", 60.0, "mW",
                      "Sec. VI-C, equivalent static power"),
    ReferenceConstant("ternary_luts", 154, "LUTs",
                      "Sec. VI-C, device utilization"),
    ReferenceConstant("ternary_ffs", 154, "FFs",
                      "Sec. VI-C, device utilization"),
    ReferenceConstant("ternary_registers", 11, "registers",
                      "Sec. VI-C, device utilization"),
    ReferenceConstant("ternary_pins", 13, "pins",
                      "Sec. VI-C, device utilization"),
    ReferenceConstant("baseline_luts", 26, "LUTs",
                      "Sec. VI-C, device utilization"),
    ReferenceConstant("baseline_ffs", 26, "FFs",
                      "Sec. VI-C, device utilization"),
    ReferenceConstant("baseline_registers", 12, "registers",
                      "Sec. VI-C, device utilization"),
    ReferenceConstant("baseline_pins", 17, "pins",
                      "Sec. VI-C, device utilization"),
    ReferenceConstant("ternary_fmax_mhz", 293.8, "MHz",
                      "Sec. VI-C, timing report"),
    ReferenceConstant("baseline_fmax_mhz", 577.7, "MHz",
                      "Sec. VI-C, timing report"),
    ReferenceConstant("io_power_ratio_reported", "approximately 6 times", "",
                      "Sec. VI-C, I/O power reduction"),
    ReferenceConstant("total_power_reduction_pct", 18.75, "%",
                      "Sec. VI-C, total power reduction"),
    ReferenceConstant("speed_ratio", 1.98, "x",
                      "Sec. VI-C, baseline/ternary fmax ratio"),
    ReferenceConstant("estimator", "PowerPlay Early Power Estimator", "",
                      "Table V footnote"),
)

_FMAX_NOTE = ("the reference report's timing discussion is garbled; "
              "293.8 MHz is read as the ternary design and 577.7 MHz as the "
              "binary baseline, consistent with the stated 1.98x ratio")


@dataclass
class ResourceReport:
    """Counts measured from a circuit alongside the quoted reference
    figures (``REFERENCE_CONSTANTS``) and the note on reading them."""

    measured: dict
    derived: dict = field(default_factory=dict)

    def constant(self, key: str) -> ReferenceConstant:
        for c in REFERENCE_CONSTANTS:
            if c.key == key:
                return c
        raise KeyError(key)

    def to_text(self) -> str:
        lines = ["Resource / power comparison", "",
                 "Measured from netlist:"]
        for k, v in self.measured.items():
            lines.append(f"  {k:<24} {v}")
        lines.append("")
        lines.append("Reported for the reference FPGA implementation:")
        for c in REFERENCE_CONSTANTS:
            val = f"{c.value} {c.unit}".strip()
            lines.append(f"  {c.key:<28} {val:<32} [{c.source}]")
        lines.append("")
        lines.append("Derived ratios:")
        for k, v in self.derived.items():
            lines.append(f"  {k:<28} {v}")
        lines += ["", "Notes:", f"  - {_FMAX_NOTE}"]
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "measured": self.measured,
            "reference": [asdict(c) for c in REFERENCE_CONSTANTS],
            "derived": self.derived,
            "notes": [_FMAX_NOTE],
        }, indent=2)


def resource_report(ternary: Circuit) -> ResourceReport:
    """Compare measured circuit resources against the quoted baseline figures.

    The baseline is the conventional binary BCD-to-seven-segment decoder;
    it exists in this report only through its published figures.
    """
    pins_in = len(ternary.signal_inputs())  # supply pins are not signals
    pins_out = len(ternary.output_ports())
    measured = {
        "pins_in_ternary": pins_in,
        "pins_in_encoded_lines": 2 * pins_in,
        "pins_out": pins_out,
        "memristor_count": len(ternary.memristors()),
        "mosfet_count": len(ternary.mosfets()),
        "resistor_count": sum(isinstance(d, Resistor) for d in ternary.devices),
        "gate_count": sum(ternary.cells.values()),
        "cells": dict(sorted(ternary.cells.items())),
    }
    quoted = {c.key: c.value for c in REFERENCE_CONSTANTS}
    io_ratio = quoted["baseline_io_power_mw"] / quoted["ternary_io_power_mw"]
    derived = {
        "io_power_ratio_measured": io_ratio,
        "io_power_ratio_note": ("x7 measured I/O-pin-power model vs the "
                                "reported 'approximately 6 times'"),
    }
    return ResourceReport(measured=measured, derived=derived)


def seven_segment_render(segments: Mapping):
    """Render segment drive bits as a 3x5 ASCII glyph.

    ``segments`` maps 'a'..'g' to the driven bit.  The display is common
    anode, so active low: a 0 drive lights the segment.  Returns (text,
    digit) where digit is the decoded numeral 0-8 or None when the pattern
    matches none.
    """
    lit = {s: segments[s] == 0 for s in SEGMENTS}
    bar, pipe = "_", "|"
    rows = [
        " {} ".format(bar if lit["a"] else " "),
        "{} {}".format(pipe if lit["f"] else " ", pipe if lit["b"] else " "),
        " {} ".format(bar if lit["g"] else " "),
        "{} {}".format(pipe if lit["e"] else " ", pipe if lit["c"] else " "),
        " {} ".format(bar if lit["d"] else " "),
    ]
    text = "\n".join(rows)
    return text, _DIGIT_OF.get("".join(s for s in SEGMENTS if lit[s]))


def segments_from_levels(levels: Mapping) -> dict:
    """OR-reduce two-bit display outputs down to one drive bit per segment."""
    return {s: or_reduce_segment(encode_2bit(levels[f"Y{s}"]))
            for s in SEGMENTS}
