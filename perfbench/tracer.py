"""Layer tracing from outside the package.

The tracer swaps module attributes of ``ternsim`` for timing wrappers and
puts the originals back on exit; nothing under ``src/`` changes.  Calls into
the coarse layer boundaries (``steady_output``, ``verify``, ``to_csv`` ...)
become spans with a name, start, end, parent span and the benchmark item
they served.  The hot leaf calls (device models, band quantization, single
gates, the dense solve) run hundreds of thousands of times per round, so
they are kept as counts and busy time only; their time is still charged to
the enclosing span, which is what makes a span's self time exact.

``numpy.linalg.solve`` is wrapped on numpy itself: in the benchmark process
only the engine calls it, so its count is the engine's linear solves.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

import numpy

from ternsim import analysis, core, devices, digital, engine
from ternsim.netlist import cells, parser

# (owner, attribute, metric name); a boundary the package no longer has is
# skipped, and its metrics read zero.
SPANS = (
    (cells, "elaborate", "netlist.elaborate"),
    (parser, "parse", "netlist.parse"),
    (engine, "steady_output", "engine.steady_output"),
    (engine, "relax_states", "engine.relax_states"),
    (engine, "solve_dc", "engine.solve_dc"),
    (engine, "run_transient", "engine.run_transient"),
    (engine.Waveform, "to_csv", "engine.waveform.to_csv"),
    (engine.Waveform, "to_vcd", "engine.waveform.to_vcd"),
    (digital, "eval_circuit", "digital.eval_circuit"),
    (digital, "run_trace", "digital.run_trace"),
    (analysis, "verify", "analysis.verify"),
    (analysis, "detect_glitches", "analysis.detect_glitches"),
    (analysis, "measure_settling", "analysis.measure_settling"),
)
LEAVES = (
    (devices, "mosfet_small_signal", "devices.mosfet_small_signal"),
    (core.VoltageBands, "region", "core.region"),
    (digital, "eval_gate", "digital.eval_gate"),
    (numpy.linalg, "solve", "engine.linsolve"),
)
UPDATE_STATE = (devices, "update_state", "devices.update_state")


class Tracer:
    """Spans, per-name counts and times, installed with ``with tracer:``."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index, item)
        self.item = None
        self._open = []      # [span index, child seconds] of open spans
        self._undo = []
        self.reset()

    def reset(self) -> None:
        """Zero the counters; recorded spans are kept."""
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.changed_states = 0

    def _close(self, name: str, t0: float) -> float:
        d = time.perf_counter() - t0
        self.calls[name] += 1
        self.seconds[name] += d
        if self._open:
            self._open[-1][1] += d
        return d

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1][0] if self._open else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            self._open.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                d = self._close(name, t0)
                self.self_seconds[name] += d - frame[1]
                self.spans[index] = (name, t0, t0 + d, parent, self.item)
        return wrapper

    def _leaf(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, t0)
        return wrapper

    def _update_state(self, name, fn):
        @functools.wraps(fn)
        def wrapper(state, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                new = fn(state, *args, **kwargs)
            finally:
                self._close(name, t0)
            self.changed_states += new.x != state.x
            return new
        return wrapper

    def _install(self, owner, attr, wrapped_by, name) -> None:
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        wrapped = wrapped_by(name, orig)
        targets = [owner]
        if isinstance(owner, types.ModuleType) and owner.__name__.startswith("ternsim"):
            # Rebind every ternsim module that imported the name directly.
            targets = [m for n, m in list(sys.modules.items())
                       if n.split(".")[0] == "ternsim"
                       and getattr(m, attr, None) is orig]
        for target in targets:
            setattr(target, attr, wrapped)
            self._undo.append((target, attr, orig))

    def __enter__(self):
        for owner, attr, name in SPANS:
            self._install(owner, attr, self._span, name)
        for owner, attr, name in LEAVES:
            self._install(owner, attr, self._leaf, name)
        self._install(*UPDATE_STATE[:2], self._update_state, UPDATE_STATE[2])
        return self

    def __exit__(self, *exc):
        while self._undo:
            target, attr, orig = self._undo.pop()
            setattr(target, attr, orig)

    def write_spans(self, path) -> None:
        """One JSON object per span: name, start, end, parent, item."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "item": item}) + "\n")


def round_metrics(t: Tracer, steps: int) -> dict:
    """Per-layer figures for one traced round (counters since ``reset``)."""
    def ms(name):
        return t.seconds[name] * 1e3

    def per_call_us(name):
        return t.seconds[name] / t.calls[name] * 1e6 if t.calls[name] else 0.0

    solves = t.calls["engine.linsolve"]
    updates = t.calls["devices.update_state"]
    engine_self = sum(s for n, s in t.self_seconds.items()
                      if n.startswith("engine.")
                      and not n.startswith("engine.waveform."))
    return {
        "engine.steady_output.ms": ms("engine.steady_output"),
        "engine.relax_states.ms": ms("engine.relax_states"),
        "engine.solve_dc.calls": t.calls["engine.solve_dc"],
        "engine.run_transient.ms": ms("engine.run_transient"),
        "engine.linsolve.calls": solves,
        "engine.linsolve.ms": ms("engine.linsolve"),
        "engine.linsolve.us_per_call": per_call_us("engine.linsolve"),
        "engine.newton_iters_per_step": solves / steps if steps else 0.0,
        "engine.self_ms": engine_self * 1e3,
        "engine.waveform.to_csv.ms": ms("engine.waveform.to_csv"),
        "engine.waveform.to_vcd.ms": ms("engine.waveform.to_vcd"),
        "devices.mosfet_small_signal.calls": t.calls["devices.mosfet_small_signal"],
        "devices.mosfet_small_signal.ms": ms("devices.mosfet_small_signal"),
        "devices.update_state.calls": updates,
        "devices.update_state.ms": ms("devices.update_state"),
        "devices.update_state.changed_ratio":
            t.changed_states / updates if updates else 0.0,
        "core.region.calls": t.calls["core.region"],
        "core.region.ms": ms("core.region"),
        "digital.eval_gate.calls": t.calls["digital.eval_gate"],
        "digital.eval_gate.ms": ms("digital.eval_gate"),
        "digital.eval_circuit.us_per_call": per_call_us("digital.eval_circuit"),
        "analysis.verify.ms": ms("analysis.verify"),
    }


def setup_metrics(t: Tracer) -> dict:
    return {"netlist.elaborate.ms": t.seconds["netlist.elaborate"] * 1e3,
            "netlist.parse.ms": t.seconds["netlist.parse"] * 1e3}
