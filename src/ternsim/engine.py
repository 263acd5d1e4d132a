"""Analog backend: nonlinear nodal analysis with damped Newton iteration.

The solver treats ground, source nodes and stimulated input ports as fixed
voltages and solves Kirchhoff's current law at every remaining node.
Memristors and resistors stamp as conductances (memristor states are frozen
within a timestep), MOSFETs are linearized each Newton iteration via their
small-signal companion.  Transient analysis is a semi-implicit split step:
solve the DC network with frozen states, then integrate each memristor state
from its branch voltage.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .core import (INDETERMINATE, VoltageBands, level_to_voltage,
                   voltage_to_level)
from .devices import (MemristorState, memristance, mosfet_small_signal,
                      update_state)
from .netlist.model import GND, Circuit, Memristor, Mosfet, Resistor


class NonConvergence(RuntimeError):
    """Newton iteration failed to reach tolerance."""

    def __init__(self, iterations: int, worst_node: str):
        self.iterations = iterations
        self.worst_node = worst_node
        super().__init__(f"no convergence after {iterations} iterations "
                         f"(worst node {worst_node!r})")


class SingularSystem(RuntimeError):
    """The conductance matrix is not solvable (typically a floating node)."""

    def __init__(self, node: str):
        self.node = node
        super().__init__(f"singular system: node {node!r} has no DC path")


class NotSettled(RuntimeError):
    """No settle window was found before the simulation deadline."""

    def __init__(self, t_stop: float):
        self.t_stop = t_stop
        super().__init__(f"outputs did not settle within {t_stop:.3e} s")


class TransientError(RuntimeError):
    """Solver failure mid-transient; carries the partial waveform."""

    def __init__(self, cause: Exception, t: float, waveform: "Waveform"):
        self.cause = cause
        self.t = t
        self.waveform = waveform
        super().__init__(f"transient aborted at t={t:.3e} s: {cause}")


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 50e-12
    t_stop: float = 100e-9
    newton_tol: float = 1e-6
    newton_max_iter: int = 200
    damping: float = 0.7
    gmin: float = 1e-15
    max_step_volts: float = 0.5

    def __post_init__(self):
        if self.dt <= 0 or self.t_stop < 0:
            raise ValueError("dt must be positive and t_stop non-negative")
        if self.newton_tol <= 0 or self.newton_max_iter < 1:
            raise ValueError("newton_tol must be positive, max_iter >= 1")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")


@dataclass(frozen=True)
class Stimulus:
    """Piecewise-constant level schedules per input port with a linear slew.

    ``schedules`` maps port name to a sequence of (time, level) events with
    strictly increasing times.  Transitions ramp linearly over ``slew``
    seconds starting at the event time.
    """

    schedules: Mapping
    slew: float = 0.0
    vdd: float = 1.0

    def __post_init__(self):
        if self.slew < 0:
            raise ValueError("slew must be non-negative")
        for port, events in self.schedules.items():
            times = [t for t, _ in events]
            if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
                raise ValueError(f"stimulus times for {port!r} must be increasing")
            dwells = [t1 - t0 for t0, t1 in zip(times, times[1:])]
            if dwells and self.slew >= min(dwells):
                raise ValueError("slew must be shorter than the minimum dwell")

    @classmethod
    def hold(cls, levels: Mapping, vdd: float = 1.0) -> "Stimulus":
        """Constant levels from t=0 on every port."""
        return cls({p: ((0.0, lv),) for p, lv in levels.items()}, vdd=vdd)

    def ports(self):
        return tuple(self.schedules)

    def event_times(self) -> tuple:
        times = {t for events in self.schedules.values() for t, _ in events}
        return tuple(sorted(times))

    def voltage_at(self, port: str, t: float) -> float:
        events = self.schedules[port]
        prev_v = level_to_voltage(events[0][1], self.vdd)
        for when, level in events:
            v = level_to_voltage(level, self.vdd)
            if t < when:
                break
            if self.slew > 0 and t < when + self.slew:
                return prev_v + (v - prev_v) * (t - when) / self.slew
            prev_v = v
        return prev_v


@dataclass
class Waveform:
    """Time-indexed node voltages and memristor state trajectories."""

    dt: float
    times: np.ndarray
    probes: dict  # node -> np.ndarray of voltages
    states: dict  # memristor name -> np.ndarray of x
    port_nodes: dict = field(default_factory=dict)  # port -> node

    def __post_init__(self):
        n = len(self.times)
        for name, series in self.probes.items():
            if len(series) != n:
                raise ValueError(f"series {name!r} length {len(series)} != {n}")
            if not np.all(np.isfinite(series)):
                raise ValueError(f"probe {name!r} carries non-finite voltages")
        for name, series in self.states.items():
            if len(series) != n:
                raise ValueError(f"series {name!r} length {len(series)} != {n}")
            if n and (series.min() < 0.0 or series.max() > 1.0):
                raise ValueError(f"state series {name!r} leaves [0, 1]")

    def voltage(self, node: str) -> np.ndarray:
        return self.probes[node]

    def port_voltage(self, port: str) -> np.ndarray:
        return self.probes[self.port_nodes[port]]

    def to_csv(self, fh) -> None:
        """Write ``time,<probe>...`` rows; column order is the probe order."""
        writer = csv.writer(fh)
        names = list(self.probes)
        writer.writerow(["time"] + names)
        cols = [self.probes[n] for n in names]
        for i, t in enumerate(self.times):
            writer.writerow([f"{t:.12e}"] + [f"{c[i]:.9f}" for c in cols])

    def to_vcd(self, fh, bands: Optional[VoltageBands] = None) -> None:
        """Write a VCD dump: per node a real voltage and a 2-bit level code."""
        bands = bands or VoltageBands.default()
        step_fs = max(1, round(self.dt / 1e-15))
        fh.write("$timescale 1fs $end\n$scope module ternsim $end\n")
        ids = {}
        for i, node in enumerate(self.probes):
            rid, wid = f"r{i}", f"w{i}"
            ids[node] = (rid, wid)
            fh.write(f"$var real 64 {rid} V({node}) $end\n")
            fh.write(f"$var wire 2 {wid} L({node}) $end\n")
        fh.write("$upscope $end\n$enddefinitions $end\n")
        prev: dict = {}
        for i in range(len(self.times)):
            fh.write(f"#{i * step_fs}\n")
            for node, (rid, wid) in ids.items():
                v = float(self.probes[node][i])
                code = _vcd_level_code(v, bands)
                if prev.get(node) != (v, code):
                    fh.write(f"r{v:.9g} {rid}\n")
                    fh.write(f"b{code} {wid}\n")
                    prev[node] = (v, code)


def _vcd_level_code(v: float, bands: VoltageBands) -> str:
    level = voltage_to_level(v, bands)
    if level is INDETERMINATE:
        return "xx"
    return format(int(level), "02b")


class _System:
    """Indexed view of a circuit for repeated nodal solves."""

    def __init__(self, circuit: Circuit, fixed_nodes):
        self.circuit = circuit
        self.fixed_idx_names = [n for n in dict.fromkeys(fixed_nodes) if n != GND]
        order = [GND] + list(self.fixed_idx_names)
        seen = set(order)
        for dev in circuit.devices:
            for n in dev.nodes:
                if n not in seen:
                    order.append(n)
                    seen.add(n)
        self.nodes = order
        self.index = {n: i for i, n in enumerate(order)}
        self.n = len(order)
        self.fixed_idx = np.array([self.index[n] for n in self.fixed_idx_names],
                                  dtype=int)
        fixed_set = set(self.fixed_idx.tolist()) | {self.index[GND]}
        self.free_idx = np.array([i for i in range(self.n) if i not in fixed_set],
                                 dtype=int)
        self.resistors = [(1.0 / d.ohms, self.index[d.n1], self.index[d.n2])
                          for d in circuit.devices if isinstance(d, Resistor)]
        self.memristors = [(d.name, self.index[d.anode], self.index[d.cathode],
                            d.params)
                           for d in circuit.devices if isinstance(d, Memristor)]
        self.mosfets = [(d.params, self.index[d.drain], self.index[d.gate],
                         self.index[d.source])
                        for d in circuit.devices if isinstance(d, Mosfet)]
        self._check_structure(fixed_set)

    def _check_structure(self, fixed_set):
        conducting = set()
        for _, i, j in self.resistors:
            conducting.update((i, j))
        for _, i, j, _ in self.memristors:
            conducting.update((i, j))
        for _, d, _, s in self.mosfets:
            conducting.update((d, s))
        for i in self.free_idx:
            if i not in conducting:
                raise SingularSystem(self.nodes[i])

    def linear_matrix(self, states: Mapping) -> np.ndarray:
        """Conductance stamps of resistors and (frozen-state) memristors."""
        g_lin = np.zeros((self.n, self.n))
        for g, i, j in self.resistors:
            _stamp(g_lin, g, i, j)
        for name, i, j, params in self.memristors:
            g = 1.0 / memristance(MemristorState(states[name]), params)
            _stamp(g_lin, g, i, j)
        return g_lin

    def newton(self, g_lin: np.ndarray, fixed_vals: np.ndarray,
               v0: np.ndarray, cfg: SolverConfig, damping: float) -> np.ndarray:
        """Damped Newton on the nonlinear KCL system; returns all node voltages."""
        v = v0.copy()
        v[0] = 0.0
        v[self.fixed_idx] = fixed_vals
        free = self.free_idx
        if free.size == 0:
            return v
        worst = free[0]
        for _ in range(cfg.newton_max_iter):
            jac = g_lin.copy()
            rhs = np.zeros(self.n)
            for p, d, g, s in self.mosfets:
                i_d, gg, gd, gs = mosfet_small_signal(p, v[g], v[d], v[s])
                jac[d, g] += gg
                jac[d, d] += gd
                jac[d, s] += gs
                jac[s, g] -= gg
                jac[s, d] -= gd
                jac[s, s] -= gs
                lin = gg * v[g] + gd * v[d] + gs * v[s]
                rhs[d] += lin - i_d
                rhs[s] -= lin - i_d
            a = jac[np.ix_(free, free)].copy()
            a[np.diag_indices_from(a)] += cfg.gmin
            fixed_all = np.concatenate(([0.0], fixed_vals))
            cols = np.concatenate(([0], self.fixed_idx))
            b = rhs[free] - jac[np.ix_(free, cols)] @ fixed_all
            try:
                x = np.linalg.solve(a, b)
            except np.linalg.LinAlgError as exc:
                bad = int(np.argmin(np.abs(np.diag(a))))
                raise SingularSystem(self.nodes[free[bad]]) from exc
            if not np.all(np.isfinite(x)):
                raise NonConvergence(cfg.newton_max_iter, self.nodes[worst])
            delta = x - v[free]
            dmax = float(np.max(np.abs(delta)))
            worst = free[int(np.argmax(np.abs(delta)))]
            if dmax < 0.05:
                # Close to the solution the full Newton step is safe and
                # lands linear subnetworks exactly; damping would stall a
                # residual of order (1 - damping) * tol.
                v[free] += delta
            else:
                v[free] += np.clip(damping * delta,
                                   -cfg.max_step_volts, cfg.max_step_volts)
            if dmax < cfg.newton_tol:
                return v
        raise NonConvergence(cfg.newton_max_iter, self.nodes[worst])

    def solve(self, states: Mapping, fixed_vals: np.ndarray,
              v0: np.ndarray, cfg: SolverConfig) -> np.ndarray:
        g_lin = self.linear_matrix(states)
        try:
            return self.newton(g_lin, fixed_vals, v0, cfg, cfg.damping)
        except NonConvergence:
            # One retry with heavier damping before surfacing the failure.
            return self.newton(g_lin, fixed_vals, v0, cfg, 0.3)

    def pin(self, fixed: Mapping) -> np.ndarray:
        """Pinned voltages in ``fixed_idx_names`` order."""
        return np.array([fixed[n] for n in self.fixed_idx_names], dtype=float)

    def advance(self, states: dict, v: np.ndarray, dt: float) -> dict:
        """Integrate every memristor state from its branch voltage."""
        out = dict(states)
        for name, i, j, params in self.memristors:
            out[name] = update_state(MemristorState(states[name]),
                                     v[i] - v[j], dt, params).x
        return out

    def march(self, cfg: SolverConfig, pinned, states: dict, v: np.ndarray):
        """Semi-implicit transient over [0, t_stop]: yields (k, t, v, states).

        ``pinned(t)`` gives the pinned voltages at time t.  Each step solves
        the network with frozen states, yields, then advances the states, so
        a consumer that stops early holds the states its last solve used.
        """
        for k in range(int(round(cfg.t_stop / cfg.dt)) + 1):
            t = k * cfg.dt
            v = self.solve(states, pinned(t), v, cfg)
            yield k, t, v, states
            states = self.advance(states, v, cfg.dt)


def _stamp(matrix: np.ndarray, g: float, i: int, j: int) -> None:
    matrix[i, i] += g
    matrix[i, j] -= g
    matrix[j, j] += g
    matrix[j, i] -= g


def _normalize_states(circuit: Circuit, states: Optional[Mapping]) -> dict:
    states = states or {}
    out = {}
    for d in circuit.memristors():
        x = states.get(d.name, d.params.x0)
        out[d.name] = x.x if isinstance(x, MemristorState) else float(x)
    return out


def _fixed_map(circuit: Circuit, stim: Optional[Stimulus], t: float) -> dict:
    """Node voltages pinned by sources and by the stimulus at time t."""
    fixed = {}
    for src in circuit.sources():
        if src.pos != GND:
            fixed[src.pos] = src.value_at(t)
    if stim is not None:
        for port in stim.ports():
            node = circuit.port(port).node
            if node in fixed:
                raise ValueError(f"port {port!r} node {node!r} is already "
                                 f"driven by a source")
            fixed[node] = stim.voltage_at(port, t)
    return fixed


def supply_voltage(circuit: Circuit) -> float:
    """The circuit's supply: its highest DC source, else 1 V."""
    dc = [s.dc for s in circuit.sources() if s.dc is not None]
    return max(dc) if dc else 1.0


def _check_stimulus(circuit: Circuit, stim: Stimulus) -> None:
    input_names = {p.name for p in circuit.input_ports()}
    for port in stim.ports():
        if port not in input_names:
            raise ValueError(f"stimulus port {port!r} is not an input port "
                             f"of {circuit.name!r}")


def _dc_system(circuit: Circuit, fixed: Mapping,
               v_init: Optional[Mapping] = None):
    """System pinning ``fixed``, its pinned values and a start guess."""
    fixed = {n: v for n, v in fixed.items() if n != GND}
    system = _System(circuit, tuple(fixed))
    v0 = np.full(system.n, 0.5 * max([*fixed.values(), 0.0]))
    if v_init is not None:
        for node, val in v_init.items():
            if node in system.index:
                v0[system.index[node]] = val
    return system, system.pin(fixed), v0


def solve_dc(circuit: Circuit, fixed: Mapping, states: Optional[Mapping] = None,
             cfg: Optional[SolverConfig] = None,
             v_init: Optional[Mapping] = None) -> dict:
    """DC operating point with frozen memristor states.

    ``fixed`` maps node names to pinned voltages (sources and inputs); ground
    is always pinned at 0.  Returns a voltage for every node.
    """
    cfg = cfg or SolverConfig()
    state_map = _normalize_states(circuit, states)
    system, fixed_vals, v0 = _dc_system(circuit, fixed, v_init)
    v = system.solve(state_map, fixed_vals, v0, cfg)
    return {node: float(v[i]) for node, i in system.index.items()}


def kcl_residual(circuit: Circuit, voltages: Mapping,
                 states: Optional[Mapping] = None) -> dict:
    """True KCL current residual at every node (for verification)."""
    state_map = _normalize_states(circuit, states)
    residual = {n: 0.0 for n in circuit.nodes}
    for dev in circuit.devices:
        if isinstance(dev, Resistor):
            i = (voltages[dev.n1] - voltages[dev.n2]) / dev.ohms
            residual[dev.n1] += i
            residual[dev.n2] -= i
        elif isinstance(dev, Memristor):
            r = memristance(MemristorState(state_map[dev.name]), dev.params)
            i = (voltages[dev.anode] - voltages[dev.cathode]) / r
            residual[dev.anode] += i
            residual[dev.cathode] -= i
        elif isinstance(dev, Mosfet):
            i_d = mosfet_small_signal(dev.params, voltages[dev.gate],
                                      voltages[dev.drain], voltages[dev.source])[0]
            residual[dev.drain] += i_d
            residual[dev.source] -= i_d
    return residual


def step(circuit: Circuit, states: Mapping, voltages: Mapping, fixed: Mapping,
         dt: float, cfg: Optional[SolverConfig] = None):
    """One semi-implicit transient step: DC solve, then state integration.

    Returns (voltages', states').  ``fixed`` holds the pinned node voltages
    for this instant.
    """
    cfg = cfg or SolverConfig()
    state_map = _normalize_states(circuit, states)
    _warn_if_coarse(circuit, dt)
    system, fixed_vals, v0 = _dc_system(circuit, fixed, voltages)
    v = system.solve(state_map, fixed_vals, v0, cfg)
    volts = {node: float(v[i]) for node, i in system.index.items()}
    return volts, system.advance(state_map, v, dt)


def _warn_if_coarse(circuit: Circuit, dt: float) -> None:
    taus = [d.params.tau for d in circuit.devices if isinstance(d, Memristor)]
    if taus and dt > min(taus) / 2:
        warnings.warn(f"dt={dt:.2e} exceeds tau/2={min(taus) / 2:.2e}; "
                      f"state integration may be inaccurate", stacklevel=3)


def min_tau(circuit: Circuit, default: float = 500e-12) -> float:
    taus = [d.params.tau for d in circuit.devices if isinstance(d, Memristor)]
    return min(taus) if taus else default


def run_transient(circuit: Circuit, stim: Optional[Stimulus] = None,
                  cfg: Optional[SolverConfig] = None,
                  states: Optional[Mapping] = None) -> Waveform:
    """Transient run over [0, t_stop], sampling every node each dt.

    Input ports named by the stimulus are pinned to its levels; all other
    sources follow their own waveforms.  Initial memristor states come from
    each device's x0 unless overridden.
    """
    cfg = cfg or SolverConfig()
    if stim is not None:
        _check_stimulus(circuit, stim)
    state_map = _normalize_states(circuit, states)
    _warn_if_coarse(circuit, cfg.dt)
    n_steps = int(round(cfg.t_stop / cfg.dt))
    times = np.arange(n_steps + 1) * cfg.dt
    system = _System(circuit, tuple(_fixed_map(circuit, stim, 0.0)))
    v = np.full(system.n, supply_voltage(circuit) / 2.0)
    probes = {node: np.empty(len(times)) for node in _probe_order(circuit, system)}
    state_series = {name: np.empty(len(times)) for name in state_map}

    def recorded(n: int) -> Waveform:
        return Waveform(dt=cfg.dt, times=times[:n],
                        probes={node: s[:n] for node, s in probes.items()},
                        states={name: s[:n] for name, s in state_series.items()},
                        port_nodes={p.name: p.node for p in circuit.ports})

    done = 0
    try:
        for k, _, v, state_map in system.march(
                cfg, lambda t: system.pin(_fixed_map(circuit, stim, t)),
                state_map, v):
            for node, series in probes.items():
                series[k] = v[system.index[node]]
            for name in state_map:
                state_series[name][k] = state_map[name]
            done = k + 1
    except (NonConvergence, SingularSystem) as exc:
        raise TransientError(exc, float(times[done]), recorded(done)) from exc
    return recorded(done)


def _probe_order(circuit: Circuit, system: _System) -> list:
    ordered = []
    for p in circuit.ports:
        if p.node not in ordered:
            ordered.append(p.node)
    for node in sorted(system.nodes):
        if node not in ordered:
            ordered.append(node)
    return ordered


def relax_states(circuit: Circuit, fixed: Mapping,
                 states: Optional[Mapping] = None,
                 cfg: Optional[SolverConfig] = None) -> dict:
    """Long-time-limit memristor states under constant bias.

    Iterates the polarity rule (sustained forward bias completes a set,
    sustained reverse bias a reset) against the DC network until a fixed
    point.  This is the steady state of the underlying thermally-activated
    device, which the finite-time threshold dynamics approach but cannot
    always reach within a hard-threshold model.
    """
    cfg = cfg or SolverConfig()
    state_map = _normalize_states(circuit, states)
    system, fixed_vals, v = _dc_system(circuit, fixed)
    for _ in range(max(8, len(system.memristors) + 2)):
        v = system.solve(state_map, fixed_vals, v, cfg)
        new_map = dict(state_map)
        for name, i, j, _params in system.memristors:
            bias = v[i] - v[j]
            if bias > 1e-9:
                new_map[name] = 1.0
            elif bias < -1e-9:
                new_map[name] = 0.0
        if new_map == state_map:
            break
        state_map = new_map
    return state_map


def steady_output(circuit: Circuit, inputs: Mapping,
                  bands: Optional[VoltageBands] = None,
                  cfg: Optional[SolverConfig] = None,
                  return_info: bool = False):
    """Quantized settled output levels under constant input levels.

    Memristor states are first relaxed to their constant-bias steady state,
    then the transient runs until every output port holds one quantization
    region for a 20-tau window.  Raises NotSettled if no window is found by
    t_stop.  With ``return_info`` also returns a dict carrying the settle
    time and final voltages.
    """
    cfg = cfg or SolverConfig()
    supply = supply_voltage(circuit)
    bands = bands or VoltageBands.default(supply)
    stim = Stimulus.hold(dict(inputs), vdd=supply)
    _check_stimulus(circuit, stim)
    fixed = _fixed_map(circuit, stim, 0.0)
    state_map = relax_states(circuit, fixed, cfg=cfg)
    system = _System(circuit, tuple(fixed))
    fixed_vals = system.pin(fixed)
    out_idx = {p.name: system.index[p.node] for p in circuit.output_ports()}
    window = max(2, int(round(20.0 * min_tau(circuit) / cfg.dt)))
    run_len = 0
    regions = None
    settle_time = 0.0
    for _, t, v, state_map in system.march(
            cfg, lambda _t: fixed_vals, state_map,
            np.full(system.n, supply / 2.0)):
        now = {p: bands.region(float(v[i])) for p, i in out_idx.items()}
        if now == regions:
            run_len += 1
        else:
            regions = now
            run_len = 1
            settle_time = t
        if run_len >= window:
            break
    else:
        raise NotSettled(cfg.t_stop)
    volts_out = {p: float(v[i]) for p, i in out_idx.items()}
    levels = {p: voltage_to_level(volts_out[p], bands) for p in out_idx}
    if not return_info:
        return levels
    info = {"settle_time": settle_time, "voltages": volts_out,
            "states": state_map, "t_run": t}
    return levels, info
