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
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .core import VoltageBands, level_to_voltage, voltage_to_level
from .devices import NonpositiveTimestep, memristance, mosfet_small_signal
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


# Newton converges once max|dv| < NEWTON_TOL volts.  A step is damped by
# DAMPING and clipped to MAX_STEP_VOLTS.  GMIN siemens tie every free node
# to ground, as in SPICE.
NEWTON_TOL = 1e-6
DAMPING = 0.7
GMIN = 1e-15
MAX_STEP_VOLTS = 0.5
# A transient keeps every probe at every step, 8 bytes a sample, so a run
# is capped at MAX_STEPS steps (8 MB per probe).  That is 500 times the
# longest run the tests and the benchmark make (2000 steps).
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 50e-12
    t_stop: float = 100e-9
    newton_max_iter: int = 200

    def __post_init__(self):
        if not (0 < self.dt < math.inf and 0 <= self.t_stop < math.inf):
            raise ValueError(f"dt must be positive and t_stop non-negative, "
                             f"both finite (dt={self.dt}, t_stop={self.t_stop})")
        if self.t_stop / self.dt > MAX_STEPS:
            raise ValueError(f"t_stop/dt = {self.t_stop / self.dt:.3g} steps "
                             f"exceeds the limit of {MAX_STEPS}")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be at least 1")

    @property
    def steps(self) -> int:
        """Time steps in [0, t_stop]; a run samples ``steps + 1`` instants."""
        return int(round(self.t_stop / self.dt))


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
        if not 0 <= self.slew < math.inf:
            raise ValueError(f"slew must be finite and non-negative, "
                             f"got {self.slew}")
        for port, events in self.schedules.items():
            times = [t for t, _ in events]
            if not all(map(math.isfinite, times)):
                raise ValueError(f"stimulus times for {port!r} must be finite")
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

    def port_voltage(self, port: str) -> np.ndarray:
        return self.probes[self.port_nodes[port]]

    def to_csv(self, fh) -> None:
        """Write ``time,<probe>...`` rows; column order is the probe order."""
        names = list(self.probes)
        csv.writer(fh).writerow(["time"] + names)  # quotes names if needed
        times = np.asarray(self.times)
        series = [np.asarray(self.probes[n]) for n in names]
        for lo in range(0, len(times), _CSV_BLOCK):
            cols = [[f"{t:.12e}" for t in times[lo:lo + _CSV_BLOCK].tolist()]]
            cols += [[f"{v:.9f}" for v in s[lo:lo + _CSV_BLOCK].tolist()]
                     for s in series]
            # Numbers never need quoting; "\r\n" is csv's row terminator.
            fh.write("".join([",".join(row) + "\r\n" for row in zip(*cols)]))

    def to_vcd(self, fh, bands: Optional[VoltageBands] = None) -> None:
        """Write a VCD dump: per node a real voltage and a 2-bit level code."""
        bands = bands or VoltageBands.default()
        step_fs = max(1, round(self.dt / 1e-15))
        fh.write("$timescale 1fs $end\n$scope module ternsim $end\n")
        for j, node in enumerate(self.probes):
            fh.write(f"$var real 64 r{j} V({node}) $end\n")
            fh.write(f"$var wire 2 w{j} L({node}) $end\n")
        fh.write("$upscope $end\n$enddefinitions $end\n")
        volts = np.empty((len(self.times), len(self.probes)))
        for j, series in enumerate(self.probes.values()):
            volts[:, j] = series
        codes = bands.codes(volts)
        # A sample's code depends only on its voltage, so a line is due
        # exactly where the voltage differs from the sample before.
        changed = np.ones(volts.shape, dtype=bool)
        changed[1:] = volts[1:] != volts[:-1]
        for i in range(len(self.times)):
            cols = np.flatnonzero(changed[i])
            fh.write(f"#{i * step_fs}\n" + "".join([
                f"r{v:.9g} r{j}\nb{_VCD_CODES[c]} w{j}\n"
                for j, v, c in zip(cols.tolist(), volts[i, cols].tolist(),
                                   codes[i, cols].tolist())]))


# to_csv formats this many rows at a time.  Formatting a whole 2001-step
# display run at once held about 10 MB of cell strings; a block holds 1.
_CSV_BLOCK = 256

# Two-bit VCD code of each quantization region; the gaps read as xx.
_VCD_CODES = ("00", "xx", "01", "xx", "10")


def _mosfet_companion(sign, vth, k, lam, vg, vd, vs):
    """``devices.mosfet_small_signal`` elementwise over arrays of devices.

    ``sign`` is +1 for NMOS and -1 for PMOS (the NMOS mirror under sign
    inversion of all voltages).  The arithmetic is the scalar model's, in
    the same order, so each element equals the scalar result.
    """
    vg, vd, vs = sign * vg, sign * vd, sign * vs
    fwd = vd >= vs  # else the channel conducts the other way
    lo = np.where(fwd, vs, vd)
    vds = np.where(fwd, vd, vs) - lo
    u = vg - lo - vth
    m = 1.0 + lam * vds
    tri = vds < u
    kq = k * np.where(tri, u * vds - 0.5 * vds * vds, 0.5 * u * u)
    off = u <= 0.0
    i = np.where(off, 0.0, kq * m)
    dg = np.where(off, 0.0, k * np.where(tri, vds, u) * m)
    dd = np.where(off, 0.0, np.where(tri, k * (u - vds) * m, 0.0) + kq * lam)
    dgd = dg + dd
    return (sign * np.where(fwd, i, -i), np.where(fwd, dg, -dg),
            np.where(fwd, dd, dgd), np.where(fwd, -dgd, -dd))


def _pair_index(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Flat (ii, ij, jj, ji) targets of two-terminal stamps, device by device."""
    return np.stack((i * n + i, i * n + j, j * n + j, j * n + i), axis=1).ravel()


def _pair_weights(g: np.ndarray) -> np.ndarray:
    return np.stack((g, -g, g, -g), axis=1).ravel()


def _compress(flat: np.ndarray):
    """Distinct flat stamp targets, and the bins that sum stamps into them.

    ``np.bincount(bins, w)`` with ``w`` the matrix values at the targets
    followed by the stamps adds, per target, its value and then each stamp
    in order: the order, and so the rounding, of a loop of ``+=``.
    """
    targets, inv = np.unique(flat, return_inverse=True)
    return targets, np.concatenate((np.arange(targets.size), inv))


def _unchanged(a: np.ndarray, b: Optional[np.ndarray]) -> bool:
    return a is b or np.array_equal(a, b)


def _indices(index: Mapping, devs, *attrs):
    return [np.array([index[getattr(d, a)] for d in devs], dtype=np.intp)
            for a in attrs]


class _System:
    """A circuit compiled into index and parameter arrays for repeated solves.

    Nodes are ordered ground, pinned nodes, then the rest, so the unknowns
    are the slice ``[nfix:]``.  Memristor states travel as one array in
    circuit order; the engine never modifies a state array in place.
    """

    def __init__(self, circuit: Circuit, fixed_nodes):
        self.fixed_idx_names = [n for n in dict.fromkeys(fixed_nodes) if n != GND]
        self.nodes = order = list(dict.fromkeys(
            [GND, *self.fixed_idx_names,
             *(n for dev in circuit.devices for n in dev.nodes)]))
        self.index = {n: i for i, n in enumerate(order)}
        self.n = n = len(order)
        self.nfix = 1 + len(self.fixed_idx_names)

        res = [d for d in circuit.devices if isinstance(d, Resistor)]
        r1, r2 = _indices(self.index, res, "n1", "n2")
        g_res = 1.0 / np.array([d.ohms for d in res], dtype=float)
        # bincount of no weights returns integers
        self.g_res = np.bincount(_pair_index(n, r1, r2), _pair_weights(g_res),
                                 minlength=n * n).astype(float).reshape(n, n)

        mem = [d for d in circuit.devices if isinstance(d, Memristor)]
        self.mem_names = [d.name for d in mem]
        self.mem_a, self.mem_c = _indices(self.index, mem, "anode", "cathode")
        self.r_on, self.r_off, self.v_on, self.v_off, self.tau, self.x0 = (
            np.array([getattr(d.params, a) for d in mem], dtype=float)
            for a in ("r_on", "r_off", "v_on", "v_off", "tau", "x0"))
        self._mem_targets, self._mem_bins = _compress(
            _pair_index(n, self.mem_a, self.mem_c))
        self._lin_x = None
        self._g_lin = None

        fets = [d for d in circuit.devices if isinstance(d, Mosfet)]
        d, g, s = self.fet_d, self.fet_g, self.fet_s = _indices(
            self.index, fets, "drain", "gate", "source")
        self.fet_sign = np.array([1.0 if f.params.polarity == "NMOS" else -1.0
                                  for f in fets])
        self.vth, self.k, self.lam = (
            np.array([getattr(f.params, a) for f in fets], dtype=float)
            for a in ("vth", "k", "channel_mod"))
        # Jacobian stamps per FET (rows d, s; columns g, d, s), then gmin on
        # the free diagonal.
        self._fet_targets, self._fet_bins = _compress(np.concatenate((np.stack(
            (d * n + g, d * n + d, d * n + s, s * n + g, s * n + d, s * n + s),
            axis=1).ravel(), np.arange(self.nfix, n) * (n + 1))))
        self._rhs_idx = np.stack((d, s), axis=1).ravel()

        self._check_structure(zip(np.concatenate((r1, self.mem_a, d)).tolist(),
                                  np.concatenate((r2, self.mem_c, s)).tolist()))

    def _check_structure(self, branches) -> None:
        """Every free node needs a conducting path to a pinned node.

        Union-find over resistor, memristor and FET drain-source branches;
        the first free node outside the pinned nodes' sets is floating.
        """
        parent = list(range(self.n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in branches:
            parent[find(i)] = find(j)
        pinned = {find(i) for i in range(self.nfix)}
        for i in range(self.nfix, self.n):
            if find(i) not in pinned:
                raise SingularSystem(self.nodes[i])

    def state_vector(self, states: Optional[Mapping]) -> np.ndarray:
        """States in circuit order; a device missing from ``states`` has x0.

        Raises ValueError naming the device for a state outside [0, 1] or
        not finite, and for a name that is not a memristor of the circuit.
        """
        x = self.x0.copy()
        at = {name: i for i, name in enumerate(self.mem_names)}
        for name, value in (states or {}).items():
            if name not in at:
                raise ValueError(f"{name!r} is not a memristor of the circuit")
            if not 0.0 <= value <= 1.0:  # NaN fails too
                raise ValueError(f"state of {name!r} must lie in [0, 1], "
                                 f"got {value}")
            x[at[name]] = value
        return x

    def state_dict(self, x: np.ndarray) -> dict:
        return dict(zip(self.mem_names, x.tolist()))

    def mem_conductance(self, x: np.ndarray) -> np.ndarray:
        """``1 / devices.memristance`` elementwise, with the same arithmetic."""
        return 1.0 / ((self.r_on * self.r_off)
                      / (x * self.r_off + (1.0 - x) * self.r_on))

    def linear_matrix(self, x: np.ndarray) -> np.ndarray:
        """Conductance stamps of resistors and (frozen-state) memristors."""
        g_lin = self.g_res.copy()
        flat = g_lin.reshape(-1)
        at = self._mem_targets
        flat[at] = np.bincount(self._mem_bins, np.concatenate((
            flat[at], _pair_weights(self.mem_conductance(x)))))
        return g_lin

    def newton(self, g_lin: np.ndarray, fixed_vals: np.ndarray,
               v0: np.ndarray, cfg: SolverConfig,
               retry: bool = False) -> np.ndarray:
        """Damped Newton on the nonlinear KCL system; returns all node voltages.

        The first attempt damps by ``DAMPING`` but takes the full step once
        max|dv| < 0.05 V: there it is safe, lands linear subnetworks exactly,
        and damping would stall a residual of order (1 - DAMPING) * tol.  A
        retry damps every step by 0.3, which breaks the two-cycles a full
        step can fall into at a device's threshold.
        """
        nf, n = self.nfix, self.n
        v = v0.copy()
        v[0] = 0.0
        v[1:nf] = fixed_vals
        if nf == n:
            return v
        pinned = v[:nf]  # never written below
        d, g, s = self.fet_d, self.fet_g, self.fet_s
        at, bins = self._fet_targets, self._fet_bins
        nb, nw = at.size, 6 * d.size
        weights = np.empty(bins.size)
        weights[:nb] = g_lin.reshape(-1)[at]
        weights[nb + nw:] = GMIN
        stamps = weights[nb:nb + nw].reshape(-1, 6)
        currents = np.empty((d.size, 2))
        damping = 0.3 if retry else DAMPING
        worst = nf
        for _ in range(cfg.newton_max_iter):
            vg, vd, vs = v[g], v[d], v[s]
            i_d, stamps[:, 0], stamps[:, 1], stamps[:, 2] = _mosfet_companion(
                self.fet_sign, self.vth, self.k, self.lam, vg, vd, vs)
            np.negative(stamps[:, :3], out=stamps[:, 3:])
            jac = g_lin.copy()
            flat = jac.reshape(-1)
            flat[at] = np.bincount(bins, weights)
            currents[:, 0] = (stamps[:, 0] * vg + stamps[:, 1] * vd
                              + stamps[:, 2] * vs - i_d)
            np.negative(currents[:, 0], out=currents[:, 1])
            rhs = np.bincount(self._rhs_idx, currents.ravel(), minlength=n)
            a = jac[nf:, nf:]
            b = rhs[nf:] - jac[nf:, :nf] @ pinned
            try:
                x = np.linalg.solve(a, b)
            except np.linalg.LinAlgError as exc:
                bad = int(np.argmin(np.abs(np.diag(a))))
                raise SingularSystem(self.nodes[nf + bad]) from exc
            if not np.all(np.isfinite(x)):
                raise NonConvergence(cfg.newton_max_iter, self.nodes[worst])
            delta = x - v[nf:]
            size = np.abs(delta)
            worst = nf + int(np.argmax(size))
            dmax = float(size[worst - nf])
            if dmax < 0.05 and not retry:
                v[nf:] += delta
            else:
                v[nf:] += np.clip(damping * delta,
                                  -MAX_STEP_VOLTS, MAX_STEP_VOLTS)
            if dmax < NEWTON_TOL:
                return v
        raise NonConvergence(cfg.newton_max_iter, self.nodes[worst])

    def solve(self, x: np.ndarray, fixed_vals: np.ndarray,
              v0: np.ndarray, cfg: SolverConfig) -> np.ndarray:
        if not _unchanged(x, self._lin_x):
            self._g_lin = self.linear_matrix(x)
            self._lin_x = x
        try:
            return self.newton(self._g_lin, fixed_vals, v0, cfg)
        except NonConvergence:
            return self.newton(self._g_lin, fixed_vals, v0, cfg, retry=True)

    def advance(self, x: np.ndarray, v: np.ndarray, dt: float) -> np.ndarray:
        """``devices.update_state`` elementwise, with the same arithmetic.

        ``math.exp`` per device rounds each decay as the scalar model does.
        """
        bias = v[self.mem_a] - v[self.mem_c]
        decay = np.array([math.exp(-dt / tau) for tau in self.tau.tolist()])
        x = np.where(bias >= self.v_on, x + (1.0 - x) * (1.0 - decay),
                     np.where(bias <= -self.v_off, x * decay, x))
        return np.minimum(1.0, np.maximum(0.0, x))

    def march(self, cfg: SolverConfig, pinned, x: np.ndarray, v: np.ndarray,
              bypass: bool = False):
        """Semi-implicit transient over [0, t_stop]: yields (k, t, v, x).

        ``pinned(t)`` gives the pinned voltages at time t.  Each step solves
        the network with frozen states, yields, then advances the states, so
        a consumer that stops early holds the states its last solve used.
        With ``bypass``, a step whose pinned voltages and states equal those
        of the last solved step is a fixed point of solve -> advance (SPICE's
        device bypass): it yields that step's voltages and skips both.
        """
        last_p = last_x = None
        for k in range(cfg.steps + 1):
            t = k * cfg.dt
            p = pinned(t)
            quiet = bypass and _unchanged(x, last_x) and _unchanged(p, last_p)
            last_p, last_x = p, x
            if quiet:
                yield k, t, v, x
                continue
            v = self.solve(x, p, v, cfg)
            yield k, t, v, x
            x = self.advance(x, v, cfg.dt)

    def relax(self, x: np.ndarray, fixed_vals: np.ndarray, v: np.ndarray,
              cfg: SolverConfig):
        """Iterate the polarity rule to a fixed point; returns (x, v).

        A forward-biased memristor goes to 1, a reverse-biased one to 0.  At
        a fixed point ``v`` is the network solved with the returned ``x``.
        """
        for _ in range(max(8, len(x) + 2)):
            v = self.solve(x, fixed_vals, v, cfg)
            bias = v[self.mem_a] - v[self.mem_c]
            new = np.where(bias > 1e-9, 1.0, np.where(bias < -1e-9, 0.0, x))
            if np.array_equal(new, x):
                break
            x = new
        return x, v


def _drivers(circuit: Circuit, stim: Optional[Stimulus]) -> dict:
    """Pinned nodes, sources first, each mapped to its voltage over time.

    Raises ValueError for a stimulus port that is not an input port, or
    whose node a source (or an earlier port) already drives.
    """
    drivers = {s.pos: s.value_at for s in circuit.sources() if s.pos != GND}
    if stim is not None:
        inputs = {p.name for p in circuit.input_ports()}
        for port in stim.ports():
            if port not in inputs:
                raise ValueError(f"stimulus port {port!r} is not an input "
                                 f"port of {circuit.name!r}")
            node = circuit.port(port).node
            if node in drivers:
                raise ValueError(f"port {port!r} node {node!r} is already "
                                 f"driven by a source")
            drivers[node] = functools.partial(stim.voltage_at, port)
    return drivers


def supply_voltage(circuit: Circuit) -> float:
    """The circuit's supply: its highest DC source, else 1 V."""
    dc = [s.dc for s in circuit.sources() if s.dc is not None]
    return max(dc) if dc else 1.0


def _dc_system(circuit: Circuit, fixed: Mapping,
               states: Optional[Mapping] = None,
               v_init: Optional[Mapping] = None):
    """System pinning ``fixed``: (system, pinned values, states, start guess).

    The guess is half the highest pinned voltage, overlaid with ``v_init``.
    """
    system = _System(circuit, fixed)
    fixed_vals = [fixed[n] for n in system.fixed_idx_names]
    v0 = np.full(system.n, 0.5 * max([*fixed_vals, 0.0]))
    for node, val in (v_init or {}).items():
        if node in system.index:
            v0[system.index[node]] = val
    return (system, np.array(fixed_vals, dtype=float),
            system.state_vector(states), v0)


def solve_dc(circuit: Circuit, fixed: Mapping, states: Optional[Mapping] = None,
             cfg: Optional[SolverConfig] = None) -> dict:
    """DC operating point with frozen memristor states.

    ``fixed`` maps node names to pinned voltages (sources and inputs); ground
    is always pinned at 0.  Returns a voltage for every node.
    """
    cfg = cfg or SolverConfig()
    system, fixed_vals, x, v0 = _dc_system(circuit, fixed, states)
    return dict(zip(system.nodes, system.solve(x, fixed_vals, v0, cfg).tolist()))


def kcl_residual(circuit: Circuit, voltages: Mapping,
                 states: Optional[Mapping] = None) -> dict:
    """True KCL current residual at every node (for verification)."""
    residual = {n: 0.0 for n in circuit.nodes}
    for dev in circuit.devices:
        if isinstance(dev, Resistor):
            i = (voltages[dev.n1] - voltages[dev.n2]) / dev.ohms
            residual[dev.n1] += i
            residual[dev.n2] -= i
        elif isinstance(dev, Memristor):
            r = memristance((states or {}).get(dev.name, dev.params.x0),
                            dev.params)
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
    for this instant.  Raises NonpositiveTimestep unless dt > 0.
    """
    if not dt > 0:
        raise NonpositiveTimestep(f"dt must be positive, got {dt}")
    cfg = cfg or SolverConfig()
    _warn_if_coarse(circuit, dt)
    system, fixed_vals, x, v0 = _dc_system(circuit, fixed, states, voltages)
    v = system.solve(x, fixed_vals, v0, cfg)
    return (dict(zip(system.nodes, v.tolist())),
            system.state_dict(system.advance(x, v, dt)))


def _warn_if_coarse(circuit: Circuit, dt: float) -> None:
    tau = min_tau(circuit, default=math.inf)
    if dt > tau / 2:
        warnings.warn(f"dt={dt:.2e} exceeds tau/2={tau / 2:.2e}; "
                      f"state integration may be inaccurate", stacklevel=3)


def min_tau(circuit: Circuit, default: float = 500e-12) -> float:
    return min((d.params.tau for d in circuit.memristors()), default=default)


def run_transient(circuit: Circuit, stim: Optional[Stimulus] = None,
                  cfg: Optional[SolverConfig] = None) -> Waveform:
    """Transient run over [0, t_stop], sampling every node each dt.

    Input ports named by the stimulus are pinned to its levels; all other
    sources follow their own waveforms.  Every memristor starts from its x0.
    """
    cfg = cfg or SolverConfig()
    drivers = _drivers(circuit, stim)
    _warn_if_coarse(circuit, cfg.dt)
    times = np.arange(cfg.steps + 1) * cfg.dt
    system = _System(circuit, drivers)
    pinned = [drivers[n] for n in system.fixed_idx_names]
    probe_nodes = list(dict.fromkeys([p.node for p in circuit.ports]
                                     + sorted(system.nodes)))
    probe_idx = np.array([system.index[n] for n in probe_nodes], dtype=np.intp)
    volts = np.empty((len(probe_nodes), len(times)))
    xs = np.empty((len(system.mem_names), len(times)))

    def recorded(n: int) -> Waveform:
        return Waveform(dt=cfg.dt, times=times[:n],
                        probes=dict(zip(probe_nodes, volts[:, :n])),
                        states=dict(zip(system.mem_names, xs[:, :n])),
                        port_nodes={p.name: p.node for p in circuit.ports})

    done = 0
    try:
        for k, _, v, x in system.march(
                cfg, lambda t: np.array([f(t) for f in pinned], dtype=float),
                system.state_vector(None),
                np.full(system.n, supply_voltage(circuit) / 2.0)):
            volts[:, k] = v[probe_idx]
            xs[:, k] = x
            done = k + 1
    except (NonConvergence, SingularSystem) as exc:
        raise TransientError(exc, float(times[done]), recorded(done)) from exc
    return recorded(done)


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
    system, fixed_vals, x, v = _dc_system(circuit, fixed, states)
    return system.state_dict(system.relax(x, fixed_vals, v, cfg)[0])


def steady_output(circuit: Circuit, inputs: Mapping,
                  bands: Optional[VoltageBands] = None,
                  cfg: Optional[SolverConfig] = None,
                  return_info: bool = False):
    """Quantized settled output levels under constant input levels.

    Memristor states are first relaxed to their constant-bias steady state,
    then the transient runs from the relaxed states and voltages until every
    output port holds one quantization region for a 20-tau window.  Raises
    NotSettled if no window is found by t_stop.  With ``return_info`` also
    returns a dict carrying the settle time and final voltages.
    """
    cfg = cfg or SolverConfig()
    supply = supply_voltage(circuit)
    bands = bands or VoltageBands.default(supply)
    drivers = _drivers(circuit, Stimulus.hold(dict(inputs), vdd=supply))
    system, fixed_vals, x, v = _dc_system(
        circuit, {n: f(0.0) for n, f in drivers.items()})
    x, v = system.relax(x, fixed_vals, v, cfg)
    outs = {p.name: system.index[p.node] for p in circuit.output_ports()}
    out_rows = np.array(list(outs.values()), dtype=np.intp)
    window = max(2, int(round(20.0 * min_tau(circuit) / cfg.dt)))
    run_len = 0
    regions = v_seen = None
    settle_time = 0.0
    for _, t, v, x in system.march(cfg, lambda _t: fixed_vals, x, v,
                                   bypass=True):
        if v is not v_seen:  # a bypassed step yields the same voltages
            now = bands.codes(v[out_rows]).tolist()
            v_seen = v
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
    volts_out = dict(zip(outs, v[out_rows].tolist()))
    levels = {p: voltage_to_level(volts_out[p], bands) for p in outs}
    if not return_info:
        return levels
    info = {"settle_time": settle_time, "voltages": volts_out,
            "states": system.state_dict(x), "t_run": t}
    return levels, info
