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
import itertools
import math
import warnings
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .core import (BIT_CODES, INDETERMINATE, REGION_LEVELS, VoltageBands,
                   as_level, check_ports, level_to_voltage, levels_of)
from .devices import advance_states, memristance, mosfet_companion
from .netlist.model import GND, Circuit, Memristor, Mosfet, Resistor


class SolverError(RuntimeError):
    """Base of every solver failure; the CLI maps each one to exit code 2."""


class NonConvergence(SolverError):
    """Newton iteration failed to reach tolerance."""

    def __init__(self, iterations: int, worst_node: str):
        self.iterations = iterations
        self.worst_node = worst_node
        super().__init__(f"no convergence after {iterations} iterations "
                         f"(worst node {worst_node!r})")


class NonFiniteIterate(SolverError):
    """A Newton iterate, or a device stamp at it, is not finite, so a
    retry would repeat the solve."""

    def __init__(self, iteration: int, node: str):
        self.iteration, self.node = iteration, node
        super().__init__(f"Newton iterate {iteration} is not finite at node "
                         f"{node!r}")


class SingularSystem(SolverError):
    """The conductance matrix is not solvable (typically a floating node)."""

    def __init__(self, node: str):
        self.node = node
        super().__init__(f"singular system: node {node!r} has no DC path")


class NotRelaxed(SolverError):
    """The polarity rule still flipped a memristor when its passes ran out,
    or (``passes`` None) a state moved at the relaxed fixed point."""

    def __init__(self, passes: Optional[int], memristor: str):
        self.passes = passes
        self.memristor = memristor
        super().__init__(
            f"memristor {memristor!r} still moves at the relaxed fixed point"
            if passes is None else f"memristor states not relaxed after "
            f"{passes} passes ({memristor!r} still flips)")


class TransientError(SolverError):
    """Solver failure mid-transient; carries the partial waveform."""

    def __init__(self, cause: Exception, t: float, waveform: "Waveform"):
        self.cause = cause
        self.t = t
        self.waveform = waveform
        super().__init__(f"transient aborted at t={t:.3e} s: {cause}")


# Newton converges once max|dv| < NEWTON_TOL volts, or gives up after
# NEWTON_MAX_ITER iterations.  Its steps are damped (see newton) and clipped
# to MAX_STEP_VOLTS.  GMIN siemens tie every free node to ground, as in SPICE.
NEWTON_TOL = 1e-6
NEWTON_MAX_ITER = 200
DAMPING = 0.7
RETRY_DAMPING = 0.3
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

    def __post_init__(self):
        if not (0 < self.dt < math.inf and 0 <= self.t_stop < math.inf):
            raise ValueError(f"dt must be positive and t_stop non-negative, "
                             f"both finite (dt={self.dt}, t_stop={self.t_stop})")
        if self.t_stop / self.dt > MAX_STEPS:
            raise ValueError(f"t_stop/dt = {self.t_stop / self.dt:.3g} steps "
                             f"exceeds the limit of {MAX_STEPS}")

    @property
    def steps(self) -> int:
        """Time steps in [0, t_stop]; a run samples ``steps + 1`` instants."""
        return int(round(self.t_stop / self.dt))


@dataclass(frozen=True)
class Stimulus:
    """Piecewise-constant level schedules per input port with a linear slew.

    ``schedules`` maps port name to a sequence of (time, level) events with
    strictly increasing times.  Transitions ramp linearly over ``slew``
    seconds starting at the event time.  A level drives at its rail of the
    circuit's supply (``level_to_voltage``).
    """

    schedules: Mapping
    slew: float = 0.0

    def __post_init__(self):
        if not 0 <= self.slew < math.inf:
            raise ValueError(f"slew must be finite and non-negative, "
                             f"got {self.slew}")
        for port, events in self.schedules.items():
            if not events:
                raise ValueError(f"stimulus schedule for {port!r} is empty")
            times, levels = zip(*events)
            try:
                for lv in levels:
                    as_level(lv)
            except ValueError as exc:
                raise ValueError(f"stimulus level {lv!r} for {port!r}: {exc}") from None
            if not all(map(math.isfinite, times)):
                raise ValueError(f"stimulus times for {port!r} must be finite")
            if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
                raise ValueError(f"stimulus times for {port!r} must be increasing")
            # Each ramp, with when + slew rounded as voltages rounds it,
            # ends before the next event: voltages relies on it.
            if self.slew > 0 and any(t0 + self.slew >= t1
                                     for t0, t1 in zip(times, times[1:])):
                raise ValueError("slew must be shorter than the minimum dwell")

    @classmethod
    def hold(cls, levels: Mapping) -> "Stimulus":
        """Constant levels from t=0 on every port."""
        return cls({p: ((0.0, lv),) for p, lv in levels.items()})

    def event_times(self) -> tuple:
        times = {t for events in self.schedules.values() for t, _ in events}
        return tuple(sorted(times))

    def voltages(self, port: str, times: np.ndarray,
                 vdd: float) -> np.ndarray:
        """The port's voltage at each of ``times`` on a ``vdd`` supply.

        Before its first event a port holds its first level.  From an event
        at ``when`` the voltage ramps linearly from the previous level,
        ``prev + (new - prev) * (t - when) / slew``, until ``when + slew``,
        then holds the new level.
        """
        events = self.schedules[port]
        whens = np.array([when for when, _ in events], dtype=float)
        rails = np.array([level_to_voltage(lv, vdd) for _, lv in events])
        # Index of the last event at or before t; -1 before the first.
        i = np.searchsorted(whens, times, side="right") - 1
        held = rails[np.maximum(i, 0)]
        if self.slew == 0:
            return held
        prev, when = rails[np.maximum(i - 1, 0)], whens[np.maximum(i, 0)]
        # __post_init__ keeps each ramp inside its own dwell.
        return np.where((i >= 0) & (times < when + self.slew),
                        prev + (held - prev) * (times - when) / self.slew,
                        held)


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
        if not (np.all(np.isfinite(self.times))
                and np.all(np.diff(self.times) > 0)):
            raise ValueError("times must be finite and strictly increasing")
        for name, series in self.probes.items():
            if len(series) != n:
                raise ValueError(f"series {name!r} length {len(series)} != {n}")
            if not np.all(np.isfinite(series)):
                raise ValueError(f"probe {name!r} carries non-finite voltages")
        for name, series in self.states.items():
            if len(series) != n:
                raise ValueError(f"series {name!r} length {len(series)} != {n}")
            if n and not (series.min() >= 0.0
                          and series.max() <= 1.0):  # a NaN fails too
                raise ValueError(f"state series {name!r} leaves [0, 1]")

    def port_voltage(self, port: str) -> np.ndarray:
        return self.probes[self.port_nodes[port]]

    def to_csv(self, fh) -> None:
        """Write ``time,<probe>...`` rows; column order is the probe order."""
        names = list(self.probes)
        csv.writer(fh).writerow(["time"] + names)  # quotes names if needed
        cols = [self.times, *self.probes.values()]
        # Numbers never need quoting; "\r\n" is csv's row terminator.
        row_fmt = "%.12e" + ",%.9f" * len(names) + "\r\n"
        for lo in range(0, len(self.times), _CSV_BLOCK):
            block = np.column_stack([c[lo:lo + _CSV_BLOCK] for c in cols])
            fh.write(row_fmt * len(block) % tuple(block.ravel().tolist()))

    def to_vcd(self, fh, bands: VoltageBands) -> None:
        """Write a VCD dump: per node a real voltage and a 2-bit level code,
        each sample stamped at its time in whole fs (ValueError if two tie)."""
        stamps = np.rint(np.asarray(self.times) / 1e-15)
        if not np.all(np.diff(stamps) > 0):
            raise ValueError(f"dt={self.dt!r} s puts two samples on one 1 fs "
                             "VCD timestamp")
        fh.write("$timescale 1fs $end\n$scope module ternsim $end\n")
        for j, node in enumerate(self.probes):
            fh.write(f"$var real 64 r{j} V({node}) $end\n")
            fh.write(f"$var wire 2 w{j} L({node}) $end\n")
        fh.write("$upscope $end\n$enddefinitions $end\n")
        series = list(self.probes.values())
        width = len(series)
        # An entry's text after its value, by code * width + probe.
        tails = [f" r{j}\nb{code} w{j}\n"
                 for code in _VCD_CODES for j in range(width)]
        for lo in range(0, stamps.size, _VCD_BLOCK):
            hi = min(lo + _VCD_BLOCK, stamps.size)
            # The block's samples after the one before them, if any.  A
            # sample's code depends only on its voltage, so a line is due
            # exactly where the voltage differs from the sample before.
            past = min(lo, 1)
            volts = np.empty((hi - lo + past, width))
            for j, s in enumerate(series):
                volts[:, j] = s[lo - past:hi]
            changed = np.ones((hi - lo, width), dtype=bool)
            changed[1 - past:] = volts[1:] != volts[:-1]
            rows, cols = np.nonzero(changed)
            vals = volts[rows + past, cols]
            keys = bands.codes(vals) * width + cols
            texts = ("r%.9g\0" * len(vals) % tuple(vals.tolist())).split("\0")
            cells = [text + tails[key]
                     for text, key in zip(texts, keys.tolist())]
            marks = "#%.0f\n\0" * (hi - lo) % tuple(stamps[lo:hi].tolist())
            ends = np.searchsorted(rows, np.arange(hi - lo), side="right")
            out, start = [], 0
            for mark, end in zip(marks.split("\0"), ends.tolist()):
                out.append(mark)
                out += cells[start:end]
                start = end
            fh.write("".join(out))


# to_csv and to_vcd format this many rows at a time and write each block to
# the handle they are given, so an export holds no full-run copy of the
# probes, of its change mask or of its text.  A VCD entry is about three
# times as long as a CSV cell, and 256-row VCD blocks raised
# transient_switching's peak RSS by 8%.
_CSV_BLOCK = 256
_VCD_BLOCK = 64

# Two-bit VCD code of each quantization region; the gaps read as xx.
_VCD_CODES = tuple("xx" if lv is INDETERMINATE else str(BIT_CODES[lv])
                   for lv in REGION_LEVELS)


def _pair_entries(i: np.ndarray, j: np.ndarray):
    """Rows and columns of two-terminal stamps (ii, ij, jj, ji), per device."""
    return (np.stack((i, i, j, j), axis=1).ravel(),
            np.stack((i, j, j, i), axis=1).ravel())


# Signs of a conductance's four two-terminal stamps, in _pair_entries order.
_PAIR_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def _terminals(index: Mapping, devs, count: int) -> np.ndarray:
    """Node indices of the devices' ``count`` terminals, a row per terminal."""
    return np.array([index[n] for d in devs for n in d.nodes],
                    dtype=np.intp).reshape(-1, count).T


def _blocks(nodes: list, nfix: int, branches, links):
    """Order the free nodes into independent blocks, by union-find.

    ``branches`` are conducting (i, j) index arrays: resistors, memristors
    and drain-source channels.  A free node needs a branch path to a
    pinned node, else it floats and SingularSystem names the first such
    node.  ``links`` join a gate to its channel: they couple equations but
    conduct nothing.  The blocks are the free nodes joined by either.

    Returns the node order -- ground and pinned nodes, then the blocks from
    smallest to largest, each keeping its nodes' order -- and the
    (size, count) of each block size.
    """
    parent = list(range(len(nodes)))

    def union(pairs):
        # A set's root is its smallest index, so every parent index is at
        # most its child's and one ascending pass points each node at its
        # root.
        i, j = pairs
        both = (i >= nfix) & (j >= nfix)
        for a, b in zip(i[both].tolist(), j[both].tolist()):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            parent[max(a, b)] = min(a, b)
        for k in range(len(parent)):
            parent[k] = parent[parent[k]]

    union(branches)
    i, j = branches
    grounded = {parent[k] for k in
                np.maximum(i, j)[np.minimum(i, j) < nfix].tolist()}
    free = range(nfix, len(nodes))
    for k in free:
        if parent[k] not in grounded:
            raise SingularSystem(nodes[k])
    union(links)
    blocks = {}
    for k in free:
        blocks.setdefault(parent[k], []).append(k)
    blocks = sorted(blocks.values(), key=len)  # stable: equal sizes keep order
    order = [*range(nfix), *itertools.chain.from_iterable(blocks)]
    return order, [(size, len(list(same)))
                   for size, same in itertools.groupby(map(len, blocks))]


def _solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve each system ``a[k] @ x[k] = b[k]`` of a stack; b is (k, m, 1).

    This is the LAPACK gufunc that ``np.linalg.solve`` calls, without that
    wrapper's checks, so its answers are bitwise those of np.linalg.solve.
    A singular system raises the float invalid flag: ``_System.newton``
    turns it into LinAlgError, as np.linalg.solve does.
    """
    return _umath_linalg.solve(a, b, signature="dd->d")


def _singular(err: str, flag: int):
    raise LinAlgError("Singular matrix")


def _frozen(program) -> None:
    """Make every array of ``program``, and every array below it, read-only."""
    for value in vars(program).values():
        while isinstance(value, np.ndarray):
            value.flags.writeable = False
            value = value.base


class _Program:
    """A circuit compiled once; read-only.

    Nodes are ordered ground, the pinned nodes (``pinned``: source nodes in
    device order, then signal-input nodes in port order), then the free
    nodes, the unknowns ``[nfix:]``.  A ``Circuit`` is checked when built,
    so every source is grounded and each pinned node has one driver.  No
    stamp couples two blocks of free nodes (``_blocks``), so each block's
    equations solve alone: the block-diagonal step of KLU's block
    triangular form (Davis & Palamadai Natarajan, ACM TOMS 37(3), 2010).
    A matrix is one flat array of the free rows: a row holds the pinned
    columns, then its block's, so the blocks of one size form a stack of
    (size, nfix + size) matrices.  The stamps on pinned rows, which no
    equation reads, sum into a spare row at the end.

    Every stamp is compiled into one program, as in modified nodal analysis
    (Ho, Ruehli & Brennan, IEEE TCAS 22(6), 1975): the resistor and then
    the memristor pair entries, the FET entries, gmin on the free diagonal,
    then the FET companion currents on the right-hand side.  One
    ``np.bincount`` per Newton iteration sums the weights into their
    targets.  ``weights`` holds the resistor and gmin weights; a
    ``_System`` copies it and writes the memristor and FET weights.
    Memristor states travel as one array in circuit order; the engine never
    modifies a state array in place.

    Nothing here changes after ``__init__``, and every array is read-only,
    so one program serves every call on its circuit (``_program``).
    """

    def __init__(self, circuit: Circuit):
        self.name = circuit.name
        self.sources = tuple(circuit.sources())
        self.signals = {p.name: p.node for p in circuit.signal_inputs()}
        self.supply = supply_voltage(circuit)
        self.pinned = pinned = (*(s.pos for s in self.sources),
                                *self.signals.values())
        order = list(dict.fromkeys(itertools.chain(
            (GND, *pinned), *[d.nodes for d in circuit.devices])))
        self.n = n = len(order)
        self.nfix = nf = 1 + len(pinned)

        res = [d for d in circuit.devices if isinstance(d, Resistor)]
        mem = [d for d in circuit.devices if isinstance(d, Memristor)]
        fets = [d for d in circuit.devices if isinstance(d, Mosfet)]
        index = {name: i for i, name in enumerate(order)}
        r1, r2 = _terminals(index, res, 2)
        a, c = _terminals(index, mem, 2)
        d, g, s = _terminals(index, fets, 3)
        perm, classes = _blocks(order, nf, (np.concatenate((r1, a, d)),
                                            np.concatenate((r2, c, s))),
                                (np.concatenate((g, g)), np.concatenate((d, s))))
        self.nodes = tuple(order[i] for i in perm)
        self.index = MappingProxyType({name: i for i, name
                                       in enumerate(self.nodes)})
        rank = np.empty(n, dtype=np.intp)
        rank[perm] = np.arange(n)
        r1, r2, a, c, d, g, s = (rank[t] for t in (r1, r2, a, c, d, g, s))

        # Entry (i, j) sits at row[i] + col[j] of a flat matrix: row[i] is
        # where row i starts, col[j] is j for a pinned column and nfix plus
        # j's place in its block for a free one.  Every pinned row starts
        # at the spare row.  The right-hand side, by node, follows the
        # matrix.  Only the stamp targets are ever written.
        spare = sum(size * count * (nf + size) for size, count in classes)
        end = spare + nf + max([0, *(z for z, _ in classes)])
        self.mna_size, self.rhs_start = end + n, end + nf
        row, col = np.full(n, spare), np.arange(n)
        # Per block size: where its stack starts in the matrix, its
        # (count, size), and its rows among the free nodes.
        layout = []
        lo = off = 0
        for size, count in classes:
            k = np.arange(size * count)
            row[nf + lo:nf + lo + k.size] = off + k * (nf + size)
            col[nf + lo:nf + lo + k.size] = nf + k % size
            layout.append((off, count, size, slice(lo, lo + k.size)))
            lo, off = lo + k.size, off + k.size * (nf + size)
        self.layout = tuple(layout)

        def slot(i, j):
            return row[i] + col[j]

        self.mem_names = tuple(m.name for m in mem)
        self.mem_ac = np.stack((a, c))
        # Per-device arrays; the program is the ``p`` of devices.memristance.
        self.r_on, self.r_off, self.v_on, self.v_off, self.tau, self.x0 = (
            np.array([(p.r_on, p.r_off, p.v_on, p.v_off, p.tau, p.x0)
                      for p in (m.params for m in mem)],
                     dtype=float).reshape(-1, 6).T.copy())
        self.neg_v_off = -self.v_off

        self.gds = np.stack((g, d, s))
        self.fet_sign, self.vth, self.k, self.lam = (
            np.array([(1.0 if p.polarity == "NMOS" else -1.0, p.vth, p.k,
                       p.channel_mod) for p in (f.params for f in fets)],
                     dtype=float).reshape(-1, 4).T.copy())
        # The stamp program: pair entries per resistor, then per memristor,
        # entries per FET (rows d, s; columns g, d, s), gmin on the free
        # diagonal, then each FET's companion current on right-hand side
        # rows d and s.  The weights hold the values in the same order.
        free = np.arange(nf, n)
        i, j = map(np.concatenate, zip(
            _pair_entries(r1, r2), _pair_entries(a, c),
            (np.stack((d, d, d, s, s, s), 1).ravel(),
             np.stack((g, d, s, g, d, s), 1).ravel()),
            (free, free)))
        # The distinct flat targets, and each stamp's bin among them:
        # np.bincount(bins, w) adds, per target, each of its stamps in order
        # to 0.0, the order and so the rounding of a loop of += on a zeroed
        # matrix.
        self.targets, self.bins = np.unique(np.concatenate(
            (slot(i, j), end + np.stack((d, s), 1).ravel())),
            return_inverse=True)
        mem_at, fet_at, gmin_at, cur_at = np.cumsum(
            [4 * r1.size, 4 * a.size, 6 * d.size, n - nf]).tolist()
        self.mem_part = slice(mem_at, fet_at)
        self.fet_part = slice(fet_at, gmin_at)
        self.cur_part = slice(cur_at, None)
        self.weights = np.zeros(self.bins.size)
        self.weights[:mem_at] = np.multiply.outer(
            1.0 / np.array([r.ohms for r in res], dtype=float),
            _PAIR_SIGNS).ravel()
        self.weights[gmin_at:cur_at] = GMIN

        self.outputs = tuple(p.name for p in circuit.output_ports())
        self.out_rows = np.array([self.index[p.node]
                                  for p in circuit.output_ports()],
                                 dtype=np.intp)
        self.min_tau = min(self.tau.tolist(), default=500e-12)
        _frozen(self)

    def state_dict(self, x: np.ndarray) -> dict:
        return dict(zip(self.mem_names, x.tolist()))

    def pin_table(self, stim: Optional[Stimulus],
                  times: np.ndarray) -> np.ndarray:
        """The pinned voltages at ``times``, a row per time and a column per
        node of ``pinned``.  ValueError as ``check_ports`` unless the
        stimulus drives exactly the signal inputs."""
        check_ports(stim.schedules if stim is not None else (), self.signals,
                    self.name)
        # Pinned node pinned[j] is node j + 1, and column j.
        table = np.empty((len(times), len(self.pinned)))
        for j, src in enumerate(self.sources):
            table[:, j] = [src.value_at(t) for t in times.tolist()]
        for j, port in enumerate(self.signals, len(self.sources)):
            table[:, j] = stim.voltages(port, times, self.supply)
        return table


def _program(circuit: Circuit) -> _Program:
    """The circuit's one program; threads compiling it share the first."""
    return (circuit._programs.get("analog")
            or circuit._programs.setdefault("analog", _Program(circuit)))


class _System:
    """One call's workspace over its circuit's shared ``_Program``.

    It holds everything a solve writes: the flat matrix and right-hand
    side with their per-size stack views, the stamp weights (the program's
    resistor and gmin weights, then the memristor stamps ``solve`` writes
    for its states and the FET stamps ``newton`` writes for its iterate),
    Newton's new free voltages and the decays of the last ``dt``.
    """

    def __init__(self, program: _Program):
        self.program = p = program
        nf = p.nfix
        self._mna = np.zeros(p.mna_size)
        rhs = self._mna[p.rhs_start:]
        # Per block size: the square blocks, their pinned columns and their
        # right-hand sides, as views of the matrix, and their rows among the
        # free nodes.
        self._stacks = []
        for off, count, size, rows in p.layout:
            stack = self._mna[off:off + count * size * (nf + size)].reshape(
                count, size, nf + size)
            self._stacks.append((stack[:, :, nf:], stack[:, :, :nf],
                                 rhs[rows].reshape(count, size), rows))
        self._weights = p.weights.copy()
        self._mem_stamps = self._weights[p.mem_part].reshape(-1, 4)
        # newton writes each FET's stamps (dg, dd, ds, then their negatives)
        # and its current into d (then out of s) through these views.
        stamps = self._weights[p.fet_part].reshape(-1, 6)
        currents = self._weights[p.cur_part].reshape(-1, 2)
        self._fet_views = (*stamps.T[:3], stamps[:, :3], stamps[:, 3:],
                           *currents.T)
        self._x = np.empty(p.n - nf)  # Newton's new free voltages
        self._decay_dt = self._decay = None

    def newton(self, fixed_vals: np.ndarray, v0: np.ndarray,
               damping: float = DAMPING) -> np.ndarray:
        """Damped Newton on the nonlinear KCL system; returns all node voltages.

        The memristor stamps are those ``solve`` last wrote.

        Each step is scaled by ``damping`` and clipped to MAX_STEP_VOLTS, but
        is taken in full once max|dv| < 0.05 V: there it is safe, lands linear
        subnetworks exactly, and damping would stall a residual of order
        (1 - damping) * tol.  RETRY_DAMPING damps every step, breaking the
        two-cycles a full step can fall into at a device's threshold.  A new
        value or a device stamp that is not finite raises NonFiniteIterate.
        """
        p = self.program
        nf, n = p.nfix, p.n
        v = v0.copy()
        v[0] = 0.0
        v[1:nf] = fixed_vals
        if nf == n:
            return v
        pinned, free = v[:nf], v[nf:]  # pinned is never written below
        mna, at, solve = self._mna, p.targets, _solve_stack
        sg, sd, ss, pos, neg, into_d, out_of_s = self._fet_views
        x = self._x
        # The error state np.linalg.solve sets around each solve, set once:
        # the invalid flag raises LinAlgError.  In a solve it means a
        # singular block; in the stamps, inf - inf from a huge voltage.
        with np.errstate(call=_singular, invalid="call", over="ignore",
                         divide="ignore", under="ignore"):
            for it in range(1, NEWTON_MAX_ITER + 1):
                try:
                    vgds = v[p.gds]
                    i_d, dg, dd, ds = mosfet_companion(
                        p.fet_sign, p.vth, p.k, p.lam, vgds)
                    sg[...], sd[...], ss[...] = dg, dd, ds
                    np.negative(pos, out=neg)
                    np.subtract(dg * vgds[0] + dd * vgds[1] + ds * vgds[2],
                                i_d, out=into_d)
                    np.negative(into_d, out=out_of_s)
                    mna[at] = np.bincount(p.bins, self._weights)
                except LinAlgError:  # name the largest voltage's node
                    bad = int(np.abs(v).argmax())
                    raise NonFiniteIterate(it, p.nodes[bad]) from None
                for a, coupling, rhs, rows in self._stacks:
                    try:
                        x[rows] = solve(
                            a, (rhs - coupling @ pinned)[:, :, None]).reshape(-1)
                    except LinAlgError as exc:
                        diag = np.abs(np.diagonal(a, axis1=1, axis2=2))
                        bad = rows.start + int(np.argmin(diag))
                        raise SingularSystem(p.nodes[nf + bad]) from exc
                step = x - free
                dmax = np.abs(step).max()
                if not math.isfinite(dmax):  # x holds a NaN or an inf
                    bad = int(np.flatnonzero(~np.isfinite(x))[0])
                    raise NonFiniteIterate(it, p.nodes[nf + bad])
                if dmax < 0.05 and damping != RETRY_DAMPING:
                    free += step
                else:  # np.clip's bits, without its overhead
                    free += np.minimum(
                        np.maximum(damping * step, -MAX_STEP_VOLTS),
                        MAX_STEP_VOLTS)
                if dmax < NEWTON_TOL:
                    return v
        worst = int(np.abs(step).argmax())  # of the last step
        raise NonConvergence(NEWTON_MAX_ITER, p.nodes[nf + worst])

    def solve(self, x: np.ndarray, fixed_vals: np.ndarray, v0: np.ndarray,
              damping: float = DAMPING) -> np.ndarray:
        """Newton at ``damping``, retried at RETRY_DAMPING from ``v0`` on
        NonConvergence; a NonFiniteIterate is raised as it is."""
        np.multiply.outer(1.0 / memristance(x, self.program), _PAIR_SIGNS,
                          out=self._mem_stamps)
        try:
            return self.newton(fixed_vals, v0, damping)
        except NonConvergence:
            return self.newton(fixed_vals, v0, RETRY_DAMPING)

    def advance(self, x: np.ndarray, v: np.ndarray, dt: float) -> np.ndarray:
        """The states after dt under the branch voltages of ``v``.

        ``math.exp`` per device rounds each decay as ``update_state`` does;
        the decays are kept for the last ``dt``.
        """
        p = self.program
        if dt != self._decay_dt:
            decay = np.array([math.exp(-dt / tau) for tau in p.tau.tolist()])
            self._decay, self._decay_dt = (decay, 1.0 - decay), dt
        va, vc = v[p.mem_ac]
        return advance_states(x, va - vc, *self._decay, p.v_on, p.neg_v_off)

    def relax(self, x: np.ndarray, fixed_vals: np.ndarray, v: np.ndarray):
        """Iterate the polarity rule to a fixed point; returns (x, v).

        A forward-biased memristor goes to 1, a reverse-biased one to 0.  At
        a fixed point ``v`` is the network solved with the returned ``x``.
        Each pass converges to NEWTON_TOL by clipped, undamped steps.  Raises
        NotRelaxed if a state still flips when the passes run out.
        """
        passes = max(8, len(x) + 2)
        for _ in range(passes):
            v = self.solve(x, fixed_vals, v, damping=1.0)
            va, vc = v[self.program.mem_ac]
            bias = va - vc
            new = np.where(bias > 1e-9, 1.0, np.where(bias < -1e-9, 0.0, x))
            flipped = np.flatnonzero(new != x)
            if not flipped.size:
                return x, v
            x = new
        raise NotRelaxed(passes, self.program.mem_names[flipped[0]])


def supply_voltage(circuit: Circuit) -> float:
    """The circuit's supply: the highest DC value or PWL point, else 1 V."""
    return max((v for s in circuit.sources()
                for _, v in s.pwl or ((0.0, s.dc),)), default=1.0)


def run_transient(circuit: Circuit, stim: Optional[Stimulus] = None,
                  cfg: Optional[SolverConfig] = None) -> Waveform:
    """Transient run over [0, t_stop], sampling every node each dt.

    The stimulus pins every signal input to its levels, on the rails of the
    circuit's supply; all other sources follow their own waveforms.  A
    ValueError, as ``check_ports``, names an unknown port, else one left
    out.  Every memristor starts from its x0.
    """
    cfg = cfg or SolverConfig()
    times = np.arange(cfg.steps + 1) * cfg.dt
    prog = _program(circuit)
    table = prog.pin_table(stim, times)
    system = _System(prog)
    if prog.mem_names and cfg.dt > prog.min_tau / 2:
        warnings.warn(f"dt={cfg.dt:.2e} exceeds tau/2={prog.min_tau / 2:.2e}; "
                      f"state integration may be inaccurate", stacklevel=2)
    probe_nodes = list(dict.fromkeys([p.node for p in circuit.ports]
                                     + sorted(prog.nodes)))
    probe_idx = np.array([prog.index[n] for n in probe_nodes], dtype=np.intp)
    volts = np.empty((len(probe_nodes), len(times)))
    xs = np.empty((len(prog.mem_names), len(times)))

    def recorded(n: int) -> Waveform:
        return Waveform(dt=cfg.dt, times=times[:n],
                        probes=dict(zip(probe_nodes, volts[:, :n])),
                        states=dict(zip(prog.mem_names, xs[:, :n])),
                        port_nodes={p.name: p.node for p in circuit.ports})

    x = prog.x0
    v = np.full(prog.n, prog.supply / 2.0)
    try:
        for k, pins in enumerate(table):
            v = system.solve(x, pins, v)
            volts[:, k] = v[probe_idx]
            xs[:, k] = x
            x = system.advance(x, v, cfg.dt)
    except SolverError as exc:  # step k failed: k samples are recorded
        raise TransientError(exc, float(times[k]), recorded(k)) from exc
    return recorded(len(times))


def steady_output(circuit: Circuit, inputs: Mapping,
                  bands: Optional[VoltageBands] = None,
                  cfg: Optional[SolverConfig] = None,
                  return_info: bool = False):
    """Output levels at the relaxed fixed point under constant input levels.

    ``inputs`` must give a level to every signal input, which drives at
    its rail of the circuit's supply; ValueError as ``levels_of``.  Each
    source holds its long-time value, its DC value or last PWL point.  The
    memristors are relaxed, the network is solved once more with their
    states, and a step of dt must leave every state unchanged, else
    NotRelaxed names one that moves.  Every later step would repeat that
    solve, so the answer, a DC operating point, holds from t = 0 whatever
    tau and ``cfg.t_stop``.  With ``return_info`` also returns a dict of the
    output voltages, the states, settle_time (0.0) and t_run, (window - 1) * dt
    for a 20-tau window.  The benchmark reads the last two, and acceptance
    criterion 2 reads t_run.
    """
    cfg = cfg or SolverConfig()
    prog = _program(circuit)
    bands = bands or VoltageBands.default(prog.supply)
    levels_of(inputs, prog.signals, prog.name)
    fixed_vals = prog.pin_table(Stimulus.hold(inputs), np.array([math.inf]))[0]
    system = _System(prog)
    v = np.full(prog.n, 0.5 * max([*fixed_vals.tolist(), 0.0]))
    x, v = system.relax(prog.x0, fixed_vals, v)
    v = system.solve(x, fixed_vals, v)
    moved = np.flatnonzero(system.advance(x, v, cfg.dt) != x)
    if moved.size:
        raise NotRelaxed(None, prog.mem_names[moved[0]])
    levels = {p: REGION_LEVELS[code] for p, code
              in zip(prog.outputs, bands.codes(v[prog.out_rows]).tolist())}
    if not return_info:
        return levels
    window = max(2, round(20.0 * prog.min_tau / cfg.dt))
    info = {"settle_time": 0.0,
            "voltages": dict(zip(prog.outputs, v[prog.out_rows].tolist())),
            "states": prog.state_dict(x), "t_run": (window - 1) * cfg.dt}
    return levels, info
