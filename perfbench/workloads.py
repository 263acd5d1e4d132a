"""The four benchmark workloads, built from a seed and checked as they run.

Each workload splits into a set-up step (netlist elaboration, the text
round trip, gate-graph compilation) and a *round*: a fixed list of items
that the seed chooses once.  Every round of a run repeats the same items, so
per-round counts are exact and per-round times are comparable.  An item is
the smallest unit the public API can be timed on from outside: one input
vector, one transient job, one fault.

Results are checked on every item.  Discrete results (levels, glitch counts)
must match exactly, numbers (settle times, voltages, memristor states) to a
relative 1e-6, against ``reference.json``, which ``record.py`` writes from
the same summaries used here.  The reference is the simulator's own earlier output:
the analog model is not validated against hardware, so no accuracy error
figure exists.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ternsim import analysis, core, digital, engine
from ternsim.netlist import cells, parser

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# transient_switching: a new input vector every 10 ns over 100 ns.
WINDOW = 10e-9
SLEW = 0.5e-9
WINDOWS = 10
# measure_settling's default 10 ns hold is as long as the last window, so a
# port that moves after the last event would read NOT SETTLED.
SETTLE_HOLD = 5e-9
# Stimulus sequences come from a pool, so that every one has a recorded
# reference; the seed picks one.  Sequence 14 of the generator is left out:
# on it run_transient stops with NonConvergence at 70.3 ns (worst node
# a_pout), where the slewing A input sits at 0.7 V and both devices of the
# A-side PTI are at threshold.  That is a solver defect, reproduced by
# ``transient_sequence(14)``; the workload needs inputs on which nothing fails.
SOLVER_FAILURES = (14,)
TRANSIENT_POOL = tuple(i for i in range(17) if i not in SOLVER_FAILURES)

TILE_K = 8
TILE_SWEEP = (1, 2, 4)
TILED_VECTORS = 3

STREAM_LEN = 500


@dataclass
class Outcome:
    """What one item did: work done and checks that failed."""

    vectors: int
    steps: int
    failed: int


@dataclass
class Item:
    label: str
    attempted: int
    run: Callable[[], Outcome]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def close(a: float, b: float) -> bool:
    return abs(a - b) <= max(1e-6 * max(abs(a), abs(b)), 1e-12)


def mismatches(got, want, path: str = "") -> list:
    """Paths where ``got`` differs from ``want``; floats compare to rel 1e-6."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}/{i}")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        return [] if close(float(got), want) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _report(label: str, problems: list) -> int:
    for p in problems[:5]:
        print(f"mismatch in {label}: {p}", file=sys.stderr)
    return 1 if problems else 0


def _level(lv) -> object:
    return int(lv) if isinstance(lv, core.TernaryLevel) else "X"


def vector_key(vec) -> str:
    return "".join(f"{k}{int(v)}" for k, v in vec.items())


def summarize_steady(levels, info) -> dict:
    return {"levels": {p: _level(lv) for p, lv in levels.items()},
            "settle_time": info["settle_time"],
            "voltages": dict(info["voltages"])}


def summarize_transient(wave, glitches, settle, out_ports) -> dict:
    """Levels and voltages at each window's last sample, glitches, settling.

    The mean of every node voltage over the run and the final memristor
    states make the summary sensitive to changes that the ports, sitting
    on the rails, would hide.
    """
    bands = core.VoltageBands.default()
    ends = [round((i + 1) * WINDOW / wave.dt) - 1 for i in range(WINDOWS)]
    ends[-1] = len(wave.times) - 1
    volts = {p: [float(wave.port_voltage(p)[k]) for k in ends] for p in out_ports}
    return {"steps": len(wave.times),
            "window_regions": {p: [bands.region(v) for v in vs]
                               for p, vs in volts.items()},
            "window_volts": volts,
            "glitches": len(glitches),
            "settle": dict(settle),
            "mean_volts": {n: float(v.mean()) for n, v in wave.probes.items()},
            "final_states": {n: float(x[-1]) for n, x in wave.states.items()}}


def tiled_network(k: int) -> cells.GateNetwork:
    """k prefixed copies of the display decoder sharing the inputs A and B."""
    base = cells.decoder_display_network()
    shared = set(base.inputs)

    def net(i, n):
        return n if n in shared else f"t{i}_{n}"

    gates = tuple(cells.GateSpec(g.kind, f"t{i}_{g.name}",
                                 tuple(net(i, n) for n in g.inputs),
                                 net(i, g.output))
                  for i in range(k) for g in base.gates)
    outputs = tuple((f"t{i}_{p}", net(i, n))
                    for i in range(k) for p, n in base.outputs)
    return cells.GateNetwork(f"display_x{k}", base.inputs, outputs, gates)


def tiled_expected(k: int, vec) -> dict:
    one = analysis.expected_outputs("display", vec)
    return {f"t{i}_{p}": lv for i in range(k) for p, lv in one.items()}


def transient_sequence(index: int) -> list:
    """Ten (A, B) vectors, each different from the one before."""
    rng = random.Random(index)
    seq, prev = [], None
    while len(seq) < WINDOWS:
        vec = (rng.randrange(3), rng.randrange(3))
        if vec != prev:
            seq.append(vec)
            prev = vec
    return seq


def transient_stimulus(seq) -> engine.Stimulus:
    lv = core.TernaryLevel
    return engine.Stimulus(
        {"A": tuple((i * WINDOW, lv(a)) for i, (a, _) in enumerate(seq)),
         "B": tuple((i * WINDOW, lv(b)) for i, (_, b) in enumerate(seq))},
        slew=SLEW)


def run_transient_job(circuit, stim) -> dict:
    """The simulate --netlist job: transient, both exports, hazard metrics."""
    bands = core.VoltageBands.default()
    wave = engine.run_transient(circuit, stim)
    csv_buf, vcd_buf = io.StringIO(), io.StringIO()
    wave.to_csv(csv_buf)
    wave.to_vcd(vcd_buf, bands)
    glitches = analysis.detect_glitches(wave, stim, bands)
    outs = [p.name for p in circuit.output_ports()]
    settle = {p: analysis.measure_settling(wave, p, bands, stim,
                                           min_hold=SETTLE_HOLD)
              for p in outs}
    summary = summarize_transient(wave, glitches, settle, outs)
    summary["csv_rows"] = csv_buf.getvalue().count("\n")
    return summary


def _steps(info) -> int:
    return round(info["t_run"] / engine.SolverConfig().dt) + 1


def _encoded(vec) -> dict:
    return {k: core.encode_2bit(v) for k, v in vec.items()}


def _decoded(out) -> dict:
    return {p: core.decode_2bit(b) for p, b in out.items()}


class Workload:
    """Inputs built from a seed, and one round of items over them."""

    name = ""

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.reference = reference
        self.rng = random.Random(seed)
        self.setup_checks = 0
        self.setup_failed = 0

    def setup(self) -> None:
        raise NotImplementedError

    def netlists(self, networks) -> dict:
        """Elaborate each network and round-trip it through the netlist text.

        Returns the parsed circuits, which is what ``simulate --netlist``
        runs; a round trip that is not structurally identical fails a check.
        """
        circuits = {}
        for name, net in networks.items():
            circuit = cells.elaborate(net)
            circuits[name] = parser.parse(parser.serialize(circuit))
            self.setup_checks += 1
            self.setup_failed += _report(f"netlist {name}",
                                         [] if circuits[name] == circuit
                                         else ["text round trip changed it"])
        return circuits

    def items(self) -> list:
        raise NotImplementedError

    def sweep(self) -> list:
        """Extra traced items, keyed by metric suffix (tiled_display only)."""
        return []


def steady_item(label, circuit, dag, vec, expected, want) -> Item:
    """One input vector through ``steady_output`` and ``eval_circuit``.

    Both backends must give the truth table; the analog summary must also
    match the recorded reference ``want``.
    """
    def run():
        levels, info = engine.steady_output(circuit, vec, return_info=True)
        out = digital.eval_circuit(dag, _encoded(vec))
        problems = mismatches(summarize_steady(levels, info), want)
        if levels != expected:
            problems.append("analog levels differ from the truth table")
        if _decoded(out) != expected:
            problems.append("digital levels differ from the truth table")
        return Outcome(1, _steps(info), _report(label, problems))
    return Item(label, 1, run)


class VerifyAll(Workload):
    name = "verify_all"

    def setup(self):
        nets = {d: cells.builtin_network(d) for d in analysis.DECODERS}
        self.circuits = self.netlists(nets)
        self.dags = {d: digital.build_dag(n) for d, n in nets.items()}
        self.cases = [(d, vec) for d in analysis.DECODERS
                      for vec in analysis.input_vectors(d)]
        self.rng.shuffle(self.cases)

    def items(self):
        items = []
        for d, vec in self.cases:
            key = f"{d}:{vector_key(vec)}"
            items.append(steady_item(key, self.circuits[d], self.dags[d], vec,
                                     analysis.expected_outputs(d, vec),
                                     self.reference["verify_all"][key]))
        return items


class TransientSwitching(Workload):
    name = "transient_switching"

    def setup(self):
        nets = {"display": cells.builtin_network("display")}
        self.circuit = self.netlists(nets)["display"]
        self.index = TRANSIENT_POOL[self.seed % len(TRANSIENT_POOL)]
        self.stim = transient_stimulus(transient_sequence(self.index))

    def items(self):
        want = self.reference["transient_switching"][str(self.index)]
        label = f"sequence {self.index}"

        def run():
            got = run_transient_job(self.circuit, self.stim)
            return Outcome(WINDOWS, got["steps"],
                           _report(label, mismatches(got, want)))
        return [Item(label, 1, run)]


class TiledDisplay(Workload):
    name = "tiled_display"

    def setup(self):
        nets = {TILE_K: tiled_network(TILE_K)}
        self.circuit = self.netlists(nets)[TILE_K]
        self.dag = digital.build_dag(nets[TILE_K])
        vectors = analysis.input_vectors("display")
        self.vectors = [vectors[i] for i in self.rng.sample(range(9), TILED_VECTORS)]

    def _item(self, k, circuit, dag, vec) -> Item:
        key = f"display_x{k}:{vector_key(vec)}"
        return steady_item(key, circuit, dag, vec, tiled_expected(k, vec),
                           self.reference["tiled_display"][key])

    def items(self):
        return [self._item(TILE_K, self.circuit, self.dag, v)
                for v in self.vectors]

    def sweep(self):
        """The round's first vector at the smaller sizes of the size sweep."""
        out = []
        for k in TILE_SWEEP:
            net = tiled_network(k)
            out.append((f"k{k}", self._item(k, cells.elaborate(net),
                                             digital.build_dag(net),
                                             self.vectors[0])))
        return out


class DigitalFaults(Workload):
    name = "digital_faults"

    def setup(self):
        nets = {d: cells.builtin_network(d) for d in analysis.DECODERS}
        self.netlists(nets)
        self.cases = []
        for d, net in nets.items():
            self.cases.append((d, None, net, False))
            ports = [p for p, _ in net.outputs]
            functions = {p: tuple(analysis.expected_outputs(d, v)[p]
                                  for v in analysis.input_vectors(d))
                         for p in ports}
            for a, b in itertools.combinations(ports, 2):
                fault = f"swap:{a},{b}"
                self.cases.append((d, fault, cells.mutate_network(net, fault),
                                   functions[a] != functions[b]))
        self.dag = digital.build_dag(nets["display"])
        vectors = analysis.input_vectors("display")
        self.stream = [self.rng.choice(vectors) for _ in range(STREAM_LEN)]
        self.encoded_stream = [_encoded(v) for v in self.stream]

    def items(self):
        items = [Item(f"{d}:{fault or 'clean'}", 1,
                      self._fault(d, fault, net, detectable))
                 for d, fault, net, detectable in self.cases]
        items.append(Item("display:stream", STREAM_LEN, self._stream))
        return items

    def _fault(self, decoder, fault, net, detectable):
        label = f"{decoder}:{fault or 'clean'}"

        def run():
            report = analysis.verify("digital", decoder, network=net)
            wrong = report.passed if detectable else not report.passed
            problems = [f"passed={report.passed}, detectable={detectable}"] if wrong else []
            n = len(report.vectors)
            return Outcome(n, n, _report(label, problems))
        return run

    def _stream(self):
        trace = digital.run_trace(self.dag, self.encoded_stream)
        wrong = [f"vector {i}" for i, (vec, out)
                 in enumerate(zip(self.stream, trace.outputs))
                 if _decoded(out) != analysis.expected_outputs("display", vec)]
        _report("display:stream", wrong)
        return Outcome(STREAM_LEN, STREAM_LEN, len(wrong))


WORKLOADS = {w.name: w for w in (VerifyAll, TransientSwitching, TiledDisplay,
                                 DigitalFaults)}
