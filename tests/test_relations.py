"""Metamorphic relations: answers that must not depend on how a circuit is
written down (Chen, Cheung & Yiu, HKUST-CS98-01, 1998).

A copy of each builtin with its devices shuffled and its internal nodes
renamed must give the same output levels and relaxed states on every
vector, and output voltages within 1e-15 V.  Shuffling changes the node
order and so the rounding of each solve: seeded shuffles of the builtins
moved no voltage by more than 5.6e-16 V.  Shuffling also changes the order
in which the solver joins nodes into blocks, so one seed exercises little
of it: a union-find that halves each path once, rather than walking it to
its root, mis-splits blocks only on some orders (display, seed 3).

The order in which a caller lists its input ports or stimulus ports must
change nothing either: a circuit compiles one program, which pins its
source nodes and then its signal inputs in the circuit's own order.

Nor may time scales change a steady answer, which is a DC operating point
(SPICE's ``.op``; Nagel, UCB/ERL M520, 1975): the memristors' TAU, slowed
from 0.5 ns to 6 ns and to 1 us, or a t_stop of 1 ns, far short of 20 tau.
A settle-window refusal put back into ``steady_output`` fails this.
"""

import dataclasses
import random
import re

import pytest

from ternsim.analysis import input_vectors
from ternsim.engine import (SolverConfig, Stimulus, run_transient,
                            steady_output)
from ternsim.netlist import builtin_network, elaborate, parse, serialize
from ternsim.netlist.model import GND, Circuit

from conftest import SEQUENCE_3, switching

SEEDS = range(8)
VOLTS_ABS = 1e-15


def rewritten(circuit: Circuit, seed: int) -> Circuit:
    """``circuit`` with its devices shuffled and its internal nodes renamed.

    Ports and their nodes, ground, and device names stay as they are.
    """
    rng = random.Random(seed)
    kept = {p.node for p in circuit.ports} | {GND}
    internal = sorted(circuit.nodes - kept)
    fresh = [f"n{i}" for i in range(len(internal))]
    rng.shuffle(fresh)
    rename = {**dict(zip(internal, fresh)), **{n: n for n in kept}}

    def rewired(dev):
        return dataclasses.replace(dev, **{
            f.name: rename[getattr(dev, f.name)]
            for f in dataclasses.fields(dev)
            if f.name != "name" and isinstance(getattr(dev, f.name), str)})

    devices = [rewired(d) for d in circuit.devices]
    rng.shuffle(devices)
    return Circuit(circuit.name, devices, circuit.ports)


@pytest.fixture(scope="module", params=["d13", "d29", "display"])
def builtin(request):
    return request.param, elaborate(builtin_network(request.param))


def test_the_copy_is_rewritten(builtin):
    _, circuit = builtin
    copy = rewritten(circuit, SEEDS[0])
    assert sorted(d.name for d in copy.devices) == sorted(
        d.name for d in circuit.devices)
    assert [d.name for d in copy.devices] != [d.name for d in circuit.devices]
    assert copy.nodes != circuit.nodes
    assert len(copy.nodes) == len(circuit.nodes)


def test_device_order_and_node_names_keep_the_answers(builtin):
    name, circuit = builtin
    want = [(vec, *steady_output(circuit, vec, return_info=True))
            for vec in input_vectors(name)]
    for seed in SEEDS:
        copy = rewritten(circuit, seed)
        for vec, levels, info in want:
            copy_levels, copy_info = steady_output(copy, vec,
                                                   return_info=True)
            assert copy_levels == levels, (seed, vec)
            assert copy_info["states"] == info["states"], (seed, vec)
            for port, volts in info["voltages"].items():
                assert copy_info["voltages"][port] == pytest.approx(
                    volts, rel=0, abs=VOLTS_ABS), (seed, vec, port)


@pytest.mark.parametrize("tau", [6e-9, 1e-6])
def test_tau_keeps_the_steady_answer(builtin, tau):
    name, circuit = builtin
    text, n = re.subn(r"\bTAU=\S+", f"TAU={tau!r}", serialize(circuit))
    assert n == len(circuit.memristors()) > 0
    slow = parse(text)
    assert {m.params.tau for m in slow.memristors()} == {tau}
    for vec in input_vectors(name):
        want, info = steady_output(circuit, vec, return_info=True)
        got, slow_info = steady_output(slow, vec, return_info=True)
        assert repr(got) == repr(want), vec
        for key in ("voltages", "states"):
            assert repr(slow_info[key]) == repr(info[key]), (vec, key)


def test_t_stop_keeps_the_steady_answer(builtin):
    name, circuit = builtin
    short = SolverConfig(t_stop=1e-9)
    for vec in input_vectors(name):
        assert repr(steady_output(circuit, vec, cfg=short,
                                  return_info=True)) == repr(
            steady_output(circuit, vec, return_info=True)), vec


def reversed_dict(mapping):
    return dict(reversed(mapping.items()))


def test_pin_order_keeps_the_answers(builtin):
    name, _ = builtin
    circuit = elaborate(builtin_network(name))
    for vec in input_vectors(name):
        assert repr(steady_output(circuit, reversed_dict(vec),
                                  return_info=True)) == repr(
            steady_output(circuit, vec, return_info=True)), vec
    assert len(circuit._programs) == 1


def test_stimulus_order_keeps_the_waveform():
    # The benchmark's display switching run (its sequence 3).
    schedules = switching(SEQUENCE_3).schedules
    circuit = elaborate(builtin_network("display"))
    waves = [run_transient(circuit, Stimulus(order, slew=0.5e-9))
             for order in (schedules, reversed_dict(schedules))]
    for series in ("probes", "states"):
        want, got = (getattr(w, series) for w in waves)
        assert list(got) == list(want)
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)
    assert len(circuit._programs) == 1
