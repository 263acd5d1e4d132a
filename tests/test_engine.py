import copy
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from ternsim.core import (LEVELS, VoltageBands, level_to_voltage,
                          voltage_to_level)
from ternsim.devices import MemristorParams, MosfetParams
from ternsim import analysis, cli, engine
from ternsim.analysis import (detect_glitches, expected_outputs,
                              input_vectors, measure_settling)
from ternsim.engine import (NonConvergence, NonFiniteIterate, NotRelaxed,
                            SingularSystem, SolverConfig, SolverError,
                            Stimulus, TransientError, _System, run_transient,
                            steady_output)
from ternsim.netlist import (CellKind, build_cell, builtin_network, parse,
                             serialize)
from ternsim.netlist.cells import GateNetwork, GateSpec, elaborate
from ternsim.netlist.model import (Circuit, Memristor, Mosfet, Port, Resistor,
                                   VSource)

import device_oracle as oracle
from conftest import switching, tiled_display

L0, L1, L2 = LEVELS
P = MemristorParams()
BANDS = VoltageBands.default(1.0)


def pinned_at(circuit, stim, t):
    """Node voltages pinned by the sources and ``stim`` at time t."""
    program = engine._program(circuit)
    table = program.pin_table(stim, np.array([t]))
    return dict(zip(program.pinned, table[0].tolist()))


def dc_system(circuit, fixed, states=None):
    """A workspace on ``circuit``, and its (pins, states, start voltages).

    ``fixed`` gives a voltage to each node of ``program.pinned``, and
    ``states`` a state to some memristors by name; the others keep x0.
    The start is half the highest pin, as in ``steady_output``.  Nothing
    is checked: this is the engine's seam, below its input contract.
    """
    program = engine._program(circuit)
    pins = np.array([fixed[node] for node in program.pinned], dtype=float)
    x = program.x0.copy()
    for name, value in (states or {}).items():
        x[program.mem_names.index(name)] = value
    v0 = np.full(program.n, 0.5 * max([*pins.tolist(), 0.0]))
    return _System(program), pins, x, v0


def counting_compiles(monkeypatch):
    """Count the programs compiled from here on."""
    compiles = []

    class CountingProgram(engine._Program):
        def __init__(self, *args):
            compiles.append(1)
            super().__init__(*args)

    monkeypatch.setattr(engine, "_Program", CountingProgram)
    return compiles


def voltage_at(stim, port, t, vdd):
    """The scalar oracle of ``Stimulus.voltages``: one port at one time."""
    events = stim.schedules[port]
    prev_v = level_to_voltage(events[0][1], vdd)
    for when, level in events:
        v = level_to_voltage(level, vdd)
        if t < when:
            break
        if stim.slew > 0 and t < when + stim.slew:
            return prev_v + (v - prev_v) * (t - when) / stim.slew
        prev_v = v
    return prev_v


def count_linear_solves(monkeypatch):
    """Count the stack solves Newton makes, at the engine's one solve seam."""
    solve = engine._solve_stack
    calls = []

    def counting(a, b):
        calls.append(1)
        return solve(a, b)

    monkeypatch.setattr(engine, "_solve_stack", counting)
    return calls


def divider_circuit():
    return Circuit(name="div", devices=[
        VSource("V1", "top", "0", dc=1.0),
        Memristor("Mtop", "top", "mid", P),
        Memristor("Mbot", "mid", "0", P),
    ], ports=[Port("mid", "out", "mid")])


class TestFrozenStateSolve:
    """DC solves with frozen states, on the engine's workspace."""

    def test_two_memristor_divider(self):
        # closed form: 1 V across 500 (on) over 10k (off)
        system, pins, x, v0 = dc_system(divider_circuit(), {"top": 1.0},
                                        {"Mtop": 1.0, "Mbot": 0.0})
        v = system.solve(x, pins, v0)
        assert v[system.program.index["mid"]] == pytest.approx(
            10_000.0 / 10_500.0, abs=1e-9)

    def test_fixed_node_passthrough(self):
        c = Circuit(name="r", devices=[
            VSource("V1", "a", "0", dc=1.0),
            Resistor("R1", "a", "0", 1000.0),
        ])
        system, pins, x, v0 = dc_system(c, {"a": 1.0})
        assert system.solve(x, pins, v0)[system.program.index["a"]] == 1.0

    def test_tand_divider_with_frozen_states(self):
        cell = build_cell(CellKind.TAND2)
        # low-side device set, high-side off: the canonical AND steady state
        system, pins, x, v0 = dc_system(cell, {"a": 1.0, "b": 0.5},
                                        {"Mu1_a": 0.0, "Mu1_b": 1.0})
        out = system.solve(x, pins, v0)[system.program.index["out"]]
        expected = 0.5 + (500.0 / 10_500.0) * 0.5
        assert 0.5 <= out <= 0.55
        assert out == pytest.approx(expected, abs=1e-9)

    def test_divider_law_many_state_pairs(self):
        c = divider_circuit()
        for x_top, x_bot in itertools.product((0.0, 0.3, 0.7, 1.0), repeat=2):
            g_top = x_top / 500.0 + (1 - x_top) / 10_000.0
            g_bot = x_bot / 500.0 + (1 - x_bot) / 10_000.0
            expected = g_top / (g_top + g_bot)
            system, pins, x, v0 = dc_system(c, {"top": 1.0},
                                            {"Mtop": x_top, "Mbot": x_bot})
            v = system.solve(x, pins, v0)
            assert v[system.program.index["mid"]] == pytest.approx(
                expected, abs=1e-9)

    def test_kcl_residual_bound(self, d13):
        for level in LEVELS:
            fixed = pinned_at(d13, Stimulus.hold({"X": level}), 0.0)
            system, pins, x, v0 = dc_system(d13, fixed)
            x = system.relax(x, pins, v0)[0]
            v = system.solve(x, pins, v0)
            res = oracle.kcl_residual(
                d13, dict(zip(system.program.nodes, v.tolist())),
                system.program.state_dict(x))
            g_max = 1.0 / 500.0
            for node, r in res.items():
                if node not in fixed and node != "0":
                    assert abs(r) < engine.NEWTON_TOL * g_max

    def test_floating_node_is_singular(self):
        c = Circuit(name="bad", devices=[
            VSource("V1", "a", "0", dc=1.0),
            Resistor("R1", "a", "0", 1000.0),
            # gate-only node: no DC path
            Mosfet("T1", "a", "g1", "0", MosfetParams("NMOS", vth=0.3)),
            Mosfet("T2", "a", "g1", "0", MosfetParams("NMOS", vth=0.3)),
        ])
        with pytest.raises(SingularSystem) as e:
            dc_system(c, {"a": 1.0})
        assert e.value.node == "g1"

    def test_floating_island_is_singular(self):
        # a and b conduct to each other but to no pinned node
        c = parse("V1 top 0 DC 1\nR0 top mid 1k\nR1 mid 0 1k\n"
                  "R2 a b 1k\nR3 a b 1k\n.end\n")
        with pytest.raises(SingularSystem) as e:
            dc_system(c, {"top": 1.0})
        assert e.value.node == "a"

    def test_island_holding_the_first_free_node_is_singular(self):
        # The island holds the first free node, a.  A grounding test that
        # took index nfix for a pinned node would miss the island and answer
        # a = b = 0 V through gmin.
        c = parse("V1 vdd 0 DC 1\nR1 a b 1k\nR4 a b 2k\nR2 vdd x 1k\n"
                  "R3 x 0 1k\n.port out X x\n")
        with pytest.raises(SingularSystem) as e:
            steady_output(c, {})
        assert e.value.node == "a"


class TestSolveThenAdvance:
    """One transient step on the workspace: a solve, then ``advance``."""

    def test_state_advance_matches_device_model(self):
        c = Circuit(name="m", devices=[
            VSource("V1", "a", "0", dc=1.0),
            Memristor("M1", "a", "0", P),
        ])
        system, pins, x, v0 = dc_system(c, {"a": 1.0}, {"M1": 0.0})
        v = system.solve(x, pins, v0)
        x = system.advance(x, v, P.tau)
        assert x[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
        assert v[system.program.index["a"]] == 1.0

    def test_subthreshold_states_unchanged(self, d13):
        system, pins, x, v0 = dc_system(d13, {"vdd": 0.0, "X": 0.0})
        x = system.advance(x, system.solve(x, pins, v0), 1e-12)
        assert x.tolist() == [0.0] * len(x)

    def test_iterated_step_reproduces_run_transient(self, d13):
        stim = Stimulus.hold({"X": L2})
        cfg = SolverConfig(t_stop=2e-9)
        w = run_transient(d13, stim, cfg)
        assert len(w.times) == 41
        system, _, x, v = dc_system(d13, pinned_at(d13, stim, 0.0))
        program = system.program
        for k, pins in enumerate(program.pin_table(stim, w.times)):
            for name, state in program.state_dict(x).items():
                assert w.states[name][k] == state, (k, name)
            v = system.solve(x, pins, v)
            for node, series in w.probes.items():
                assert series[k] == v[program.index[node]], (k, node)
            x = system.advance(x, v, cfg.dt)

    def test_finite_branch_power(self):
        c = divider_circuit()
        system, pins, x, v0 = dc_system(c, {"top": 1.0})
        v = system.solve(x, pins, v0)
        at = system.program.index
        for dev in c.memristors():
            bias = v[at[dev.anode]] - v[at[dev.cathode]]
            assert math.isfinite(bias * bias)  # |power| = v^2 / r, r >= 500


class TestTransient:
    def test_d13_held_low(self, d13):
        w = run_transient(d13, Stimulus.hold({"X": L0}),
                          SolverConfig(t_stop=100e-9))
        assert w.port_voltage("Y0")[-1] >= 0.8
        assert w.port_voltage("Y1")[-1] <= 0.2
        assert w.port_voltage("Y2")[-1] <= 0.2

    def test_d13_held_high(self, d13):
        w = run_transient(d13, Stimulus.hold({"X": L2}),
                          SolverConfig(t_stop=50e-9))
        assert w.port_voltage("Y2")[-1] >= 0.8
        assert w.port_voltage("Y0")[-1] <= 0.2
        assert w.port_voltage("Y1")[-1] <= 0.2

    def test_zero_length_schedule(self, d13):
        w = run_transient(d13, Stimulus.hold({"X": L0}),
                          SolverConfig(t_stop=0.0))
        assert len(w.times) == 1

    def test_determinism_bit_identical(self, d13):
        stim = Stimulus({"X": ((0.0, L0), (10e-9, L2))}, slew=1e-9)
        cfg = SolverConfig(t_stop=20e-9)
        w1 = run_transient(d13, stim, cfg)
        w2 = run_transient(d13, stim, cfg)
        assert all(np.array_equal(w1.probes[k], w2.probes[k])
                   for k in w1.probes)
        assert all(np.array_equal(w1.states[k], w2.states[k])
                   for k in w1.states)

    def test_monotone_state_trajectories_with_constant_inputs(self, d29):
        w = run_transient(d29, Stimulus.hold({"A": L2, "B": L1}),
                          SolverConfig(t_stop=20e-9))
        for name, xs in w.states.items():
            diffs = np.diff(xs)
            assert (diffs >= -1e-12).all() or (diffs <= 1e-12).all(), name

    def test_missing_input_port_rejected_and_program_reused(self,
                                                           monkeypatch):
        compiles = counting_compiles(monkeypatch)
        d29 = elaborate(builtin_network("d29"))
        with pytest.raises(ValueError,
                           match="missing input port 'B' of 'd29'"):
            run_transient(d29, Stimulus.hold({"A": L2}))
        with pytest.raises(ValueError,
                           match="missing input port 'X' of 'd13'"):
            run_transient(elaborate(builtin_network("d13")))
        assert len(compiles) == 2
        run_transient(d29, Stimulus.hold({"A": L2, "B": L0}),
                      SolverConfig(t_stop=1e-10))
        assert len(compiles) == 2 and len(d29._programs) == 1

    def test_unknown_stimulus_port_rejected(self, d13):
        with pytest.raises(ValueError,
                           match="unknown input port 'nope' of 'd13'"):
            run_transient(d13, Stimulus.hold({"nope": L0}),
                          SolverConfig(t_stop=1e-9))

    def test_stimulus_on_source_driven_port_rejected(self, d13):
        # the vdd port is an input whose node the supply source drives
        with pytest.raises(ValueError,
                           match="unknown input port 'vdd' of 'd13'"):
            run_transient(d13, Stimulus.hold({"X": L0, "vdd": L2}),
                          SolverConfig(t_stop=1e-9))

    def test_sources_resolved_once_per_run(self, display, monkeypatch):
        sources = Circuit.sources
        calls = []

        def counting(circuit):
            calls.append(1)
            return sources(circuit)

        monkeypatch.setattr(Circuit, "sources", counting)
        w = run_transient(display, Stimulus.hold({"A": L2, "B": L1}),
                          SolverConfig(t_stop=2e-9))
        assert len(w.times) == 41
        assert len(calls) <= 3

    def test_states_bounded(self, d29):
        w = run_transient(d29, Stimulus.hold({"A": L1, "B": L1}),
                          SolverConfig(t_stop=10e-9))
        for xs in w.states.values():
            assert (xs >= 0.0).all() and (xs <= 1.0).all()

    def test_solver_failure_carries_partial_waveform(self, d13, monkeypatch):
        monkeypatch.setattr(engine, "NEWTON_MAX_ITER", 1)
        with pytest.raises(TransientError) as e:
            run_transient(d13, Stimulus.hold({"X": L1}),
                          SolverConfig(t_stop=10e-9))
        assert isinstance(e.value.cause, NonConvergence)
        assert e.value.cause.iterations == 1
        assert e.value.cause.worst_node == "Y2"
        w = e.value.waveform
        assert len(w.times) == 0
        # The analysis functions take the empty waveform too.
        assert measure_settling(w, "Y0", BANDS) is None
        assert detect_glitches(w, Stimulus.hold({"X": L1}), BANDS) == []

    def test_non_finite_solve_fails_at_its_first_iteration(self, d13,
                                                           monkeypatch):
        # No builtin reaches this: a linear solve that returns NaN stops
        # Newton at once, naming the first free node, and the damped retry,
        # which would repeat the same solve, is not made.
        calls = []

        def nan_solve(a, b):
            calls.append(1)
            return np.full(b.shape, np.nan)

        monkeypatch.setattr(engine, "_solve_stack", nan_solve)
        program = engine._program(d13)
        first = program.nodes[program.nfix]
        with pytest.raises(NonFiniteIterate) as e:
            steady_output(d13, {"X": L1})
        assert not isinstance(e.value, NonConvergence)
        assert isinstance(e.value, SolverError)
        assert (e.value.iteration, e.value.node) == (1, first)
        assert len(calls) == 1
        text = str(e.value)
        assert text == f"Newton iterate 1 is not finite at node {first!r}"
        with pytest.raises(TransientError) as e:
            run_transient(d13, Stimulus.hold({"X": L1}),
                          SolverConfig(t_stop=1e-9))
        assert str(e.value.cause) == text
        assert len(e.value.waveform.times) == 0
        report = analysis.verify("analog", "d13")
        assert [r.error for r in report.vectors] == [
            f"NonFiniteIterate: {text}"] * 3

    def test_huge_pin_fails_as_non_finite(self):
        # u * e - 0.5 * e * e is inf - inf at a 1e160 V pin: the invalid flag
        # outside the solve is a NonFiniteIterate naming that pin, not the
        # singular-block LinAlgError.
        circuit = parse("V1 vdd 0 DC 1e160\nR1 vdd y 1k\n"
                        "T1 y vdd 0 NMOS VTH=0.3 K=2m\n.port out Y y\n")
        with pytest.raises(NonFiniteIterate) as e:
            steady_output(circuit, {})
        assert isinstance(e.value, SolverError)
        assert (e.value.iteration, e.value.node) == (1, "vdd")

    def test_failure_mid_run_keeps_the_steps_before(self, d13, monkeypatch):
        stim, cfg = Stimulus.hold({"X": L1}), SolverConfig(t_stop=1e-9)
        want = run_transient(d13, stim, cfg)
        solve, calls = _System.solve, []

        def failing_sixth(self, *args):
            calls.append(1)
            if len(calls) == 6:
                raise NonConvergence(200, "Y2")
            return solve(self, *args)

        monkeypatch.setattr(_System, "solve", failing_sixth)
        with pytest.raises(TransientError) as e:
            run_transient(d13, stim, cfg)
        assert e.value.t == want.times[5] == 5 * cfg.dt
        w = e.value.waveform
        assert w.times.tolist() == want.times[:5].tolist()
        for name, series in w.probes.items():
            assert series.tolist() == want.probes[name][:5].tolist()
        for name, series in w.states.items():
            assert series.tolist() == want.states[name][:5].tolist()

    def test_dt_of_tau_over_2_does_not_warn(self, d13):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_transient(d13, Stimulus.hold({"X": L1}),
                          SolverConfig(dt=250e-12, t_stop=500e-12))

    def test_coarse_dt_warns_at_the_caller(self, d13):
        cfg = SolverConfig(dt=300e-12, t_stop=600e-12)
        with pytest.warns(UserWarning, match="exceeds tau/2") as record:
            run_transient(d13, Stimulus.hold({"X": L1}), cfg)
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("stim,match", [
        (Stimulus.hold({"Q": L1}), "unknown input port 'Q' of 'd13'"),
        (None, "input port 'X' of 'd13'"),
    ])
    def test_bad_pins_raise_before_the_coarse_dt_warning(self, d13, stim,
                                                         match):
        cfg = SolverConfig(dt=300e-12, t_stop=600e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                run_transient(d13, stim, cfg)

    def test_no_coarse_dt_warning_without_memristors(self):
        c = parse("V1 top 0 DC 1\nR1 top mid 1k\nR2 mid 0 1k\n.end\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = run_transient(c, None, SolverConfig(dt=1e-9, t_stop=2e-9))
        assert w.probes["mid"] == pytest.approx([0.5] * 3, abs=1e-9)

    def test_input_slewing_through_pti_threshold_completes(self):
        # At 70.3 ns A passes 0.7 V, where the A-side PTI NMOS sits at
        # threshold: the undamped close-in Newton step two-cycles on a_pout,
        # so only a retry that damps every step converges.
        stim = switching([(0, 2), (2, 2), (2, 0), (1, 2), (1, 1),
                          (2, 0), (2, 1), (1, 1), (2, 1), (1, 0)])
        circuit = elaborate(builtin_network("display"))
        w = run_transient(circuit, stim, SolverConfig(t_stop=71e-9))
        assert len(w.times) == 1421

    def test_kcl_holds_along_a_switching_run(self, sequence_3_run):
        # The display switching run of the benchmark (its sequence 3).
        # Each sample's voltages solve KCL under the states that sample's
        # solve used, as checked by the scalar device models.
        display, w = sequence_3_run
        assert len(w.times) == 2001
        pinned = {"0", "vdd", *(p.node for p in display.ports
                                if p.name in ("A", "B"))}
        worst = 0.0
        for k in range(0, len(w.times), 10):
            volts = {n: float(s[k]) for n, s in w.probes.items()}
            states = {m: float(s[k]) for m, s in w.states.items()}
            res = oracle.kcl_residual(display, volts, states)
            worst = max(worst, max(abs(r) for n, r in res.items()
                                   if n not in pinned))
        assert worst < 2e-9


class TestSteadyOutput:
    def test_display_all_dark_for_8(self, display):
        out = steady_output(display, {"A": L2, "B": L2})
        assert all(v == L0 for v in out.values())

    def test_display_digit_zero(self, display):
        out = steady_output(display, {"A": L0, "B": L0})
        assert out["Yg"] == L2
        assert all(v == L0 for k, v in out.items() if k != "Yg")

    def test_settle_starts_from_relaxed_voltages(self, d13, monkeypatch):
        # The settle solve starts where relaxation ended, not from a cold
        # supply/2 guess, and one settle solve at the relaxed fixed point
        # stands for the whole 20-tau window: few solves, not one per step.
        calls = count_linear_solves(monkeypatch)
        for x in LEVELS:
            calls.clear()
            steady_output(d13, {"X": x})
            assert 0 < len(calls) <= 24, x

    def test_one_system_per_call(self, monkeypatch):
        # Nine d29 vectors on one circuit compile one program; each call
        # still gets a workspace of its own.
        compiles, workspaces = counting_compiles(monkeypatch), []

        class Counting(_System):
            def __init__(self, *args):
                workspaces.append(1)
                super().__init__(*args)

        monkeypatch.setattr(engine, "_System", Counting)
        d29 = elaborate(builtin_network("d29"))
        for vec in input_vectors("d29"):
            assert steady_output(d29, vec) == expected_outputs("d29", vec)
        assert len(compiles) == 1
        assert len(workspaces) == 9

    def test_missing_input_port_rejected_and_program_reused(self,
                                                           monkeypatch):
        compiles = counting_compiles(monkeypatch)
        d29 = elaborate(builtin_network("d29"))
        with pytest.raises(ValueError,
                           match="missing input port 'B' of 'd29'"):
            steady_output(d29, {"A": L2})
        with pytest.raises(ValueError, match="input port 'X' of 'd13'"):
            steady_output(elaborate(builtin_network("d13")), {})
        assert len(compiles) == 2
        assert steady_output(d29, {"A": L2, "B": L1}) == expected_outputs(
            "d29", {"A": L2, "B": L1})
        assert len(compiles) == 2 and len(d29._programs) == 1

    def test_settle_info(self, d13):
        out, info = steady_output(d13, {"X": L1}, return_info=True)
        assert info["settle_time"] < 20e-9
        assert set(info["voltages"]) == {"Y0", "Y1", "Y2"}
        # 20 tau is one 10 ns step: the window still spans two samples.
        _, info = steady_output(d13, {"X": L1}, cfg=SolverConfig(dt=10e-9),
                                return_info=True)
        assert info["t_run"] == 10e-9


BUILTIN_VECTORS = [(name, vec) for name in ("d13", "d29", "display")
                   for vec in input_vectors(name)]


def vector_id(case):
    name, vec = case
    return name + "-" + "".join(f"{p}{int(lv)}" for p, lv in vec.items())


def walked_settle(circuit, inputs, cfg):
    """``steady_output``'s answer by walking every settle step.

    From the relaxed states, each step solves the network with its states
    and then advances them; a step whose states repeat the last step's
    reuses its voltages, since it would solve the same system.  The window
    closes once every output has held one region for 20 tau, however short
    ``cfg.t_stop`` is.  Returns ``steady_output``'s info dict.
    """
    supply = engine.supply_voltage(circuit)
    bands = VoltageBands.default(supply)
    fixed = pinned_at(circuit, Stimulus.hold(inputs), 0.0)
    system, pins, x, v = dc_system(circuit, fixed)
    x, v = system.relax(x, pins, v)
    prog = system.program
    window = max(2, round(20.0 * prog.min_tau / cfg.dt))
    run_len, regions, settle_time, last_x = 0, None, 0.0, None
    for k in range(engine.MAX_STEPS):
        t = k * cfg.dt
        if last_x is None or x.tolist() != last_x.tolist():
            v = system.solve(x, pins, v)
        now = bands.codes(v[prog.out_rows]).tolist()
        if now == regions:
            run_len += 1
        else:
            regions, run_len, settle_time = now, 1, t
        if run_len >= window:
            return {"settle_time": settle_time,
                    "voltages": dict(zip(prog.outputs,
                                         v[prog.out_rows].tolist())),
                    "states": prog.state_dict(x), "t_run": t}
        last_x, x = x, system.advance(x, v, cfg.dt)
    raise AssertionError(f"no settle window in {engine.MAX_STEPS} steps")


class TestCompileOnce:
    """One program per circuit, shared by every call."""

    def test_interleaved_vectors_match_fresh_circuits(self):
        circuits = {d: elaborate(builtin_network(d))
                    for d in ("d13", "d29", "display")}
        cases = [(d, vec) for d in circuits for vec in input_vectors(d)]
        assert len(cases) == 21
        random.Random(15).shuffle(cases)
        for d, vec in cases:
            got = steady_output(circuits[d], vec, return_info=True)
            want = steady_output(elaborate(builtin_network(d)), vec,
                                 return_info=True)
            assert repr(got) == repr(want), (d, vec)
        assert all(len(c._programs) == 1 for c in circuits.values())

    def test_pin_orders_share_one_program(self):
        d29 = elaborate(builtin_network("d29"))
        orders = ({"A": L1, "B": L0}, {"B": L0, "A": L1})
        want = repr(steady_output(elaborate(builtin_network("d29")),
                                  orders[0], return_info=True))
        for vec in orders + orders:
            assert repr(steady_output(d29, vec, return_info=True)) == want
        assert len(d29._programs) == 1
        assert engine._program(d29).pinned == ("vdd", "A", "B")

    def test_copies_start_without_compiled_programs(self):
        circuit = elaborate(builtin_network("d13"))
        steady_output(circuit, {"X": L1})
        assert len(circuit._programs) == 1
        for again in (copy.copy(circuit), copy.deepcopy(circuit),
                      pickle.loads(pickle.dumps(circuit))):
            assert again == circuit and again._programs == {}
            assert dict(again.cells) == dict(circuit.cells)

    def test_workspaces_keep_their_own_stamps(self, d29):
        rng = np.random.default_rng(3)
        pins = np.array([1.0, 0.5, 0.0])
        first, second = (_System(engine._program(d29)) for _ in range(2))
        assert first.program is second.program
        x1, x2 = (rng.random(len(first.program.mem_names)) for _ in range(2))
        v0 = np.full(first.program.n, 0.5)
        want = first.solve(x1, pins, v0)
        second.solve(x2, pins, v0)
        # newton reads the memristor stamps first.solve wrote, not second's.
        assert first.newton(pins, v0).tobytes() == want.tobytes()

    def test_threads_share_one_program(self):
        d29 = elaborate(builtin_network("d29"))
        vectors = input_vectors("d29")
        want = [repr(steady_output(elaborate(builtin_network("d29")), vec,
                                   return_info=True)) for vec in vectors]
        got = {}

        def work(i):
            for j, vec in enumerate(vectors[i:] + vectors[:i]):
                got[i, (i + j) % 9] = repr(
                    steady_output(d29, vec, return_info=True))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {(i, j): want[j] for i in range(4) for j in range(9)}
        assert len(d29._programs) == 1

    def test_program_arrays_read_only(self, display):
        steady_output(display, {"A": L1, "B": L2})
        program = engine._program(display)
        arrays = [a for a in vars(program).values()
                  if isinstance(a, np.ndarray)]
        assert len(arrays) > 15
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    @pytest.mark.parametrize("name,vec", BUILTIN_VECTORS)
    def test_settle_jump_matches_walk(self, request, name, vec):
        # Walking the window step by step moves no state and no voltage,
        # and a t_stop short of the window does not change the answer.
        circuit = request.getfixturevalue(name)
        walked = walked_settle(circuit, vec, SolverConfig())
        short = SolverConfig(t_stop=walked["t_run"] - 3 * SolverConfig().dt)
        _, info = steady_output(circuit, vec, cfg=short, return_info=True)
        assert repr(info) == repr(walked)


def side_by_side(*names):
    """Builtin decoders in one network, each on its own inputs.

    Every net but an input, and every gate and output port, is prefixed
    with its decoder's name.
    """
    parts = [(name, builtin_network(name)) for name in names]

    def net(name, base, n):
        return n if n in base.inputs else f"{name}_{n}"

    gates = tuple(GateSpec(g.kind, f"{name}_{g.name}",
                           tuple(net(name, base, n) for n in g.inputs),
                           net(name, base, g.output))
                  for name, base in parts for g in base.gates)
    outputs = tuple((f"{name}_{p}", net(name, base, n))
                    for name, base in parts for p, n in base.outputs)
    return GateNetwork("_".join(names),
                       tuple(i for _, base in parts for i in base.inputs),
                       outputs, gates)


@pytest.fixture(scope="module")
def d13_d29():
    return elaborate(side_by_side("d13", "d29"))


class TestBlocks:
    """Independent blocks of free nodes, solved one block size at a time."""

    def test_one_block_keeps_circuit_order(self, display):
        system = _System(engine._program(display))
        assert [a.shape for a, *_ in system._stacks] == [(1, 57, 57)]
        assert list(system.program.nodes) == list(dict.fromkeys(
            ["0", "vdd", "A", "B", *(n for d in display.devices
                                     for n in d.nodes)]))

    @pytest.mark.parametrize("k", [2, 3])
    def test_tiled_copies_equal_single_display(self, display, k):
        tiled = elaborate(tiled_display(k))
        assert [a.shape for a, *_ in _System(engine._program(tiled))
                ._stacks] == [(k, 57, 57)]
        for vec in input_vectors("display"):
            _, one = steady_output(display, vec, return_info=True)
            _, many = steady_output(tiled, vec, return_info=True)
            # == on floats: equal to the last bit (no NaN can get here).
            assert many["settle_time"] == one["settle_time"]
            for i in range(k):
                assert {p: many["voltages"][f"t{i}_{p}"]
                        for p in one["voltages"]} == one["voltages"], (vec, i)
                assert {m: many["states"][f"Mt{i}_{m[1:]}"]
                        for m in one["states"]} == one["states"], (vec, i)

    def test_blocks_of_two_sizes(self, d13, d29, d13_d29):
        system = _System(engine._program(d13_d29))
        assert [a.shape for a, *_ in system._stacks] == [(1, 7, 7),
                                                          (1, 29, 29)]
        # Newton stops when the slower block converges, so the other block
        # may take one more, smaller step than it takes alone.
        for i, ab in enumerate(input_vectors("d29")):
            x = {"X": LEVELS[i % 3]}
            vec = {**x, **ab}
            levels, info = steady_output(d13_d29, vec, return_info=True)
            for name, alone, own in (("d13", d13, x), ("d29", d29, ab)):
                want = expected_outputs(name, own)
                assert {p: levels[f"{name}_{p}"] for p in want} == want
                _, single = steady_output(alone, own, return_info=True)
                for p, v in single["voltages"].items():
                    assert info["voltages"][f"{name}_{p}"] == pytest.approx(
                        v, rel=0, abs=1e-9)
            # Largest KCL residual at a free node: below NEWTON_TOL volts
            # across the largest conductance (1/500 S), as for d13 alone.
            fixed = pinned_at(d13_d29, Stimulus.hold(vec), 0.0)
            system, pins, x, v0 = dc_system(d13_d29, fixed, info["states"])
            volts = dict(zip(system.program.nodes,
                             system.solve(x, pins, v0).tolist()))
            res = oracle.kcl_residual(d13_d29, volts, info["states"])
            assert max(abs(r) for node, r in res.items()
                       if node not in fixed and node != "0") < (
                engine.NEWTON_TOL / 500.0)

    @staticmethod
    def singular_node(circuit, monkeypatch, singular_at_size):
        """The node SingularSystem names with the seam patched; no warning
        may escape (the suite turns warnings into errors)."""
        monkeypatch.setattr(engine, "_solve_stack", singular_at_size)
        fixed = pinned_at(circuit, Stimulus.hold({"X": L1, "A": L0, "B": L2}),
                          0.0)
        system, pins, x, v0 = dc_system(circuit, fixed)
        with pytest.raises(SingularSystem) as e:
            system.solve(x, pins, v0)
        monkeypatch.undo()
        assert e.value.node in circuit.nodes and e.value.node not in fixed
        return e.value.node

    @staticmethod
    def raising_at(size):
        """A seam that raises LinAlgError for the blocks of ``size``."""
        solve = engine._solve_stack

        def singular_at_size(a, b):
            if a.shape[-1] == size:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        return singular_at_size

    @pytest.mark.parametrize("size,part", [(7, "d13_"), (29, "d29_")])
    def test_singular_block_names_its_node(self, d13_d29, monkeypatch,
                                           size, part):
        node = self.singular_node(d13_d29, monkeypatch, self.raising_at(size))
        assert node.startswith(part)

    @pytest.mark.parametrize("size", [7, 29])
    def test_singular_gufunc_names_the_same_node(self, d13_d29, monkeypatch,
                                                 size):
        # A genuinely singular stack through LAPACK: Newton's error state
        # turns the gufunc's invalid flag into the SingularSystem that a
        # raised LinAlgError gives, with no RuntimeWarning.
        solve = engine._solve_stack

        def zeroed(a, b):
            return solve(np.zeros_like(a) if a.shape[-1] == size else a, b)

        with np.errstate(all="ignore"):
            assert np.isnan(solve(np.zeros((1, size, size)),
                                  np.ones((1, size, 1)))).all()
        assert (self.singular_node(d13_d29, monkeypatch, zeroed)
                == self.singular_node(d13_d29, monkeypatch,
                                      self.raising_at(size)))

    def test_lapack_gufunc_present(self):
        # The seam calls numpy's private LAPACK gufunc; if numpy moves or
        # reshapes it, say which numpy did.
        from numpy.linalg import _umath_linalg
        gufunc = getattr(_umath_linalg, "solve", None)
        assert isinstance(gufunc, np.ufunc), (
            f"numpy {np.__version__} has no ufunc "
            f"numpy.linalg._umath_linalg.solve")
        assert gufunc.signature == "(m,m),(m,n)->(m,n)" and (
            "dd->d" in gufunc.types), (
            f"numpy {np.__version__} changed numpy.linalg._umath_linalg.solve:"
            f" {gufunc.signature} {gufunc.types}")

    @pytest.mark.parametrize("name", ["d13", "d29", "display", "tiled"])
    def test_seam_matches_numpy_solve(self, request, name, monkeypatch):
        # Every stack that steady_output solves, on every vector, solves to
        # the same bits through the seam as through np.linalg.solve.
        circuit = (elaborate(tiled_display(3)) if name == "tiled"
                   else request.getfixturevalue(name))
        solve = engine._solve_stack
        shapes = set()

        def checking(a, b):
            x = solve(a, b)
            assert x.tobytes() == np.linalg.solve(a, b).tobytes()
            shapes.add(a.shape)
            return x

        monkeypatch.setattr(engine, "_solve_stack", checking)
        for vec in input_vectors("display" if name == "tiled" else name):
            steady_output(circuit, vec)
        assert shapes == {(3 if name == "tiled" else 1,) + 2 * (
            {"d13": 7, "d29": 29}.get(name, 57),)}

    def test_numpy_only(self):
        # scipy.sparse.linalg would add about 30 MB and 0.4 s to a run.
        script = (
            "import sys\n"
            "from conftest import tiled_display\n"
            "from ternsim import steady_output\n"
            "from ternsim.core import LEVELS\n"
            "from ternsim.netlist import elaborate\n"
            "steady_output(elaborate(tiled_display(2)),\n"
            "              {'A': LEVELS[1], 'B': LEVELS[2]})\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
        tests = Path(__file__).parent
        path = [str(tests.parent / "src"), str(tests),
                os.environ.get("PYTHONPATH", "")]
        out = subprocess.run([sys.executable, "-c", script], check=True,
                             capture_output=True, text=True,
                             env={**os.environ,
                                  "PYTHONPATH": os.pathsep.join(path)})
        assert out.stdout.strip() == "[]"


def dense_jacobian(circuit, system, x, v):
    """The Jacobian at ``v`` and states ``x`` by a plain loop of ``+=``.

    Rows and columns in the system's node order: resistors, memristors,
    FETs, then gmin, each kind in circuit order.
    """
    prog = system.program
    at = prog.index
    jac = np.zeros((prog.n, prog.n))
    states, volts = prog.state_dict(x), v.tolist()

    def pair(n1, n2, g):
        i, j = at[n1], at[n2]
        jac[i, i] += g
        jac[i, j] -= g
        jac[j, j] += g
        jac[j, i] -= g

    for dev in circuit.devices:
        if isinstance(dev, Resistor):
            pair(dev.n1, dev.n2, 1.0 / dev.ohms)
    for dev in circuit.devices:
        if isinstance(dev, Memristor):
            pair(dev.anode, dev.cathode,
                 1.0 / oracle.memristance(states[dev.name], dev.params))
    for dev in circuit.devices:
        if isinstance(dev, Mosfet):
            d, g, s = (at[n] for n in dev.nodes)
            _, *partials = oracle.mosfet_small_signal(dev.params, volts[g],
                                                      volts[d], volts[s])
            for row, sign in ((d, 1.0), (s, -1.0)):
                for col, p in zip((g, d, s), partials):
                    jac[row, col] += sign * p
    for k in range(prog.nfix, prog.n):
        jac[k, k] += engine.GMIN
    return jac


PINS = {"d13": ["vdd", "X"], "d29": ["vdd", "A", "B"],
        "display": ["vdd", "A", "B"], "d13_d29": ["vdd", "X", "A", "B"]}


class TestJacobian:
    """One stamp program against a dense loop, and reuse across states."""

    @pytest.mark.parametrize("name", list(PINS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_assembly_matches_dense_loop(self, request, name, seed,
                                         monkeypatch):
        circuit = request.getfixturevalue(name)
        system = _System(engine._program(circuit))
        p = system.program
        # Sources first, then the signal inputs in port order.
        assert p.pinned == tuple(PINS[name])
        nf = p.nfix
        rng = np.random.default_rng(seed)
        x = rng.random(len(p.mem_names))
        x[:2] = 0.0, 1.0
        v = rng.uniform(-0.2, 1.2, p.n)
        v[0] = 0.0
        # One iteration assembles the Jacobian at v, then gives up.
        monkeypatch.setattr(engine, "NEWTON_MAX_ITER", 1)
        with pytest.raises(NonConvergence):
            system.solve(x, v[1:nf], v)
        want = dense_jacobian(circuit, system, x, v)
        done = 0
        for a, coupling, _, rows in system._stacks:
            count, size = a.shape[:2]
            for b in range(count):
                block = nf + rows.start + b * size + np.arange(size)
                assert np.array_equal(a[b], want[np.ix_(block, block)])
                assert np.array_equal(coupling[b], want[block, :nf])
                # Nothing couples the block to another one.
                assert not np.delete(want[block], [*range(nf), *block],
                                     axis=1).any()
            done += rows.stop - rows.start
        assert done == p.n - nf

    def test_reused_system_matches_fresh_ones(self, d29):
        rng = np.random.default_rng(7)
        pins = np.array([1.0, 0.5, 0.0])
        reused = _System(engine._program(d29))
        x1, x2 = (rng.random(len(reused.program.mem_names)) for _ in range(2))
        v0 = np.full(reused.program.n, 0.5)
        got = [reused.solve(x, pins, v0) for x in (x1, x2, x1)]
        want = [_System(engine._program(d29)).solve(x, pins, v0)
                for x in (x1, x2, x1)]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert not np.array_equal(got[0], got[1])


class TestRelaxation:
    def test_tand_adjacent_levels_reach_divider_state(self):
        system, pins, x, v = dc_system(build_cell(CellKind.TAND2),
                                       {"a": 1.0, "b": 0.5})
        x = system.relax(x, pins, v)[0]
        assert system.program.state_dict(x) == {"Mu1_a": 0.0, "Mu1_b": 1.0}

    def test_equal_inputs_hold_initial_state(self):
        system, pins, x, v = dc_system(build_cell(CellKind.TOR2),
                                       {"a": 0.5, "b": 0.5})
        x = system.relax(x, pins, v)[0]
        assert system.program.state_dict(x) == {"Mu1_in1": 0.0,
                                                "Mu1_in2": 0.0}

    def test_pass_cap_raises_not_relaxed(self, d13, d29, monkeypatch,
                                         tmp_path):
        # A solve whose first memristor is reverse-biased when set and
        # forward-biased when reset flips it on every pass: the cap must
        # raise, not return states the voltages were not solved with.
        solve = _System.solve

        def flipping(self, x, *args, **kwargs):
            v = solve(self, x, *args, **kwargs)
            a, c = self.program.mem_ac[:, 0]
            v[a] = v[c] + (1.0 if x[0] < 0.5 else -1.0)
            return v

        monkeypatch.setattr(_System, "solve", flipping)
        first = d13.memristors()[0].name
        system, pins, x, v = dc_system(d13, {"vdd": 1.0, "X": 0.5})
        with pytest.raises(NotRelaxed) as e:
            system.relax(x, pins, v)
        assert (e.value.passes, e.value.memristor) == (8, first)
        assert f"{first!r} still flips" in str(e.value)
        # A circuit of more than six memristors gets two passes more.
        system, pins, x, v = dc_system(d29, {"vdd": 1.0, "A": 0.5, "B": 0.5})
        with pytest.raises(NotRelaxed) as e:
            system.relax(x, pins, v)
        assert e.value.passes == len(x) + 2 > 8
        with pytest.raises(NotRelaxed):
            steady_output(d13, {"X": L1})
        assert cli.main(["verify", "--decoder", "d13", "--backend",
                         "analog", "--out", str(tmp_path)]) == 2
        report = (tmp_path / "verify_d13_analog.json").read_text()
        assert report.count("NotRelaxed") == 3

    def test_state_moving_at_fixed_point_raises(self):
        # Thresholds of 1 pV sit below relax's 1 nV tie band, and M1's
        # forward bias is 2.3e-10 V: relax leaves it at x0, yet every step
        # grows it.  steady_output names it rather than report a state
        # that is still moving.
        circuit = parse(NEAR_TIE_NETLIST)
        system, pins, x, v = dc_system(circuit, {"vdd": 1.0})
        x = system.relax(x, pins, v)[0]
        assert system.program.state_dict(x) == {"M1": 0.0}
        walked = walked_settle(circuit, {}, SolverConfig())
        assert 0.0 < walked["states"]["M1"] < 1.0
        with pytest.raises(NotRelaxed) as e:
            steady_output(circuit, {})
        assert (e.value.passes, e.value.memristor) == (None, "M1")
        assert str(e.value) == ("memristor 'M1' still moves at the relaxed "
                                "fixed point")

    def test_guard_catches_a_moved_state(self, d13, monkeypatch):
        # One ulp of movement in one state is enough to fail the check.
        advance = _System.advance

        def nudged(self, x, v, dt):
            new = advance(self, x, v, dt)
            new[1] = np.nextafter(new[1], 0.5)
            return new

        monkeypatch.setattr(_System, "advance", nudged)
        second = d13.memristors()[1].name
        for x in LEVELS:
            with pytest.raises(NotRelaxed) as e:
                steady_output(d13, {"X": x})
            assert e.value.memristor == second


NEAR_TIE_NETLIST = """\
V1 vdd 0 DC 1
R1 vdd a 1k
R2 a 0 1k
R3 vdd b 1k
R4 b 0 1.000000001k
M1 b a RON=500 ROFF=10k VON=1p VOFF=1p TAU=500p X0=0
R5 vdd y 1k
R6 y 0 1k
.port out Y y
.port in vdd vdd
"""


def damped_relax(system, pins, x, v):
    """The polarity rule with every pass a solve at DAMPING: relax as it
    was before its passes took undamped steps.

    Returns the states each pass solved with, and the final (x, v).
    """
    seen = []
    for _ in range(max(8, len(x) + 2)):
        seen.append(x.tolist())
        v = system.solve(x, pins, v, engine.DAMPING)
        va, vc = v[system.program.mem_ac]
        bias = va - vc
        new = np.where(bias > 1e-9, 1.0, np.where(bias < -1e-9, 0.0, x))
        if np.array_equal(new, x):
            return seen, x, v
        x = new
    raise AssertionError("damped passes found no fixed point")


def distinct(seq):
    """``seq`` without consecutive repeats."""
    return [item for item, _ in itertools.groupby(seq)]


@pytest.fixture(scope="module")
def parsed_builtins():
    return {name: parse(serialize(elaborate(builtin_network(name))))
            for name in ("d13", "d29", "display")}


class TestRelaxPath:
    """Undamped relax passes visit the states that damped passes visit."""

    def check_same_path(self, circuit, vec, monkeypatch):
        fixed = pinned_at(circuit, Stimulus.hold(vec), 0.0)
        system, pins, x, v = dc_system(circuit, fixed)
        seen = []
        solve = system.solve

        def recording(x, *args, **kwargs):
            seen.append(x.tolist())
            return solve(x, *args, **kwargs)

        system.solve = recording
        x, v = system.relax(x, pins, v)
        want_seen, want_x, want_v = damped_relax(*dc_system(circuit, fixed))
        assert distinct(seen) == distinct(want_seen)
        assert x.tolist() == want_x.tolist()
        # Two solves converged to NEWTON_TOL differ by about the step after
        # their last one: up to 6.5e-12 V here, on d29's outputs.
        assert np.abs(v - want_v).max() <= 1e-11
        # The settle solve starts from there: steady_output's answers
        # are those of damped passes, its voltages within 1e-12 V.
        levels, info = steady_output(circuit, vec, return_info=True)
        monkeypatch.setattr(_System, "relax", lambda system, x, pins, v:
                            damped_relax(system, pins, x, v)[1:])
        want_levels, want = steady_output(circuit, vec, return_info=True)
        assert levels == want_levels
        assert ((info["states"], info["settle_time"], info["t_run"])
                == (want["states"], want["settle_time"], want["t_run"]))
        assert max(abs(volts - want["voltages"][port])
                   for port, volts in info["voltages"].items()) <= 1e-12

    @pytest.mark.parametrize("case", BUILTIN_VECTORS, ids=vector_id)
    def test_builtin_vectors(self, parsed_builtins, case, monkeypatch):
        name, vec = case
        self.check_same_path(parsed_builtins[name], vec, monkeypatch)

    def test_side_by_side(self, d13_d29, monkeypatch):
        self.check_same_path(d13_d29, {"X": L1, "A": L2, "B": L0},
                             monkeypatch)

    def test_linear_solve_budget(self, d13, d29, display, monkeypatch):
        # Undamped passes: 485 linear solves for the 21 vectors, against
        # 575 with every pass damped, and no Newton solve needs the retry.
        calls = count_linear_solves(monkeypatch)
        dampings = []
        newton = _System.newton

        def recording(self, fixed_vals, v0, damping=engine.DAMPING):
            dampings.append(damping)
            return newton(self, fixed_vals, v0, damping)

        monkeypatch.setattr(_System, "newton", recording)
        counts = []
        for _ in range(2):
            calls.clear()
            for circuit in (d13, d29, display):
                for vec in input_vectors(circuit.name):
                    steady_output(circuit, vec)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 485
        # Counted at the seam, the same 485 calls that np.linalg.solve saw
        # before the engine called LAPACK's gufunc directly.
        assert counts[0] == 485
        assert 1.0 in dampings and engine.RETRY_DAMPING not in dampings


class TestLevelsFromCodes:
    """steady_output reads its levels off the region codes of its output
    voltages; they must be voltage_to_level's levels of those voltages."""

    @staticmethod
    def check(circuit, vec, bands=BANDS):
        levels, info = steady_output(circuit, vec, bands, return_info=True)
        assert list(levels) == list(info["voltages"])
        assert levels == {p: voltage_to_level(v, bands)
                          for p, v in info["voltages"].items()}
        return levels

    @pytest.mark.parametrize("case", BUILTIN_VECTORS, ids=vector_id)
    def test_builtin_vectors(self, request, case):
        name, vec = case
        self.check(request.getfixturevalue(name), vec)

    def test_tiled_display(self):
        tiled = elaborate(tiled_display(8))
        for vec in input_vectors("display"):
            self.check(tiled, vec)

    def test_gap_codes_read_indeterminate(self, d29):
        # Narrow bands put d29's low outputs (0.078-0.118 V) on both sides
        # of lo_max and its high output (0.89-0.90 V) in the upper gap.
        bands = VoltageBands(1.0, 0.1, 0.4, 0.6, 0.95)
        seen = set()
        for vec in input_vectors("d29"):
            seen.update(map(repr, self.check(d29, vec, bands).values()))
        assert seen == {"L0", "Indeterminate"}


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0}, {"dt": -1e-9}, {"dt": math.nan}, {"dt": math.inf},
        {"t_stop": -1e-9}, {"t_stop": math.nan}, {"t_stop": math.inf},
    ])
    def test_bad_settings_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(**kwargs)

    def test_constants_as_documented(self):
        # The README states each of these.
        assert (engine.NEWTON_TOL, engine.NEWTON_MAX_ITER, engine.DAMPING,
                engine.RETRY_DAMPING, engine.GMIN, engine.MAX_STEP_VOLTS,
                engine.MAX_STEPS) == (1e-6, 200, 0.7, 0.3, 1e-15, 0.5, 10**6)

    def test_zero_length_run_allowed(self):
        assert SolverConfig(t_stop=0.0).t_stop == 0.0

    def test_step_count_capped(self):
        limit = engine.MAX_STEPS
        assert SolverConfig(t_stop=50e-12 * limit).steps == limit
        for t_stop in (50e-12 * (limit + 1), 1e300):
            with pytest.raises(ValueError, match="exceeds the limit"):
                SolverConfig(t_stop=t_stop)


class TestRail:
    """Levels drive at the circuit's own supply, and one rule says which
    input ports a caller drives."""

    @staticmethod
    def assert_pins_at_1v2(circuit, monkeypatch):
        """``circuit``, d13 on a 1.2 V supply, pins X at 0, 0.6 and 1.2 V in
        both ``run_transient`` and ``steady_output``."""
        assert engine.supply_voltage(circuit) == 1.2
        solve, pinned = _System.solve, []

        def recording(system, x, fixed_vals, *args, **kwargs):
            pinned.append(fixed_vals[system.program.pinned.index("X")])
            return solve(system, x, fixed_vals, *args, **kwargs)

        monkeypatch.setattr(_System, "solve", recording)
        for level, volts in zip(LEVELS, (0.0, 0.6, 1.2)):
            w = run_transient(circuit, Stimulus.hold({"X": level}),
                              SolverConfig(t_stop=0.1e-9))
            assert w.probes["X"].tolist() == [volts, volts, volts]
            pinned.clear()
            steady_output(circuit, {"X": level})
            assert pinned and set(pinned) == {volts}

    def test_levels_pin_at_the_supply_rails(self, d13, monkeypatch):
        d13_12 = parse(serialize(d13).replace("DC 1.0", "DC 1.2"))
        self.assert_pins_at_1v2(d13_12, monkeypatch)

    def test_a_pwl_supply_is_the_rail(self, d13, monkeypatch):
        # Only DC sources used to count: this supply read as 1 V, and
        # run_transient pinned L1 at 0.5 V under a 1.2 V vdd.
        text = serialize(d13)
        pwl = parse(text.replace("DC 1.0", "PWL(0 1.2 1n 1.2)"))
        dc = parse(text.replace("DC 1.0", "DC 1.2"))
        for x in LEVELS:
            assert steady_output(pwl, {"X": x}) == steady_output(dc, {"X": x})
        self.assert_pins_at_1v2(pwl, monkeypatch)

    def test_a_power_up_supply_holds_its_final_value(self, d13):
        # steady_output used to pin each source at t = 0: this vdd sat at
        # 0 V and every output read L0 on every vector.
        text = serialize(d13)
        ramp = parse(text.replace("DC 1.0", "PWL(0 0 1n 1.0)"))
        dc = parse(text)
        for x in LEVELS:
            got = steady_output(ramp, {"X": x}, return_info=True)
            assert got[0] == expected_outputs("d13", {"X": x})
            assert repr(got) == repr(steady_output(dc, {"X": x},
                                                   return_info=True))

    @pytest.mark.parametrize("sources,supply", [
        ("", 1.0),
        ("V1 a 0 PWL(0 0 1n 1.5 2n 1.0)\n", 1.5),
        ("V1 a 0 DC 0.8\nV2 b 0 PWL(0 0.5 1n 0.7)\n", 0.8),
        ("V1 a 0 DC 0.8\nV2 b 0 PWL(0 0 1n 0.9)\n", 0.9),
    ], ids=["no-source", "pwl-peak", "dc-above-pwl", "pwl-above-dc"])
    def test_supply_is_the_highest_source_value(self, sources, supply):
        circuit = parse(sources + "R1 a b 1k\nR2 b 0 1k\nR3 a 0 1k\n")
        assert engine.supply_voltage(circuit) == supply


class TestStimulus:
    def test_slew_interpolation(self):
        stim = Stimulus({"X": ((0.0, L0), (10e-9, L2))}, slew=2e-9)
        got = stim.voltages("X", np.array([0.0, 11e-9, 12e-9, 50e-9]), 1.0)
        assert got.tolist() == pytest.approx([0.0, 0.5, 1.0, 1.0])
        assert got[[0, 2, 3]].tolist() == [0.0, 1.0, 1.0]
        assert got.tolist() == [voltage_at(stim, "X", t, 1.0)
                                for t in (0.0, 11e-9, 12e-9, 50e-9)]

    def test_validation(self):
        with pytest.raises(ValueError):
            Stimulus({"X": ((0.0, L0), (0.0, L2))})
        with pytest.raises(ValueError):
            Stimulus({"X": ((0.0, L0), (1e-9, L2))}, slew=2e-9)
        with pytest.raises(ValueError, match="shorter than the minimum dwell"):
            Stimulus({"X": ((0.0, L0), (1e-9, L2))}, slew=1e-9)

    @pytest.mark.parametrize("kwargs", [
        {"slew": math.nan}, {"slew": math.inf},
        {"schedules": {"X": ((0.0, L0), (math.nan, L2))}},
        {"schedules": {"X": ((math.nan, L0),)}},
        {"schedules": {"X": ((0.0, L0), (math.inf, L2))}},
    ])
    def test_non_finite_settings_rejected(self, kwargs):
        args = {"schedules": {"X": ((0.0, L0), (10e-9, L2))}, **kwargs}
        with pytest.raises(ValueError, match="finite"):
            Stimulus(**args)

    @pytest.mark.parametrize("schedule,match", [
        ((), "'X' is empty"),
        (((0.0, -1),), "level -1 for 'X'"),
        (((0.0, L0), (1e-9, 2.9)), "level 2.9 for 'X'"),
        (((0.0, 7),), "level 7 for 'X'"),
        (((0.0, "L1"),), "level 'L1' for 'X'"),
        (((0.0, 3),), "level 3 for 'X': 3 is not a ternary level$"),
    ])
    def test_bad_schedule_rejected(self, schedule, match):
        with pytest.raises(ValueError, match=match):
            Stimulus({"X": schedule})

    @pytest.mark.parametrize("vdd", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_vdd_rejected(self, d13, vdd):
        # Levels drive at the circuit's supply: the source refuses a NaN or
        # an inf, and the rails refuse a supply of 0 V or below.
        assert d13.devices[0].name == "Vvdd"
        with pytest.raises(ValueError, match="must be finite"):
            supply = VSource("Vvdd", "vdd", "0", dc=vdd)
            run_transient(Circuit("d13", (supply, *d13.devices[1:]),
                                  d13.ports), Stimulus.hold({"X": L1}),
                          SolverConfig(t_stop=1e-9))

    def test_integer_levels_accepted(self):
        stim = Stimulus({"X": ((0.0, 0), (1e-9, 2), (2e-9, 1))})
        assert stim.voltages("X", np.array([0.0, 1e-9, 2e-9]),
                             1.0).tolist() == [0.0, 1.0, 0.5]

    def test_event_times_merged(self):
        stim = Stimulus({"A": ((0.0, L0), (5e-9, L2)),
                         "B": ((0.0, L1), (7e-9, L0))})
        assert stim.event_times() == (0.0, 5e-9, 7e-9)


class TestSchedule:
    """The pinned-voltage table against the scalar drivers, bit for bit."""

    @staticmethod
    def circuit():
        return Circuit(name="sched", devices=[
            VSource("V1", "vdd", "0", dc=1.2),
            VSource("V2", "p", "0", pwl=((1e-9, 0.0), (2e-9, 0.3),
                                         (2.05e-9, 1.0), (3.5e-9, 0.25))),
            Memristor("M1", "x", "0", P), Memristor("M2", "y", "0", P),
            Memristor("M3", "p", "0", P), Memristor("M4", "vdd", "0", P),
        ], ports=[Port("X", "in", "x"), Port("Y", "in", "y")])

    @staticmethod
    def instants(stim):
        """A grid, plus each event and ramp end and their neighbours."""
        marks = [0.0, 1e-9, 2e-9, 2.05e-9, 3.5e-9]
        for t in stim.event_times():
            marks += [t, t + stim.slew]
        times = [*(k * 0.05e-9 for k in range(121)), -1e-9, 9e-9]
        for t in marks:
            times += [t, math.nextafter(t, -math.inf),
                      math.nextafter(t, math.inf)]
        return np.array(times)

    @pytest.mark.parametrize("slew", [0.0, 0.3e-9])
    def test_drivers_match_scalar(self, slew):
        circuit = self.circuit()
        stim = Stimulus({"X": ((0.5e-9, L1), (1.5e-9, L2), (2.5e-9, L0)),
                         "Y": ((0.0, L2), (2e-9, L2), (3e-9, 1))},
                        slew=slew)
        times = self.instants(stim)
        sources = {s.pos: s for s in circuit.sources()}
        program = engine._program(circuit)
        table = program.pin_table(stim, times)
        names = program.pinned
        assert names == ("vdd", "p", "x", "y")
        for j, node in enumerate(names):
            if node in sources:
                want = [sources[node].value_at(t) for t in times.tolist()]
            else:
                port = {"x": "X", "y": "Y"}[node]
                want = [voltage_at(stim, port, t, 1.2)
                        for t in times.tolist()]
            assert table[:, j].tobytes() == np.array(want).tobytes(), node
        # before the first event, at the foot of the PWL's steep step and
        # mid-ramp
        at = dict(zip(times.tolist(), table.tolist()))
        assert at[0.0][2] == 0.6 and at[2e-9][1] == 0.3
        ramp = table[(times > 1.5e-9) & (times < 1.5e-9 + slew), 2]
        assert ((0.6 < ramp) & (ramp < 1.2)).all() and (ramp.size > 0) == (
            slew > 0)

    def test_run_transient_pins_the_schedule(self):
        circuit = self.circuit()
        stim = Stimulus({"X": ((0.0, L0), (1e-9, L2)), "Y": ((0.0, L1),)},
                        slew=0.5e-9)
        w = run_transient(circuit, stim, SolverConfig(t_stop=4e-9))
        for node, port in (("x", "X"), ("y", "Y")):
            assert w.probes[node].tolist() == [
                voltage_at(stim, port, t, 1.2) for t in w.times.tolist()]
        source = circuit.sources()[1]
        assert w.probes["p"].tolist() == [source.value_at(t)
                                          for t in w.times.tolist()]
