import csv
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternsim.core import (LEVELS, VoltageBands, ref_nti, ref_pti, ref_sti,
                          ref_tand, ref_tor)
from ternsim.devices import (MemristorParams, MosfetParams,
                             NonpositiveTimestep, memristance,
                             mosfet_small_signal, update_state)
from ternsim import engine
from ternsim.engine import (NonConvergence, NotSettled, SingularSystem,
                            SolverConfig, Stimulus, TransientError, Waveform,
                            _System,
                            _drivers, _mosfet_companion, kcl_residual,
                            relax_states, run_transient, solve_dc,
                            steady_output, step)
from ternsim.netlist import CellKind, build_cell, builtin_network, parse
from ternsim.netlist.cells import elaborate
from ternsim.netlist.model import (Circuit, Memristor, Mosfet, Port, Resistor,
                                   VSource)

L0, L1, L2 = LEVELS
P = MemristorParams()
BANDS = VoltageBands.default(1.0)


def pinned_at(circuit, stim, t):
    """Node voltages pinned by the sources and ``stim`` at time t."""
    return {n: f(t) for n, f in _drivers(circuit, stim).items()}


def count_linear_solves(monkeypatch):
    solve = np.linalg.solve
    calls = []

    def counting(a, b):
        calls.append(1)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


def divider_circuit():
    return Circuit(name="div", devices=[
        VSource("V1", "top", "0", dc=1.0),
        Memristor("Mtop", "top", "mid", P),
        Memristor("Mbot", "mid", "0", P),
    ], ports=[Port("mid", "out", "mid")]).validate()


class TestSolveDC:
    def test_two_memristor_divider(self):
        # closed form: 1 V across 500 (on) over 10k (off)
        v = solve_dc(divider_circuit(), {"top": 1.0},
                     {"Mtop": 1.0, "Mbot": 0.0})
        assert v["mid"] == pytest.approx(10_000.0 / 10_500.0, abs=1e-9)

    def test_fixed_node_passthrough(self):
        c = Circuit(name="r", devices=[
            VSource("V1", "a", "0", dc=1.0),
            Resistor("R1", "a", "0", 1000.0),
        ]).validate()
        v = solve_dc(c, {"a": 1.0})
        assert v["a"] == 1.0

    def test_tand_divider_with_frozen_states(self):
        cell = build_cell(CellKind.TAND2)
        # low-side device set, high-side off: the canonical AND steady state
        states = {"Mu1_a": 0.0, "Mu1_b": 1.0}
        v = solve_dc(cell, {"a": 1.0, "b": 0.5}, states)
        expected = 0.5 + (500.0 / 10_500.0) * 0.5
        assert 0.5 <= v["out"] <= 0.55
        assert v["out"] == pytest.approx(expected, abs=1e-9)

    def test_divider_law_many_state_pairs(self):
        c = divider_circuit()
        for x_top, x_bot in itertools.product((0.0, 0.3, 0.7, 1.0), repeat=2):
            g_top = x_top / 500.0 + (1 - x_top) / 10_000.0
            g_bot = x_bot / 500.0 + (1 - x_bot) / 10_000.0
            expected = g_top / (g_top + g_bot)
            v = solve_dc(c, {"top": 1.0}, {"Mtop": x_top, "Mbot": x_bot})
            assert v["mid"] == pytest.approx(expected, abs=1e-9)

    def test_kcl_residual_bound(self, d13):
        for x in LEVELS:
            fixed = pinned_at(d13, Stimulus.hold({"X": x}), 0.0)
            states = relax_states(d13, fixed)
            v = solve_dc(d13, fixed, states)
            res = kcl_residual(d13, v, states)
            g_max = 1.0 / 500.0
            for node, r in res.items():
                if node not in fixed and node != "0":
                    assert abs(r) < engine.NEWTON_TOL * g_max

    def test_floating_node_is_singular(self):
        c = Circuit(name="bad", devices=[
            VSource("V1", "a", "0", dc=1.0),
            Resistor("R1", "a", "0", 1000.0),
            # gate-only node: no DC path
            Mosfet("T1", "a", "g1", "0",
                   __import__("ternsim.devices", fromlist=["MosfetParams"])
                   .MosfetParams("NMOS", vth=0.3)),
            Mosfet("T2", "a", "g1", "0",
                   __import__("ternsim.devices", fromlist=["MosfetParams"])
                   .MosfetParams("NMOS", vth=0.3)),
        ])
        with pytest.raises(SingularSystem) as e:
            solve_dc(c, {"a": 1.0})
        assert e.value.node == "g1"

    def test_floating_island_is_singular(self):
        # a and b conduct to each other but to no pinned node
        c = parse("V1 top 0 DC 1\nR0 top mid 1k\nR1 mid 0 1k\n"
                  "R2 a b 1k\nR3 a b 1k\n.end\n")
        with pytest.raises(SingularSystem) as e:
            solve_dc(c, {"top": 1.0})
        assert e.value.node == "a"


class TestCallerStates:
    """States given by the caller are checked once, at the boundary."""

    @pytest.mark.parametrize("states,name", [
        ({"Mu1_in1": 1.5, "Mu1_in2": -0.5}, "Mu1_in1"),
        ({"Mu1_in2": -0.5}, "Mu1_in2"),
        ({"Mu1_in1": 7.0}, "Mu1_in1"),
        ({"Mu1_in1": math.nan}, "Mu1_in1"),
        ({"Mu1_in2": math.inf}, "Mu1_in2"),
        ({"Mx": 0.5}, "Mx"),
    ])
    def test_bad_state_names_device(self, states, name):
        cell = build_cell(CellKind.TOR2)
        fixed = {"a": 1.0, "b": 0.0}
        for call in (lambda: solve_dc(cell, fixed, states),
                     lambda: relax_states(cell, fixed, states),
                     lambda: step(cell, states, None, fixed, 1e-12)):
            with pytest.raises(ValueError, match=repr(name)):
                call()


class TestStep:
    @pytest.mark.parametrize("dt", [0.0, -1e-9, math.nan])
    def test_nonpositive_timestep_rejected_before_solve(self, dt, monkeypatch):
        def no_compile(*args):
            raise AssertionError("compiled a system")

        monkeypatch.setattr(engine, "_System", no_compile)
        c = parse("V1 top 0 DC 1\nR1 top mid 1k\nR2 mid 0 1k\n.end\n")
        with pytest.raises(NonpositiveTimestep):
            step(c, None, None, {"top": 1.0}, dt)

    def test_state_advance_matches_device_model(self):
        c = Circuit(name="m", devices=[
            VSource("V1", "a", "0", dc=1.0),
            Memristor("M1", "a", "0", P),
        ]).validate()
        with pytest.warns(UserWarning):
            volts, states = step(c, {"M1": 0.0}, None, {"a": 1.0}, dt=P.tau)
        assert states["M1"] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
        assert volts["a"] == 1.0

    def test_subthreshold_states_unchanged(self, d13):
        fixed = {"vdd": 0.0, "X": 0.0}
        volts, states = step(d13, None, None, fixed, dt=1e-12)
        assert all(x == 0.0 for x in states.values())

    def test_iterated_step_reproduces_run_transient(self, d13):
        stim = Stimulus.hold({"X": L2})
        cfg = SolverConfig(t_stop=2e-9)
        w = run_transient(d13, stim, cfg)
        assert len(w.times) == 41
        x0 = {m.name: m.params.x0 for m in d13.memristors()}
        states, volts = None, None
        for k, t in enumerate(w.times):
            for name, series in w.states.items():
                assert series[k] == (states or x0)[name], (k, name)
            fixed = pinned_at(d13, stim, float(t))
            volts, states = step(d13, states, volts, fixed, cfg.dt, cfg)
            for node, series in w.probes.items():
                assert series[k] == volts[node], (k, node)

    def test_finite_branch_power(self):
        c = divider_circuit()
        volts, states = step(c, None, None, {"top": 1.0}, dt=1e-12)
        for dev in c.memristors():
            v = volts[dev.anode] - volts[dev.cathode]
            assert math.isfinite(v * v)  # |power| = v^2 / r, r >= 500


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

    def test_unknown_stimulus_port_rejected(self, d13):
        with pytest.raises(ValueError, match="'nope' is not an input port"):
            run_transient(d13, Stimulus.hold({"nope": L0}),
                          SolverConfig(t_stop=1e-9))

    def test_stimulus_on_source_driven_port_rejected(self, d13):
        # the vdd port is an input whose node the supply source drives
        with pytest.raises(ValueError, match="already driven by a source"):
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

    def test_solver_failure_carries_partial_waveform(self, d13):
        cfg = SolverConfig(t_stop=10e-9, newton_max_iter=1)
        with pytest.raises(TransientError) as e:
            run_transient(d13, Stimulus.hold({"X": L1}), cfg)
        assert isinstance(e.value.cause, NonConvergence)
        assert e.value.cause.iterations == 1
        assert len(e.value.waveform.times) == 0

    def test_input_slewing_through_pti_threshold_completes(self):
        # At 70.3 ns A passes 0.7 V, where the A-side PTI NMOS sits at
        # threshold: the undamped close-in Newton step two-cycles on a_pout,
        # so only a retry that damps every step converges.
        seq = [(0, 2), (2, 2), (2, 0), (1, 2), (1, 1),
               (2, 0), (2, 1), (1, 1), (2, 1), (1, 0)]
        stim = Stimulus({"A": tuple((i * 10e-9, LEVELS[a])
                                    for i, (a, _) in enumerate(seq)),
                         "B": tuple((i * 10e-9, LEVELS[b])
                                    for i, (_, b) in enumerate(seq))},
                        slew=0.5e-9)
        circuit = elaborate(builtin_network("display"))
        w = run_transient(circuit, stim, SolverConfig(t_stop=71e-9))
        assert len(w.times) == 1421


class TestSteadyOutput:
    def test_d29_one_hot_example(self, d29):
        out = steady_output(d29, {"A": L2, "B": L1})
        assert out["Y7"] == L2
        assert all(v == L0 for k, v in out.items() if k != "Y7")

    def test_display_all_dark_for_8(self, display):
        out = steady_output(display, {"A": L2, "B": L2})
        assert all(v == L0 for v in out.values())

    def test_display_digit_zero(self, display):
        out = steady_output(display, {"A": L0, "B": L0})
        assert out["Yg"] == L2
        assert all(v == L0 for k, v in out.items() if k != "Yg")

    def test_not_settled_when_deadline_too_short(self, d13):
        with pytest.raises(NotSettled):
            steady_output(d13, {"X": L0}, cfg=SolverConfig(t_stop=1e-9))

    def test_settle_skips_quiescent_steps(self, d13, monkeypatch):
        # A settle step whose pinned voltages and states repeat the last
        # solved step reuses its voltages: few solves, not one per step.
        calls = count_linear_solves(monkeypatch)
        for x in LEVELS:
            calls.clear()
            _, info = steady_output(d13, {"X": x}, return_info=True)
            assert info["t_run"] >= 199 * SolverConfig().dt
            assert 0 < len(calls) <= 40, x

    def test_settle_starts_from_relaxed_voltages(self, d13, monkeypatch):
        # The settle march starts where relaxation ended, not from a cold
        # supply/2 guess: each vector needs fewer linear solves.
        calls = count_linear_solves(monkeypatch)
        for x in LEVELS:
            calls.clear()
            steady_output(d13, {"X": x})
            assert len(calls) <= 24, x

    def test_one_system_per_call(self, d29, monkeypatch):
        builds = []

        class Counting(_System):
            def __init__(self, *args):
                builds.append(1)
                super().__init__(*args)

        monkeypatch.setattr(engine, "_System", Counting)
        assert steady_output(d29, {"A": L2, "B": L1})["Y7"] == L2
        assert len(builds) == 1

    def test_settle_info(self, d13):
        out, info = steady_output(d13, {"X": L1}, return_info=True)
        assert info["settle_time"] < 20e-9
        assert set(info["voltages"]) == {"Y0", "Y1", "Y2"}


def _fet_reference(polarity, lam, biases):
    p = MosfetParams(polarity, vth=0.3, k=2e-3, channel_mod=lam)
    return np.array([mosfet_small_signal(p, *b) for b in biases]).T


def _fet_compiled(polarity, lam, biases):
    n = len(biases)
    vg, vd, vs = np.array(biases, dtype=float).T
    sign = np.full(n, 1.0 if polarity == "NMOS" else -1.0)
    return np.array(_mosfet_companion(sign, np.full(n, 0.3), np.full(n, 2e-3),
                                      np.full(n, lam), vg, vd, vs))


MEM_PARAMS = (P, MemristorParams(v_on=0.1, v_off=0.45, tau=80e-12),
              MemristorParams(r_on=1e3, r_off=5e4, v_on=0.6, v_off=0.2,
                              tau=3e-9, x0=0.5))


class TestCompiledKernels:
    """The engine's array kernels against the scalar device models."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(("NMOS", "PMOS")),
           st.sampled_from((0.0, 0.02, 0.3)),
           st.lists(st.tuples(*[st.floats(-1.5, 1.5)] * 3),
                    min_size=1, max_size=16))
    def test_mosfet_companion_matches_scalar(self, polarity, lam, biases):
        np.testing.assert_allclose(_fet_compiled(polarity, lam, biases),
                                   _fet_reference(polarity, lam, biases),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("polarity", ["NMOS", "PMOS"])
    @pytest.mark.parametrize("lam", [0.0, 0.05])
    def test_mosfet_companion_every_region(self, polarity, lam):
        grid = (-1.0, -0.6, -0.2, 0.0, 0.1, 0.35, 0.5, 0.8, 1.0)
        biases = list(itertools.product(grid, repeat=3))
        # Same arithmetic in the same order: equal, not merely close.
        assert np.array_equal(_fet_compiled(polarity, lam, biases),
                              _fet_reference(polarity, lam, biases))
        sign = 1.0 if polarity == "NMOS" else -1.0
        regions = set()
        for vg, vd, vs in biases:
            vg, vd, vs = sign * vg, sign * vd, sign * vs
            lo, hi = min(vd, vs), max(vd, vs)
            u = vg - lo - 0.3
            region = ("cutoff" if u <= 0 else
                      "triode" if hi - lo < u else "saturation")
            regions.add((vd >= vs, region))
        assert regions == {(fwd, r) for fwd in (True, False)
                           for r in ("cutoff", "triode", "saturation")}

    def test_memristor_conductance_is_reciprocal_memristance(self):
        params = [MemristorParams(), MemristorParams(r_on=120.0, r_off=7e4),
                  MemristorParams(r_on=1e3, r_off=1.5e3)]
        xs = np.linspace(0.0, 1.0, 11)
        devices = [VSource("V1", "top", "0", dc=1.0)]
        states = {}
        for i, (p, x) in enumerate(itertools.product(params, xs)):
            devices.append(Memristor(f"M{i}", "top", "0", p))
            states[f"M{i}"] = float(x)
        system = _System(Circuit(name="m", devices=devices), ("top",))
        got = system.mem_conductance(system.state_vector(states))
        want = [1.0 / memristance(x, p)
                for p, x in itertools.product(params, xs)]
        assert got.tolist() == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(MEM_PARAMS),
        st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
        st.one_of(st.sampled_from(("v_on", "-v_off", "below v_on",
                                   "above -v_off")),
                  st.floats(-1.5, 1.5))), min_size=1, max_size=16),
        st.floats(1e-13, 1e-8))
    def test_state_advance_matches_scalar(self, draws, dt):
        gates = {"v_on": lambda p: p.v_on,
                 "-v_off": lambda p: -p.v_off,
                 "below v_on": lambda p: math.nextafter(p.v_on, 0.0),
                 "above -v_off": lambda p: math.nextafter(-p.v_off, 0.0)}
        system = _System(Circuit(name="m", devices=[
            Memristor(f"M{i}", f"n{i}", "0", p)
            for i, (p, _, _) in enumerate(draws)]), ())
        v = np.zeros(system.n)
        biases = []
        for i, (p, _, bias) in enumerate(draws):
            biases.append(gates[bias](p) if isinstance(bias, str) else bias)
            v[system.index[f"n{i}"]] = biases[-1]
        x = np.array([x for _, x, _ in draws])
        want = [update_state(xi, b, dt, p)
                for (p, xi, _), b in zip(draws, biases)]
        assert system.advance(x, v, dt).tolist() == want


class TestRelaxation:
    def test_tand_adjacent_levels_reach_divider_state(self):
        cell = build_cell(CellKind.TAND2)
        states = relax_states(cell, {"a": 1.0, "b": 0.5})
        assert states == {"Mu1_a": 0.0, "Mu1_b": 1.0}

    def test_equal_inputs_hold_initial_state(self):
        cell = build_cell(CellKind.TOR2)
        states = relax_states(cell, {"a": 0.5, "b": 0.5})
        assert states == {"Mu1_in1": 0.0, "Mu1_in2": 0.0}


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0}, {"dt": -1e-9}, {"dt": math.nan}, {"dt": math.inf},
        {"t_stop": -1e-9}, {"t_stop": math.nan}, {"t_stop": math.inf},
    ])
    def test_bad_settings_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(**kwargs)

    def test_zero_length_run_allowed(self):
        assert SolverConfig(t_stop=0.0).t_stop == 0.0

    def test_step_count_capped(self):
        limit = engine.MAX_STEPS
        assert SolverConfig(t_stop=50e-12 * limit).steps == limit
        for t_stop in (50e-12 * (limit + 1), 1e300):
            with pytest.raises(ValueError, match="exceeds the limit"):
                SolverConfig(t_stop=t_stop)


class TestStimulus:
    def test_slew_interpolation(self):
        stim = Stimulus({"X": ((0.0, L0), (10e-9, L2))}, slew=2e-9)
        assert stim.voltage_at("X", 0.0) == 0.0
        assert stim.voltage_at("X", 11e-9) == pytest.approx(0.5)
        assert stim.voltage_at("X", 12e-9) == 1.0
        assert stim.voltage_at("X", 50e-9) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Stimulus({"X": ((0.0, L0), (0.0, L2))})
        with pytest.raises(ValueError):
            Stimulus({"X": ((0.0, L0), (1e-9, L2))}, slew=2e-9)

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

    def test_event_times_merged(self):
        stim = Stimulus({"A": ((0.0, L0), (5e-9, L2)),
                         "B": ((0.0, L1), (7e-9, L0))})
        assert stim.event_times() == (0.0, 5e-9, 7e-9)


class TestGateOracle:
    """Analog steady state of every cell must match the reference functions."""

    @pytest.mark.parametrize("kind,fn", [
        (CellKind.STI, ref_sti),
        (CellKind.NTI, ref_nti),
        (CellKind.PTI, ref_pti),
        (CellKind.SFBUF, lambda a: a),
    ])
    def test_single_input_cells(self, kind, fn):
        cell = build_cell(kind)
        for a in LEVELS:
            assert steady_output(cell, {"in": a})["out"] == fn(a)

    @pytest.mark.parametrize("kind,fn", [
        (CellKind.TAND2, ref_tand),
        (CellKind.TOR2, ref_tor),
        (CellKind.TNOR, lambda a, b: ref_sti(ref_tor(a, b))),
    ])
    def test_two_input_cells(self, kind, fn):
        cell = build_cell(kind)
        for a, b in itertools.product(LEVELS, repeat=2):
            assert steady_output(cell, {"a": a, "b": b})["out"] == fn(a, b)

    def test_torn5_sampled(self):
        cell = build_cell(CellKind.TORN, n=5)
        combos = [(L0,) * 5, (L2,) + (L0,) * 4, (L0, L1, L0, L0, L0),
                  (L1,) * 5, (L2, L1, L0, L1, L2), (L0, L0, L0, L0, L2)]
        for combo in combos:
            ins = {f"in{i + 1}": lv for i, lv in enumerate(combo)}
            assert steady_output(cell, ins)["out"] == max(combo)

    def test_tand_divider_intermediate_pinned(self):
        cell = build_cell(CellKind.TAND2)
        _, info = steady_output(cell, {"a": L2, "b": L1}, return_info=True)
        assert abs(info["voltages"]["out"] - 0.524) < 0.05


class TestExports:
    def test_csv_columns(self, d13):
        w = run_transient(d13, Stimulus.hold({"X": L0}),
                          SolverConfig(t_stop=1e-9))
        buf = io.StringIO()
        w.to_csv(buf)
        header = buf.getvalue().splitlines()[0].split(",")
        assert header[0] == "time"
        assert {"X", "Y0", "Y1", "Y2"} <= set(header)
        assert len(buf.getvalue().splitlines()) == len(w.times) + 1

    @staticmethod
    def csv_reference(w) -> str:
        """The row-by-row ``csv.writer`` export, as the byte reference."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        names = list(w.probes)
        writer.writerow(["time"] + names)
        cols = [w.probes[n] for n in names]
        for i, t in enumerate(w.times):
            writer.writerow([f"{t:.12e}"] + [f"{c[i]:.9f}" for c in cols])
        return buf.getvalue()

    def test_csv_bytes_match_csv_writer(self, d13):
        # 401 rows: more than one of to_csv's row blocks
        w = run_transient(d13, Stimulus({"X": ((0.0, L0), (10e-9, L2))},
                                        slew=0.5e-9),
                          SolverConfig(t_stop=20e-9))
        assert len(w.times) > engine._CSV_BLOCK
        buf = io.StringIO()
        w.to_csv(buf)
        assert buf.getvalue() == self.csv_reference(w)

    def test_csv_bytes_by_hand(self):
        w = Waveform(dt=1e-12, times=np.arange(4) * 1e-12,
                     probes={"a": np.array([0.0, -0.0, 1e-10, 0.123456789012]),
                             "b,c": np.array([1.0, 0.5, -2.5e-7, 123.4]),
                             'q"d': np.array([0.3, 0.3, 0.3, 0.3])},
                     states={})
        buf = io.StringIO()
        w.to_csv(buf)
        assert buf.getvalue() == self.csv_reference(w) == (
            'time,a,"b,c","q""d"\r\n'
            "0.000000000000e+00,0.000000000,1.000000000,0.300000000\r\n"
            "1.000000000000e-12,-0.000000000,0.500000000,0.300000000\r\n"
            "2.000000000000e-12,0.000000000,-0.000000250,0.300000000\r\n"
            "3.000000000000e-12,0.123456789,123.400000000,0.300000000\r\n")
        empty = Waveform(dt=1e-12, times=np.arange(0) * 1e-12,
                         probes={"a": np.array([])}, states={})
        buf = io.StringIO()
        empty.to_csv(buf)
        assert buf.getvalue() == self.csv_reference(empty) == "time,a\r\n"

    def test_vcd_structure(self, d13):
        w = run_transient(d13, Stimulus.hold({"X": L2}),
                          SolverConfig(t_stop=1e-9))
        buf = io.StringIO()
        w.to_vcd(buf, BANDS)
        text = buf.getvalue()
        assert "$timescale 1fs $end" in text
        assert "$var real 64" in text and "$var wire 2" in text
        assert "#0\n" in text
        # ternary codes are two bits; indeterminate renders as xx
        assert "b10 " in text or "b00 " in text

    def test_vcd_bytes_at_band_edges(self):
        # Probe a visits each band edge and one ulp past it, a gap value,
        # a repeat (no line) and a same-code change (a line); b steps once.
        b = BANDS
        up, down = math.inf, -math.inf
        a = [b.lo_max, np.nextafter(b.lo_max, up),
             b.mid_lo, np.nextafter(b.mid_lo, down),
             b.mid_hi, np.nextafter(b.mid_hi, up),
             b.hi_min, np.nextafter(b.hi_min, down),
             0.3, 0.3, 0.5, 0.55]
        w = Waveform(dt=1e-12, times=np.arange(12) * 1e-12,
                     probes={"a": np.array(a),
                             "b": np.array([1.0] * 6 + [0.0] * 6)},
                     states={})
        buf = io.StringIO()
        w.to_vcd(buf, BANDS)
        assert buf.getvalue() == (
            "$timescale 1fs $end\n$scope module ternsim $end\n"
            "$var real 64 r0 V(a) $end\n$var wire 2 w0 L(a) $end\n"
            "$var real 64 r1 V(b) $end\n$var wire 2 w1 L(b) $end\n"
            "$upscope $end\n$enddefinitions $end\n"
            "#0\nr0.2 r0\nb00 w0\nr1 r1\nb10 w1\n"
            "#1000\nr0.2 r0\nbxx w0\n"
            "#2000\nr0.4 r0\nb01 w0\n"
            "#3000\nr0.4 r0\nbxx w0\n"
            "#4000\nr0.6 r0\nb01 w0\n"
            "#5000\nr0.6 r0\nbxx w0\n"
            "#6000\nr0.8 r0\nb10 w0\nr0 r1\nb00 w1\n"
            "#7000\nr0.8 r0\nbxx w0\n"
            "#8000\nr0.3 r0\nbxx w0\n"
            "#9000\n"
            "#10000\nr0.5 r0\nb01 w0\n"
            "#11000\nr0.55 r0\nb01 w0\n")
