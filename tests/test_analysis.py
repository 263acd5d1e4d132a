import itertools
import json
import math
import re

import numpy as np
import pytest

from ternsim.analysis import (DECODERS, DIGIT_SEGMENTS, GlitchEvent,
                              SEGMENTS, TruthTableReport, VectorResult,
                              detect_glitches, expected_outputs,
                              input_vectors, measure_settling,
                              resource_report, seven_segment_render, verify)
from ternsim import analysis, engine
from ternsim.core import (LEVELS, BitPair, InvalidEncoding, TernaryLevel,
                          VoltageBands, decode_2bit, encode_2bit)
from ternsim.digital import eval_circuit, eval_levels
from ternsim.engine import (SolverConfig, Stimulus, Waveform, run_transient,
                            steady_output)
from ternsim.netlist import builtin_network, mutate_network, parse, serialize
from ternsim.netlist.cells import SEGMENT_TERMS

L0, L1, L2 = LEVELS
BANDS = VoltageBands.default(1.0)

# Display decoder truth table: outputs driven high per input pair (the
# segments are active-low).  Independently transcribed.
DISPLAY_TABLE = {
    (2, 2): "", (2, 1): "defg", (2, 0): "b",
    (1, 2): "be", (1, 1): "ade", (1, 0): "ef",
    (0, 2): "cf", (0, 1): "adefg", (0, 0): "g",
}


class TestExpectedTables:
    def test_display_matches_transcribed_table(self):
        for (a, b), highs in DISPLAY_TABLE.items():
            out = expected_outputs("display", {"A": TernaryLevel(a),
                                               "B": TernaryLevel(b)})
            got = {s for s in SEGMENTS if out[f"Y{s}"] == L2}
            assert got == set(highs), (a, b)


def equation_vectors(decoder):
    """The input vectors as the product-equation oracle orders them."""
    if decoder == "d13":
        return [{"X": lv} for lv in (LEVELS[0], LEVELS[1], LEVELS[2])]
    return [{"A": TernaryLevel(a), "B": TernaryLevel(b)}
            for a, b in itertools.product((2, 1, 0), repeat=2)]


def equation_outputs(decoder, inputs):
    """Reference outputs recomputed from the product equations per call."""
    if decoder == "d13":
        x = int(inputs["X"])
        return {f"Y{i}": TernaryLevel.L2 if i == x else TernaryLevel.L0
                for i in range(3)}
    a, b = int(inputs["A"]), int(inputs["B"])
    hot = 3 * a + b
    lines = {k: TernaryLevel.L2 if k == hot else TernaryLevel.L0
             for k in range(9)}
    if decoder == "d29":
        return {f"Y{k}": lines[k] for k in range(9)}
    return {f"Y{s}": (TernaryLevel.L2
                      if any(lines[t] == TernaryLevel.L2
                             for t in SEGMENT_TERMS[s])
                      else TernaryLevel.L0)
            for s in SEGMENTS}


def equation_report(decoder, net):
    """A digital verify report with every expected output recomputed."""
    results = []
    for vec in equation_vectors(decoder):
        out = eval_circuit(net, {k: encode_2bit(lv) for k, lv in vec.items()})
        results.append(VectorResult(
            inputs=dict(vec), expected=equation_outputs(decoder, vec),
            observed={p: decode_2bit(bp) for p, bp in out.items()}))
    notes = (analysis._D29_ERRATUM,) if decoder != "d13" else ()
    return TruthTableReport(decoder, "digital", results, notes)


def swap_faults(decoder):
    ports = [p for p, _ in builtin_network(decoder).outputs]
    return [f"swap:{a},{b}" for a, b in itertools.combinations(ports, 2)]


class TestReferenceTable:
    """The reference outputs are a table built once at import."""

    @pytest.mark.parametrize("decoder", DECODERS)
    def test_table_matches_product_equations(self, decoder):
        vectors = equation_vectors(decoder)
        assert input_vectors(decoder) == vectors
        for vec in vectors:
            got = expected_outputs(decoder, vec)
            want = equation_outputs(decoder, vec)
            assert got == want and list(got) == list(want)
            plain = {k: int(lv) for k, lv in vec.items()}
            assert expected_outputs(decoder, plain) == want

    @pytest.mark.parametrize("decoder", DECODERS)
    def test_returned_dicts_are_fresh(self, decoder):
        vec = input_vectors(decoder)[1]
        got = expected_outputs(decoder, vec)
        got.clear()
        assert expected_outputs(decoder, vec) == equation_outputs(decoder, vec)
        vectors = input_vectors(decoder)
        for v in vectors:
            v.clear()
        assert input_vectors(decoder) == equation_vectors(decoder)
        report = verify("digital", decoder)
        report.vectors[0].expected.clear()
        report.vectors[0].inputs.clear()
        want = equation_report(decoder, builtin_network(decoder))
        assert verify("digital", decoder).to_json() == want.to_json()

    @pytest.mark.parametrize("decoder,inputs,port,value", [
        ("d29", {"A": 0, "B": 5}, "B", "5"),
        ("d13", {"X": 7}, "X", "7"),
        ("d13", {"X": -1}, "X", "-1"),
        ("d13", {"X": 1.5}, "X", "1.5"),
        ("d13", {"X": math.nan}, "X", "nan"),
        ("d13", {"X": "2"}, "X", "'2'"),
        ("d13", {"X": None}, "X", "None"),
        ("d13", {"X": [1]}, "X", r"\[1\]"),
        ("display", {"A": 3, "B": 0}, "A", "3"),
    ])
    def test_non_level_input_raises(self, decoder, inputs, port, value):
        # Before, {"A": 0, "B": 5} on d29 returned Y5 high and {"X": 7} on
        # d13 returned all L0.
        with pytest.raises(ValueError,
                           match=f"input port {port!r} of {decoder!r}: "
                                 f"{value} is not a ternary level$"):
            expected_outputs(decoder, inputs)

    def test_unknown_decoder_key_error_bad_port_value_error(self):
        with pytest.raises(KeyError, match="unknown decoder 'd39'"):
            expected_outputs("d39", {"A": L0, "B": L0})
        with pytest.raises(KeyError, match="unknown decoder 'd39'"):
            input_vectors("d39")
        with pytest.raises(ValueError, match="missing input port 'B'"):
            expected_outputs("d29", {"A": L0})
        with pytest.raises(ValueError, match="unknown input port 'A'"):
            expected_outputs("d13", {"A": L0})

    @pytest.mark.parametrize("decoder", DECODERS)
    def test_verify_builds_no_table(self, decoder, monkeypatch):
        calls = []
        build = analysis._reference_table

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(analysis, "_reference_table", counted)
        assert verify("digital", decoder).passed
        expected_outputs(decoder, input_vectors(decoder)[0])
        assert calls == []

    def test_display_reference_reads_no_wiring(self, monkeypatch):
        # The display table comes from the glyphs, so a miswired segment
        # does not carry its wrong answer into the table that checks it.
        want = analysis._reference_table("display")
        monkeypatch.setitem(SEGMENT_TERMS, "a", (1, 5))
        assert analysis._reference_table("display") == want
        assert not verify("digital", "display").passed
        for seg in SEGMENTS:
            monkeypatch.setitem(SEGMENT_TERMS, seg, (0,))
        assert analysis._reference_table("display") == want

    @pytest.mark.parametrize("decoder", DECODERS)
    def test_reports_match_oracle_clean_and_under_swaps(self, decoder):
        net = builtin_network(decoder)
        faults = swap_faults(decoder)
        assert len(faults) == {"d13": 3, "d29": 36, "display": 21}[decoder]
        for fault in [None] + faults:
            faulty = net if fault is None else mutate_network(net, fault)
            got = verify("digital", decoder, network=faulty)
            want = equation_report(decoder, faulty)
            assert got.to_text() == want.to_text(), fault
            assert got.to_json() == want.to_json(), fault


class TestInputContract:
    """Both backends and the reference table take one input vector, port ->
    level, and refuse a bad one alike: a ValueError naming the port."""

    CALLERS = ("steady_output", "eval_levels", "eval_circuit",
               "expected_outputs")

    @staticmethod
    def call(caller, decoder, vec, request):
        net = builtin_network(decoder)
        if caller == "steady_output":
            return steady_output(request.getfixturevalue(decoder), vec)
        if caller == "eval_levels":
            return eval_levels(net, vec)
        if caller == "eval_circuit":  # a BitPair value is passed as it is
            codes = eval_circuit(net, {
                p: lv if isinstance(lv, BitPair) else encode_2bit(lv)
                for p, lv in vec.items()})
            return {p: decode_2bit(c) for p, c in codes.items()}
        return expected_outputs(decoder, vec)

    @pytest.mark.parametrize("decoder", DECODERS)
    @pytest.mark.parametrize("caller", ["eval_levels", "expected_outputs",
                                        "steady_output"])
    @pytest.mark.parametrize("value", [3, -1, 1.5, math.nan, "2", None, [1],
                                       encode_2bit(L1)])
    def test_non_level_refused(self, value, caller, decoder, request):
        ports = builtin_network(decoder).inputs
        for port in ports:
            vec = {**dict.fromkeys(ports, L1), port: value}
            with pytest.raises(ValueError,
                               match=f"{port!r}.*{re.escape(repr(value))}"):
                self.call(caller, decoder, vec, request)

    @pytest.mark.parametrize("decoder", DECODERS)
    @pytest.mark.parametrize("caller", CALLERS)
    def test_port_fault_named_before_bad_value(self, caller, decoder,
                                               request):
        # The first port has a bad value (code 11 for eval_circuit, which
        # takes codes), and an unknown port is added or the second port
        # left out: every caller names the port fault.
        ports = builtin_network(decoder).inputs
        bad = BitPair(1, 1) if caller == "eval_circuit" else 3
        cases = [({**dict.fromkeys(ports, L1), ports[0]: bad, "Q": L1}, "Q")]
        if len(ports) > 1:  # d29 on {"A": 3} names the missing B
            cases.append(({ports[0]: bad}, ports[1]))
        for vec, port in cases:
            with pytest.raises(ValueError, match=repr(port)) as exc:
                self.call(caller, decoder, vec, request)
            assert repr(ports[0]) not in str(exc.value)

    @pytest.mark.parametrize("decoder", DECODERS)
    def test_reserved_code_names_port(self, decoder):
        ports = builtin_network(decoder).inputs
        for k, port in enumerate(ports):
            # Code 11 on this port and every later one: the first is named.
            vec = {p: BitPair(1, 1) if j >= k else encode_2bit(L1)
                   for j, p in enumerate(ports)}
            with pytest.raises(InvalidEncoding) as exc:
                eval_circuit(builtin_network(decoder), vec)
            assert str(exc.value) == (f"input port {port!r} of {decoder!r}: "
                                      "two-bit code 11 is reserved")

    @pytest.mark.parametrize("decoder", DECODERS)
    @pytest.mark.parametrize("value", [1, None, (0, 1), "01"])
    def test_non_code_names_port(self, value, decoder):
        # Before, eval_circuit raised AttributeError: 'int' object has no
        # attribute 'hi'.
        ports = builtin_network(decoder).inputs
        for port in ports:
            vec = {**dict.fromkeys(ports, encode_2bit(L1)), port: value}
            with pytest.raises(InvalidEncoding) as exc:
                eval_circuit(builtin_network(decoder), vec)
            assert str(exc.value) == (f"input port {port!r} of {decoder!r}: "
                                      f"{value!r} is not a two-bit code")

    @staticmethod
    def refusal(call) -> str:
        with pytest.raises(ValueError) as exc:
            call()
        return str(exc.value)

    @pytest.mark.parametrize("decoder", DECODERS)
    def test_one_text_per_refusal(self, decoder, request):
        # Every caller words a port fault through core.check_ports, and
        # every caller that takes levels a bad level through levels_of.
        # run_transient takes the vector as a held stimulus.  The supply
        # pin vdd is an input port of the circuit but no signal input.
        # Before, the digital backend and the table ignored an extra port:
        # d29 on {"A": 2, "B": 1, "C": 1} answered Y7 = 2.
        circuit = request.getfixturevalue(decoder)
        ports = builtin_network(decoder).inputs
        full = dict.fromkeys(ports, L1)
        for caller in self.CALLERS:
            assert self.call(caller, decoder, full, request) == (
                expected_outputs(decoder, full)), caller
        cases = [({**full, extra: L1}, f"unknown input port {extra!r}")
                 for extra in ("C", "Q", "vdd")]
        cases += [({p: L1 for p in ports if p != port},
                   f"missing input port {port!r}") for port in ports]
        for vec, text in cases:
            texts = {caller: self.refusal(
                lambda: self.call(caller, decoder, vec, request))
                for caller in self.CALLERS}
            texts["run_transient"] = self.refusal(lambda: run_transient(
                circuit, Stimulus.hold(vec), SolverConfig(t_stop=1e-10)))
            assert set(texts.values()) == {f"{text} of {decoder!r}"}, texts
        for port in ports:
            vec = {**full, port: 3}
            texts = {caller: self.refusal(
                lambda: self.call(caller, decoder, vec, request))
                for caller in ("steady_output", "eval_levels",
                               "expected_outputs")}
            assert set(texts.values()) == {
                f"input port {port!r} of {decoder!r}: 3 is not a ternary "
                f"level"}, texts


class TestVerify:
    """Each decoder's digital pass is acceptance criterion 01."""

    def test_unknown_backend_named(self):
        with pytest.raises(KeyError, match="unknown backend 'bogus'"):
            verify("bogus", "d13")

    def test_analog_d13_pass(self):
        report = verify("analog", "d13")
        assert report.passed
        assert "settle" not in report.to_text() + report.to_json()

    def test_solver_failure_reported_per_vector(self, monkeypatch):
        monkeypatch.setattr(engine, "NEWTON_MAX_ITER", 1)
        report = verify("analog", "d13")
        assert not report.passed
        failed = [v for v in report.vectors if v.error]
        assert failed and all(not v.ok for v in failed)
        assert all("NonConvergence" in v.error for v in failed)
        assert "error: NonConvergence" in report.to_text()
        doc = json.loads(report.to_json())
        assert any("NonConvergence" in (v["error"] or "")
                   for v in doc["vectors"])

    def test_fault_fails_expected_vectors(self):
        net = mutate_network(builtin_network("d29"), "swap:Y7,Y5")
        report = verify("digital", "d29", network=net)
        assert not report.passed
        bad = [tuple(int(lv) for lv in v.inputs.values())
               for v in report.vectors if not v.ok]
        assert sorted(bad) == [(1, 2), (2, 1)]

    def test_report_serializes(self):
        report = verify("digital", "d13")
        text = report.to_json()
        assert text.startswith('{\n  "decoder": "d13",\n  "backend": ')
        doc = json.loads(text)
        assert doc["passed"] is True
        assert len(doc["vectors"]) == 3
        assert "3/3" in report.summary()
        assert report.to_text().count("[ok]") == 3

    @pytest.mark.parametrize("decoder,fault", [
        ("d13", None), ("d29", None), ("display", None),
        ("d13", "swap:Y0,Y2"), ("d29", "swap:Y7,Y5"), ("display", "swap:Ya,Yg"),
    ])
    def test_backends_report_alike(self, decoder, fault):
        # The two reports differ only in the backend's name.
        net = builtin_network(decoder)
        if fault:
            net = mutate_network(net, fault)
        analog, digital = (verify(b, decoder, network=net)
                           for b in ("analog", "digital"))
        assert analog.passed == digital.passed == (fault is None)
        assert (analog.to_text().split("\n", 1)[1]
                == digital.to_text().split("\n", 1)[1])
        docs = [json.loads(r.to_json()) for r in (analog, digital)]
        assert [d.pop("backend") for d in docs] == ["analog", "digital"]
        assert docs[0] == docs[1]
        assert set(docs[0]["vectors"][0]) == {"inputs", "expected",
                                              "observed", "error", "ok"}

    def test_d29_report_carries_erratum_note(self):
        report = verify("digital", "d29")
        assert any("errata" in n for n in report.notes)


@pytest.fixture(scope="module")
def hazard_run(d29):
    stim = Stimulus({"A": ((0.0, L2), (50e-9, L1)),
                     "B": ((0.0, L1), (50e-9, L2))}, slew=1e-9)
    w = run_transient(d29, stim, SolverConfig(t_stop=100e-9))
    return w, stim


@pytest.fixture(scope="module")
def slewed_run(d13):
    stim = Stimulus({"X": ((0.0, L0), (50e-9, L2))}, slew=1e-9)
    w = run_transient(d13, stim, SolverConfig(t_stop=100e-9))
    return w, stim


@pytest.fixture(scope="module")
def display_report(display):
    return resource_report(display)


@pytest.fixture
def scan_run():
    """A hand-built 24 ns run, 1 ns steps, with an event at 0 and at 10 ns.

    Port Y on node y, window [0, 10 ns): a two-sample approach from L1, a
    one-sample L1 blip at 4 ns and a two-sample gap01 excursion at 6-7 ns,
    ending in L0.  Window [10, 24 ns): a one-sample approach, then L1 at
    13-15 ns and gap12 at 17-18 ns, ending in L2 from 19 ns on.
    """
    y = [0.5, 0.5, 0.0, 0.0, 0.5, 0.0, 0.3, 0.3, 0.0, 0.0,
         0.0, 0.9, 0.9, 0.5, 0.5, 0.5, 0.9, 0.7, 0.7, 0.9,
         0.9, 0.9, 0.9, 0.9]
    x = [0.0] * 10 + [1.0] * 14
    times = np.arange(24) * 1e-9
    w = Waveform(dt=1e-9, times=times,
                 probes={"x": np.array(x), "y": np.array(y)}, states={},
                 port_nodes={"X": "x", "Y": "y"})
    return w, Stimulus({"X": ((0.0, L0), (10e-9, L2))})


# scan_run's stimulus with one more event, after the run's 23 ns end.
LATE = Stimulus({"X": ((0.0, L0), (10e-9, L2), (30e-9, L0))})


class TestGlitchScan:
    def test_exact_events(self, scan_run):
        w, stim = scan_run
        t = w.times
        want = [GlitchEvent("y", t[6], t[8], "gap01"),
                GlitchEvent("y", t[13], t[16], "L1"),
                GlitchEvent("y", t[17], t[19], "gap12")]
        assert detect_glitches(w, stim, BANDS) == want
        # An event before 0 still starts the first window at sample 0, so
        # the same glitches are found: no lost gap01, no L1 approach.
        for first in (-1e-9, -3e-9, -30e-9):
            shifted = Stimulus({"X": ((first, L0), (10e-9, L2))})
            assert detect_glitches(w, shifted, BANDS) == want, first
        # An event after the end of the run opens no window.
        assert detect_glitches(w, LATE, BANDS) == want

    def test_windows_start_at_zero(self):
        # The first event is at 5 ns, so the samples before it form a window
        # of their own, and Y's excursion at 2-3 ns is found in it.  In the
        # last window, excursions start at its second sample and end at the
        # run's last sample.
        times = np.arange(12) * 1e-9
        y = [0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.5, 0.5, 0.0, 0.5, 0.5, 0.0]
        w = Waveform(dt=1e-9, times=times, probes={"y": np.array(y)},
                     states={}, port_nodes={"Y": "y"})
        stim = Stimulus({"X": ((5e-9, L1),)})
        assert detect_glitches(w, stim, BANDS) == [
            GlitchEvent("y", times[i], times[i + 2], "L1") for i in (2, 6, 9)]

    def test_blip_and_approach_ignored(self, scan_run):
        w, stim = scan_run
        starts = [g.t_start for g in detect_glitches(w, stim, BANDS)]
        assert w.times[0] not in starts  # the approach from L1
        assert w.times[4] not in starts  # one sample only
        assert w.times[10] not in starts  # the approach to L2

    def test_exact_settling(self, scan_run):
        w, stim = scan_run
        # Last sample off L2 is at 18 ns, so Y enters its final band at 19.
        assert measure_settling(w, "Y", BANDS, stim, min_hold=3e-9) == (
            w.times[19] - 10e-9)
        assert measure_settling(w, "X", BANDS, stim, min_hold=3e-9) == 0.0
        assert measure_settling(w, "Y", BANDS, stim, min_hold=5e-9) is None
        # A trailing run exactly min_hold long has settled.
        hold = w.times[23] - w.times[19]
        assert measure_settling(w, "Y", BANDS, stim, min_hold=hold) == (
            w.times[19] - 10e-9)
        # An event at the last sample is inside the run: settling counts
        # from it.
        at_end = Stimulus({"X": ((0.0, L0), (10e-9, L2),
                                 (float(w.times[-1]), L0))})
        assert measure_settling(w, "Y", BANDS, at_end, 3e-9) == 0.0
        # Settling counts from 0 after an event before 0, as detect_glitches
        # starts its first window there: the run never simulated earlier.
        at_zero = Stimulus({"X": ((0.0, L0),)})
        for first in (-1e-9, -3e-9, -30e-9):
            shifted = Stimulus({"X": ((first, L0),)})
            for port in ("X", "Y"):
                assert measure_settling(w, port, BANDS, shifted, 3e-9) == (
                    measure_settling(w, port, BANDS, at_zero, 3e-9)), first
        assert measure_settling(w, "Y", BANDS, at_zero, 3e-9) == w.times[19]
        # Nor does it count from an event after the end of the run.
        assert measure_settling(w, "Y", BANDS, LATE, 3e-9) == (
            w.times[19] - 10e-9)


class TestGlitches:
    def test_constant_run_has_no_glitches(self, d29):
        stim = Stimulus.hold({"A": L2, "B": L1})
        w = run_transient(d29, stim, SolverConfig(t_stop=20e-9))
        assert detect_glitches(w, stim, BANDS) == []

    def test_simultaneous_transition_glitches(self, hazard_run):
        w, stim = hazard_run
        glitches = detect_glitches(w, stim, BANDS)
        assert len(glitches) >= 1
        for g in glitches:
            assert g.t_end > g.t_start
            # transition happens at 50 ns; events are settled well before 100
            assert 50e-9 <= g.t_start < 100e-9

    def test_settle_times_positive_after_transition(self, hazard_run):
        w, stim = hazard_run
        for k in range(9):
            t = measure_settling(w, f"Y{k}", BANDS, stim)
            assert 0.0 <= t <= 100e-9

    def test_glitch_event_validation(self):
        with pytest.raises(ValueError):
            GlitchEvent("n", 1e-9, 1e-9, "L0")


class TestSettling:
    # Frozen regression baselines for a 1 ns slewed L0->L2 step on the 1-3
    # decoder input; the engine is deterministic so these are exact.
    BASELINES = {"Y0": 3.0e-10, "Y1": 8.5e-10, "Y2": 7.0e-10}

    def test_settle_regression_baselines(self, slewed_run):
        w, stim = slewed_run
        for port, frozen in self.BASELINES.items():
            t = measure_settling(w, port, BANDS, stim)
            assert t == pytest.approx(frozen, rel=1e-9), port
            assert 0.0 < t <= 100e-9

    def test_dc_held_settles_immediately(self, d13):
        stim = Stimulus.hold({"X": L2})
        w = run_transient(d13, stim, SolverConfig(t_stop=50e-9))
        assert measure_settling(w, "Y2", BANDS, stim) == 0.0

    def test_not_settled_when_run_too_short(self, d13):
        stim = Stimulus({"X": ((0.0, L0), (3e-9, L2))}, slew=1e-9)
        w = run_transient(d13, stim, SolverConfig(t_stop=4e-9))
        assert measure_settling(w, "Y2", BANDS, stim) is None

    def test_zero_length_run_not_settled(self, d13):
        stim = Stimulus.hold({"X": L2})
        w = run_transient(d13, stim, SolverConfig(t_stop=0.0))
        assert measure_settling(w, "Y1", BANDS, stim) is None


class TestResourceReport:
    def test_display_pin_counts(self, display_report):
        assert display_report.measured["pins_in_ternary"] == 2
        assert display_report.measured["pins_in_encoded_lines"] == 4
        assert display_report.measured["pins_out"] == 7

    def test_supply_pin_of_any_name(self, display):
        renamed = parse(serialize(display).replace("vdd", "vcc"))
        assert [p.name for p in renamed.input_ports()] == ["A", "B", "vcc"]
        measured = resource_report(renamed).measured
        assert measured["pins_in_ternary"] == 2
        assert measured["pins_in_encoded_lines"] == 4

    def test_device_counts_match_circuit(self, display_report, display):
        m = display_report.measured
        assert m["memristor_count"] == len(display.memristors())
        assert m["mosfet_count"] == len(display.mosfets())
        assert m["resistor_count"] == 22
        assert m["gate_count"] == sum(display.cells.values())

    def test_reference_constants_pinned(self, display_report):
        # Acceptance criterion 08 pins the other constants, each with its
        # source, and the measured x7 I/O ratio.
        pins = {"ternary_ffs": (154, "Sec. VI-C, device utilization"),
                "baseline_ffs": (26, "Sec. VI-C, device utilization")}
        for key, (value, source) in pins.items():
            c = display_report.constant(key)
            assert c.value == value, key
            assert c.source == source, key

    def test_derived_io_ratio(self, display_report):
        assert "approximately 6 times" in display_report.constant(
            "io_power_ratio_reported").value

    def test_renders(self, display_report):
        text = display_report.to_text()
        assert "PowerPlay Early Power Estimator" in text
        assert "x7 measured I/O-pin-power model" in text
        text = display_report.to_json()
        assert text.startswith('{\n  "measured": {\n    "pins_in_ternary": 2,')
        assert json.loads(text)["measured"]["pins_out"] == 7


class TestSevenSegment:
    """The digit row that the display's nine vectors render is acceptance
    criterion 10."""

    def test_all_dark_renders_eight(self):
        segments = {s: 0 for s in SEGMENTS}
        text, digit = seven_segment_render(segments)
        assert digit == 8
        assert text.splitlines()[0] == " _ "

    def test_unmatched_pattern_returns_none(self):
        segments = {s: 1 for s in SEGMENTS}
        text, digit = seven_segment_render(segments)
        assert digit is None
        assert set(text) <= {" ", "\n"}

    def test_digit_patterns_unique(self):
        assert len(set(DIGIT_SEGMENTS.values())) == len(DIGIT_SEGMENTS)
