"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the suite is the exit gate for the whole package.
"""

import itertools
import math
import time

from ternsim.analysis import (detect_glitches, expected_outputs,
                              input_vectors, measure_settling,
                              resource_report, segments_from_levels,
                              seven_segment_render, verify)
from ternsim.core import LEVELS, VoltageBands, ref_nti, ref_pti, ref_sti
from ternsim.devices import (MemristorParams, digital_memristance,
                             memristance, update_state)
from ternsim.engine import (SolverConfig, Stimulus, run_transient,
                            steady_output)
from ternsim.netlist import (CellKind, NetlistError, build_cell,
                             builtin_network, elaborate, parse, serialize)
from ternsim.netlist.cells import divider_emulation

from digital_oracle import ref_tand, ref_tor

L0, L1, L2 = LEVELS
BANDS = VoltageBands.default(1.0)
DECODERS = ("d13", "d29", "display")


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_digital_truth_tables():
    t0 = time.perf_counter()
    counts = {}
    ok = True
    for decoder in DECODERS:
        report = verify("digital", decoder)
        counts[decoder] = len(report.vectors)
        ok &= report.passed
    elapsed = time.perf_counter() - t0
    ok &= counts == {"d13": 3, "d29": 9, "display": 9}
    ok &= elapsed < 1.0
    assert _report(1, ok, f"digital truth tables {counts}, "
                          f"runtime {elapsed:.3f}s < 1s")


def test_criterion_02_analog_truth_tables():
    cfg = SolverConfig()
    assert cfg.dt == 50e-12 and cfg.t_stop == 100e-9
    assert (BANDS.lo_max, BANDS.mid_lo, BANDS.mid_hi, BANDS.hi_min) == \
        (0.2, 0.4, 0.6, 0.8)
    t0 = time.perf_counter()
    n_pass = n_total = 0
    per_vector_ok = True
    for decoder in DECODERS:
        circuit = elaborate(builtin_network(decoder))
        for vec in input_vectors(decoder):
            out, info = steady_output(circuit, vec, bands=BANDS, cfg=cfg,
                                      return_info=True)
            n_total += 1
            n_pass += out == expected_outputs(decoder, vec)
            per_vector_ok &= info["t_run"] <= 100e-9
    elapsed = time.perf_counter() - t0
    ok = n_pass == n_total == 21 and per_vector_ok and elapsed < 60.0
    assert _report(2, ok, f"analog truth tables {n_pass}/{n_total} vectors, "
                          f"runtime {elapsed:.1f}s < 60s, "
                          f"per-vector sim <= 100ns: {per_vector_ok}")


def test_criterion_03_cross_backend_equivalence():
    mismatches = 0
    for decoder in DECODERS:
        analog = verify("analog", decoder)
        digital = verify("digital", decoder)
        for va, vd in zip(analog.vectors, digital.vectors):
            assert va.inputs == vd.inputs
            if va.observed != vd.observed:
                mismatches += 1
    ok = mismatches == 0
    assert _report(3, ok, f"quantized analog == digital on all 21 vectors "
                          f"({mismatches} mismatches)")


def test_criterion_04_gate_level_oracle():
    singles = {CellKind.STI: ref_sti, CellKind.NTI: ref_nti,
               CellKind.PTI: ref_pti, CellKind.SFBUF: lambda a: a}
    pairs = {CellKind.TAND2: ref_tand, CellKind.TOR2: ref_tor,
             CellKind.TNOR: lambda a, b: ref_sti(ref_tor(a, b))}
    failures = []
    for kind, fn in singles.items():
        cell = build_cell(kind)
        for a in LEVELS:
            if steady_output(cell, {"in": a})["out"] != fn(a):
                failures.append((kind.value, a))
    for kind, fn in pairs.items():
        cell = build_cell(kind)
        for a, b in itertools.product(LEVELS, repeat=2):
            if steady_output(cell, {"a": a, "b": b})["out"] != fn(a, b):
                failures.append((kind.value, (a, b)))
    for n in (3, 5):
        cell = build_cell(CellKind.TORN, n=n)
        for combo in itertools.product(LEVELS, repeat=n):
            ins = {f"in{i + 1}": lv for i, lv in enumerate(combo)}
            if steady_output(cell, ins)["out"] != max(combo):
                failures.append((f"TORN{n}", combo))
    tand = build_cell(CellKind.TAND2)
    _, info = steady_output(tand, {"a": L2, "b": L1}, return_info=True)
    v_divider = info["voltages"]["out"]
    divider_ok = abs(v_divider - 0.524) < 0.05
    ok = not failures and divider_ok
    assert _report(4, ok, f"all cell kinds exhaustive ({len(failures)} "
                          f"failures); TAND(2,1) divider {v_divider:.4f} V "
                          f"within 0.05 of 0.524")


def test_criterion_05_device_properties():
    p = MemristorParams()
    pinched = all(0.0 / memristance(x, p) == 0.0
                  for x in (0.0, 0.25, 0.5, 0.75, 1.0))
    set_done = all(update_state(x0, 2 * p.v_on, 10 * p.tau, p) > 0.9999
                   for x0 in (0.0, 0.5, 1.0))
    reset_done = all(update_state(x0, -2 * p.v_off, 10 * p.tau, p) < 1e-4
                     for x0 in (0.0, 0.5, 1.0))
    sub_ok = True
    for x0 in (0.0, 0.3, 0.9):
        for v in (0.5, -0.5):
            one = update_state(update_state(x0, v, p.tau, p), v, p.tau, p)
            two = update_state(x0, v, 2 * p.tau, p)
            sub_ok &= math.isclose(one, two, rel_tol=1e-12, abs_tol=1e-15)
    endpoints = (memristance(1.0, p) == 500.0
                 and memristance(0.0, p) == 10_000.0)
    ok = pinched and set_done and reset_done and sub_ok and endpoints
    assert _report(5, ok, f"pinched={pinched} set10tau={set_done} "
                          f"reset10tau={reset_done} subdivision={sub_ok} "
                          f"endpoints_exact={endpoints}")


def test_criterion_06_hazard_presence_and_settle_baselines():
    d29 = elaborate(builtin_network("d29"))
    stim = Stimulus({"A": ((0.0, L2), (50e-9, L1)),
                     "B": ((0.0, L1), (50e-9, L2))}, slew=1e-9)
    w = run_transient(d29, stim, SolverConfig(t_stop=100e-9))
    glitches = detect_glitches(w, stim, BANDS)
    d13 = elaborate(builtin_network("d13"))
    stim2 = Stimulus({"X": ((0.0, L0), (50e-9, L2))}, slew=1e-9)
    w2 = run_transient(d13, stim2, SolverConfig(t_stop=100e-9))
    baselines = {"Y0": 3.0e-10, "Y1": 8.5e-10, "Y2": 7.0e-10}
    settle_ok = True
    settles = {}
    for port, frozen in baselines.items():
        t = measure_settling(w2, port, BANDS, stim2)
        settles[port] = t
        settle_ok &= 0.0 < t <= 100e-9 and math.isclose(t, frozen, rel_tol=1e-6)
    ok = len(glitches) >= 1 and settle_ok
    names = sorted({g.node for g in glitches})
    assert _report(6, ok, f"{len(glitches)} glitch event(s) on {names} after "
                          f"simultaneous transition; d13 settle baselines "
                          f"{ {k: f'{v * 1e9:.2f}ns' for k, v in settles.items()} }")


def test_criterion_07_digital_memristor_model():
    forward, reverse = digital_memristance(1.0, 0.0), digital_memristance(0.0, 1.0)
    resist_ok = (forward, reverse) == (500, 1500)
    agree = all(divider_emulation(a, b, "AND") == ref_tand(a, b)
                and divider_emulation(a, b, "OR") == ref_tor(a, b)
                for a, b in itertools.product(LEVELS, repeat=2))
    ok = resist_ok and agree
    assert _report(7, ok, f"forward/reverse = {forward}/{reverse}; divider "
                          f"emulation == min/max on all 9 pairs x 2 "
                          f"orientations: {agree}")


def test_criterion_08_constant_pinning():
    report = resource_report(elaborate(builtin_network("display")))
    expected = {
        "ternary_io_power_mw": (2.0, "Table V, thermal power: I/O"),
        "ternary_static_power_mw": (60.0, "Table V, thermal power: static"),
        "ternary_total_power_mw": (62.0, "Table V, thermal power: total FPGA"),
        "baseline_io_power_mw": (14.0, "Sec. VI-C, baseline I/O power"),
        "ternary_luts": (154, "Sec. VI-C, device utilization"),
        "baseline_luts": (26, "Sec. VI-C, device utilization"),
        "ternary_registers": (11, "Sec. VI-C, device utilization"),
        "baseline_registers": (12, "Sec. VI-C, device utilization"),
        "ternary_pins": (13, "Sec. VI-C, device utilization"),
        "baseline_pins": (17, "Sec. VI-C, device utilization"),
        "ternary_fmax_mhz": (293.8, "Sec. VI-C, timing report"),
        "baseline_fmax_mhz": (577.7, "Sec. VI-C, timing report"),
        "speed_ratio": (1.98, "Sec. VI-C, baseline/ternary fmax ratio"),
        "total_power_reduction_pct": (18.75, "Sec. VI-C, total power reduction"),
        "estimator": ("PowerPlay Early Power Estimator", "Table V footnote"),
    }
    drifted = []
    for key, (value, source) in expected.items():
        c = report.constant(key)
        if c.value != value or c.source != source:
            drifted.append(key)
    ratio_ok = report.derived["io_power_ratio_measured"] == 7.0
    ok = not drifted and ratio_ok
    assert _report(8, ok, f"{len(expected)} pinned constants+citations "
                          f"({len(drifted)} drifted); io ratio x7 vs "
                          f"'approximately 6 times'")


def test_criterion_09_parser_roundtrip_and_errors():
    roundtrip_ok = True
    for name in DECODERS:
        circuit = elaborate(builtin_network(name))
        roundtrip_ok &= parse(serialize(circuit)) == circuit
    malformed = [
        "M1 a",                                        # missing node
        "Q1 a b c",                                    # unknown device
        "V1 a 0 DC 1\nR1 a 0 1k\nR1 a 0 1k",           # duplicate name
        "V1 a 0 DC 1\nR1 a 0 1k\n.port out y nowhere", # unbound port node
        "V1 a 0 DC 1\nR1 a 0 12x3",                    # bad value
        "V1 a 0 DC",                                   # missing DC value
        "V1 a 0 PWL(0 0 1n)",                          # odd PWL points
        "T1 d g s CMOS VTH=0.3 K=1m",                  # bad polarity
        "M1 a b RON=500 BOGUS=1",                      # unknown key
        "V1 a 0 DC 1\nR1 a 0 1k\nR2 a x 1k",           # dangling node
    ]
    error_ok = True
    for text in malformed:
        try:
            parse(text)
            error_ok = False
        except NetlistError as exc:
            error_ok &= exc.line is not None
    ok = roundtrip_ok and error_ok
    assert _report(9, ok, f"round-trip over {len(DECODERS)} builtins: "
                          f"{roundtrip_ok}; {len(malformed)} malformed cases "
                          f"line-numbered: {error_ok}")


def test_criterion_10_display_digit_sequence():
    digits = []
    for vec in input_vectors("display"):
        levels = expected_outputs("display", vec)
        segments = segments_from_levels(levels)
        _, digit = seven_segment_render(segments)
        digits.append(digit)
    ok = digits == [8, 7, 6, 5, 4, 3, 2, 1, 0]
    assert _report(10, ok, f"display digit row renders {digits}")
