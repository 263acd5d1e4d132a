"""Waveform: the series it accepts, and to_csv and to_vcd against oracles.

The exports format a block of rows with one ``%`` call.  The two oracles
below write one row at a time: the CSV through ``csv.writer``, the VCD with
each sample stamped at its own time in whole fs and each level code taken
from the sample's region name, as ``VoltageBands.region`` gives it.  Every
case runs through both.
"""

import csv
import functools
import io
import math
import random

import numpy as np
import pytest

from ternsim.core import LEVELS, REGIONS, VoltageBands
from ternsim.engine import SolverConfig, Stimulus, Waveform, run_transient
from ternsim.netlist import builtin_network, elaborate

from conftest import switching, traced_peak

L0, L1, L2 = LEVELS
BANDS = VoltageBands.default(1.0)
VCD_CODES = {"L0": "00", "L1": "01", "L2": "10"}  # the gaps read as xx


def csv_oracle(w: Waveform) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    names = list(w.probes)
    writer.writerow(["time"] + names)
    for i, t in enumerate(w.times.tolist()):
        writer.writerow([f"{t:.12e}"] + [f"{w.probes[n][i]:.9f}"
                                         for n in names])
    return buf.getvalue()


def vcd_oracle(w: Waveform, bands: VoltageBands) -> str:
    names = list(w.probes)
    out = ["$timescale 1fs $end\n$scope module ternsim $end\n"]
    for j, node in enumerate(names):
        out.append(f"$var real 64 r{j} V({node}) $end\n"
                   f"$var wire 2 w{j} L({node}) $end\n")
    out.append("$upscope $end\n$enddefinitions $end\n")
    series = [w.probes[n].tolist() for n in names]
    # Each sample's region name, as VoltageBands.region gives it, from one
    # codes() call per probe instead of one region() call per sample.
    regions = [[REGIONS[k] for k in bands.codes(w.probes[n]).tolist()]
               for n in names]
    for i, t in enumerate(w.times.tolist()):
        out.append(f"#{round(t / 1e-15)}\n")
        for j, s in enumerate(series):
            if i == 0 or s[i] != s[i - 1]:  # a repeat writes no entry
                code = VCD_CODES.get(regions[j][i], "xx")
                out.append(f"r{s[i]:.9g} r{j}\nb{code} w{j}\n")
    return "".join(out)


def exports(w: Waveform):
    csv_buf, vcd_buf = io.StringIO(), io.StringIO()
    w.to_csv(csv_buf)
    w.to_vcd(vcd_buf, BANDS)
    return csv_buf.getvalue(), vcd_buf.getvalue()


def waveform(dt, n, **probes):
    """n samples dt apart, with no memristor states."""
    return Waveform(dt=dt, times=np.arange(n) * dt,
                    probes={k: np.asarray(v, dtype=float)
                            for k, v in probes.items()}, states={})


# Signed zero, a value near the bottom of the double range, and ordinary
# values of both signs inside and between the bands.
VALUES = [0.0, -0.0, 1e-300, 123.456, 0.5, 1.0, 0.3, -2.5e-7,
          0.123456789012, 0.7]


def held_values(n):
    """Three probes of ``VALUES``, each holding about half its samples, so
    many VCD samples write no entry; the names need CSV quoting."""
    rng = np.random.default_rng(n)
    probes = {}
    for k, name in enumerate(("a", "b,c", 'q"d')):
        series = rng.choice(VALUES, n)
        for i in range(1, n):
            if rng.random() < 0.5:
                series[i] = series[i - 1]
        if n:  # the first row holds -0.0, 1e-300 and 123.456
            series[0] = VALUES[k + 1]
        probes[name] = series
    return waveform(50e-12, n, **probes)


def random_steps(n):
    """Three probes stepping among the band edges and their middles, each
    changing at about a third of the samples."""
    rng = np.random.default_rng(5)
    volts = rng.choice([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0], (n, 3))
    for i in range(1, n):
        volts[i] = np.where(rng.random(3) < 0.3, volts[i], volts[i - 1])
    return waveform(1e-12, n, **{name: volts[:, j]
                                 for j, name in enumerate("abc")})


def band_edges():
    """Probe a visits each band edge and one ulp past it, a gap value, a
    repeat (no line) and a same-code change (a line); b steps once."""
    b, up, down = BANDS, math.inf, -math.inf
    return waveform(1e-12, 12, a=[b.lo_max, np.nextafter(b.lo_max, up),
                                  b.mid_lo, np.nextafter(b.mid_lo, down),
                                  b.mid_hi, np.nextafter(b.mid_hi, up),
                                  b.hi_min, np.nextafter(b.hi_min, down),
                                  0.3, 0.3, 0.5, 0.55],
                    b=[1.0] * 6 + [0.0] * 6)


def ramp(dt, n):
    """One probe rising 0.1 mV a sample, so every sample writes an entry."""
    return waveform(dt, n, a=np.arange(n) * 1e-4)


def display_sequence(index):
    """Ten (A, B) vectors from a seeded generator, each unlike the last,
    drawn as the benchmark's ``transient_sequence`` draws them."""
    rng = random.Random(index)
    seq, prev = [], None
    while len(seq) < 10:
        vec = (rng.randrange(3), rng.randrange(3))
        if vec != prev:
            seq.append(vec)
            prev = vec
    return seq


def run(name, stim, t_stop=100e-9):
    return run_transient(elaborate(builtin_network(name)), stim,
                         SolverConfig(t_stop=t_stop))


# Row counts of 255 to 257 straddle a CSV row block; 323, 401, 2001 and
# 4001 rows span several CSV and many VCD blocks.
CASES = {
    "no-rows": lambda: waveform(1e-12, 0, a=[]),
    "no-probes": lambda: waveform(1e-12, 3),
    "by-hand": lambda: waveform(1e-12, 4,
                                a=[0.0, -0.0, 1e-10, 0.123456789012],
                                **{"b,c": [1.0, 0.5, -2.5e-7, 123.4],
                                   'q"d': [0.3] * 4}),
    "band-edges": band_edges,
    **{f"held-{n}": functools.partial(held_values, n)
       for n in (0, 1, 255, 256, 257)},
    "steps-323": functools.partial(random_steps, 323),
    "ramp-1.5e-15": functools.partial(ramp, 1.5e-15, 5),
    "ramp-1.5625e-12": functools.partial(ramp, 1.5625e-12, 4001),
    "d13-hold-L0": lambda: run("d13", Stimulus.hold({"X": L0}), 1e-9),
    "d13-hold-L2": lambda: run("d13", Stimulus.hold({"X": L2}), 1e-9),
    "d13-ramp": lambda: run("d13", Stimulus({"X": ((0.0, L0), (10e-9, L2))},
                                            slew=0.5e-9), 20e-9),
    # A new vector every 10 ns with 0.5 ns slew over 2001 steps: 61 probes.
    "display-switching": lambda: run("display",
                                     switching(display_sequence(1))),
}


@pytest.mark.parametrize("case", CASES)
def test_exports_match_oracles(case):
    w = CASES[case]()
    assert exports(w) == (csv_oracle(w), vcd_oracle(w, BANDS))


def test_csv_bytes_by_hand():
    got, _ = exports(CASES["by-hand"]())
    assert got == (
        'time,a,"b,c","q""d"\r\n'
        "0.000000000000e+00,0.000000000,1.000000000,0.300000000\r\n"
        "1.000000000000e-12,-0.000000000,0.500000000,0.300000000\r\n"
        "2.000000000000e-12,0.000000000,-0.000000250,0.300000000\r\n"
        "3.000000000000e-12,0.123456789,123.400000000,0.300000000\r\n")
    assert exports(CASES["no-rows"]())[0] == "time,a\r\n"
    assert exports(CASES["no-probes"]())[0] == (
        "time\r\n0.000000000000e+00\r\n1.000000000000e-12\r\n"
        "2.000000000000e-12\r\n")


def test_vcd_bytes_at_band_edges():
    _, got = exports(band_edges())
    assert got == (
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


@pytest.mark.parametrize("dt,n,stamps", [
    # Samples at 0, 1.5, 3, 4.5 and 6 fs (each a hair below, in binary).
    (1.5e-15, 5, {0: 0, 1: 1, 2: 3, 3: 4, 4: 6}),
    # Sample 4000 is at 6.25 ns, as the CSV's time column says.
    (1.5625e-12, 4001, {1: 1562, 2: 3125, 3: 4688, 4000: 6_250_000}),
])
def test_stamps_are_the_sample_times(dt, n, stamps):
    got_csv, got_vcd = exports(ramp(dt, n))
    marks = [ln for ln in got_vcd.splitlines() if ln.startswith("#")]
    assert len(marks) == n
    for i, fs in stamps.items():
        assert marks[i] == f"#{fs}"
    assert got_csv.split("\r\n")[n].startswith(f"{(n - 1) * dt:.12e},")


def test_two_samples_on_one_stamp_refused():
    # 0.5 fs rounds to even: the samples at 0 and 0.5 fs both read #0.
    w = waveform(5e-16, 4, a=np.zeros(4))
    fh = io.StringIO()
    with pytest.raises(ValueError, match=r"^dt=5e-16 s puts two samples on "
                       "one 1 fs VCD timestamp$"):
        w.to_vcd(fh, BANDS)
    assert fh.getvalue() == ""


@pytest.mark.parametrize("probes,states,match", [
    ({"a": np.array([0.0, np.nan, 0.0])}, {}, "probe 'a' carries"),
    ({"a": np.zeros(3)}, {"m": np.array([0.5, np.nan, 0.5])},
     "state series 'm' leaves"),
    ({"a": np.zeros(3)}, {"m": np.array([0.5, 1.5, 0.5])},
     "state series 'm' leaves"),
    ({"a": np.zeros(3)}, {"m": np.array([0.5, -0.5, 0.5])},
     "state series 'm' leaves"),
    ({"a": np.zeros(2)}, {}, "series 'a' length 2 != 3"),
    ({"a": np.zeros(3)}, {"m": np.full(2, 0.5)},
     "series 'm' length 2 != 3"),
])
def test_bad_series_rejected(probes, states, match):
    with pytest.raises(ValueError, match=match):
        Waveform(dt=1e-12, times=np.arange(3) * 1e-12, probes=probes,
                 states=states)


@pytest.mark.parametrize("times", [
    [0.0, 1e-12, np.inf], [0.0, 2e-12, 1e-12], [0.0, np.nan, 2e-12],
    [0.0, 1e-12, 1e-12], [np.nan]])
def test_bad_times_rejected(times):
    with pytest.raises(ValueError, match="^times must be finite and "
                                         "strictly increasing$"):
        Waveform(dt=1e-12, times=np.array(times),
                 probes={"a": np.zeros(len(times))}, states={})


def test_states_may_reach_0_and_1():
    xs = np.array([0.0, 0.5, 1.0])
    w = Waveform(dt=1e-12, times=np.arange(3) * 1e-12, probes={},
                 states={"m": xs, "n": xs[::-1]})
    assert w.states["m"] is xs


class CountingSink:
    """A handle that counts the characters written to it and keeps none."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def test_export_memory_does_not_grow_with_run_length():
    # Both exports work a block of rows at a time: from N to 8N samples of
    # 16 probes their peak grows by far less than the probes themselves do,
    # and than their text does, so neither holds a copy of either.
    rng = np.random.default_rng(3)
    volts = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0], (16, 2000))
    short, long = (waveform(1e-12, n, **{f"p{j}": v[:n]
                                         for j, v in enumerate(volts)})
                   for n in (250, 2000))
    grown = volts[:, 250:].nbytes
    for export in (lambda w, fh: w.to_csv(fh),
                   lambda w, fh: w.to_vcd(fh, BANDS)):
        sinks = [CountingSink(), CountingSink()]
        peaks = [traced_peak(lambda: export(w, sink))
                 for w, sink in zip((short, long), sinks)]
        assert sinks[1].chars - sinks[0].chars > grown
        assert peaks[1] - peaks[0] < grown / 4
