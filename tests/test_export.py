"""Waveform.to_csv and to_vcd against per-cell formatting oracles.

The exports format a block of rows with one ``%`` call; the oracles below
format every cell on its own, row block by row block, and must give the
same bytes.
"""

import csv
import io
import random

import numpy as np
import pytest

from ternsim import engine
from ternsim.core import VoltageBands
from ternsim.engine import Waveform, run_transient

from conftest import switching

BANDS = VoltageBands.default(1.0)


def csv_per_cell(w: Waveform) -> str:
    fh = io.StringIO()
    names = list(w.probes)
    csv.writer(fh).writerow(["time"] + names)
    times = np.asarray(w.times)
    series = [np.asarray(w.probes[n]) for n in names]
    block = engine._CSV_BLOCK
    for lo in range(0, len(times), block):
        cols = [[f"{t:.12e}" for t in times[lo:lo + block].tolist()]]
        cols += [[f"{v:.9f}" for v in s[lo:lo + block].tolist()]
                 for s in series]
        fh.write("".join([",".join(row) + "\r\n" for row in zip(*cols)]))
    return fh.getvalue()


def vcd_per_cell(w: Waveform, bands: VoltageBands) -> str:
    fh = io.StringIO()
    fh.write("$timescale 1fs $end\n$scope module ternsim $end\n")
    for j, node in enumerate(w.probes):
        fh.write(f"$var real 64 r{j} V({node}) $end\n")
        fh.write(f"$var wire 2 w{j} L({node}) $end\n")
    fh.write("$upscope $end\n$enddefinitions $end\n")
    width = len(w.probes)
    volts = np.empty((len(w.times), width))
    for j, series in enumerate(w.probes.values()):
        volts[:, j] = series
    changed = np.ones(volts.shape, dtype=bool)
    changed[1:] = volts[1:] != volts[:-1]
    tails = [f" r{j}\nb{code} w{j}\n"
             for code in engine._VCD_CODES for j in range(width)]
    block_len = engine._VCD_BLOCK
    for lo in range(0, len(volts), block_len):
        block = volts[lo:lo + block_len]
        rows, cols = np.nonzero(changed[lo:lo + block_len])
        vals = block[rows, cols]
        keys = bands.codes(vals) * width + cols
        cells = [f"r{v:.9g}{tails[key]}"
                 for v, key in zip(vals.tolist(), keys.tolist())]
        ends = np.searchsorted(rows, np.arange(1, len(block) + 1))
        out, start = [], 0
        for i, end in enumerate(ends.tolist(), lo):
            out.append(f"#{round(float(w.times[i]) / 1e-15)}\n")
            out += cells[start:end]
            start = end
        fh.write("".join(out))
    return fh.getvalue()


def exports(w: Waveform):
    csv_buf, vcd_buf = io.StringIO(), io.StringIO()
    w.to_csv(csv_buf)
    w.to_vcd(vcd_buf, BANDS)
    return csv_buf.getvalue(), vcd_buf.getvalue()


# Signed zero, a value near the bottom of the double range, and ordinary
# values of both signs inside and between the bands.
VALUES = [0.0, -0.0, 1e-300, 123.456, 0.5, 1.0, 0.3, -2.5e-7,
          0.123456789012, 0.7]


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257])
def test_blocks_match_per_cell_oracle(n):
    rng = np.random.default_rng(n)
    probes = {}
    for name in ("a", "b,c", 'q"d'):
        series = rng.choice(VALUES, n)
        # Hold about half the samples, so many VCD samples write no entry.
        for i in range(1, n):
            if rng.random() < 0.5:
                series[i] = series[i - 1]
        probes[name] = series
    if n:  # the first row holds -0.0, 1e-300 and 123.456
        for series, value in zip(probes.values(), VALUES[1:4]):
            series[0] = value
    w = Waveform(dt=50e-12, times=np.arange(n) * 50e-12, probes=probes,
                 states={})
    got_csv, got_vcd = exports(w)
    assert got_csv == csv_per_cell(w)
    assert got_vcd == vcd_per_cell(w, BANDS)
    assert got_csv.count("\r\n") == n + 1
    if n:
        assert got_csv.split("\r\n")[1] == (
            "0.000000000000e+00,-0.000000000,0.000000000,123.456000000")
        assert "#0\nr-0 r0\nb00 w0\nr1e-300 r1\nb00 w1\nr123.456 r2\n" \
            in got_vcd


def test_no_probes():
    w = Waveform(dt=1e-12, times=np.arange(3) * 1e-12, probes={}, states={})
    got_csv, got_vcd = exports(w)
    assert got_csv == csv_per_cell(w) == (
        "time\r\n0.000000000000e+00\r\n1.000000000000e-12\r\n"
        "2.000000000000e-12\r\n")
    assert got_vcd == vcd_per_cell(w, BANDS)


@pytest.mark.parametrize("dt,n,stamps", [
    # Samples at 0, 1.5, 3, 4.5 and 6 fs (each a hair below, in binary).
    (1.5e-15, 5, {0: 0, 1: 1, 2: 3, 3: 4, 4: 6}),
    # Sample 4000 is at 6.25 ns, as the CSV's time column says.
    (1.5625e-12, 4001, {1: 1562, 2: 3125, 3: 4688, 4000: 6_250_000}),
])
def test_stamps_are_the_sample_times(dt, n, stamps):
    w = Waveform(dt=dt, times=np.arange(n) * dt,
                 probes={"a": np.arange(n) * 1e-4}, states={})
    got_csv, got_vcd = exports(w)
    assert got_vcd == vcd_per_cell(w, BANDS)
    marks = [ln for ln in got_vcd.splitlines() if ln.startswith("#")]
    assert len(marks) == n
    for i, fs in stamps.items():
        assert marks[i] == f"#{fs}"
    assert got_csv.split("\r\n")[n].startswith(f"{(n - 1) * dt:.12e},")


def test_two_samples_on_one_stamp_refused():
    # 0.5 fs rounds to even: the samples at 0 and 0.5 fs both read #0.
    w = Waveform(dt=5e-16, times=np.arange(4) * 5e-16,
                 probes={"a": np.zeros(4)}, states={})
    fh = io.StringIO()
    with pytest.raises(ValueError, match=r"^dt=5e-16 s puts two samples on "
                       "one 1 fs VCD timestamp$"):
        w.to_vcd(fh, BANDS)
    assert fh.getvalue() == ""


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


def test_display_switching_run_matches_oracle(display):
    # A new vector every 10 ns with 0.5 ns slew over 2001 steps: 61 probes,
    # several CSV and many VCD row blocks.
    w = run_transient(display, switching(display_sequence(1)))
    assert len(w.times) == 2001 and len(w.probes) == 61
    got_csv, got_vcd = exports(w)
    assert got_csv == csv_per_cell(w)
    assert got_vcd == vcd_per_cell(w, BANDS)
