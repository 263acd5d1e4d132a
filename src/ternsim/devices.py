"""Device models: analog memristor, two-state digital memristor, MOSFET, resistor.

The analog memristor is a bistable threshold device: its state is a plain
float x in [0, 1] (1 fully on, 0 fully off) that mixes the on/off
conductances, and relaxes exponentially toward 1 (set) when forward-biased
past ``v_on`` or toward 0 (reset) when reverse-biased past ``v_off``.
Sub-threshold bias holds the state.  The MOSFET is a piecewise square-law
model with optional channel-length modulation; gate variants differ only in
threshold voltage.

Each equation is written once, over arrays with one element per device, and
the engine calls it on all of a circuit's devices at once.  ``update_state``
and ``mosfet_current`` are one-device calls into those kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonpositiveTimestep(ValueError):
    """Raised when a state update is asked for dt <= 0."""


def _positive(params, *names) -> None:
    """Raise ValueError naming the first field that is not finite and > 0."""
    for name in names:
        value = getattr(params, name)
        if not 0 < value < math.inf:  # a NaN fails too
            raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class MemristorParams:
    """Bistable memristor parameterization.

    Defaults follow the reference device: 500 ohm / 10 kohm on/off
    resistance, symmetric 0.27 V set/reset thresholds, 500 ps state time
    constant, initially fully off.
    """

    r_on: float = 500.0
    r_off: float = 10_000.0
    v_on: float = 0.27
    v_off: float = 0.27
    tau: float = 500e-12
    x0: float = 0.0

    def __post_init__(self):
        _positive(self, "r_on", "r_off", "v_on", "v_off", "tau")
        if not self.r_on < self.r_off:
            raise ValueError(f"need 0 < r_on < r_off, got {self.r_on}, {self.r_off}")
        if not 0 < self.r_on * self.r_off < math.inf:  # memristance's numerator
            raise ValueError(f"r_on * r_off must be a positive finite float, "
                             f"got {self.r_on} * {self.r_off}")
        if not 0.0 <= self.x0 <= 1.0:
            raise ValueError(f"x0 must lie in [0, 1], got {self.x0}")


@dataclass(frozen=True)
class MosfetParams:
    """Square-law MOSFET: polarity, threshold magnitude, transconductance factor.

    ``channel_mod`` is the channel-length-modulation coefficient (1/V); the
    default 0 reproduces the ideal square law, the cell library uses a small
    positive value so saturated devices keep finite output conductance.
    """

    polarity: str  # "NMOS" | "PMOS"
    vth: float
    k: float = 2e-3
    channel_mod: float = 0.0

    def __post_init__(self):
        if self.polarity not in ("NMOS", "PMOS"):
            raise ValueError(f"polarity must be NMOS or PMOS, got {self.polarity!r}")
        _positive(self, "vth", "k")
        if not 0 <= self.channel_mod < math.inf:
            raise ValueError(f"channel_mod must be finite and non-negative, "
                             f"got {self.channel_mod}")


def memristance(x, p):
    """Resistance of the conductance mix G = x/r_on + (1-x)/r_off.

    Written as a product ratio so the endpoints are exact: x=1 -> r_on,
    x=0 -> r_off.  Strictly decreasing in x.  Elementwise when ``x`` and
    ``p.r_on``, ``p.r_off`` are arrays with one element per device.
    """
    return (p.r_on * p.r_off) / (x * p.r_off + (1.0 - x) * p.r_on)


def advance_states(x, bias, decay, grow, v_on, neg_v_off):
    """Advance states x under branch voltages ``bias``, elementwise.

    ``bias`` is anode minus cathode, ``decay`` is exp(-dt/tau), ``grow`` is
    1 - decay and ``neg_v_off`` is -v_off.  Threshold-gated exponential
    relaxation, clipped to [0, 1]:
      bias >= v_on   : x' = x + (1-x) * (1 - exp(-dt/tau))
      bias <= -v_off : x' = x * exp(-dt/tau)
      otherwise        x' = x
    Exact under subdivision (dt then dt equals 2*dt).
    """
    x = np.where(bias >= v_on, x + (1.0 - x) * grow,
                 np.where(bias <= neg_v_off, x * decay, x))
    return np.minimum(1.0, np.maximum(0.0, x))


def update_state(x: float, v: float, dt: float, p: MemristorParams) -> float:
    """Advance one state x by dt under branch voltage v (``advance_states``).

    Raises NonpositiveTimestep unless dt > 0 (so for a NaN dt too).
    """
    if not dt > 0:
        raise NonpositiveTimestep(f"dt must be positive, got {dt}")
    decay = math.exp(-dt / p.tau)
    return float(advance_states(x, v, decay, 1.0 - decay, p.v_on, -p.v_off))


DIGITAL_R_ON = 500
DIGITAL_R_OFF = 1500


def digital_memristance(v_anode: float, v_cathode: float) -> int:
    """Two-state memristance used by the gate-level backend.

    Forward bias (anode above cathode) reads 500, reverse bias 1500.  A tie
    reads 1500, matching a device that has seen no set event.  The low
    off/on ratio suits short integer bit-widths.
    """
    return DIGITAL_R_ON if v_anode > v_cathode else DIGITAL_R_OFF


def mosfet_companion(sign, vth, k, lam, vgds):
    """Drain-terminal current and its partials w.r.t. (vg, vd, vs), per device.

    ``vgds`` holds the gate, drain and source voltages, a row each; the
    other arguments hold one value per device.  ``sign`` is +1 for NMOS and
    -1 for PMOS (the NMOS mirror under sign inversion of all voltages).  The
    current is positive into the drain terminal.  Triode and saturation
    carry the same (1 + lam*vds) factor, so the boundary stays continuous.
    """
    vg, vd, vs = sign * vgds
    fwd = vd >= vs  # else the channel conducts the other way
    lo = np.minimum(vd, vs)
    vds = np.abs(vd - vs)  # exact: a - b is -(b - a)
    # Cut off at u <= 0: u = 0 makes every term below exactly 0.
    u = np.maximum(vg - lo - vth, 0.0)
    m = 1.0 + lam * vds
    # e is vds in triode (vds < u) and u in saturation, where the triode
    # terms below are the saturation ones to the bit: u - e is 0, and
    # u*u - 0.5*u*u is 0.5*u*u unless u*u is subnormal (0 < u < 1.5e-154).
    e = np.minimum(vds, u)
    kq = k * (u * e - 0.5 * e * e)
    dg = k * e * m
    dd = k * (u - e) * m + kq * lam
    dgd = dg + dd
    flip = np.where(fwd, 1.0, -1.0)  # times +-1 is exact
    return (sign * flip * (kq * m), flip * dg, np.where(fwd, dd, dgd),
            -np.where(fwd, dgd, dd))


def mosfet_current(p: MosfetParams, vg: float, vd: float, vs: float) -> float:
    """Piecewise square-law drain current (positive into the drain terminal)."""
    sign = 1.0 if p.polarity == "NMOS" else -1.0
    return float(mosfet_companion(sign, p.vth, p.k, p.channel_mod,
                                  np.array([vg, vd, vs], dtype=float))[0])
