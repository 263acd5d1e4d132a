"""Device models: analog memristor, two-state digital memristor, MOSFET, resistor.

The analog memristor is a bistable threshold device: its state is a plain
float x in [0, 1] (1 fully on, 0 fully off) that mixes the on/off
conductances, and relaxes exponentially toward 1 (set) when forward-biased
past ``v_on`` or toward 0 (reset) when reverse-biased past ``v_off``.
Sub-threshold bias holds the state.  The MOSFET is a piecewise square-law
model with optional channel-length modulation; gate variants differ only in
threshold voltage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class NonpositiveTimestep(ValueError):
    """Raised when a state update is asked for dt <= 0."""


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
        if not 0 < self.r_on < self.r_off:
            raise ValueError(f"need 0 < r_on < r_off, got {self.r_on}, {self.r_off}")
        if self.v_on <= 0 or self.v_off <= 0 or self.tau <= 0:
            raise ValueError("v_on, v_off and tau must be positive")
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
        if self.vth <= 0 or self.k <= 0 or self.channel_mod < 0:
            raise ValueError("vth and k must be positive, channel_mod >= 0")


def memristance(x: float, p: MemristorParams) -> float:
    """Resistance of the conductance mix G = x/r_on + (1-x)/r_off.

    Written as a product ratio so the endpoints are exact: x=1 -> r_on,
    x=0 -> r_off.  Strictly decreasing in x.
    """
    return (p.r_on * p.r_off) / (x * p.r_off + (1.0 - x) * p.r_on)


def update_state(x: float, v: float, dt: float, p: MemristorParams) -> float:
    """Advance the state x by dt under branch voltage v (anode minus cathode).

    Threshold-gated exponential relaxation:
      v >= v_on   : x' = x + (1-x) * (1 - exp(-dt/tau))
      v <= -v_off : x' = x * exp(-dt/tau)
      otherwise     x' = x
    Exact under subdivision (dt then dt equals 2*dt).
    """
    if dt <= 0:
        raise NonpositiveTimestep(f"dt must be positive, got {dt}")
    decay = math.exp(-dt / p.tau)
    if v >= p.v_on:
        x = x + (1.0 - x) * (1.0 - decay)
    elif v <= -p.v_off:
        x = x * decay
    else:
        return x
    return min(1.0, max(0.0, x))


DIGITAL_R_ON = 500
DIGITAL_R_OFF = 1500


def digital_memristance(v_anode: float, v_cathode: float) -> int:
    """Two-state memristance used by the gate-level backend.

    Forward bias (anode above cathode) reads 500, reverse bias 1500.  A tie
    reads 1500, matching a device that has seen no set event.  The low
    off/on ratio suits short integer bit-widths.
    """
    return DIGITAL_R_ON if v_anode > v_cathode else DIGITAL_R_OFF


def _square_law(u: float, vds: float, k: float, lam: float):
    """Channel current and partials for vds >= 0; u is the overdrive vgs - vth.

    Returns (i, di/dvgs, di/dvds).  Both operating regions carry the same
    (1 + lam*vds) factor so the triode/saturation boundary stays continuous.
    """
    if u <= 0.0:
        return 0.0, 0.0, 0.0
    m = 1.0 + lam * vds
    if vds < u:  # triode
        q = u * vds - 0.5 * vds * vds
        return k * q * m, k * vds * m, k * (u - vds) * m + k * q * lam
    q = 0.5 * u * u  # saturation
    return k * q * m, k * u * m, k * q * lam


def _nmos_terminal(p: MosfetParams, vg: float, vd: float, vs: float):
    """NMOS drain-terminal current and partials, handling drain/source swap."""
    if vd >= vs:
        i, dg, dd = _square_law(vg - vs - p.vth, vd - vs, p.k, p.channel_mod)
        return i, dg, dd, -(dg + dd)
    # Channel conducts the other way; roles of the terminals swap.
    i, dg, dd = _square_law(vg - vd - p.vth, vs - vd, p.k, p.channel_mod)
    return -i, -dg, dg + dd, -dd


def mosfet_small_signal(p: MosfetParams, vg: float, vd: float, vs: float):
    """Drain-terminal current and its partials w.r.t. (vg, vd, vs).

    The current is positive when it flows from the drain node into the
    channel.  PMOS is the NMOS mirror under sign inversion of all voltages.
    """
    if p.polarity == "NMOS":
        return _nmos_terminal(p, vg, vd, vs)
    i, dg, dd, ds = _nmos_terminal(
        MosfetParams("NMOS", p.vth, p.k, p.channel_mod), -vg, -vd, -vs)
    return -i, dg, dd, ds


def mosfet_current(p: MosfetParams, vg: float, vd: float, vs: float) -> float:
    """Piecewise square-law drain current (positive into the drain terminal)."""
    return mosfet_small_signal(p, vg, vd, vs)[0]
