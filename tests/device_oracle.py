"""Scalar device models: the oracle of the kernels in ``ternsim.devices``.

The engine evaluates every device through the array kernels in
``ternsim.devices``.  This module writes the same equations once more, one
device at a time with plain branches, so the tests can check the kernels
against an independent statement of the model: the kernel tests assert
``==``, not closeness, because the arithmetic is the same in the same order.
``kcl_residual`` sums the currents of these scalar models, so a residual
check does not share its device code with the solver it checks.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from ternsim.devices import MemristorParams, MosfetParams, NonpositiveTimestep
from ternsim.netlist.model import Circuit, Memristor, Mosfet, Resistor


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


def kcl_residual(circuit: Circuit, voltages: Mapping,
                 states: Optional[Mapping] = None) -> dict:
    """True KCL current residual at every node (for verification)."""
    residual = {n: 0.0 for n in circuit.nodes}
    for dev in circuit.devices:
        if isinstance(dev, Resistor):
            i = (voltages[dev.n1] - voltages[dev.n2]) / dev.ohms
            residual[dev.n1] += i
            residual[dev.n2] -= i
        elif isinstance(dev, Memristor):
            r = memristance((states or {}).get(dev.name, dev.params.x0),
                            dev.params)
            i = (voltages[dev.anode] - voltages[dev.cathode]) / r
            residual[dev.anode] += i
            residual[dev.cathode] -= i
        elif isinstance(dev, Mosfet):
            i_d = mosfet_small_signal(dev.params, voltages[dev.gate],
                                      voltages[dev.drain], voltages[dev.source])[0]
            residual[dev.drain] += i_d
            residual[dev.source] -= i_d
    return residual
