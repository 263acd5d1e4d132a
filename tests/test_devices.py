import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ternsim import engine
from ternsim.devices import (MemristorParams, MosfetParams,
                             NonpositiveTimestep, digital_memristance,
                             memristance, mosfet_companion, mosfet_current,
                             update_state)
from ternsim.engine import _System
from ternsim.netlist.model import Circuit, Memristor, Port, VSource

import device_oracle as oracle

P = MemristorParams()


class TestMemristance:
    def test_endpoints_exact(self):
        assert memristance(1.0, P) == 500.0
        assert memristance(0.0, P) == 10_000.0

    def test_midpoint(self):
        # parallel conductance mix: 1 / (0.5/500 + 0.5/10000)
        expected = 1.0 / (0.5 / 500.0 + 0.5 / 10_000.0)
        assert memristance(0.5, P) == pytest.approx(expected)
        assert expected == pytest.approx(952.380952, abs=1e-5)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_decreasing(self, x1, x2):
        r1 = memristance(x1, P)
        r2 = memristance(x2, P)
        if x1 + 1e-9 < x2:
            assert r1 > r2
        assert 500.0 <= r1 <= 10_000.0

    def test_zero_bias_current_is_zero(self):
        # pure resistance: pinched hysteresis at the origin
        for x in (0.0, 0.25, 0.5, 1.0):
            r = memristance(x, P)
            assert 0.0 / r == 0.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            MemristorParams(r_on=1000.0, r_off=500.0)
        with pytest.raises(ValueError):
            MemristorParams(x0=1.5)


class TestParamBoundaries:
    """Each parameter check at its boundary value."""

    @pytest.mark.parametrize("name", ["r_on", "r_off", "v_on", "v_off", "tau"])
    def test_memristor_zero_is_not_positive(self, name):
        with pytest.raises(ValueError,
                           match=f"^{name} must be finite and positive, got 0"):
            MemristorParams(**{name: 0.0})

    @pytest.mark.parametrize("name", ["vth", "k"])
    def test_mosfet_zero_is_not_positive(self, name):
        with pytest.raises(ValueError,
                           match=f"^{name} must be finite and positive, got 0"):
            MosfetParams("NMOS", **{"vth": 0.3, name: 0.0})

    def test_equal_on_and_off_resistance_refused(self):
        with pytest.raises(ValueError, match="need 0 < r_on < r_off"):
            MemristorParams(r_on=500.0, r_off=500.0)

    @pytest.mark.parametrize("x0", [0.0, 1.0])
    def test_state_may_start_at_either_end(self, x0):
        assert MemristorParams(x0=x0).x0 == x0


class TestStateUpdate:
    def test_set_closed_form(self):
        s = update_state(0.0, 0.5, P.tau, P)
        assert s == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_subthreshold_holds(self):
        s = update_state(0.4, 0.1, P.tau, P)
        assert s == 0.4
        s = update_state(0.4, -0.1, P.tau, P)
        assert s == 0.4

    def test_reset_closed_form(self):
        s = update_state(1.0, -0.5, 5 * P.tau, P)
        assert s == pytest.approx(math.exp(-5.0), rel=1e-12)

    def test_bad_timestep(self):
        for dt in (0.0, -P.tau, math.nan):
            with pytest.raises(NonpositiveTimestep):
                update_state(0.0, 1.0, dt, P)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=1e-13, max_value=5e-9),
           st.sampled_from([0.5, 1.0, -0.5, -1.0]))
    def test_subdivision_consistency(self, x0, dt, v):
        one = update_state(update_state(x0, v, dt, P), v, dt, P)
        two = update_state(x0, v, 2 * dt, P)
        assert one == pytest.approx(two, rel=1e-12, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_set_completion_after_10_tau(self, x0):
        s = update_state(x0, 2 * P.v_on, 10 * P.tau, P)
        assert s > 0.9999
        s = update_state(x0, -2 * P.v_off, 10 * P.tau, P)
        assert s < 1.0 - 0.9999


class TestDigitalMemristance:
    """Forward 500 and reverse 1500 are acceptance criterion 07."""

    def test_tie_reads_off(self):
        assert digital_memristance(0.7, 0.7) == 1500


NM = MosfetParams("NMOS", vth=0.3, k=1e-3)
PM = MosfetParams("PMOS", vth=0.3, k=1e-3)


class TestMosfet:
    def test_cutoff(self):
        assert mosfet_current(NM, 0.2, 1.0, 0.0) == 0.0

    def test_saturation(self):
        assert mosfet_current(NM, 1.0, 1.0, 0.0) == pytest.approx(2.45e-4)

    def test_triode(self):
        assert mosfet_current(NM, 1.0, 0.1, 0.0) == pytest.approx(6.5e-5)

    def test_region_boundary_continuity(self):
        # both expressions equal (k/2) u^2 at vds = u
        u = 0.4
        below = mosfet_current(NM, 0.3 + u, u - 1e-9, 0.0)
        above = mosfet_current(NM, 0.3 + u, u + 1e-9, 0.0)
        assert below == pytest.approx(above, rel=1e-6)
        assert above == pytest.approx(0.5 * NM.k * u * u, rel=1e-6)

    def test_pmos_mirror(self):
        # PMOS pulling up: current flows out of the drain terminal
        i = mosfet_current(PM, 0.0, 0.5, 1.0)
        assert i == pytest.approx(-mosfet_current(NM, 1.0, 0.5, 0.0))
        assert i < 0

    def test_source_drain_swap_antisymmetry(self):
        # The channel conducts symmetrically: exchanging the two channel
        # terminals reverses the terminal current.
        i_fwd = mosfet_current(NM, 0.8, 0.6, 0.2)
        i_rev = mosfet_current(NM, 0.8, 0.2, 0.6)
        assert i_rev == pytest.approx(-i_fwd)
        assert i_fwd > 0

    @pytest.mark.parametrize("polarity", ["NMOS", "PMOS"])
    @pytest.mark.parametrize("lam", [0.0, 0.05])
    def test_small_signal_matches_finite_differences(self, polarity, lam):
        p = MosfetParams(polarity, vth=0.3, k=2e-3, channel_mod=lam)
        grid = [-0.2, 0.0, 0.15, 0.3, 0.45, 0.7, 1.0]
        h = 1e-7
        for vg in grid:
            for vd in grid:
                for vs in (0.0, 0.4, 1.0):
                    if abs(vd - vs) < 2 * h:  # skip the swap corner itself
                        continue
                    i0, gg, gd, gs = oracle.mosfet_small_signal(p, vg, vd, vs)
                    assert i0 == mosfet_current(p, vg, vd, vs)
                    fd_g = (mosfet_current(p, vg + h, vd, vs)
                            - mosfet_current(p, vg - h, vd, vs)) / (2 * h)
                    fd_d = (mosfet_current(p, vg, vd + h, vs)
                            - mosfet_current(p, vg, vd - h, vs)) / (2 * h)
                    fd_s = (mosfet_current(p, vg, vd, vs + h)
                            - mosfet_current(p, vg, vd, vs - h)) / (2 * h)
                    assert gg == pytest.approx(fd_g, abs=1e-9)
                    assert gd == pytest.approx(fd_d, abs=1e-9)
                    assert gs == pytest.approx(fd_s, abs=1e-9)

    def test_partials_sum_to_zero(self):
        _, gg, gd, gs = oracle.mosfet_small_signal(NM, 0.9, 0.4, 0.1)
        assert gg + gd + gs == pytest.approx(0.0, abs=1e-15)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            MosfetParams("CMOS", vth=0.3)
        with pytest.raises(ValueError):
            MosfetParams("NMOS", vth=-0.1)


class TestNonFiniteParams:
    """A NaN fails every ``x <= 0`` test, so each range check must say
    what it accepts; every refusal names its field."""

    @pytest.mark.parametrize("kwargs,field", [
        ({"tau": math.nan}, "tau"), ({"tau": math.inf}, "tau"),
        ({"v_on": math.inf}, "v_on"), ({"v_off": math.nan}, "v_off"),
        ({"r_on": math.nan}, "r_on"), ({"r_off": math.inf}, "r_off"),
        ({"x0": math.nan}, "x0"),
    ])
    def test_memristor_params(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            MemristorParams(**kwargs)

    @pytest.mark.parametrize("r_on,r_off", [(1e160, 1e300), (1e-200, 1e-150)])
    def test_memristance_numerator_must_be_finite(self, r_on, r_off):
        # The product is memristance's numerator: an overflow would read
        # the device as open, an underflow as a short.
        with pytest.raises(ValueError, match=r"r_on \* r_off"):
            MemristorParams(r_on=r_on, r_off=r_off)

    def test_largest_numerator_accepted(self):
        # and one far below 1
        for r_on, r_off in ((1e150, 1e158), (1e-200, 1e-100)):
            p = MemristorParams(r_on=r_on, r_off=r_off)
            with np.errstate(all="raise"):
                r = memristance(np.array([0.0, 1.0]), p)
            assert r.tolist() == pytest.approx([r_off, r_on], rel=1e-15)

    @pytest.mark.parametrize("kwargs,field", [
        ({"vth": math.nan}, "vth"), ({"vth": math.inf}, "vth"),
        ({"vth": 0.3, "k": math.inf}, "k"), ({"vth": 0.3, "k": math.nan}, "k"),
        ({"vth": 0.3, "channel_mod": math.nan}, "channel_mod"),
        ({"vth": 0.3, "channel_mod": math.inf}, "channel_mod"),
        ({"vth": 0.3, "channel_mod": -0.1}, "channel_mod"),
    ])
    def test_mosfet_params(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            MosfetParams("NMOS", **kwargs)


def _fet_params(polarity, lam):
    return MosfetParams(polarity, vth=0.3, k=2e-3, channel_mod=lam)


def _fet_reference(polarity, lam, biases):
    p = _fet_params(polarity, lam)
    return np.array([oracle.mosfet_small_signal(p, *b) for b in biases]).T


def _fet_compiled(polarity, lam, biases):
    n = len(biases)
    sign = np.full(n, 1.0 if polarity == "NMOS" else -1.0)
    return np.array(mosfet_companion(sign, np.full(n, 0.3), np.full(n, 2e-3),
                                     np.full(n, lam),
                                     np.array(biases, dtype=float).T))


def _fet_currents(polarity, lam, biases):
    """``mosfet_current`` at each bias, and the oracle's currents there."""
    p = _fet_params(polarity, lam)
    return ([mosfet_current(p, *b) for b in biases],
            _fet_reference(polarity, lam, biases)[0].tolist())


MEM_PARAMS = (P, MemristorParams(v_on=0.1, v_off=0.45, tau=80e-12),
              MemristorParams(r_on=1e3, r_off=5e4, v_on=0.6, v_off=0.2,
                              tau=3e-9, x0=0.5))


class TestCompiledKernels:
    """The array kernels, and their one-device calls, against the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(("NMOS", "PMOS")),
           st.sampled_from((0.0, 0.02, 0.3)),
           st.lists(st.tuples(*[st.floats(-1.5, 1.5)] * 3),
                    min_size=1, max_size=16))
    def test_mosfet_companion_matches_scalar(self, polarity, lam, biases):
        # Same arithmetic in the same order: equal, not merely close.
        assert np.array_equal(_fet_compiled(polarity, lam, biases),
                              _fet_reference(polarity, lam, biases))
        got, want = _fet_currents(polarity, lam, biases)
        assert got == want

    @pytest.mark.parametrize("polarity", ["NMOS", "PMOS"])
    @pytest.mark.parametrize("lam", [0.0, 0.05])
    def test_mosfet_companion_at_threshold_and_ties(self, polarity, lam):
        sign = 1.0 if polarity == "NMOS" else -1.0
        lows = (-0.7, -0.2, 0.0, 0.1, 0.2, 0.45, 0.7)
        biases = []
        for lo, hi in itertools.product(lows, repeat=2):
            if lo > hi:
                continue
            vg = lo + 0.3  # overdrive 0 when the low terminal is lo
            if vg - lo - 0.3 == 0.0:
                biases += [(vg, hi, lo), (vg, lo, hi)]
            biases += [(vg, lo, lo), (vg + 0.1, lo, lo), (vg - 0.1, lo, lo)]
        biases += [(0.5, 0.0, -0.0), (0.5, -0.0, 0.0), (-0.0, 0.0, 0.0)]
        biases = [tuple(sign * b for b in bias) for bias in biases]
        at_threshold = [b for b in biases
                        if sign * b[0] - min(sign * b[1], sign * b[2]) - 0.3
                        == 0.0]
        assert len(at_threshold) > 10
        assert sum(b[1] == b[2] for b in biases) > 10
        assert np.array_equal(_fet_compiled(polarity, lam, biases),
                              _fet_reference(polarity, lam, biases))
        got, want = _fet_currents(polarity, lam, biases)
        assert got == want

    @pytest.mark.parametrize("polarity", ["NMOS", "PMOS"])
    @pytest.mark.parametrize("lam", [0.0, 0.05])
    def test_mosfet_companion_every_region(self, polarity, lam):
        grid = (-1.0, -0.6, -0.2, 0.0, 0.1, 0.35, 0.5, 0.8, 1.0)
        biases = list(itertools.product(grid, repeat=3))
        # Same arithmetic in the same order: equal, not merely close.
        assert np.array_equal(_fet_compiled(polarity, lam, biases),
                              _fet_reference(polarity, lam, biases))
        got, want = _fet_currents(polarity, lam, biases)
        assert got == want
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
        pairs = list(itertools.product(params, np.linspace(0.0, 1.0, 11)))
        devices = [VSource("V1", "top", "0", dc=1.0)]
        for i, (p, _) in enumerate(pairs):
            devices.append(Memristor(f"M{i}", "top", "0", p))
        system = _System(engine._program(Circuit(name="m", devices=devices)))
        # Every node is pinned, so solve writes the memristor stamps and
        # returns without a Newton iteration.
        system.solve(np.array([x for _, x in pairs]), np.array([1.0]),
                     np.zeros(system.program.n))
        want = [oracle.memristance(x, p) for p, x in pairs]
        assert system._mem_stamps[:, 0].tolist() == [1.0 / r for r in want]
        assert [memristance(x, p) for p, x in pairs] == want

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
        system = _System(engine._program(Circuit(name="m", devices=[
            Memristor(f"M{i}", f"n{i}", "0", p)
            for i, (p, _, _) in enumerate(draws)], ports=[
            Port(f"n{i}", "out", f"n{i}") for i in range(len(draws))])))
        v = np.zeros(system.program.n)
        biases = []
        for i, (p, _, bias) in enumerate(draws):
            biases.append(gates[bias](p) if isinstance(bias, str) else bias)
            v[system.program.index[f"n{i}"]] = biases[-1]
        x = np.array([x for _, x, _ in draws])
        want = [oracle.update_state(xi, b, dt, p)
                for (p, xi, _), b in zip(draws, biases)]
        assert system.advance(x, v, dt).tolist() == want
        assert [update_state(xi, b, dt, p)
                for (p, xi, _), b in zip(draws, biases)] == want
