import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ternsim.devices import (MemristorParams, MosfetParams,
                             NonpositiveTimestep, digital_memristance,
                             memristance, mosfet_current, update_state)

from device_oracle import mosfet_small_signal

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
    def test_forward_reverse(self):
        assert digital_memristance(1.0, 0.0) == 500
        assert digital_memristance(0.0, 1.0) == 1500

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
                    i0, gg, gd, gs = mosfet_small_signal(p, vg, vd, vs)
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
        _, gg, gd, gs = mosfet_small_signal(NM, 0.9, 0.4, 0.1)
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
