import math

import pytest
from hypothesis import given, strategies as st

from ternsim.devices import (MemristorParams, MosfetParams,
                             NonpositiveTimestep, digital_memristance,
                             memristance, mosfet_current, mosfet_small_signal,
                             update_state)

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
        with pytest.raises(NonpositiveTimestep):
            update_state(0.0, 1.0, 0.0, P)

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
