"""Cubic (LUT cube root, epoch dynamics) and TIMELY (RTT gradient)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import Cubic, EventType, Flags, IntrinsicInput, Timely, lut_cbrt
from repro.cc.base import CCMode
from repro.errors import ConfigError
from repro.units import GBPS, MICROSECOND, MS, RATE_100G, SECOND


class TestLutCbrt:
    def test_exact_cubes(self):
        for x in (1.0, 8.0, 27.0, 64.0, 1000.0):
            assert lut_cbrt(x) == pytest.approx(x ** (1 / 3), rel=1e-4)

    def test_zero(self):
        assert lut_cbrt(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lut_cbrt(-1.0)

    def test_small_values(self):
        assert lut_cbrt(0.001) == pytest.approx(0.1, rel=1e-4)

    @given(st.floats(min_value=1e-9, max_value=1e12))
    @settings(max_examples=300, deadline=None)
    def test_relative_error_bound(self, x):
        """The paper's LUT optimization must stay accurate enough for CC:
        relative error below 1e-4 across 21 orders of magnitude."""
        assert lut_cbrt(x) == pytest.approx(x ** (1.0 / 3.0), rel=1e-4)

    @given(st.floats(min_value=1e-6, max_value=1e9))
    @settings(max_examples=100, deadline=None)
    def test_monotonicity(self, x):
        assert lut_cbrt(x * 1.01) >= lut_cbrt(x)


def dupack(cwnd, una=5, nxt=30, t=0):
    return IntrinsicInput(
        evt_type=EventType.RX,
        psn=una,
        cwnd_or_rate=cwnd,
        una=una,
        nxt=nxt,
        flags=Flags(ack=True),
        prb_rtt=-1,
        tstamp=t,
    )


def new_ack(psn, cwnd, nxt=100, t=0):
    return IntrinsicInput(
        evt_type=EventType.RX,
        psn=psn,
        cwnd_or_rate=cwnd,
        una=psn,
        nxt=nxt,
        flags=Flags(ack=True),
        prb_rtt=-1,
        tstamp=t,
    )


class TestCubic:
    def make(self):
        return Cubic(initial_cwnd=1.0, initial_ssthresh=4.0, c=0.4, beta=0.3)

    def test_loss_starts_epoch(self):
        cubic = self.make()
        cust = cubic.initial_cust()
        cust.last_ack = 5
        out = None
        for _ in range(3):
            out = cubic.on_event(dupack(20.0, t=1000), cust, None)
        assert cust.epoch_start == 1000
        assert cust.w_max == 20.0
        # beta = 0.3 decrease: cut to 14 (+3 dupack inflation).
        assert out.cwnd_or_rate == pytest.approx(14.0 + 3.0)
        expected_k = (20.0 * 0.3 / 0.4) ** (1 / 3)
        assert cust.k_seconds == pytest.approx(expected_k, rel=1e-3)

    def test_concave_growth_toward_wmax(self):
        cubic = self.make()
        cust = cubic.initial_cust()
        cust.last_ack = 5
        for _ in range(3):
            cubic.on_event(dupack(20.0, t=0), cust, None)
        # Exit recovery with a full ACK.
        cubic.on_event(new_ack(40, 17.0, t=1000), cust, None)
        # Growth in CA follows the cubic target; near K the window
        # approaches w_max from below.
        t_at_k = int(cust.k_seconds * SECOND)
        out = cubic.on_event(new_ack(41, 14.0, t=t_at_k), cust, None)
        assert out.cwnd_or_rate > 14.0
        assert out.cwnd_or_rate <= 20.0 + 1.0

    def test_convex_growth_past_k(self):
        cubic = self.make()
        cust = cubic.initial_cust()
        cust.last_ack = 5
        for _ in range(3):
            cubic.on_event(dupack(20.0, t=0), cust, None)
        cubic.on_event(new_ack(40, 17.0, t=100), cust, None)
        t_past = int((cust.k_seconds + 2.0) * SECOND)
        out = cubic.on_event(new_ack(41, 20.0, t=t_past), cust, None)
        # target = 0.4 * 2^3 + 20 = 23.2 -> grow toward it.
        assert out.cwnd_or_rate > 20.0

    def test_timeout_starts_epoch_too(self):
        cubic = self.make()
        cust = cubic.initial_cust()
        out = cubic.on_event(
            IntrinsicInput(
                evt_type=EventType.TIMEOUT,
                psn=-1,
                cwnd_or_rate=30.0,
                una=0,
                nxt=0,
                flags=Flags(),
                prb_rtt=-1,
                tstamp=2000,
            ),
            cust,
            None,
        )
        assert cust.w_max == 30.0
        assert cust.epoch_start == 2000
        assert out.cwnd_or_rate == 1.0

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            Cubic(c=0)
        with pytest.raises(ConfigError):
            Cubic(beta=1.5)


class TestTimely:
    def make(self):
        alg = Timely(
            t_low_ps=10 * MICROSECOND,
            t_high_ps=100 * MICROSECOND,
            min_rtt_ps=6 * MICROSECOND,
            delta_bps=1 * GBPS,
        )
        alg.initial_cwnd_or_rate(RATE_100G)
        return alg

    def rtt_event(self, rtt_ps, rate):
        return IntrinsicInput(
            evt_type=EventType.RX,
            psn=1,
            cwnd_or_rate=rate,
            una=1,
            nxt=5,
            flags=Flags(ack=True),
            prb_rtt=rtt_ps,
            tstamp=0,
        )

    def test_rate_mode(self):
        assert self.make().mode is CCMode.RATE

    def test_low_rtt_additive_increase(self):
        timely = self.make()
        cust = timely.initial_cust()
        out = timely.on_event(self.rtt_event(5 * MICROSECOND, 10e9), cust, None)
        assert out.cwnd_or_rate == pytest.approx(11e9)

    def test_high_rtt_multiplicative_decrease(self):
        timely = self.make()
        cust = timely.initial_cust()
        out = timely.on_event(self.rtt_event(200 * MICROSECOND, 50e9), cust, None)
        expected = 50e9 * (1 - timely.beta * (1 - 0.5))
        assert out.cwnd_or_rate == pytest.approx(expected)

    def test_negative_gradient_increases(self):
        timely = self.make()
        cust = timely.initial_cust()
        timely.on_event(self.rtt_event(50 * MICROSECOND, 10e9), cust, None)
        out = timely.on_event(self.rtt_event(40 * MICROSECOND, 10e9), cust, None)
        assert out.cwnd_or_rate > 10e9

    def test_positive_gradient_decreases(self):
        timely = self.make()
        cust = timely.initial_cust()
        timely.on_event(self.rtt_event(30 * MICROSECOND, 50e9), cust, None)
        out = timely.on_event(self.rtt_event(60 * MICROSECOND, 50e9), cust, None)
        assert out.cwnd_or_rate < 50e9

    def test_hai_mode_after_streak(self):
        timely = self.make()
        cust = timely.initial_cust()
        rate = 10e9
        rtt = 90 * MICROSECOND
        gains = []
        for _ in range(8):
            rtt -= MICROSECOND  # steadily improving
            out = timely.on_event(self.rtt_event(rtt, rate), cust, None)
            gains.append(out.cwnd_or_rate - rate)
            rate = out.cwnd_or_rate
        assert gains[-1] == pytest.approx(5 * timely.delta_bps)

    def test_rate_bounds(self):
        timely = self.make()
        cust = timely.initial_cust()
        out = timely.on_event(self.rtt_event(5 * MICROSECOND, 99.9e9), cust, None)
        assert out.cwnd_or_rate <= RATE_100G

    def test_nack_rewinds(self):
        timely = self.make()
        cust = timely.initial_cust()
        out = timely.on_event(
            IntrinsicInput(
                evt_type=EventType.RX,
                psn=3,
                cwnd_or_rate=10e9,
                una=3,
                nxt=9,
                flags=Flags(nack=True),
                prb_rtt=-1,
                tstamp=0,
            ),
            cust,
            None,
        )
        assert out.rewind_to_una

    def test_t_low_below_t_high(self):
        with pytest.raises(ConfigError):
            Timely(t_low_ps=100, t_high_ps=100)
