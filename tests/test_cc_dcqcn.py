"""DCQCN reaction point: CNP cuts, alpha timers, recovery stages."""

import pytest

from repro.cc import Dcqcn, EventType, Flags, IntrinsicInput
from repro.cc.base import CCMode, TIMER_ALG_A, TIMER_ALG_B
from repro.errors import ConfigError
from repro.units import GBPS, RATE_100G


def cnp(rate):
    return IntrinsicInput(
        evt_type=EventType.RX,
        psn=-1,
        cwnd_or_rate=rate,
        una=0,
        nxt=0,
        flags=Flags(cnp=True, ecn=True),
        prb_rtt=-1,
        tstamp=0,
    )


def nack(rate):
    return IntrinsicInput(
        evt_type=EventType.RX,
        psn=5,
        cwnd_or_rate=rate,
        una=5,
        nxt=10,
        flags=Flags(nack=True),
        prb_rtt=-1,
        tstamp=0,
    )


def timer(rate, timer_id):
    return IntrinsicInput(
        evt_type=EventType.TIMEOUT,
        psn=-1,
        cwnd_or_rate=rate,
        una=0,
        nxt=0,
        flags=Flags(),
        prb_rtt=-1,
        tstamp=0,
        timer_id=timer_id,
    )


def byte_counter(rate):
    return IntrinsicInput(
        evt_type=EventType.BYTE_COUNTER,
        psn=-1,
        cwnd_or_rate=rate,
        una=0,
        nxt=0,
        flags=Flags(),
        prb_rtt=-1,
        tstamp=0,
    )


@pytest.fixture
def dcqcn():
    alg = Dcqcn(g=1.0 / 256.0)
    alg.initial_cwnd_or_rate(RATE_100G)
    return alg


class TestBasics:
    def test_rate_mode(self, dcqcn):
        assert dcqcn.mode is CCMode.RATE

    def test_starts_at_line_rate(self, dcqcn):
        assert dcqcn.initial_cwnd_or_rate(RATE_100G) == float(RATE_100G)

    def test_declares_byte_counter(self, dcqcn):
        assert dcqcn.byte_counter_bytes() == 10 * 1024 * 1024

    def test_g_validated(self):
        with pytest.raises(ConfigError):
            Dcqcn(g=0)


class TestCnpResponse:
    def test_cut_by_alpha_half(self, dcqcn):
        cust = dcqcn.initial_cust()  # alpha = 1.0
        out = dcqcn.on_event(cnp(100e9), cust, None)
        assert out.cwnd_or_rate == pytest.approx(50e9)
        assert cust.target_rate == pytest.approx(100e9)

    def test_alpha_increases_toward_one(self, dcqcn):
        cust = dcqcn.initial_cust()
        cust.alpha = 0.0
        dcqcn.on_event(cnp(100e9), cust, None)
        assert cust.alpha == pytest.approx(1.0 / 256.0)

    def test_cnp_arms_both_timers(self, dcqcn):
        cust = dcqcn.initial_cust()
        out = dcqcn.on_event(cnp(100e9), cust, None)
        armed = {timer_id for timer_id, _ in out.rst_timers}
        assert armed == {TIMER_ALG_A, TIMER_ALG_B}

    def test_counters_reset(self, dcqcn):
        cust = dcqcn.initial_cust()
        cust.bc_count = 3
        cust.t_count = 2
        dcqcn.on_event(cnp(100e9), cust, None)
        assert cust.bc_count == 0 and cust.t_count == 0

    def test_rate_floor(self, dcqcn):
        cust = dcqcn.initial_cust()
        out = dcqcn.on_event(cnp(1e6), cust, None)
        assert out.cwnd_or_rate == dcqcn.min_rate_floor_bps


class TestAlphaTimer:
    def test_alpha_decays(self, dcqcn):
        cust = dcqcn.initial_cust()
        cust.alpha = 1.0
        out = dcqcn.on_event(timer(50e9, TIMER_ALG_A), cust, None)
        assert cust.alpha == pytest.approx(255.0 / 256.0)
        assert (TIMER_ALG_A, dcqcn.alpha_timer_ps) in out.rst_timers

    def test_alpha_timer_stops_when_tiny(self, dcqcn):
        cust = dcqcn.initial_cust()
        cust.alpha = 1e-5
        out = dcqcn.on_event(timer(50e9, TIMER_ALG_A), cust, None)
        assert out.rst_timers == []


class TestRateIncrease:
    def test_no_increase_before_any_cnp(self, dcqcn):
        cust = dcqcn.initial_cust()
        out = dcqcn.on_event(timer(50e9, TIMER_ALG_B), cust, None)
        assert out.cwnd_or_rate is None

    def test_fast_recovery_halves_gap(self, dcqcn):
        cust = dcqcn.initial_cust()
        dcqcn.on_event(cnp(100e9), cust, None)  # rate 50, target 100
        out = dcqcn.on_event(timer(50e9, TIMER_ALG_B), cust, None)
        assert out.cwnd_or_rate == pytest.approx(75e9)
        assert cust.target_rate == pytest.approx(100e9)  # unchanged in FR

    def test_additive_increase_after_f_stages(self, dcqcn):
        cust = dcqcn.initial_cust()
        dcqcn.on_event(cnp(100e9), cust, None)
        rate = 50e9
        for _ in range(dcqcn.fast_recovery_threshold):
            out = dcqcn.on_event(timer(rate, TIMER_ALG_B), cust, None)
            rate = out.cwnd_or_rate
        # t_count is now F: the next timer event adds Rai to the target.
        target_before = cust.target_rate
        dcqcn.on_event(timer(rate, TIMER_ALG_B), cust, None)
        assert cust.target_rate == pytest.approx(
            min(target_before + dcqcn.rate_ai_bps, 100e9)
        )

    def test_hyper_increase_when_both_counters_high(self, dcqcn):
        cust = dcqcn.initial_cust()
        dcqcn.on_event(cnp(100e9), cust, None)
        cust.bc_count = 10
        cust.t_count = 10
        cust.target_rate = 50e9
        dcqcn.on_event(byte_counter(40e9), cust, None)
        assert cust.target_rate == pytest.approx(50e9 + dcqcn.rate_hai_bps)

    def test_rate_capped_at_line_rate(self, dcqcn):
        cust = dcqcn.initial_cust()
        dcqcn.on_event(cnp(100e9), cust, None)
        cust.target_rate = 99.9e9
        cust.bc_count = 10
        cust.t_count = 10
        out = dcqcn.on_event(timer(99e9, TIMER_ALG_B), cust, None)
        assert out.cwnd_or_rate <= 100e9
        assert cust.target_rate <= 100e9

    def test_convergence_back_to_line_rate(self, dcqcn):
        """After one cut, repeated increase events recover the line rate."""
        cust = dcqcn.initial_cust()
        out = dcqcn.on_event(cnp(100e9), cust, None)
        rate = out.cwnd_or_rate
        for _ in range(200):
            out = dcqcn.on_event(timer(rate, TIMER_ALG_B), cust, None)
            if out.cwnd_or_rate is not None:
                rate = out.cwnd_or_rate
        assert rate == pytest.approx(100e9, rel=0.01)


class TestNack:
    def test_nack_rewinds_without_rate_change(self, dcqcn):
        cust = dcqcn.initial_cust()
        out = dcqcn.on_event(nack(80e9), cust, None)
        assert out.rewind_to_una
        assert out.cwnd_or_rate is None
