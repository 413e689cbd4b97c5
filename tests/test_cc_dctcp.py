"""DCTCP: ECN-proportional cuts, per-window alpha slow path."""

import pytest

from repro.cc import AlphaUpdateEvent, Dctcp, EventType, Flags, IntrinsicInput
from repro.errors import ConfigError


def rx(psn, *, cwnd, nxt, ecn=False, t=0):
    return IntrinsicInput(
        evt_type=EventType.RX,
        psn=psn,
        cwnd_or_rate=cwnd,
        una=psn,
        nxt=nxt,
        flags=Flags(ack=True, ecn=ecn),
        prb_rtt=-1,
        tstamp=t,
    )


@pytest.fixture
def dctcp():
    return Dctcp(initial_cwnd=1.0, initial_ssthresh=64.0, g=1.0 / 16.0)


class TestEcnResponse:
    def test_cut_proportional_to_alpha(self, dctcp):
        cust = dctcp.initial_cust()
        slow = dctcp.initial_slow()
        slow.alpha = 0.5
        cust.last_ack = 9
        cust.ssthresh = 2.0  # in CA
        out = dctcp.on_event(rx(10, cwnd=16.0, nxt=20, ecn=True), cust, slow)
        # 16 * (1 - 0.5/2) = 12, plus the CA growth applied first.
        assert out.cwnd_or_rate == pytest.approx((16.0 + 1 / 16.0) * 0.75)

    def test_one_cut_per_window(self, dctcp):
        cust = dctcp.initial_cust()
        slow = dctcp.initial_slow()
        slow.alpha = 1.0
        cust.last_ack = 0
        cust.ssthresh = 2.0
        out1 = dctcp.on_event(rx(1, cwnd=16.0, nxt=20, ecn=True), cust, slow)
        cut1 = out1.cwnd_or_rate
        # Second ECN echo inside the same window (psn < cwr_end=20): no cut.
        out2 = dctcp.on_event(rx(2, cwnd=cut1, nxt=20, ecn=True), cust, slow)
        assert out2.cwnd_or_rate >= cut1  # only CA growth, no reduction

    def test_cut_updates_ssthresh(self, dctcp):
        cust = dctcp.initial_cust()
        slow = dctcp.initial_slow()
        slow.alpha = 1.0
        cust.last_ack = 0
        cust.ssthresh = 2.0
        dctcp.on_event(rx(1, cwnd=16.0, nxt=20, ecn=True), cust, slow)
        assert cust.ssthresh == pytest.approx(cust.cwr_end and (16.0 + 1 / 16.0) / 2)

    def test_alpha_zero_means_no_cut(self, dctcp):
        cust = dctcp.initial_cust()
        slow = dctcp.initial_slow()
        slow.alpha = 0.0
        cust.last_ack = 0
        cust.ssthresh = 2.0
        out = dctcp.on_event(rx(1, cwnd=16.0, nxt=20, ecn=True), cust, slow)
        assert out.cwnd_or_rate == pytest.approx(16.0 + 1 / 16.0)


class TestAlphaSlowPath:
    def test_window_end_emits_slow_event(self, dctcp):
        cust = dctcp.initial_cust()
        slow = dctcp.initial_slow()
        cust.window_end = 5
        cust.last_ack = 4
        out = dctcp.on_event(rx(5, cwnd=8.0, nxt=12), cust, slow)
        events = [e for e in out.slow_path_events if isinstance(e, AlphaUpdateEvent)]
        assert len(events) == 1
        assert cust.acked_cnt == 0  # counters reset
        assert cust.window_end == 12

    def test_slow_path_ewma(self, dctcp):
        slow = dctcp.initial_slow()
        slow.alpha = 1.0
        dctcp.slow_path(AlphaUpdateEvent(acked=10, marked=0), None, slow)
        assert slow.alpha == pytest.approx(15.0 / 16.0)
        dctcp.slow_path(AlphaUpdateEvent(acked=10, marked=10), None, slow)
        assert slow.alpha == pytest.approx(15.0 / 16.0 * 15.0 / 16.0 + 1.0 / 16.0)

    def test_alpha_converges_to_mark_fraction(self, dctcp):
        slow = dctcp.initial_slow()
        for _ in range(200):
            dctcp.slow_path(AlphaUpdateEvent(acked=100, marked=25), None, slow)
        assert slow.alpha == pytest.approx(0.25, abs=1e-4)

    def test_marked_counter_tracks_ecn_acks(self, dctcp):
        cust = dctcp.initial_cust()
        slow = dctcp.initial_slow()
        cust.window_end = 100
        dctcp.on_event(rx(1, cwnd=8.0, nxt=10, ecn=True), cust, slow)
        dctcp.on_event(rx(2, cwnd=8.0, nxt=10, ecn=False), cust, slow)
        assert cust.acked_cnt == 2
        assert cust.marked_cnt == 1

    def test_empty_window_emits_no_event(self, dctcp):
        cust = dctcp.initial_cust()
        slow = dctcp.initial_slow()
        out = dctcp.on_event(
            IntrinsicInput(
                evt_type=EventType.RX,
                psn=0,
                cwnd_or_rate=4.0,
                una=0,
                nxt=5,
                flags=Flags(ack=True),
                prb_rtt=-1,
                tstamp=0,
            ),
            cust,
            slow,
        )
        assert out.slow_path_events == []

    def test_g_validation(self):
        with pytest.raises(ConfigError):
            Dctcp(g=0.0)
        with pytest.raises(ConfigError):
            Dctcp(g=1.5)


class TestInheritedRenoBehaviour:
    def test_loss_recovery_still_works(self, dctcp):
        cust = dctcp.initial_cust()
        slow = dctcp.initial_slow()
        cust.last_ack = 5
        out = None
        for _ in range(3):
            out = dctcp.on_event(
                IntrinsicInput(
                    evt_type=EventType.RX,
                    psn=5,
                    cwnd_or_rate=10.0,
                    una=5,
                    nxt=20,
                    flags=Flags(ack=True),
                    prb_rtt=-1,
                    tstamp=0,
                ),
                cust,
                slow,
            )
        assert out.rtx_psn == 5
        assert cust.in_recovery

    def test_paper_loc_matches_table4(self, dctcp):
        assert dctcp.lines_of_code == 175
        assert Dctcp.name == "dctcp"
