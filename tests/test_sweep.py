"""Operator sweep utilities: CC parameter grids."""

import pytest

from repro.core.sweep import sweep_campaign
from repro.errors import ConfigError
from repro.units import GBPS, MS, RATE_100G


class TestCcParameterSweep:
    def test_grid_order_and_metrics(self):
        points, _ = sweep_campaign(
            "dcqcn",
            [{"rate_ai_bps": 1 * GBPS}, {"rate_ai_bps": 5 * GBPS}],
            n_senders=2,
            duration_ps=3 * MS,
        )
        assert len(points) == 2
        assert points[0].params == {"rate_ai_bps": 1 * GBPS}
        for point in points:
            assert point.throughput_bps > 0.7 * RATE_100G
            assert 0.5 < point.fairness <= 1.0
            assert point.peak_queue_bytes > 0

    def test_dctcp_g_sweep_shows_queue_tradeoff(self):
        """Larger g reacts faster -> different queue occupancy profile;
        the sweep surfaces the difference operators tune for."""
        points, _ = sweep_campaign(
            "dctcp",
            [{"g": 1.0 / 64.0}, {"g": 1.0 / 4.0}],
            n_senders=2,
            duration_ps=4 * MS,
            base_params={"initial_ssthresh": 1024.0},
        )
        queues = [point.peak_queue_bytes for point in points]
        assert queues[0] != queues[1]  # the knob observably matters

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep_campaign("dctcp", [])

    def test_bad_seed_replicates_rejected(self):
        # Replicates of a point that draws nothing are not a keyword.
        with pytest.raises(TypeError, match="seeds"):
            sweep_campaign("dctcp", [{}], seeds=2)
