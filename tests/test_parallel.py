"""The sharded campaign runner: determinism, ordering, bounded failure."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.core.multi_pipeline import scaling_table
from repro.core.sweep import steady_state_flow_rates, sweep_campaign
from repro.errors import CampaignError
from repro.fluid import dcqcn_profile, dctcp_profile, fluid_fct_campaign
from repro.measure.throughput import ThroughputSample
from repro.obs import heartbeat
from repro.obs.heartbeat import Heartbeat
from repro.parallel import CampaignRunner, derive_task_seed
from repro.units import GBPS, MS
from repro.workload import websearch


# -- picklable task functions (must be top level) ------------------------------


def square(x, seed=0):
    return x * x


def echo_seed(x, seed=0):
    return (x, seed)


def crash_on_two(x):
    if x == 2:
        os._exit(3)  # simulates a segfaulted/OOM-killed worker
    return x


def raise_on_zero(x):
    if x == 0:
        raise ValueError("task zero is broken")
    return x


def sleep_on_one(x):
    if x == 1:
        time.sleep(3.0)
    return x


def crash_first_attempt(x, marker_dir):
    """Dies hard on its first run (leaving a marker), succeeds on retry."""
    marker = os.path.join(marker_dir, f"task-{x}.attempted")
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("1")
        os._exit(5)
    return x


def beat_then_crash_first_attempt(x, marker_dir):
    """Streams one beat, then behaves like ``crash_first_attempt``."""
    heartbeat.emit(
        Heartbeat(
            task_id=x,
            pid=os.getpid(),
            sim_now_ps=1,
            sim_until_ps=2,
            events_executed=1,
            wall_s=0.0,
        )
    )
    return crash_first_attempt(x, marker_dir)


def unpicklable_on_one(x):
    return (lambda: x) if x == 1 else x


def worker_pids():
    """Pids of the live workers: the runner's processes are the only
    children this test process has."""
    return sorted(child.pid for child in multiprocessing.active_children())


class TestDeriveTaskSeed:
    def test_stable_and_distinct(self):
        assert derive_task_seed(42, 3) == derive_task_seed(42, 3)
        assert derive_task_seed(42, 3) != derive_task_seed(42, 4)
        assert derive_task_seed(42, 3) != derive_task_seed(43, 3)

    def test_multipart_spawn_keys(self):
        assert derive_task_seed(0, 1, 2) == derive_task_seed(0, 1, 2)
        assert derive_task_seed(0, 1, 2) != derive_task_seed(0, 2, 1)

    def test_nonnegative_and_wide(self):
        seeds = {derive_task_seed(7, index) for index in range(64)}
        assert len(seeds) == 64
        assert all(0 <= seed < 2**63 for seed in seeds)


class TestRunnerBasics:
    def test_order_preserved_across_chunks(self):
        with CampaignRunner(workers=2) as runner:
            result = runner.run(square, [(i,) for i in range(7)])
        assert result.values() == [i * i for i in range(7)]
        assert [r.index for r in result.results] == list(range(7))
        assert result.ok

    def test_task_forms(self):
        with CampaignRunner(workers=0) as runner:
            result = runner.run(square, [3, (4,), {"x": 5}])
        assert result.values() == [9, 16, 25]

    def test_seed_injection_matches_derivation(self):
        with CampaignRunner(workers=2) as runner:
            result = runner.run(echo_seed, [(i,) for i in range(5)], seed=99)
        assert result.values() == [
            (i, derive_task_seed(99, i)) for i in range(5)
        ]

    def test_stats_shape(self):
        with CampaignRunner(workers=2) as runner:
            stats = runner.run(square, [(i,) for i in range(4)]).stats()
        assert stats["tasks"] == 4
        assert stats["failed"] == 0
        assert stats["workers"] == 2
        assert stats["campaign_wall_s"] > 0
        assert stats["tasks_per_sec"] > 0

    def test_empty_campaign_rejected(self):
        with CampaignRunner(workers=1) as runner:
            with pytest.raises(CampaignError):
                runner.run(square, [])

    def test_bad_configuration_rejected(self):
        with pytest.raises(CampaignError):
            CampaignRunner(workers=-1)
        with pytest.raises(CampaignError):
            CampaignRunner(task_timeout_s=0)
        with pytest.raises(CampaignError):
            CampaignRunner(max_retries=-1)


class TestWarmPool:
    def test_started_runner_serves_repeat_campaigns(self):
        """The `repro serve` contract: one start(), many run()s, all
        bit-identical to the inline path."""
        tasks = [(i,) for i in range(8)]
        with CampaignRunner(workers=1) as inline:
            expected = inline.run(echo_seed, tasks, seed=3).values()
        with CampaignRunner(workers=2) as runner:
            assert not runner.started
            runner.start()
            assert runner.started
            first = runner.run(echo_seed, tasks, seed=3)
            second = runner.run(echo_seed, tasks, seed=3)
        assert first.values() == expected
        assert second.values() == expected

    def test_start_is_idempotent_and_keeps_the_pool(self):
        with CampaignRunner(workers=2) as runner:
            runner.start()
            pids = worker_pids()
            assert len(pids) == 2
            runner.start()
            assert worker_pids() == pids

    def test_start_is_a_noop_inline(self):
        runner = CampaignRunner(workers=1)
        assert runner.start() is runner
        assert not runner.started
        runner.close()

    def test_warm_pool_survives_heartbeat_campaigns(self):
        # A run(on_heartbeat=...) must land on the warm workers, not
        # restart them.
        with CampaignRunner(workers=2) as runner:
            runner.start()
            pids = worker_pids()
            beats = []
            result = runner.run(
                square, [(i,) for i in range(4)], on_heartbeat=beats.append
            )
            assert result.ok
            assert worker_pids() == pids
            assert {r.worker_pid for r in result.results} <= set(pids)


class TestResultsDirLifecycle:
    def test_created_on_first_run_not_at_construction(self, tmp_path):
        target = tmp_path / "campaign-artifacts"
        with CampaignRunner(workers=1, results_dir=target) as runner:
            # Constructing (e.g. probing a spec server-side) writes nothing.
            assert not target.exists()
            runner.run(square, [(1,), (2,)])
        assert (target / "campaign.json").exists()


class TestHeartbeatsDuringBackoff:
    def test_beats_delivered_while_retry_backoff_sleeps(self, tmp_path):
        """Beats a worker sent before dying must reach the listener at
        once — not after the retry-backoff window in which nothing is in
        flight (the stalled-progress bug `repro serve` exposed) — and a
        crash must cost only the task that crashed."""
        received = []

        def on_beat(beat):
            received.append((time.monotonic(), beat.task_id))

        with CampaignRunner(workers=2, max_retries=2, backoff_base_s=2.0) as runner:
            runner.start()
            started = time.monotonic()
            result = runner.run(
                beat_then_crash_first_attempt,
                [(i, str(tmp_path)) for i in range(2)],
                on_heartbeat=on_beat,
            )
        assert result.ok
        assert all(r.attempts == 2 for r in result.results)
        first_attempt_beats = sorted(received)[:2]
        assert {task for _, task in first_attempt_beats} == {0, 1}
        assert all(stamp - started < 0.8 for stamp, _ in first_attempt_beats), (
            "heartbeats sat undelivered through the retry-backoff window"
        )


class TestRunnerDeterminism:
    def test_worker_count_invariant(self):
        """Same campaign seed, any pool width -> bit-identical values."""
        tasks = [(i,) for i in range(12)]
        with CampaignRunner(workers=1) as serial:
            expected = serial.run(echo_seed, tasks, seed=7).values()
        with CampaignRunner(workers=4) as pooled:
            assert pooled.run(echo_seed, tasks, seed=7).values() == expected


class TestRunnerFailures:
    def test_task_exception_is_structured_and_isolated(self):
        with CampaignRunner(workers=2) as runner:
            result = runner.run(raise_on_zero, [(i,) for i in range(4)])
        assert not result.ok
        [failed] = result.errors
        assert failed.index == 0
        assert failed.error.kind == "exception"
        assert "task zero is broken" in failed.error.message
        assert failed.attempts == 1  # deterministic failures are not retried
        assert result.values(strict=False) == [None, 1, 2, 3]
        with pytest.raises(CampaignError, match="task zero"):
            result.values()

    def test_worker_crash_retried_then_surfaced(self):
        """A dying worker is replaced and its task retried; the one that
        keeps crashing surfaces as a structured error — the rest of the
        campaign completes."""
        with CampaignRunner(
            workers=2, max_retries=1, backoff_base_s=0.01
        ) as runner:
            result = runner.run(crash_on_two, [(i,) for i in range(4)])
        crashed = [r for r in result.errors if r.index == 2]
        assert len(crashed) == 1
        assert crashed[0].error.kind == "crash"
        assert crashed[0].attempts == 2  # initial + one retry
        for index in (0, 1, 3):
            assert result.results[index].value == index

    def test_timeout_retried_then_surfaced_without_hanging(self):
        start = time.perf_counter()
        with CampaignRunner(
            workers=2,
            task_timeout_s=0.3,
            max_retries=1,
            backoff_base_s=0.01,
        ) as runner:
            result = runner.run(sleep_on_one, [(i,) for i in range(4)])
        elapsed = time.perf_counter() - start
        [timed_out] = result.errors
        assert timed_out.index == 1
        assert timed_out.error.kind == "timeout"
        assert timed_out.attempts == 2
        for index in (0, 2, 3):
            assert result.results[index].value == index
        # Two 0.3 s deadlines + backoff, not the 3 s sleep per attempt.
        assert elapsed < 2.5


class TestSingleTaskOnPooledRunner:
    """A one-task campaign on a pooled runner (a one-point job served by
    `repro serve --workers 2`) runs in a worker, not in the caller."""

    def test_crash_is_survived_and_retried(self, tmp_path):
        with CampaignRunner(workers=2, backoff_base_s=0.01) as runner:
            result = runner.run(crash_first_attempt, [(0, str(tmp_path))])
        # Still here: the task's os._exit took a worker, not this process.
        assert result.ok
        assert result.results[0].attempts == 2
        assert result.results[0].worker_pid != os.getpid()

    def test_timeout_is_enforced(self):
        start = time.perf_counter()
        with CampaignRunner(workers=2, task_timeout_s=0.3, max_retries=0) as runner:
            result = runner.run(sleep_on_one, [(1,)])
        assert result.results[0].error.kind == "timeout"
        assert time.perf_counter() - start < 2.5


class TestWorkerIsolation:
    """One worker, one task: a failure is charged to nobody else."""

    def test_crash_charges_only_the_crashing_task(self):
        with CampaignRunner(workers=2, max_retries=0) as runner:
            result = runner.run(crash_on_two, [(i,) for i in range(4)])
        [crashed] = result.errors
        assert crashed.index == 2
        assert crashed.error.kind == "crash"
        assert all(r.attempts == 1 for r in result.results)
        assert result.values(strict=False) == [0, 1, None, 3]

    def test_timeout_kills_only_the_overrunning_worker(self):
        with CampaignRunner(workers=2, task_timeout_s=0.3, max_retries=0) as runner:
            runner.start()
            before = worker_pids()
            result = runner.run(sleep_on_one, [(i,) for i in range(4)])
            after = worker_pids()
        [timed_out] = result.errors
        assert timed_out.index == 1
        assert timed_out.worker_pid in before
        assert timed_out.worker_pid not in after
        [bystander] = set(before) - {timed_out.worker_pid}
        assert bystander in after

    def test_unpicklable_result_is_a_structured_exception(self):
        with CampaignRunner(workers=2) as runner:
            runner.start()
            before = worker_pids()
            result = runner.run(unpicklable_on_one, [(i,) for i in range(4)])
            assert worker_pids() == before  # the worker was reused
        [failed] = result.errors
        assert failed.index == 1
        assert failed.error.kind == "exception"
        assert failed.attempts == 1
        assert result.values(strict=False) == [0, None, 2, 3]

    def test_worker_killed_while_idle_is_replaced(self):
        tasks = [(i,) for i in range(4)]
        with CampaignRunner(workers=2, max_retries=0) as runner:
            assert runner.run(square, tasks).ok
            victim = worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            while victim in worker_pids():  # reaps it once it is dead
                time.sleep(0.01)
            second = runner.run(square, tasks)
            assert len(worker_pids()) == 2
        # Nothing was running on the dead worker: nobody pays an attempt.
        assert second.ok
        assert all(r.attempts == 1 for r in second.results)

    def test_raising_listener_propagates_and_leaves_no_child(self, tmp_path):
        def on_beat(beat):
            raise RuntimeError("listener is broken")

        runner = CampaignRunner(workers=2)
        with pytest.raises(RuntimeError, match="listener is broken"):
            runner.run(
                beat_then_crash_first_attempt,
                [(i, str(tmp_path)) for i in range(4)],
                on_heartbeat=on_beat,
            )
        runner.close()
        assert multiprocessing.active_children() == []


class TestSteadyStateMeasurement:
    def _sampler(self, samples):
        class FakeSampler:
            pass

        sampler = FakeSampler()
        sampler.samples = samples
        return sampler

    def test_averages_second_half_only(self):
        samples = [
            ThroughputSample(time_ps=t, rates_bps={"flow1": rate, "port0": 999.0})
            for t, rate in ((1, 100.0), (2, 100.0), (3, 10.0), (4, 20.0))
        ]
        # Second half = samples 3 and 4; the startup windows are ignored,
        # as are non-flow meters.
        assert steady_state_flow_rates(self._sampler(samples)) == [15.0]

    def test_empty_samples(self):
        assert steady_state_flow_rates(self._sampler([])) == []

    def test_flow_order_deterministic(self):
        samples = [
            ThroughputSample(time_ps=1, rates_bps={"flow2": 2.0, "flow1": 1.0}),
            ThroughputSample(time_ps=2, rates_bps={"flow2": 2.0, "flow1": 1.0}),
        ]
        assert steady_state_flow_rates(self._sampler(samples)) == [1.0, 2.0]


class TestParallelSweep:
    GRID = [{"rate_ai_bps": 1 * GBPS}, {"rate_ai_bps": 3 * GBPS}, {"rate_ai_bps": 5 * GBPS}]

    def test_parallel_identical_to_serial(self):
        """The acceptance-criterion invariant: same campaign seed,
        workers=1 and workers=4 produce identical SweepPoint lists."""
        kwargs = dict(n_senders=2, duration_ps=int(1.5 * MS), seed=11)
        serial, _ = sweep_campaign("dcqcn", self.GRID, workers=1, **kwargs)
        parallel, _ = sweep_campaign("dcqcn", self.GRID, workers=4, **kwargs)
        assert serial == parallel
        assert [point.params for point in parallel] == self.GRID

    def test_one_task_per_grid_point(self):
        points, campaign = sweep_campaign(
            "dcqcn",
            self.GRID[:2],
            n_senders=2,
            duration_ps=1 * MS,
            workers=2,
            seed=7,
        )
        assert len(points) == 2
        assert all(point.n_seeds == 1 for point in points)
        assert campaign.stats()["tasks"] == 2
        assert campaign.stats()["events_total"] > 0


class TestScalingTableParallel:
    def test_matches_serial(self):
        assert scaling_table(max_pipelines=6, workers=2) == scaling_table(
            max_pipelines=6
        )


class TestFluidCampaign:
    def test_parallel_identical_to_serial(self):
        profiles = [dctcp_profile(), dcqcn_profile()]
        kwargs = dict(
            workload="websearch",
            flows_per_port_levels=(4, 8),
            flows_total=2_000,
            seed=5,
        )
        serial, serial_campaign = fluid_fct_campaign(
            profiles, websearch(), workers=1, **kwargs
        )
        parallel, campaign = fluid_fct_campaign(
            profiles, websearch(), workers=2, **kwargs
        )
        assert serial == parallel
        assert [
            (point.algorithm, point.flows_per_port) for point in parallel
        ] == [("dctcp", 4), ("dctcp", 8), ("dcqcn", 4), ("dcqcn", 8)]
        # Each cell reports its flow-steps; every flow took at least one.
        events = campaign.stats()["events_total"]
        assert events == serial_campaign.stats()["events_total"]
        assert events > sum(point.flows_total for point in parallel)
