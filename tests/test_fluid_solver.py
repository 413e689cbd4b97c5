"""The columnar fluid solver: oracle equivalence, determinism, and
population management (arrivals, departures, compaction)."""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.kernels import (
    KERNEL_DCQCN,
    KERNEL_DCTCP,
    KERNEL_IDEAL,
    KERNEL_NAMES,
    KERNEL_SLOW_START,
    fluid_kernel,
    kernel_name,
)
from repro.errors import ConfigError
from repro.fluid import (
    ColumnarFluidSolver,
    FluidSimulator,
    SolverConfig,
    dcqcn_profile,
    dctcp_profile,
    fluid_fct_campaign,
    ideal_fct_ps,
    ideal_profile,
    kernel_for_profile,
    run_fluid_point,
)
from repro.fluid.solver import ECN_THRESHOLD_BYTES
from repro.units import BITS_PER_BYTE, MICROSECOND, RATE_100G, US
from repro.workload import websearch


class TestKernelMapping:
    def test_explicit_names(self):
        assert fluid_kernel("ideal") == KERNEL_IDEAL
        assert fluid_kernel("constant") == KERNEL_IDEAL
        assert fluid_kernel("slow_start") == KERNEL_SLOW_START
        assert fluid_kernel("dctcp") == KERNEL_DCTCP
        assert fluid_kernel("dcqcn") == KERNEL_DCQCN

    def test_reno_and_timely_raise(self):
        # Registered CC algorithms without a kernel of their own do not
        # borrow another algorithm's dynamics.
        for name in ("reno", "timely"):
            with pytest.raises(ConfigError, match="no fluid kernel"):
                fluid_kernel(name)

    def test_unknown_raises(self):
        with pytest.raises(ConfigError):
            fluid_kernel("definitely-not-a-cc")

    def test_kernel_names_round_trip(self):
        for code in (KERNEL_IDEAL, KERNEL_SLOW_START, KERNEL_DCTCP, KERNEL_DCQCN):
            assert fluid_kernel(kernel_name(code)) == code

    def test_kernel_for_profile(self):
        assert kernel_for_profile(ideal_profile()) == KERNEL_IDEAL
        assert kernel_for_profile(dctcp_profile()) == KERNEL_DCTCP
        assert kernel_for_profile(dcqcn_profile()) == KERNEL_DCQCN


class TestIdealOracle:
    """The ideal kernel must reproduce the closed-form FCT exactly —
    completion interpolation makes it independent of dt."""

    def test_static_population_matches_closed_form(self):
        n, size = 10, 1_000_000
        solver = ColumnarFluidSolver(n_bottlenecks=1, seed=1)
        solver.add_flows([size] * n, kernel="ideal")
        while solver.n_active:
            solver.step(64)
        result = solver.completions()
        expect_us = ideal_fct_ps(size, n, RATE_100G) / MICROSECOND
        assert result.fcts_us == pytest.approx([expect_us] * n, rel=1e-9)

    def test_dt_independence(self):
        fcts = []
        for dt in (1 * US, 7 * US):
            solver = ColumnarFluidSolver(
                n_bottlenecks=1, config=SolverConfig(dt_ps=dt), seed=1
            )
            solver.add_flows([250_000] * 4, kernel="ideal")
            while solver.n_active:
                solver.step()
            fcts.append(solver.completions().fcts_us)
        assert fcts[0] == pytest.approx(fcts[1], rel=1e-9)

    def test_closed_loop_matches_per_flow_oracle(self):
        # Under closed-loop replacement the population is constant, so
        # every ideal flow runs at C/n for its whole life: its FCT is the
        # scalar oracle's.  The seed cohort starts on a step boundary and
        # is exact; respawned flows start mid-step, so they carry at most
        # one dt of discretization.
        n_slots = 16
        solver = ColumnarFluidSolver(n_bottlenecks=1, seed=7)
        dt_us = solver.config.dt_ps / MICROSECOND
        dist = websearch()
        sizes = dist.sample_many(solver.rng, n_slots)
        solver.add_flows(sizes, kernel="ideal")
        run = solver.run_closed_loop(dist, flows_total=400)
        expect_us = np.array(
            [
                ideal_fct_ps(size, n_slots, RATE_100G) / MICROSECOND
                for size in run.sizes_bytes
            ]
        )
        seeded = run.flow_ids < n_slots
        np.testing.assert_allclose(
            run.fcts_us[seeded], expect_us[seeded], rtol=1e-9
        )
        np.testing.assert_allclose(run.fcts_us, expect_us, atol=dt_us, rtol=1e-9)

    def test_closed_form_scalar_oracle_agrees(self):
        # Same steady state through the FluidSimulator profile kernel
        # (ideal profile: utilization 1, constant rate).
        sim = FluidSimulator(n_ports=1, flows_per_port=8)
        solver = ColumnarFluidSolver(n_bottlenecks=1, seed=3)
        solver.add_flows([500_000] * 8, kernel="ideal")
        while solver.n_active:
            solver.step(32)
        got = solver.completions().fcts_us[0] * MICROSECOND
        want = sim.flow_fct_ps(500_000, ideal_profile())
        assert got == pytest.approx(want, rel=1e-9)


class TestClosedLoopBehaviour:
    """Loose steady-state checks for the feedback kernels: a columnar
    campaign cell must land in the same regime as the closed-form oracle
    on the same draws."""

    @pytest.fixture(scope="class")
    def points(self):
        dist = websearch()
        out = {}
        for profile in (ideal_profile(), dcqcn_profile()):
            oracle = FluidSimulator(n_ports=2, flows_per_port=8, seed=11).run(
                profile, dist, flows_total=2000
            )
            out[("closed_form", profile.name)] = (
                float(np.mean(oracle.fcts_us)),
                float(np.percentile(oracle.fcts_us, 50)),
            )
            cell = run_fluid_point(
                profile, dist, flows_per_port=8, flows_total=2000, n_ports=2, seed=11
            )
            out[("columnar", profile.name)] = (cell.mean_fct_us, cell.p50_fct_us)
        return out

    def test_mean_fct_consistent_across_backends(self, points):
        for algorithm in ("ideal", "dcqcn"):
            closed, _ = points[("closed_form", algorithm)]
            columnar, _ = points[("columnar", algorithm)]
            assert columnar == pytest.approx(closed, rel=0.5)

    def test_dcqcn_short_flow_advantage(self, points):
        # Line-rate start: DCQCN's median (short flows dominate the
        # websearch count) beats equal-share ideal in both models.
        for model in ("closed_form", "columnar"):
            _, dcqcn_p50 = points[(model, "dcqcn")]
            _, ideal_p50 = points[(model, "ideal")]
            assert dcqcn_p50 < ideal_p50

    def test_dctcp_queue_sits_near_threshold(self):
        # DCTCP's marking loop keeps the standing queue around K.
        cfg = SolverConfig()
        solver = ColumnarFluidSolver(n_bottlenecks=1, config=cfg, seed=2)
        solver.add_flows([1_000_000_000] * 8, kernel="dctcp")
        solver.step(4000)
        assert solver.n_active == 8  # long flows: nobody finished yet
        queue_bytes = solver.queue_bits[0] / BITS_PER_BYTE
        assert 0.2 * ECN_THRESHOLD_BYTES < queue_bytes < 5 * ECN_THRESHOLD_BYTES


class TestDeterminism:
    def _run(self, seed):
        solver = ColumnarFluidSolver(n_bottlenecks=2, seed=seed)
        dist = websearch()
        sizes = dist.sample_many(solver.rng, 32)
        solver.add_flows(sizes, bottleneck=np.arange(32, dtype=np.int32) % 2)
        run = solver.run_closed_loop(dist, flows_total=300)
        return solver, run

    def test_same_seed_bit_identical(self):
        a_solver, a = self._run(42)
        b_solver, b = self._run(42)
        assert np.array_equal(a.fcts_us, b.fcts_us)
        assert np.array_equal(a.sizes_bytes, b.sizes_bytes)
        assert np.array_equal(a.flow_ids, b.flow_ids)
        for name in ColumnarFluidSolver._COLUMNS:
            col_a = getattr(a_solver, name)[: a_solver.n_rows]
            col_b = getattr(b_solver, name)[: b_solver.n_rows]
            assert np.array_equal(col_a, col_b), name

    def test_different_seed_differs(self):
        _, a = self._run(42)
        _, b = self._run(43)
        assert not np.array_equal(a.sizes_bytes, b.sizes_bytes)

    def test_campaign_worker_count_invariant(self):
        dist = websearch()
        kwargs = dict(
            workload="websearch",
            flows_per_port_levels=(4, 8),
            flows_total=300,
            n_ports=2,
            seed=5,
        )
        profiles = [ideal_profile(), dcqcn_profile()]
        serial, _ = fluid_fct_campaign(profiles, dist, workers=1, **kwargs)
        pooled, _ = fluid_fct_campaign(profiles, dist, workers=2, **kwargs)
        assert serial == pooled


class TestSolverTelemetry:
    def _run(self, seed, *, telemetry, sample_every=1):
        solver = ColumnarFluidSolver(n_bottlenecks=2, seed=seed)
        if telemetry:
            solver.enable_telemetry(sample_every=sample_every)
        dist = websearch()
        sizes = dist.sample_many(solver.rng, 32)
        solver.add_flows(sizes, bottleneck=np.arange(32, dtype=np.int32) % 2)
        run = solver.run_closed_loop(dist, flows_total=300)
        return solver, run

    def test_telemetry_on_is_bit_identical(self):
        """Sampling only reads solver state: same seed, same FCTs,
        same columns, telemetry on or off."""
        off_solver, off = self._run(11, telemetry=False)
        on_solver, on = self._run(11, telemetry=True)
        assert np.array_equal(off.fcts_us, on.fcts_us)
        assert np.array_equal(off.sizes_bytes, on.sizes_bytes)
        for name in ColumnarFluidSolver._COLUMNS:
            col_off = getattr(off_solver, name)[: off_solver.n_rows]
            col_on = getattr(on_solver, name)[: on_solver.n_rows]
            assert np.array_equal(col_off, col_on), name

    def test_series_shapes_and_content(self):
        solver, run = self._run(11, telemetry=True)
        series = solver.telemetry.arrays()
        n = len(solver.telemetry)
        assert n == run.steps
        assert series["time_ps"].shape == (n,)
        for key in ("queue_bytes", "offered_bps", "mark", "active_flows"):
            assert series[key].shape == (n, 2), key
        assert series["completions"].shape == (n,)
        assert np.all(np.diff(series["time_ps"]) > 0)
        assert int(series["completions"].sum()) == solver.flows_completed
        # Closed loop holds the population constant at 16 per bottleneck.
        assert np.all(series["active_flows"] == 16)
        assert np.all(series["queue_bytes"] >= 0)

    def test_sample_every_decimates(self):
        every, _ = self._run(11, telemetry=True)
        sparse, _ = self._run(11, telemetry=True, sample_every=10)
        dense = every.telemetry.arrays()
        thin = sparse.telemetry.arrays()
        assert len(sparse.telemetry) == -(-len(every.telemetry) // 10)
        assert np.array_equal(thin["time_ps"], dense["time_ps"][::10])
        assert np.array_equal(thin["queue_bytes"], dense["queue_bytes"][::10])

    def test_sample_every_validation(self):
        solver = ColumnarFluidSolver()
        with pytest.raises(ConfigError):
            solver.enable_telemetry(sample_every=0)

    def test_disable_telemetry_stops_sampling(self):
        solver = ColumnarFluidSolver(n_bottlenecks=1, seed=0)
        solver.enable_telemetry()
        solver.add_flows([10_000] * 4, kernel="ideal")
        solver.step(3)
        assert len(solver.telemetry) == 3
        solver.disable_telemetry()
        assert solver.telemetry is None
        solver.step(3)  # no crash, nothing sampled

    def test_save_round_trip(self, tmp_path):
        solver, _ = self._run(11, telemetry=True)
        path = tmp_path / "series.npz"
        solver.telemetry.save(path)
        loaded = np.load(path)
        series = solver.telemetry.arrays()
        for key in series:
            assert np.array_equal(loaded[key], series[key]), key


class TestPopulation:
    def test_add_flows_validation(self):
        solver = ColumnarFluidSolver(n_bottlenecks=2)
        with pytest.raises(ConfigError):
            solver.add_flows([])
        with pytest.raises(ConfigError):
            solver.add_flows([0])
        with pytest.raises(ConfigError):
            solver.add_flows([100], bottleneck=2)
        with pytest.raises(ConfigError):
            solver.add_flows([100], bottleneck=[0, 1])
        with pytest.raises(ConfigError):
            solver.add_flows([100], kernel="no-such-kernel")

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(dt_ps=0).validate()
        with pytest.raises(ConfigError):
            SolverConfig(compact_slack=1.0).validate()
        with pytest.raises(ConfigError):
            ColumnarFluidSolver(n_bottlenecks=0)
        with pytest.raises(ConfigError):
            ColumnarFluidSolver(n_bottlenecks=2, capacity_bps=[1e9])

    def test_backend_validation(self):
        # The columnar solver is the one campaign engine; the closed form
        # is an oracle, not a backend.
        for backend in ("closed_form", "warp"):
            with pytest.raises(ConfigError, match="columnar"):
                fluid_fct_campaign(
                    [ideal_profile()], websearch(), flows_total=10, backend=backend
                )

    def test_growth_preserves_state(self):
        solver = ColumnarFluidSolver(n_bottlenecks=1, capacity_hint=4)
        first = solver.add_flows([1000] * 4, kernel="dctcp")
        snapshot = solver.remaining_bits[:4].copy()
        second = solver.add_flows([2000] * 100, kernel="dctcp")
        assert solver.n_rows == 104
        assert np.array_equal(solver.remaining_bits[:4], snapshot)
        assert np.array_equal(solver.flow_id[:4], first)
        assert second[0] == first[-1] + 1

    def test_compaction_preserves_live_rows(self):
        solver = ColumnarFluidSolver(n_bottlenecks=1, seed=0)
        # Short flows finish early and leave dead rows behind the big ones.
        solver.add_flows([2_000] * 8, kernel="ideal")
        big = solver.add_flows([5_000_000] * 4, kernel="ideal")
        while solver.n_active > 4:
            solver.step()
        live = {
            int(fid): float(rem)
            for fid, rem, act in zip(
                solver.flow_id[: solver.n_rows],
                solver.remaining_bits[: solver.n_rows],
                solver.active[: solver.n_rows],
            )
            if act
        }
        freed = solver.compact()
        assert freed == 8
        assert solver.n_rows == solver.n_active == 4
        assert np.array_equal(solver.flow_id[:4], big)
        for fid, rem in zip(solver.flow_id[:4], solver.remaining_bits[:4]):
            assert live[int(fid)] == rem
        assert solver.compact() == 0  # idempotent
        # The survivors still finish, and the completion log is intact.
        while solver.n_active:
            solver.step(64)
        result = solver.completions()
        assert result.fcts_us.size == 12
        assert solver.flows_added == solver.flows_completed == 12

    def test_auto_compaction_open_loop(self):
        cfg = SolverConfig(compact_min_rows=32, compact_slack=1.5)
        solver = ColumnarFluidSolver(n_bottlenecks=1, config=cfg, seed=0)
        solver.add_flows([1_000] * 63, kernel="ideal")
        solver.add_flows([20_000_000], kernel="ideal")
        while solver.n_active > 1:
            solver.step()
        # 63 dead rows against 1 live flow: the slack policy must have
        # compacted them away.
        assert solver.n_rows < 32

    def test_flow_step_accounting(self):
        solver = ColumnarFluidSolver(n_bottlenecks=1)
        solver.add_flows([1_000_000] * 100, kernel="dcqcn")
        solver.step(5)
        assert solver.steps_run == 5
        assert solver.flow_steps == 500


@given(
    sizes=st.lists(
        st.integers(min_value=100, max_value=2_000_000), min_size=1, max_size=16
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_open_loop_conservation(sizes, seed):
    """Open loop with the ideal kernel: every byte admitted completes,
    ids and sizes survive, and FCTs are bounded below by the serialized
    transmission time."""
    solver = ColumnarFluidSolver(n_bottlenecks=1, seed=seed)
    ids = solver.add_flows(sizes, kernel="ideal")
    for _ in range(200_000):
        if not solver.n_active:
            break
        solver.step(16)
    assert solver.n_active == 0
    result = solver.completions()
    assert sorted(result.flow_ids.tolist()) == sorted(ids.tolist())
    assert sorted(result.sizes_bytes.tolist()) == sorted(float(s) for s in sizes)
    # No flow beats the bare wire time for its own bytes.
    wire_us = result.sizes_bytes * BITS_PER_BYTE / RATE_100G * 1e6
    assert np.all(result.fcts_us >= wire_us * (1 - 1e-12))
    # Equal shares: a bigger flow never finishes before a smaller one.
    # (Same-step completions are logged in row order, so sort by size,
    # not by log position.)
    finish = result.fcts_us  # all started at t=0
    by_size = np.argsort(result.sizes_bytes, kind="stable")
    assert np.all(np.diff(finish[by_size]) >= -1e-6)


def test_million_rows_conserve_capacity():
    """2**20 concurrent flows, half DCTCP and half DCQCN over 16
    bottlenecks: the population the solver is sized for, checked by its
    invariants (about a second, under 200 MB).  A bottleneck serves at most
    ``capacity x dt`` a step, because each flow gets ``min(1, C/offered)``
    of its rate; none of the 10 MB flows can finish in 10 steps."""
    n_flows, n_bottlenecks, steps = 2**20, 16, 10
    bottleneck = np.arange(n_flows) % n_bottlenecks
    half = n_flows // 2
    solver = ColumnarFluidSolver(
        n_bottlenecks=n_bottlenecks, seed=1, capacity_hint=n_flows
    )
    solver.add_flows(
        np.full(half, 10_000_000), bottleneck=bottleneck[:half], kernel="dctcp"
    )
    solver.add_flows(
        np.full(n_flows - half, 10_000_000),
        bottleneck=bottleneck[half:],
        kernel="dcqcn",
    )
    solver.step(steps)

    assert solver.flow_steps == n_flows * steps
    rate = solver.rate_bps[:n_flows]
    assert np.all(np.isfinite(rate)) and np.all(rate >= 0.0)
    sent = solver.size_bits[:n_flows] - solver.remaining_bits[:n_flows]
    assert np.all(sent >= 0.0)
    delivered = np.bincount(bottleneck, weights=sent, minlength=n_bottlenecks)
    budget = solver.capacity_bps * (solver.config.dt_ps / 1e12) * steps
    assert np.all(delivered > 0.0)
    assert np.all(delivered <= budget * (1 + 1e-9)), delivered / budget


# -- bit identity: the contract of any solver optimisation --------------------

def _feed(digest, array):
    array = np.asarray(array)
    kind = {"f": np.float64, "i": np.int64, "b": np.uint8}[array.dtype.kind]
    digest.update(np.ascontiguousarray(array, dtype=kind).tobytes())


def _state_digest(solver, run, series=None):
    """SHA-256 over the completion log, the step counters, every state
    column and the queues (integer columns widened to int64, so the
    digest does not depend on a column's storage width)."""
    digest = hashlib.sha256()
    for array in (
        run.fcts_us, run.flow_ids, run.sizes_bytes, [run.steps, run.flow_steps]
    ):
        _feed(digest, array)
    for name in ColumnarFluidSolver._COLUMNS:
        _feed(digest, getattr(solver, name)[: solver.n_rows])
    _feed(digest, solver.queue_bits)
    for key in sorted(series or ()):
        _feed(digest, series[key])
    return digest.hexdigest()


def _closed_loop_cell(kernel, n_ports=12, flows_per_port=64, *, seed=15, config=None):
    solver = ColumnarFluidSolver(
        n_bottlenecks=n_ports,
        seed=seed,
        config=config,
        capacity_hint=n_ports * flows_per_port,
    )
    dist = websearch()
    solver.add_flows(
        dist.sample_many(solver.rng, n_ports * flows_per_port),
        bottleneck=np.repeat(np.arange(n_ports, dtype=np.int32), flows_per_port),
        kernel=kernel,
    )
    return solver, solver.run_closed_loop(dist, flows_total=2000)


def _open_loop_mixed(telemetry=False, capacity=RATE_100G):
    """Four kernels over four bottlenecks, arrivals between steps,
    retirements, a forced compaction: index-array selectors, dead rows
    and every plan invalidation in one trajectory."""
    solver = ColumnarFluidSolver(
        n_bottlenecks=4, capacity_bps=capacity, seed=15, capacity_hint=64
    )
    if telemetry:
        solver.enable_telemetry()
    dist = websearch()

    def arrive(k):
        for kernel in KERNEL_NAMES:
            solver.add_flows(
                dist.sample_many(solver.rng, k),
                bottleneck=solver.rng.integers(0, 4, size=k),
                kernel=kernel,
            )

    arrive(40)
    solver.step(300)
    arrive(25)
    solver.step(300)
    assert solver.n_active < solver.n_rows
    assert solver.compact() > 0
    arrive(10)
    solver.step(400)
    assert 0 < solver.n_active < solver.n_rows
    return solver, solver.completions()


class TestGoldenDigests:
    """Literal digests captured at the commit *before* the step-plan
    rewrite (PR 12, NumPy 2.4): the solver's arithmetic is pinned bit
    for bit, so an optimisation that re-associates one floating-point
    expression fails here, not in a tolerance."""

    @pytest.mark.parametrize(
        "kernel, want",
        [
            ("ideal", "89516c4a434d653b3b2f2e103e37dd1b278a7a6665d31b66353d9694ae937b50"),
            ("slow_start", "e191521009731fe2be7bb318275003b2f1c9e10dadfec00eef5e605b87e96ddc"),
            ("dctcp", "35a47da6dfb48abf3a94adfafa4e39ef7241893cacf90b2dff8f76a6e9ee3485"),
            ("dcqcn", "6fb983ff2d52a03a2e566204f57b4f3a77e69180cb80e48e904170cd903bd770"),
        ],
    )
    def test_closed_loop_cell_12x64(self, kernel, want):
        assert _state_digest(*_closed_loop_cell(kernel)) == want

    def test_open_loop_four_kernels(self):
        assert _state_digest(*_open_loop_mixed()) == (
            "fe119b83288870a914be0a1706abade4989f191e42f365d07f93e99b4d4fed07"
        )

    def test_open_loop_with_telemetry(self):
        solver, run = _open_loop_mixed(telemetry=True)
        assert _state_digest(solver, run, solver.telemetry.arrays()) == (
            "577e11529d531e2d2836c17ac30687500a8cac21851884b7fbb345233c25e94a"
        )

    def test_non_uniform_capacities(self):
        assert _state_digest(
            *_open_loop_mixed(capacity=[100e9, 40e9, 25e9, 10e9])
        ) == "e4c607b250d63e3c888f6da030c69133fb79caeeaa3756712175a423904c715f"


@functools.lru_cache(maxsize=None)
def _fig10_cell_fcts(kernel, dt_ps):
    """Mean, p50 and p99 FCT (µs) of the ledger's Fig. 10 cell: 12
    bottlenecks x 64 WebSearch flows, closed loop to 2,000 completions,
    seed 1."""
    _, run = _closed_loop_cell(kernel, seed=1, config=SolverConfig(dt_ps=dt_ps))
    return {
        "mean": float(run.fcts_us.mean()),
        "p50": float(np.percentile(run.fcts_us, 50)),
        "p99": float(np.percentile(run.fcts_us, 99)),
    }


class TestStepConvergence:
    """Halving the default step (5 µs) moves each kernel's FCT statistics
    on the Fig. 10 cell by less than a written band.  Measured at dt vs
    dt/2 when the bands were set: ideal 879.10 vs 878.21 / 217.38 vs
    216.69 / 7696.91 vs 7696.91 µs (mean / p50 / p99), DCTCP +1.5% /
    +1.1% / +1.3%, DCQCN p50 66.45 vs 64.15 and p99 44020 vs 44554 µs.

    - ideal, 1%: the kernel is exact at any dt except that a respawned
      flow starts mid-step and carries at most one dt;
    - DCTCP, 2.5%: marking is decided once a step, and 5 µs is close to
      the 6 µs base RTT, so the queue's excursions above K are resolved
      coarsely; halving dt moves all three statistics by ~1.5%;
    - DCQCN p50, 5%: the median flow lives ~65 µs, about one 50 µs cut
      period, so the step's quantisation of its line-rate start and
      first cut is a visible share of it (+3.6%);
    - DCQCN p99, 2.5%: the tail is the largest WebSearch flows, whose
      FCT is their size over a long-run share of the bottleneck, which
      the step hardly moves (-1.2%).

    DCQCN's mean is not converged, and not monotone in dt (1828.70 µs at
    1.25 µs; 1857 / 1991 / 1918 µs at 5 / 2.5 / 1.25 µs with seed 2), so
    it is pinned as a strict xfail: a fix that converges it must say so.
    """

    @pytest.mark.parametrize(
        "kernel, stat, band",
        [
            ("ideal", "mean", 0.01),
            ("ideal", "p50", 0.01),
            ("ideal", "p99", 0.01),
            ("dctcp", "mean", 0.025),
            ("dctcp", "p50", 0.025),
            ("dctcp", "p99", 0.025),
            ("dcqcn", "p50", 0.05),
            ("dcqcn", "p99", 0.025),
            pytest.param(
                "dcqcn", "mean", 0.025,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="DCQCN mean FCT 1616.56 µs at dt 5 µs vs 1887.42 µs "
                    "at 2.5 µs (-14.4%): not converged at the default step",
                ),
            ),
        ],
    )
    def test_halving_dt_stays_in_band(self, kernel, stat, band):
        dt_ps = SolverConfig().dt_ps
        coarse = _fig10_cell_fcts(kernel, dt_ps)[stat]
        fine = _fig10_cell_fcts(kernel, dt_ps // 2)[stat]
        assert abs(coarse / fine - 1.0) <= band, (coarse, fine)


def _assert_rows_equal(a, rows_a, b, rows_b, skip=()):
    for name in ColumnarFluidSolver._COLUMNS:
        if name not in skip:
            col_a = getattr(a, name)[: a.n_rows][rows_a]
            col_b = getattr(b, name)[: b.n_rows][rows_b]
            assert np.array_equal(col_a, col_b), name


class TestPathEquivalence:
    """The step's shortcuts — slice selectors for a single-kernel
    population, no ``active`` mask while every row is live — must equal
    the general path inside one commit, and the plan must never outlive
    the layout it was built for."""

    N_SHARED = 32

    def _seeded(self, kernel, sizes=None):
        solver = ColumnarFluidSolver(n_bottlenecks=3, seed=4)
        if sizes is None:
            sizes = websearch().sample_many(solver.rng, self.N_SHARED)
        solver.add_flows(
            sizes, bottleneck=np.arange(self.N_SHARED) % 2, kernel=kernel
        )
        return solver

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_index_array_selectors_equal_slices(self, kernel):
        dist = websearch()
        alone = self._seeded(kernel)
        mixed = self._seeded(kernel)
        # One never-finishing flow of another kernel, on its own
        # bottleneck: every selector becomes an index array.
        other = "dcqcn" if kernel == "ideal" else "ideal"
        mixed.add_flows([10**15], bottleneck=2, kernel=other)
        run_alone = alone.run_closed_loop(dist, flows_total=300)
        run_mixed = mixed.run_closed_loop(dist, flows_total=300)
        assert isinstance(alone._plan.kernels[fluid_kernel(kernel)][0], slice)
        assert isinstance(mixed._plan.kernels[fluid_kernel(kernel)][0], np.ndarray)
        assert np.array_equal(run_alone.fcts_us, run_mixed.fcts_us)
        assert run_alone.steps == run_mixed.steps
        shared = slice(0, self.N_SHARED)
        # (The extra flow took an id, so respawned ids are offset by one.)
        _assert_rows_equal(alone, shared, mixed, shared, skip=("flow_id",))
        assert np.array_equal(alone.queue_bits[:2], mixed.queue_bits[:2])

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_dead_row_mask_equals_all_live(self, kernel):
        big = np.full(self.N_SHARED, 10**12)
        live = self._seeded(kernel, big)
        masked = self._seeded(kernel, big)
        # One tiny flow on its own bottleneck retires in step 1 and
        # leaves a dead row behind for the rest of the run.
        masked.add_flows([100], bottleneck=2, kernel=kernel)
        live.step(400)
        masked.step(400)
        assert live.n_active == live.n_rows == self.N_SHARED
        assert masked.n_active == self.N_SHARED == masked.n_rows - 1
        assert masked.completions().fcts_us.size == 1
        shared = slice(0, self.N_SHARED)
        _assert_rows_equal(live, shared, masked, shared)
        assert np.array_equal(live.queue_bits[:2], masked.queue_bits[:2])

    def test_plan_rebuilt_after_growth(self):
        """Growth past ``capacity_hint`` reallocates every column: a plan
        kept across it would step stale views.  Equal to a solver whose
        columns never had to grow."""
        solvers = []
        for hint in (16, 4096):
            solver = ColumnarFluidSolver(n_bottlenecks=2, seed=9, capacity_hint=hint)
            dist = websearch()
            solver.add_flows(dist.sample_many(solver.rng, 16), kernel="dctcp")
            solver.step(20)
            assert solver._plan is not None
            solver.add_flows(
                dist.sample_many(solver.rng, 200), bottleneck=1, kernel="dcqcn"
            )
            assert solver._plan is None
            solver.step(200)
            solvers.append(solver)
        grown, roomy = solvers
        everything = slice(None)
        _assert_rows_equal(grown, everything, roomy, everything)
        assert np.array_equal(grown.queue_bits, roomy.queue_bits)
        assert np.array_equal(
            grown.completions().fcts_us, roomy.completions().fcts_us
        )

    def test_plan_rebuilt_after_compact(self):
        """Compaction renumbers rows; the flows that follow must step
        exactly as in a solver that kept its dead rows."""
        solvers = []
        for compact in (True, False):
            solver = ColumnarFluidSolver(n_bottlenecks=2, seed=9)
            dist = websearch()
            solver.add_flows([100] * 8, kernel="dcqcn")
            solver.add_flows(dist.sample_many(solver.rng, 24), kernel="dcqcn")
            solver.step(3)
            assert solver.n_rows - solver.n_active >= 8
            if compact:
                assert solver.compact() >= 8
                assert solver._plan is None
            solver.add_flows(
                dist.sample_many(solver.rng, 16), bottleneck=1, kernel="dctcp"
            )
            solver.step(200)
            solvers.append(solver)
        compacted, sparse = solvers
        assert compacted.n_rows < sparse.n_rows
        # Rows that died before the compaction are gone from one solver
        # only; every flow that outlived it is in both.
        survived = np.isin(
            compacted.flow_id[: compacted.n_rows], sparse.flow_id[: sparse.n_rows]
        )
        in_sparse = np.isin(
            sparse.flow_id[: sparse.n_rows], compacted.flow_id[: compacted.n_rows]
        )
        assert survived.all() and in_sparse.sum() == compacted.n_rows
        _assert_rows_equal(compacted, slice(None), sparse, in_sparse)
        assert np.array_equal(compacted.queue_bits, sparse.queue_bits)
        assert np.array_equal(
            compacted.completions().fcts_us, sparse.completions().fcts_us
        )


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_window_bdp", 0.0),
        ("compact_min_rows", 0),
    ],
)
def test_config_rejected_at_construction(field, value):
    """Values the step would divide by, or clamp against, never reach it."""
    with pytest.raises(ConfigError, match=field):
        ColumnarFluidSolver(config=SolverConfig(**{field: value}))
