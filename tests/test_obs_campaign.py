"""Campaign telemetry: heartbeats, manifests, and the CLI surface.

``repro sweep --workers 2 --metrics-out m.prom`` must stream live
heartbeats and write a grammar-valid Prometheus file, ``repro report``
must print the per-component profile plus queue/drop/ECN counters, and
every export names each tester register once, the same way.
"""

import dataclasses
import json
import subprocess

import pytest

from repro.cli import main
from repro.core import ControlPlane, TestConfig
from repro.obs import parse_prometheus_text
from repro.obs.heartbeat import (
    Heartbeat,
    configure,
    run_with_heartbeats,
    set_task,
)
from repro.obs.manifest import build_manifest, config_hash, environment
from repro.sim import Simulator
from repro.units import MS


def register_series() -> set[str]:
    """``repro_<key>_total`` for every register ``read_measurements()``
    returns (the key set does not depend on the run)."""
    cp = ControlPlane()
    cp.deploy(TestConfig(cc_algorithm="dcqcn", n_test_ports=2))
    return {
        f"repro_{key.replace('.', '_')}_total" for key in cp.read_measurements()
    }


def prom_names(path) -> set[str]:
    return {name for name, _, _ in parse_prometheus_text(path.read_text())}


@pytest.fixture(autouse=True)
def _clean_sink():
    """Heartbeat sink is module state; never leak it across tests."""
    yield
    configure(None)
    set_task(None)


class TestRunWithHeartbeats:
    def _chain(self, sim, horizon):
        def tick():
            if sim.now < horizon:
                sim.after(1000, tick)

        sim.at(0, tick)

    def test_no_sink_matches_plain_run(self):
        a, b = Simulator(), Simulator()
        self._chain(a, 50_000)
        self._chain(b, 50_000)
        executed = run_with_heartbeats(a, 100_000)
        b.run(until_ps=100_000)
        assert (executed, a.now) == (b.events_executed, b.now)

    def test_slicing_does_not_change_the_run(self):
        a, b = Simulator(), Simulator()
        self._chain(a, 50_000)
        self._chain(b, 50_000)
        beats = []
        configure(beats.append)
        run_with_heartbeats(a, 100_000, n_slices=7)
        configure(None)
        b.run(until_ps=100_000)
        assert a.events_executed == b.events_executed
        assert a.now == b.now == 100_000
        assert len(beats) == 8  # 7 slices + final
        assert beats[-1].final and not beats[0].final
        assert beats[-1].sim_now_ps == 100_000

    def test_progress_is_monotonic_and_complete(self):
        sim = Simulator()
        self._chain(sim, 50_000)
        beats = []
        configure(beats.append)
        set_task(5)
        run_with_heartbeats(sim, 100_000)
        fractions = [beat.progress for beat in beats]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
        assert all(beat.task_id == 5 for beat in beats)

    def test_counters_fn_snapshot(self):
        sim = Simulator()
        self._chain(sim, 5_000)
        beats = []
        configure(beats.append)
        run_with_heartbeats(sim, 10_000, counters_fn=lambda: {"x": sim.now})
        assert beats[-1].counters == {"x": 10_000}


def emit_unsendable_then_sendable(x):
    """A campaign task whose first beat cannot cross the worker's pipe
    (its counters do not pickle)."""
    from repro.obs.heartbeat import emit

    beat = Heartbeat(
        task_id=x, pid=0, sim_now_ps=1, sim_until_ps=2, events_executed=1, wall_s=0.0
    )
    emit(dataclasses.replace(beat, counters={"unpicklable": lambda: None}))
    emit(beat)
    return x


class TestCampaignHeartbeats:
    def _sweep(self, workers, on_heartbeat=None):
        from repro.core.sweep import sweep_campaign

        return sweep_campaign(
            "dctcp",
            [{"g": 0.0625}, {"g": 0.125}],
            duration_ps=MS // 2,
            workers=workers,
            on_heartbeat=on_heartbeat,
        )

    def test_inline_heartbeats_and_identical_results(self):
        beats = []
        points, _ = self._sweep(workers=1, on_heartbeat=beats.append)
        silent_points, _ = self._sweep(workers=1)
        assert points == silent_points
        finals = [beat for beat in beats if beat.final]
        assert sorted(beat.task_id for beat in finals) == [0, 1]
        assert all(beat.counters for beat in finals)

    def test_pooled_heartbeats_and_identical_results(self):
        beats = []
        points, campaign = self._sweep(workers=2, on_heartbeat=beats.append)
        inline_points, _ = self._sweep(workers=1)
        assert points == inline_points
        assert campaign.n_workers == 2
        finals = {beat.task_id for beat in beats if beat.final}
        assert finals == {0, 1}
        # Beats crossed a process boundary: worker pids, not ours.
        import os

        assert all(beat.pid != os.getpid() for beat in beats)

    def test_unsendable_beat_never_raises(self):
        """Telemetry never fails a simulation: a worker drops a beat it
        cannot send, the task carries on and later beats still arrive."""
        from repro.parallel import CampaignRunner

        beats = []
        with CampaignRunner(workers=2) as runner:
            result = runner.run(
                emit_unsendable_then_sendable, [(0,), (1,)], on_heartbeat=beats.append
            )
        assert result.values() == [0, 1]
        assert sorted(beat.task_id for beat in beats) == [0, 1]
        assert not any(beat.counters for beat in beats)


class TestManifest:
    def test_config_hash_is_canonical(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_environment_fields(self):
        env = environment()
        assert set(env) == {
            "git_sha", "python_version", "implementation", "platform", "cpu_count",
            "sim_backend",
        }
        assert env["cpu_count"] >= 1
        assert set(env["sim_backend"]) == {"requested", "name"}

    def test_build_manifest(self):
        manifest = build_manifest(
            {"algorithm": "dctcp"}, seed=7, metrics={"m": 1}, extra={"note": "x"}
        )
        assert manifest["schema"] == 1
        assert manifest["seed"] == 7
        assert manifest["config_hash"] == config_hash({"algorithm": "dctcp"})
        assert manifest["metrics"] == {"m": 1}
        assert manifest["note"] == "x"
        assert "python_version" in manifest["environment"]

    def test_git_sha_forks_once_per_directory(self, tmp_path, monkeypatch):
        from repro.obs import manifest

        calls = []

        def fake_run(argv, cwd, **kwargs):
            calls.append(cwd)
            return subprocess.CompletedProcess(argv, 0, stdout="abc123\n")

        monkeypatch.setattr(manifest.subprocess, "run", fake_run)
        manifest._git_sha.cache_clear()
        try:
            first = build_manifest({"a": 1})
            second = build_manifest({"a": 2})
            assert first["environment"]["git_sha"] == "abc123"
            assert second["environment"]["git_sha"] == "abc123"
            assert len(calls) == 1
            # Another directory is another repository: asked again, once.
            assert manifest.git_sha(tmp_path) == manifest.git_sha(str(tmp_path))
            assert calls[1:] == [str(tmp_path)]
        finally:
            manifest._git_sha.cache_clear()


class TestCli:
    def test_sweep_streams_heartbeats_and_writes_prom(self, tmp_path, capsys):
        prom = tmp_path / "m.prom"
        manifest = tmp_path / "manifest.json"
        rc = main([
            "sweep", "--workers", "2", "--param", "g=0.0625,0.125",
            "--duration-ms", "0.5",
            "--metrics-out", str(prom), "--manifest", str(manifest),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[hb] task 0" in out and "[hb] task 1" in out
        assert "done" in out
        names = prom_names(prom)
        assert "repro_campaign_tasks_total" in names
        assert "repro_switch_data_generated_total" in names
        payload = json.loads(manifest.read_text())
        assert payload["config"]["algorithm"] == "dctcp"
        assert payload["campaign"]["tasks"] == 2

    def test_sweep_no_progress_suppresses_hb_lines(self, tmp_path, capsys):
        rc = main([
            "sweep", "--param", "g=0.0625", "--duration-ms", "0.5",
            "--no-progress", "--metrics-out", str(tmp_path / "m.json"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[hb]" not in out
        assert json.loads((tmp_path / "m.json").read_text())

    def test_report_prints_profile_and_counters(self, tmp_path, capsys):
        prom = tmp_path / "report.prom"
        rc = main([
            "report", "--duration-ms", "0.5", "--metrics-out", str(prom),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "component" in out and "share" in out  # profile table
        assert "ECN marks" in out
        assert "dropped" in out
        assert "SCHE accepted/dropped" in out
        assert "events executed/cancelled" in out
        assert prom_names(prom) == register_series()

    def test_run_metrics_out(self, tmp_path, capsys):
        prom = tmp_path / "run.prom"
        rc = main([
            "run", "--duration-ms", "0.5", "--size-packets", "200",
            "--metrics-out", str(prom),
        ])
        assert rc == 0
        names = prom_names(prom)
        assert names == register_series()
        assert "repro_fpga_rmw_conflicts_total" in names

    def test_one_name_per_register_everywhere(self, tmp_path, capsys):
        """``run``'s export, ``sweep``'s export and the sweep manifest
        name each register ``repro_<key>_total``, and nothing else."""
        run_prom = tmp_path / "run.prom"
        sweep_prom = tmp_path / "sweep.prom"
        manifest = tmp_path / "manifest.json"
        assert main([
            "run", "--algorithm", "dcqcn", "--ports", "2",
            "--duration-ms", "0.5", "--metrics-out", str(run_prom),
        ]) == 0
        assert main([
            "sweep", "--algorithm", "dcqcn", "--param", "rate_ai_bps=1e9",
            "--senders", "2", "--duration-ms", "0.5", "--no-progress",
            "--metrics-out", str(sweep_prom), "--manifest", str(manifest),
        ]) == 0
        expected = register_series()
        assert "repro_fpga_rmw_conflicts_total" in expected
        artefacts = {
            "run": prom_names(run_prom),
            "sweep": prom_names(sweep_prom),
            "manifest": set(json.loads(manifest.read_text())["metrics"]),
        }
        for where, names in artefacts.items():
            tester = {n for n in names if not n.startswith("repro_campaign_")}
            assert tester == expected, where
