"""``serve_cold`` and ``serve_cached``: what ``repro submit`` costs.

Both drive a live ``repro serve --workers 2`` subprocess (this box has
two cores) with its own fresh cache directory, from one client that
waits for each reply.  ``serve_cold`` submits never-seen sweep specs:
``serve`` + ``parallel`` + IPC wrapped round four small packet sims, so
packet-path gains appear scaled by the sim share and pool / dispatch /
notify costs appear only here.  ``serve_cached`` resubmits specs stored
during set-up: HTTP parse, ``parse_spec``, ``config_hash``, a cache
file read and JSON -- no simulation runs, and neither the packet nor
the fluid layers may move it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.core.sweep import SweepPoint, sweep_campaign
from repro.obs.export import parse_prometheus_text
from repro.parallel import CampaignRunner
from repro.serve import ServeClient
from repro.serve.cache import ResultCache
from repro.serve.spec import parse_spec
from repro.units import MS

from .bootstrap import PACKAGE, ROOT
from .harness import Workload, digest
from .pkt import ECN_THRESHOLD_BYTES, FANIN_GRID
from .spans import SpanRecorder

WORKERS = 2
N_SENDERS = 2
GRID_POINTS = 4

#: Scratch space inside the checkout (the benchmark writes nowhere else).
WORK_ROOT = ROOT / ".ledger_work"


class Daemon:
    """``repro serve`` as a subprocess that is always reaped."""

    def __init__(self, sim_backend: str) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.work_dir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
        self.sim_backend = sim_backend
        self.process: Optional[subprocess.Popen] = None
        self.client: Optional[ServeClient] = None

    def start(self) -> float:
        """Start the daemon; returns seconds until ``/healthz`` answers."""
        start = time.perf_counter()
        with open(self.work_dir / "daemon.stderr", "w") as stderr:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", f"{PACKAGE}.daemon", self.sim_backend,
                    "serve", "--port", "0", "--workers", str(WORKERS),
                    "--cache-dir", str(self.work_dir / "cache"),
                ],
                cwd=ROOT,
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
                # Its own process group, so a daemon that ignores SIGINT
                # can be killed together with its pool workers.
                start_new_session=True,
            )
        assert self.process.stdout is not None
        ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
        banner = self.process.stdout.readline() if ready else ""
        port = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        if port is None:
            raise RuntimeError(
                f"repro serve did not come up (banner {banner!r}): "
                + (self.work_dir / "daemon.stderr").read_text()[-2000:]
            )
        self.client = ServeClient("127.0.0.1", int(port.group(1)), timeout_s=30.0)
        if not self.client.health()["pool_started"]:
            raise RuntimeError("repro serve answered before its pool was warm")
        return time.perf_counter() - start

    def tree_hwm_mb(self) -> float:
        """Summed ``VmHWM`` of the daemon and every descendant."""
        assert self.process is not None
        parent_of = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    stat = Path("/proc", entry, "stat").read_text()
                except OSError:
                    continue  # exited while we were listing
                parent_of[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
        tree = {self.process.pid}
        grew = True
        while grew:
            more = {pid for pid, parent in parent_of.items() if parent in tree} - tree
            tree |= more
            grew = bool(more)
        total_kb = 0
        for pid in tree:
            try:
                status = Path("/proc", str(pid), "status").read_text()
            except OSError:
                continue
            match = re.search(r"VmHWM:\s+(\d+) kB", status)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0

    def stop(self) -> None:
        process, self.process = self.process, None
        if process is not None:
            if process.poll() is None:
                process.send_signal(signal.SIGINT)
                try:
                    process.wait(timeout=15.0)
                except subprocess.TimeoutExpired:
                    os.killpg(process.pid, signal.SIGKILL)
                    process.wait()
            assert process.stdout is not None
            process.stdout.close()
        shutil.rmtree(self.work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is using it


class ServeWorkload(Workload):
    in_process = False

    def __init__(self, seed: int, sim_backend: str, quick: bool) -> None:
        super().__init__(seed, sim_backend, quick)
        self.daemon: Optional[Daemon] = None
        #: The same four grid points whatever the seed, which feeds the
        #: spec seeds instead: the op's size must not vary with the seed.
        self.grid = FANIN_GRID[:GRID_POINTS]
        #: Spec seeds of this run start here; every spec gets its own.
        self.seed_base = seed * 1_000_000
        self.metrics_before: dict[str, float] = {}

    @property
    def client(self) -> ServeClient:
        assert self.daemon is not None and self.daemon.client is not None
        return self.daemon.client

    def spec(self, offset: int, duration_ms: float) -> dict[str, Any]:
        return {
            "kind": "sweep",
            "algorithm": "dcqcn",
            "grid": self.grid,
            "n_senders": N_SENDERS,
            "duration_ms": duration_ms,
            "ecn_threshold_bytes": ECN_THRESHOLD_BYTES,
            "seed": self.seed_base + offset,
            "sim_backend": self.sim_backend,
        }

    def run_job(self, spec: dict[str, Any]) -> dict[str, Any]:
        job = self.client.submit(spec)
        return self.client.wait(job["job_id"], timeout_s=60.0)

    def start_daemon(self) -> None:
        self.daemon = Daemon(self.sim_backend)
        self.layer["serve.daemon_start_s"] = self.daemon.start()

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()

    def peak_rss_mb(self) -> float:
        assert self.daemon is not None
        return self.daemon.tree_hwm_mb()

    def daemon_metrics(self) -> dict[str, float]:
        return {
            name: value
            for name, _, value in parse_prometheus_text(self.client.metrics())
        }

    def before_measured(self) -> None:
        self.metrics_before = self.daemon_metrics()

    def after_measured(self) -> None:
        after = self.daemon_metrics()
        for metric, counter in (
            ("serve.cache_hits", "repro_serve_cache_hits_total"),
            ("serve.cache_misses", "repro_serve_cache_misses_total"),
            ("serve.jobs_failed", "repro_serve_jobs_failed_total"),
        ):
            self.layer[metric] = after[counter] - self.metrics_before[counter]

    def drives(self, spec: dict[str, Any], document: dict[str, Any]) -> None:
        """Standalone cost of the daemon's pieces, at this workload's
        own spec and result payload."""
        layer = self.layer
        n = 5 if self.quick else 50
        rtts = []
        for _ in range(n):
            start = time.perf_counter()
            self.client.health()
            rtts.append(time.perf_counter() - start)
        layer["serve.http_rtt_ms"] = statistics.median(rtts) * 1e3
        layer["serve.result_bytes"] = len(json.dumps(document))

        start = time.perf_counter()
        for _ in range(20 * n):
            key = parse_spec(spec).config_hash
        layer["serve.parse_spec_us"] = (time.perf_counter() - start) / (20 * n) * 1e6

        assert self.daemon is not None
        cache = ResultCache(self.daemon.work_dir / "drive-cache")
        config = parse_spec(spec).config
        start = time.perf_counter()
        for _ in range(2 * n):
            cache.put(key, config, document["result"], seed=spec["seed"])
        layer["serve.cache_put_us"] = (time.perf_counter() - start) / (2 * n) * 1e6
        start = time.perf_counter()
        for _ in range(10 * n):
            cache.get(key)
        layer["serve.cache_get_us"] = (time.perf_counter() - start) / (10 * n) * 1e6

        runner = CampaignRunner(workers=WORKERS)
        try:
            start = time.perf_counter()
            runner.start()
            layer["parallel.pool_start_s"] = time.perf_counter() - start
        finally:
            runner.close()


class ServeCold(ServeWorkload):
    name = "serve_cold"
    work_unit = "sweep points"
    duration_ms = 0.5

    #: Spec-seed offsets: warm-up 0, measured ops 1.., traced ops here.
    TRACED_OFFSET = 500_000

    def __init__(self, seed: int, sim_backend: str, quick: bool) -> None:
        super().__init__(seed, sim_backend, quick)
        self.reference: Optional[list[dict[str, Any]]] = None
        self.job_stats: list[dict[str, Any]] = []

    def setup(self) -> None:
        self.start_daemon()
        self.reference = self.run_job(self.spec(0, self.duration_ms))["result"]["points"]

    def op(self, index: int) -> dict[str, Any]:
        return self.run_job(self.spec(1 + index, self.duration_ms))

    def check(self, index: int, document: dict[str, Any]) -> tuple[bool, float]:
        # The spec seed only makes the spec new to the cache: these
        # fixed-size flows draw nothing from it, so every job must
        # return the reference points.
        points = document["result"]["points"]
        self.job_stats.append(document["result"]["stats"])
        ok = (
            document["state"] == "done"
            and not document["cached"]
            and points == self.reference
        )
        return ok, len(points)

    def after_measured(self) -> None:
        super().after_measured()
        stats = self.job_stats
        layer = self.layer
        layer["parallel.efficiency"] = statistics.median(
            s["task_wall_s_total"] / (s["workers"] * s["campaign_wall_s"])
            for s in stats
        )
        layer["parallel.dispatch_overhead_s"] = statistics.median(
            s["campaign_wall_s"] - s["task_wall_s_total"] / s["workers"] for s in stats
        )
        layer["parallel.retries"] = sum(s["retries_total"] for s in stats)
        layer["parallel.failed"] = sum(s["failed"] for s in stats)

    def stats_digest(self) -> str:
        return digest(self.reference)

    def verify(self) -> list[str]:
        """A served result equals the same spec run in this process."""
        points, _ = sweep_campaign(
            "dcqcn",
            self.grid,
            n_senders=N_SENDERS,
            duration_ps=int(self.duration_ms * MS),
            ecn_threshold_bytes=ECN_THRESHOLD_BYTES,
            seed=self.seed_base,
            sim_backend=self.sim_backend,
            workers=1,
        )
        local = json.loads(json.dumps([dataclasses.asdict(p) for p in points]))
        if local == self.reference:
            return []
        return ["served result equals sweep_campaign(workers=1) in-process"]

    def traced(self, rec: SpanRecorder, op_wall_p50: float) -> tuple[float, list[str]]:
        n_ops = 1 if self.quick else 5
        requests_before = self.daemon_metrics()["repro_serve_http_requests_total"]
        beats = 0

        def count_beat(row: dict[str, Any]) -> None:
            nonlocal beats
            beats += 1

        coverage = []
        for j in range(n_ops):
            rec.op = j
            spec = self.spec(self.TRACED_OFFSET + j, self.duration_ms)
            with rec.span("op") as op_index:
                with rec.span("serve.submit_ack"):
                    job = self.client.submit(spec)
                document = self.client.wait(
                    job["job_id"], timeout_s=60.0, on_heartbeat=count_beat
                )
                replied_unix = time.time()
            submitted, started, finished = (
                document[key]
                for key in ("submitted_unix", "started_unix", "finished_unix")
            )
            rec.add_unix("serve.queue_wait", submitted, started, op_index)
            rec.add_unix("serve.run", started, finished, op_index)
            rec.add_unix("serve.notify", finished, replied_unix, op_index)
            parts = sum(child.duration for child in rec.children(op_index))
            coverage.append(parts / rec.spans[op_index].duration)
        # The second /metrics read counts itself; each op is one submit
        # plus its long-polls.
        requests = (
            self.daemon_metrics()["repro_serve_http_requests_total"]
            - requests_before - 1
        )
        failed = []
        if abs(statistics.median(coverage) - 1.0) > 0.05:
            failed.append("submit_ack+queue_wait+run+notify sum to op wall within 5%")
        if document["result"]["points"] != self.reference:
            failed.append("replay digest equals measured digest")

        layer = self.layer
        layer["serve.submit_ack_ms"] = (
            statistics.median(rec.durations("serve.submit_ack")) * 1e3
        )
        for name in ("queue_wait", "run", "notify"):
            layer[f"serve.{name}_s"] = statistics.median(rec.durations(f"serve.{name}"))
        layer["serve.longpolls_per_job"] = requests / n_ops - 1
        layer["serve.heartbeats_per_job"] = beats / n_ops

        # What sweep_campaign ships to a pool worker per task, and back.
        options = {
            "n_senders": N_SENDERS,
            "size_packets": 10**9,
            "duration_ps": int(self.duration_ms * MS),
            "ecn_threshold_bytes": ECN_THRESHOLD_BYTES,
            "base_params": None,
            "seed": spec["seed"],
            "sim_backend": self.sim_backend,
        }
        layer["parallel.task_pickle_bytes"] = len(
            pickle.dumps(("dcqcn", self.grid[0], options))
        )
        layer["parallel.result_pickle_bytes"] = len(
            pickle.dumps(SweepPoint(**document["result"]["points"][0]))
        )
        self.drives(spec, document)
        return statistics.median(rec.durations("op")), failed


class ServeCached(ServeWorkload):
    name = "serve_cached"
    work_unit = "jobs"
    #: The stored campaigns are short ones: a cached reply costs the
    #: same whatever the campaign cost, and set-up has to run 32 of them.
    duration_ms = 0.05
    #: The daemon keeps every job it has answered, so its memory grows
    #: with the number of ops that fit in the run.  Peak RSS is read when
    #: this many have been answered (or at the end of a shorter run), so
    #: that a faster daemon does not read as a fatter one.
    RSS_AT_OP = 4000

    def __init__(self, seed: int, sim_backend: str, quick: bool) -> None:
        super().__init__(seed, sim_backend, quick)
        self.n_specs = 4 if quick else 32
        self.rng = np.random.default_rng(seed)
        self.stored: list[dict[str, Any]] = []
        self.rss_mb: Optional[float] = None

    def setup(self) -> None:
        self.start_daemon()
        for k in range(self.n_specs):
            self.stored.append(self.run_job(self.spec(k, self.duration_ms))["result"])
        self.op(-1)

    def op(self, index: int) -> tuple[int, dict[str, Any]]:
        k = int(self.rng.integers(self.n_specs))
        return k, self.client.submit(self.spec(k, self.duration_ms))

    def check(self, index: int, payload: tuple[int, dict[str, Any]]) -> tuple[bool, float]:
        k, document = payload
        if index == self.RSS_AT_OP:
            self.rss_mb = super().peak_rss_mb()
        # A cached reply equals its cold reply, wall-clock stats and all.
        ok = document.get("cached") is True and document["result"] == self.stored[k]
        return ok, 1.0

    def peak_rss_mb(self) -> float:
        return self.rss_mb if self.rss_mb is not None else super().peak_rss_mb()

    def stats_digest(self) -> str:
        return digest([result["points"] for result in self.stored])

    def traced(self, rec: SpanRecorder, op_wall_p50: float) -> tuple[float, list[str]]:
        failed = []
        for j in range(20 if self.quick else 200):
            rec.op = j
            with rec.span("op"):
                with rec.span("serve.submit_ack"):
                    payload = self.op(j)
            if not self.check(j, payload)[0]:
                failed.append("replay digest equals measured digest")
        self.layer["serve.submit_ack_ms"] = (
            statistics.median(rec.durations("serve.submit_ack")) * 1e3
        )
        k, document = payload
        self.drives(self.spec(k, self.duration_ms), document)
        return statistics.median(rec.durations("op")), sorted(set(failed))
