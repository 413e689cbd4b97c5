"""The campaign daemon: spec parsing, result cache, job queue, HTTP API."""

import dataclasses
import json
import logging
import socket
import threading
import time

import pytest

from repro.errors import ConfigError, ReproError
from repro.obs.export import parse_prometheus_text
from repro.obs.manifest import CONFIG_HASH_VERSION
from repro.parallel import CampaignRunner
from repro.serve import app as serve_app
from repro.serve import jobs as serve_jobs
from repro.serve import (
    JobQueue,
    ReproServer,
    ResultCache,
    ServeClient,
    ServeError,
    parse_spec,
)

#: One fast sweep: a single grid point, half a simulated millisecond.
TINY_SWEEP = {
    "kind": "sweep",
    "algorithm": "dcqcn",
    "grid": [{"rate_ai_bps": 1e9}],
    "n_senders": 2,
    "duration_ms": 0.5,
}


class TestParseSpec:
    def test_sweep_defaults_applied(self):
        spec = parse_spec({"kind": "sweep", "algorithm": "dcqcn"})
        assert spec.kind == "sweep"
        assert spec.config["n_senders"] == 3
        assert spec.config["grid"] == [{}]
        assert spec.n_tasks == 1
        assert "sweep dcqcn" in spec.describe()

    def test_fluid_defaults_applied(self):
        spec = parse_spec({"kind": "fluid", "algorithms": ["dctcp", "ideal"]})
        assert spec.config["workload"] == "websearch"
        assert "backend" not in spec.config
        assert spec.n_tasks == 2

    def test_seed_replicates_refused(self):
        # A sweep point draws nothing from its seed: one task per point.
        for seeds in (None, 1):
            spec = parse_spec(
                {"kind": "sweep", "algorithm": "dctcp", "grid": [{}, {}], "seeds": seeds}
            )
            assert spec.n_tasks == 2
        for seeds in (0, 2, 3):
            with pytest.raises(ConfigError, match="'seeds' must be null or 1"):
                parse_spec({"kind": "sweep", "algorithm": "dctcp", "seeds": seeds})

    @pytest.mark.parametrize(
        "payload,match",
        [
            ("not a dict", "JSON object"),
            ({}, "'kind'"),
            ({"kind": "nope"}, "'kind'"),
            ({"kind": "sweep"}, "algorithm"),
            ({"kind": "sweep", "algorithm": "dcqcn", "bogus": 1}, "unknown spec field"),
            ({"kind": "sweep", "algorithm": "dcqcn", "grid": []}, "grid"),
            ({"kind": "sweep", "algorithm": "dcqcn", "n_senders": 1}, "n_senders"),
            ({"kind": "sweep", "algorithm": "dcqcn", "duration_ms": 0}, "duration_ms"),
            ({"kind": "sweep", "algorithm": "dcqcn", "seed": True}, "seed"),
            ({"kind": "fluid", "algorithms": ["martian"]}, "unknown fluid profile"),
            ({"kind": "fluid", "algorithms": ["dctcp"], "workload": "x"}, "workload"),
            ({"kind": "fluid", "algorithms": ["dctcp"], "backend": "gpu"}, "backend"),
            (
                {"kind": "sweep", "algorithm": "dcqcn", "grid": [{}, {"nope": 1}]},
                "'grid' entry 1: 'dcqcn' rejects parameters",
            ),
        ],
    )
    def test_bad_specs_rejected(self, payload, match):
        with pytest.raises(ConfigError, match=match):
            parse_spec(payload)

    def test_hash_invariant_to_key_order_and_spelled_defaults(self):
        """The cache-dedup contract: key order and explicitly spelling a
        default must not change the canonical hash."""
        terse = parse_spec({"kind": "sweep", "algorithm": "dcqcn"})
        verbose = parse_spec(
            {
                "seed": 0,
                "duration_ms": 6.0,
                "algorithm": "dcqcn",
                "n_senders": 3,
                "kind": "sweep",
                "grid": [{}],
                "ecn_threshold_bytes": 84_000,
                "seeds": None,
            }
        )
        assert terse.config_hash == verbose.config_hash
        changed = parse_spec({"kind": "sweep", "algorithm": "dcqcn", "seed": 1})
        assert changed.config_hash != terse.config_hash

    def test_grid_entry_key_order_invariant(self):
        left = parse_spec(
            {"kind": "sweep", "algorithm": "dcqcn",
             "grid": [{"g": 0.0625, "rate_ai_bps": 1e9}]}
        )
        right = parse_spec(
            {"kind": "sweep", "algorithm": "dcqcn",
             "grid": [{"rate_ai_bps": 1e9, "g": 0.0625}]}
        )
        assert left.config_hash == right.config_hash


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = parse_spec(TINY_SWEEP)
        assert cache.get(spec.config_hash) is None  # miss
        cache.put(spec.config_hash, spec.config, {"points": [1, 2]}, seed=0)
        entry = cache.get(spec.config_hash)
        assert entry["result"] == {"points": [1, 2]}
        assert entry["config_hash"] == spec.config_hash
        assert entry["config_hash_version"] == CONFIG_HASH_VERSION
        assert entry["manifest"]["config_hash"] == spec.config_hash
        assert len(cache) == 1
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = parse_spec(TINY_SWEEP)
        cache.put(spec.config_hash, spec.config, {"ok": True}, seed=0)
        [entry_path] = (tmp_path / "cache").glob("*/*.json")
        entry_path.write_text("{ this is not json")
        assert cache.get(spec.config_hash) is None

    def test_mismatched_hash_is_a_miss(self, tmp_path):
        """An entry whose recorded hash disagrees with its filename key
        (tampering, or a hash-version migration) must not be served."""
        cache = ResultCache(tmp_path / "cache")
        spec = parse_spec(TINY_SWEEP)
        cache.put(spec.config_hash, spec.config, {"ok": True}, seed=0)
        [entry_path] = (tmp_path / "cache").glob("*/*.json")
        entry = json.loads(entry_path.read_text())
        entry["config_hash"] = "0" * 64
        entry_path.write_text(json.dumps(entry))
        assert cache.get(spec.config_hash) is None


class TestResultCacheEviction:
    @staticmethod
    def _key(i: int) -> str:
        return f"{i:02x}" + "ab" * 31

    def test_max_entries_prunes_oldest(self, tmp_path):
        import time

        cache = ResultCache(tmp_path / "cache", max_entries=3)
        for i in range(5):
            cache.put(self._key(i), {"i": i}, {"points": [i]})
            time.sleep(0.02)  # distinct mtimes on coarse-clock kernels
        assert len(cache) == 3
        assert cache.evictions == 2
        assert cache.get(self._key(0)) is None
        assert cache.get(self._key(1)) is None
        assert cache.get(self._key(4)) is not None
        assert cache.stats()["evictions"] == 2

    def test_hit_refreshes_lru_order(self, tmp_path):
        import time

        cache = ResultCache(tmp_path / "cache", max_entries=2)
        cache.put(self._key(0), {}, {"points": [0]})
        time.sleep(0.02)
        cache.put(self._key(1), {}, {"points": [1]})
        time.sleep(0.02)
        assert cache.get(self._key(0)) is not None  # 0 becomes most recent
        time.sleep(0.02)
        cache.put(self._key(2), {}, {"points": [2]})
        assert cache.get(self._key(0)) is not None  # survived the prune
        assert cache.get(self._key(1)) is None      # the LRU victim

    def test_ttl_expires_entries(self, tmp_path):
        import time

        cache = ResultCache(tmp_path / "cache", ttl_s=0.05)
        cache.put(self._key(0), {}, {"points": []})
        assert cache.get(self._key(0)) is not None
        time.sleep(0.1)
        assert cache.get(self._key(0)) is None  # expired: evicted + miss
        assert cache.evictions == 1
        assert len(cache) == 0

    def test_unbounded_by_default(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for i in range(5):
            cache.put(self._key(i), {"i": i}, {"points": [i]})
        assert len(cache) == 5
        assert cache.evictions == 0

    def test_entry_count_reads_no_listing(self, tmp_path, monkeypatch):
        """``len()`` / ``stats()`` are a kept count, not a directory scan:
        they stay right across a store, an overwrite, a TTL eviction and a
        prune while ``Path.glob`` raises during every read."""
        import time
        from pathlib import Path

        ResultCache(tmp_path / "cache").put(self._key(9), {}, {"points": []})
        cache = ResultCache(tmp_path / "cache", max_entries=3, ttl_s=0.2)

        def entries():
            with monkeypatch.context() as patch:
                patch.setattr(Path, "glob", lambda *a, **k: 1 / 0)
                assert cache.stats()["entries"] == len(cache)
                return len(cache)

        assert entries() == 1                     # counted at construction
        cache.put(self._key(0), {}, {"points": [0]})
        assert entries() == 2
        cache.put(self._key(0), {}, {"points": [0, 0]})
        assert entries() == 2                     # overwrite: same entry
        time.sleep(0.25)
        assert cache.get(self._key(0)) is None    # TTL eviction
        assert entries() == 1
        for i in range(1, 5):
            cache.put(self._key(i), {}, {"points": [i]})
            time.sleep(0.02)
        assert entries() == 3                     # pruned to max_entries
        assert cache.evictions == 3

    def test_limit_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path / "cache", max_entries=0)
        with pytest.raises(ValueError):
            ResultCache(tmp_path / "cache", ttl_s=0)

    def test_server_exposes_eviction_metric(self, tmp_path):
        from repro.serve import ReproServer

        server = ReproServer(
            port=0,
            workers=1,
            cache_dir=tmp_path / "cache",
            cache_max_entries=1,
        )
        try:
            server.cache.put(self._key(0), {}, {"points": []})
            server.cache.put(self._key(1), {}, {"points": []})
            metrics = {
                (s.name): s.value
                for s in server.registry.collect()
            }
            assert metrics["repro_serve_cache_evictions_total"] == 1
            assert server.cache.stats()["evictions"] == 1
        finally:
            # The HTTP/queue side never started; only the pool needs
            # shutting down.
            server.queue.runner.close()


class TestJobQueue:
    def _wait_done(self, queue, job_id, timeout_s=60.0):
        job, _ = queue.wait(job_id, timeout_s=timeout_s)
        while job is not None and not job.finished:
            job, _ = queue.wait(job_id, timeout_s=timeout_s)
        return job

    def test_run_then_cache_hit(self, tmp_path):
        events = []
        queue = JobQueue(
            CampaignRunner(workers=1),
            ResultCache(tmp_path / "cache"),
            on_event=lambda event, job: events.append(event),
        )
        queue.start()
        try:
            spec = parse_spec(TINY_SWEEP)
            job = queue.submit(spec)
            assert job.state in ("queued", "running")
            job = self._wait_done(queue, job.id)
            assert job.state == "done"
            assert not job.cached
            assert job.progress() == 1.0
            assert len(job.result["points"]) == 1
            assert job.beats, "the sweep should have streamed heartbeats"

            # Identical spec again: served from cache, instantly done.
            again = queue.submit(parse_spec(dict(TINY_SWEEP)))
            assert again.id != job.id
            assert again.cached
            assert again.state == "done"
            assert again.result == job.result
            assert events.count("accepted") == 1
            assert events.count("cache_hit") == 1
        finally:
            queue.close()

    def test_journal_and_served_rows_agree(self, tmp_path):
        """A beat is one row: the campaign journal records what the
        daemon serves, under the same keys."""
        queue = JobQueue(
            CampaignRunner(workers=1, results_dir=tmp_path / "results"),
            ResultCache(tmp_path / "cache"),
        )
        queue.start()
        try:
            job = self._wait_done(queue, queue.submit(parse_spec(TINY_SWEEP)).id)
            assert job.state == "done"
        finally:
            queue.close()
        journal = json.loads((tmp_path / "results" / "campaign.json").read_text())
        journaled = journal["heartbeats"]
        assert journaled and len(journaled) == len(job.beats)
        for written, served in zip(journaled, job.beats):
            assert written.keys() == served.keys()
            assert "progress" in written
            assert {**written, "recv_unix": 0} == {**served, "recv_unix": 0}

    def test_submit_while_inflight_shares_the_job(self, tmp_path):
        queue = JobQueue(CampaignRunner(workers=1), ResultCache(tmp_path / "c"))
        queue.start()
        try:
            first = queue.submit(parse_spec(TINY_SWEEP))
            second = queue.submit(parse_spec(TINY_SWEEP))
            # Either coalesced onto the in-flight job, or (if the first
            # finished in between) satisfied from its cached result.
            assert second.id == first.id or second.cached
            assert self._wait_done(queue, first.id).state == "done"
        finally:
            queue.close()

    def test_queue_full_rejected(self, tmp_path):
        # Never started: nothing drains, so the second distinct submit
        # overflows a queue of depth 1.
        queue = JobQueue(
            CampaignRunner(workers=1), ResultCache(tmp_path / "c"), max_queued=1
        )
        queue.submit(parse_spec(TINY_SWEEP))
        with pytest.raises(ReproError, match="full"):
            queue.submit(parse_spec({**TINY_SWEEP, "seed": 7}))
        assert queue.queue_depth() == 1

    def test_failed_job_reports_error(self, tmp_path):
        queue = JobQueue(CampaignRunner(workers=1), ResultCache(tmp_path / "c"))
        queue.start()
        try:
            # parse_spec would reject this name; a hand-built spec stands
            # in for a campaign that validates and then dies in a worker.
            valid = parse_spec(TINY_SWEEP)
            job = queue.submit(
                dataclasses.replace(
                    valid, config={**valid.config, "algorithm": "no-such-algorithm"}
                )
            )
            job = self._wait_done(queue, job.id)
            assert job.state == "failed"
            assert "no-such-algorithm" in job.error
            # A failed run must NOT poison the cache.
            assert queue.cache.get(job.config_hash) is None
        finally:
            queue.close()


class TestJobTableBounded:
    """The job table keeps live jobs plus the most recent finished ones."""

    def _prefilled(self, tmp_path, n):
        """A never-started queue whose cache already answers ``n`` specs."""
        cache = ResultCache(tmp_path / "c")
        specs = [parse_spec({**TINY_SWEEP, "seed": seed}) for seed in range(n)]
        for spec in specs:
            cache.put(spec.config_hash, spec.config, {"kind": "sweep", "points": []})
        return JobQueue(CampaignRunner(workers=1), cache), specs

    def test_oldest_finished_jobs_are_dropped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(serve_jobs, "MAX_FINISHED_JOBS", 3)
        queue, specs = self._prefilled(tmp_path, 5)
        ids = [queue.submit(spec).id for spec in specs]
        assert [row["job_id"] for row in queue.list_jobs()] == ids[2:]
        assert queue.get(ids[0]) is None and queue.get(ids[1]) is None
        assert queue.wait(ids[0], timeout_s=0.1) == (None, 0)
        assert queue.get(ids[4]).state == "done"

    def test_queued_jobs_outlive_any_number_of_finished_ones(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(serve_jobs, "MAX_FINISHED_JOBS", 2)
        queue, specs = self._prefilled(tmp_path, 4)
        waiting = queue.submit(parse_spec({**TINY_SWEEP, "seed": 99}))
        for spec in specs:
            queue.submit(spec)
        assert queue.get(waiting.id).state == "queued"
        assert queue.queue_depth() == 1
        assert len(queue.list_jobs()) == 3
        # Still coalescing onto the live job, not onto a dropped record.
        assert queue.submit(parse_spec({**TINY_SWEEP, "seed": 99})) is waiting

    def test_running_count_follows_the_dispatcher(self, tmp_path):
        seen = {}
        queue = JobQueue(
            CampaignRunner(workers=1),
            ResultCache(tmp_path / "c"),
            on_event=lambda event, job: seen.setdefault(event, queue.running_count()),
        )
        queue.start()
        try:
            job = queue.submit(parse_spec(TINY_SWEEP))
            while not job.finished:
                job, _ = queue.wait(job.id, timeout_s=60.0)
            assert seen["accepted"] == 0
            assert seen["started"] == 1
            assert seen["finished"] == 0 == queue.running_count()
        finally:
            queue.close()

    def test_dropped_job_is_a_404(self, tmp_path, monkeypatch):
        monkeypatch.setattr(serve_jobs, "MAX_FINISHED_JOBS", 1)
        server = ReproServer(port=0, workers=1, cache_dir=tmp_path / "cache")
        for seed in (1, 2):
            spec = parse_spec({**TINY_SWEEP, "seed": seed})
            server.cache.put(
                spec.config_hash, spec.config, {"kind": "sweep", "points": []}
            )
        server.start_background()
        try:
            client = ServeClient(server.host, server.port)
            first = client.submit({**TINY_SWEEP, "seed": 1})
            second = client.submit({**TINY_SWEEP, "seed": 2})
            assert first["cached"] and second["cached"]
            assert client.job(second["job_id"])["state"] == "done"
            with pytest.raises(ServeError) as dropped:
                client.job(first["job_id"])
            assert dropped.value.status == 404
            assert client.health()["jobs"] == 1
        finally:
            server.close()


class TestServeHttp:
    @pytest.fixture()
    def server(self, tmp_path):
        server = ReproServer(port=0, workers=1, cache_dir=tmp_path / "cache")
        server.start_background()
        yield server
        server.close()

    def test_end_to_end_submit_poll_and_cached_resubmit(self, server):
        client = ServeClient(server.host, server.port)
        assert client.health()["ok"] is True

        submitted = client.submit(TINY_SWEEP)
        assert submitted["state"] in ("queued", "running", "done")
        beats = []
        final = client.wait(
            submitted["job_id"], timeout_s=120.0, on_heartbeat=beats.append
        )
        assert final["state"] == "done"
        assert final["cached"] is False
        assert len(final["result"]["points"]) == 1
        assert beats and beats[-1]["final"]
        # Cursor-windowed long-polling must deliver each beat exactly once.
        keys = [(b["task_id"], b["sim_now_ps"], b["final"]) for b in beats]
        assert len(keys) == len(set(keys))

        # Same campaign, permuted keys: instant cache hit, result inline.
        resubmitted = client.submit(dict(reversed(list(TINY_SWEEP.items()))))
        assert resubmitted["state"] == "done"
        assert resubmitted["cached"] is True
        assert resubmitted["result"] == final["result"]
        assert resubmitted["job_id"] != final["job_id"]

        assert [job["job_id"] for job in client.jobs()] == [
            final["job_id"],
            resubmitted["job_id"],
        ]

        samples = {
            name: value
            for name, _, value in parse_prometheus_text(client.metrics())
        }
        assert samples["repro_serve_jobs_accepted_total"] == 2
        assert samples["repro_serve_jobs_completed_total"] == 1
        assert samples["repro_serve_cache_hits_total"] == 1
        assert samples["repro_serve_cache_misses_total"] == 1
        assert samples["repro_serve_cache_entries"] == 1
        assert samples["repro_serve_queue_depth"] == 0

    def test_error_surfaces(self, server):
        client = ServeClient(server.host, server.port)
        with pytest.raises(ServeError) as bad_spec:
            client.submit({"kind": "sweep"})  # missing algorithm
        assert bad_spec.value.status == 400
        assert "algorithm" in str(bad_spec.value)

        with pytest.raises(ServeError) as bad_json:
            client.submit({"kind": "sweep", "algorithm": "dcqcn", "bogus": 1})
        assert bad_json.value.status == 400

        with pytest.raises(ServeError) as bad_params:
            client.submit({"kind": "sweep", "algorithm": "dcqcn", "grid": [{"nope": 1}]})
        assert bad_params.value.status == 400
        assert "'grid' entry 0" in str(bad_params.value)

        with pytest.raises(ServeError) as missing:
            client.job("job-999999")
        assert missing.value.status == 404


def _raw_request(server, raw: bytes) -> tuple[int, dict]:
    """Send ``raw`` bytes as-is; return the status and the JSON body."""
    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        sock.sendall(raw)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestMalformedRequests:
    """Bad numbers from the wire are the client's fault: 400, never 500."""

    @pytest.fixture()
    def server(self, tmp_path):
        server = ReproServer(port=0, workers=1, cache_dir=tmp_path / "cache")
        spec = parse_spec(TINY_SWEEP)
        server.cache.put(spec.config_hash, spec.config, {"kind": "sweep", "points": []})
        server.start_background()
        yield server
        server.close()

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length(self, server, length):
        status, body = _raw_request(
            server, f"POST /jobs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode()
        )
        assert status == 400
        assert "Content-Length" in body["error"]

    @pytest.mark.parametrize(
        "query", ["timeout_s=abc", "timeout_s=nan", "cursor=abc", "cursor=-1"]
    )
    def test_bad_long_poll_numbers(self, server, query):
        job_id = ServeClient(server.host, server.port).submit(TINY_SWEEP)["job_id"]
        status, body = _raw_request(
            server, f"GET /jobs/{job_id}?wait=1&{query} HTTP/1.1\r\n\r\n".encode()
        )
        assert status == 400
        assert query.split("=")[0] in body["error"]


class TestBoundedRequestHead:
    """Oversized or stalled requests cost the daemon a bounded amount of
    work and time, and it keeps answering afterwards."""

    @pytest.fixture()
    def server(self, tmp_path, monkeypatch):
        monkeypatch.setattr(serve_app, "HEAD_TIMEOUT_S", 0.5)
        server = ReproServer(port=0, workers=1, cache_dir=tmp_path / "cache")
        server.start_background()
        yield server
        assert ServeClient(server.host, server.port).health()["ok"] is True
        server.close()

    def test_body_over_the_cap_is_413(self, server):
        status, body = _raw_request(
            server,
            f"POST /jobs HTTP/1.1\r\nContent-Length: {serve_app.MAX_BODY_BYTES + 1}"
            "\r\n\r\n".encode(),
        )
        assert status == 413
        assert "too large" in body["error"]

    def test_too_many_header_lines_is_431(self, server):
        headers = "".join(f"X-H{i}: {i}\r\n" for i in range(10_000))
        raw = f"GET /healthz HTTP/1.1\r\n{headers}\r\n".encode()
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            # The daemon answers after MAX_HEADER_LINES lines and closes,
            # so the rest of the request may never be read: send it from
            # a thread and tolerate the reset.
            def send() -> None:
                try:
                    sock.sendall(raw)
                except OSError:
                    pass

            sender = threading.Thread(target=send)
            sender.start()
            chunks = []
            try:
                while chunk := sock.recv(65536):
                    chunks.append(chunk)
            except ConnectionResetError:
                pass
            sender.join(timeout=10)
            assert not sender.is_alive()
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        assert int(head.split()[1]) == 431
        assert "header" in json.loads(body)["error"]

    def test_client_stalled_mid_headers_is_dropped(self, server):
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
            start = time.monotonic()
            assert sock.recv(65536) == b""
            assert time.monotonic() - start < 5.0


def _read_response(sock) -> tuple[int, dict[str, str], bytes]:
    """Read exactly one response off ``sock``, framed by its
    ``Content-Length``; returns the status, the headers and the body."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed mid-head after {data!r}"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in lines)
    }
    while len(body) < int(headers["content-length"]):
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        body += chunk
    return int(status_line.split()[1]), headers, body


def _connections_opened(client) -> float:
    samples = {name: value for name, _, value in parse_prometheus_text(client.metrics())}
    return samples["repro_serve_http_connections_total"]


class TestKeepAlive:
    """One connection carries many requests; the daemon closes it only
    after an error, an HTTP/1.0 request, ``Connection: close``, a body it
    cannot frame, or an idle spell of ``HEAD_TIMEOUT_S``."""

    @pytest.fixture()
    def server(self, tmp_path):
        server = ReproServer(port=0, workers=1, cache_dir=tmp_path / "cache")
        server.start_background()
        yield server
        server.close()

    def test_two_requests_on_one_socket(self, server):
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            for _ in range(2):
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                status, headers, body = _read_response(sock)
                assert status == 200
                assert "connection" not in headers
                assert json.loads(body)["ok"] is True

    @pytest.mark.parametrize(
        "raw, status",
        [
            (b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 200),
            (b"GET /healthz HTTP/1.0\r\n\r\n", 200),
            (b"GET /nowhere HTTP/1.1\r\n\r\n", 404),
            (b"DELETE /jobs/job-000001 HTTP/1.1\r\n\r\n", 405),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 400),
            (b"NONSENSE\r\n\r\n", 400),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n", 413),
            (
                b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"2\r\n{}\r\n0\r\n\r\n",
                501,
            ),
            (
                b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n"
                b"Content-Length: 3\r\n\r\n{}",
                400,
            ),
        ],
    )
    def test_close_rules(self, server, raw, status):
        # The socket timeout is well under HEAD_TIMEOUT_S: EOF here is
        # the daemon's decision, not its idle timeout.
        with socket.create_connection((server.host, server.port), timeout=2) as sock:
            sock.sendall(raw)
            got, headers, _ = _read_response(sock)
            assert got == status
            assert headers["connection"] == "close"
            assert sock.recv(65536) == b""

    def test_idle_client_reconnects(self, server, monkeypatch):
        monkeypatch.setattr(serve_app, "HEAD_TIMEOUT_S", 0.5)
        client = ServeClient(server.host, server.port)
        assert client.health()["ok"] is True
        time.sleep(1.0)  # the daemon drops the idle connection
        assert client.health()["ok"] is True
        assert _connections_opened(client) == 2
        client.close()

    def test_one_client_is_one_connection(self, server):
        observer = ServeClient(server.host, server.port)
        before = _connections_opened(observer)
        client = ServeClient(server.host, server.port)
        for _ in range(10):
            client.health()
        assert _connections_opened(observer) - before == 1
        client.close()
        observer.close()

    def test_close_with_an_idle_connection_open(self, tmp_path, caplog):
        server = ReproServer(port=0, workers=1, cache_dir=tmp_path / "cache")
        server.start_background()
        client = ServeClient(server.host, server.port)
        assert client.health()["ok"] is True
        start = time.monotonic()
        server.close()
        assert time.monotonic() - start < 2.0
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
        client.close()
