"""Tests of the cost ledger itself.

Run with ``pytest benchmarks/ledger -q`` from the repository root (this
directory is outside tier-1's ``testpaths``).
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from . import bootstrap
from .bootstrap import PACKAGE, ROOT, load_catalogue

if "repro" not in sys.modules:
    bootstrap.prepare("python")

from repro.obs.trace import validate_chrome_trace  # noqa: E402

from . import cli, harness, serve  # noqa: E402
from .compare import compare, verdict  # noqa: E402
from .spans import Span, SpanRecorder  # noqa: E402

CATALOGUE = load_catalogue()


def ledger(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", PACKAGE, *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """``--workload all --quick`` once: the set-of-runs file, its runs
    and how long the whole thing took."""
    out = tmp_path_factory.mktemp("ledger") / "quick.json"
    start = time.perf_counter()
    done = ledger("--workload", "all", "--quick", "--seed", "1", "--out", str(out))
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    return out, json.loads(out.read_text())["runs"], elapsed, done.stdout


def test_quick_scale_of_every_workload_fits_in_a_minute(quick_runs):
    _, runs, elapsed, _ = quick_runs
    assert [run["workload"] for run in runs] == list(cli.WORKLOADS)
    assert elapsed < 60.0
    for run in runs:
        assert run["correct"], (run["workload"], run["failed_checks"], run["errors"])
        assert run["env"]["cengine_blocked"]
        assert run["env"]["sim_backend"]["name"] == "python"


def test_emitted_names_equal_the_names_in_benchmark_json(quick_runs):
    _, runs, _, stdout = quick_runs
    assert [w["name"] for w in CATALOGUE["workloads"]] == list(cli.WORKLOADS)
    end_to_end = [metric["name"] for metric in CATALOGUE["end_to_end"]]
    for run in runs:
        assert list(run["end_to_end"]) == end_to_end
    emitted = set().union(*(run["per_layer"] for run in runs))
    assert emitted == {metric["name"] for metric in CATALOGUE["per_layer"]}
    # The driver's line carries every per-layer name on every workload.
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    assert len(lines) == len(runs)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in CATALOGUE["per_layer"]]


def test_replay_reproduces_the_measured_digest_and_accounts_for_its_op(quick_runs):
    out, runs, _, _ = quick_runs
    by_name = {run["workload"]: run for run in runs}
    for run in runs:
        # Replay digest, conservation, span coverage and cross-checks
        # all report through failed_checks.
        assert run["failed_checks"] == []
        trace = out.with_name(f"quick.{run['workload']}.seed1.trace.json")
        validate_chrome_trace(json.loads(trace.read_text()))
    for name in ("pkt_fanin_dcqcn", "pkt_closedloop_dctcp"):
        layer = by_name[name]["per_layer"]
        callbacks = sum(v for k, v in layer.items() if k.endswith("callback_s"))
        assert layer["sim.loop_s"] + callbacks == pytest.approx(layer["sim.run_s"], rel=0.01)
    # Cross-workload isolation.
    fanin = by_name["pkt_fanin_dcqcn"]["per_layer"]
    closed = by_name["pkt_closedloop_dctcp"]["per_layer"]
    assert fanin["net.ecn_marked_pkts"] > 0 and fanin["pswitch.cnps_generated"] > 0
    assert closed["net.ecn_marked_pkts"] == 0 and closed["pswitch.cnps_generated"] == 0
    assert closed["fpga.flows_completed"] > 0 and fanin["fpga.flows_completed"] == 0
    assert "sim.events" not in by_name["fluid_fig10"]["per_layer"]
    assert "sim.events" not in by_name["serve_cached"]["per_layer"]
    cold = by_name["serve_cold"]["per_layer"]
    assert cold["serve.cache_misses"] == cold["harness.ops"]
    cached = by_name["serve_cached"]["per_layer"]
    assert cached["serve.cache_misses"] == 0
    assert cached["serve.cache_hits"] == cached["harness.ops"]


def test_span_self_time_is_duration_minus_what_children_cover():
    rec = SpanRecorder()
    rec.spans = [
        Span("parent", 0.0, 10.0, None, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),    # overlaps a: counted once
        Span("c", 7.0, 12.0, 0, 0),   # runs past the parent: clipped
        Span("grandchild", 1.0, 2.0, 1, 0),
    ]
    assert rec.self_time(0) == pytest.approx(10.0 - (5.0 - 1.0) - (10.0 - 7.0))
    assert rec.self_time(1) == pytest.approx(1.0)
    assert rec.self_time(4) == pytest.approx(1.0)
    with rec.span("outer") as outer:
        with rec.span("inner") as inner:
            time.sleep(0.01)
    assert rec.spans[inner].parent == outer
    assert 0.0 <= rec.self_time(outer) < rec.spans[outer].duration


class FakeWorkload(harness.Workload):
    """Ops that cost nothing: op 1 fails its check, op 2 raises."""

    name = "fake"
    work_unit = "ops"

    def setup(self):
        pass

    def op(self, index):
        if index == 2:
            raise RuntimeError("deliberate")
        return index

    def check(self, index, payload):
        return index != 1, 1.0

    def stats_digest(self):
        return "none"


def test_a_broken_check_lands_in_failed_frac():
    result, _ = harness.run_workload(
        FakeWorkload(0, "python", quick=True),
        seconds=0.0, trace=False, process_t0=time.perf_counter(), import_s=0.0, env={},
    )
    assert (result["attempted"], result["failed"]) == (harness.MIN_OPS, 2)
    assert not result["correct"]
    assert len(result["errors"]) == 2
    line = cli.driver_line(result, CATALOGUE, trace=False)
    assert line["failed"] == 2 and line["correct"] is False


def test_the_daemon_is_reaped_even_when_the_run_dies(monkeypatch):
    seen = {}

    def dying_verify(self):
        seen["pid"] = self.daemon.process.pid
        seen["work_dir"] = self.daemon.work_dir
        raise RuntimeError("deliberate")

    monkeypatch.setattr(serve.ServeCold, "verify", dying_verify)
    workload = serve.ServeCold(1, "python", quick=True)
    with pytest.raises(RuntimeError, match="deliberate"):
        harness.run_workload(
            workload, seconds=0.0, trace=False,
            process_t0=time.perf_counter(), import_s=0.0, env={},
        )
    assert workload.daemon.process is None
    with pytest.raises(ProcessLookupError):
        os.kill(seen["pid"], 0)
    # Its pool workers shared its process group.
    with pytest.raises(ProcessLookupError):
        os.killpg(seen["pid"], 0)
    assert not seen["work_dir"].exists()


def test_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00]
    assert verdict(steady, [1.2, 1.21, 1.19, 1.2], better="lower", bound=0.1)[0] == "regressed"
    assert verdict(steady, [1.05, 1.04, 1.06, 1.05], better="lower", bound=0.1)[0] == "no worse"
    assert verdict(steady, [0.8, 0.81, 0.79, 0.8], better="lower", bound=0.1)[0] == "better"
    assert verdict(steady, [0.8, 0.81, 0.79, 0.8], better="higher", bound=0.1)[0] == "regressed"
    noisy = [0.8, 1.0, 1.2, 1.4]
    assert verdict(noisy, [1.0, 1.1, 1.2, 1.3], better="lower", bound=0.1)[0] == "unresolved"
    assert verdict(noisy, [0.5, 0.6, 0.7, 0.75], better="lower", bound=0.1)[0] == "better"


def test_compare_flags_a_regression_and_a_changed_digest(quick_runs, tmp_path, capsys):
    out, runs, _, _ = quick_runs
    assert compare(str(out), str(out), CATALOGUE) == 0
    assert "identical" in capsys.readouterr().out
    slower = copy.deepcopy(runs)
    slower[0]["end_to_end"]["op_wall_p50_s"] *= 1.5
    slower[1]["stats_digest"] = "0" * 64
    path = tmp_path / "slower.json"
    path.write_text(json.dumps({"schema": 1, "runs": slower}))
    assert compare(str(out), str(path), CATALOGUE) == 1
    text = capsys.readouterr().out
    assert "regressed" in text and "DIFFER: stats_digest" in text


def test_compiled_backend_is_refused_when_not_built():
    if list((ROOT / "src" / "repro" / "sim").glob("_cengine*.so")):
        pytest.skip("the C extension is built here")
    done = ledger("--workload", "pkt_fanin_dcqcn", "--quick", "--sim-backend", "compiled")
    assert done.returncode == 2
    assert "not built" in done.stderr and not done.stdout.strip()


def test_no_result_where_only_the_benchmark_exists(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "ledger", tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = ledger("--workload", "serve_cached", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
