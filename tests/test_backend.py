"""Engine determinism and the backend-name check.

The C extension is used exactly when it is built (``repro.sim.backend``):
its import decides both the run loop and the datapath.  Both engines
must produce *bit-identical* event streams — same pop order, same clock
stores, same counters — so building the extension can change wall-clock
speed but never a result.  Each identity test below runs its scenario in
this process, on whichever engine it loaded, and compares it with the
same scenario run in a subprocess whose import of the extension is
blocked (the pure-Python engine).  On a build without the extension
both sides run Python; the literal expectations of
``test_python_schedule_reference`` pin that case on their own.

A backend *name* survives only as a check: ``None``/``"auto"`` accept
the loaded engine, naming the other one raises ``ConfigError``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.core import ControlPlane, TestConfig
from repro.core.sweep import run_sweep_point, sweep_campaign
from repro.errors import ConfigError
from repro.obs.manifest import environment
from repro.serve.spec import parse_spec
from repro.sim import Simulator
from repro.sim.backend import ENGINE, check, compiled_available, stamp
from repro.units import MS

ROOT = Path(__file__).resolve().parents[1]

#: The engine this process did not load.
OTHER = "python" if ENGINE == "compiled" else "compiled"


# -- scenarios: each returns JSON-able data, here and in the subprocess --------


def scripted_schedule(profiled: bool = False) -> list:
    """A scenario exercising every scheduling shape: fast entries, ties,
    handles, re-arm, cancel, stop — returns the observed event stream."""
    sim = Simulator()
    if profiled:
        sim.enable_profiling()
    log: list = []

    def note(tag):
        log.append([sim.now, tag])

    def spawn(tag, delay):
        note(tag)
        if delay:
            sim.after(delay, spawn, tag + "'", 0)

    sim.at(5, note, "a")
    sim.at(5, note, "b")          # same-timestamp batch
    sim.at(2, spawn, "c", 3)      # schedules c' into the a/b batch
    sim.call_now(note, "now")
    handle = sim.schedule_handle(4, note, "h")
    sim.rearm(handle, 7)          # supersedes the t=4 entry
    cancelled = sim.schedule_handle(6, note, "never")
    cancelled.cancel()
    sim.after(9, sim.stop)
    sim.after(11, note, "past-stop")
    sim.run(until_ps=50)
    log.append(["events", sim.events_executed])
    sim.run(until_ps=50)          # resume after stop(): drains the rest
    log.append(["events", sim.events_executed])
    return log


def sweep_point() -> dict:
    """Full packet model: FCTs, throughput, fairness, queue peaks."""
    return dataclasses.asdict(run_sweep_point("dctcp", {}, duration_ps=MS))


def counters() -> list:
    cp = ControlPlane()
    cp.deploy(TestConfig(cc_algorithm="dctcp", n_test_ports=3, seed=1))
    cp.wire_loopback_fabric()
    cp.start_flows(size_packets=10**9, pattern="fan_in")
    cp.run(duration_ps=MS)
    return [cp.read_measurements(), cp.sim.events_executed]


def campaign(workers: int) -> list:
    points, _ = sweep_campaign("dctcp", [{}, {"g": 0.0625}], duration_ps=MS,
                               workers=workers)
    return [dataclasses.asdict(point) for point in points]


def scenarios(workers: int) -> dict:
    return {
        "schedule": scripted_schedule(),
        "profiled": scripted_schedule(profiled=True),
        "sweep_point": sweep_point(),
        "counters": counters(),
        "campaign": campaign(workers),
    }


@pytest.fixture(scope="module")
def pure_python() -> dict:
    """Every scenario, run once in a subprocess with the extension
    blocked (and serially, so the campaign also crosses worker counts)."""
    script = (
        "import json, sys\n"
        "sys.modules['repro.sim._cengine'] = None\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT)!r}]\n"
        "from repro.sim.backend import ENGINE\n"
        "assert ENGINE == 'python', ENGINE\n"
        "from tests.test_backend import scenarios\n"
        "print(json.dumps(scenarios(workers=1)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=300,
    )
    return json.loads(proc.stdout)


def here(value):
    """``value`` as it reads after the subprocess's JSON round trip."""
    return json.loads(json.dumps(value))


class TestBitIdentity:
    def test_python_schedule_reference(self):
        """The scripted stream against literal expectations, on the
        loaded engine, so a dual regression in both engines cannot
        cancel out."""
        assert scripted_schedule() == [
            [0, "now"],
            [2, "c"],
            [5, "a"],
            [5, "b"],
            [5, "c'"],
            [7, "h"],
            ["events", 7],        # 6 notes/spawns + stop at t=9
            [11, "past-stop"],
            ["events", 8],
        ]

    def test_schedule_streams_identical(self, pure_python):
        assert here(scripted_schedule()) == pure_python["schedule"]

    def test_profiled_run_identical(self, pure_python):
        """The dispatch hook (profiler) must not perturb either loop."""
        assert here(scripted_schedule(profiled=True)) == pure_python["profiled"]
        assert pure_python["profiled"] == pure_python["schedule"]

    def test_counters_identical(self, pure_python):
        assert here(counters()) == pure_python["counters"]


class TestCampaignDeterminism:
    def test_workers_bit_identical(self):
        """Sharding a campaign across a pool must not change any point."""
        assert campaign(workers=1) == campaign(workers=2)

    def test_workers_and_engine_bit_identical(self, pure_python):
        """Two workers on the loaded engine, one on pure Python: one answer."""
        assert here(campaign(workers=2)) == pure_python["campaign"]


class TestPurePythonDatapathIdentity:
    def test_sweep_point_identical_without_extension(self, pure_python):
        """The C run loop, port and queue must not change a single
        measurement of a full packet-level sweep point."""
        assert here(sweep_point()) == pure_python["sweep_point"]


class TestResolution:
    """A backend name is a check on the loaded engine, nothing more."""

    def test_backend_names(self):
        """The three spellings stay accepted words: each either passes
        or names the engine that is not loaded; nothing else is known."""
        for name in ("auto", "python", "compiled"):
            try:
                check(name)
            except ConfigError as exc:
                assert name == OTHER and "runs the" in str(exc)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError, match="unknown sim backend"):
            check("turbo")

    def test_simulator_rejects_unknown_backend(self):
        with pytest.raises(ConfigError):
            Simulator(backend="turbo")

    def test_explicit_python(self):
        if ENGINE == "python":
            assert Simulator(backend="python").run() == 0
        else:
            with pytest.raises(ConfigError, match="runs the 'compiled' engine"):
                Simulator(backend="python")

    def test_engine_follows_the_build(self):
        assert ENGINE == ("compiled" if compiled_available() else "python")
        from repro.net.device import Port
        from repro.net.queue import DropTailQueue

        compiled_classes = [
            cls.__name__ for cls in (Port, DropTailQueue)
            for base in cls.__mro__ if base.__module__ == "repro.sim._cengine"
        ]
        expected = ["Port", "DropTailQueue"] if compiled_available() else []
        assert compiled_classes == expected

    def test_only_the_backend_module_imports_the_extension(self):
        importers = sorted(
            str(path.relative_to(ROOT / "src"))
            for path in (ROOT / "src" / "repro").rglob("*.py")
            if "_cengine" in path.read_text()
        )
        assert importers == ["repro/sim/backend.py"]

    def test_argument_beats_environment(self, monkeypatch):
        """No environment variable has a say; the argument is checked."""
        monkeypatch.setenv("REPRO_SIM_BACKEND", OTHER)
        assert Simulator(backend=ENGINE).run() == 0
        with pytest.raises(ConfigError):
            Simulator(backend=OTHER)

    def test_environment_is_not_consulted(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", OTHER)
        assert Simulator().run() == 0
        assert stamp() == {"requested": "auto", "name": ENGINE}

    def test_empty_environment_means_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "")
        assert stamp()["requested"] == "auto"
        assert Simulator().run() == 0


class TestFallback:
    """There is none: a name that disagrees with the build raises."""

    def test_auto_fallback_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in (None, "auto"):
                sim = Simulator(backend=name)
                fired = []
                sim.after(10, fired.append, 1)
                sim.run(until_ps=20)
                assert fired == [1]
                assert stamp(name)["name"] == ENGINE

    def test_naming_the_engine_not_loaded_raises(self):
        match = f"runs the {ENGINE!r} engine"
        with pytest.raises(ConfigError, match=match):
            Simulator(backend=OTHER)
        with pytest.raises(ConfigError, match=match):
            ControlPlane(sim_backend=OTHER)
        with pytest.raises(ConfigError, match=match):
            run_sweep_point("dctcp", {}, duration_ps=MS, sim_backend=OTHER)
        with pytest.raises(ConfigError, match="'sim_backend'"):
            parse_spec({"kind": "sweep", "algorithm": "dctcp", "sim_backend": OTHER})

    def test_stamp_records_request_and_engine(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # stamping never warns
            assert stamp(OTHER) == {"requested": OTHER, "name": ENGINE}

    def test_stamp_never_raises_on_unknown(self):
        assert stamp("turbo") == {"requested": "turbo", "name": ENGINE}

    def test_manifest_environment_stamps_backend(self):
        env = environment()
        assert env["sim_backend"] == {"requested": "auto", "name": ENGINE}


class TestThreading:
    def test_control_plane_rejects_sim_and_backend(self):
        with pytest.raises(ConfigError, match="not both"):
            ControlPlane(sim=Simulator(), sim_backend=ENGINE)

    def test_control_plane_backend_kwarg(self):
        cp = ControlPlane(sim_backend=ENGINE)
        cp.deploy(TestConfig(cc_algorithm="dctcp", n_test_ports=2, seed=1))
        assert cp.sim.run() >= 0

    def test_cli_has_no_sim_backend_option(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        for command in ("run", "sweep"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--sim-backend", ENGINE])
        assert "--sim-backend" in capsys.readouterr().err

    def test_spec_backend_normalizes_into_hash(self):
        omitted = parse_spec({"kind": "sweep", "algorithm": "dctcp"})
        spelled = parse_spec(
            {"kind": "sweep", "algorithm": "dctcp", "sim_backend": "auto"}
        )
        named = parse_spec(
            {"kind": "sweep", "algorithm": "dctcp", "sim_backend": ENGINE}
        )
        assert omitted.config["sim_backend"] == "auto"
        assert omitted.config_hash == spelled.config_hash
        assert omitted.config_hash != named.config_hash

    def test_spec_rejects_unknown_backend(self):
        with pytest.raises(ConfigError, match="sim_backend"):
            parse_spec(
                {"kind": "sweep", "algorithm": "dctcp", "sim_backend": "turbo"}
            )


_REFCOUNT_PROBE = """
import gc, json, resource
from repro.net.device import Device
from repro.net.link import Link
from repro.net.packet import ECT, Packet
from repro.net.queue import EcnQueue
from repro.sim import Simulator


class Sink(Device):
    def receive(self, packet, port):
        pass


def one_simulator():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    pa = a.add_port(queue=EcnQueue(2**20, 8_192))
    pb = b.add_port(queue=EcnQueue(2**20, 8_192))
    Link(pa, pb, delay_ps=1_000)
    for i in range(50):
        (pa if i % 2 else pb).send(Packet("data", 1, 2, 1024, psn=i, ecn=ECT))
    sim.after_handle(10, sim.stop).cancel()
    sim.run()
    return pa.queue.ecn_marked_packets + pb.queue.ecn_marked_packets


batches = []
for _ in range(4):
    marked = sum(one_simulator() for _ in range(2_500))
    gc.collect()
    batches.append((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    len(gc.get_objects()), marked))
print(json.dumps(batches))
"""


@pytest.mark.skipif(not compiled_available(), reason="the C extension is not built")
class TestExtensionRefcounts:
    def test_rss_and_objects_stay_flat(self):
        """10^4 simulators through the C loop, ports and queues (ECN
        marks, a cancelled handle) in four batches: a reference the C
        code forgets to drop shows as growth from batch to batch."""
        proc = subprocess.run(
            [sys.executable, "-c", _REFCOUNT_PROBE],
            capture_output=True, text=True, check=True, cwd=ROOT, timeout=300,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        batches = json.loads(proc.stdout)
        peak_kb = [batch[0] for batch in batches]
        objects = [batch[1] for batch in batches]
        assert all(batch[2] > 0 for batch in batches)    # ECN marked
        assert peak_kb[-1] - peak_kb[0] <= 1024, peak_kb
        assert max(objects) - min(objects) <= 10, objects
