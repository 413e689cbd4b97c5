"""One campaign path: ``repro sweep`` / ``repro fluid``, an in-process
``parse_spec(...).run(...)`` and ``repro submit`` against a live daemon
describe, validate, hash, run and print a campaign the same way."""

import json
import multiprocessing.process

import pytest

from repro.cli import build_parser, main
from repro.core.config import TestConfig
from repro.errors import ConfigError
from repro.parallel import CampaignRunner
from repro.serve import ReproServer, parse_spec

SWEEP_SPEC = {
    "kind": "sweep",
    "algorithm": "dcqcn",
    "grid": [{"rate_ai_bps": 1e9}, {"rate_ai_bps": 2e9}],
    "n_senders": 2,
    "duration_ms": 0.5,
    "seed": 3,
}
SWEEP_FLAGS = [
    "sweep", "--algorithm", "dcqcn", "--param", "rate_ai_bps=1e9,2e9",
    "--senders", "2", "--duration-ms", "0.5", "--seed", "3", "--no-progress",
]

FLUID_SPEC = {
    "kind": "fluid",
    "algorithms": ["dctcp", "ideal"],
    "workload": "hadoop",
    "flows_per_port_levels": [4, 8],
    "flows_total": 400,
    "n_ports": 2,
    "seed": 5,
}
FLUID_FLAGS = [
    "fluid", "--algorithms", "dctcp,ideal", "--workload", "hadoop",
    "--flows-per-port", "4,8", "--flows-total", "400", "--ports", "2",
    "--seed", "5",
]


@pytest.fixture()
def server(tmp_path):
    server = ReproServer(port=0, workers=1, cache_dir=tmp_path / "cache")
    server.start_background()
    yield server
    server.close()


def _in_process(spec_payload):
    spec = parse_spec(spec_payload)
    with CampaignRunner(workers=1) as runner:
        return spec, spec.run(runner)


def _submitted(server, tmp_path, spec_payload, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec_payload))
    job_file = tmp_path / "job.json"
    argv = ["submit", str(spec_file), "--host", server.host,
            "--port", str(server.port), "--wait", "--json", str(job_file)]
    assert main(argv) == 0
    return json.loads(job_file.read_text()), capsys.readouterr().out


class TestThreeWays:
    def test_sweep(self, server, tmp_path, capsys):
        outputs = {}
        for workers in ("1", "2"):
            out, manifest = tmp_path / f"w{workers}.json", tmp_path / f"m{workers}.json"
            argv = SWEEP_FLAGS + ["--workers", workers, "--json", str(out),
                                  "--manifest", str(manifest)]
            assert main(argv) == 0
            outputs[workers] = (
                json.loads(out.read_text()), json.loads(manifest.read_text())
            )
        cli_table = capsys.readouterr().out
        (cli, manifest), (cli_pooled, manifest_pooled) = outputs["1"], outputs["2"]
        spec, local = _in_process(SWEEP_SPEC)
        job, served_table = _submitted(server, tmp_path, SWEEP_SPEC, capsys)

        assert (
            manifest["config_hash"]
            == manifest_pooled["config_hash"]
            == spec.config_hash
            == job["config_hash"]
        )
        assert manifest["config"] == spec.config
        assert manifest["seed"] == 3
        assert manifest_pooled["campaign"]["workers"] == 2
        served = job["result"]
        assert set(cli) == set(cli_pooled) == set(local) == set(served)
        assert cli["kind"] == "sweep"
        assert cli["points"] == cli_pooled["points"] == local["points"] == served["points"]
        assert len(cli["points"]) == 2
        assert set(cli["stats"]) == set(served["stats"])
        # One renderer: the rows `repro submit` prints are `repro sweep`'s.
        rows = [line for line in served_table.splitlines()
                if line.startswith("rate_ai_bps=")]
        assert len(rows) == 2
        assert all(row in cli_table for row in rows)
        assert "[hb] task 0" in served_table

    def test_fluid(self, server, tmp_path, capsys):
        out = tmp_path / "fluid.json"
        assert main(FLUID_FLAGS + ["--json", str(out)]) == 0
        cli = json.loads(out.read_text())
        cli_table = capsys.readouterr().out
        spec, local = _in_process(FLUID_SPEC)
        job, served_table = _submitted(server, tmp_path, FLUID_SPEC, capsys)

        assert job["config_hash"] == spec.config_hash
        served = job["result"]
        assert set(cli) == set(local) == set(served)
        assert cli["kind"] == "fluid"
        assert cli["points"] == local["points"] == served["points"]
        assert [(p["algorithm"], p["flows_per_port"]) for p in cli["points"]] == [
            ("dctcp", 4), ("dctcp", 8), ("ideal", 4), ("ideal", 8),
        ]
        rows = [line for line in served_table.splitlines()
                if line.startswith(("dctcp ", "ideal "))]
        assert len(rows) == 4
        assert all(row in cli_table for row in rows)

    def test_resubmit_is_served_from_cache_with_the_same_table(
        self, server, tmp_path, capsys
    ):
        first, first_out = _submitted(server, tmp_path, FLUID_SPEC, capsys)
        again, again_out = _submitted(server, tmp_path, FLUID_SPEC, capsys)
        assert not first["cached"] and again["cached"]
        assert "(cached)" in again_out
        assert again["result"] == first["result"]

        def table(out):
            lines = out.splitlines()
            start = next(
                index for index, line in enumerate(lines)
                if line.startswith("fluid campaign")
            )
            return lines[start:-1]  # the last line is "wrote <job file>"

        assert len(table(first_out)) == 6  # summary, header, four cells
        assert table(first_out) == table(again_out)

    def test_fluid_timeseries_stay_outside_the_hashed_config(self, tmp_path, capsys):
        series = tmp_path / "series"
        argv = ["fluid", "--algorithms", "ideal",
                "--flows-per-port", "2", "--flows-total", "50", "--ports", "2",
                "--timeseries-out", str(series), "--timeseries-every", "4"]
        assert main(argv) == 0
        assert [path.name for path in series.iterdir()] == ["timeseries-ideal-fpp2.npz"]
        assert str(series) in capsys.readouterr().out
        spec = parse_spec({"kind": "fluid", "algorithms": ["ideal"],
                           "flows_per_port_levels": [2],
                           "flows_total": 50, "n_ports": 2})
        assert "timeseries_dir" not in spec.config


class TestRejectedBeforeAnyWorker:
    """Bad campaign input is one line on stderr and exit status 2 from
    the spec validator, before any worker process exists."""

    @pytest.mark.parametrize(
        "argv,names",
        [
            (["sweep", "--senders", "1"], "n_senders"),
            (["sweep", "--duration-ms", "0"], "duration_ms"),
            (["sweep", "--seed", "-1"], "seed"),
            (["sweep", "--ecn-threshold", "0"], "ecn_threshold_bytes"),
            (["sweep", "--param", "g=abc"], "'g': 'abc'"),
            (["sweep", "--param", "no_such_knob=1"], "no_such_knob"),
            (["sweep", "--algorithm", "martian"], "martian"),
            (["sweep", "--param", "g"], "--param"),
            (["fluid", "--flows-total", "0"], "flows_total"),
            (["fluid", "--flows-per-port", "8,x"], "--flows-per-port"),
            (["fluid", "--algorithms", "dctcp,martian"], "martian"),
            (["fluid", "--timeseries-out", "ts", "--timeseries-every", "0"],
             "--timeseries-every"),
        ],
    )
    def test_probe(self, argv, names, monkeypatch, capsys):
        spawned = []
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start",
            lambda self: spawned.append(self),
        )
        assert main(argv + ["--workers", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro {argv[0]}: ")
        assert names in captured.err
        assert "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert spawned == []

    def test_submit_rejects_a_bad_spec_without_a_daemon(self, tmp_path, capsys):
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps({**SWEEP_SPEC, "n_senders": 1}))
        # Port 9 (discard) has no daemon: reaching it would be an OSError.
        assert main(["submit", str(spec_file), "--port", "9"]) == 2
        assert "n_senders" in capsys.readouterr().err

    def test_any_repro_error_is_a_message_not_a_traceback(self, capsys):
        # Not a spec field: CampaignRunner's own CampaignError.
        assert main(["sweep", "--workers", "-1"]) == 2
        assert capsys.readouterr().err == "repro sweep: workers must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "no-such-campaign-dir"],
            ["run", "--workload", "websearch", "--ports", "3"],
        ],
    )
    def test_other_commands_share_the_handler(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"repro {argv[0]}: ")

    @pytest.mark.parametrize(
        "content,names",
        [
            (None, "No such file"),
            ("{not json", "Expecting"),
            ("[]", "JSON object"),
            # Parameters the algorithm's constructor refuses.
            ('{"cc_algorithm": "dcqcn", "cc_params": {"nope": 1}}', "'nope'"),
        ],
    )
    def test_run_config_file_errors_are_one_line(self, content, names, tmp_path, capsys):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_text(content)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro run: ") and names in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "field,value",
        [
            ("pipeline_latency_ps", -1),
            ("queue_capacity", 0),
            ("cnp_interval_ps", -1),
            ("seed", -1),
            # Wrong types: a string, a fraction of a picosecond, a bool.
            ("queue_capacity", "64"),
            ("pipeline_latency_ps", 1.5),
            ("n_test_ports", True),
        ],
    )
    def test_out_of_range_config_field_is_rejected(self, field, value, tmp_path, capsys):
        payload = {"n_test_ports": 2, field: value}
        with pytest.raises(ConfigError, match=field):
            TestConfig.from_dict(payload)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        argv = ["run", "--config", str(path), "--workload", "websearch"]
        assert main(argv + ["--duration-ms", "0.01"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro run: ") and field in err
        assert len(err.strip().splitlines()) == 1


def test_duration_ms_is_rounded_to_picoseconds_not_truncated(monkeypatch):
    # 1.001 ms is not representable: 1.001 * MS == 1000999999.9999999.
    class Reached(Exception):
        pass

    def sweep_campaign(*args, duration_ps, **kwargs):
        raise Reached(duration_ps)

    monkeypatch.setattr("repro.core.sweep.sweep_campaign", sweep_campaign)
    with pytest.raises(Reached) as reached:
        parse_spec({**SWEEP_SPEC, "duration_ms": 1.001}).run(runner=None)
    assert reached.value.args == (1_001_000_000,)


def test_campaign_flags_keep_their_names_and_spec_defaults():
    """The CLI adds no knob of its own: every campaign flag maps onto a
    spec field whose default it repeats."""
    parser = build_parser()
    sweep = parser.parse_args(["sweep"])
    fluid = parser.parse_args(["fluid"])
    sweep_spec = parse_spec({"kind": "sweep", "algorithm": sweep.algorithm}).config
    fluid_spec = parse_spec({"kind": "fluid", "algorithms": fluid.algorithms}).config
    assert (sweep.senders, sweep.duration_ms, sweep.ecn_threshold,
            sweep.seed) == (
        sweep_spec["n_senders"], sweep_spec["duration_ms"],
        sweep_spec["ecn_threshold_bytes"], sweep_spec["seed"],
    )
    assert (fluid.workload, [int(fluid.flows_per_port)], fluid.flows_total,
            fluid.ports, fluid.seed) == (
        fluid_spec["workload"], fluid_spec["flows_per_port_levels"],
        fluid_spec["flows_total"], fluid_spec["n_ports"], fluid_spec["seed"],
    )
    # The fluid engine is not a knob: no flag and no spec field select it.
    assert not hasattr(fluid, "backend") and "backend" not in fluid_spec
