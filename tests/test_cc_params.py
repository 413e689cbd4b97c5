"""Each CC's parameter table (``CCAlgorithm.params``) is its one
declaration and its one check: every default is stored as given, every
wrong type or out-of-range value is one ``ConfigError`` on every path
that builds a CC, and parameters drawn from the declared ranges drive a
tester that keeps its invariants."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import cc
from repro.cli import _parse_grid_axes, main
from repro.core import Scenario, TestConfig, deploy_scenario
from repro.errors import ConfigError
from repro.serve import ReproServer, ServeClient, ServeError
from repro.units import US

#: name -> class of every registered CC (the built-ins at collection).
CLASSES = {name: type(cc.create(name)) for name in cc.available()}
CASES = [(name, key) for name, cls in CLASSES.items() for key in cls.params]


def bounds(spec: cc.Param) -> tuple[float, float]:
    """The two ends of ``spec``'s declared range."""
    low, high = (float(end.strip("[]() ")) for end in spec.range.split(","))
    return low, high


def bad_values(spec: cc.Param) -> list:
    """JSON values ``spec`` must refuse: a wrong type, a bool for a
    number, and one value past each finite end of the range."""
    if spec.type is bool:
        return ["false", 1]
    low, high = bounds(spec)
    values = [1.5 if spec.type is int else "x", True]
    values.append(spec.type(low if spec.range[0] == "(" else low - 1))
    if math.isfinite(high):
        values.append(spec.type(high if spec.range[-1] == ")" else high + 1))
    return values


BAD_CASES = [
    pytest.param(name, key, value, id=f"{name}-{key}-{value!r}")
    for name, key in CASES
    for value in bad_values(CLASSES[name].params[key])
]


def test_every_builtin_declares_its_parameters_in_the_table():
    assert set(CLASSES) >= {"reno", "dctcp", "dcqcn", "cubic", "timely", "hpcc", "swift"}
    for name, cls in CLASSES.items():
        assert cls.params, name
        # Timely's t_low < t_high is the one cross-parameter rule.
        assert "__init__" not in vars(cls) or name == "timely", name
        for key, spec in cls.params.items():
            assert spec.type in (int, float, bool), (name, key)
            if spec.type is not bool:
                assert math.isfinite(bounds(spec)[0]), (name, key)


@pytest.mark.parametrize("name,key", CASES)
def test_default_is_admitted_and_stored(name, key):
    spec = CLASSES[name].params[key]
    assert spec.admits(spec.default)
    value = vars(cc.create(name))[key]  # a plain instance attribute
    assert value == spec.default and type(value) is type(spec.default)


@pytest.mark.parametrize("name,key,value", BAD_CASES)
def test_rejected_by_construction_and_by_create(name, key, value):
    spec = CLASSES[name].params[key]
    for build in (CLASSES[name], lambda **p: cc.create(name, **p)):
        with pytest.raises(ConfigError) as err:
            build(**{key: value})
        assert f"{key}={value!r} must be {spec}" in str(err.value)


def one_line(err: str, command: str, key: str) -> None:
    assert err.startswith(f"repro {command}: ") and key in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("name,key,value", BAD_CASES)
def test_rejected_by_run_config(name, key, value, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"cc_algorithm": name, "n_test_ports": 2, "cc_params": {key: value}}
    ))
    assert main(["run", "--config", str(path), "--duration-ms", "0.01"]) == 2
    one_line(capsys.readouterr().err, "run", key)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    server = ReproServer(port=0, workers=0, cache_dir=tmp_path_factory.mktemp("cache"))
    server.start_background()
    client = ServeClient(server.host, server.port)
    yield client
    client.close()
    server.close()


@pytest.mark.parametrize("name,key,value", BAD_CASES)
def test_rejected_by_a_sweep_spec(name, key, value, daemon, tmp_path, capsys):
    spec = {"kind": "sweep", "algorithm": name, "grid": [{key: value}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    # Port 9 (discard) has no daemon: the spec is refused before any connect.
    assert main(["submit", str(path), "--port", "9"]) == 2
    one_line(capsys.readouterr().err, "submit", key)
    with pytest.raises(ServeError) as refused:
        daemon.submit(spec)
    assert refused.value.status == 400 and f"{key}=" in str(refused.value)


def test_param_true_false_are_bools():
    grid = _parse_grid_axes(["use_slow_path=false,true", "g=0.125"])
    assert grid == [
        {"use_slow_path": False, "g": 0.125},
        {"use_slow_path": True, "g": 0.125},
    ]
    # The Section 5.4 ablation: alpha on the fast path, no slow-path block.
    assert cc.create("dctcp", **grid[0]).initial_slow() is None


def test_sweep_param_false_runs_the_16_bit_ablation(tmp_path, capsys, monkeypatch):
    import repro.core.tester as tester_module

    built = []

    def recording(name, **params):
        built.append(cc.create(name, **params))
        return built[-1]

    monkeypatch.setattr(tester_module, "create_cc", recording)
    code = main([
        "sweep", "--algorithm", "dctcp", "--param", "use_slow_path=false",
        "--duration-ms", "0.1", "--workers", "0", "--no-progress",
    ])
    assert code == 0, capsys.readouterr().err
    assert [alg.name for alg in built] == ["dctcp"]
    assert built[0].initial_slow() is None


# -- generation 0: parameters drawn from the declared ranges -------------------


def drawn(spec: cc.Param) -> st.SearchStrategy:
    """Log-uniform over the declared range, within 100x of the default."""
    if spec.type is bool:
        return st.booleans()
    low, high = bounds(spec)
    low, high = max(spec.default / 100, low), min(spec.default * 100, high)
    values = st.floats(math.log(low), math.log(high)).map(math.exp)
    if spec.type is int:
        values = values.map(round)
    return values.filter(spec.admits)


def with_params(name: str) -> st.SearchStrategy:
    table = CLASSES[name].params
    params = st.fixed_dictionaries({key: drawn(spec) for key, spec in table.items()})
    if name == "timely":
        params = params.filter(lambda p: p["t_low_ps"] < p["t_high_ps"])
    return st.tuples(st.just(name), params)


BUILTINS = ("reno", "dctcp", "cubic", "dcqcn", "timely", "hpcc", "swift")


@settings(
    max_examples=25, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.sampled_from(BUILTINS).flatmap(with_params))
def test_drawn_parameters_keep_the_tester_sane(case):
    name, params = case
    scenario = Scenario(
        TestConfig(
            cc_algorithm=name, n_test_ports=2, flows_per_port=4, cc_params=params,
            int_enabled=name == "hpcc",
        ),
        duration_ps=20 * US,
        size_packets=200,
    )
    cp, _, _ = deploy_scenario(scenario)
    tester = cp.require_tester()
    runtime = tester.nic.cc_runtime
    outputs = []
    invoke = runtime.invoke

    def recording(flow, intr):
        out = invoke(flow, intr)
        outputs.append(out.cwnd_or_rate)
        return out

    runtime.invoke = recording
    cp.run(duration_ps=scenario.duration_ps)
    counters = tester.read_counters()
    assert counters["switch.data_generated"] <= counters["switch.sche_accepted"]
    assert counters["switch.sche_accepted"] <= counters["fpga.sche_emitted"]
    assert counters["fpga.rmw_conflicts"] == 0
    assert all(value is None or value >= 0 for value in outputs)
    for flow in tester.nic.flows.values():
        assert flow.cwnd_or_rate >= 0
