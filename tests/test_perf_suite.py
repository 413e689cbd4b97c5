"""The perf-suite report plumbing (provenance fingerprints and the
regression gate over synthetic reports) plus one quick-scale run of the
suite itself; no wall-clock rate is asserted."""

import json
import re
from pathlib import Path

import pytest

from repro.perf.suite import (
    PROVENANCE_FIELDS,
    check_provenance,
    check_regression,
    main,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_report(env=None, benches=None):
    report = {"schema": 2, "benches": benches or {}}
    if env is not None:
        report["env"] = env
    return report


class TestProvenance:
    ENV = {
        "platform": "Linux-6.0-x86_64",
        "python_version": "3.11.7",
        "implementation": "CPython",
        "cpu_count": 4,
    }

    def test_identical_env_clean(self):
        report = make_report(env=dict(self.ENV))
        baseline = make_report(env=dict(self.ENV))
        assert check_provenance(report, baseline) == []

    def test_each_field_detected(self):
        for field in PROVENANCE_FIELDS:
            run_env = dict(self.ENV)
            run_env[field] = "something-else"
            mismatches = check_provenance(
                make_report(env=run_env), make_report(env=dict(self.ENV))
            )
            assert len(mismatches) == 1
            assert field in mismatches[0]

    def test_schema_1_baseline_flagged(self):
        mismatches = check_provenance(make_report(env=dict(self.ENV)), {})
        assert len(mismatches) == 1
        assert "no environment fingerprint" in mismatches[0]

    def test_extra_env_fields_ignored(self):
        base_env = dict(self.ENV, git_sha="abc123")
        run_env = dict(self.ENV, git_sha="def456")
        assert check_provenance(
            make_report(env=run_env), make_report(env=base_env)
        ) == []


class TestRegressionGate:
    def baseline(self, **overrides):
        benches = {"fluid_rate_1m": {"flow_steps_per_sec": 5000.0}}
        benches.update(overrides)
        return make_report(benches=benches)

    def test_clean_pass(self):
        assert check_regression(self.baseline(), self.baseline()) == []

    def test_default_tolerance(self):
        # The floor sits 20% below the baseline: 4000 holds, 3990 trips.
        report = self.baseline(fluid_rate_1m={"flow_steps_per_sec": 4000.0})
        assert check_regression(report, self.baseline()) == []
        report = self.baseline(fluid_rate_1m={"flow_steps_per_sec": 3990.0})
        failures = check_regression(report, self.baseline())
        assert len(failures) == 1
        assert "fluid_rate_1m.flow_steps_per_sec" in failures[0]

    def test_obs_budget(self):
        baseline = self.baseline(obs_overhead={"max_overhead_frac": 0.05})
        report = self.baseline(obs_overhead={"overhead_frac": 0.20})
        failures = check_regression(report, baseline)
        assert len(failures) == 1 and "obs_overhead" in failures[0]
        report = self.baseline(obs_overhead={"overhead_frac": 0.01})
        assert check_regression(report, baseline) == []


def test_help_lists_the_five_options(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    options = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
    assert options == {
        "--help", "--output", "--baseline", "--check", "--repeats", "--quick"
    }


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    """One ``--quick --repeats 1`` run of the suite, gated on zero floors."""
    tmp = tmp_path_factory.mktemp("bench")
    baseline = tmp / "baseline.json"
    baseline.write_text(json.dumps(make_report(
        env={},
        benches={
            "fluid_rate_1m": {"flow_steps_per_sec": 0},
            "obs_overhead": {"max_overhead_frac": 1.0},
        },
    )))
    output = tmp / "BENCH.json"
    argv = ["--quick", "--repeats", "1", "--output", str(output),
            "--baseline", str(baseline), "--check"]
    assert main(argv) == 0
    return json.loads(output.read_text())


class TestSuiteRuns:
    def test_quick_run_writes_the_three_benches(self, quick_report):
        assert quick_report["env"]
        assert list(quick_report["benches"]) == [
            "timer_churn", "fluid_rate_1m", "obs_overhead"
        ]
        assert quick_report["benches"]["timer_churn"]["pending_entries_after"] == 1

    def test_every_checked_in_floor_names_a_bench_that_runs(self, quick_report):
        # A floor for a bench that no longer exists cannot linger.
        baseline = json.loads(
            (REPO_ROOT / "benchmarks/perf_baseline.json").read_text()
        )
        assert set(baseline["benches"]) <= set(quick_report["benches"])
