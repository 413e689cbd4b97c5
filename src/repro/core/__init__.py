"""Marlin, the paper's contribution: configuration, control plane, the
assembled tester, the throughput-amplification arithmetic (Section 3.3),
and the requirement/capability matrices (Tables 1 and 2)."""

from repro.core.config import TestConfig
from repro.core.tester import MarlinTester
from repro.core.control_plane import ControlPlane
from repro.core.amplification import (
    AmplificationReport,
    amplification_report,
    max_generated_rate_bps,
)
from repro.core.capabilities import (
    DeviceCharacteristics,
    TesterRequirements,
    device_characteristics_table,
    tester_requirements_table,
)
from repro.core.multi_pipeline import MultiPipelineTester, scaling_table
from repro.core.scenario import Scenario, deploy_scenario
from repro.core.sweep import SweepPoint, run_sweep_point, sweep_campaign

__all__ = [
    "TestConfig",
    "MarlinTester",
    "ControlPlane",
    "AmplificationReport",
    "amplification_report",
    "max_generated_rate_bps",
    "DeviceCharacteristics",
    "TesterRequirements",
    "device_characteristics_table",
    "tester_requirements_table",
    "MultiPipelineTester",
    "scaling_table",
    "Scenario",
    "deploy_scenario",
    "SweepPoint",
    "run_sweep_point",
    "sweep_campaign",
]
