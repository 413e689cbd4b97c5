"""Flow-level (fluid) simulation for the 65,536-flow comprehensive test.

A packet-level Python simulation of 1.2 Tbps for the durations Figure 10
needs would require ~10^9 packet events; the fluid layer replaces it with
per-flow rate profiles (startup ramp + converged fair share) under the
closed-loop invariant that the per-port flow count is constant.  The
fluid model is cross-validated against the packet simulator at small
scale in the integration tests.
"""

from repro.fluid.campaign import (
    FLUID_BACKENDS,
    FluidCampaignPoint,
    fluid_fct_campaign,
    run_fluid_point,
    run_fluid_result,
)
from repro.fluid.ideal import ideal_fct_ps, ideal_fct_series_us
from repro.fluid.model import (
    PROFILES,
    FluidCcProfile,
    FluidResult,
    FluidSimulator,
    dcqcn_profile,
    dctcp_profile,
    ideal_profile,
)
from repro.fluid.solver import (
    ColumnarFluidSolver,
    SolverConfig,
    SolverRunResult,
    kernel_for_profile,
)

__all__ = [
    "FLUID_BACKENDS",
    "PROFILES",
    "FluidCampaignPoint",
    "fluid_fct_campaign",
    "run_fluid_point",
    "run_fluid_result",
    "ColumnarFluidSolver",
    "SolverConfig",
    "SolverRunResult",
    "kernel_for_profile",
    "ideal_fct_ps",
    "ideal_fct_series_us",
    "FluidCcProfile",
    "FluidResult",
    "FluidSimulator",
    "dcqcn_profile",
    "dctcp_profile",
    "ideal_profile",
]
