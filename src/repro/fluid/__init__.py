"""Flow-level (fluid) simulation for the 65,536-flow comprehensive test.

A packet-level Python simulation of 1.2 Tbps for the durations Figure 10
needs would require ~10^9 packet events; the fluid layer replaces it
with flow-level models of the constant-population closed loop:

* :class:`ColumnarFluidSolver` — the time-stepped solver whose queue and
  marking feedback emerge per bottleneck; the one engine a fluid
  campaign (:func:`fluid_fct_campaign`, ``repro fluid``, the serve spec)
  runs;
* :class:`FluidSimulator` — the closed form, integrating each flow's
  startup-ramp + fair-share rate profile exactly; the solver's test
  oracle and the paper-scale Figure 10 model.

The tests check the closed form against the packet simulator at small
scale, and the solver against the closed form.
"""

from repro.fluid.campaign import (
    FluidCampaignPoint,
    fluid_fct_campaign,
    run_fluid_point,
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
    "PROFILES",
    "FluidCampaignPoint",
    "fluid_fct_campaign",
    "run_fluid_point",
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
