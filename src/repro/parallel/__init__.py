"""Sharded campaign execution (the ROADMAP's scale-out layer).

Marlin's operator story is running *many* configurations at high
throughput to find the optimal one.  A single simulation is bound to one
core, but campaign tasks — sweep grid points, seed replicates, fluid
campaigns, scaling rows — are independent by construction, so the
:class:`CampaignRunner` shards them across worker processes it owns:

* **one worker, one pipe, one task** — the runner starts its own
  processes and talks to each over one duplex pipe; a task is a whole
  simulation, so nothing is batched;
* **warm workers** — each worker imports the heavy modules once before
  it takes its first task, and outlives the campaign;
* **deterministic seeding** — per-task seeds are spawned from the
  campaign seed and the task *index* (never from worker identity or
  completion order), so results are bit-identical at any worker count;
* **bounded failure** — per-task timeouts and crash retries with
  exponential backoff, charged only to the task whose worker died, and
  structured per-task errors instead of a hung or lost campaign;
* **ordered aggregation** — results come back in submission (grid)
  order with per-task wall-clock and simulated-event statistics.
"""

from repro.parallel.runner import (
    CampaignError,
    CampaignResult,
    CampaignRunner,
    TaskError,
    TaskResult,
    derive_task_seed,
    report_events,
)

__all__ = [
    "CampaignError",
    "CampaignResult",
    "CampaignRunner",
    "TaskError",
    "TaskResult",
    "derive_task_seed",
    "report_events",
]
