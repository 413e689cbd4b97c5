"""``--compare A.json B.json``: two sets of runs, one verdict per row.

Per workload and end-to-end metric: both medians, the bound from
``BENCHMARK.json`` and one of *better*, *no worse*, *regressed* or
*unresolved*.  Per workload and seed run on both sides: exact-equality
rows for ``stats_digest`` and for the count metrics a deterministic
simulator must repeat.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Any

from .harness import iqr_frac

#: Per-layer counts that are functions of the inputs alone.  Timings,
#: and counts that depend on how many ops fitted in the run or on
#: scheduling (``harness.ops``, ``serve.longpolls_per_job``), are not.
EXACT_COUNTS = (
    "sim.events", "sim.events_per_data_pkt",
    "net.fabric_tx_pkts", "net.ecn_marked_pkts", "net.dropped_pkts",
    "net.peak_queue_bytes",
    "pswitch.sche_accepted", "pswitch.data_generated", "pswitch.acks_generated",
    "pswitch.infos_generated", "pswitch.cnps_generated", "pswitch.sche_dropped",
    "fpga.sched_ticks_per_sche", "fpga.sche_emitted", "fpga.infos_processed",
    "fpga.timeouts_fired", "fpga.rmw_conflicts", "fpga.rx_fifo_drops",
    "fpga.flows_completed",
    "cc.events", "workload.flows_started", "fluid.steps", "fluid.flow_steps",
)


def load_runs(path: str) -> list[dict[str, Any]]:
    return json.loads(Path(path).read_text())["runs"]


def verdict(
    a: list[float], b: list[float], *, better: str, bound: float
) -> tuple[str, float]:
    """Classify B against A; returns the verdict and B's relative
    change, signed so that positive is worse."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (median_b - median_a) / median_a
    every_b_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(iqr_frac(a), iqr_frac(b)) > bound:
        # Too noisy to tell a change of the bound's size from nothing.
        return ("better" if every_b_better else "unresolved"), worse_by
    if worse_by > bound:
        return "regressed", worse_by
    # A gain has to clear the spread between A's own runs.
    if -worse_by > iqr_frac(a) and (len(a) > 1 or every_b_better):
        return "better", worse_by
    return "no worse", worse_by


def compare(path_a: str, path_b: str, catalogue: dict[str, Any]) -> int:
    """Print the comparison; returns 1 if any row regressed or differed."""
    runs = {"A": load_runs(path_a), "B": load_runs(path_b)}
    by_workload: dict[str, dict[str, list]] = defaultdict(lambda: {"A": [], "B": []})
    for side, side_runs in runs.items():
        for run in side_runs:
            by_workload[run["workload"]][side].append(run)
    bad = 0
    print(f"A = {path_a} ({len(runs['A'])} runs)   B = {path_b} ({len(runs['B'])} runs)")
    header = f"{'workload':22s} {'metric':15s} {'median A':>12s} {'median B':>12s} " \
             f"{'B vs A':>8s} {'bound':>6s} {'spread A/B':>13s}  verdict"
    print(header)
    for workload in [w["name"] for w in catalogue["workloads"]]:
        sides = by_workload.get(workload)
        if not sides or not sides["A"] or not sides["B"]:
            continue
        for metric in catalogue["end_to_end"]:
            name = metric["name"]
            a = [run["end_to_end"][name] for run in sides["A"]]
            b = [run["end_to_end"][name] for run in sides["B"]]
            word, worse_by = verdict(
                a, b, better=metric["better"], bound=metric["bound"]
            )
            bad += word == "regressed"
            change = (statistics.median(b) - statistics.median(a)) / statistics.median(a)
            print(
                f"{workload:22s} {name:15s} {statistics.median(a):12.6g} "
                f"{statistics.median(b):12.6g} {change:+8.1%} {metric['bound']:6.2f} "
                f"{iqr_frac(a):6.3f}/{iqr_frac(b):<6.3f}  {word}"
            )
        failed_a = sum(run["failed"] for run in sides["A"])
        failed_b = sum(run["failed"] for run in sides["B"])
        attempted_a = sum(run["attempted"] for run in sides["A"])
        attempted_b = sum(run["attempted"] for run in sides["B"])
        word = "no worse" if failed_b / attempted_b <= failed_a / attempted_a else "regressed"
        bad += word == "regressed"
        print(
            f"{workload:22s} {'failed_frac':15s} {failed_a / attempted_a:12.6g} "
            f"{failed_b / attempted_b:12.6g} {'':8s} {0:6.2f} {'':13s}  {word}"
        )

    print("\nexact rows (same workload and seed on both sides):")
    for workload, sides in by_workload.items():
        seeds_a = {run["seed"]: run for run in sides["A"]}
        seeds_b = {run["seed"]: run for run in sides["B"]}
        for seed in sorted(seeds_a.keys() & seeds_b.keys()):
            run_a, run_b = seeds_a[seed], seeds_b[seed]
            differ = []
            if run_a["stats_digest"] != run_b["stats_digest"]:
                differ.append("stats_digest")
            for name in EXACT_COUNTS:
                if run_a["per_layer"].get(name) != run_b["per_layer"].get(name):
                    differ.append(name)
            bad += bool(differ)
            print(
                f"{workload:22s} seed {seed:<6d} {run_a['stats_digest'][:16]} "
                + ("identical" if not differ else "DIFFER: " + ", ".join(differ))
            )
    return 1 if bad else 0
