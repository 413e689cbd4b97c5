"""One run of one workload: set-up, measured phase, traced phase.

Every workload is a closed loop with one client: the next op starts
when the previous one has returned.  End-to-end numbers come from the
measured phase, which runs with tracing off; per-layer numbers come
from the traced phase that follows it in the same process.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Optional

from .bootstrap import PACKAGE, ROOT
from .spans import SpanRecorder

#: A run measures at least this many ops however short ``--seconds`` is.
MIN_OPS = 3

#: Set-ups per run; ``setup_s`` is their median.  The first is the
#: benchmark process's own, the others are ``--setup-only`` children.
SETUP_REPEATS = 3

#: Noise guard: warn when the within-run quartile spread of op wall
#: times, as a share of their median, passes this.
IQR_WARN_FRAC = 0.10


class Workload:
    """What the harness needs from a workload.

    ``layer`` collects per-layer metrics by catalogue name whenever they
    become known (set-up, measured-phase hooks, traced phase).
    """

    name = ""
    #: What ``work_per_s`` counts.
    work_unit = ""
    #: False when the program under test is a daemon subprocess.
    in_process = True

    def __init__(self, seed: int, sim_backend: str, quick: bool) -> None:
        self.seed = seed
        self.sim_backend = sim_backend
        self.quick = quick
        self.layer: dict[str, float] = {}
        #: Free-form additions to the result document (profile rows, ...).
        self.extra: dict[str, Any] = {}

    def setup(self) -> None:
        """Everything before the first measured op, including one
        discarded warm-up op."""
        raise NotImplementedError

    def before_measured(self) -> None:
        pass

    def op(self, index: int) -> Any:
        """One operator wait; wall-timed by the harness."""
        raise NotImplementedError

    def check(self, index: int, payload: Any) -> tuple[bool, float]:
        """Untimed: ``(output is correct, work units done)``."""
        raise NotImplementedError

    def after_measured(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def verify(self) -> list[str]:
        """Cross-checks that are not part of an op; returns the names of
        the ones that failed."""
        return []

    def stats_digest(self) -> str:
        """SHA-256 over the simulated results of the run."""
        raise NotImplementedError

    def traced(self, rec: SpanRecorder, op_wall_p50: float) -> tuple[float, list[str]]:
        """Replay the op with spans and run the layer drives, given the
        measured phase's median op wall.  Returns the traced op's wall
        time and the names of failed checks."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass


def digest(document: Any) -> str:
    """SHA-256 of a JSON-able document of simulated results."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- small statistics ----------------------------------------------------------


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(int(-(-pct * len(ordered) // 100)), 1)
    return ordered[rank - 1]


def iqr_frac(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def tail(ordered: list[float]) -> tuple[int, float]:
    """The highest of p50/p75/p90/p99 that has at least ten samples
    beyond it, and its value."""
    for pct in (99, 90, 75):
        if len(ordered) * (100 - pct) >= 1000:
            return pct, percentile(ordered, pct)
    return 50, percentile(ordered, 50)


def noise_sample() -> dict[str, Any]:
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg())}


# -- the run -------------------------------------------------------------------


def _setup_child(name: str, seed: int, sim_backend: str) -> float:
    """One more set-up of the same workload in a fresh process."""
    done = subprocess.run(
        [
            sys.executable, "-m", PACKAGE, "--workload", name, "--seed", str(seed),
            "--sim-backend", sim_backend, "--setup-only",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def run_workload(
    workload: Workload,
    *,
    seconds: float,
    trace: bool,
    process_t0: float,
    import_s: float,
    env: dict[str, Any],
) -> tuple[dict[str, Any], Optional[SpanRecorder]]:
    """Run ``workload`` once and return its result document (and the
    span recorder of the traced phase, if there was one)."""
    noise_start = noise_sample()
    warnings: list[str] = []
    errors: list[str] = []
    recorder: Optional[SpanRecorder] = None
    try:
        workload.setup()
        setups = [time.perf_counter() - process_t0]

        # Measured phase, tracing off: identical-shape ops, one client.
        walls: list[float] = []
        cpus: list[float] = []
        passed: list[bool] = []
        work = 0.0
        workload.before_measured()
        phase_start = time.perf_counter()
        while len(walls) < MIN_OPS or time.perf_counter() - phase_start < seconds:
            index = len(walls)
            cpu_start = time.process_time()
            start = time.perf_counter()
            try:
                payload = workload.op(index)
                error = None
            except Exception:
                error = traceback.format_exc(limit=4)
            walls.append(time.perf_counter() - start)
            cpus.append(time.process_time() - cpu_start)
            if error is None:
                ok, units = workload.check(index, payload)
                if ok:
                    work += units
                else:
                    error = f"op {index}: output failed its check"
            passed.append(error is None)
            if error is not None:
                errors.append(error)
        phase_wall = time.perf_counter() - phase_start
        workload.after_measured()
        peak_rss_mb = workload.peak_rss_mb()
        # Ascending wall times of the ops that passed (of all, if none did).
        good = sorted(w for w, ok in zip(walls, passed) if ok) or sorted(walls)
        p50 = statistics.median(good)

        failed_checks = workload.verify()
        for _ in range(0 if workload.quick else SETUP_REPEATS - 1):
            setups.append(
                _setup_child(workload.name, workload.seed, workload.sim_backend)
            )
        traced_wall = None
        if trace:
            recorder = SpanRecorder()
            traced_wall, more = workload.traced(recorder, p50)
            failed_checks += more
    finally:
        workload.teardown()
    noise_end = noise_sample()

    attempted = len(walls)
    failed = passed.count(False)
    tail_pct, tail_s = tail(good)
    spread = iqr_frac(good)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "op_wall_p50_s": p50,
        "work_per_s": work / phase_wall,
        "peak_rss_mb": peak_rss_mb,
    }
    layer = dict(workload.layer)
    layer.update(
        {
            "failed_frac": failed / attempted,
            "harness.ops": attempted,
            "harness.op_wall_tail_s": tail_s,
            "harness.tail_pct": tail_pct,
            "harness.op_wall_iqr_frac": spread,
            "harness.import_s": import_s,
        }
    )
    if workload.in_process:
        layer["harness.cpu_s_per_op"] = statistics.median(cpus)
    if traced_wall is not None:
        layer["harness.trace_overhead_frac"] = traced_wall / p50 - 1.0

    # Only the start sample is judged: the end sample carries this run's
    # own load (about one core, two with the daemon's pool).
    nproc = noise_start["nproc"] or 1
    if noise_start["loadavg"][0] > nproc / 2:
        warnings.append(
            f"load average {noise_start['loadavg'][0]:.2f} at start exceeds "
            f"nproc/2 = {nproc / 2:g}: the box was not idle, timings are suspect"
        )
    if spread > IQR_WARN_FRAC:
        warnings.append(
            f"op wall quartile spread {spread:.3f} of the median exceeds "
            f"{IQR_WARN_FRAC}: this run was noisy"
        )

    result = {
        "schema": 1,
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "quick": workload.quick,
        "work_unit": workload.work_unit,
        "correct": failed == 0 and not failed_checks,
        "attempted": attempted,
        "failed": failed,
        "failed_checks": failed_checks,
        "stats_digest": workload.stats_digest(),
        "end_to_end": end_to_end,
        "per_layer": layer if trace else {},
        "samples": {"op_wall_s": walls, "setup_s": setups},
        "env": {**env, "noise_start": noise_start, "noise_end": noise_end},
        "warnings": warnings,
        "errors": errors[:5],
        "extra": workload.extra,
    }
    return result, recorder
