"""Command line of the cost ledger.

``python -m benchmarks.ledger --workload NAME --seed N [--out FILE]``
runs one workload in one process, prints every metric by name with its
unit, checks its outputs, and (with ``--out``) appends the result to a
set-of-runs file and writes a Chrome trace of the traced phase beside
it.  The last line of standard output is the one-object summary the
benchmark driver reads: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

from .bootstrap import PACKAGE, ROOT, SIM_BACKENDS, load_catalogue, prepare

#: Workload name -> (module of this package, class).  Imported only after
#: :func:`prepare`, because the modules import ``repro``.
WORKLOADS = {
    "pkt_fanin_dcqcn": ("pkt", "FanInDcqcn"),
    "pkt_closedloop_dctcp": ("pkt", "ClosedLoopDctcp"),
    "fluid_fig10": ("fluid", "FluidFig10"),
    "serve_cold": ("serve", "ServeCold"),
    "serve_cached": ("serve", "ServeCached"),
}

#: ``--quick`` measures for this long unless ``--seconds`` says otherwise.
QUICK_SECONDS = 1.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"python -m {PACKAGE}", description=__doc__)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="generates every input of the run (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured phase "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 (default): run the traced phase and end with the "
                             "per-layer metrics; 0: end with the end-to-end metrics")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append the result to this set-of-runs file and write "
                             "the Chrome trace beside it")
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale: short measured phase, one set-up, "
                             "fewer drive iterations; op sizes unchanged")
    parser.add_argument("--sim-backend", choices=SIM_BACKENDS, default="python",
                        help="'compiled' unblocks the C extension and fails if it "
                             "is not built (default: python, extension blocked)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two set-of-runs files and exit")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[list[str]] = None, *, process_t0: Optional[float] = None) -> int:
    if process_t0 is None:
        process_t0 = time.perf_counter()
    args = build_parser().parse_args(argv)
    catalogue = load_catalogue()
    if args.compare:
        from .compare import compare

        return compare(*args.compare, catalogue)
    if args.workload is None:
        build_parser().error("one of --workload or --compare is required")
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(catalogue["run_seconds"])
    if args.workload == "all":
        return run_all(args)

    # A terminated benchmark still reaps its daemon: turn SIGTERM into
    # an exception so ``finally`` clauses run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    prepare(args.sim_backend)
    module_name, class_name = WORKLOADS[args.workload]
    try:
        import repro
        module = importlib.import_module(f".{module_name}", __package__)
        from repro.obs.manifest import environment
        from repro.sim import backend as sim_backend
    except ImportError as exc:
        print(f"cannot import repro from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"refusing to measure {repro.__file__}: not this checkout's "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - process_t0
    if args.sim_backend == "compiled" and not sim_backend.compiled_available():
        print("--sim-backend compiled: repro.sim._cengine is not built "
              "(`make compiled`); refusing to fall back", file=sys.stderr)
        return 2
    workload = getattr(module, class_name)(args.seed, args.sim_backend, args.quick)

    if args.setup_only:
        try:
            workload.setup()
            print(json.dumps({"setup_s": time.perf_counter() - process_t0}))
        finally:
            workload.teardown()
        return 0

    from .harness import run_workload

    env = environment()
    env["sim_backend"] = sim_backend.stamp(args.sim_backend)
    env["cengine_blocked"] = args.sim_backend == "python"
    result, recorder = run_workload(
        workload,
        seconds=args.seconds,
        trace=bool(args.trace),
        process_t0=process_t0,
        import_s=import_s,
        env=env,
    )
    print_result(result, catalogue)
    if args.out:
        out = Path(args.out)
        append_run(out, result)
        if recorder is not None:
            from repro.obs.trace import write_chrome_trace

            trace_path = out.with_name(
                f"{out.stem}.{result['workload']}.seed{result['seed']}.trace.json"
            )
            write_chrome_trace(
                trace_path,
                recorder.chrome_events(os.getpid(), f"ledger {result['workload']}"),
                metadata={"workload": result["workload"], "seed": result["seed"]},
            )
            print(f"wrote {out} and {trace_path}")
    print(json.dumps(driver_line(result, catalogue, bool(args.trace))))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a process of its own."""
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, "-m", PACKAGE, "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--sim-backend", args.sim_backend,
        ]
        if args.quick:
            command.append("--quick")
        if args.out:
            command += ["--out", str(Path(args.out).resolve())]
        status = max(status, subprocess.run(command, cwd=ROOT).returncode)
    return status


def append_run(path: Path, result: dict[str, Any]) -> None:
    """A ``--out`` file is a *set* of runs, the thing ``--compare``
    takes two of: each run is appended to the file's list."""
    document = json.loads(path.read_text()) if path.exists() else {"schema": 1, "runs": []}
    document["runs"].append(result)
    path.write_text(json.dumps(document, indent=1) + "\n")


def print_result(result: dict[str, Any], catalogue: dict[str, Any]) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{result['attempted']} ops in {result['seconds']:g} s measured  "
          f"sim_backend {result['env']['sim_backend']['name']}"
          f"{' (C extension blocked)' if result['env']['cengine_blocked'] else ''}")
    for section in ("end_to_end", "per_layer"):
        for metric in catalogue[section]:
            name = metric["name"]
            # The catalogue has one unit per metric; the work unit is the
            # workload's own.
            unit = f"{result['work_unit']}/s" if name == "work_per_s" else metric["unit"]
            if name in result[section]:
                print(f"  {name:34s} {result[section][name]:16.6g} {unit}")
    if "sim.run_s" in result["per_layer"]:
        print("  (*.callback_s rows are inclusive of the synchronous calls a "
              "callback makes; sim.loop_s is what is left of sim.run_s)")
    print(f"  {'stats_digest':34s} {result['stats_digest']}")
    print(f"  correct {result['correct']}  failed {result['failed']}/{result['attempted']}"
          + "".join(f"\n  FAILED CHECK: {name}" for name in result["failed_checks"]))
    for line in result["errors"]:
        print(f"  error: {line.strip()}", file=sys.stderr)
    for line in result["warnings"]:
        print(f"  warning: {line}", file=sys.stderr)


def driver_line(
    result: dict[str, Any], catalogue: dict[str, Any], trace: bool
) -> dict[str, Any]:
    """The summary object the benchmark driver reads.  It wants every
    catalogue metric of the section on every workload, so a per-layer
    metric whose layer does no work on this workload reads 0 here (and
    is absent from the ``--out`` document)."""
    section = "per_layer" if trace else "end_to_end"
    values = result[section]
    unknown = set(values) - {metric["name"] for metric in catalogue[section]}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {
                "value": values.get(metric["name"], 0.0),
                "unit": metric["unit"],
            }
            for metric in catalogue[section]
        },
    }
