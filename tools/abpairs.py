"""Alternating A/B pairs of one packet workload: this checkout vs a base.

Starts two warm worker processes -- one on this checkout, one on a base
checkout (a ``git worktree`` of ``--base``, or an existing directory
given with ``--base-dir``) -- and has each run single ops of the cost
ledger's own packet workload classes (``benchmarks.ledger.pkt``,
imported from each side's checkout, C extension blocked as in the
ledger).  Pairs alternate which side goes first, so drift on the host
lands on both sides alike.  Prints every pair, the median wall ratio
(this checkout over the base), how many pairs this checkout won, and
whether the result digests matched.

    python tools/abpairs.py --base HEAD~1 --workload pkt_fanin_dcqcn --pairs 10
    python tools/abpairs.py --base-dir ../parent --seeds 1,2,3 --pairs 12

Exit status: 0 when every pair's digests matched, 1 when one did not,
2 on bad arguments or a worker that failed to start.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("pkt_fanin_dcqcn", "pkt_closedloop_dctcp")

#: Runs in each worker, with the checkout as its working directory.
#: Requests are seeds (one JSON line each); replies are one JSON line.
WORKER = r"""
import json, os, sys, time
sys.path.insert(0, os.getcwd())
from benchmarks.ledger.bootstrap import ROOT, prepare
prepare("python")
import repro
from benchmarks.ledger import pkt
from benchmarks.ledger.cli import WORKLOADS
from pathlib import Path
if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"imported {repro.__file__}, not this checkout's {ROOT / 'src'}")
reply = os.fdopen(os.dup(1), "w")
os.dup2(2, 1)
class_name = WORKLOADS[sys.argv[1]][1]
workloads = {}
for line in sys.stdin:
    seed = json.loads(line)
    workload = workloads.get(seed)
    if workload is None:
        workload = workloads[seed] = getattr(pkt, class_name)(seed, "python", False)
        workload.setup()
    start = time.perf_counter()
    payload = workload.op(0)
    wall = time.perf_counter() - start
    correct, _ = workload.check(0, payload)
    reply.write(json.dumps({
        "wall_s": wall, "digest": workload.op_digest(payload),
        "stats_digest": workload.stats_digest(), "correct": correct,
    }) + "\n")
    reply.flush()
"""


class Worker:
    """One warm process bound to one checkout."""

    def __init__(self, checkout: Path, workload: str) -> None:
        self.checkout = checkout
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, workload],
            cwd=checkout, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def op(self, seed: int) -> dict:
        self.proc.stdin.write(json.dumps(seed) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker on {self.checkout} died (exit {self.proc.wait()})")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.stdin is not None:
            self.proc.stdin.close()
        self.proc.wait()


def base_worktree(stack: ExitStack, ref: str) -> Path:
    """Check ``ref`` out into a temporary worktree, removed on exit."""
    path = Path(stack.enter_context(tempfile.TemporaryDirectory())) / "base"
    subprocess.run(
        ["git", "worktree", "add", "--detach", "--quiet", str(path), ref],
        cwd=ROOT, check=True,
    )
    stack.callback(
        subprocess.run,
        ["git", "worktree", "remove", "--force", str(path)], cwd=ROOT, check=False,
    )
    return path


def parse_seeds(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of ints: {text!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    base = parser.add_mutually_exclusive_group()
    base.add_argument("--base", default="HEAD", metavar="REF",
                      help="git ref checked out as the base (default HEAD)")
    base.add_argument("--base-dir", type=Path, metavar="DIR",
                      help="an existing checkout to use as the base instead")
    parser.add_argument("--workload", choices=WORKLOADS, default=WORKLOADS[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=parse_seeds, default=[1], metavar="N,N,...",
                        help="pair i runs seed i mod len(seeds) (default 1)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    with ExitStack() as stack:
        base_dir = args.base_dir if args.base_dir else base_worktree(stack, args.base)
        base_name = str(args.base_dir) if args.base_dir else args.base
        workers = {}
        for side, checkout in (("head", ROOT), ("base", base_dir.resolve())):
            workers[side] = Worker(checkout, args.workload)
            stack.callback(workers[side].close)
        print(f"abpairs {args.workload}: {ROOT} vs {base_name}, {args.pairs} pairs")
        print(f"{'pair':>4} {'seed':>4} {'first':>5} {'head_s':>8} {'base_s':>8} "
              f"{'ratio':>6}  digests")
        ratios, wins, mismatches = [], 0, 0
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            order = ("head", "base") if i % 2 == 0 else ("base", "head")
            try:
                result = {side: workers[side].op(seed) for side in order}
            except RuntimeError as exc:
                print(f"abpairs: {exc}", file=sys.stderr)
                return 2
            head, base_run = result["head"], result["base"]
            same = (
                head["digest"] == base_run["digest"]
                and head["stats_digest"] == base_run["stats_digest"]
                and head["correct"] and base_run["correct"]
            )
            mismatches += not same
            ratio = head["wall_s"] / base_run["wall_s"]
            ratios.append(ratio)
            wins += ratio < 1.0
            print(f"{i:>4} {seed:>4} {order[0]:>5} {head['wall_s']:>8.4f} "
                  f"{base_run['wall_s']:>8.4f} {ratio:>6.3f}  "
                  f"{'equal' if same else 'DIFFER'}")
        print(f"median ratio {statistics.median(ratios):.3f}; head faster in "
              f"{wins}/{args.pairs} pairs; digests "
              f"{'equal in every pair' if not mismatches else f'differ in {mismatches}'}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
