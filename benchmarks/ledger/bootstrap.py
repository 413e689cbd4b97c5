"""Process preparation shared by the benchmark, its set-up children and
the daemon launcher: make the checkout's ``repro`` importable and pin the
simulation backend *before* ``repro`` is first imported."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

#: The checkout root (``benchmarks/ledger/`` sits two levels below it).
ROOT = Path(__file__).resolve().parents[2]

#: How child processes are addressed; they all run with ``cwd=ROOT``.
PACKAGE = "benchmarks.ledger"

SIM_BACKENDS = ("python", "compiled")


def prepare(sim_backend: str) -> None:
    """Put ``<root>/src`` first on ``sys.path`` and, for the python
    backend, block the optional C extension.

    A stray ``_cengine*.so`` swaps the ``Port``/``DropTailQueue`` classes
    at import time even under the python run loop, so passing
    ``sim_backend="python"`` alone does not pin what is measured; the
    ``None`` entry makes the extension's import fail (the technique of
    ``tests/test_backend.py``).  Forked pool workers inherit it.
    """
    if "repro" in sys.modules:
        raise RuntimeError("prepare() must run before repro is imported")
    sys.path.insert(0, str(ROOT / "src"))
    if sim_backend == "python":
        sys.modules["repro.sim._cengine"] = None


def load_catalogue() -> dict[str, Any]:
    """``BENCHMARK.json``: the one list of workloads, metric names,
    units and bounds.  The ledger reads it instead of keeping a copy."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
