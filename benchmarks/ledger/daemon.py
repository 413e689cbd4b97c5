"""Launch ``repro serve`` as the daemon under test.

``python -m benchmarks.ledger.daemon <python|compiled> serve ...`` is the
``repro`` console script with the ledger's process preparation in front,
so the daemon and the pool workers it forks run the same backend as the
benchmark process.
"""

from __future__ import annotations

import sys

from .bootstrap import prepare

if __name__ == "__main__":
    prepare(sys.argv[1])
    from repro.cli import main

    raise SystemExit(main(sys.argv[2:]))
