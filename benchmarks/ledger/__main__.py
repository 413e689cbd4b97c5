import time

# Stamped before anything heavy is imported: ``setup_s`` runs from here
# to the first measured op.
_PROCESS_T0 = time.perf_counter()

from .cli import main  # noqa: E402

raise SystemExit(main(process_t0=_PROCESS_T0))
