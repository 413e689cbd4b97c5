"""Performance-regression suite (see ``docs/PERFORMANCE.md``)."""
