"""The cost ledger: five operator-wait workloads, each decomposed by layer.

Run one workload with ``python -m benchmarks.ledger --workload NAME
--seed N`` from the repository root; see ``README.md`` in this directory
for the workload table, the metric map and how to read the numbers.
"""
