"""opbudget — the op-cost ledger.

Four workloads, end-to-end numbers measured with tracing off, and a
per-layer budget measured from outside the program by a separate traced
run.  See ``README.md`` in this directory; ``BENCHMARK.json`` at the
repository root is the contract later changes are held to.
"""
