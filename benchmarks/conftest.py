"""Benchmark harness configuration.

Each benchmark regenerates one table or figure of the paper via the
corresponding driver in ``repro.experiments`` (the README section
"Experiments, ablations and substitutions" is the index) and reports its
wall-clock cost through pytest-benchmark.
Run with ``pytest benchmarks/ --benchmark-only``.
"""
