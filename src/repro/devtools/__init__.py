"""Correctness tooling for the serving stack.

Two enforcement layers for the contracts everything else relies on:

* :mod:`repro.devtools.simlint` — an AST-based static linter with
  repo-specific rules (seeded RNG only, no wall-clock in simulation code,
  no unordered iteration feeding event order, no float equality in
  sim/hw modules, event pushes through ``pack_subkey``/``PRIO_*``,
  NaN-aware comparisons in analysis code, no identity-keyed caches in
  sim/hw modules).  Run it with
  ``python -m repro.devtools.simlint src tests``.
* :mod:`repro.devtools.sanitizer` — the runtime sanitizer substrate
  (``REPRO_SANITIZE=1``): event-order, resource-balance, job-state and
  shard-conservation assertions threaded through the event loops,
  resources, job table and sharded memory plane, raising a structured
  :class:`~repro.devtools.sanitizer.SanitizerError` carrying the event
  trace tail.
* :mod:`repro.devtools.differential` — cross-engine differential
  sanitization: run the same seeded workload under the reference and
  array engines (each sanitized) and raise a
  :class:`~repro.devtools.differential.DifferentialError` with a
  field-level record diff if they disagree.
"""

from repro.devtools.differential import (
    DifferentialError,
    assert_engines_agree,
    diff_records,
)
from repro.devtools.sanitizer import SanitizerError, sanitize_enabled

__all__ = [
    "DifferentialError",
    "Finding",
    "SanitizerError",
    "assert_engines_agree",
    "diff_records",
    "lint_paths",
    "lint_source",
    "sanitize_enabled",
]


def __getattr__(name):
    # simlint is imported lazily so ``python -m repro.devtools.simlint``
    # does not execute the module twice (runpy re-runs what the package
    # import already loaded)
    if name in ("Finding", "lint_paths", "lint_source"):
        from repro.devtools import simlint

        return getattr(simlint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
