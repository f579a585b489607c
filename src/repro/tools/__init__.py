"""Maintenance tools runnable as ``python -m repro.tools.<name>``.

* :mod:`repro.tools.regen_goldens` — regenerate the golden-counter snapshots
  that guard simulator semantics (``tests/regression/goldens/``).
* :mod:`repro.tools.validate_trace` — validate a Chrome ``trace_event`` JSON
  file produced by ``repro trace`` against the expected schema.
* :mod:`repro.tools.perf_gate` — the CI throughput gate: perfbench on this
  tree against a base tree (``make perf-gate``).
"""
