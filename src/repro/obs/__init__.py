"""``repro.obs`` — the observability layer: tracing, metrics, flight records.

Two clock domains with opposite determinism contracts:

* **sim** spans and simulation-driven metrics are pure functions of the
  cell identity — byte-identical across ``--jobs N``, seed order and
  shard+merge, golden-testable like the results documents;
* **wall** spans and harness metrics are run-specific profiling,
  stripped by :func:`~repro.obs.recorder.strip_wall` before any
  byte-identity comparison.

Hot paths pay one attribute test when tracing is off
(:data:`~repro.obs.tracer.NULL_TRACER` is the default active tracer).
The trace CLI lives in :mod:`repro.obs.cli`, imported only by the
``cloudbench trace`` dispatch.
"""
