"""Determinism-safe observability: tracing, profiling, fleet progress,
mergeable telemetry.

Strictly zero-cost when disabled — every simulator defaults to the one
module-level :data:`~repro.obs.tracer.NULL_TRACER`, reads no clock,
draws no rng, charges no OpCounter.  See the submodules:

* :mod:`repro.obs.tracer` — JSONL trace emission (``ltnc-trace`` v1)
* :mod:`repro.obs.spans` — nestable begin/end spans into the trace
* :mod:`repro.obs.profiler` — per-phase wall-time profiling
* :mod:`repro.obs.progress` — fleet heartbeats and ``progress.json``
* :mod:`repro.obs.metrics` — mergeable counters / gauges / histograms
* :mod:`repro.obs.telemetry` — per-shard files → ``telemetry.json``
  (``ltnc-telemetry`` v1)
* :mod:`repro.obs.spec` — the ``obs=`` field carried by ScenarioSpec
"""

from repro.obs.metrics import (
    DEFAULT_BOUNDARIES,
    ROUND_BOUNDARIES,
    VOLUME_BOUNDARIES,
    Histogram,
    MetricsCollector,
)
from repro.obs.profiler import PHASES, PhaseProfiler
from repro.obs.progress import (
    PROGRESS_FORMAT,
    PROGRESS_VERSION,
    FleetProgress,
    ProgressTracker,
    render_progress,
    write_progress,
)
from repro.obs.spans import SpanRecorder
from repro.obs.spec import ObsSpec
from repro.obs.telemetry import (
    TELEMETRY_FORMAT,
    TELEMETRY_VERSION,
    TelemetryStore,
    read_telemetry,
    telemetry_payload,
    validate_telemetry,
    write_telemetry,
)
from repro.obs.tracer import (
    NULL_TRACER,
    TRACE_DETAILS,
    TRACE_FORMAT,
    TRACE_VERSION,
    JsonlTracer,
    NullTracer,
    iter_events,
    node_rank,
    read_trace,
    trace_filename,
)

__all__ = [
    "DEFAULT_BOUNDARIES",
    "NULL_TRACER",
    "PHASES",
    "PROGRESS_FORMAT",
    "PROGRESS_VERSION",
    "ROUND_BOUNDARIES",
    "TELEMETRY_FORMAT",
    "TELEMETRY_VERSION",
    "TRACE_DETAILS",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "VOLUME_BOUNDARIES",
    "FleetProgress",
    "Histogram",
    "JsonlTracer",
    "MetricsCollector",
    "NullTracer",
    "ObsSpec",
    "PhaseProfiler",
    "ProgressTracker",
    "SpanRecorder",
    "TelemetryStore",
    "iter_events",
    "node_rank",
    "read_telemetry",
    "read_trace",
    "render_progress",
    "telemetry_payload",
    "trace_filename",
    "validate_telemetry",
    "write_progress",
    "write_telemetry",
]
