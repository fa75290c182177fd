"""Observability for the SPRINT serving/runtime stack: three pillars.

* :mod:`repro.obs.streaming` -- memory-O(1) streaming metrics:
  :class:`Counter`, :class:`Gauge`, and the mergeable log-bucketed
  :class:`StreamingHistogram` tail-latency sketch that lets
  :func:`repro.serving.metrics.summarize` report p50/p95/p99 without
  materializing per-request latency columns (``exact=False``).
* :mod:`repro.obs.trace` -- deterministic sim-time request tracing:
  the opt-in :class:`TraceRecorder` both serving engines emit
  request/batch lifecycle spans into, exported as Chrome trace-event
  JSON (Perfetto-viewable), with head/stride sampling
  (:class:`TraceConfig`) for 200k+-request streams.
* :mod:`repro.obs.telemetry` -- runtime telemetry: the per-run
  :class:`RunTelemetry` collecting cache/unit counters and structured
  events into the schema-versioned run manifest that
  ``sprint-experiments --metrics-out`` writes.

Everything here is opt-in: with no recorder passed and no telemetry
active (the default), the simulators and the runtime execute exactly
the same code paths as before -- the bitwise-equality and golden
contracts are unchanged.
"""

from repro._lazy import attach

__all__ = [
    "MANIFEST_SCHEMA",
    "Counter",
    "Gauge",
    "RunTelemetry",
    "StreamingHistogram",
    "TraceConfig",
    "TraceRecorder",
    "get_telemetry",
    "set_telemetry",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "streaming": ("Counter", "Gauge", "StreamingHistogram"),
        "telemetry": (
            "MANIFEST_SCHEMA",
            "RunTelemetry",
            "get_telemetry",
            "set_telemetry",
        ),
        "trace": ("TraceConfig", "TraceRecorder"),
    },
)
