"""Observability: one span mechanism, metrics, trace reports.

``repro.obs`` sits below every other layer (stdlib-only, imports
nothing from the rest of the repository except the error types) and
gives the runtime these capabilities:

* **Spans** — :func:`span` is the one instrumentation region. It is a
  shared no-op while nothing is installed and otherwise feeds the
  installed sinks (:func:`install`, :func:`current`): a
  :class:`TraceRecorder` and/or a profiler.
* **Tracing** — :func:`recording` installs a :class:`TraceRecorder`;
  spans and :meth:`~repro.obs.trace.TraceRecorder.event` calls
  serialize to JSONL through a pluggable sink (ring buffer, file,
  null).
* **Metrics** — :mod:`repro.obs.metrics` holds the process-wide
  registry of counters/gauges/histograms with labeled children,
  ``snapshot()`` dict export, Prometheus-style ``render()`` and the
  scraper-facing ``render_openmetrics()``.
* **Profiling** — :func:`profiling` installs a
  :class:`~repro.obs.profile.Profiler`, which accumulates the same
  spans into a call-path tree attributing wall-clock to the
  instrumented components (kernel sim, forest inference, cache/power
  models, reconfig, ledger/sink I/O); ``repro run/suite-run
  --profile`` and ``repro profile-report``.
* **Live campaigns** — :mod:`repro.obs.live` aggregates the runner's
  heartbeat records into progress/ETA/straggler status (``repro top``).
* **Reports** — :mod:`repro.obs.report` summarizes a recorded trace
  (epoch timeline, reconfiguration counts, decision-latency
  histogram), backing the ``repro trace-report`` CLI command.
  :mod:`repro.obs.explain` renders the per-decision provenance records
  (``repro explain``) and :mod:`repro.obs.diff` aligns two traces
  epoch-by-epoch (``repro diff``).

Typical use::

    from repro import obs

    with obs.recording("run.jsonl"):
        runtime.spmspv(matrix, vector)

    print(obs.metrics.render())

See ``docs/observability.md`` for the trace schema and naming rules.
"""

from repro.obs import compare, diff, explain, live, metrics, profile, report
from repro.obs.sinks import (
    FileSink,
    MemorySink,
    NullSink,
    TraceSink,
    atomic_writer,
    read_jsonl,
    write_atomic,
    write_jsonl,
)
from repro.obs.trace import (
    Span,
    TraceRecorder,
    current,
    get_recorder,
    install,
    profiling,
    recording,
    span,
)

__all__ = [
    "compare",
    "diff",
    "explain",
    "live",
    "metrics",
    "profile",
    "report",
    "TraceSink",
    "NullSink",
    "MemorySink",
    "FileSink",
    "atomic_writer",
    "read_jsonl",
    "write_atomic",
    "write_jsonl",
    "Span",
    "TraceRecorder",
    "current",
    "get_recorder",
    "install",
    "profiling",
    "recording",
    "span",
]
