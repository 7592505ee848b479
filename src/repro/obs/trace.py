"""Structured tracing and the one span mechanism behind it.

:func:`span` is the only instrumentation region in the repository::

    with obs.span("epoch", epoch=3) as span:
        ...
        span.set(time_s=1e-6)  # attributes discovered while open

It feeds whichever sinks are installed (:func:`install`):

* a :class:`TraceRecorder` — the region becomes one JSONL ``span``
  record (``recorder.event(...)`` adds point-in-time records);
* a :class:`~repro.obs.profile.Profiler` — the region becomes one
  call-path node update in its wall-clock tree.

Record schema (one JSON object per line when file-backed)::

    {"seq": 17, "ts": 0.0123, "type": "span", "name": "epoch",
     "dur_s": 0.0021, "attrs": {"epoch": 3, ...}}

``seq`` is a monotonically increasing per-recorder sequence number,
``ts`` the offset in seconds from recorder creation at emission,
``dur_s`` is present on spans only.

An enabled recorder stamps a ``header`` record (name ``trace``) as its
very first emission, carrying :data:`SCHEMA_VERSION` so downstream
tooling (``repro trace-report`` / ``diff`` / ``explain``) can detect
format drift instead of misreading a trace. Traces from before the
header existed are treated as schema version 1.

The disabled case is a hard fast path: with no sink installed,
:func:`span` is one global check returning a shared no-op span, and the
default recorder (:func:`get_recorder`) wraps a :class:`NullSink` with
``enabled = False`` so instrumented hot loops skip attribute assembly
entirely. Handing a record to a sink is timed as a ``sink_io`` region
that only the profiler sees: a span opened while a record is being
emitted is never itself emitted.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

from repro.obs.profile import Profiler
from repro.obs.sinks import FileSink, MemorySink, NullSink, TraceSink

__all__ = [
    "SCHEMA_VERSION",
    "Span",
    "TraceRecorder",
    "current",
    "get_recorder",
    "install",
    "profiling",
    "recording",
    "span",
]

#: Version of the trace record schema. Bump when record names, required
#: attributes, or field meanings change incompatibly. History:
#: 1 — PR 1 format (spans/events, no header);
#: 2 — header record, per-epoch ``config_values``, ``provenance``
#:     events with decision paths and policy verdicts;
#: 3 — one span mechanism: component spans (``kernel_sim``,
#:     ``forest_inference``, ...) are span records, ``harness.build_trace``
#:     is ``build_trace`` and ``harness.scheme`` is ``scheme:<Name>``.
SCHEMA_VERSION = 3


class _NullSpan:
    """Shared no-op span returned while no sink is installed."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Span:
    """A timed region: one clock, reported at exit to the sinks that
    were installed when it opened."""

    __slots__ = ("name", "attrs", "_recorder", "_profiler", "_clock",
                 "_node", "_start")

    def __init__(
        self,
        name: str,
        attrs: dict,
        recorder: Optional["TraceRecorder"],
        profiler: Optional[Profiler],
    ) -> None:
        self.name = name
        self.attrs = attrs
        self._recorder = recorder
        self._profiler = profiler
        self._clock = (
            profiler.clock if profiler is not None else time.perf_counter
        )
        self._node = None
        self._start = 0.0

    def set(self, **attrs) -> "Span":
        """Attach attributes while the span is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        if self._profiler is not None:
            self._node = self._profiler.push(self.name)
        self._start = self._clock()
        return self

    def __exit__(self, *exc_info) -> bool:
        elapsed = self._clock() - self._start
        if self._profiler is not None:
            self._profiler.pop(self._node, elapsed)
        if self._recorder is not None:
            self._recorder._emit("span", self.name, self.attrs, dur_s=elapsed)
        return False


class TraceRecorder:
    """Assembles trace records and forwards them to a sink."""

    def __init__(self, sink: Optional[TraceSink] = None) -> None:
        self.sink = sink if sink is not None else NullSink()
        #: Hot-path guard: instrumentation checks this once per region.
        self.enabled = not isinstance(self.sink, NullSink)
        self._origin = time.perf_counter()
        self._seq = 0
        self._lock = threading.Lock()
        if self.enabled:
            self._emit("header", "trace", {"schema_version": SCHEMA_VERSION})

    def event(self, name: str, **attrs) -> None:
        """Record a point-in-time event."""
        if not self.enabled:
            return
        self._emit("event", name, attrs)

    # ------------------------------------------------------------------
    def _emit(self, record_type: str, name: str, attrs: dict, dur_s=None) -> None:
        with self._lock:
            seq = self._seq
            self._seq += 1
        record = {
            "seq": seq,
            "ts": round(time.perf_counter() - self._origin, 9),
            "type": record_type,
            "name": name,
            "attrs": attrs,
        }
        if dur_s is not None:
            record["dur_s"] = round(dur_s, 9)
        _emitting.active = True
        try:
            with span("sink_io"):
                self.sink.emit(record)
        finally:
            _emitting.active = False

    @property
    def n_emitted(self) -> int:
        """Records emitted so far (sequence numbers are 0-based)."""
        return self._seq

    def close(self) -> None:
        self.sink.close()


# ---------------------------------------------------------------------------
# The installed sinks. ``_active`` is the single check of the disabled
# fast path; ``_emitting`` marks a thread handing a record to a sink.

#: The always-installed disabled recorder; instrumentation sees this
#: unless a run is explicitly being traced.
_NULL_RECORDER = TraceRecorder()
_recorder: TraceRecorder = _NULL_RECORDER
_profiler: Optional[Profiler] = None
_active = False
_emitting = threading.local()

_KEEP = object()


def span(name: str, **attrs) -> Union[Span, _NullSpan]:
    """A context manager timing one named region into the installed
    sinks; the shared no-op span when there are none."""
    if not _active:
        return _NULL_SPAN
    recorder = _recorder
    if not recorder.enabled or getattr(_emitting, "active", False):
        recorder = None
    if recorder is None and _profiler is None:
        return _NULL_SPAN
    return Span(name, attrs, recorder, _profiler)


def get_recorder() -> TraceRecorder:
    """The process-wide recorder instrumentation should use."""
    return _recorder


def current() -> Tuple[TraceRecorder, Optional[Profiler]]:
    """The installed ``(recorder, profiler)``; the recorder is the
    disabled one and the profiler ``None`` when that sink is off."""
    return _recorder, _profiler


def install(
    recorder=_KEEP, profiler=_KEEP
) -> Tuple[TraceRecorder, Optional[Profiler]]:
    """Swap the installed sinks; returns the previous pair, so
    ``install(*previous)`` restores it.

    An omitted argument keeps that sink; ``None`` turns it off.
    """
    global _recorder, _profiler, _active
    previous = (_recorder, _profiler)
    if recorder is not _KEEP:
        _recorder = recorder if recorder is not None else _NULL_RECORDER
    if profiler is not _KEEP:
        _profiler = profiler
    _active = _recorder.enabled or _profiler is not None
    return previous


@contextmanager
def recording(
    target: Union[TraceSink, str, Path, None] = None,
    capacity: int = 65536,
) -> Iterator[TraceRecorder]:
    """Trace everything inside the block.

    ``target`` selects the sink: a path records to a JSONL file, an
    explicit :class:`TraceSink` is used as-is, and ``None`` records to
    an in-memory ring buffer of ``capacity`` records. The previous
    recorder is restored (and this sink closed) on exit.
    """
    if target is None:
        sink: TraceSink = MemorySink(capacity)
    elif isinstance(target, (str, Path)):
        sink = FileSink(target)
    else:
        sink = target
    recorder = TraceRecorder(sink)
    previous, _ = install(recorder)
    try:
        yield recorder
    finally:
        install(previous)
        recorder.close()


@contextmanager
def profiling(profiler: Optional[Profiler] = None) -> Iterator[Profiler]:
    """Profile everything inside the block into a fresh (or given)
    profiler, restoring the previous profiler and freezing this one's
    wall-clock window on exit::

        with obs.profiling() as prof:
            run_campaign()
        print(format_profile_report(prof.as_dict()))
    """
    profiler = profiler if profiler is not None else Profiler()
    _, previous = install(profiler=profiler)
    try:
        yield profiler
    finally:
        profiler.stop()
        install(profiler=previous)
