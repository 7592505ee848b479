"""Trace sinks: where serialized trace records go.

A sink receives finished record dicts from a
:class:`~repro.obs.trace.TraceRecorder` and either drops them
(:class:`NullSink`), keeps the most recent N in memory
(:class:`MemorySink`, a ring buffer), or streams them to a JSONL file
(:class:`FileSink`). Sinks own serialization concerns; recorders own
timing and record assembly.

The module is stdlib-only by design — observability sits below every
other layer of the repository and must not pull the numeric stack in.
"""

from __future__ import annotations

import errno
import json
import os
import warnings
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, TextIO, Union

__all__ = [
    "TraceSink",
    "NullSink",
    "MemorySink",
    "FileSink",
    "atomic_writer",
    "fsync_dir",
    "write_atomic",
    "write_jsonl",
    "read_jsonl",
]

_io_shim_module = None


def _io_shim():
    """The installed storage-fault shim (imported lazily).

    This module sits below nearly everything else; importing
    ``repro.faults`` at module scope would create a cycle, so the shim
    module is resolved on first use and cached.
    """
    global _io_shim_module
    if _io_shim_module is None:
        from repro.faults import io as _faults_io

        _io_shim_module = _faults_io
    return _io_shim_module.get_shim()


#: One-shot latch: the filesystem rejected directory fsync entirely
#: (EINVAL/ENOTSUP — overlay and some network mounts). Once tripped,
#: further directory fsyncs are skipped instead of re-failing.
_dir_fsync_unsupported = False


def _reset_dir_fsync_latch() -> None:
    """Re-arm directory fsync (test hook)."""
    global _dir_fsync_unsupported
    _dir_fsync_unsupported = False


_FSYNC_UNSUPPORTED_ERRNOS = tuple(
    code
    for code in (
        errno.EINVAL,
        getattr(errno, "ENOTSUP", None),
        getattr(errno, "EOPNOTSUPP", None),
    )
    if code is not None
)


def fsync_dir(path: Union[str, Path]) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    ``os.replace`` makes a rename atomic with respect to crashes, but
    the *directory entry* itself only becomes durable once the parent
    directory is fsynced — without it a power cut can roll the rename
    back and resurrect the old file (or nothing at all). Platforms
    that refuse ``open()`` on directories are tolerated silently, and
    filesystems that reject directory fsync outright (EINVAL/ENOTSUP,
    e.g. some overlay or network mounts) degrade to a one-shot warning
    instead of killing the campaign; the rename is still atomic there,
    just not power-loss durable.
    """
    global _dir_fsync_unsupported
    if _dir_fsync_unsupported:
        return
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        _io_shim().fsync(fd, site="sinks.dir.fsync")
    except OSError as exc:
        if exc.errno in _FSYNC_UNSUPPORTED_ERRNOS:
            _dir_fsync_unsupported = True
            warnings.warn(
                "directory fsync is unsupported on this filesystem "
                f"({os.fspath(path)}: {exc.strerror or exc}); renames "
                "stay atomic but are not power-loss durable — "
                "skipping further directory fsyncs",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            raise
    finally:
        os.close(fd)


class _ShimWriter:
    """File-handle proxy routing ``write`` through the installed shim.

    Only wrapped around :func:`atomic_writer` handles while a fault or
    crash-point shim is active — the default path hands callers the
    raw handle, so the disabled-shim cost stays zero per byte.
    """

    def __init__(self, handle: TextIO, site: str) -> None:
        self._handle = handle
        self._site = site

    def write(self, text: str) -> None:
        _io_shim().write(self._handle, text, site=self._site)

    def __getattr__(self, name: str):
        return getattr(self._handle, name)


@contextmanager
def atomic_writer(
    path: Union[str, Path], encoding: str = "utf-8"
) -> Iterator[TextIO]:
    """Open a temporary sibling of ``path`` for writing; commit on exit.

    The handle writes to ``<name>.tmp<pid>`` in the target directory.
    On clean exit the data is flushed, fsynced, and atomically renamed
    over ``path`` (``os.replace``), and the parent directory is fsynced
    so the rename itself is durable; on error the temporary file is
    removed and ``path`` is left exactly as it was. A killed process
    therefore never leaves a truncated file at the final path.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    shim = _io_shim()
    try:
        with tmp.open("w", encoding=encoding) as handle:
            if shim.active:
                yield _ShimWriter(handle, "sinks.atomic.write")  # type: ignore[misc]
            else:
                yield handle
            handle.flush()
            shim.fsync(handle.fileno(), site="sinks.atomic.fsync")
        shim.replace(tmp, path, site="sinks.atomic.replace")
        fsync_dir(path.parent)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise


def write_atomic(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> Path:
    """Write ``text`` to ``path`` crash-safely (tmp + fsync + replace)."""
    path = Path(path)
    with atomic_writer(path, encoding=encoding) as handle:
        handle.write(text)
    return path


def _json_default(value):
    """Fallback encoder for non-JSON-native values.

    Numpy scalars expose ``item()``; everything else degrades to its
    ``str`` so a trace write never raises mid-run.
    """
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except Exception:  # pragma: no cover - defensive
            pass
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return str(value)


def encode_record(record: Dict) -> str:
    """One trace record as a compact JSON line (no trailing newline)."""
    return json.dumps(record, default=_json_default, separators=(",", ":"))


class TraceSink:
    """Receives finished trace records."""

    def emit(self, record: Dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources; emitting afterwards is undefined."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


class NullSink(TraceSink):
    """Drops every record; the disabled-tracing terminal."""

    def emit(self, record: Dict) -> None:  # pragma: no cover - never called
        pass


class MemorySink(TraceSink):
    """Bounded in-memory ring buffer of the most recent records.

    When ``capacity`` is exceeded the oldest records are evicted;
    ``evicted`` counts how many were lost so reports can flag
    truncated traces.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("MemorySink capacity must be positive")
        self.capacity = capacity
        self.evicted = 0
        self.emitted = 0
        self._buffer: deque = deque(maxlen=capacity)

    def emit(self, record: Dict) -> None:
        if len(self._buffer) == self.capacity:
            self.evicted += 1
        self._buffer.append(record)
        self.emitted += 1

    def records(self) -> List[Dict]:
        """The retained records, oldest first."""
        return list(self._buffer)

    def dump(self, path: Union[str, Path]) -> Path:
        """Write the retained records to a JSONL file."""
        return write_jsonl(self._buffer, path)


class FileSink(TraceSink):
    """Streams records to a JSONL file, one object per line.

    Records stream into a ``<name>.part`` sibling; :meth:`close`
    fsyncs and atomically renames it over the final path. A run killed
    mid-trace leaves only the ``.part`` file behind — the final path
    either holds a complete trace or nothing.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.emitted = 0
        self._part_path = self.path.with_name(self.path.name + ".part")
        self._handle = self._part_path.open("w", encoding="utf-8")

    def emit(self, record: Dict) -> None:
        self._handle.write(encode_record(record) + "\n")
        self.emitted += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            os.replace(self._part_path, self.path)
            fsync_dir(self.path.parent)


def write_jsonl(records: Iterable[Dict], path: Union[str, Path]) -> Path:
    """Write an iterable of records as JSONL (atomically: see
    :func:`atomic_writer`)."""
    path = Path(path)
    with atomic_writer(path) as handle:
        for record in records:
            handle.write(encode_record(record) + "\n")
    return path


def read_jsonl(path: Union[str, Path]) -> List[Dict]:
    """Load a JSONL trace file back into record dicts."""
    records: List[Dict] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
