"""Tests for TraceRecorder, spans, and sinks (repro.obs.trace/sinks)."""

import json

import pytest

from repro import obs
from repro.obs.sinks import FileSink, MemorySink, NullSink, read_jsonl
from repro.obs.trace import (
    SCHEMA_VERSION,
    TraceRecorder,
    get_recorder,
    install,
    recording,
    span,
)


def _payload(records):
    """Records minus the schema header every enabled recorder emits."""
    return [r for r in records if r["type"] != "header"]


class TestDisabledFastPath:
    def test_default_recorder_is_disabled(self):
        recorder = get_recorder()
        assert recorder.enabled is False
        assert isinstance(recorder.sink, NullSink)

    def test_disabled_event_and_span_emit_nothing(self):
        recorder = TraceRecorder()
        previous, _ = install(recorder)
        try:
            recorder.event("x", a=1)
            with span("y", b=2) as region:
                region.set(c=3)
        finally:
            install(previous)
        assert recorder.n_emitted == 0

    def test_disabled_span_is_shared_noop(self):
        previous, _ = install(TraceRecorder())
        try:
            assert span("a") is span("b")
        finally:
            install(previous)


class TestRecorder:
    def test_enabled_recorder_emits_header_first(self):
        sink = MemorySink()
        TraceRecorder(sink)
        (header,) = sink.records()
        assert header["type"] == "header"
        assert header["name"] == "trace"
        assert header["seq"] == 0
        assert header["attrs"] == {"schema_version": SCHEMA_VERSION}

    def test_event_record_shape(self):
        sink = MemorySink()
        recorder = TraceRecorder(sink)
        recorder.event("reconfig", epoch=3, cost_s=1e-5)
        (record,) = _payload(sink.records())
        assert record["type"] == "event"
        assert record["name"] == "reconfig"
        assert record["attrs"] == {"epoch": 3, "cost_s": 1e-5}
        assert record["seq"] == 1  # seq 0 is the schema header
        assert record["ts"] >= 0.0
        assert "dur_s" not in record

    def test_span_times_and_collects_attrs(self):
        sink = MemorySink()
        with recording(sink):
            with span("epoch", epoch=0) as region:
                region.set(config="cfg", time_s=1e-6)
        (record,) = _payload(sink.records())
        assert record["type"] == "span"
        assert record["dur_s"] >= 0.0
        assert record["attrs"]["epoch"] == 0
        assert record["attrs"]["config"] == "cfg"

    def test_sequence_numbers_monotonic(self):
        sink = MemorySink()
        recorder = TraceRecorder(sink)
        for i in range(5):
            recorder.event("e", i=i)
        assert [r["seq"] for r in sink.records()] == list(range(6))


class TestMemorySink:
    def test_ring_buffer_evicts_oldest(self):
        sink = MemorySink(capacity=4)
        recorder = TraceRecorder(sink)
        for i in range(10):
            recorder.event("e", i=i)
        kept = sink.records()
        assert len(kept) == 4
        assert sink.evicted == 7  # 10 events + header, capacity 4
        assert sink.emitted == 11
        assert [r["attrs"]["i"] for r in kept] == [6, 7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MemorySink(capacity=0)

    def test_dump_writes_jsonl(self, tmp_path):
        sink = MemorySink()
        TraceRecorder(sink).event("e", value=1.5)
        path = sink.dump(tmp_path / "trace.jsonl")
        assert _payload(read_jsonl(path))[0]["attrs"] == {"value": 1.5}


class TestFileSink:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = FileSink(path)
        with recording(sink) as recorder:
            recorder.event("start", noise_seed=7)
            with span("epoch", epoch=0) as region:
                region.set(gflops=1.25)
        records = _payload(read_jsonl(path))
        assert len(records) == 2
        assert records[0]["name"] == "start"
        assert records[0]["attrs"]["noise_seed"] == 7
        assert records[1]["attrs"]["gflops"] == 1.25
        # every line is standalone JSON
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_non_jsonable_attrs_degrade_to_strings(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = FileSink(path)
        TraceRecorder(sink).event("e", what={"a", "b"}, obj=object())
        sink.close()
        (record,) = _payload(read_jsonl(path))
        assert record["attrs"]["what"] == ["a", "b"]
        assert "object" in record["attrs"]["obj"]

    def test_streams_to_part_file_until_closed(self, tmp_path):
        """A killed run leaves only the ``.part`` file — the final path
        either holds a complete trace or nothing."""
        path = tmp_path / "trace.jsonl"
        sink = FileSink(path)
        sink.emit({"seq": 0})
        assert not path.exists()
        assert path.with_name("trace.jsonl.part").exists()
        sink.close()
        assert path.exists()
        assert not path.with_name("trace.jsonl.part").exists()
        assert read_jsonl(path) == [{"seq": 0}]


class TestAtomicWrites:
    def test_write_atomic_leaves_no_temp_files(self, tmp_path):
        from repro.obs.sinks import write_atomic

        path = tmp_path / "out.json"
        write_atomic(path, '{"ok": 1}\n')
        assert path.read_text(encoding="utf-8") == '{"ok": 1}\n'
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_preserves_previous_contents(self, tmp_path):
        from repro.obs.sinks import atomic_writer

        path = tmp_path / "out.json"
        path.write_text("previous", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with atomic_writer(path) as handle:
                handle.write("half-writ")
                raise RuntimeError("killed mid-write")
        assert path.read_text(encoding="utf-8") == "previous"
        assert list(tmp_path.iterdir()) == [path]

    def test_model_save_is_atomic(self, tmp_path, model_ee, monkeypatch):
        """An interrupted ``save_model`` never truncates an existing
        model file on disk."""
        import repro.core.persistence as persistence

        path = tmp_path / "model.json"
        persistence.save_model(model_ee, path)
        original = path.read_text(encoding="utf-8")
        loaded = persistence.load_model(path)
        assert loaded.describe() == model_ee.describe()

        def exploding_dumps(*args, **kwargs):
            raise RuntimeError("interrupted")

        monkeypatch.setattr(persistence.json, "dumps", exploding_dumps)
        with pytest.raises(RuntimeError):
            persistence.save_model(model_ee, path)
        assert path.read_text(encoding="utf-8") == original
        assert list(tmp_path.iterdir()) == [path]


class TestInstallAndRecording:
    def test_install_swaps_and_restores(self):
        recorder = TraceRecorder(MemorySink())
        previous = install(recorder)
        try:
            assert get_recorder() is recorder
        finally:
            install(*previous)
        assert get_recorder() is previous[0]

    def test_recording_with_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with recording(path) as recorder:
            assert get_recorder() is recorder
            recorder.event("e")
        assert get_recorder().enabled is False
        assert len(_payload(read_jsonl(path))) == 1

    def test_recording_default_is_ring_buffer(self):
        with recording(None, capacity=2) as recorder:
            for i in range(5):
                recorder.event("e", i=i)
        assert isinstance(recorder.sink, MemorySink)
        assert len(recorder.sink.records()) == 2

    def test_recording_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.recording(None):
                raise RuntimeError("boom")
        assert get_recorder().enabled is False


class TestSchemaTwoTraces:
    """Traces written before component spans were trace records
    (schema 2, ``harness.build_trace``) still load in every reader."""

    @pytest.fixture(scope="class")
    def schema2_path(self, tmp_path_factory):
        from repro.core.controller import SparseAdaptController
        from repro.core.modes import OptimizationMode
        from repro.core.training import train_default_model
        from repro.experiments.harness import build_trace
        from repro.obs.sinks import write_jsonl
        from repro.transmuter.machine import TransmuterModel

        trace = build_trace("spmspv", "P1", scale=0.15)
        mode = OptimizationMode.ENERGY_EFFICIENT
        controller = SparseAdaptController(
            model=train_default_model(mode, kernel="spmspv"),
            machine=TransmuterModel(),
            mode=mode,
        )
        with recording() as recorder:
            controller.run(trace)
        records = [
            r
            for r in recorder.sink.records()
            if r["type"] != "span" or r["name"] == "epoch"
        ]
        records[0]["attrs"]["schema_version"] = 2
        records.insert(
            1,
            {
                "seq": 0,
                "ts": 0.0,
                "type": "span",
                "name": "harness.build_trace",
                "dur_s": 0.01,
                "attrs": {
                    "kernel": "spmspv",
                    "matrix": "P1",
                    "scale": 0.15,
                    "n_epochs": trace.n_epochs,
                },
            },
        )
        path = tmp_path_factory.mktemp("schema2") / "v2.jsonl"
        write_jsonl(records, path)
        return path

    def test_trace_report(self, schema2_path, capsys):
        from repro.cli import main

        assert main(["trace-report", str(schema2_path)]) == 0
        assert "epoch timeline" in capsys.readouterr().out

    def test_diff(self, schema2_path, capsys):
        from repro.cli import main

        assert main(["diff", str(schema2_path), str(schema2_path)]) == 0
        assert "configurations identical" in capsys.readouterr().out

    def test_explain(self, schema2_path, capsys):
        from repro.cli import main

        assert main(["explain", str(schema2_path)]) == 0
        assert "leaf predicts" in capsys.readouterr().out
