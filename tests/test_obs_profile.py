"""Tests for the hierarchical wall-clock profiler (repro.obs.profile).

Covers the accumulation math of ``obs.span`` regions under a fake
clock, the disabled no-op fast path, install/restore semantics, the
report/collapsed-stack/save formats, cross-thread nesting,
worker-profile merging through the parallel runner, the byte-identity
promise (profiling must never perturb modeled results), and one span
feeding the trace recorder and the profiler at once.
"""

import json
import threading

import pytest

from repro.core.controller import SparseAdaptController
from repro.core.modes import OptimizationMode
from repro.core.training import train_default_model
from repro import obs
from repro.experiments.harness import build_trace
from repro.obs import profile
from repro.runner import PortableJob, SuiteRunner, SupervisorConfig
from repro.transmuter.machine import TransmuterModel


class FakeClock:
    """Deterministic clock: every read advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestAccumulation:
    def test_nested_spans_cum_self_calls(self):
        clock = FakeClock(step=1.0)
        prof = profile.Profiler(clock=clock)
        # Timeline (1 tick per clock read): outer start, inner start,
        # inner end, outer end -> inner cum 1, outer cum 3, self 2.
        with obs.profiling(prof):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        data = prof.as_dict()
        nodes = {tuple(n["path"]): n for n in data["nodes"]}
        assert nodes[("outer",)]["calls"] == 1
        assert nodes[("outer", "inner")]["calls"] == 1
        assert nodes[("outer", "inner")]["cum_s"] == pytest.approx(1.0)
        assert nodes[("outer",)]["cum_s"] == pytest.approx(3.0)
        assert nodes[("outer",)]["self_s"] == pytest.approx(2.0)
        assert nodes[("outer", "inner")]["self_s"] == pytest.approx(1.0)

    def test_sibling_spans_accumulate_calls(self):
        prof = profile.Profiler(clock=FakeClock())
        with obs.profiling(prof):
            for _ in range(3):
                with obs.span("a"):
                    pass
        node = prof.as_dict()["nodes"][0]
        assert node["path"] == ["a"]
        assert node["calls"] == 3

    def test_same_name_different_paths_stay_separate(self):
        prof = profile.Profiler(clock=FakeClock())
        with obs.profiling(prof):
            with obs.span("x"):
                with obs.span("leaf"):
                    pass
            with obs.span("y"):
                with obs.span("leaf"):
                    pass
        paths = {tuple(n["path"]) for n in prof.as_dict()["nodes"]}
        assert ("x", "leaf") in paths and ("y", "leaf") in paths

    def test_self_time_floored_at_zero(self):
        # Children summing past the parent (clock jitter) must not
        # produce negative self time.
        prof = profile.Profiler(clock=FakeClock())
        prof.merge(
            {
                "nodes": [
                    {"path": ["p"], "calls": 1, "cum_s": 1.0},
                    {"path": ["p", "c"], "calls": 1, "cum_s": 5.0},
                ]
            }
        )
        nodes = {tuple(n["path"]): n for n in prof.as_dict()["nodes"]}
        assert nodes[("p",)]["self_s"] == 0.0

    def test_wall_clock_frozen_by_stop(self):
        clock = FakeClock(step=1.0)
        prof = profile.Profiler(clock=clock)
        prof.stop()
        frozen = prof.wall_s
        clock.now += 100.0
        assert prof.wall_s == frozen

    def test_nodes_sorted_by_path(self):
        prof = profile.Profiler(clock=FakeClock())
        with obs.profiling(prof):
            for name in ("zeta", "alpha", "mid"):
                with obs.span(name):
                    pass
        paths = [tuple(n["path"]) for n in prof.as_dict()["nodes"]]
        assert paths == sorted(paths)


class TestInstallAndNullPath:
    def test_default_profiler_is_disabled(self):
        assert obs.current() == (obs.get_recorder(), None)
        assert obs.get_recorder().enabled is False
        assert type(obs.span("x")).__name__ == "_NullSpan"

    def test_disabled_span_is_shared_null_object(self):
        a = obs.span("x")
        b = obs.span("y")
        assert a is b  # no allocation on the disabled path

    def test_profiling_context_installs_and_restores(self):
        before = obs.current()
        with obs.profiling() as prof:
            assert obs.current()[1] is prof
        assert obs.current() == before

    def test_install_returns_previous(self):
        prof = profile.Profiler()
        previous = obs.install(profiler=prof)
        try:
            assert obs.current()[1] is prof
        finally:
            assert obs.install(profiler=None)[1] is prof
        assert previous[1] is None

    def test_module_span_records_into_installed_profiler(self):
        with obs.profiling() as prof:
            with obs.span("recorded"):
                pass
        assert [n["path"] for n in prof.as_dict()["nodes"]] == [["recorded"]]


class TestMerge:
    def test_merge_adds_counts_and_times(self):
        prof = profile.Profiler(clock=FakeClock())
        with obs.profiling(prof):
            with obs.span("a"):
                with obs.span("b"):
                    pass
        exported = prof.as_dict()
        prof.merge(exported)
        nodes = {tuple(n["path"]): n for n in prof.as_dict()["nodes"]}
        assert nodes[("a",)]["calls"] == 2
        assert nodes[("a",)]["cum_s"] == pytest.approx(
            2 * exported["nodes"][0]["cum_s"]
        )

    def test_merge_none_and_disabled_are_noops(self):
        prof = profile.Profiler(clock=FakeClock())
        prof.merge(None)
        assert prof.as_dict()["nodes"] == []
        # Disabled profiling has no profiler to merge into: callers
        # such as the parallel runner skip the merge.
        assert obs.current()[1] is None


class TestReports:
    def _sample(self):
        prof = profile.Profiler(clock=FakeClock())
        with obs.profiling(prof):
            with obs.span("kernel sim;odd"):
                with obs.span("cache"):
                    pass
        return prof.as_dict()

    def test_collapsed_stack_format_and_sanitization(self):
        text = profile.collapsed_stacks(self._sample())
        lines = text.splitlines()
        assert lines == sorted(lines)
        # ';' and space in frame names collapse to '_' so the format's
        # separators stay unambiguous.
        assert any(line.startswith("kernel_sim_odd ") for line in lines)
        assert any(
            line.startswith("kernel_sim_odd;cache ") for line in lines
        )
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert int(value) >= 0

    def test_component_breakdown_groups_by_leaf(self):
        prof = profile.Profiler(clock=FakeClock())
        with obs.profiling(prof):
            with obs.span("a"):
                with obs.span("leaf"):
                    pass
            with obs.span("b"):
                with obs.span("leaf"):
                    pass
        components = profile.component_breakdown(prof.as_dict())
        assert components["leaf"]["calls"] == 2

    def test_format_report_mentions_components_and_coverage(self):
        text = profile.format_profile_report(self._sample())
        assert "of wall-clock" in text
        assert "span tree" in text
        assert "cache" in text

    def test_format_report_top_limits_component_rows(self):
        full = profile.format_profile_report(self._sample())
        limited = profile.format_profile_report(self._sample(), top=1)
        assert len(limited.splitlines()) < len(full.splitlines())

    def test_coverage_fraction_zero_wall(self):
        assert profile.coverage_fraction({"wall_s": 0.0, "nodes": []}) == 0.0


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        prof = profile.Profiler(clock=FakeClock())
        with obs.profiling(prof):
            with obs.span("a"):
                pass
        path = tmp_path / "p.json"
        data = prof.as_dict()
        profile.save_profile(data, path)
        assert profile.load_profile(path) == json.loads(
            json.dumps(data)
        )

    def test_load_rejects_non_profile(self, tmp_path):
        path = tmp_path / "not.json"
        path.write_text('{"hello": 1}\n')
        with pytest.raises(ValueError, match="not a profile"):
            profile.load_profile(path)

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text('{"schema": 99, "wall_s": 0, "nodes": []}\n')
        with pytest.raises(ValueError, match="schema"):
            profile.load_profile(path)


class TestThreads:
    def test_each_thread_nests_from_root(self):
        prof = profile.Profiler()
        with obs.profiling(prof):
            def work(name):
                with obs.span(name):
                    with obs.span("inner"):
                        pass

            threads = [
                threading.Thread(target=work, args=(f"t{i}",))
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        paths = {tuple(n["path"]) for n in prof.as_dict()["nodes"]}
        # Every thread's spans hang off the root, not off a sibling
        # thread's open span.
        for i in range(3):
            assert (f"t{i}",) in paths
            assert (f"t{i}", "inner") in paths


class TestRunnerIntegration:
    def test_parallel_workers_export_and_merge(self, tmp_path):
        # A statics-only plan (no model training) across 2 workers: the
        # workers run their own profilers and the parent merges their
        # span trees, so the campaign profile names the components the
        # *children* executed.
        from repro.runner import CampaignPlan, run_plan

        plan = CampaignPlan.from_dict(
            {
                "name": "prof",
                "defaults": {
                    "scale": 0.15,
                    "schemes": ["Baseline", "Best Avg"],
                },
                "jobs": [
                    {"kernel": "spmspv", "matrix": "P1"},
                    {"kernel": "spmspv", "matrix": "U1"},
                ],
            }
        )
        with obs.profiling() as prof:
            report = run_plan(
                plan,
                config=SupervisorConfig(max_retries=0, backoff_base_s=0.0),
                ledger_path=tmp_path / "prof.jsonl",
                workers=2,
            )
        assert report.counts() == {"ok": 2, "failed": 0}
        names = {
            entry["path"][-1] for entry in prof.as_dict()["nodes"]
        }
        assert "evaluate_job" in names
        # Statics-only plans simulate epochs per-epoch (kernel_sim) on
        # the scalar path and as one grid (epoch_batch) on the fast
        # path; either way the children's simulation spans must merge.
        assert {"kernel_sim", "epoch_batch"} & names
        assert "ledger_io" in names

    def test_unprofiled_workers_send_no_profile(self, tmp_path):
        # Without an installed profiler the worker payload says
        # profile=False and the summaries carry no span trees.
        jobs = [
            PortableJob(
                kind="sleep",
                key=f"s{i}",
                label=f"sleep/{i}",
                index=i,
                payload={"seconds": 0.0, "value": i},
            )
            for i in range(3)
        ]
        runner = SuiteRunner(
            config=SupervisorConfig(max_retries=0, backoff_base_s=0.0),
            workers=2,
        )
        report = runner.run_portable(jobs, plan_key="plain")
        assert report.counts() == {"ok": 3, "failed": 0}
        assert obs.current()[1] is None

    def test_byte_identical_schedule_with_profiling(self):
        trace = build_trace("spmspv", "P1", scale=0.15)
        mode = OptimizationMode.ENERGY_EFFICIENT
        model = train_default_model(mode, kernel="spmspv")
        controller = SparseAdaptController(
            model=model, machine=TransmuterModel(), mode=mode
        )
        plain = controller.run(trace).summary()
        with obs.profiling():
            profiled = controller.run(trace).summary()
        assert profiled == plain


class TestOneSpanBothSinks:
    """``obs.span`` feeds the trace recorder and the profiler at once."""

    def test_nested_span_yields_one_record_and_one_profile_path(self):
        with obs.recording() as recorder, obs.profiling() as prof:
            with obs.span("outer", a=1):
                with obs.span("inner", b=2) as region:
                    region.set(c=3)
        spans = [r for r in recorder.sink.records() if r["type"] == "span"]
        assert [(r["name"], r["attrs"]) for r in spans] == [
            ("inner", {"b": 2, "c": 3}),
            ("outer", {"a": 1}),
        ]
        nodes = {tuple(n["path"]): n for n in prof.as_dict()["nodes"]}
        assert nodes[("outer",)]["calls"] == 1
        assert nodes[("outer", "inner")]["calls"] == 1
        # One clock: the record's duration is the profiled time.
        assert spans[0]["dur_s"] == round(
            nodes[("outer", "inner")]["cum_s"], 9
        )

    def test_file_sink_emission_does_not_recurse(self, tmp_path):
        from repro.obs.sinks import read_jsonl

        path = tmp_path / "trace.jsonl"
        with obs.profiling() as prof:
            with obs.recording(path):
                with obs.span("work"):
                    pass
        # sink_io times each hand-off to the file (header + work) for
        # the profiler only: it is never itself a trace record.
        assert [r["name"] for r in read_jsonl(path)] == ["trace", "work"]
        components = profile.component_breakdown(prof.as_dict())
        assert components["sink_io"]["calls"] == 2
        assert components["work"]["calls"] == 1
