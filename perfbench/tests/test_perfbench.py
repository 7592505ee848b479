"""Tests of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.runner.plan import CampaignPlan, table5_plan  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

GENERATORS = {
    "table5": workloads.table5,
    "upper-bounds": lambda seed: workloads.upper_bounds(seed, "model.json"),
}


def plan_key(raw: dict) -> str:
    return CampaignPlan.from_dict(raw).key()


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_are_deterministic_in_the_seed(name):
    generate = GENERATORS[name]
    assert plan_key(generate(7)) == plan_key(generate(7))
    keys = {plan_key(generate(seed)) for seed in (0, 1, 2, 7)}
    assert len(keys) == 4


def test_table5_at_seed_zero_is_the_builtin_plan():
    assert plan_key(workloads.table5(0)) == table5_plan().key()


def test_upper_bounds_is_the_fig8_set_on_one_model():
    plan = CampaignPlan.from_dict(workloads.upper_bounds(3, "m.json"))
    assert [spec.matrix for spec in plan.jobs] == list(
        workloads.SPMSPM_MATRICES
    )
    assert {spec.kernel for spec in plan.jobs} == {"spmspm"}
    assert {spec.model for spec in plan.jobs} == {"m.json"}
    assert {spec.seed for spec in plan.jobs} == {3}
    assert "Oracle" in plan.jobs[0].schemes


def test_workload_names_match_benchmark_json():
    declared = sorted(w["name"] for w in SPEC["workloads"])
    assert declared == sorted(run.WORKLOADS)


def test_end_to_end_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    printed = {name: unit for name, (unit, _) in run.END_TO_END.items()}
    assert printed == declared


def fake_dump(**spans) -> dict:
    return {
        "pid": 1,
        "wall_s": 2.0,
        "spans": {name: [1, t, t] for name, t in spans.items()},
        "counts": {},
        "job_walls": [0.5],
        "shard_walls": [],
        "memo": [3.0, 1.0],
    }


def test_per_layer_names_and_units_match_benchmark_json():
    metrics = layers.per_layer_metrics(
        [[fake_dump(**{"runner.campaign": 1.0, "training": 0.5})]], 1
    )
    metrics["trace.overhead_pct"] = 1.0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: run.layer_unit(name) for name in metrics} == declared


def test_per_layer_ratios_and_overhead():
    dump = fake_dump(**{"runner.campaign": 1.0, "training": 0.5})
    dump["counts"] = {"training.misses": 1.0}
    metrics = layers.per_layer_metrics([[dump]], 1)
    assert metrics["training.cache_hit_ratio"] == 0.0
    assert metrics["fastpath.memo_hit_ratio"] == 0.75
    assert metrics["runner.job_overhead_s"] == pytest.approx(0.5)
    assert metrics["trace.coverage"] == pytest.approx(0.75)


def test_profile_components_rank_first():
    metrics = {"training.self_s": 1.0, "dataset.self_s": 2.0,
               "sparse.load.self_s": 1.5, "fastpath.grid.self_s": 0.5,
               "core.controller.self_s": 0.4}
    ranking = layers.component_ranking(metrics)
    assert ranking[:3] == ["model_training", "build_trace", "epoch_batch"]


REPORT = {
    "name": "table5",
    "counts": {"ok": 2, "failed": 0},
    "duration_s": 1.5,
    "n_resumed": 0,
    "rows": [
        {"index": i, "key": f"k{i}", "status": "ok", "duration_s": 0.1 * i,
         "result": {"n_epochs": 10, "schemes": {
             "SparseAdapt": {"gflops_per_watt": 0.8},
             "Oracle": {"gflops_per_watt": 1.0}}}}
        for i in range(2)
    ],
}


def test_check_ignores_wall_clock_fields():
    other = copy.deepcopy(REPORT)
    other["duration_s"] = 9.0
    other["rows"][1]["duration_s"] = 9.0
    assert check.failed_jobs(other, 2, REPORT) == 0


def test_check_flags_an_altered_report():
    altered = copy.deepcopy(REPORT)
    altered["rows"][1]["result"]["n_epochs"] = 11
    assert check.failed_jobs(altered, 2, REPORT) == 1
    renamed = copy.deepcopy(REPORT)
    renamed["name"] = "other"
    assert check.failed_jobs(renamed, 2, REPORT) == 2
    assert check.failed_jobs(None, 2, REPORT) == 2


def test_check_requires_resume_to_execute_nothing():
    resumed = copy.deepcopy(REPORT)
    resumed["n_resumed"] = 2
    assert check.failed_jobs(resumed, 2, REPORT, resumed=True) == 0
    assert check.failed_jobs(REPORT, 2, REPORT, resumed=True) == 2


def test_simulated_quantities():
    assert check.simulated_epochs(REPORT) == 40
    assert check.oracle_gap_pct(REPORT) == pytest.approx(20.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        SPEC["command"] + ["--workload", "table5-cold", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_traced_attribution_agrees_with_the_profiler():
    """One traced cold run (about a minute): the three largest layers by
    self time rank as ``repro suite-run --profile`` ranks them."""
    out = subprocess.run(
        SPEC["command"] + ["--workload", "table5-cold", "--seed", "0",
                           "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert "agree" in out.stdout and "DISAGREE" not in out.stdout
    assert result["metrics"]["trace.coverage"]["value"] > 0.9
