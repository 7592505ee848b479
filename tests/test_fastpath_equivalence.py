"""Differential suite: the fast path must be bit-identical to the
scalar reference.

Every fast-path component (compiled decision tables, the vectorized
epoch grid, the transition matrices, the controller decision memo, the
pure-function memos) is run against the scalar code it replaces on the
same inputs, and the outputs are compared with ``==`` — not
``pytest.approx``. The promise under test is the one
``docs/performance.md`` documents: enabling ``REPRO_FASTPATH`` changes
wall-clock and nothing else, down to the last float bit in every report
byte.

The comparisons are seeded property tests: each case loops over a
handful of seeds, regenerating models/configs/traces per seed, so the
equivalence is exercised across a family of inputs rather than one
golden instance.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import fastpath
from repro.core.controller import SparseAdaptController
from repro.core.modes import OptimizationMode
from repro.core.training import train_default_model
from repro.experiments.harness import (
    EvaluationContext,
    build_trace,
    evaluate_schemes,
)
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.fastpath.tables import compile_estimator, compile_forest
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.random_forest import RandomForestClassifier
from repro.transmuter.config import sample_configs
from repro.transmuter.machine import TransmuterModel

SEEDS = (0, 1, 2)

ALL_SCHEMES = (
    "Baseline",
    "Best Avg",
    "Max Cfg",
    "SparseAdapt",
    "Ideal Static",
    "Ideal Greedy",
    "Oracle",
    "ProfileAdapt Naive",
    "ProfileAdapt Ideal",
)


def _result_tuple(result):
    """Every float an EpochResult carries, as an exactly-comparable tuple."""
    energy = result.energy
    return (
        result.time_s,
        result.core_time_s,
        result.memory_time_s,
        result.dram_read_bytes,
        result.dram_write_bytes,
        result.flops,
        result.fp_ops,
        energy.core_dynamic,
        energy.l1_dynamic,
        energy.l2_dynamic,
        energy.xbar_dynamic,
        energy.dram,
        energy.leakage,
        tuple(sorted(result.counters.as_dict().items())),
    )


def _schedule_tuple(schedule):
    """Exact per-epoch content of a ScheduleResult."""
    return (
        schedule.scheme,
        schedule.overhead_time_s,
        schedule.overhead_energy_j,
        tuple(
            (
                record.index,
                record.config,
                _result_tuple(record.result),
                None
                if record.reconfig is None
                else (
                    record.reconfig.time_s,
                    record.reconfig.energy_j,
                    tuple(record.reconfig.changed),
                ),
            )
            for record in schedule.records
        ),
    )


class TestCompiledTables:
    """Flat decision tables vs. the recursive estimator walkers."""

    def _dataset(self, seed: int, n: int = 200, features: int = 7):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, features))
        labels = (
            (rows[:, 0] + rows[:, 1] ** 2 - rows[:, 2] > 0.2).astype(int)
            + (rows[:, 3] > 0.5).astype(int)
        )
        return rows, labels

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tree_predictions_identical(self, seed):
        rows, labels = self._dataset(seed)
        tree = DecisionTreeClassifier(max_depth=6).fit(rows, labels)
        table = compile_estimator(tree)
        assert table is not None
        queries = np.random.default_rng(seed + 100).normal(
            size=(64, rows.shape[1])
        )
        assert (
            table.predict_batch(queries).tolist()
            == tree.predict(queries).tolist()
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_forest_predictions_identical(self, seed):
        rows, labels = self._dataset(seed)
        forest = RandomForestClassifier(
            n_estimators=7, max_depth=5, random_state=seed
        ).fit(rows, labels)
        table = compile_estimator(forest)
        assert table is not None
        queries = np.random.default_rng(seed + 200).normal(
            size=(64, rows.shape[1])
        )
        assert (
            table.predict_batch(queries).tolist()
            == forest.predict(queries).tolist()
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_row_walker_matches_batch(self, seed):
        rows, labels = self._dataset(seed)
        tree = DecisionTreeClassifier(max_depth=6).fit(rows, labels)
        table = compile_estimator(tree)
        queries = np.random.default_rng(seed + 300).normal(
            size=(32, rows.shape[1])
        )
        batch = table.predict_batch(queries).tolist()
        rows_out = [table.predict_row(q.tolist()) for q in queries]
        assert rows_out == batch

    def test_compiled_model_matches_scalar_and_provenance(self):
        """model.predict (compiled) == model.predict (scalar) ==
        predict_with_provenance, per decision, over real telemetry."""
        mode = OptimizationMode.ENERGY_EFFICIENT
        model = train_default_model(mode, kernel="spmspv")
        machine = TransmuterModel()
        trace = build_trace("spmspv", "R09", scale=0.15)
        configs = sample_configs(4, seed=3)
        for config in configs:
            for workload in trace.epochs[:6]:
                counters = machine.simulate_epoch(workload, config).counters
                with fastpath.overridden(True):
                    compiled = model.predict(counters, config)
                with fastpath.overridden(False):
                    scalar = model.predict(counters, config)
                    traced, provenance = model.predict_with_provenance(
                        counters, config
                    )
                assert compiled == scalar == traced
                for name, record in provenance.items():
                    assert record["predicted"] == compiled.get(name)

    def test_compile_forest_covers_all_parameters(self):
        mode = OptimizationMode.ENERGY_EFFICIENT
        model = train_default_model(mode, kernel="spmspv")
        tables = compile_forest(model)
        assert set(tables) == set(model.predicted_parameters())


class TestEpochGrid:
    """Vectorized epoch x config grid vs. machine.simulate_epoch."""

    @pytest.mark.parametrize(
        "kernel,matrix,l1_type",
        [
            ("spmspm", "R03", "cache"),
            ("spmspv", "R11", "cache"),
            ("spmspm", "R05", "spm"),
        ],
    )
    def test_grid_cells_bit_identical(self, kernel, matrix, l1_type):
        from repro.fastpath.epochs import EpochGrid

        machine = TransmuterModel()
        trace = build_trace(kernel, matrix, scale=0.12)
        workloads = trace.epochs[:8]
        for seed in SEEDS:
            configs = sample_configs(10, l1_type=l1_type, seed=seed)
            grid = EpochGrid(machine, workloads, configs)
            for i, workload in enumerate(workloads):
                for j, config in enumerate(configs):
                    scalar = machine.simulate_epoch(workload, config)
                    assert _result_tuple(grid.result(i, j)) == _result_tuple(
                        scalar
                    ), (i, j, config)

    def test_mixed_l1_type_batch(self):
        """One grid over interleaved cache and SPM configurations."""
        from repro.fastpath.epochs import EpochGrid

        machine = TransmuterModel()
        trace = build_trace("spmspv", "R10", scale=0.12)
        workload = trace.epochs[0]
        configs = []
        for cache_cfg, spm_cfg in zip(
            sample_configs(6, l1_type="cache", seed=5),
            sample_configs(6, l1_type="spm", seed=6),
        ):
            configs += [cache_cfg, spm_cfg]
        grid = EpochGrid(machine, [workload], configs)
        for j, config in enumerate(configs):
            result = grid.result(0, j)
            scalar = machine.simulate_epoch(workload, config)
            assert _result_tuple(result) == _result_tuple(scalar), config

    def test_times_energies_arrays_match_cells(self):
        from repro.fastpath.epochs import EpochGrid

        machine = TransmuterModel()
        trace = build_trace("spmspm", "R02", scale=0.12)
        configs = sample_configs(6, seed=9)
        grid = EpochGrid(machine, trace.epochs[:5], configs)
        for i in range(5):
            for j in range(len(configs)):
                cell = grid.result(i, j)
                assert grid.times[i, j] == cell.time_s
                assert grid.energies[i, j] == cell.energy_j

    @pytest.mark.parametrize(
        "workloads,mixed",
        [(8, False), (8, True), (1, False), (1, True)],
        ids=["table", "mixed-table", "row", "mixed-row"],
    )
    def test_cells_independent_of_read_order(self, workloads, mixed):
        """Cells read in a shuffled order equal a fresh grid's cells."""
        from repro.fastpath.epochs import EpochGrid

        machine = TransmuterModel()
        epochs = build_trace("spmspm", "R03", scale=0.12).epochs[:workloads]
        configs = sample_configs(6, l1_type="cache", seed=4)
        if mixed:
            spm = sample_configs(6, l1_type="spm", seed=8)
            configs = [cfg for pair in zip(configs, spm) for cfg in pair]
        cells = [(i, j) for i in range(len(epochs)) for j in range(len(configs))]
        fresh = EpochGrid(machine, epochs, configs)
        expected = {cell: _result_tuple(fresh.result(*cell)) for cell in cells}
        for seed in SEEDS:
            grid = EpochGrid(machine, epochs, configs)
            for k in np.random.default_rng(seed).permutation(len(cells)):
                cell = cells[k]
                assert _result_tuple(grid.result(*cell)) == expected[cell], cell


class TestTransitionMatrices:
    """Vectorized transition matrices vs. one scalar cost per pair."""

    @staticmethod
    def _scalar(configs, power, bandwidth_gbps, hint):
        from repro.transmuter.reconfig import reconfiguration_cost

        n = len(configs)
        times = np.zeros((n, n))
        energies = np.zeros((n, n))
        with fastpath.overridden(False):
            for i, source in enumerate(configs):
                for j, target in enumerate(configs):
                    if i != j:
                        cost = reconfiguration_cost(
                            source, target, power, bandwidth_gbps,
                            dirty_bytes_hint=hint,
                        )
                        times[i, j] = cost.time_s
                        energies[i, j] = cost.energy_j
        return times, energies

    @pytest.mark.parametrize("l1_type", ["cache", "spm"])
    @pytest.mark.parametrize("geometry", [(4, 4), (2, 8)], ids=["4x4", "2x8"])
    def test_bitwise_equal_to_scalar(self, l1_type, geometry):
        from repro.fastpath.transitions import transition_matrices
        from repro.transmuter.power import PowerModel

        power = PowerModel(*geometry)
        # Above every provisioned capacity: the hint never binds.
        above = 2.0 * 64 * 1024 * max(power.n_gpes, power.n_tiles)
        for seed in (0, 1, 7):
            configs = sample_configs(24, l1_type=l1_type, seed=seed)
            for bandwidth in (0.1, 1.0, 100.0):
                for hint in (None, 0.0, above):
                    fast = transition_matrices(configs, power, bandwidth, hint)
                    scalar = self._scalar(configs, power, bandwidth, hint)
                    for got, want in zip(fast, scalar):
                        np.testing.assert_array_equal(
                            got.view(np.int64), want.view(np.int64)
                        )

    def test_repeated_configs_cost_nothing(self):
        from repro.fastpath.transitions import transition_matrices
        from repro.transmuter.power import PowerModel

        configs = sample_configs(5, seed=3)
        configs = configs + configs[:2]
        power = PowerModel()
        fast = transition_matrices(configs, power, 1.0, 512.0)
        scalar = self._scalar(configs, power, 1.0, 512.0)
        assert fast[0][0, 5] == fast[1][6, 1] == 0.0
        for got, want in zip(fast, scalar):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_mixed_l1_types_rejected_like_scalar(self):
        from repro.errors import ConfigError
        from repro.fastpath.transitions import transition_matrices
        from repro.transmuter.power import PowerModel

        configs = sample_configs(3, seed=1) + sample_configs(
            3, l1_type="spm", seed=1
        )
        with pytest.raises(ConfigError) as fast:
            transition_matrices(configs, PowerModel(), 1.0)
        with pytest.raises(ConfigError) as scalar:
            self._scalar(configs, PowerModel(), 1.0, None)
        assert str(fast.value) == str(scalar.value)

    @pytest.mark.parametrize("l1_type", ["cache", "spm"])
    def test_table_matrices_both_legs(self, l1_type):
        from repro.baselines.table import EpochTable

        trace = build_trace("spmspm", "R04", scale=0.12)
        for seed in SEEDS:
            legs = []
            for flag in (True, False):
                with fastpath.overridden(flag):
                    table = EpochTable(
                        TransmuterModel(bandwidth_gbps=2.0),
                        trace,
                        n_samples=16,
                        l1_type=l1_type,
                        seed=seed,
                    )
                    legs.append(table.reconfig_matrices())
            for got, want in zip(*legs):
                np.testing.assert_array_equal(
                    got.view(np.int64), want.view(np.int64)
                )


class TestSchemes:
    """Whole schemes, both legs, exact schedule equality."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_schemes_identical(self, seed):
        mode = OptimizationMode.ENERGY_EFFICIENT
        model = train_default_model(mode, kernel="spmspm")

        def leg(flag):
            with fastpath.overridden(flag):
                context = EvaluationContext(
                    trace=build_trace("spmspm", "R04", scale=0.12),
                    machine=TransmuterModel(),
                    mode=mode,
                    model=model,
                    seed=seed,
                )
                results = evaluate_schemes(context, schemes=ALL_SCHEMES)
                return {
                    name: _schedule_tuple(result)
                    for name, result in results.items()
                }

        assert leg(True) == leg(False)

    def test_controller_memo_identical_decisions(self):
        """The decision memo must change hit counters, not schedules."""
        mode = OptimizationMode.ENERGY_EFFICIENT
        model = train_default_model(mode, kernel="spmspv")
        trace = build_trace("spmspv", "R12", scale=0.15)

        def leg(flag):
            with fastpath.overridden(flag):
                controller = SparseAdaptController(
                    model=model, machine=TransmuterModel(), mode=mode
                )
                return _schedule_tuple(controller.run(trace))

        assert leg(True) == leg(False)

    def test_memo_invalidated_on_model_swap(self):
        mode = OptimizationMode.ENERGY_EFFICIENT
        model_a = train_default_model(mode, kernel="spmspv")
        model_b = train_default_model(mode, kernel="spmspm")
        trace = build_trace("spmspv", "R13", scale=0.12)
        with fastpath.overridden(True):
            controller = SparseAdaptController(
                model=model_a, machine=TransmuterModel(), mode=mode
            )
            controller.run(trace)
            controller.model = model_b
            swapped = _schedule_tuple(controller.run(trace))
        with fastpath.overridden(False):
            reference = _schedule_tuple(
                SparseAdaptController(
                    model=model_b, machine=TransmuterModel(), mode=mode
                ).run(trace)
            )
        assert swapped == reference


class TestFaults:
    """Equivalence must hold under active fault schedules: the memo
    keys on the *observed* (possibly faulted) counters, so seeded
    injection perturbs both legs identically."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_faulted_controller_identical(self, seed):
        mode = OptimizationMode.ENERGY_EFFICIENT
        model = train_default_model(mode, kernel="spmspm")
        trace = build_trace("spmspm", "R06", scale=0.12)
        schedule = FaultSchedule(
            specs=(
                FaultSpec(kind="counter_noise", severity=0.4),
                FaultSpec(kind="reconfig_drop", rate=0.3),
            ),
            seed=seed,
        )

        def leg(flag):
            with fastpath.overridden(flag):
                controller = SparseAdaptController(
                    model=model,
                    machine=TransmuterModel(),
                    mode=mode,
                    faults=schedule,
                )
                result = controller.run(trace)
                return (
                    _schedule_tuple(result),
                    dict(controller.last_run_stats),
                )

        assert leg(True) == leg(False)


class TestCampaignBytes:
    """A table5-mini campaign must serialize to the same bytes on both
    legs — serial, with --workers 2, and across a kill/resume seam."""

    SCHEMES = (
        "Baseline",
        "Best Avg",
        "SparseAdapt",
        "Ideal Static",
        "Ideal Greedy",
        "Oracle",
    )

    def _plan(self):
        from repro.runner import CampaignPlan

        return CampaignPlan.from_dict(
            {
                "name": "table5-mini",
                "defaults": {"scale": 0.12, "schemes": list(self.SCHEMES)},
                "jobs": [
                    {"kernel": "spmspm", "matrix": "R01"},
                    {"kernel": "spmspv", "matrix": "R09"},
                ],
            }
        )

    @staticmethod
    def _bytes(report) -> bytes:
        rows = [
            {k: v for k, v in row.items() if k != "duration_s"}
            for row in report.rows
        ]
        return json.dumps(rows, sort_keys=True).encode()

    def _run(self, fast: bool, workers: int = 1, **kwargs):
        from repro.runner import SupervisorConfig, run_plan

        with fastpath.overridden(fast):
            return run_plan(
                self._plan(),
                config=SupervisorConfig(max_retries=0, backoff_base_s=0.0),
                workers=workers,
                **kwargs,
            )

    def test_serial_bytes_identical(self):
        fast = self._run(fast=True)
        scalar = self._run(fast=False)
        assert fast.counts() == scalar.counts() == {"ok": 2, "failed": 0}
        assert self._bytes(fast) == self._bytes(scalar)

    def test_workers2_bytes_identical(self):
        fast = self._run(fast=True, workers=2)
        scalar = self._run(fast=False, workers=2)
        serial = self._run(fast=False)
        assert fast.counts() == {"ok": 2, "failed": 0}
        assert (
            self._bytes(fast) == self._bytes(scalar) == self._bytes(serial)
        )

    def test_resume_across_legs_bytes_identical(self, tmp_path):
        """Kill after one job on the scalar leg, resume on the fast
        leg: the stitched report equals a straight-through scalar run."""
        ledger = tmp_path / "mini.jsonl"
        partial = self._run(fast=False, ledger_path=ledger, max_jobs=1)
        assert partial.partial
        resumed = self._run(
            fast=True, ledger_path=ledger, resume=True
        )
        straight = self._run(fast=False)
        assert resumed.counts() == {"ok": 2, "failed": 0}
        assert self._bytes(resumed) == self._bytes(straight)


class TestEscapeHatch:
    def test_env_var_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        assert fastpath.env_default() is False
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        assert fastpath.env_default() is True

    def test_cli_flag_disables(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_FASTPATH", "1")
        with fastpath.overridden(True):
            main(["--no-fastpath", "info"])
            assert fastpath.enabled() is False
        capsys.readouterr()

    def test_traced_runs_batch(self, monkeypatch):
        """A recorder observes the production path: traced table
        schemes still run on EpochGrid, and every scheme's schedule is
        byte-identical to an untraced run."""
        from repro import obs
        from repro.fastpath.epochs import EpochGrid

        grids = []
        original_init = EpochGrid.__init__

        def counting_init(self, *args, **kwargs):
            grids.append(self)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(EpochGrid, "__init__", counting_init)
        mode = OptimizationMode.ENERGY_EFFICIENT
        model = train_default_model(mode, kernel="spmspm")
        trace = build_trace("spmspm", "R04", scale=0.12)

        def run():
            context = EvaluationContext(
                trace=trace,
                machine=TransmuterModel(),
                mode=mode,
                model=model,
                seed=0,
            )
            results = evaluate_schemes(context, schemes=ALL_SCHEMES)
            return repr(
                {name: _schedule_tuple(r) for name, r in results.items()}
            ).encode()

        with fastpath.overridden(True):
            untraced = run()
            n_untraced = len(grids)
            with obs.recording():
                traced = run()
        assert n_untraced > 0
        assert len(grids) > n_untraced  # the traced run built grids too
        assert traced == untraced
