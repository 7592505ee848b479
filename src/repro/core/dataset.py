"""Training-set construction (paper Figure 4 and Section 5.1).

For every program phase P (a steady-state epoch workload) and machine
setting (external bandwidth), the "best" configuration is found in
three steps:

1. **Random sampling** — evaluate K sampled configurations, keep the
   best.
2. **Neighbour evaluation** — evaluate the one-step hyper-sphere around
   it, keep the best.
3. **Dimension sweep** — from there, sweep each configuration dimension
   in isolation and combine the per-dimension optima (valid under the
   conditional-independence assumption).

Each of the K sampled configurations then yields one training example:
features are the counters observed *on that configuration* plus the
configuration's own parameters; the label is the best configuration —
this is the paper's key trick for multiplying the training data and
removing the profiling configuration (Section 4.2).

Phases are produced by the Table-3 parameter sweep: uniform random
matrices across dimension, density, and external memory bandwidth,
traced by the real kernels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.modes import OptimizationMode, metric_value
from repro.core.telemetry import build_features, feature_names
from repro.errors import ModelError
from repro.kernels.base import KernelTrace
from repro.kernels.spmspm import trace_spmspm
from repro.kernels.spmspv import trace_spmspv
from repro.sparse import generators
from repro.transmuter.config import (
    CAPACITIES_KB,
    CLOCKS_MHZ,
    PREFETCH_LEVELS,
    RUNTIME_PARAMETERS,
    SHARING_MODES,
    HardwareConfig,
    neighbors,
    sample_configs,
)
from repro.transmuter.machine import EpochResult, TransmuterModel
from repro.transmuter.workload import EpochWorkload

__all__ = [
    "PhaseSample",
    "TrainingSet",
    "find_best_config",
    "representative_epochs",
    "table3_phases",
    "build_training_set",
    "default_grid",
]


@dataclass(frozen=True)
class PhaseSample:
    """One training phase: a steady-state workload on a machine setting."""

    workload: EpochWorkload
    machine: TransmuterModel
    l1_type: str = "cache"


@dataclass
class TrainingSet:
    """Feature matrix plus one label vector per runtime parameter."""

    features: np.ndarray
    labels: Dict[str, np.ndarray]
    names: List[str] = field(default_factory=feature_names)

    @property
    def n_examples(self) -> int:
        return int(self.features.shape[0])

    def merged_with(self, other: "TrainingSet") -> "TrainingSet":
        """Concatenate two training sets (same feature layout)."""
        if self.names != other.names:
            raise ModelError("cannot merge training sets with different features")
        return TrainingSet(
            features=np.vstack([self.features, other.features]),
            labels={
                key: np.concatenate([self.labels[key], other.labels[key]])
                for key in self.labels
            },
            names=self.names,
        )


def _epoch_metric(
    machine: TransmuterModel,
    workload: EpochWorkload,
    config: HardwareConfig,
    mode: OptimizationMode,
) -> float:
    result = machine.simulate_epoch(workload, config)
    return metric_value(
        mode, max(workload.flops, 1.0), result.time_s, result.energy_j
    )


def _scores(
    machine: TransmuterModel,
    workload: EpochWorkload,
    configs: Sequence[HardwareConfig],
    mode: OptimizationMode,
) -> Tuple[List[float], Callable[[int], EpochResult]]:
    """The mode's metric of one workload under each config.

    Simulates as one batch when the fast path allows and scores from
    the epoch times and energies alone. Also returns ``result(j)``,
    which materializes config ``j``'s :class:`EpochResult` (for its
    counters).
    """
    from repro import fastpath

    if len(configs) > 1 and fastpath.enabled():
        from repro.fastpath.epochs import EpochGrid

        grid = EpochGrid(machine, [workload], configs)
        times = grid.times[0].tolist()
        energies = grid.energies[0].tolist()
        result = functools.partial(grid.result, 0)
    else:
        results = [machine.simulate_epoch(workload, cfg) for cfg in configs]
        times = [r.time_s for r in results]
        energies = [r.energy_j for r in results]
        result = results.__getitem__
    flops = max(workload.flops, 1.0)
    scores = [
        metric_value(mode, flops, time_s, energy_j)
        for time_s, energy_j in zip(times, energies)
    ]
    return scores, result


def _argbest(scores: Sequence[float]) -> int:
    """Index of the first strictly greatest score.

    Mirrors ``max(configs, key=...)``: on ties the earliest candidate
    wins, so batched and scalar searches pick the same configuration.
    """
    best = 0
    for j in range(1, len(scores)):
        if scores[j] > scores[best]:
            best = j
    return best


#: Step-3 sweep values of every runtime parameter.
_SWEEP_VALUES: Dict[str, Sequence] = {
    "l1_sharing": SHARING_MODES,
    "l2_sharing": SHARING_MODES,
    "l1_kb": CAPACITIES_KB,
    "l2_kb": CAPACITIES_KB,
    "clock_mhz": CLOCKS_MHZ,
    "prefetch": PREFETCH_LEVELS,
}


def _search(
    machine: TransmuterModel,
    workload: EpochWorkload,
    mode: OptimizationMode,
    samples: Sequence[HardwareConfig],
) -> Tuple[HardwareConfig, Callable[[int], EpochResult]]:
    """The three Figure-4a steps from a given step-1 sample.

    Returns the best configuration and the step-1 result accessor, so
    training reads each sample's counters without re-simulating it.
    """
    l1_type = samples[0].l1_type
    scores, sampled = _scores(machine, workload, samples, mode)
    best = samples[_argbest(scores)]
    # Step 2: one-step neighbourhood.
    candidates = [best] + neighbors(best)
    scores, _ = _scores(machine, workload, candidates, mode)
    best = candidates[_argbest(scores)]
    # Step 3: independent dimension sweeps from the neighbourhood optimum.
    # The sweeps are independent by construction, so all candidates
    # across all parameters are simulated as one batch.
    swept = [
        parameter
        for parameter in RUNTIME_PARAMETERS
        if not (l1_type == "spm" and parameter == "l1_kb")
    ]
    sweep = [
        best.with_value(parameter, value)
        for parameter in swept
        for value in _SWEEP_VALUES[parameter]
    ]
    scores, _ = _scores(machine, workload, sweep, mode)
    chosen = {"l1_kb": best.l1_kb}
    start = 0
    for parameter in swept:
        values = _SWEEP_VALUES[parameter]
        chosen[parameter] = values[_argbest(scores[start : start + len(values)])]
        start += len(values)
    return HardwareConfig(l1_type=l1_type, **chosen), sampled


def find_best_config(
    machine: TransmuterModel,
    workload: EpochWorkload,
    mode: OptimizationMode,
    l1_type: str = "cache",
    k_samples: int = 24,
    seed: Optional[int] = None,
) -> HardwareConfig:
    """Three-step best-configuration search of Figure 4a."""
    samples = sample_configs(k_samples, l1_type=l1_type, seed=seed)
    return _search(machine, workload, mode, samples)[0]


def representative_epochs(
    trace: KernelTrace, per_phase: int = 1
) -> List[EpochWorkload]:
    """Steady-state representatives: the middle epoch(s) of each phase.

    The paper runs each phase "until the program behavior stabilizes"
    and samples it once (Section 5.1); the mid-phase epochs are the
    stabilized ones.
    """
    by_phase: Dict[str, List[EpochWorkload]] = {}
    for epoch in trace.epochs:
        by_phase.setdefault(epoch.phase, []).append(epoch)
    out: List[EpochWorkload] = []
    for epochs in by_phase.values():
        middle = len(epochs) // 2
        half = max(1, per_phase) // 2
        lo = max(0, middle - half)
        out.extend(epochs[lo : lo + max(1, per_phase)])
    return out


def default_grid(kernel: str) -> Dict[str, Sequence]:
    """Reduced Table-3 sweep kept tractable for pure-Python training.

    The paper sweeps dimensions 128 -> 1k (SpMSpM) / 256 -> 8k (SpMSpV),
    densities 0.2 -> 13 %, and bandwidths 0.01 -> 100 GB/s. The defaults
    here cover the same ranges with fewer grid points.
    """
    if kernel == "spmspm":
        return {
            "dims": (64, 128, 256),
            "densities": (0.005, 0.02, 0.08),
            "bandwidths": (0.1, 1.0, 10.0, 100.0),
        }
    if kernel == "spmspv":
        return {
            "dims": (256, 1024, 4096),
            "densities": (0.002, 0.01, 0.05),
            "bandwidths": (0.1, 1.0, 10.0, 100.0),
        }
    raise ModelError(f"unknown kernel {kernel!r}")


def table3_phases(
    kernel: str,
    l1_type: str = "cache",
    grid: Optional[Dict[str, Sequence]] = None,
    n_tiles: int = 2,
    gpes_per_tile: int = 8,
    seed: int = 0,
) -> List[PhaseSample]:
    """Generate training phases per the Table-3 parameter sweeps."""
    grid = grid or default_grid(kernel)
    rng = np.random.default_rng(seed)
    phases: List[PhaseSample] = []
    for dim in grid["dims"]:
        for density in grid["densities"]:
            matrix_seed = int(rng.integers(0, 2**31 - 1))
            matrix = generators.uniform_random(dim, dim, density, matrix_seed)
            if kernel == "spmspm":
                trace = trace_spmspm(
                    matrix.to_csc(), matrix.transpose().to_csr()
                )
            else:
                vector = generators.random_vector(dim, 0.5, matrix_seed + 1)
                trace = trace_spmspv(matrix.to_csc(), vector)
            workloads = representative_epochs(trace)
            for bandwidth in grid["bandwidths"]:
                machine = TransmuterModel(
                    n_tiles=n_tiles,
                    gpes_per_tile=gpes_per_tile,
                    bandwidth_gbps=float(bandwidth),
                )
                for workload in workloads:
                    phases.append(PhaseSample(workload, machine, l1_type))
    return phases


def build_training_set(
    phases: Sequence[PhaseSample],
    mode: OptimizationMode,
    k_samples: int = 24,
    seed: int = 0,
) -> TrainingSet:
    """Build the Figure-4b training set from phase samples.

    For each phase, K sampled configurations are executed; each yields
    one example mapping (its counters, its own parameters) to the best
    configuration found for that phase.
    """
    if not phases:
        raise ModelError("no phases given")
    rng = np.random.default_rng(seed)
    feature_rows: List[np.ndarray] = []
    label_rows: Dict[str, List] = {name: [] for name in RUNTIME_PARAMETERS}
    for phase in phases:
        phase_seed = int(rng.integers(0, 2**31 - 1))
        samples = sample_configs(
            k_samples, l1_type=phase.l1_type, seed=phase_seed
        )
        best, sampled = _search(phase.machine, phase.workload, mode, samples)
        for j, config in enumerate(samples):
            feature_rows.append(build_features(sampled(j).counters, config))
        for name in RUNTIME_PARAMETERS:
            label_rows[name].extend([best.get(name)] * len(samples))
    return TrainingSet(
        features=np.vstack(feature_rows),
        labels={
            name: np.asarray(values) for name, values in label_rows.items()
        },
    )
