"""Vectorized epoch-model evaluation over ``workloads x configs`` grids.

:class:`EpochGrid` reproduces
:meth:`repro.transmuter.machine.TransmuterModel._simulate_epoch` for a
whole grid of (workload, configuration) pairs in one pass of
elementwise numpy ops, bit-identical to the scalar reference. The
strategy, in order of importance:

1. **Mirror the scalar expressions exactly.** Elementwise float64
   arithmetic, ``np.minimum``/``np.maximum`` and ``np.sqrt`` are
   IEEE-754 correctly rounded in both numpy and CPython, so keeping the
   operand order and grouping of the scalar code yields the same bits.
2. **Never use numpy ``pow``.** numpy's vectorized ``**`` differs from
   CPython's ``float.__pow__`` in the last ulp for most exponents, so
   the two data-dependent powers (crossbar collision, soft roofline) go
   through :func:`pow_exact` — CPython's pow applied elementwise.
3. **Precompute config-only quantities with the scalar functions.**
   DVFS operating points, SRAM access energies, leakage power and DRAM
   latency depend only on the configuration; they are computed once per
   distinct config by the original scalar code (sqrt, pow and all) and
   broadcast, so their bits are the scalar path's bits by construction.
4. **Keep per-workload quantities in Python floats.** Workload-derived
   scalars (instruction counts, imbalance, geometry working sets, the
   GPE->L1 crossbar, which never varies along the config axis within a
   batch) are computed in a plain Python loop with the scalar
   expressions, then broadcast.

Branches on the configuration (sharing modes, prefetch level, L1 type)
become ``np.where`` selections between per-branch values; mixed-type
batches are partitioned by ``l1_type`` and stitched back column-wise.

The grid materializes :class:`~repro.transmuter.machine.EpochResult`
objects lazily: schemes touch only the table cells they stitch into a
schedule, so a 64-config table materializes ~1/64th of its entries.

This engine intentionally has no :class:`EpochEnvironment` or trace
support — degraded epochs occur only inside the (inherently
sequential) controller loop, and ``machine.epoch`` events come only
from real :meth:`~repro.transmuter.machine.TransmuterModel.simulate_epoch`
calls, i.e. the controller's epochs; grid cells emit none. Callers gate
on :func:`repro.fastpath.enabled`, traced or not.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.transmuter import params
from repro.transmuter.config import HardwareConfig
from repro.transmuter.counters import PerformanceCounters
from repro.transmuter.crossbar import model_crossbar
from repro.transmuter.dvfs import operating_point
from repro.transmuter.machine import EpochResult, TransmuterModel
from repro.transmuter.power import EnergyBreakdown, _sram_access_energy
from repro.transmuter.workload import EpochWorkload

__all__ = ["pow_exact", "EpochGrid", "simulate_trace"]

# CPython's float.__pow__ applied elementwise (object ufunc). numpy's
# own pow uses a SIMD implementation whose results differ in the last
# ulp, which would break byte-identical reports.
_POW_UFUNC = np.frompyfunc(float.__pow__, 2, 1)


def pow_exact(base: np.ndarray, exponent: float) -> np.ndarray:
    """Elementwise ``base ** exponent`` with CPython pow semantics."""
    exponent = float(exponent)
    if exponent == 1.0:
        # pow(x, 1.0) == x exactly in both numpy and libm.
        return np.array(base, dtype=np.float64, copy=True)
    return _POW_UFUNC(base, exponent).astype(np.float64)


# ---------------------------------------------------------------------------
# Per-axis precomputation
# ---------------------------------------------------------------------------
def _workload_scalars(
    machine: TransmuterModel, workloads: Sequence[EpochWorkload], spm: bool
) -> Dict[str, np.ndarray]:
    """Workload-only quantities, computed with scalar Python math.

    Every expression mirrors the scalar model verbatim; results are
    shaped ``(n_workloads, 1)`` for broadcasting along the config axis.
    """
    tiles = machine.n_tiles
    gpes = machine.gpes_per_tile
    n_gpes = machine.n_gpes
    cols: Dict[str, List[float]] = {name: [] for name in (
        "accesses", "instructions", "imbalance", "ipg", "mlp",
        "ws_l1_shared", "infl_l1_shared", "ws_l1_private",
        "infl_l1_private", "total_ws", "ws_l2_private",
        "infl_l2_private", "unique_words", "unique_lines", "conflict",
        "stride", "reuse_locality", "store_fraction", "lcp_instr",
        "fp_per_gpe", "read_bytes_compulsory", "write_bytes",
        "x1_contention", "x1_extra", "x1_transfers",
    )}
    for w in workloads:
        int_ops = w.int_ops
        if spm:
            int_ops *= 1.0 + params.SPM_ORCHESTRATION_OVERHEAD
        instructions = w.flops + int_ops + w.accesses
        imbalance = 1.0 + min(
            params.IMBALANCE_CAP - 1.0,
            params.IMBALANCE_COEFF * w.work_skew,
        )
        ipg = instructions / n_gpes * imbalance
        shared_frac = w.shared_fraction
        total_ws = w.live_set_bytes
        sf2 = w.shared_fraction * params.TILE_SHARING_FACTOR
        # GPE->L1 crossbar: its load never varies along the config axis
        # (within one l1_type partition), only the shared/private mode
        # does — evaluate the scalar model once for the shared case and
        # select by mask later (the private case is all zeros).
        x1 = model_crossbar(
            accesses=w.accesses / tiles,
            busy_cycles=ipg,
            n_requesters=gpes,
            n_banks=gpes,
            shared=True,
        )
        cols["accesses"].append(w.accesses)
        cols["instructions"].append(instructions)
        cols["imbalance"].append(imbalance)
        cols["ipg"].append(ipg)
        cols["mlp"].append(
            params.MLP
            * (
                params.MLP_STRIDE_FLOOR
                + params.MLP_STRIDE_SLOPE * w.stride_fraction
            )
        )
        cols["ws_l1_shared"].append(
            total_ws * ((1.0 - shared_frac) / tiles + shared_frac)
        )
        cols["infl_l1_shared"].append(
            (1.0 - shared_frac) + shared_frac * min(tiles, 2.0)
        )
        cols["ws_l1_private"].append(
            total_ws * ((1.0 - shared_frac) / (tiles * gpes) + shared_frac)
        )
        cols["infl_l1_private"].append(
            (1.0 - shared_frac)
            + shared_frac * min(gpes, params.REPLICATION_CAP_L1)
        )
        cols["total_ws"].append(total_ws)
        cols["ws_l2_private"].append(total_ws * ((1.0 - sf2) / tiles + sf2))
        cols["infl_l2_private"].append(
            (1.0 - sf2) + sf2 * min(tiles, params.REPLICATION_CAP_L2)
        )
        cols["unique_words"].append(w.unique_words)
        cols["unique_lines"].append(w.unique_lines)
        cols["conflict"].append(
            params.CONFLICT_BASE
            + params.CONFLICT_IRREGULAR * (1.0 - w.stride_fraction)
        )
        cols["stride"].append(w.stride_fraction)
        cols["reuse_locality"].append(w.reuse_locality)
        cols["store_fraction"].append(w.stores / max(w.accesses, 1e-9))
        cols["lcp_instr"].append(
            w.instructions
            * params.LCP_WORK_FRACTION
            * (1.0 + w.work_skew)
            / tiles
        )
        cols["fp_per_gpe"].append(w.fp_ops / n_gpes)
        cols["read_bytes_compulsory"].append(w.read_bytes_compulsory)
        cols["write_bytes"].append(w.write_bytes)
        cols["x1_contention"].append(x1.contention_ratio)
        cols["x1_extra"].append(x1.extra_latency_cycles)
        cols["x1_transfers"].append(x1.transfers)
    return {
        name: np.asarray(values, dtype=np.float64).reshape(-1, 1)
        for name, values in cols.items()
    }


def _config_scalars(
    machine: TransmuterModel, configs: Sequence[HardwareConfig], spm: bool
) -> Dict[str, np.ndarray]:
    """Config-only quantities via the original scalar functions.

    DVFS, SRAM energy and leakage involve ``pow``/``sqrt`` — computing
    them per distinct config with the scalar code guarantees their bits
    match the reference path. Shaped ``(1, n_configs)``.
    """
    tiles = machine.n_tiles
    gpes = machine.gpes_per_tile
    memory = machine.memory
    power = machine.power
    rows: Dict[str, List[float]] = {name: [] for name in (
        "freq_hz", "dyn_scale", "l1_energy", "l2_energy", "leak_w",
        "dram_latency", "cap_l1", "cap_l2", "conflict_add_l1",
        "conflict_add_l2", "coverage", "pollution_coef",
        "overfetch_coef", "l1_shared", "l2_shared",
    )}
    for cfg in configs:
        point = operating_point(cfg.clock_mhz)
        l1_energy = _sram_access_energy(params.E_L1_BASE, cfg.l1_kb)
        if spm:
            l1_energy *= params.SPM_ENERGY_FACTOR
        l1_shared = cfg.l1_sharing == "shared"
        l2_shared = cfg.l2_sharing == "shared"
        sharers_l1 = gpes if l1_shared else 1
        sharers_l2 = tiles if l2_shared else 1
        rows["freq_hz"].append(cfg.clock_mhz * 1e6)
        rows["dyn_scale"].append(point.dynamic_scale)
        rows["l1_energy"].append(l1_energy)
        rows["l2_energy"].append(
            _sram_access_energy(params.E_L2_BASE, cfg.l2_kb)
        )
        rows["leak_w"].append(power.leakage_power(cfg, point))
        rows["dram_latency"].append(memory.latency_cycles(cfg.clock_mhz))
        rows["cap_l1"].append(
            cfg.l1_kb * 1024.0 * gpes if l1_shared else cfg.l1_kb * 1024.0
        )
        rows["cap_l2"].append(
            cfg.l2_kb * 1024.0 * tiles if l2_shared else cfg.l2_kb * 1024.0
        )
        rows["conflict_add_l1"].append(
            params.CONFLICT_SHARING * (1.0 - 1.0 / sharers_l1)
            if sharers_l1 > 1
            else 0.0
        )
        rows["conflict_add_l2"].append(
            params.CONFLICT_SHARING * (1.0 - 1.0 / sharers_l2)
            if sharers_l2 > 1
            else 0.0
        )
        rows["coverage"].append(params.PREFETCH_COVERAGE[cfg.prefetch])
        rows["pollution_coef"].append(params.PREFETCH_POLLUTION[cfg.prefetch])
        rows["overfetch_coef"].append(params.PREFETCH_OVERFETCH[cfg.prefetch])
        rows["l1_shared"].append(l1_shared)
        rows["l2_shared"].append(l2_shared)
    out = {
        name: np.asarray(values, dtype=np.float64).reshape(1, -1)
        for name, values in rows.items()
        if name not in ("l1_shared", "l2_shared")
    }
    out["l1_shared"] = np.asarray(rows["l1_shared"], dtype=bool).reshape(1, -1)
    out["l2_shared"] = np.asarray(rows["l2_shared"], dtype=bool).reshape(1, -1)
    return out


# ---------------------------------------------------------------------------
# Vectorized cache level (mirrors cache_model.model_level + residency)
# ---------------------------------------------------------------------------
def _model_level_vec(
    accesses_in,
    unique_words_in,
    unique_lines_in,
    working_set,
    capacity,
    stride,
    reuse_locality,
    coverage,
    pollution_coef,
    overfetch_coef,
    conflict_base,
    conflict_add,
) -> Dict[str, np.ndarray]:
    accesses = np.maximum(accesses_in, 1e-9)
    unique_words = np.minimum(unique_words_in, accesses)
    unique_lines = np.minimum(unique_lines_in, unique_words)
    # Scalar: ``min(...) or 1e-9`` — the fallback fires on exact zero.
    unique_lines = np.where(unique_lines == 0.0, 1e-9, unique_lines)

    pollution = pollution_coef * (1.0 - stride)
    overfetch_rate = overfetch_coef * (1.0 - stride)

    # residency(): capacity over working set with conflict discounts.
    effective = capacity * (1.0 - pollution)
    conflict = conflict_base + conflict_add
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.minimum(1.0, effective / working_set)
        p_resident = np.maximum(0.0, raw * (1.0 - conflict))
    p_resident = np.where(working_set > 0.0, p_resident, 1.0)

    reuse_refs = np.maximum(0.0, accesses - unique_words)
    spatial_refs = np.maximum(0.0, unique_words - unique_lines)
    compulsory = unique_lines

    covered_lines = compulsory * stride * coverage
    prefetches_issued = covered_lines + compulsory * overfetch_rate
    overfetch_lines = compulsory * overfetch_rate

    spatial_hit_prob = np.maximum(p_resident, 0.8)
    spatial_density = np.maximum(
        0.0, 1.0 - unique_lines / np.maximum(unique_words, 1e-9)
    )
    refill_hit_prob = spatial_density * reuse_locality
    reuse_hit_prob = p_resident + (1.0 - p_resident) * refill_hit_prob
    hits = (
        reuse_refs * reuse_hit_prob
        + spatial_refs * spatial_hit_prob
        + covered_lines
    )
    hits = np.minimum(hits, accesses)
    misses = accesses - hits
    occupancy = np.minimum(1.0, working_set / np.maximum(capacity, 1e-9))
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / accesses,
        "occupancy": occupancy,
        "prefetches_issued": prefetches_issued,
        "covered_lines": covered_lines,
        "overfetch_lines": overfetch_lines,
    }


def _model_l1_spm_vec(accesses_col, working_set, capacity):
    """Vector twin of ``TransmuterModel._model_l1_spm``."""
    mappable = working_set * params.SPM_MAPPABLE_FRACTION
    mapped_fraction = params.SPM_MAPPABLE_FRACTION * np.minimum(
        1.0, capacity / np.maximum(mappable, 1.0)
    )
    access_hit_fraction = np.minimum(
        0.98, mapped_fraction * params.SPM_HOT_ACCESS_BOOST
    )
    accesses = np.maximum(accesses_col, 1e-9)
    hits = accesses * access_hit_fraction
    misses = accesses - hits
    zeros = np.zeros(np.broadcast(hits, capacity).shape)
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": access_hit_fraction + zeros,
        "occupancy": np.minimum(
            1.0, working_set / np.maximum(capacity, 1e-9)
        )
        + zeros,
        "prefetches_issued": zeros,
        "covered_lines": zeros,
        "overfetch_lines": zeros,
    }


# ---------------------------------------------------------------------------
# The grid
# ---------------------------------------------------------------------------
#: EpochResult scalar fields held as (n_workloads, n_configs) arrays.
_FIELDS = (
    "time_s", "core_time_s", "memory_time_s",
    "dram_read_bytes", "dram_write_bytes",
    "core_dynamic", "l1_dynamic", "l2_dynamic", "xbar_dynamic",
    "dram", "leakage",
    "l1_access_rate", "l1_occupancy", "l1_miss_rate", "l1_prefetch_ratio",
    "l2_access_rate", "l2_occupancy", "l2_miss_rate", "l2_prefetch_ratio",
    "xbar_contention_ratio", "gpe_ipc", "gpe_fp_ipc", "lcp_ipc",
    "dram_read_utilization", "dram_write_utilization",
)


def _compute(
    machine: TransmuterModel,
    workloads: Sequence[EpochWorkload],
    configs: Sequence[HardwareConfig],
) -> Dict[str, np.ndarray]:
    """Evaluate one homogeneous-``l1_type`` grid; see module docstring."""
    spm = configs[0].l1_type == "spm"
    w = _workload_scalars(machine, workloads, spm)
    c = _config_scalars(machine, configs, spm)
    tiles = machine.n_tiles
    n_gpes = machine.n_gpes
    bandwidth = machine.memory.bandwidth_bytes_per_s

    # --- L1 ------------------------------------------------------------
    ws1 = np.where(c["l1_shared"], w["ws_l1_shared"], w["ws_l1_private"])
    if spm:
        l1 = _model_l1_spm_vec(w["accesses"], ws1, c["cap_l1"])
    else:
        inflation1 = np.where(
            c["l1_shared"], w["infl_l1_shared"], w["infl_l1_private"]
        )
        uw_inflated = w["unique_words"] * inflation1
        ul_inflated = w["unique_lines"] * inflation1
        l1 = _model_level_vec(
            accesses_in=w["accesses"],
            unique_words_in=np.minimum(uw_inflated, w["accesses"]),
            unique_lines_in=np.minimum(ul_inflated, uw_inflated),
            working_set=ws1,
            capacity=c["cap_l1"],
            stride=w["stride"],
            reuse_locality=w["reuse_locality"],
            coverage=c["coverage"],
            pollution_coef=c["pollution_coef"],
            overfetch_coef=c["overfetch_coef"],
            conflict_base=w["conflict"],
            conflict_add=c["conflict_add_l1"],
        )

    # --- L2 ------------------------------------------------------------
    ws2 = np.where(c["l2_shared"], w["total_ws"], w["ws_l2_private"])
    inflation2 = np.where(c["l2_shared"], 1.0, w["infl_l2_private"])
    l1_misses_floor = np.maximum(l1["misses"], 1e-9)
    unique2 = np.minimum(w["unique_lines"] * inflation2, l1_misses_floor)
    l2 = _model_level_vec(
        accesses_in=l1_misses_floor,
        unique_words_in=unique2,
        unique_lines_in=unique2,
        working_set=ws2,
        capacity=c["cap_l2"],
        stride=w["stride"],
        reuse_locality=w["reuse_locality"],
        coverage=c["coverage"],
        pollution_coef=c["pollution_coef"],
        overfetch_coef=c["overfetch_coef"],
        conflict_base=w["conflict"],
        conflict_add=c["conflict_add_l2"],
    )

    # --- Crossbars ------------------------------------------------------
    x1_contention = np.where(c["l1_shared"], w["x1_contention"], 0.0)
    x1_extra = np.where(c["l1_shared"], w["x1_extra"], 0.0)
    accesses_x2 = l1["misses"] / max(tiles, 1)
    cycles_x2 = np.maximum(w["ipg"], 1.0)
    rate_x2 = np.minimum(1.0, accesses_x2 / (tiles * cycles_x2))
    collision_x2 = 1.0 - pow_exact(1.0 - rate_x2 / tiles, tiles - 1)
    extra_x2_raw = (
        params.L1_SHARED_BASE_LATENCY
        - 1.0
        + collision_x2 * params.XBAR_CONTENTION_PENALTY
    )
    valid_x2 = c["l2_shared"] & (accesses_x2 != 0.0)
    x2_contention = np.where(valid_x2, collision_x2, 0.0)
    x2_extra = np.where(valid_x2, extra_x2_raw, 0.0)

    # --- Stalls and core time ------------------------------------------
    l2_hit_latency = params.L2_LATENCY + x2_extra
    l2_hits = l1["misses"] * l2["hit_rate"]
    l2_misses = l1["misses"] - l2_hits
    covered = np.minimum(l2["covered_lines"], l2_misses)
    uncovered = l2_misses - covered
    stalls = (
        w["accesses"] * x1_extra
        + l2_hits * l2_hit_latency
        + covered * l2_hit_latency
        + uncovered * c["dram_latency"]
    )
    stalls_per_gpe = stalls / n_gpes * w["imbalance"] / w["mlp"]
    cycles_per_gpe = w["ipg"] + stalls_per_gpe
    core_time = cycles_per_gpe / c["freq_hz"]

    # --- DRAM traffic and roofline -------------------------------------
    line = params.CACHE_LINE_BYTES
    read_bytes = line * (
        l2["misses"] * params.REFETCH_LINE_FACTOR + l2["overfetch_lines"]
    )
    read_bytes = np.maximum(read_bytes, w["read_bytes_compulsory"])
    evict_bytes = line * l2["misses"] * w["store_fraction"] * 0.5
    write_bytes = w["write_bytes"] + evict_bytes
    memory_time = (read_bytes + write_bytes) / bandwidth
    p = params.ROOFLINE_SMOOTHNESS
    elapsed = pow_exact(
        pow_exact(core_time, p) + pow_exact(memory_time, p), 1.0 / p
    )
    window = np.maximum(elapsed, 1e-15)
    bw_capacity = bandwidth * window
    read_utilization = np.minimum(1.0, read_bytes / bw_capacity)
    write_utilization = np.minimum(1.0, write_bytes / bw_capacity)

    # --- Energy ---------------------------------------------------------
    l1_accesses_e = w["accesses"] + l1["prefetches_issued"]
    l2_accesses_e = l1["misses"] + l2["prefetches_issued"]
    xbar_transfers = w["x1_transfers"] * tiles + accesses_x2 * tiles
    dram_bytes = read_bytes + write_bytes
    scale = c["dyn_scale"]

    # --- Counters --------------------------------------------------------
    cycles = np.maximum(cycles_per_gpe, 1e-9)
    gpe_ipc = np.minimum(1.0, w["ipg"] / cycles)
    gpe_fp_ipc = np.minimum(gpe_ipc, w["fp_per_gpe"] / cycles)
    lcp_ipc = np.minimum(1.0, w["lcp_instr"] / cycles)

    shape = (len(workloads), len(configs))
    grid = {
        "time_s": elapsed,
        "core_time_s": core_time,
        "memory_time_s": memory_time,
        "dram_read_bytes": read_bytes,
        "dram_write_bytes": write_bytes,
        "core_dynamic": w["instructions"] * params.E_CORE_OP * scale,
        "l1_dynamic": l1_accesses_e * c["l1_energy"] * scale,
        "l2_dynamic": l2_accesses_e * c["l2_energy"] * scale,
        "xbar_dynamic": xbar_transfers * params.E_XBAR_TRANSFER * scale,
        "dram": dram_bytes * params.E_DRAM_BYTE,
        "leakage": c["leak_w"] * elapsed,
        "l1_access_rate": w["accesses"] / cycles / n_gpes,
        "l1_occupancy": l1["occupancy"],
        "l1_miss_rate": 1.0 - l1["hit_rate"],
        "l1_prefetch_ratio": l1["prefetches_issued"]
        / np.maximum(w["accesses"], 1e-9),
        "l2_access_rate": l1["misses"] / cycles / tiles,
        "l2_occupancy": l2["occupancy"],
        "l2_miss_rate": 1.0 - l2["hit_rate"],
        "l2_prefetch_ratio": l2["prefetches_issued"]
        / np.maximum(l1["misses"], 1e-9),
        "xbar_contention_ratio": np.maximum(x1_contention, x2_contention),
        "gpe_ipc": gpe_ipc,
        "gpe_fp_ipc": gpe_fp_ipc,
        "lcp_ipc": lcp_ipc,
        "dram_read_utilization": read_utilization,
        "dram_write_utilization": write_utilization,
    }
    return {
        name: np.broadcast_to(np.asarray(value), shape)
        for name, value in grid.items()
    }


class _ResultRow:
    """Lazy list-like view of one workload's results across configs."""

    __slots__ = ("_grid", "_index")

    def __init__(self, grid: "EpochGrid", index: int) -> None:
        self._grid = grid
        self._index = index

    def __len__(self) -> int:
        return self._grid.n_configs

    def __getitem__(self, j: int) -> EpochResult:
        return self._grid.result(self._index, j)

    def __iter__(self):
        for j in range(len(self)):
            yield self[j]


class EpochGrid:
    """Batched, lazily materialized ``workloads x configs`` results."""

    def __init__(
        self,
        machine: TransmuterModel,
        workloads: Sequence[EpochWorkload],
        configs: Sequence[HardwareConfig],
    ) -> None:
        if not workloads or not configs:
            raise SimulationError("epoch grid needs workloads and configs")
        self.machine = machine
        self.workloads = list(workloads)
        self.configs = list(configs)
        self.n_workloads = len(self.workloads)
        self.n_configs = len(self.configs)
        with obs.span("epoch_batch"):
            by_type: Dict[str, List[int]] = {}
            for j, cfg in enumerate(self.configs):
                by_type.setdefault(cfg.l1_type, []).append(j)
            if len(by_type) == 1:
                self._fields = _compute(machine, self.workloads, self.configs)
            else:
                shape = (self.n_workloads, self.n_configs)
                fields = {
                    name: np.empty(shape, dtype=np.float64)
                    for name in _FIELDS
                }
                for indices in by_type.values():
                    sub = _compute(
                        machine,
                        self.workloads,
                        [self.configs[j] for j in indices],
                    )
                    for name in _FIELDS:
                        fields[name][:, indices] = sub[name]
                self._fields = fields
        self._lists: Optional[Dict[str, list]] = None
        self._cache: Dict[int, EpochResult] = {}

    # ------------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        """Epoch durations, seconds, shape (n_workloads, n_configs)."""
        return np.array(self._fields["time_s"])

    @property
    def energies(self) -> np.ndarray:
        """Total epoch energies, joules, same shape as :attr:`times`."""
        f = self._fields
        # EnergyBreakdown.total sums the components left to right.
        return (
            f["core_dynamic"]
            + f["l1_dynamic"]
            + f["l2_dynamic"]
            + f["xbar_dynamic"]
            + f["dram"]
            + f["leakage"]
        )

    def rows(self) -> List[_ResultRow]:
        """Lazy ``results[i][j]``-style view (EpochTable contract)."""
        return [_ResultRow(self, i) for i in range(self.n_workloads)]

    # ------------------------------------------------------------------
    def result(self, i: int, j: int) -> EpochResult:
        """Materialize the :class:`EpochResult` of one grid cell."""
        key = i * self.n_configs + j
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self._lists is None:
            # One bulk unboxing: scheme stitching touches whole rows, and
            # tolist() converts far faster than per-cell item() calls.
            self._lists = {
                name: arr.tolist() for name, arr in self._fields.items()
            }
        f = {name: values[i][j] for name, values in self._lists.items()}
        workload = self.workloads[i]
        config = self.configs[j]
        energy = EnergyBreakdown(
            core_dynamic=f["core_dynamic"],
            l1_dynamic=f["l1_dynamic"],
            l2_dynamic=f["l2_dynamic"],
            xbar_dynamic=f["xbar_dynamic"],
            dram=f["dram"],
            leakage=f["leakage"],
        )
        counters = PerformanceCounters(
            l1_access_rate=f["l1_access_rate"],
            l1_occupancy=f["l1_occupancy"],
            l1_miss_rate=f["l1_miss_rate"],
            l1_prefetch_ratio=f["l1_prefetch_ratio"],
            l1_capacity_kb=float(config.l1_kb),
            l2_access_rate=f["l2_access_rate"],
            l2_occupancy=f["l2_occupancy"],
            l2_miss_rate=f["l2_miss_rate"],
            l2_prefetch_ratio=f["l2_prefetch_ratio"],
            l2_capacity_kb=float(config.l2_kb),
            xbar_contention_ratio=f["xbar_contention_ratio"],
            gpe_ipc=f["gpe_ipc"],
            gpe_fp_ipc=f["gpe_fp_ipc"],
            lcp_ipc=f["lcp_ipc"],
            lcp_fp_ipc=f["lcp_ipc"] * 0.4,
            clock_mhz=config.clock_mhz,
            dram_read_utilization=f["dram_read_utilization"],
            dram_write_utilization=f["dram_write_utilization"],
        )
        result = EpochResult(
            time_s=f["time_s"],
            energy=energy,
            counters=counters,
            core_time_s=f["core_time_s"],
            memory_time_s=f["memory_time_s"],
            dram_read_bytes=f["dram_read_bytes"],
            dram_write_bytes=f["dram_write_bytes"],
            flops=workload.flops,
            fp_ops=workload.fp_ops,
        )
        self._cache[key] = result
        return result


# ---------------------------------------------------------------------------
def simulate_trace(
    machine: TransmuterModel,
    workloads: Sequence[EpochWorkload],
    config: HardwareConfig,
) -> List[EpochResult]:
    """Many epochs under one fixed configuration (static baselines)."""
    grid = EpochGrid(machine, workloads, [config])
    return [grid.result(i, 0) for i in range(grid.n_workloads)]
