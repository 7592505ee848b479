"""Workload generators: the benchmark's seed in, a campaign plan out.

Each generator returns a plan as a JSON-native dict, the same shape
``repro suite-run PLAN`` reads. The benchmark's ``--seed`` becomes the
``seed`` field of every job, so one seed always yields the same plan
(and the same content-addressed plan key) and the program under test
only ever sees the generated plan file.
"""

from __future__ import annotations

from typing import Sequence

SPMSPM_MATRICES = tuple(f"R{i:02d}" for i in range(1, 9))
SPMSPV_MATRICES = tuple(f"R{i:02d}" for i in range(9, 17))
TABLE5_SCHEMES = ("Baseline", "Best Avg", "Max Cfg", "SparseAdapt")
UPPER_BOUND_SCHEMES = (
    "Baseline",
    "SparseAdapt",
    "Ideal Static",
    "Ideal Greedy",
    "Oracle",
)


def _job(kernel: str, matrix: str, seed: int, **fields) -> dict:
    job = {"kernel": kernel, "matrix": matrix, **fields}
    if seed:
        # JobSpec omits a zero seed from its key, so leaving it out at
        # seed 0 keeps the plan byte-identical to the built-in one.
        job["seed"] = seed
    return job


def table5(seed: int) -> dict:
    """The built-in Table-5 plan: SpMSpM over R01-R08, SpMSpV over
    R09-R16, scale 0.3, energy-efficient mode, the standard schemes."""
    defaults = {
        "scale": 0.3,
        "mode": "ee",
        "schemes": list(TABLE5_SCHEMES),
        "l1_type": "cache",
        "bandwidth_gbps": 1.0,
    }
    jobs = [_job("spmspm", m, seed) for m in SPMSPM_MATRICES]
    jobs += [_job("spmspv", m, seed) for m in SPMSPV_MATRICES]
    return {"name": "table5", "defaults": defaults, "jobs": jobs}


def upper_bounds(seed: int, model_path: str) -> dict:
    """The Fig-8 set: SpMSpM R01-R08 against the upper-bound schemes,
    every job reading the same pre-trained SpMSpM EE model."""
    defaults = {
        "scale": 0.3,
        "mode": "ee",
        "schemes": list(UPPER_BOUND_SCHEMES),
        "model": model_path,
    }
    jobs = [_job("spmspm", m, seed) for m in SPMSPM_MATRICES]
    return {"name": "upper-bounds", "defaults": defaults, "jobs": jobs}


def fidelity(seeds: Sequence[int]) -> dict:
    """The Fig-8 jobs once per seed, with only the schemes the Oracle
    gap needs, training the stock model in-process. Each seed samples
    another configuration set for the Oracle, so one seed alone moves
    the gap by about 20%."""
    jobs = [_job("spmspm", m, seed) for seed in seeds for m in SPMSPM_MATRICES]
    defaults = {
        "scale": 0.3,
        "mode": "ee",
        "schemes": ["Baseline", "SparseAdapt", "Oracle"],
    }
    return {"name": "fidelity", "defaults": defaults, "jobs": jobs}
