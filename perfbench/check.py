"""Correctness checks and simulated quantities read from suite reports.

A report is the JSON ``repro suite-run --out`` writes. Its wall-clock
fields (``duration_s``, at the report and row levels) differ on every
run; everything else must repeat byte for byte across passes, worker
counts, and ``--resume``. A row that differs from its reference, or
whose job did not finish ``ok``, counts as a failed job.
"""

from __future__ import annotations

import json
import math
from typing import Optional

#: Dropped before comparing: the fields that hold host time, and the
#: resume bookkeeping (how many rows were replayed rather than run).
VOLATILE_KEYS = ("duration_s", "n_resumed")


def strip(value):
    """``value`` without any of :data:`VOLATILE_KEYS`, at any depth."""
    if isinstance(value, dict):
        return {
            k: strip(v) for k, v in value.items() if k not in VOLATILE_KEYS
        }
    if isinstance(value, list):
        return [strip(item) for item in value]
    return value


def canonical(value) -> str:
    return json.dumps(strip(value), sort_keys=True, separators=(",", ":"))


def failed_jobs(
    report: Optional[dict],
    n_jobs: int,
    reference: Optional[dict] = None,
    resumed: bool = False,
) -> int:
    """Jobs of ``report`` that failed, quarantined, or differ from
    ``reference``. A missing or malformed report fails every job, and
    so does a ``resumed`` report that executed any job."""
    try:
        rows = report["rows"]
        if len(rows) != n_jobs:
            return n_jobs
        if resumed and report["n_resumed"] != n_jobs:
            return n_jobs
        if reference is not None:
            if canonical({**report, "rows": []}) != canonical(
                {**reference, "rows": []}
            ):
                return n_jobs
            return sum(
                row.get("status") != "ok" or canonical(row) != canonical(ref)
                for row, ref in zip(rows, reference["rows"])
            )
        return sum(row.get("status") != "ok" for row in rows)
    except (KeyError, TypeError):
        return n_jobs


def simulated_epochs(report: dict) -> int:
    """Epochs the simulator evaluated: each job's epochs once per scheme."""
    return sum(
        row["result"]["n_epochs"] * len(row["result"]["schemes"])
        for row in report["rows"]
        if row.get("status") == "ok"
    )


def oracle_gap_pct(report: dict) -> float:
    """100 x (1 - geomean over jobs of SparseAdapt GFLOPS/W over Oracle
    GFLOPS/W), over the jobs that evaluated both schemes."""
    logs = []
    for row in report["rows"]:
        schemes = row["result"]["schemes"]
        logs.append(
            math.log(
                schemes["SparseAdapt"]["gflops_per_watt"]
                / schemes["Oracle"]["gflops_per_watt"]
            )
        )
    return 100.0 * (1.0 - math.exp(sum(logs) / len(logs)))
