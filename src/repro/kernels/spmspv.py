"""Column-wise SpMSpV kernel model.

``y = A @ x`` with A in CSC and x as sorted index/value pairs: for every
stored ``x_j`` the kernel scales column ``j`` of A and accumulates into
a sparse accumulator over the output vector. Multiply and merge happen
"in tandem" (paper Section 5.1): every column task both multiplies and
merges into the accumulator, so the trace has a single explicit phase
and all phase variation is implicit — driven by column densities and by
how much of the accumulator each column revisits.

The kernel executes on the real operands and tracks the accumulator
exactly, so accumulator reuse (the dominant implicit-phase signal) is
measured, not assumed.
"""

from __future__ import annotations

import inspect
import itertools
from typing import Optional

import numpy as np

from repro.errors import ShapeError
from repro.kernels.base import SPMSPV_EPOCH_FP_OPS, EpochAccumulator, KernelTrace
from repro.sparse.csc import CSCMatrix
from repro.sparse.vector import SparseVector
from repro.transmuter import params
from repro.transmuter.workload import PHASE_SPMSPV

__all__ = ["trace_spmspv"]

_ELEMENT_BYTES = 12.0

#: Streaming fraction of the column fetch (values + indices).
_COLUMN_STRIDE = 0.85

#: ``EpochAccumulator.add``'s parameter names in positional order.
_ADD_PARAMETERS = tuple(inspect.signature(EpochAccumulator.add).parameters)[1:]


def trace_spmspv(
    a_csc: CSCMatrix,
    x: SparseVector,
    epoch_fp_ops: float = SPMSPV_EPOCH_FP_OPS,
    name: Optional[str] = None,
) -> KernelTrace:
    """Trace column-driven SpMSpV over real operands.

    Returns a :class:`KernelTrace` with one implicit-phase epoch stream.
    Use :func:`repro.sparse.ops.spmspv_reference` for the numeric result.
    """
    if a_csc.shape[1] != x.length:
        raise ShapeError(
            f"dimension mismatch: {a_csc.shape} @ vector({x.length})"
        )
    n_rows = a_csc.shape[0]
    accumulator = EpochAccumulator(PHASE_SPMSPV, epoch_fp_ops)

    # Words per cache line: accumulator updates whose row gaps stay
    # within a line behave like streaming; larger gaps are true gathers.
    words_per_line = params.CACHE_LINE_BYTES // params.WORD_BYTES

    # Column tasks in x order; empty columns do no work.
    starts = a_csc.indptr[x.indices]
    a_nnz = a_csc.indptr[x.indices + 1] - starts
    busy = a_nnz > 0
    starts, a_nnz = starts[busy], a_nnz[busy]
    n_tasks = a_nnz.size
    # The concatenated row stream of all tasks, and each entry's task.
    task_of = np.repeat(np.arange(n_tasks), a_nnz)
    offsets = np.cumsum(a_nnz) - a_nnz
    rows = a_csc.indices[
        np.repeat(starts - offsets, a_nnz) + np.arange(task_of.size)
    ]

    # An entry first touches its accumulator row when no earlier task
    # touched that row.
    first_task = np.full(n_rows, n_tasks, dtype=np.int64)
    np.minimum.at(first_task, rows, task_of)
    first_touch = first_task[rows] == task_of
    new_touches = np.bincount(
        task_of, weights=first_touch, minlength=n_tasks
    ).astype(np.int64)
    touched_count = np.cumsum(new_touches)

    # Spatial locality of the accumulator scatter: the fraction of
    # consecutive row gaps that stay within one cache line.
    # Diagonal-local matrices (R09) score high; power-law columns
    # whose entries span the whole accumulator score low.
    within_task = task_of[1:] == task_of[:-1]
    # CSC row indices are sorted, so gaps are non-negative.
    local_gaps = np.bincount(
        task_of[1:][within_task],
        weights=np.diff(rows)[within_task] <= words_per_line,
        minlength=n_tasks,
    )
    accumulator_locality = np.ones(n_tasks)
    multi = a_nnz > 1
    accumulator_locality[multi] = local_gaps[multi] / (a_nnz[multi] - 1)

    flops = 2.0 * a_nnz  # multiply + accumulate per stored element
    fp_loads = 2.0 * a_nnz + 1.0  # column values + accumulator reads + x_j
    fp_stores = a_nnz.astype(np.float64)  # accumulator writes
    int_ops = 3.0 * a_nnz  # row indices + accumulator addressing
    loads = 3.0 * a_nnz + 1.0  # values, indices, accumulator
    unique_words = 2.0 * a_nnz + new_touches
    unique_lines = np.maximum(
        1.0,
        (
            _ELEMENT_BYTES * a_nnz
            + params.WORD_BYTES
            * new_touches
            / np.maximum(accumulator_locality, 0.125)
        )
        / params.CACHE_LINE_BYTES,
    )
    column_accesses = 2.0 * a_nnz
    accumulator_accesses = 2.0 * a_nnz
    stride = (
        column_accesses * _COLUMN_STRIDE
        + accumulator_accesses * accumulator_locality
    ) / (column_accesses + accumulator_accesses)
    read_bytes = _ELEMENT_BYTES * a_nnz + _ELEMENT_BYTES
    write_bytes = _ELEMENT_BYTES * new_touches
    resident_bytes = (
        touched_count * params.WORD_BYTES + _ELEMENT_BYTES * a_nnz
    )
    # The output vector is row-partitioned across GPEs, and each
    # GPE reads only the column entries landing in its slice, so
    # both the accumulator and the matrix data are effectively
    # private; only x values and index metadata are shared.
    shared = 0.15
    columns = {
        "flops": flops.tolist(),
        "fp_loads": fp_loads.tolist(),
        "fp_stores": fp_stores.tolist(),
        "int_ops": int_ops.tolist(),
        "loads": loads.tolist(),
        "stores": fp_stores.tolist(),  # one per accumulator write
        "unique_words": unique_words.tolist(),
        "unique_lines": unique_lines.tolist(),
        "stride_fraction": np.clip(stride, 0.0, 1.0).tolist(),
        "shared_fraction": itertools.repeat(shared),
        "read_bytes": read_bytes.tolist(),
        "write_bytes": write_bytes.tolist(),
        "resident_bytes": resident_bytes.tolist(),
        "reuse_locality": accumulator_locality.tolist(),
    }
    # The epoch accumulator sums in task order, one task at a time.
    # Columns are matched to ``add``'s parameters by name, so a renamed
    # or added parameter raises KeyError instead of shifting values.
    for task in zip(*(columns[name] for name in _ADD_PARAMETERS)):
        accumulator.add(*task)

    epochs = accumulator.finish()
    return KernelTrace(
        name=name or "spmspv",
        epochs=epochs,
        info={
            "a_nnz": float(a_csc.nnz),
            "x_nnz": float(x.nnz),
            "y_nnz": float(np.count_nonzero(first_task < n_tasks)),
        },
    )
