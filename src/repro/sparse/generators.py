"""Sparse-matrix generators used for training and evaluation data.

The paper draws on three kinds of inputs:

* uniform random matrices (SciPy ``random`` equivalents) for training and
  the U1-U3 synthetic suite,
* R-MAT power-law matrices with ``A = C = 0.1, B = 0.4`` for P1-P3
  (Chakrabarti et al., 2004),
* the Figure-1 motivation matrix: dense columns separating sparse strips,
* real-world matrices from SuiteSparse/SNAP, which this offline
  reproduction replaces with structural stand-ins (see
  :mod:`repro.sparse.suite`) built from the generators in this module.

All generators are deterministic given a seed and return
:class:`~repro.sparse.coo.COOMatrix`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ShapeError
from repro.sparse.coo import COOMatrix

__all__ = [
    "uniform_random",
    "rmat",
    "strip_matrix",
    "banded",
    "diagonal_local",
    "block_arrow",
    "random_vector",
]


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def _values(rng: np.random.Generator, count: int) -> np.ndarray:
    """Non-zero values drawn uniformly from (0.1, 1.1).

    The offset keeps values away from zero so that numeric cancellation
    never silently removes structural non-zeros in kernels.
    """
    return rng.uniform(0.1, 1.1, size=count)


def uniform_random(
    n_rows: int,
    n_cols: int,
    density: float,
    seed: Optional[int] = None,
) -> COOMatrix:
    """Uniform random sparse matrix with the given density.

    Exactly ``round(density * n_rows * n_cols)`` distinct coordinates are
    sampled without replacement, matching SciPy's ``sparse.random``.
    """
    if not 0.0 <= density <= 1.0:
        raise ShapeError(f"density must be in [0, 1], got {density}")
    rng = _rng(seed)
    cells = n_rows * n_cols
    nnz = int(round(density * cells))
    flat = rng.choice(cells, size=nnz, replace=False)
    return COOMatrix(
        flat // n_cols, flat % n_cols, _values(rng, nnz), (n_rows, n_cols)
    )


def rmat(
    n: int,
    nnz: int,
    a: float = 0.1,
    b: float = 0.4,
    c: float = 0.1,
    seed: Optional[int] = None,
) -> COOMatrix:
    """R-MAT power-law matrix (Chakrabarti et al.).

    Each edge is placed by recursively descending a 2x2 partition of the
    adjacency matrix with quadrant probabilities ``(a, b, c, d)`` where
    ``d = 1 - a - b - c``. The paper's parameters ``A = C = 0.1, B = 0.4``
    are the defaults. Duplicate edges are merged, so the delivered nnz can
    be slightly below the request; we oversample to compensate.
    """
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ShapeError("R-MAT quadrant probabilities must be >= 0")
    if n <= 0 or (n & (n - 1)) != 0:
        # Round the recursion depth up; coordinates outside n are rejected.
        depth = int(np.ceil(np.log2(max(n, 2))))
    else:
        depth = int(np.log2(n))
    rng = _rng(seed)
    probs = np.array([a, b, c, d])
    # ``rng.choice(4, p=probs)`` draws one uniform per pick and returns
    # how many CDF steps lie at or below it; counting those steps
    # directly gives the same picks from the same draws, without
    # choice's per-element binary search.
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    target = min(nnz, n * n)
    # Oversample in rounds until enough distinct in-range coordinates
    # exist; each round keeps its new keys in first-occurrence order.
    keys = np.zeros(0, dtype=np.int64)
    max_rounds = 64
    weights = 1 << np.arange(depth - 1, -1, -1, dtype=np.int64)
    for _ in range(max_rounds):
        need = target - keys.size
        if need <= 0:
            break
        batch = max(64, int(need * 1.5))
        draws = rng.random((batch, depth))
        quadrants = (
            (draws >= cdf[0]).astype(np.int64)
            + (draws >= cdf[1])
            + (draws >= cdf[2])
        )
        rows = ((quadrants >> 1) & 1) @ weights
        cols = (quadrants & 1) @ weights
        in_range = (rows < n) & (cols < n)
        drawn = rows[in_range] * n + cols[in_range]
        _, first = np.unique(drawn, return_index=True)
        fresh = drawn[np.sort(first)]
        # ``keys`` stays sorted, so membership is a binary search.
        at = np.searchsorted(keys, fresh)
        seen = at < keys.size
        seen[seen] = keys[at[seen]] == fresh[seen]
        accepted = np.sort(fresh[~seen][:need])
        keys = np.insert(keys, np.searchsorted(keys, accepted), accepted)
    rows_out = keys // n
    cols_out = keys % n
    return COOMatrix(rows_out, cols_out, _values(rng, keys.size), (n, n))


def strip_matrix(
    n: int = 128,
    density: float = 0.20,
    n_strips: int = 8,
    dense_col_density: float = 0.95,
    seed: Optional[int] = None,
) -> COOMatrix:
    """The Figure-1 motivation matrix.

    Dense columns separate ``n_strips`` sparse strips; multiplying the
    matrix by its transpose with the outer-product algorithm alternates
    between dense outer products (dense column x dense row) and sparse
    ones, producing the paper's implicit phase changes. The overall
    density is held near ``density`` by adjusting the strip density after
    accounting for the dense separator columns.
    """
    if n_strips < 1 or n_strips > n:
        raise ShapeError("n_strips must be in [1, n]")
    rng = _rng(seed)
    separator_cols = np.linspace(0, n - 1, n_strips, dtype=np.int64)
    separator_set = set(int(j) for j in separator_cols)
    dense_budget = len(separator_set) * dense_col_density * n
    total_budget = density * n * n
    sparse_cells = (n - len(separator_set)) * n
    strip_density = max(0.0, (total_budget - dense_budget) / max(sparse_cells, 1))
    strip_density = min(strip_density, 1.0)

    rows_parts = []
    cols_parts = []
    for j in range(n):
        col_density = (
            dense_col_density if j in separator_set else strip_density
        )
        count = int(round(col_density * n))
        if count == 0:
            continue
        rows = rng.choice(n, size=min(count, n), replace=False)
        rows_parts.append(rows.astype(np.int64))
        cols_parts.append(np.full(rows.size, j, dtype=np.int64))
    rows_all = np.concatenate(rows_parts) if rows_parts else np.zeros(0, np.int64)
    cols_all = np.concatenate(cols_parts) if cols_parts else np.zeros(0, np.int64)
    return COOMatrix(rows_all, cols_all, _values(rng, rows_all.size), (n, n))


def banded(
    n: int,
    bandwidth: int,
    density_in_band: float = 0.6,
    seed: Optional[int] = None,
) -> COOMatrix:
    """Banded matrix: non-zeros within ``bandwidth`` of the diagonal.

    Models FEM / structural / CFD matrices (e.g. R04 bcsstk08, R09 EX3,
    R12 crack) whose entries cluster along the diagonal.
    """
    if bandwidth < 0:
        raise ShapeError("bandwidth must be non-negative")
    rng = _rng(seed)
    rows_parts = []
    cols_parts = []
    for i in range(n):
        lo = max(0, i - bandwidth)
        hi = min(n, i + bandwidth + 1)
        width = hi - lo
        count = max(1, int(round(density_in_band * width)))
        cols = lo + rng.choice(width, size=min(count, width), replace=False)
        rows_parts.append(np.full(cols.size, i, dtype=np.int64))
        cols_parts.append(cols.astype(np.int64))
    rows_all = np.concatenate(rows_parts)
    cols_all = np.concatenate(cols_parts)
    return COOMatrix(rows_all, cols_all, _values(rng, rows_all.size), (n, n))


def diagonal_local(
    n: int,
    nnz: int,
    spread: float = 0.01,
    seed: Optional[int] = None,
) -> COOMatrix:
    """Matrix with non-zeros scattered tightly around the diagonal.

    Offsets from the diagonal follow a geometric-like decay with scale
    ``spread * n``; models matrices of "local connections only" such as
    R09 in the paper (uniform distribution along the diagonal).
    """
    rng = _rng(seed)
    scale = max(1.0, spread * n)
    seen = set()
    for _ in range(64):
        need = nnz - len(seen)
        if need <= 0:
            break
        rows = rng.integers(0, n, size=int(need * 1.5) + 16)
        offsets = np.round(rng.laplace(0.0, scale, size=rows.size)).astype(np.int64)
        cols = rows + offsets
        ok = (cols >= 0) & (cols < n)
        for r, cl in zip(rows[ok], cols[ok]):
            key = int(r) * n + int(cl)
            if key not in seen:
                seen.add(key)
                if len(seen) >= nnz:
                    break
    keys = np.fromiter(seen, dtype=np.int64, count=len(seen))
    keys.sort()
    return COOMatrix(
        keys // n, keys % n, _values(rng, keys.size), (n, n)
    )


def block_arrow(
    n: int,
    nnz: int,
    n_blocks: int = 8,
    arrow_fraction: float = 0.25,
    seed: Optional[int] = None,
) -> COOMatrix:
    """Block-diagonal matrix with dense border rows/columns (arrowhead).

    Models optimal-control and chemical-simulation matrices (R03 bayer09,
    R08 spaceStation, R13 kineticBatchReactor) which mix block structure
    with coupling rows.
    """
    if n_blocks < 1:
        raise ShapeError("n_blocks must be >= 1")
    rng = _rng(seed)
    block = max(1, n // n_blocks)
    arrow_nnz = int(nnz * arrow_fraction)
    block_nnz = nnz - arrow_nnz
    seen = set()

    # Border (arrow) entries live in the last few rows and columns.
    border = max(1, n // 50)
    attempts = 0
    while len(seen) < arrow_nnz and attempts < 64:
        attempts += 1
        need = arrow_nnz - len(seen)
        pick_row_side = rng.random(int(need * 1.5) + 8) < 0.5
        rr = np.where(
            pick_row_side,
            rng.integers(n - border, n, size=pick_row_side.size),
            rng.integers(0, n, size=pick_row_side.size),
        )
        cc = np.where(
            pick_row_side,
            rng.integers(0, n, size=pick_row_side.size),
            rng.integers(n - border, n, size=pick_row_side.size),
        )
        for r, cl in zip(rr, cc):
            seen.add(int(r) * n + int(cl))
            if len(seen) >= arrow_nnz:
                break

    # Block-diagonal entries.
    target = arrow_nnz + block_nnz
    attempts = 0
    while len(seen) < target and attempts < 128:
        attempts += 1
        need = target - len(seen)
        b = rng.integers(0, n_blocks, size=int(need * 1.5) + 8)
        base = b * block
        rr = base + rng.integers(0, block, size=b.size)
        cc = base + rng.integers(0, block, size=b.size)
        ok = (rr < n) & (cc < n)
        for r, cl in zip(rr[ok], cc[ok]):
            seen.add(int(r) * n + int(cl))
            if len(seen) >= target:
                break
    keys = np.fromiter(seen, dtype=np.int64, count=len(seen))
    keys.sort()
    return COOMatrix(
        keys // n, keys % n, _values(rng, keys.size), (n, n)
    )


def random_vector(n: int, density: float, seed: Optional[int] = None):
    """Uniform random sparse vector (the paper's 50%-dense B operand)."""
    from repro.sparse.vector import SparseVector

    if not 0.0 <= density <= 1.0:
        raise ShapeError(f"density must be in [0, 1], got {density}")
    rng = _rng(seed)
    nnz = int(round(density * n))
    idx = np.sort(rng.choice(n, size=nnz, replace=False))
    return SparseVector(idx, _values(rng, nnz), n)
