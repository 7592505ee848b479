"""Compiled hot path: vectorized epoch batches and flat decision tables.

Campaigns evaluate the analytic machine model and the CART ensemble
millions of times; both are pure-Python loops on the reference path.
This package compiles them down to numpy:

* :mod:`repro.fastpath.tables` flattens fitted trees and forests into
  contiguous feature/threshold/child/value arrays walked breadth-wise
  over whole batches (and by a tight flat-array loop for the single-row
  controller case).
* :mod:`repro.fastpath.epochs` evaluates the cache/crossbar/DVFS/power
  epoch model for a whole ``workloads x configs`` grid in one pass of
  elementwise array ops.
* :mod:`repro.fastpath.transitions` prices every ``source -> target``
  switch of a sampled configuration set (the (time, energy) transition
  matrices behind Ideal Greedy and the Oracle) in one pass of
  elementwise array ops, instead of one ``reconfiguration_cost`` call
  per pair.

**Bit-identity is the contract.** Every downstream guarantee
(kill/resume, multi-host convergence, compare gates) keys off exact
report bytes, so the fast path must be numerically indistinguishable
from the scalar reference:

* elementwise float64 ``+ - * /``, ``minimum``/``maximum`` and
  ``sqrt`` are IEEE-754 correctly rounded in both numpy and CPython,
  so mirrored expressions (same operand order, same grouping) produce
  the same bits;
* ``**`` is NOT: numpy's SIMD ``pow`` differs from libm's in the last
  ulp for most exponents, so every data-dependent power is routed
  through :func:`repro.fastpath.epochs.pow_exact` (CPython's
  ``float.__pow__`` applied elementwise) and every config-only power
  (DVFS operating points, SRAM access energies, leakage) is
  precomputed per distinct configuration with the original scalar
  functions.

``tests/test_fastpath_equivalence.py`` locks the equivalence down with
differential property tests; ``REPRO_FASTPATH=0`` (or ``--no-fastpath``)
selects the scalar reference path everywhere. :func:`enabled` is the
only gate: a trace recorder observes whichever path it selects.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "enabled",
    "set_enabled",
    "overridden",
    "env_default",
]

_FALSEY = ("0", "false", "no", "off")


def env_default() -> bool:
    """The gate value requested by the ``REPRO_FASTPATH`` variable."""
    raw = os.environ.get("REPRO_FASTPATH", "1").strip().lower()
    return raw not in _FALSEY


_STATE = {"enabled": env_default()}


def enabled() -> bool:
    """Whether the compiled fast path is selected for this process."""
    return _STATE["enabled"]


def set_enabled(flag: bool) -> bool:
    """Set the gate (e.g. from ``--no-fastpath``); returns the old value."""
    old = _STATE["enabled"]
    _STATE["enabled"] = bool(flag)
    return old


@contextmanager
def overridden(flag: bool) -> Iterator[None]:
    """Temporarily force the gate (differential tests run both legs)."""
    old = set_enabled(flag)
    try:
        yield
    finally:
        set_enabled(old)

