"""Vectorized configuration-transition cost matrices.

:func:`transition_matrices` prices every ``source -> target`` switch of
a sampled configuration set in one pass of elementwise array ops,
bit-identical to calling
:func:`repro.transmuter.reconfig.reconfiguration_cost` once per pair.
It mirrors ``_reconfiguration_cost`` term for term:

* the fixed latch-update cost, paid at the target's clock;
* an L1 (L2) flush when that layer's capacity shrinks or its sharing
  mode changes;
* flushed dirty bytes ``min(provisioned * FLUSH_DIRTY_FRACTION, hint)``
  of the source configuration;
* gated leakage during the flush window: the source's leakage at the
  target's operating point times ``FLUSH_GATED_LEAK_FRACTION``;
* zero cost between equal configurations (the diagonal).

Per-config quantities come from the original scalar functions
(``operating_point``, ``provisioned_l*_kb``, ``leakage_power``) and are
then combined with the scalar code's operand order and grouping, so
every cell has the reference bits (see :mod:`repro.fastpath`).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.transmuter import params
from repro.transmuter.config import HardwareConfig
from repro.transmuter.dvfs import OperatingPoint, operating_point
from repro.transmuter.power import PowerModel
from repro.transmuter.reconfig import (
    E_FLUSH_L1_BYTE,
    E_FLUSH_L2_BYTE,
    L1_FLUSH_BYTES_PER_CYCLE,
    changed_parameters,
)

__all__ = ["transition_matrices"]

#: ``leakage_power(config, point) == base * point.leakage_scale``, with
#: ``base`` the configuration's leakage at unit scale (``x * 1.0 == x``).
_UNIT_LEAKAGE = OperatingPoint(
    frequency_mhz=params.F_NOMINAL_MHZ,
    voltage=params.VDD_NOMINAL,
    dynamic_scale=1.0,
    leakage_scale=1.0,
)


def transition_matrices(
    configs: Sequence[HardwareConfig],
    power: PowerModel,
    bandwidth_gbps: float,
    dirty_bytes_hint: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """(time, energy) of every ``configs[i] -> configs[j]`` switch.

    Rows are sources, columns targets. The L1 memory type is compile
    time only: a set that mixes cache and SPM configurations raises
    :class:`~repro.errors.ConfigError`, as the scalar costing does.
    """
    for config in configs:
        if config.l1_type != configs[0].l1_type:
            changed_parameters(configs[0], config)  # raises ConfigError
    flush_hz = params.F_NOMINAL_MHZ * 1e6
    points = {
        clock: operating_point(clock)
        for clock in {cfg.clock_mhz for cfg in configs}
    }
    # Per target: the fixed reconfiguration cost at its clock, and the
    # leakage scale of its operating point.
    fixed_time = np.array(
        [
            params.RECONFIG_FIXED_CYCLES / (cfg.clock_mhz * 1e6)
            for cfg in configs
        ]
    )[None, :]
    fixed_energy = np.array(
        [
            params.RECONFIG_FIXED_CYCLES
            * params.E_CORE_OP
            * points[cfg.clock_mhz].dynamic_scale
            for cfg in configs
        ]
    )[None, :]
    leakage_scale = np.array(
        [points[cfg.clock_mhz].leakage_scale for cfg in configs]
    )[None, :]
    # Per source: flushed dirty bytes, flush windows and leakage base.
    leakage_base = np.array(
        [power.leakage_power(cfg, _UNIT_LEAKAGE) for cfg in configs]
    )[:, None]
    dirty_l1 = np.array(
        [
            power.provisioned_l1_kb(cfg) * 1024.0 * params.FLUSH_DIRTY_FRACTION
            for cfg in configs
        ]
    )
    dirty_l2 = np.array(
        [
            power.provisioned_l2_kb(cfg) * 1024.0 * params.FLUSH_DIRTY_FRACTION
            for cfg in configs
        ]
    )
    if dirty_bytes_hint is not None:
        dirty_l1 = np.minimum(dirty_l1, dirty_bytes_hint)
        dirty_l2 = np.minimum(dirty_l2, dirty_bytes_hint)
    flush_time_l1 = (dirty_l1 / L1_FLUSH_BYTES_PER_CYCLE / flush_hz)[:, None]
    flush_time_l2 = (dirty_l2 / (bandwidth_gbps * 1e9))[:, None]
    dirty_l1 = dirty_l1[:, None]
    dirty_l2 = dirty_l2[:, None]
    leak_w = (leakage_base * leakage_scale) * params.FLUSH_GATED_LEAK_FRACTION

    def column(attr: str) -> np.ndarray:
        return np.array([getattr(cfg, attr) for cfg in configs])[:, None]

    # A flag at [i, j] compares target ``column.T`` with source ``column``.
    l1_kb, l2_kb = column("l1_kb"), column("l2_kb")
    l1_shared = column("l1_sharing") == "shared"
    l2_shared = column("l2_sharing") == "shared"
    flush_l1 = (l1_kb.T < l1_kb) | (l1_shared.T != l1_shared)
    flush_l2 = (l2_kb.T < l2_kb) | (l2_shared.T != l2_shared)

    times = np.where(flush_l1, fixed_time + flush_time_l1, fixed_time)
    energies = np.where(
        flush_l1,
        fixed_energy + (dirty_l1 * E_FLUSH_L1_BYTE + leak_w * flush_time_l1),
        fixed_energy,
    )
    times = np.where(flush_l2, times + flush_time_l2, times)
    energies = np.where(
        flush_l2,
        energies + (dirty_l2 * E_FLUSH_L2_BYTE + leak_w * flush_time_l2),
        energies,
    )
    # Equal configurations (the diagonal, and any repeats) switch free.
    ids: Dict[HardwareConfig, int] = {}
    index = np.array([ids.setdefault(cfg, len(ids)) for cfg in configs])
    unchanged = index[:, None] == index[None, :]
    times[unchanged] = 0.0
    energies[unchanged] = 0.0
    return times, energies
