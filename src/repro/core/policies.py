"""Reconfiguration cost-aware prediction policies (paper Section 4.4).

The predictive model proposes a configuration for the next epoch; a
policy then decides, per parameter, whether applying the change is
worth its reconfiguration cost:

* **Aggressive** — always applies the prediction.
* **Conservative** — never applies a change costing more than a fixed
  time budget (in practice this blocks the flush-inducing fine-grained
  changes and lets the super-fine ones through).
* **Hybrid** — applies a change only if its time cost is within a
  tolerance fraction of the previous epoch's elapsed time, penalizing
  bursts of expensive reconfiguration in short epochs while allowing
  occasional ones in long epochs. The paper finds 10-40 % tolerances
  best (Figure 11 left) and uses 40 % for SpMSpV.

Every policy can also *explain* itself: pass a list as ``verdicts`` to
:meth:`~ReconfigurationPolicy.filter` and the per-parameter walk
appends one :class:`PolicyVerdict` per proposed change, carrying the
accept/reject decision, the cost-vs-budget numbers that produced it, a
stable machine-readable ``code``, and a human-readable ``reason``
sentence. :meth:`~ReconfigurationPolicy.filter_with_verdicts` is the
same call returning the list. There is one walk, so an explained run
can never diverge from an unexplained one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigError
from repro.transmuter.config import HardwareConfig
from repro.transmuter.power import PowerModel
from repro.transmuter.reconfig import (
    ReconfigCost,
    changed_parameters,
    parameter_change_cost,
)

__all__ = [
    "PolicyVerdict",
    "ReconfigurationPolicy",
    "AggressivePolicy",
    "ConservativePolicy",
    "HybridPolicy",
    "policy_from_name",
    "parse_policy",
]


@dataclass(frozen=True)
class PolicyVerdict:
    """One accept/reject decision on a single proposed parameter change.

    ``code`` is a stable machine-readable label (metrics, queries);
    ``reason`` a stable human-readable sentence carrying the cost and
    budget numbers that produced the decision. ``payback_epochs`` is
    the reconfiguration time expressed in units of the previous epoch's
    duration — "this change costs 3.1 epochs to pay for" — and is
    ``inf`` when the epoch duration is unknown (first epoch).
    """

    parameter: str
    proposed: object
    current: object
    accepted: bool
    code: str
    reason: str
    cost_time_s: float
    cost_energy_j: float
    budget_s: float
    payback_epochs: float

    def as_dict(self) -> dict:
        """JSON-friendly view (trace payloads, ``--json`` surfaces)."""
        return {
            "parameter": self.parameter,
            "proposed": self.proposed,
            "current": self.current,
            "accepted": self.accepted,
            "code": self.code,
            "reason": self.reason,
            "cost_time_s": self.cost_time_s,
            "cost_energy_j": self.cost_energy_j,
            "budget_s": self.budget_s,
            "payback_epochs": self.payback_epochs,
        }


def _payback_epochs(cost_time_s: float, last_epoch_time_s: float) -> float:
    if last_epoch_time_s > 0.0:
        return cost_time_s / last_epoch_time_s
    return float("inf")


class ReconfigurationPolicy:
    """Filters a predicted configuration against reconfiguration cost."""

    name = "base"

    def filter(
        self,
        current: HardwareConfig,
        predicted: HardwareConfig,
        last_epoch_time_s: float,
        power: PowerModel,
        bandwidth_gbps: float,
        dirty_bytes_hint=None,
        verdicts: Optional[List["PolicyVerdict"]] = None,
    ) -> HardwareConfig:
        """Return the configuration to actually apply.

        When ``verdicts`` is a list, one :class:`PolicyVerdict` per
        proposed change is appended to it.
        """
        raise NotImplementedError

    def filter_with_verdicts(
        self,
        current: HardwareConfig,
        predicted: HardwareConfig,
        last_epoch_time_s: float,
        power: PowerModel,
        bandwidth_gbps: float,
        dirty_bytes_hint=None,
    ) -> Tuple[HardwareConfig, List["PolicyVerdict"]]:
        """``filter`` plus one :class:`PolicyVerdict` per proposed change."""
        verdicts: List[PolicyVerdict] = []
        applied = self.filter(
            current,
            predicted,
            last_epoch_time_s,
            power,
            bandwidth_gbps,
            dirty_bytes_hint=dirty_bytes_hint,
            verdicts=verdicts,
        )
        return applied, verdicts

    # ------------------------------------------------------------------
    def _verdict(
        self,
        parameter: str,
        current_value,
        proposed_value,
        cost: ReconfigCost,
        accepted: bool,
        budget_s: float,
        last_epoch_time_s: float,
    ) -> "PolicyVerdict":
        """Policy-specific verdict record; subclasses supply the prose."""
        raise NotImplementedError

    def _apply_per_parameter(
        self,
        current: HardwareConfig,
        predicted: HardwareConfig,
        power: PowerModel,
        bandwidth_gbps: float,
        accept,
        dirty_bytes_hint=None,
        budget_s: float = float("inf"),
        last_epoch_time_s: float = 0.0,
        verdicts: Optional[List["PolicyVerdict"]] = None,
    ) -> HardwareConfig:
        """Shared per-knob walk: ``accept(cost)`` decides each change.

        When ``verdicts`` is a list, one :class:`PolicyVerdict` per
        proposed change is appended; the decision itself is taken by the
        exact same ``accept`` call either way.
        """
        config = current
        for name in changed_parameters(current, predicted):
            cost = parameter_change_cost(
                config, predicted, name, power, bandwidth_gbps,
                dirty_bytes_hint=dirty_bytes_hint,
            )
            accepted = accept(cost)
            if verdicts is not None:
                verdicts.append(
                    self._verdict(
                        name,
                        config.get(name),
                        predicted.get(name),
                        cost,
                        accepted,
                        budget_s,
                        last_epoch_time_s,
                    )
                )
            if accepted:
                config = config.with_value(name, predicted.get(name))
        return config


class AggressivePolicy(ReconfigurationPolicy):
    """Always follow the model's prediction."""

    name = "aggressive"

    def filter(
        self,
        current: HardwareConfig,
        predicted: HardwareConfig,
        last_epoch_time_s: float,
        power: PowerModel,
        bandwidth_gbps: float,
        dirty_bytes_hint=None,
        verdicts: Optional[List[PolicyVerdict]] = None,
    ) -> HardwareConfig:
        if verdicts is not None:
            # Nothing to decide; cost each change only to explain it.
            self._apply_per_parameter(
                current,
                predicted,
                power,
                bandwidth_gbps,
                accept=lambda cost: True,
                dirty_bytes_hint=dirty_bytes_hint,
                last_epoch_time_s=last_epoch_time_s,
                verdicts=verdicts,
            )
        return predicted

    def _verdict(
        self,
        parameter,
        current_value,
        proposed_value,
        cost,
        accepted,
        budget_s,
        last_epoch_time_s,
    ) -> PolicyVerdict:
        return PolicyVerdict(
            parameter=parameter,
            proposed=proposed_value,
            current=current_value,
            accepted=True,
            code="always_apply",
            reason=(
                f"applied {parameter}: aggressive policy always follows "
                f"the prediction (cost {cost.time_s:.3e} s)"
            ),
            cost_time_s=cost.time_s,
            cost_energy_j=cost.energy_j,
            budget_s=budget_s,
            payback_epochs=_payback_epochs(cost.time_s, last_epoch_time_s),
        )


class ConservativePolicy(ReconfigurationPolicy):
    """Skip any single-parameter change costing more than a fixed time."""

    name = "conservative"

    def __init__(self, max_cost_s: float = 5e-6) -> None:
        if max_cost_s < 0:
            raise ConfigError("max_cost_s must be non-negative")
        self.max_cost_s = max_cost_s

    def filter(
        self,
        current: HardwareConfig,
        predicted: HardwareConfig,
        last_epoch_time_s: float,
        power: PowerModel,
        bandwidth_gbps: float,
        dirty_bytes_hint=None,
        verdicts: Optional[List[PolicyVerdict]] = None,
    ) -> HardwareConfig:
        return self._apply_per_parameter(
            current,
            predicted,
            power,
            bandwidth_gbps,
            accept=lambda cost: cost.time_s <= self.max_cost_s,
            dirty_bytes_hint=dirty_bytes_hint,
            budget_s=self.max_cost_s,
            last_epoch_time_s=last_epoch_time_s,
            verdicts=verdicts,
        )

    def _verdict(
        self,
        parameter,
        current_value,
        proposed_value,
        cost,
        accepted,
        budget_s,
        last_epoch_time_s,
    ) -> PolicyVerdict:
        relation = "<=" if accepted else ">"
        action = "applied" if accepted else "rejected"
        code = "within_max_cost" if accepted else "over_max_cost"
        return PolicyVerdict(
            parameter=parameter,
            proposed=proposed_value,
            current=current_value,
            accepted=accepted,
            code=code,
            reason=(
                f"{action} {parameter}: cost {cost.time_s:.3e} s "
                f"{relation} max {budget_s:.3e} s"
            ),
            cost_time_s=cost.time_s,
            cost_energy_j=cost.energy_j,
            budget_s=budget_s,
            payback_epochs=_payback_epochs(cost.time_s, last_epoch_time_s),
        )


class HybridPolicy(ReconfigurationPolicy):
    """Allow a change when its cost is a small fraction of the epoch."""

    name = "hybrid"

    def __init__(self, tolerance: float = 0.40) -> None:
        if tolerance < 0:
            raise ConfigError("tolerance must be non-negative")
        self.tolerance = tolerance

    def filter(
        self,
        current: HardwareConfig,
        predicted: HardwareConfig,
        last_epoch_time_s: float,
        power: PowerModel,
        bandwidth_gbps: float,
        dirty_bytes_hint=None,
        verdicts: Optional[List[PolicyVerdict]] = None,
    ) -> HardwareConfig:
        budget = self.tolerance * max(last_epoch_time_s, 0.0)
        return self._apply_per_parameter(
            current,
            predicted,
            power,
            bandwidth_gbps,
            accept=lambda cost: cost.time_s <= budget,
            dirty_bytes_hint=dirty_bytes_hint,
            budget_s=budget,
            last_epoch_time_s=last_epoch_time_s,
            verdicts=verdicts,
        )

    def _verdict(
        self,
        parameter,
        current_value,
        proposed_value,
        cost,
        accepted,
        budget_s,
        last_epoch_time_s,
    ) -> PolicyVerdict:
        relation = "<=" if accepted else ">"
        action = "applied" if accepted else "rejected"
        code = "within_budget" if accepted else "over_budget"
        payback = _payback_epochs(cost.time_s, last_epoch_time_s)
        return PolicyVerdict(
            parameter=parameter,
            proposed=proposed_value,
            current=current_value,
            accepted=accepted,
            code=code,
            reason=(
                f"{action} {parameter}: cost {cost.time_s:.3e} s "
                f"{relation} budget {budget_s:.3e} s "
                f"({self.tolerance:.0%} of epoch {last_epoch_time_s:.3e} s); "
                f"payback {payback:.2f} epochs vs tolerance "
                f"{self.tolerance:.2f}"
            ),
            cost_time_s=cost.time_s,
            cost_energy_j=cost.energy_j,
            budget_s=budget_s,
            payback_epochs=payback,
        )


def policy_from_name(name: str, **kwargs) -> ReconfigurationPolicy:
    """Instantiate a policy by its paper name."""
    policies = {
        "aggressive": AggressivePolicy,
        "conservative": ConservativePolicy,
        "hybrid": HybridPolicy,
    }
    if name not in policies:
        raise ConfigError(f"unknown policy {name!r}")
    return policies[name](**kwargs)


def parse_policy(text: str) -> ReconfigurationPolicy:
    """Parse a declarative policy string from a plan or experiment spec.

    Accepted forms: ``conservative``, ``aggressive``, ``hybrid`` (the
    default 40% tolerance), and ``hybrid:<tolerance>`` with the
    tolerance as a fraction (``hybrid:0.4``). The string is the
    content-addressed identity of the policy inside a
    :class:`~repro.runner.plan.JobSpec`, so two spellings of the same
    policy (``hybrid`` vs ``hybrid:0.40``) are *different* job keys on
    purpose — the description, not the object, is what is hashed.
    """
    if not isinstance(text, str) or not text.strip():
        raise ConfigError(f"policy must be a non-empty string, got {text!r}")
    name, sep, argument = text.partition(":")
    name = name.strip().lower()
    kwargs = {}
    if sep:
        if name != "hybrid":
            raise ConfigError(
                f"policy {name!r} takes no tolerance argument "
                f"(only 'hybrid:<tolerance>' does)"
            )
        try:
            kwargs["tolerance"] = float(argument)
        except ValueError:
            raise ConfigError(
                f"hybrid tolerance must be a number, got {argument!r}"
            ) from None
    return policy_from_name(name, **kwargs)
