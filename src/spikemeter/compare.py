"""Version-to-version efficiency metrics and battery projections.

Ratio orientation: speedup and greenup divide old by new, so values above
1.0 always mean the new version improved (faster, or less total energy),
and powerup = speedup / greenup then equals the ratio of new to old average
power -- above 1.0 means the new version draws more power.  The published
formulas are sometimes printed the other way around; pass
``as_published=True`` to get new/old instead.  The default orientation is
the one under which the powerup reading stays self-consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Annotated

from .catalog import DOMAIN_UPPER, MissingSpecError
from .fields import check, read_field, within

if TYPE_CHECKING:
    from .energy import HardwareSpec

SECONDS_PER_YEAR = 365.25 * 86400.0


@dataclass(frozen=True)
class VersionMeasurement:
    version: str
    # joules per inference (or per workload, used consistently)
    energy: Annotated[float, within(0, DOMAIN_UPPER["energy_per_inference"])]
    time: Annotated[float, within(0, open_lo=True)]  # seconds
    accuracy: Annotated[float, within(0, 1)] | None = None

    def __post_init__(self) -> None:
        check(self, f"version {self.version!r}", ValueError)


def energy_delay_product(energy: float, time: float) -> float:
    """Joule-seconds; penalizes designs that are slow, hungry, or both."""
    if energy < 0 or time < 0:
        raise ValueError("energy and time must be >= 0")
    return energy * time


def speedup(old: VersionMeasurement, new: VersionMeasurement, *, as_published: bool = False) -> float:
    """Execution-time ratio; > 1 means the new version is faster."""
    return new.time / old.time if as_published else old.time / new.time


def greenup(old: VersionMeasurement, new: VersionMeasurement, *, as_published: bool = False) -> float:
    """Total-energy ratio; > 1 means the new version uses less energy."""
    for m in (old, new):  # a ratio needs energies in (0, inf), not the metric's [0, inf)
        read_field(vars(m), "energy", within(0, open_lo=True), f"version {m.version!r}",
                   ValueError)
    return new.energy / old.energy if as_published else old.energy / new.energy


def powerup(speedup_ratio: float, greenup_ratio: float) -> float:
    """speedup / greenup; > 1 means the new version draws more average power."""
    if speedup_ratio <= 0 or greenup_ratio <= 0:
        raise ValueError("ratios must be > 0")
    return speedup_ratio / greenup_ratio


def efficiency_ratio(m: VersionMeasurement) -> float:
    """Accuracy points bought per joule."""
    if m.accuracy is None:
        raise ValueError(f"version {m.version}: accuracy missing")
    if m.energy <= 0:
        raise ValueError(f"version {m.version}: energy must be > 0")
    return m.accuracy / m.energy


@dataclass(frozen=True)
class TradeoffReport:
    efficiency_ratio_old: float
    efficiency_ratio_new: float
    marginal_energy_cost: float | None  # joules per accuracy point, only when accuracy improved
    accuracy_regressed: bool
    accuracy_unchanged: bool


def accuracy_energy_tradeoff(
    old: VersionMeasurement, new: VersionMeasurement
) -> TradeoffReport:
    """Weigh energy spent against accuracy gained between two versions.

    Alongside both raw efficiency ratios, reports the marginal energy cost
    (delta energy / delta accuracy) when accuracy actually improved; a
    regression or no-change is flagged instead of dividing.
    """
    ratio_old = efficiency_ratio(old)
    ratio_new = efficiency_ratio(new)
    d_acc = new.accuracy - old.accuracy
    marginal = None
    if d_acc > 0:
        marginal = (new.energy - old.energy) / d_acc
    return TradeoffReport(
        efficiency_ratio_old=ratio_old,
        efficiency_ratio_new=ratio_new,
        marginal_energy_cost=marginal,
        accuracy_regressed=d_acc < 0,
        accuracy_unchanged=d_acc == 0,
    )


def estimated_battery_life(avg_power_w: float, spec: HardwareSpec) -> float:
    """Usable battery energy divided by average draw, in years.  The
    catalog's ``ALERT_RULES["battery_years"]`` judges it against the minimum
    implant lifetime."""
    if spec.battery is None:
        raise MissingSpecError("battery life needs a battery section in the hardware spec")
    if not (math.isfinite(avg_power_w) and avg_power_w > 0):
        raise ValueError("average power must be > 0")
    return spec.battery.usable_joules / avg_power_w / SECONDS_PER_YEAR


@dataclass(frozen=True)
class CycleBudgetResult:
    idealized: int
    duty_cycled: int | None = None


def inferences_per_battery_cycle(
    e_per_inference: float,
    spec: HardwareSpec,
    *,
    inference_rate_hz: float | None = None,
) -> CycleBudgetResult:
    """How many inferences one full charge can pay for.

    The idealized figure ignores idle drain.  Supplying an inference rate
    adds the static energy burned between inferences
    (the spec's static_power / rate per inference).
    """
    if spec.battery is None:
        raise MissingSpecError(
            "inference budget needs a battery section in the hardware spec"
        )
    if not (math.isfinite(e_per_inference) and e_per_inference > 0):
        raise ValueError("energy per inference must be > 0")
    usable = spec.battery.usable_joules
    if not math.isfinite(usable / e_per_inference):
        raise ValueError("inference budget overflows a float")
    idealized = math.floor(usable / e_per_inference)
    duty_cycled = None
    if inference_rate_hz is not None:
        if inference_rate_hz <= 0:
            raise ValueError("inference rate must be > 0")
        per_inference = e_per_inference + spec.static_power / inference_rate_hz
        duty_cycled = math.floor(usable / per_inference)  # per_inference >= e_per_inference
    return CycleBudgetResult(idealized=idealized, duty_cycled=duty_cycled)
