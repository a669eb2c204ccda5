"""Spec-driven energy estimation.

Turns op counts plus a hardware cost specification into an energy breakdown
split between costs the SNN model is responsible for (synaptic ops,
membrane updates, memory traffic) and device overhead the model merely
rides along with (standby leakage, ADC sampling, radio transmission).  The
hardware-side metrics -- energy per inference, pJ/SOP, power density,
energy-area figure of merit -- all derive from that breakdown.  The catalog
holds their provenance tag, "estimated", which keeps them distinguishable
from measured values; the results here carry no tag.

Hardware spec file: a JSON object whose keys are the fields of
:class:`HardwareSpec`, with an optional ``battery`` object holding the fields
of :class:`BatterySpec`.  Energies are joules, powers watts, areas cm^2,
frequencies Hz; ``power_density_limit`` is mW/cm^2.  Each numeric field's
annotation gives its domain.  Unknown keys are rejected outright so a
misspelled coefficient cannot silently default to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Annotated

from .catalog import ALERT_RULES, DOMAIN_UPPER, POWER_DENSITY_LIMIT, MissingSpecError
from .fields import check, load_json, read_record, within
from .workload import MemoryAccessCounts, OpCounts, TraceCounts, derive_accesses

JOULES_PER_MAH_VOLT = 3.6  # 1 mAh = 3.6 coulombs


class HardwareSpecError(ValueError):
    """Raised when a hardware spec file or value is invalid."""


class MembraneCountMode(str, Enum):
    EFFECTIVE = "effective"  # updates only where state changed
    DENSE = "dense"  # hardware refreshes every neuron every cycle


@dataclass(frozen=True)
class BatterySpec:
    capacity_joules: Annotated[float, within(0)] | None = None
    capacity_mah: Annotated[float, within(0)] | None = None
    nominal_voltage: Annotated[float, within(0)] | None = None
    usable_fraction: Annotated[float, within(0, 1, open_lo=True)] = 1.0

    def __post_init__(self) -> None:
        check(self, "battery", HardwareSpecError)
        if self.capacity_joules is None and (
            self.capacity_mah is None or self.nominal_voltage is None
        ):
            raise HardwareSpecError(
                "battery needs capacity_joules or both capacity_mah and nominal_voltage"
            )

    @property
    def usable_joules(self) -> float:
        if self.capacity_joules is not None:
            total = self.capacity_joules
        else:
            total = self.capacity_mah * JOULES_PER_MAH_VOLT * self.nominal_voltage
        return total * self.usable_fraction


@dataclass(frozen=True)
class HardwareSpec:
    """Per-operation energy costs and device overhead figures.
    ``power_density_rule`` is the catalog's power-density alert rule at
    ``power_density_limit``, which lies in that metric's domain."""

    name: str = ""
    e_mac: Annotated[float, within(0)] = 0.0  # J per multiply-accumulate
    e_ac: Annotated[float, within(0)] = 0.0  # J per accumulate
    e_read: Annotated[float, within(0)] = 0.0  # J per memory read
    e_write: Annotated[float, within(0)] = 0.0  # J per memory write
    e_membrane_update: Annotated[float, within(0)] = 0.0  # J per membrane update
    e_layer_crossing: Annotated[float, within(0)] = 0.0  # J per event forwarded between layers
    membrane_count_mode: MembraneCountMode = MembraneCountMode.EFFECTIVE
    static_power: Annotated[float, within(0)] = 0.0  # W standby leakage
    adc_energy_per_sample: Annotated[float, within(0)] = 0.0  # J
    adc_samples_per_inference: Annotated[int, within(0)] = 0
    tx_energy_per_bit: Annotated[float, within(0)] = 0.0  # J
    tx_bits_per_inference: Annotated[int, within(0)] = 0
    chip_area: Annotated[float, within(0, open_lo=True)] | None = None  # cm^2
    channels: Annotated[int, within(1)] | None = None
    sampling_frequency: Annotated[float, within(0, open_lo=True)] | None = None  # Hz
    power_density_limit: Annotated[float, within(0, DOMAIN_UPPER["power_density"])] = (
        POWER_DENSITY_LIMIT)  # mW/cm^2
    battery: BatterySpec | None = None
    notes: str = ""

    def __post_init__(self) -> None:
        check(self, "hardware spec", HardwareSpecError)
        object.__setattr__(self, "power_density_rule",
                           ALERT_RULES["power_density"].at(self.power_density_limit))


@dataclass(frozen=True)
class ModelEnergy:
    synop_energy: float
    membrane_energy: float
    memory_energy: float
    model_total: float


@dataclass(frozen=True)
class OverheadEnergy:
    static_energy: float
    adc_energy: float
    tx_energy: float
    overhead_total: float


@dataclass(frozen=True)
class EnergyBreakdown:
    model: ModelEnergy
    overhead: OverheadEnergy
    total: float
    duration: float  # seconds


def _price_model(spec, macs, acs, crossings, updates_effective, updates_dense, reads, writes):
    """(synop, membrane, memory) joules: the one home of the pricing formula.

    It prices op totals and one timestep's tallies alike.
    """
    effective = spec.membrane_count_mode is MembraneCountMode.EFFECTIVE
    updates = updates_effective if effective else updates_dense
    synop = macs * spec.e_mac + acs * spec.e_ac + crossings * spec.e_layer_crossing
    membrane = updates * spec.e_membrane_update
    memory = reads * spec.e_read + writes * spec.e_write
    return synop, membrane, memory


def estimate_energy(
    ops: OpCounts,
    mem: MemoryAccessCounts,
    spec: HardwareSpec,
    duration: float,
    *,
    crossings: int = 0,
) -> EnergyBreakdown:
    """Price the supplied counts against the hardware spec.

    ``duration`` is the wall-clock span the static leakage integrates over.
    ``crossings`` scales the optional between-layer processing coefficient
    (mixed analog-digital designs); it contributes to the synaptic-op
    bucket and defaults to no effect.
    """
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError("duration must be finite and > 0")
    if crossings < 0:
        raise ValueError("crossings must be >= 0")
    synop, membrane, memory = _price_model(
        spec, ops.macs, ops.acs, crossings, ops.membrane_updates_effective,
        ops.membrane_updates_dense, mem.reads, mem.writes,
    )
    model_total = synop + membrane + memory

    static = spec.static_power * duration
    adc = spec.adc_energy_per_sample * spec.adc_samples_per_inference
    tx = spec.tx_energy_per_bit * spec.tx_bits_per_inference
    overhead_total = static + adc + tx

    return EnergyBreakdown(
        model=ModelEnergy(synop, membrane, memory, model_total),
        overhead=OverheadEnergy(static, adc, tx, overhead_total),
        total=model_total + overhead_total,
        duration=duration,
    )


def average_power(breakdown: EnergyBreakdown) -> float:
    """Watts averaged over the breakdown's duration."""
    if breakdown.duration <= 0:
        raise ValueError("duration must be > 0")
    return breakdown.total / breakdown.duration


def power_density(power_w: float, spec: HardwareSpec) -> float:
    """Average power per chip area, in mW/cm^2.  The spec's
    ``power_density_rule`` judges it."""
    if spec.chip_area is None:
        raise MissingSpecError("power density needs chip_area (cm^2) in the hardware spec")
    return power_w * 1000.0 / spec.chip_area


@dataclass(frozen=True)
class SopEnergyResult:
    average_pj_per_sop: float
    peak_window_power_w: float


def energy_per_sop(
    breakdown: EnergyBreakdown,
    ops: OpCounts,
    trace: TraceCounts,
    spec: HardwareSpec,
    *,
    include_leak_macs: bool = True,
) -> SopEnergyResult:
    """Average model energy per synaptic op, plus the hottest window.

    The averaging uses the model-attributable energy only (overhead is not
    an op cost).  "Peak" is defined over per-timestep windows: the largest
    single-timestep model energy, priced by the same formula as the total,
    divided by the timestep duration.  Each window is priced from Python
    ints, so no tally wraps however large it is.
    """
    if ops.total_sops <= 0:
        raise ValueError("energy per SOP is undefined with zero synaptic operations")
    avg_pj = breakdown.model.model_total * 1e12 / ops.total_sops

    dense = trace.non_input_neurons
    peak_energy = 0.0
    for macs, acs, leak_macs, crossings, updates in zip(
        trace.macs, trace.acs, trace.leak_macs, trace.crossings, trace.membrane_updates
    ):
        reads, writes = derive_accesses(macs, acs, leak_macs, include_leak_macs=include_leak_macs)
        synop, membrane, memory = _price_model(
            spec, macs, acs, crossings, updates, dense, reads, writes
        )
        peak_energy = max(peak_energy, synop + membrane + memory)
    return SopEnergyResult(
        average_pj_per_sop=avg_pj,
        peak_window_power_w=peak_energy / trace.timestep_duration,
    )


@dataclass(frozen=True)
class FomResult:
    value: float  # in the catalog's energy_area_fom unit
    formula: str = "(power / channels) * chip_area / sampling_frequency"


def energy_area_fom(power_w: float, spec: HardwareSpec) -> FomResult:
    """Figure of merit combining per-channel power, area and sampling rate.

    The combining formula is an assumption documented in the result; treat
    the value as comparable only against numbers produced the same way.
    """
    missing = [
        name
        for name, val in (
            ("channels", spec.channels),
            ("chip_area", spec.chip_area),
            ("sampling_frequency", spec.sampling_frequency),
        )
        if val is None
    ]
    if missing:
        raise MissingSpecError(f"energy-area FoM needs spec fields: {', '.join(missing)}")
    value = (power_w / spec.channels) * spec.chip_area / spec.sampling_frequency
    return FomResult(value=value)


# ---------------------------------------------------------------------------
# Hardware spec file round-trip
# ---------------------------------------------------------------------------


def hardware_spec_from_dict(raw: dict) -> HardwareSpec:
    return read_record(HardwareSpec, raw, "hardware spec", HardwareSpecError)


def load_hardware_spec(path: str | Path) -> HardwareSpec:
    return hardware_spec_from_dict(load_json(path, "hardware spec", HardwareSpecError))
