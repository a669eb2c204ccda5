"""The one description of every number the tool prints or stores.

``builtin_catalog()`` holds the paper's 13 catalogued and 7 proposed
metrics, each with its unit, provenance class (the tag it is printed and
stored with), polarity, and the four properties it offers a developer:

* accessibility -- obtainable during model development without hardware;
* high_fidelity -- tracks real deployed energy closely;
* actionability -- comes with an interpretation or threshold that tells the
  developer whether to act;
* trend_based -- version-over-version movement is meaningful even when a
  single reading is not.

Ratio metrics (speedup, greenup, powerup) are trend-based by construction
and are flagged ``trend_inherent``.  Metrics marked ``assumes_estimation``
are only accessible/high-fidelity on the back of a trusted energy
estimation; without one they inherit the estimator's uncertainty.

``ALERT_RULES`` holds the default actionability thresholds as
:class:`AlertRule` s, keyed by their ``report --limit-overrides`` key.  A
rule is the one home of its judgment: every verb that compares a value with
a threshold asks ``violated``, and every threshold a user gives goes
through ``at``, which refuses one outside the metric's domain.

``TOOL_QUANTITIES`` gives the unit and provenance class of each quantity
of the tool's own that the CLI prints or records: the terms of an energy
breakdown, the tallies a metric sums, each side of a comparison.  They are
not catalog metrics: ``find_metric`` does not know them, and the store
takes one only once it is registered.  The three it records
(``RECORDED_QUANTITIES``) still lie in [0, inf), as ``DOMAIN_UPPER`` says.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .fields import number, within


class MissingSpecError(ValueError):
    """Raised when a requested metric needs a hardware-spec field that is absent.

    It lives here, in the module every command imports, so the CLI can map it
    to its exit code without importing ``energy``; ``energy`` re-exports it."""


class Provenance(str, Enum):
    COMPUTED = "computed"  # exact function of the model/trace
    ESTIMATED = "estimated"  # spec-driven estimate
    INGESTED = "ingested"  # supplied from outside (measurement, training log)


class SourceTable(str, Enum):
    TABLE1 = "table1"  # catalogued metrics
    TABLE2 = "table2"  # proposed/derived metrics


class Polarity(str, Enum):
    HIGHER_IS_WORSE = "higher_is_worse"
    HIGHER_IS_BETTER = "higher_is_better"


@dataclass(frozen=True)
class MetricDescriptor:
    key: str
    name: str
    unit: str
    accessibility: bool
    high_fidelity: bool
    actionability: bool
    trend_based: bool
    provenance_class: Provenance
    source_table: SourceTable
    polarity: Polarity
    assumes_estimation: bool = False
    trend_inherent: bool = False
    description: str = ""
    upper: float = math.inf  # the metric's values lie in [0, upper]


# Actionability thresholds: the defaults of the alert rules and of the hardware spec.
SPARSITY_THRESHOLD = 0.60  # activation sparsity below it: too dense for event-driven hardware
POWER_DENSITY_LIMIT = 10.0  # mW/cm^2, the RF-exposure limit applied to implants
BATTERY_LIFE_TARGET_YEARS = 10.0  # implant lifetime between replacement surgeries


@dataclass(frozen=True)
class AlertRule:
    """An actionability threshold on a metric: a value strictly on the
    ``comparison`` side of ``threshold`` violates it.  ``rationale`` says
    why, with ``{threshold}`` standing for the threshold."""

    metric: str
    comparison: str  # "below" | "above": the violating side, strict
    threshold: float
    rationale: str

    def violated(self, value: float) -> bool:
        """The one comparison of a value with an actionability threshold."""
        return value < self.threshold if self.comparison == "below" else value > self.threshold

    def at(self, threshold) -> AlertRule:
        """This rule at ``threshold``, a finite number in the metric's domain:
        no value could cross a threshold outside it, or every value would.
        It is a field rule: ``fields.read_field`` reports a refusal naming
        the option or override that gave the threshold."""
        threshold = number(threshold)
        if self.metric in DOMAIN_UPPER:  # a custom metric has no domain
            within(0, DOMAIN_UPPER[self.metric])(threshold)
        return replace(self, threshold=threshold)

    def alert(self, value: float) -> dict:
        """The report's ``alert`` record of ``value``, a value that violates
        this rule, in the unit the catalog gives the metric."""
        descriptor = DESCRIPTORS.get(self.metric)
        return {"record": "alert", "metric": self.metric, "comparison": self.comparison,
                "threshold": self.threshold,
                "rationale": self.rationale.format(threshold=self.threshold),
                "value": float(value), "unit": descriptor.unit if descriptor is not None else ""}


# The default alert rules, keyed by their ``report --limit-overrides`` key.
ALERT_RULES = {
    "sparsity": AlertRule(
        "activation_sparsity", "below", SPARSITY_THRESHOLD,
        "sparsity below {threshold:.0%} means the network fires too densely to exploit "
        "event-driven hardware; rework the model",
    ),
    "power_density": AlertRule(
        "power_density", "above", POWER_DENSITY_LIMIT,
        "power density above {threshold:g} mW/cm^2 exceeds the safety envelope applied "
        "to RF-emitting implantable devices",
    ),
    "battery_years": AlertRule(
        "estimated_battery_life", "below", BATTERY_LIFE_TARGET_YEARS,
        "implanted batteries must last at least {threshold:g} years to keep replacement "
        "surgeries rare",
    ),
}


def builtin_catalog() -> tuple[MetricDescriptor, ...]:
    """The 13 catalogued metrics plus the 7 proposed derived metrics."""
    return _CATALOG


_C = Provenance.COMPUTED
_E = Provenance.ESTIMATED
_I = Provenance.INGESTED
_T1 = SourceTable.TABLE1
_T2 = SourceTable.TABLE2
_WORSE = Polarity.HIGHER_IS_WORSE
_BETTER = Polarity.HIGHER_IS_BETTER

_CATALOG: tuple[MetricDescriptor, ...] = (
    # -- catalogued metrics -------------------------------------------------
    MetricDescriptor(
        "parameters", "Parameters", "count", True, False, False, False, _C, _T1, _WORSE,
        description="Weights, biases and per-neuron constants of the model.",
    ),
    MetricDescriptor(
        "effective_synops", "Effective Synaptic Operations", "ops/inference",
        True, False, False, True, _C, _T1, _WORSE,
        description="MAC and AC operations actually triggered across the synapses.",
    ),
    MetricDescriptor(
        "membrane_updates", "Membrane Updates", "updates/inference",
        True, False, False, True, _C, _T1, _WORSE,
        description="Neuron membrane-potential updates performed during inference.",
    ),
    MetricDescriptor(
        "activation_sparsity", "Activation Sparsity", "ratio",
        True, False, True, True, _C, _T1, _BETTER, upper=1.0,
        description=f"Share of silent neuron-timesteps; below {SPARSITY_THRESHOLD:.0%} "
        "the model is too dense for event-driven hardware to pay off.",
    ),
    MetricDescriptor(
        "memory_footprint", "Memory Footprint", "bytes",
        True, False, False, False, _C, _T1, _WORSE,
        description="Bytes needed to hold parameters and neuron state.",
    ),
    MetricDescriptor(
        "connection_sparsity", "Connection Sparsity", "ratio",
        True, False, False, False, _C, _T1, _BETTER, upper=1.0,
        description="Share of exactly-zero weights between layers.",
    ),
    MetricDescriptor(
        "memory_accesses", "Memory Accesses", "accesses/inference",
        True, False, False, True, _C, _T1, _WORSE,
        description="Reads and writes derived from the op counts.",
    ),
    MetricDescriptor(
        "training_time", "Training Time", "seconds",
        True, False, False, True, _I, _T1, _WORSE,
        description="Wall-clock time to train the model; supplied externally.",
    ),
    MetricDescriptor(
        "energy_per_inference", "Energy per Inference", "J",
        False, True, False, False, _E, _T1, _WORSE,
        description="Joules for one inference, including device overhead.",
    ),
    MetricDescriptor(
        "energy_per_learning", "Energy per Learning", "J",
        False, True, False, False, _E, _T1, _WORSE,
        description="Joules to process one training sample.",
    ),
    MetricDescriptor(
        "energy_area_fom", "Energy Area FoM", "W*cm^2*s/channel",
        False, True, False, False, _E, _T1, _WORSE,
        description="Per-channel power combined with chip area and sampling "
        "rate; lower is better. Formula is an assumption, flagged in output.",
    ),
    MetricDescriptor(
        "energy_per_sop", "Peak per Energy Consumption", "pJ/SOP",
        False, True, False, False, _E, _T1, _WORSE,
        description="Energy cost of a single synaptic operation.",
    ),
    MetricDescriptor(
        "power_density", "Power Density", "mW/cm^2",
        False, True, True, False, _E, _T1, _WORSE,
        description="Average power per chip area; medical safety limits cap it "
        f"({POWER_DENSITY_LIMIT:g} mW/cm^2 for RF-emitting implants).",
    ),
    # -- proposed derived metrics ------------------------------------------
    MetricDescriptor(
        "energy_delay_product", "Energy Delay Product", "J*s",
        True, True, False, False, _E, _T2, _WORSE, assumes_estimation=True,
        description="Energy times execution time; punishes slow and hungry alike.",
    ),
    MetricDescriptor(
        "speedup", "Speedup", "ratio",
        True, True, True, True, _C, _T2, _BETTER, trend_inherent=True,
        description="Old-to-new execution-time ratio; above 1 the new version "
        "is faster.",
    ),
    MetricDescriptor(
        "greenup", "Greenup", "ratio",
        True, True, True, True, _E, _T2, _BETTER,
        assumes_estimation=True, trend_inherent=True,
        description="Old-to-new energy ratio; above 1 the new version is greener.",
    ),
    MetricDescriptor(
        "powerup", "Powerup", "ratio",
        True, True, True, True, _E, _T2, _WORSE,
        assumes_estimation=True, trend_inherent=True,
        description="Speedup over greenup; above 1 the new version draws more "
        "average power.",
    ),
    MetricDescriptor(
        "estimated_battery_life", "Estimated Battery Life", "years",
        True, True, True, False, _E, _T2, _BETTER, assumes_estimation=True,
        description="Usable battery energy over average draw; implants should "
        f"reach {BATTERY_LIFE_TARGET_YEARS:g} years.",
    ),
    MetricDescriptor(
        "inferences_per_battery_cycle", "Inferences per Battery Cycle", "inferences",
        True, True, True, False, _E, _T2, _BETTER, assumes_estimation=True,
        description="Inferences one full charge can pay for.",
    ),
    MetricDescriptor(
        "accuracy_efficiency_tradeoff", "Accuracy-Efficiency Tradeoff", "accuracy/J",
        True, True, True, True, _E, _T2, _BETTER, assumes_estimation=True,
        description="Accuracy per joule, with the marginal energy cost of "
        "accuracy gains between versions.",
    ),
)

# Key -> descriptor of every catalog metric, as stored values and alert rules name them.
DESCRIPTORS = {d.key: d for d in _CATALOG}
_BY_NAME = {d.name.lower(): d for d in _CATALOG}

# The tool's quantities that recording stores, registered in this order.
RECORDED_QUANTITIES = ("execution_time", "parameters_trainable", "parameters_non_trainable")

# (key, unit, provenance class) of each of the tool's own quantities.
TOOL_QUANTITIES: tuple[tuple[str, str, Provenance], ...] = (
    # recorded by analyze --record and estimate --record
    ("execution_time", "s", _C),
    ("parameters_trainable", "count", _C),
    ("parameters_non_trainable", "count", _C),
    # simulate: the tallies behind effective_synops and memory_accesses
    ("acs", "ops", _C),
    ("macs", "ops", _C),
    ("membrane_updates_dense", "updates", _C),
    ("memory_reads", "accesses", _C),
    ("memory_writes", "accesses", _C),
    ("duration", "s", _C),
    # estimate: the terms of energy_per_inference, and the power it implies
    *((key, "J", _E) for key in (
        "synop_energy", "membrane_energy", "memory_energy", "model_total",
        "static_energy", "adc_energy", "tx_energy", "overhead_total")),
    ("average_power", "W", _E),
    ("peak_window_power", "W", _E),
    # compare: each version's side, and what the accuracy did
    ("energy_delay_product_old", "J*s", _E),
    ("energy_delay_product_new", "J*s", _E),
    ("efficiency_ratio_old", "accuracy/J", _E),
    ("efficiency_ratio_new", "accuracy/J", _E),
    ("marginal_energy_cost", "J per accuracy point", _E),
    ("accuracy_regressed", "", _C),
    ("accuracy_unchanged", "", _C),
)

# Key -> provenance tag of a catalog metric, as the store writes it.
CLASS_TAGS = {d.key: d.provenance_class.value for d in _CATALOG}
# Key -> upper end of the domain [0, upper] of each catalog metric and recorded
# quantity.  The tool's other quantities have none: a marginal energy cost is
# negative when the energy fell.
DOMAIN_UPPER = {**{d.key: d.upper for d in _CATALOG},
                **dict.fromkeys(RECORDED_QUANTITIES, math.inf)}
# Key -> (unit, provenance tag) of every number the CLI prints or records.
UNITS_AND_TAGS = {**{d.key: (d.unit, d.provenance_class.value) for d in _CATALOG},
                  **{key: (unit, tag.value) for key, unit, tag in TOOL_QUANTITIES}}


def find_metric(name: str) -> MetricDescriptor | None:
    """Look a descriptor up by key or display name, case-insensitively."""
    if name in DESCRIPTORS:  # trends and the store's writers mostly pass a key
        return DESCRIPTORS[name]
    lowered = name.strip().lower()
    if lowered in DESCRIPTORS:
        return DESCRIPTORS[lowered]
    return _BY_NAME.get(lowered)


def default_tag(metric: str) -> str:
    """The provenance tag of a stored value that carries none: its catalog
    metric's class, else ``ingested``.  The store's writer and reader both
    apply it, so a value reads back with the tag it would be written with."""
    descriptor = find_metric(metric)
    return descriptor.provenance_class.value if descriptor is not None else _I.value
