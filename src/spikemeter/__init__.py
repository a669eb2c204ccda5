"""spikemeter: energy metrics for spiking neural network workloads.

Pipeline: describe a model (model), simulate it (simulate, with a
brute-force oracle for cross-checking), reduce the trace to workload
metrics (workload), price them against a hardware spec (energy), derive
version-to-version metrics (compare), and track everything in an
append-only store with actionability alerts (store, catalog, report).

The public names below are imported from their submodule on first access
(PEP 562), so ``import spikemeter`` loads nothing else and the store-only
commands never pay for numpy.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "catalog": ("MetricDescriptor", "Polarity", "Provenance", "builtin_catalog", "find_metric"),
    "compare": (
        "VersionMeasurement",
        "accuracy_energy_tradeoff",
        "efficiency_ratio",
        "energy_delay_product",
        "estimated_battery_life",
        "greenup",
        "inferences_per_battery_cycle",
        "powerup",
        "speedup",
    ),
    "energy": (
        "EnergyBreakdown",
        "HardwareSpec",
        "MissingSpecError",
        "average_power",
        "energy_area_fom",
        "energy_per_sop",
        "estimate_energy",
        "load_hardware_spec",
        "power_density",
    ),
    "model": (
        "LayerDescriptor",
        "ModelDescriptor",
        "NeuronParams",
        "ParameterCount",
        "connection_sparsity",
        "count_parameters",
        "load_model",
        "memory_footprint",
        "save_model",
    ),
    "oracle": ("dense_oracle_counts",),
    "simulate": (
        "AnalogTrain",
        "NeuronState",
        "SimulationConfig",
        "SpikeTrain",
        "WorkloadTrace",
        "rate_encode",
        "run_inference",
        "step_lif",
    ),
    "store": (
        "MetricSnapshot",
        "evaluate_alerts",
        "read_store",
        "record_external_metric",
        "record_snapshot",
        "register_metric",
        "trend_report",
    ),
    "workload": (
        "MemoryAccessCounts",
        "OpCounts",
        "TraceCounts",
        "activation_sparsity",
        "effective_synops",
        "memory_accesses",
    ),
}
_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = ["__version__", *_SUBMODULE]


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
