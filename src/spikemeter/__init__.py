"""spikemeter: energy metrics for spiking neural network workloads.

Pipeline: describe a model (model), simulate it (simulate, with a
brute-force oracle for cross-checking), reduce the trace to workload
metrics (workload), price them against a hardware spec (energy), derive
version-to-version metrics (compare), and track everything in an
append-only store with actionability alerts (store, catalog, report).
"""

from .catalog import MetricDescriptor, Polarity, Provenance, builtin_catalog, find_metric
from .compare import (
    VersionMeasurement,
    accuracy_energy_tradeoff,
    efficiency_ratio,
    energy_delay_product,
    estimated_battery_life,
    greenup,
    inferences_per_battery_cycle,
    powerup,
    speedup,
)
from .energy import (
    EnergyBreakdown,
    HardwareSpec,
    MissingSpecError,
    average_power,
    energy_area_fom,
    energy_per_inference,
    energy_per_learning_sample,
    energy_per_sop,
    estimate_energy,
    load_hardware_spec,
    power_density,
)
from .model import (
    LayerDescriptor,
    ModelDescriptor,
    NeuronParams,
    ParameterCount,
    connection_sparsity,
    count_parameters,
    load_model,
    memory_footprint,
    save_model,
)
from .oracle import dense_oracle_counts
from .simulate import (
    AnalogTrain,
    NeuronState,
    SimulationConfig,
    SpikeTrain,
    WorkloadTrace,
    rate_encode,
    run_inference,
    step_lif,
)
from .store import (
    MetricSnapshot,
    TrendReport,
    default_alert_rules,
    evaluate_alerts,
    read_store,
    record_external_metric,
    record_snapshot,
    register_metric,
    trend_report,
)
from .workload import (
    MemoryAccessCounts,
    OpCounts,
    activation_sparsity,
    dense_synops,
    effective_synops,
    memory_accesses,
)

__version__ = "0.1.0"
