"""Seeded inputs for the benchmark's three workloads.

Each workload is a set of files written from the benchmark seed alone: a
model, a workload, a hardware spec and a base trend store.  spikemeter
receives only these files; the seed never reaches it except as the
``simulate --seed`` value derived from it.

Why each workload was chosen
----------------------------

``sim-dense``
    A 784-1024-1024-10 fully connected LIF model (about 41 MB of model
    JSON) with dense Gaussian weights N(0, (1.5/sqrt(fan_in))^2), beta 0.9,
    threshold 1, driven by a rates workload at rate 0.2 for T = 100.  About
    26 M synaptic ops at an activation sparsity near 0.92.  Model parsing
    and event-driven simulation do almost all of the work; the 10-version
    store does almost none.

``sim-sparse-long``
    An implant-style decoder: 96 analog channels with about 3 % of entries
    nonzero, 128 recurrent LIF neurons with 50 % zero weights, 4 outputs,
    T = 10 000 (10 s at 1 ms).  Activation sparsity near 0.98; most MACs
    are analog or leak MACs.  The same simulator runs in the other regime:
    few events per step and many steps.  The MAC, recurrent and leak paths
    all run, the trace file is large (about 5 MB) and the per-timestep
    pricing loop runs 10 000 times.  A change that trades per-event cost
    for per-step cost loses here.

``ci-gate``
    The shipped demo model, workload and hardware spec, with a base store
    of 1000 ``demo`` versions of 17 values each plus one ``ingest`` record
    per 10 versions (about 1.4 MB).  Interpreter and import start-up, store
    parsing and appending, trend building and rendering do almost all of
    the work; the simulator does almost none.  The store is written here
    directly in its line format, because 1000 sequential appends through
    the library re-read the whole store each time (about 13 s).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("sim-dense", "sim-sparse-long", "ci-gate")

# Version the benchmark records on every pass, and the timestamps that make
# every recording verb byte-reproducible.
NEW_VERSION = "bench"
BASE_TIMESTAMP = 1_700_000_000.0
TIMESTAMP_STEP = 3600.0

# Metrics spikemeter registers on first use: name -> unit.  Writing them
# into the base store up front keeps ``estimate --record`` to one appended
# line per pass.
REGISTERED = {
    "execution_time": "s",
    "parameters_trainable": "count",
    "parameters_non_trainable": "count",
}

_COMPUTED = (
    "parameters",
    "parameters_trainable",
    "parameters_non_trainable",
    "memory_footprint",
    "connection_sparsity",
    "activation_sparsity",
    "effective_synops",
    "membrane_updates",
    "memory_accesses",
    "execution_time",
)
_ESTIMATED = (
    "energy_per_inference",
    "energy_delay_product",
    "power_density",
    "energy_per_sop",
    "energy_area_fom",
    "estimated_battery_life",
    "inferences_per_battery_cycle",
)


@dataclass(frozen=True)
class Inputs:
    """Paths and facts about one generated workload."""

    name: str
    model: Path
    workload: Path
    hwspec: Path
    store: Path
    model_name: str
    base_versions: int
    sim_seed: int

    @property
    def last_base_version(self) -> str:
        return version_name(self.base_versions - 1)

    @property
    def record_timestamp(self) -> float:
        return BASE_TIMESTAMP + self.base_versions * TIMESTAMP_STEP


def version_name(index: int) -> str:
    return f"v{index:04d}"


def _rng(name: str, seed: int) -> np.random.Generator:
    # Distinct, stable streams per workload for one benchmark seed.
    return np.random.default_rng([NAMES.index(name), seed & (2**63 - 1)])


def _dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj) + "\n")


def _neuron(beta: float) -> dict:
    return {"beta": beta, "threshold": 1.0, "reset_mode": "to-zero"}


def _fc(weights: np.ndarray, beta: float, kind: str = "fully-connected", **extra) -> dict:
    out_size, in_size = weights.shape
    return {
        "kind": kind,
        "in_size": in_size,
        "out_size": out_size,
        "weights": weights.tolist(),
        **extra,
        "neuron": _neuron(beta),
        "trainable": {"weights": True, "biases": True, "neuron": False},
    }


def _hwspec() -> dict:
    # The demo coefficients, plus a between-layer cost so crossings are priced.
    return {
        "name": "bench-spec",
        "notes": "Illustrative coefficients; not measurements of any real device.",
        "e_mac": 4e-12,
        "e_ac": 1e-12,
        "e_read": 2e-12,
        "e_write": 2e-12,
        "e_membrane_update": 1e-12,
        "e_layer_crossing": 5e-13,
        "membrane_count_mode": "effective",
        "static_power": 1e-6,
        "adc_energy_per_sample": 1e-9,
        "adc_samples_per_inference": 96,
        "tx_energy_per_bit": 5e-9,
        "tx_bits_per_inference": 16,
        "chip_area": 0.25,
        "channels": 96,
        "sampling_frequency": 1000.0,
        "power_density_limit": 10.0,
        "battery": {"capacity_mah": 100.0, "nominal_voltage": 3.0, "usable_fraction": 0.8},
    }


def _sim_dense(rng: np.random.Generator) -> tuple[str, dict]:
    sizes = (784, 1024, 1024, 10)
    layers = [{"kind": "input", "in_size": sizes[0], "out_size": sizes[0]}]
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        w = rng.normal(0.0, 1.5 / np.sqrt(fan_in), size=(fan_out, fan_in))
        layers.append(_fc(w, beta=0.9))
    model = {"name": "dense-mlp", "version": "m1", "layers": layers}
    workload = {"kind": "rates", "values": [0.2] * sizes[0], "timesteps": 100}
    return "dense-mlp", {"model": model, "workload": workload}


def _sim_sparse_long(rng: np.random.Generator) -> tuple[str, dict]:
    channels, hidden, outputs, steps = 96, 128, 4, 10_000

    def half_zero(shape, scale):
        w = rng.normal(0.0, scale, size=shape)
        w[rng.random(shape) < 0.5] = 0.0
        return w

    w_in = half_zero((hidden, channels), 0.45)
    w_rec = half_zero((hidden, hidden), 0.08)
    w_out = half_zero((outputs, hidden), 0.6)
    layers = [
        {"kind": "input", "in_size": channels, "out_size": channels},
        _fc(w_in, beta=0.9, kind="recurrent", recurrent_weights=w_rec.tolist()),
        _fc(w_out, beta=0.9),
    ]
    model = {"name": "implant-decoder", "version": "m1", "layers": layers}
    frames = np.zeros((channels, steps))
    active = rng.random((channels, steps)) < 0.03
    # Analog amplitudes in (0.05, 0.95): never exactly 1, so every input is a MAC.
    frames[active] = rng.uniform(0.05, 0.95, size=int(active.sum()))
    workload = {"kind": "analog", "layer": channels, "timesteps": steps,
                "frames": frames.tolist()}
    return "implant-decoder", {"model": model, "workload": workload}


def _demo_file(src: Path, name: str) -> dict:
    return json.loads((src / "spikemeter" / "data" / name).read_text())


def _base_values(rng: np.random.Generator, count: int) -> list[dict[str, float]]:
    """A seeded random walk over the 17 values ``estimate --record`` writes."""
    start = {
        "parameters": 9.0, "parameters_trainable": 9.0, "parameters_non_trainable": 0.0,
        "memory_footprint": 36.0, "connection_sparsity": 0.0,
        "activation_sparsity": 0.7, "effective_synops": 1.0e4, "membrane_updates": 2.0e3,
        "memory_accesses": 3.0e4, "execution_time": 0.1, "energy_per_inference": 2.0e-7,
        "energy_delay_product": 2.0e-8, "power_density": 8.0e-3, "energy_per_sop": 6.0,
        "energy_area_fom": 2.0e-8, "estimated_battery_life": 4.0,
        "inferences_per_battery_cycle": 4.0e9,
    }
    walk = np.exp(np.cumsum(rng.normal(0.0, 0.02, size=(count, len(start))), axis=0))
    rows = []
    for step in walk:
        row = {key: float(value * factor) for (key, value), factor in zip(start.items(), step)}
        row["activation_sparsity"] = min(row["activation_sparsity"], 0.99)
        rows.append(row)
    return rows


def _write_store(path: Path, model_name: str, versions: int, ingest_every: int,
                 rng: np.random.Generator) -> None:
    """Base store in the line format spikemeter's store module writes."""
    lines = [
        json.dumps({"kind": "register", "name": name, "unit": unit,
                    "polarity": "higher_is_worse", "description": ""}, sort_keys=True)
        for name, unit in REGISTERED.items()
    ]
    provenance = {key: "computed" for key in _COMPUTED}
    provenance.update({key: "estimated" for key in _ESTIMATED})
    for i, values in enumerate(_base_values(rng, versions)):
        timestamp = BASE_TIMESTAMP + i * TIMESTAMP_STEP
        lines.append(json.dumps({
            "kind": "snapshot", "model": model_name, "version": version_name(i),
            "timestamp": timestamp, "values": values, "provenance": provenance,
            "accuracy": None, "notes": "",
        }, sort_keys=True))
        if ingest_every and i % ingest_every == ingest_every - 1:
            lines.append(json.dumps({
                "kind": "ingest", "model": model_name, "version": version_name(i),
                "timestamp": timestamp + 1.0, "metric": "energy_per_inference",
                "value": values["energy_per_inference"] * 1.1,
                "provenance": "ingested", "notes": "bench power-meter reading",
            }, sort_keys=True))
    path.write_text("\n".join(lines) + "\n")


def generate(name: str, seed: int, out: Path, src: Path) -> Inputs:
    """Write the inputs of workload ``name`` for ``seed`` into ``out``.

    ``src`` is the directory holding the ``spikemeter`` package; only the
    ci-gate workload reads from it (the shipped demo files).
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    out.mkdir(parents=True, exist_ok=True)
    rng = _rng(name, seed)
    if name == "ci-gate":
        model_name = "demo"
        files = {"model": _demo_file(src, "demo_model.json"),
                 "workload": _demo_file(src, "demo_workload.json")}
        hwspec = _demo_file(src, "demo_hwspec.json")
        versions, ingest_every = 1000, 10
    else:
        maker = _sim_dense if name == "sim-dense" else _sim_sparse_long
        model_name, files = maker(rng)
        hwspec = _hwspec()
        versions, ingest_every = 10, 0
    inputs = Inputs(
        name=name,
        model=out / "model.json",
        workload=out / "workload.json",
        hwspec=out / "hwspec.json",
        store=out / "base_store.jsonl",
        model_name=model_name,
        base_versions=versions,
        sim_seed=int(rng.integers(0, 2**31)),
    )
    _dump(files["model"], inputs.model)
    _dump(files["workload"], inputs.workload)
    _dump(hwspec, inputs.hwspec)
    _write_store(inputs.store, model_name, versions, ingest_every, rng)
    return inputs

