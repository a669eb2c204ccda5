"""Workload and trace file formats.

Workload file (JSON), three shapes::

    {"kind": "spikes", "layer": N, "timesteps": T, "events": [[neuron, t], ...]}
    {"kind": "rates",  "values": [r0, r1, ...]}            # encoded at run time
    {"kind": "analog", "layer": N, "timesteps": T, "frames": [[...], ...]}

``events`` lists (neuron, timestep) pairs; ``frames`` is a row-major neuron
x timestep matrix of real values.  A rates workload is Bernoulli-encoded
with the run's seed and timestep count, so the file alone does not fix the
train -- the (file, seed, timesteps) triple does.

Trace file: the simulator's full output -- per-layer spike trains,
per-timestep tallies, and the structural metrics of the model that produced
it -- written with sorted keys so identical runs serialize identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .simulate import (
    AnalogTrain,
    SimulationConfig,
    SimulationError,
    SpikeTrain,
    WorkloadTrace,
    _Train,
    rate_encode,
)

TRACE_FORMAT = "spikemeter-trace-v1"


class WorkloadFileError(ValueError):
    """Raised when a workload or trace file is malformed."""


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str  # "spikes" | "rates" | "analog"
    layer: int | None = None
    timesteps: int | None = None
    events: tuple[tuple[int, int], ...] = ()
    values: tuple[float, ...] = ()
    frames: tuple[tuple[float, ...], ...] = ()


def load_workload(path: str | Path) -> WorkloadSpec:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise WorkloadFileError(f"cannot read workload file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise WorkloadFileError(f"malformed workload file {path}: {exc}") from exc
    return workload_from_dict(raw)


def _list_of(convert):
    """A parser for a JSON list whose entries each pass through ``convert``."""

    def parse(items) -> tuple:
        if not isinstance(items, (list, tuple)):
            raise TypeError(f"expected a list, got {type(items).__name__}")
        return tuple(convert(item) for item in items)

    return parse


def _event(item) -> tuple[int, int]:
    if not isinstance(item, (list, tuple)) or len(item) != 2:
        raise ValueError(f"expected a [neuron, timestep] pair, got {item!r}")
    return int(item[0]), int(item[1])


def _field(raw: dict, kind: str, key: str, convert):
    """``raw[key]`` through ``convert``; a missing or malformed field names
    itself in a WorkloadFileError."""
    if key not in raw:
        raise WorkloadFileError(f"{kind} workload needs {key!r}")
    try:
        return convert(raw[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise WorkloadFileError(f"{kind} workload field {key!r}: {exc}") from exc


def workload_from_dict(raw: dict) -> WorkloadSpec:
    if not isinstance(raw, dict):
        raise WorkloadFileError("workload must be a JSON object")
    kind = raw.get("kind")
    if kind is None:
        # bare spike-train files ({layer, timesteps, events}) and the other
        # two shapes are recognizable without the tag
        if "events" in raw:
            kind = "spikes"
        elif "values" in raw:
            kind = "rates"
        elif "frames" in raw:
            kind = "analog"
    if kind == "spikes":
        return WorkloadSpec(
            kind="spikes",
            layer=_field(raw, kind, "layer", int),
            timesteps=_field(raw, kind, "timesteps", int),
            events=_field(raw, kind, "events", _list_of(_event)),
        )
    if kind == "rates":
        return WorkloadSpec(
            kind="rates",
            values=_field(raw, kind, "values", _list_of(float)),
            timesteps=(_field(raw, kind, "timesteps", int)
                       if raw.get("timesteps") is not None else None),
        )
    if kind == "analog":
        return WorkloadSpec(
            kind="analog",
            layer=_field(raw, kind, "layer", int),
            timesteps=_field(raw, kind, "timesteps", int),
            frames=_field(raw, kind, "frames", _list_of(_list_of(float))),
        )
    raise WorkloadFileError(
        f"workload kind must be 'spikes', 'rates' or 'analog', got {kind!r}"
    )


def prepare_input(workload: WorkloadSpec, config: SimulationConfig) -> _Train:
    """Turn a workload spec into the input train for run_inference."""
    if workload.timesteps is not None and workload.timesteps != config.timesteps:
        raise SimulationError(
            f"workload declares {workload.timesteps} timesteps, "
            f"config says {config.timesteps}"
        )
    if workload.kind == "spikes":
        return SpikeTrain.from_events(workload.layer, workload.timesteps, workload.events)
    if workload.kind == "rates":
        return rate_encode(workload.values, config.timesteps, config.seed)
    if workload.kind == "analog":
        frames = np.array(workload.frames, dtype=np.float64)
        if frames.shape != (workload.layer, workload.timesteps):
            raise WorkloadFileError(
                f"frames shape {frames.shape} does not match "
                f"(layer, timesteps) = ({workload.layer}, {workload.timesteps})"
            )
        return AnalogTrain(frames)
    raise WorkloadFileError(f"unsupported workload kind {workload.kind!r}")


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------


def _layer_payload(index: int, events: np.ndarray) -> dict:
    binary = bool(np.all((events == 0.0) | (events == 1.0)))
    if binary:
        ns, ts = np.nonzero(events)
        return {
            "layer": index,
            "kind": "binary",
            "events": [[int(n), int(t)] for n, t in zip(ns, ts)],
        }
    return {"layer": index, "kind": "analog", "frames": events.tolist()}


def trace_to_dict(trace: WorkloadTrace) -> dict:
    return {
        "format": TRACE_FORMAT,
        "model": {"name": trace.model_name, "version": trace.model_version},
        "timesteps": trace.timesteps,
        "timestep_duration": trace.timestep_duration,
        "layer_sizes": list(trace.layer_sizes),
        "per_timestep": {
            "acs": trace.acs.tolist(),
            "macs": trace.macs.tolist(),
            "leak_macs": trace.leak_macs.tolist(),
            "membrane_updates": trace.membrane_updates.tolist(),
        },
        "spikes": [_layer_payload(i, layer) for i, layer in enumerate(trace.spikes)],
        "static_metrics": trace.static_metrics,
    }


def save_trace(trace: WorkloadTrace, path: str | Path) -> None:
    Path(path).write_text(json.dumps(trace_to_dict(trace), sort_keys=True) + "\n")


def load_trace(path: str | Path) -> WorkloadTrace:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise WorkloadFileError(f"cannot read trace file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise WorkloadFileError(f"malformed trace file {path}: {exc}") from exc
    if not isinstance(raw, dict) or raw.get("format") != TRACE_FORMAT:
        raise WorkloadFileError(f"not a {TRACE_FORMAT} file: {path}")
    try:
        return _trace_from_dict(raw)
    except KeyError as exc:
        raise WorkloadFileError(f"trace file {path} lacks field {exc}") from exc
    except (AttributeError, IndexError, TypeError) as exc:
        raise WorkloadFileError(f"malformed trace file {path}: {exc}") from exc


def _tallies(per: dict, key: str, timesteps: int) -> np.ndarray:
    values = np.array(per[key])
    if values.shape != (timesteps,) or values.dtype.kind != "i" or np.any(values < 0):
        raise WorkloadFileError(
            f"trace per_timestep.{key} must hold {timesteps} non-negative integers"
        )
    return values.astype(np.int64, copy=False)


def _trace_from_dict(raw: dict) -> WorkloadTrace:
    layer_sizes = tuple(int(s) for s in raw["layer_sizes"])
    timesteps = int(raw["timesteps"])
    if len(raw["spikes"]) != len(layer_sizes):
        raise WorkloadFileError(
            f"trace has {len(raw['spikes'])} spike layers for {len(layer_sizes)} layer sizes"
        )
    spikes = []
    for i, payload in enumerate(raw["spikes"]):
        size = layer_sizes[i]
        try:
            if payload["kind"] == "binary":
                mat = SpikeTrain.from_events(size, timesteps, payload["events"]).events
            else:
                mat = AnalogTrain(np.array(payload["frames"], dtype=np.float64)).events
        except SimulationError as exc:
            raise WorkloadFileError(f"trace layer {i}: {exc}") from exc
        if mat.shape != (size, timesteps):
            raise WorkloadFileError(f"trace layer {i}: frames shape mismatch")
        spikes.append(mat)
    per = raw["per_timestep"]
    return WorkloadTrace(
        layer_sizes=layer_sizes,
        spikes=spikes,
        acs=_tallies(per, "acs", timesteps),
        macs=_tallies(per, "macs", timesteps),
        leak_macs=_tallies(per, "leak_macs", timesteps),
        membrane_updates=_tallies(per, "membrane_updates", timesteps),
        timesteps=timesteps,
        timestep_duration=float(raw["timestep_duration"]),
        model_name=raw.get("model", {}).get("name", ""),
        model_version=raw.get("model", {}).get("version", ""),
        static_metrics=raw.get("static_metrics", {}),
    )
