"""Workload and trace file formats.

Workload file (JSON), three shapes::

    {"kind": "spikes", "layer": N, "timesteps": T, "events": [[neuron, t], ...]}
    {"kind": "rates",  "values": [r0, r1, ...]}            # optional "timesteps": T
    {"kind": "analog", "layer": N, "timesteps": T, "frames": [[...], ...]}

``events`` lists (neuron, timestep) pairs; ``frames`` is a row-major neuron
x timestep matrix of real values.  A rates workload is Bernoulli-encoded
with the run's seed and timestep count, so the file alone does not fix the
train -- the (file, seed, timesteps) triple does.  A key that the file's
kind does not define is refused.

Trace file: the simulator's full output -- per-layer spike trains,
per-timestep tallies, and the structural metrics of the model that produced
it.  Its bytes are defined as ``json.dumps(trace_to_dict(trace),
sort_keys=True) + "\n"``, so identical runs serialize identically;
:func:`save_trace` streams those bytes to the file from the numpy arrays without
building the lists.
Unknown keys are refused at the top level and in each spike-layer entry;
an entry's ``kind`` is ``binary`` or ``analog`` and its ``layer`` is its
index in the list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fields import (REQUIRED, array, check_keys, integer, list_of, load_json_with_bools, number,
                     obj, one_of, optional, read_field, string)
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
_TALLIES = ("acs", "macs", "leak_macs", "membrane_updates")


class WorkloadFileError(ValueError):
    """Raised when a workload or trace file is malformed."""


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str  # "spikes" | "rates" | "analog"
    layer: int | None = None
    timesteps: int | None = None
    events: np.ndarray | None = None  # int64, one (neuron, timestep) row per event
    values: np.ndarray | None = None  # float64 rates
    frames: np.ndarray | None = None  # float64, neuron x timestep


def load_workload(path: str | Path) -> WorkloadSpec:
    raw, bools = load_json_with_bools(path, "workload file", WorkloadFileError)
    return workload_from_dict(raw, bools=bools)


def _workload_fields(bools: bool) -> dict:
    """Each kind's keys besides "kind": (rule, default), REQUIRED when the
    key must appear; ``bools`` goes to the array rules."""
    return {
        "spikes": {"layer": (integer, REQUIRED), "timesteps": (integer, REQUIRED),
                   "events": (array((None, 2), integers=True, bools=bools), REQUIRED)},
        "rates": {"values": (array((None,), bools=bools), REQUIRED),
                  "timesteps": (optional(integer), None)},
        "analog": {"layer": (integer, REQUIRED), "timesteps": (integer, REQUIRED),
                   "frames": (array((None, None), bools=bools), REQUIRED)},
    }


def workload_from_dict(raw: dict, *, bools: bool = True) -> WorkloadSpec:
    """The workload ``raw`` describes; ``bools=False`` when it was decoded
    from text holding no ``true`` or ``false`` (:func:`fields.array`)."""
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
    kinds = _workload_fields(bools)
    if not isinstance(kind, str) or kind not in kinds:
        raise WorkloadFileError(
            f"workload kind must be 'spikes', 'rates' or 'analog', got {kind!r}"
        )
    where = f"{kind} workload"
    fields = kinds[kind]
    check_keys(raw, ("kind", *fields), where, WorkloadFileError)
    return WorkloadSpec(kind, **{
        key: read_field(raw, key, rule, where, WorkloadFileError, default)
        for key, (rule, default) in fields.items()
    })


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
        if workload.frames.shape != (workload.layer, workload.timesteps):
            raise WorkloadFileError(
                f"frames shape {workload.frames.shape} does not match "
                f"(layer, timesteps) = ({workload.layer}, {workload.timesteps})"
            )
        return AnalogTrain(workload.frames)
    raise WorkloadFileError(f"unsupported workload kind {workload.kind!r}")


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------


def _trace_fields(trace: WorkloadTrace, form=lambda array: array) -> dict:
    """The trace file's content, each array in it given as ``form(array)``."""

    def layer(index: int, events: np.ndarray) -> dict:
        if np.all((events == 0.0) | (events == 1.0)):
            return {"layer": index, "kind": "binary",
                    "events": form(np.argwhere(events != 0.0))}
        return {"layer": index, "kind": "analog", "frames": form(events)}

    return {
        "format": TRACE_FORMAT,
        "model": {"name": trace.model_name, "version": trace.model_version},
        "timesteps": trace.timesteps,
        "timestep_duration": trace.timestep_duration,
        "layer_sizes": list(trace.layer_sizes),
        "per_timestep": {key: form(getattr(trace, key)) for key in _TALLIES},
        "spikes": [layer(i, events) for i, events in enumerate(trace.spikes)],
        "static_metrics": trace.static_metrics,
    }


def trace_to_dict(trace: WorkloadTrace) -> dict:
    """The trace file's content as plain JSON values."""
    return _trace_fields(trace, np.ndarray.tolist)


def _dump(value, write) -> None:
    """Pass the text of ``json.dumps(value, sort_keys=True)`` to ``write``,
    piece by piece, for JSON values and ndarrays nested in dicts with string
    keys and lists."""
    if isinstance(value, np.ndarray):
        _dump_array(value, write)
    elif isinstance(value, dict):
        write("{")
        for i, key in enumerate(sorted(value)):
            write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _dump(value[key], write)
        write("}")
    elif isinstance(value, list):
        write("[")
        for i, item in enumerate(value):
            if i:
                write(", ")
            _dump(item, write)
        write("]")
    else:
        write(json.dumps(value, sort_keys=True))


_ZERO = "0.0, "  # one +0.0 entry and the separator after it


def _dump_array(array: np.ndarray, write) -> None:
    """``json.dumps(array.tolist())``.  A float matrix, written a row at a
    time, gets text only for its entries other than +0.0 and writes each run
    of +0.0 entries as one repeated string; analog frames are mostly zeros."""
    if array.dtype.kind != "f" or array.ndim != 2 or array.size == 0:
        write(json.dumps(array.tolist()))
        return
    rows, cols = array.shape
    at = np.flatnonzero((array != 0.0) | np.signbit(array))  # -0.0 keeps its sign
    r, c = np.divmod(at, cols)
    # the +0.0 entries before each written one, counted from its row's start
    # or from the written entry before it, and after each row's last
    runs = c.copy()
    same_row = r[1:] == r[:-1]
    runs[1:][same_row] -= c[:-1][same_row] + 1
    bounds = np.searchsorted(r, np.arange(rows + 1))
    last = np.full(rows, -1)
    nonempty = bounds[1:] > bounds[:-1]
    last[nonempty] = c[bounds[1:][nonempty] - 1]
    runs, tails, bounds = runs.tolist(), (cols - 1 - last).tolist(), bounds.tolist()
    zeros = {n: _ZERO * n for n in {*runs, *tails}}
    pieces = [", "] * (3 * len(runs))  # per written entry: zeros, its text, ", "
    pieces[0::3] = map(zeros.__getitem__, runs)
    if at.size:
        pieces[1::3] = json.dumps(array.ravel()[at].tolist())[1:-1].split(", ")
    for i in range(rows):
        row = "".join(pieces[3 * bounds[i]:3 * bounds[i + 1]]) + zeros[tails[i]]
        write(("[[" if i == 0 else ", [") + row[:-2] + "]")
    write("]")


def save_trace(trace: WorkloadTrace, path: str | Path) -> None:
    """Stream the trace's bytes to ``path``.  ``static_metrics`` is checked
    before the file is opened, so a key other than a string or a value JSON
    cannot hold leaves an existing file as it was; an interrupt partway leaves
    a truncated file, which :func:`load_trace` refuses."""
    for key in trace.static_metrics:
        if not isinstance(key, str):
            raise ValueError(f"static_metrics key {key!r} is not a string")
    json.dumps(trace.static_metrics, sort_keys=True)
    with open(path, "w") as out:
        _dump(_trace_fields(trace), out.write)
        out.write("\n")


def load_trace(path: str | Path) -> WorkloadTrace:
    raw, bools = load_json_with_bools(path, "trace file", WorkloadFileError)
    if not isinstance(raw, dict) or raw.get("format") != TRACE_FORMAT:
        raise WorkloadFileError(f"not a {TRACE_FORMAT} file: {path}")
    return _trace_from_dict(raw, bools)


_TRACE_KEYS = ("format", "model", "timesteps", "timestep_duration", "layer_sizes",
               "per_timestep", "spikes", "static_metrics")


def _trace_from_dict(raw: dict, bools: bool) -> WorkloadTrace:
    """The trace in ``raw``, load_trace's own parse: each spike layer's list
    is dropped from it once read into an array.  ``bools`` goes to the array
    rules."""

    def field(path: str, rule, default=REQUIRED):
        return read_field(raw, path, rule, "trace", WorkloadFileError, default)

    check_keys(raw, _TRACE_KEYS, "trace", WorkloadFileError)
    timesteps = field("timesteps", integer)
    sizes = field("layer_sizes", array((None,), integers=True, bools=bools))
    layer_sizes = tuple(sizes.tolist())
    payloads = field("spikes", list_of(obj))
    if len(payloads) != len(layer_sizes):
        raise WorkloadFileError(
            f"trace has {len(payloads)} spike layers for {len(layer_sizes)} layer sizes"
        )
    counts = array((timesteps,), integers=True, bools=bools)
    tallies = {key: field(f"per_timestep.{key}", counts) for key in _TALLIES}
    for key, values in tallies.items():
        if np.any(values < 0):
            raise WorkloadFileError(f"trace field 'per_timestep.{key}': expected counts >= 0")
    spikes = []
    for i, (payload, size) in enumerate(zip(payloads, layer_sizes)):
        spikes.append(_layer_events(i, payload, size, timesteps, bools))
        payload.clear()
    return WorkloadTrace(
        layer_sizes=layer_sizes,
        spikes=spikes,
        **tallies,
        timesteps=timesteps,
        timestep_duration=field("timestep_duration", number),
        model_name=field("model.name", string, ""),
        model_version=field("model.version", string, ""),
        static_metrics=field("static_metrics", obj, {}),
    )


def _layer_events(index: int, payload: dict, size: int, timesteps: int,
                  bools: bool) -> np.ndarray:
    where = f"trace layer {index}"
    kind = read_field(payload, "kind", one_of("binary", "analog"), where, WorkloadFileError)
    binary = kind == "binary"
    key, shape = ("events", (None, 2)) if binary else ("frames", (None, None))
    check_keys(payload, ("layer", "kind", key), where, WorkloadFileError)
    layer = read_field(payload, "layer", integer, where, WorkloadFileError)
    if layer != index:
        raise WorkloadFileError(f"{where} field 'layer': expected {index}, got {layer}")
    value = read_field(payload, key, array(shape, integers=binary, bools=bools), where,
                       WorkloadFileError)
    try:
        train = SpikeTrain.from_events(size, timesteps, value) if binary else AnalogTrain(value)
    except SimulationError as exc:
        raise WorkloadFileError(f"{where}: {exc}") from exc
    if train.events.shape != (size, timesteps):
        raise WorkloadFileError(f"{where}: frames shape mismatch")
    return train.events
