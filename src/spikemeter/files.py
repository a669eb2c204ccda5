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
:func:`save_trace` streams those bytes to the file, the spike matrices from
the numpy arrays a block of rows at a time without building their lists,
and everything else, the per-timestep tallies included, from the trace's
counts.  A layer held as bool is binary; any other is binary when every
entry is 0 or 1.
Unknown keys are refused at the top level and in each spike-layer entry;
an entry's ``kind`` is ``binary`` or ``analog`` and its ``layer`` is its
index in the list.  :func:`load_trace` checks the whole file but returns only
what the metrics and the pricing read, a :class:`~.workload.TraceCounts`.  It
reads the trace in pure Python, its arrays through :func:`fields.array`, so
``estimate --trace`` loads no numpy.

Both loaders decode every ``0.0`` in the file to one shared +0.0 object, so
a frame entry that is +0.0, as most are, costs its 8-byte list slot rather
than a 24-byte float of its own; ``-0.0`` and every other number decode as
``json.loads`` decodes them.  A :class:`WorkloadSpec` holds its arrays as the
checked lists; numpy converts them when :func:`prepare_input` builds the
input train, which holds its own read-only copy.  This module imports
numpy and ``simulate`` only inside the functions that build or write numpy
arrays: the input builder and the trace writer.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

from .fields import (REQUIRED, array, check_keys, integer, list_of, load_json, number, obj,
                     one_of, optional, read_field, string)
from .workload import TraceCounts

if TYPE_CHECKING:
    import numpy as np

    from .simulate import SimulationConfig, WorkloadTrace, _Train

TRACE_FORMAT = "spikemeter-trace-v1"
_TALLIES = ("acs", "macs", "leak_macs", "membrane_updates")


class WorkloadFileError(ValueError):
    """Raised when a workload or trace file is malformed."""


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str  # "spikes" | "rates" | "analog"
    layer: int | None = None
    timesteps: int | None = None
    events: list | None = None  # one [neuron, timestep] pair of 64-bit ints per event
    values: list | None = None  # rates
    frames: list | None = None  # neuron x timestep rows


def load_workload(path: str | Path) -> WorkloadSpec:
    return workload_from_dict(load_json(path, "workload file", WorkloadFileError,
                                        shared_zero=True))


# Each kind's keys besides "kind": (rule, default), REQUIRED when the key must appear.
_WORKLOAD_FIELDS = {
    "spikes": {"layer": (integer, REQUIRED), "timesteps": (integer, REQUIRED),
               "events": (array((None, 2), integers=True), REQUIRED)},
    "rates": {"values": (array((None,)), REQUIRED), "timesteps": (optional(integer), None)},
    "analog": {"layer": (integer, REQUIRED), "timesteps": (integer, REQUIRED),
               "frames": (array((None, None)), REQUIRED)},
}


def workload_from_dict(raw: dict) -> WorkloadSpec:
    """The workload ``raw`` describes."""
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
    if not isinstance(kind, str) or kind not in _WORKLOAD_FIELDS:
        raise WorkloadFileError(
            f"workload kind must be 'spikes', 'rates' or 'analog', got {kind!r}"
        )
    where = f"{kind} workload"
    fields = _WORKLOAD_FIELDS[kind]
    check_keys(raw, ("kind", *fields), where, WorkloadFileError)
    return WorkloadSpec(kind, **{
        key: read_field(raw, key, rule, where, WorkloadFileError, default)
        for key, (rule, default) in fields.items()
    })


def rate_encode(*args, **kwargs):
    """``simulate.rate_encode``, imported on first call.  :func:`prepare_input`
    looks this name up in the module when it runs, so a wrapper set on
    ``files.rate_encode`` (a tracer, say) sees every encoding."""
    from .simulate import rate_encode

    return rate_encode(*args, **kwargs)


def prepare_input(workload: WorkloadSpec, config: SimulationConfig) -> _Train:
    """Turn a workload spec into the input train for run_inference."""
    from .simulate import AnalogTrain, SimulationError, SpikeTrain

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
        frames = workload.frames
        shape = (len(frames), len(frames[0]) if frames else 0)
        if shape != (workload.layer, workload.timesteps):
            raise WorkloadFileError(
                f"frames shape {shape} does not match "
                f"(layer, timesteps) = ({workload.layer}, {workload.timesteps})"
            )
        return AnalogTrain(frames)
    raise WorkloadFileError(f"unsupported workload kind {workload.kind!r}")


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------


def _trace_fields(trace: WorkloadTrace, form=lambda array: array) -> dict:
    """The trace file's content, each spike array in it given as ``form(array)``."""
    import numpy as np

    def layer(index: int, events: np.ndarray) -> dict:
        if events.dtype == bool or all(np.all((block == 0.0) | (block == 1.0))
                                       for block in _row_blocks(events)):
            return {"layer": index, "kind": "binary", "events": form(np.argwhere(events))}
        return {"layer": index, "kind": "analog", "frames": form(events)}

    counts = trace.counts
    return {
        "format": TRACE_FORMAT,
        "model": {"name": counts.model_name, "version": counts.model_version},
        "timesteps": counts.timesteps,
        "timestep_duration": counts.timestep_duration,
        "layer_sizes": list(counts.layer_sizes),
        "per_timestep": {key: getattr(counts, key) for key in _TALLIES},
        "spikes": [layer(i, events) for i, events in enumerate(trace.spikes)],
        "static_metrics": counts.static_metrics,
    }


def trace_to_dict(trace: WorkloadTrace) -> dict:
    """The trace file's content as plain JSON values."""
    return _trace_fields(trace, lambda array: array.tolist())


def _dump(value, write) -> None:
    """Pass the text of ``json.dumps(value, sort_keys=True)`` to ``write``,
    piece by piece, for JSON values and ndarrays nested in dicts with string
    keys and in lists of those dicts.  Any other list, a tally say, is
    written with one ``json.dumps``."""
    import numpy as np

    if isinstance(value, np.ndarray):
        _dump_array(value, write)
    elif isinstance(value, dict):
        write("{")
        for i, key in enumerate(sorted(value)):
            write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _dump(value[key], write)
        write("}")
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        write("[")
        for i, item in enumerate(value):
            if i:
                write(", ")
            _dump(item, write)
        write("]")
    else:
        write(json.dumps(value, sort_keys=True))


_ZERO = "0.0, "  # one +0.0 entry and the separator after it
_BLOCK_CELLS = 1 << 12  # cells per block of rows the trace writer reads at once


def _row_blocks(array: np.ndarray):
    """The matrix ``array``'s rows, in blocks of at most ``_BLOCK_CELLS``
    cells but at least one row."""
    step = max(1, _BLOCK_CELLS // max(1, array.shape[1]))
    return (array[r0:r0 + step] for r0 in range(0, len(array), step))


def _dump_array(array: np.ndarray, write) -> None:
    """``json.dumps(array.tolist())``.  A matrix is written a block of rows
    at a time, so no temporary spans the whole of it: an event matrix's
    rows through ``json.dumps``, a float matrix's by :func:`_frame_rows`."""
    if array.ndim != 2 or array.size == 0:
        write(json.dumps(array.tolist()))
        return
    for i, block in enumerate(_row_blocks(array)):
        write(", " if i else "[")
        write(_frame_rows(block) if array.dtype.kind == "f" else json.dumps(block.tolist())[1:-1])
    write("]")


def _frame_rows(block: np.ndarray) -> str:
    """The text of the float matrix ``block``'s rows, ``", "``-separated, as
    ``json.dumps`` writes them.  Only entries other than +0.0 get text of
    their own; each run of +0.0 entries is one repeated string, since analog
    frames are mostly zeros."""
    import numpy as np

    rows, cols = block.shape
    at = np.flatnonzero((block != 0.0) | np.signbit(block))  # -0.0 keeps its sign
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
        pieces[1::3] = json.dumps(block.ravel()[at].tolist())[1:-1].split(", ")
    return ", ".join(
        "[" + ("".join(pieces[3 * bounds[i]:3 * bounds[i + 1]]) + zeros[tails[i]])[:-2] + "]"
        for i in range(rows))


def save_trace(trace: WorkloadTrace, path: str | Path) -> None:
    """Stream the trace's bytes to ``path``.  ``static_metrics`` is checked
    before the file is opened, so a key other than a string or a value JSON
    cannot hold leaves an existing file as it was; an interrupt partway leaves
    a truncated file, which :func:`load_trace` refuses."""
    static_metrics = trace.counts.static_metrics
    for key in static_metrics:
        if not isinstance(key, str):
            raise ValueError(f"static_metrics key {key!r} is not a string")
    json.dumps(static_metrics, sort_keys=True)
    try:
        with open(path, "w") as out:
            _dump(_trace_fields(trace), out.write)
            out.write("\n")
    except OSError as exc:
        raise WorkloadFileError(f"cannot write trace file {path}: {exc}") from exc


_TRACE_KEYS = ("format", "model", "timesteps", "timestep_duration", "layer_sizes",
               "per_timestep", "spikes", "static_metrics")


def load_trace(path: str | Path) -> TraceCounts:
    """The counts the trace file at ``path`` holds.  The whole file is
    checked, in pure Python: a trace that does not describe a valid run is
    refused with the message of the rule it breaks."""
    raw = load_json(path, "trace file", WorkloadFileError, shared_zero=True)
    if not isinstance(raw, dict) or raw.get("format") != TRACE_FORMAT:
        raise WorkloadFileError(f"not a {TRACE_FORMAT} file: {path}")

    def field(path: str, rule, default=REQUIRED):
        return read_field(raw, path, rule, "trace", WorkloadFileError, default)

    check_keys(raw, _TRACE_KEYS, "trace", WorkloadFileError)
    timesteps = field("timesteps", integer)
    layer_sizes = tuple(field("layer_sizes", array((None,), integers=True)))
    for i, size in enumerate(layer_sizes):
        if size < 1:
            raise WorkloadFileError(
                f"trace field 'layer_sizes.{i}': expected a layer size >= 1, got {size}")
    payloads = field("spikes", list_of(obj))
    if len(payloads) != len(layer_sizes):
        raise WorkloadFileError(
            f"trace has {len(payloads)} spike layers for {len(layer_sizes)} layer sizes"
        )
    tally = array((timesteps,), integers=True)
    tallies = {key: field(f"per_timestep.{key}", tally) for key in _TALLIES}
    for key, values in tallies.items():
        if values and min(values) < 0:
            raise WorkloadFileError(f"trace field 'per_timestep.{key}': expected counts >= 0")
    crossings = [0] * timesteps
    non_input_spikes = 0
    for i, (payload, size) in enumerate(zip(payloads, layer_sizes)):
        per_step = _layer_counts(i, payload, size, timesteps)
        if i < len(layer_sizes) - 1:
            for t, n in per_step.items():
                crossings[t] += n
        if i:
            non_input_spikes += sum(per_step.values())
    return TraceCounts(
        layer_sizes=layer_sizes,
        timesteps=timesteps,
        timestep_duration=field("timestep_duration", number),
        **tallies,
        crossings=crossings,
        non_input_spikes=non_input_spikes,
        model_name=field("model.name", string, ""),
        model_version=field("model.version", string, ""),
        static_metrics=field("static_metrics", obj, {}),
    )


def _layer_counts(index: int, payload: dict, size: int, timesteps: int) -> Counter:
    """Spike layer ``index``'s nonzero entries per timestep.  Duplicate
    events count once."""
    where = f"trace layer {index}"

    def field(key: str, rule):
        return read_field(payload, key, rule, where, WorkloadFileError)

    binary = field("kind", one_of("binary", "analog")) == "binary"
    key = "events" if binary else "frames"
    check_keys(payload, ("layer", "kind", key), where, WorkloadFileError)
    layer = field("layer", integer)
    if layer != index:
        raise WorkloadFileError(f"{where} field 'layer': expected {index}, got {layer}")
    if binary:
        events = field("events", array((None, 2), integers=True))
        for n, t in events:
            if not (0 <= n < size and 0 <= t < timesteps):
                raise WorkloadFileError(f"{where}: event ({n}, {t}) outside train dimensions")
        return Counter(map(itemgetter(1), set(map(tuple, events))))
    frames = field("frames", array((None, None)))
    per_step = Counter()
    for row in frames:
        if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
            raise WorkloadFileError(f"{where}: events must be finite")
        per_step.update(compress(range(len(row)), row))
    if (len(frames), len(frames[0]) if frames else 0) != (size, timesteps):
        raise WorkloadFileError(f"{where}: frames shape mismatch")
    return per_step
