"""Discrete-time LIF simulation with event-driven operation counting.

The simulator steps in discrete time but counts operations event-driven:
arithmetic is tallied only where activity occurs.

Counting conventions, shared verbatim with the brute-force oracle:

* a presynaptic event with value exactly 1.0 (a spike) costs one AC per
  nonzero outgoing weight; a non-binary (analog) input value costs one MAC
  per nonzero weight -- only the first weighted layer can see analog values;
* recurrent feedback uses the layer's own spikes from the previous timestep;
* leak decay with beta outside {0, 1} on a nonzero potential costs one MAC
  (beta = 1 is a no-op, beta = 0 is a register clear);
* a neuron performs one effective membrane update in a timestep when its
  state changes: leak applies (beta != 1 and v != 0), or at least one
  synaptic contribution arrived through a nonzero weight, or its bias is
  nonzero.  Threshold comparison is never tallied as an op.

Within a timestep, each neuron accumulates input in a fixed order --
feed-forward presynaptic indices ascending, then recurrent indices
ascending, then bias -- so reduced-precision effects are identical across
the event-driven path and the dense oracle, and traces are bit-reproducible.

The simulation runs layer-major: a layer handles all timesteps before the
next layer starts, since a layer's input is the previous layer's complete
output train, which it holds as a bool neuron x timestep matrix (a spike is
``True``, and ``True * w == w``).  Its feed-forward current is built one
block of timesteps at a time, a fixed number of cells per block whatever
the run's length; within a block, one presynaptic neuron at a time in
ascending order, added only at the timesteps where that input is nonzero.
All-zero weight columns are skipped.  A skipped product, and the product of
a zero weight that is added, is +0.0 or -0.0.  Adding either to a sum that
starts at +0.0 changes no bit, because such a sum is never -0.0, so the
currents equal the oracle's, which skips exactly the zero products.  Only
the membrane recurrence -- recurrent feedback, bias, leak, threshold and
reset -- steps through time, carrying the potentials and the last spikes
from one block into the next; the tallies are counted afterwards from
boolean records of the spikes and of the potentials that entered each step
nonzero.

The tallies cost integer and bitwise work per event, with no float matrix
product and so no BLAS call.  While the layer steps, each presynaptic
neuron's nonzero weights are read off as a fan-out count and a bit row of
the neurons they reach, packed into uint64 words.  The events -- nonzero
inputs, and the layer's own spikes one timestep later -- are grouped by
timestep: their fan-out counts summed give the ACs and MACs, and their bit
rows OR-ed give the neurons that received a contribution, which count one
update even where the contributions cancel to 0.0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .fields import check, within
from .model import LayerDescriptor, ModelDescriptor, NeuronParams, ResetMode
from .rng import check_seed, uniforms
from .workload import TraceCounts


class SimulationError(ValueError):
    """Raised on invalid simulation inputs (dimension or value errors)."""


@dataclass(frozen=True)
class NeuronState:
    """Membrane potential of a single neuron."""

    v: float = 0.0


@dataclass(frozen=True)
class SimulationConfig:
    timesteps: Annotated[int, within(1)]
    seed: int = 0
    timestep_duration: Annotated[float, within(0, open_lo=True)] = 1e-3  # seconds

    def __post_init__(self) -> None:
        check(self, "simulation config", SimulationError)
        check_seed(self.seed, SimulationError)


class _Train:
    """Neuron x timestep event matrix.  ``events`` is the train's own
    read-only float64 copy of what it was built from, so the checks made
    here hold for as long as the train lives, and a trace can hold the
    array as it is."""

    def __init__(self, events: np.ndarray) -> None:
        events = np.array(events, dtype=np.float64)
        if events.ndim != 2:
            raise SimulationError("events must be a neuron x timestep matrix")
        if not np.all(np.isfinite(events)):
            raise SimulationError("events must be finite")
        events.flags.writeable = False
        self.events = events

    @property
    def neurons(self) -> int:
        return self.events.shape[0]

    @property
    def timesteps(self) -> int:
        return self.events.shape[1]


class SpikeTrain(_Train):
    """Binary spike train; every entry is 0 or 1."""

    def __init__(self, events: np.ndarray) -> None:
        super().__init__(events)
        if not np.all((self.events == 0.0) | (self.events == 1.0)):
            raise SimulationError("spike train entries must be 0 or 1")

    @classmethod
    def from_events(cls, neurons: int, timesteps: int, events) -> "SpikeTrain":
        n, t = np.asarray(events, dtype=np.int64).reshape(-1, 2).T
        outside = (n < 0) | (n >= neurons) | (t < 0) | (t >= timesteps)
        if outside.any():
            first = int(np.argmax(outside))
            raise SimulationError(f"event ({n[first]}, {t[first]}) outside train dimensions")
        mat = np.zeros((neurons, timesteps), dtype=np.float64)
        mat[n, t] = 1.0
        return cls(mat)


class AnalogTrain(_Train):
    """Real-valued input frames for the first weighted layer."""


def rate_encode(values, timesteps: int, seed: int) -> SpikeTrain:
    """Bernoulli-encode per-neuron rates into a deterministic spike train.

    Neuron i fires at timestep t when uniform draw t * len(values) + i of
    the splitmix64 stream seeded with ``seed`` is below values[i]: draws
    advance timestep-major, neuron-minor (see rng module for the exact
    sequence).
    """
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if vals.size == 0:
        raise SimulationError("rate_encode needs at least one value")
    if not np.all(np.isfinite(vals)) or np.any(vals < 0.0) or np.any(vals > 1.0):
        raise SimulationError("rate values must lie in [0, 1]")
    if timesteps < 1:
        raise SimulationError("timesteps must be >= 1")
    draws = uniforms(seed, timesteps * vals.size).reshape(timesteps, vals.size)
    return SpikeTrain(np.ascontiguousarray((draws < vals).T, dtype=np.float64))


def step_lif(
    state: NeuronState, input_current: float, params: NeuronParams
) -> tuple[NeuronState, int]:
    """Advance one LIF neuron a single timestep.

    v' = beta * v + input_current; a spike fires when v' reaches the
    threshold, after which the potential resets to zero or has the
    threshold subtracted, per the layer's reset mode.
    """
    if not (math.isfinite(state.v) and math.isfinite(input_current)):
        raise SimulationError("step_lif requires finite inputs")
    v = params.beta * state.v + input_current
    if v >= params.threshold:
        if params.reset_mode is ResetMode.TO_ZERO:
            return NeuronState(0.0), 1
        return NeuronState(v - params.threshold), 1
    return NeuronState(v), 0


@dataclass(frozen=True)
class WorkloadTrace:
    """Spikes and counts from one inference.

    ``spikes[0]`` is the input train's own read-only ``events`` array
    (possibly analog); every later layer's spikes are a C-contiguous bool
    neuron x timestep matrix.  ``counts`` holds the
    effective (event-driven) tallies and everything else the metrics and the
    pricing read.
    """

    spikes: list[np.ndarray]
    counts: TraceCounts

    # Read by perfbench: a run's totals and shape, and each tally as an array
    # whose ``tolist()`` is the per-timestep list.
    total_acs = property(lambda self: sum(self.counts.acs))
    total_macs = property(lambda self: sum(self.counts.macs))
    total_crossings = property(lambda self: sum(self.counts.crossings))
    timesteps = property(lambda self: self.counts.timesteps)
    layer_sizes = property(lambda self: self.counts.layer_sizes)
    acs = property(lambda self: np.array(self.counts.acs))
    macs = property(lambda self: np.array(self.counts.macs))
    leak_macs = property(lambda self: np.array(self.counts.leak_macs))
    membrane_updates = property(lambda self: np.array(self.counts.membrane_updates))

    def equals(self, other: WorkloadTrace) -> bool:
        return self.counts == other.counts and all(
            np.array_equal(a, b) for a, b in zip(self.spikes, other.spikes))


def run_inference(
    model: ModelDescriptor, train: _Train, config: SimulationConfig
) -> WorkloadTrace:
    """Simulate one inference, counting ops only where events occur.

    Layer-major: each weighted layer runs every timestep, and its tallies are
    added, before the next layer starts.
    """
    if train.neurons != model.input_size:
        raise SimulationError(
            f"input train has {train.neurons} neurons, model input is {model.input_size}"
        )
    if train.timesteps != config.timesteps:
        raise SimulationError(
            f"input train has {train.timesteps} timesteps, config says {config.timesteps}"
        )
    if not isinstance(train, (SpikeTrain, AnalogTrain)):
        train = SpikeTrain(train.events)

    T = config.timesteps
    tallies = np.zeros((4, T), dtype=np.int64)
    crossings = np.zeros(T, dtype=np.int64)  # each layer's input events
    non_input_spikes = 0
    spikes: list[np.ndarray] = [train.events]
    for layer in model.weighted_layers:
        fired, entering, feed, rec_fan = _run_layer(layer, spikes[-1])
        tallies += _tally_layer(layer, spikes[-1], fired, entering, feed, rec_fan)
        crossings += np.count_nonzero(spikes[-1], axis=0)
        non_input_spikes += int(np.count_nonzero(fired))
        spikes.append(np.ascontiguousarray(fired.T))
    acs, macs, leak_macs, updates = tallies.tolist()

    return WorkloadTrace(spikes, TraceCounts(
        layer_sizes=model.layer_sizes, timesteps=T, timestep_duration=config.timestep_duration,
        acs=acs, macs=macs, leak_macs=leak_macs, membrane_updates=updates,
        crossings=crossings.tolist(), non_input_spikes=non_input_spikes,
        model_name=model.name, model_version=model.version,
    ))


# Cells per block of the scratch arrays that span a layer: input x neuron
# for the transposed weights, timestep x neuron or input for the tallies.
_BLOCK_CELLS = 1 << 16
# Timestep x neuron cells per block of a layer's feed-forward current: 2 MB
# of float64, which holds a 100-step run of a 1024-neuron layer in one block.
_CURRENT_CELLS = 1 << 18


class _Fan:
    """Where each presynaptic neuron's nonzero weights lead: to ``counts[j]``
    postsynaptic neurons, marked in the bit row ``rows[j]`` (packed into
    uint64 words, so OR-ing rows marks every neuron any of them reach)."""

    def __init__(self, presynaptic: int, postsynaptic: int) -> None:
        self.counts = np.zeros(presynaptic, dtype=np.int64)
        self.rows = np.zeros((presynaptic, -(-postsynaptic // 64)), dtype=np.uint64)

    def add(self, j0: int, connected: np.ndarray) -> None:
        """Record presynaptic neurons j0, j0 + 1, ... from the rows of
        ``connected``, a presynaptic x postsynaptic boolean matrix."""
        bits = np.packbits(connected, axis=1)
        self.rows.view(np.uint8)[j0:j0 + len(bits), :bits.shape[1]] = bits
        self.counts[j0:j0 + len(bits)] = connected.sum(axis=1)


def _run_layer(
    layer: LayerDescriptor, source: np.ndarray
) -> tuple[np.ndarray, np.ndarray, _Fan, _Fan | None]:
    """Run one layer over every timestep of ``source`` (neuron x timestep).

    Returns two timestep x neuron boolean records -- which neurons fired,
    and which entered the timestep with a nonzero potential -- and the fans
    of the feed-forward and recurrent (None without) weights, read off the
    transposed copies the layer steps with.
    """
    T = source.shape[1]
    feed = _Fan(layer.in_size, layer.out_size)
    recurrent = rec_fan = None
    if layer.recurrent_weights is not None:
        recurrent = np.ascontiguousarray(layer.recurrent_weights.T)
        rec_fan = _Fan(layer.out_size, layer.out_size)
        rec_fan.add(0, recurrent != 0.0)
    biases = layer.biases
    beta = layer.neuron.beta
    threshold = layer.neuron.threshold
    to_zero = layer.neuron.reset_mode is ResetMode.TO_ZERO
    fired = np.zeros((T, layer.out_size), dtype=bool)
    entering = np.zeros_like(fired)
    v = np.zeros(layer.out_size, dtype=np.float64)
    decayed = np.empty_like(v)
    prev = fired[0]  # no spikes before the first step
    inputs = max(1, _BLOCK_CELLS // layer.out_size)
    steps = min(T, max(1, _CURRENT_CELLS // layer.out_size))
    blocks = np.empty((steps, layer.out_size), dtype=np.float64)
    for t0 in range(0, T, steps):
        t1 = min(T, t0 + steps)
        current = blocks[:t1 - t0]
        v = v.copy()  # the block before's last row, which ``current`` overwrites
        current.fill(0.0)
        for j0 in range(0, layer.in_size, inputs):
            columns = layer.weights[:, j0:j0 + inputs].T.copy()  # one contiguous row per input
            if t0 == 0:
                feed.add(j0, columns != 0.0)
            for j in feed.counts[j0:j0 + inputs].nonzero()[0]:
                x = source[j0 + j, t0:t1]
                ts = x.nonzero()[0]
                if ts.size:
                    current[ts] += np.multiply.outer(x[ts], columns[j])

        # Each row of ``current`` becomes the step's potential: the input plus
        # the decayed potential, the same IEEE sum as beta * v + input.
        np.not_equal(v, 0.0, out=entering[t0])
        for cur, spiked in zip(current, fired[t0:t1]):
            if recurrent is not None:
                for k in prev.nonzero()[0].tolist():
                    cur += recurrent[k]
            if biases is not None:
                cur += biases
            np.multiply(v, beta, out=decayed)
            cur += decayed
            np.greater_equal(cur, threshold, out=spiked)
            if to_zero:
                cur[spiked] = 0.0
            else:
                cur[spiked] -= threshold
            v, prev = cur, spiked
        np.not_equal(current[:-1], 0.0, out=entering[t0 + 1:t1])
    return fired, entering, feed, rec_fan


def _reach(t: np.ndarray, j: np.ndarray, fan: _Fan, offset: int, reached: np.ndarray,
           tally: np.ndarray) -> None:
    """For events (t[e], j[e]) ordered by t: OR the bit rows ``fan.rows[j]``
    into ``reached[offset + t]`` and add the counts ``fan.counts[j]`` to
    ``tally[offset + t]``."""
    if t.size:
        starts = np.concatenate(([True], t[1:] != t[:-1])).nonzero()[0]
        at = offset + t[starts]
        reached[at] |= np.bitwise_or.reduceat(fan.rows[j], starts, axis=0)
        tally[at] += np.add.reduceat(fan.counts[j], starts)


def _tally_layer(layer: LayerDescriptor, source: np.ndarray, fired: np.ndarray,
                 entering: np.ndarray, feed: _Fan, rec_fan: _Fan | None) -> np.ndarray:
    """One layer's per-timestep tallies, counted a block of timesteps at a
    time from its input events and what _run_layer returns.  Rows: ACs,
    MACs, leak MACs, membrane updates."""
    T, out_size = fired.shape
    tallies = np.zeros((4, T), dtype=np.int64)
    acs, macs, leak_macs, updates = tallies
    reached = np.zeros((T, feed.rows.shape[1]), dtype=np.uint64)
    block = max(1, _BLOCK_CELLS // max(layer.in_size, out_size))
    for t0 in range(0, T, block):
        t1 = min(T, t0 + block)
        x = source[:, t0:t1]
        t, j = np.divmod(np.flatnonzero((x != 0.0).T), layer.in_size)
        spike = x[j, t] == 1.0
        _reach(t[spike], j[spike], feed, t0, reached, acs)
        _reach(t[~spike], j[~spike], feed, t0, reached, macs)
        if rec_fan is not None:  # spikes feed back one timestep later
            lo = max(t0 - 1, 0)
            t, k = np.divmod(np.flatnonzero(fired[lo:t1 - 1]), out_size)
            _reach(t, k, rec_fan, lo + 1, reached, acs)
    contributed = np.unpackbits(reached.view(np.uint8), axis=1, count=out_size).view(bool)
    if layer.biases is not None:
        contributed |= layer.biases != 0.0
    beta = layer.neuron.beta
    if beta != 1.0:
        contributed |= entering
        if beta != 0.0:
            leak_macs[:] = entering.sum(axis=1)
            macs += leak_macs
    updates[:] = contributed.sum(axis=1)
    return tallies
