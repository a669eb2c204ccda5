"""Discrete-time LIF simulation with event-driven operation counting.

The simulator is clock-driven (one synchronous pass per timestep) but counts
operations event-driven: arithmetic is tallied only where activity occurs.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelDescriptor, NeuronParams, ResetMode
from .rng import SplitMix64


class SimulationError(ValueError):
    """Raised on invalid simulation inputs (dimension or value errors)."""


@dataclass(frozen=True)
class NeuronState:
    """Membrane potential of a single neuron."""

    v: float = 0.0


@dataclass(frozen=True)
class SimulationConfig:
    timesteps: int
    seed: int = 0
    timestep_duration: float = 1e-3  # seconds

    def __post_init__(self) -> None:
        if self.timesteps < 1:
            raise SimulationError("timesteps must be >= 1")
        if not (math.isfinite(self.timestep_duration) and self.timestep_duration > 0):
            raise SimulationError("timestep_duration must be > 0")


class _Train:
    """Neuron x timestep event matrix."""

    def __init__(self, events: np.ndarray) -> None:
        events = np.asarray(events, dtype=np.float64)
        if events.ndim != 2:
            raise SimulationError("events must be a neuron x timestep matrix")
        if not np.all(np.isfinite(events)):
            raise SimulationError("events must be finite")
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

    Neuron i fires at timestep t when the next uniform draw is below
    values[i].  Draws advance timestep-major, neuron-minor, from a
    splitmix64 stream seeded with ``seed`` (see rng module for the exact
    sequence).
    """
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if vals.size == 0:
        raise SimulationError("rate_encode needs at least one value")
    if not np.all(np.isfinite(vals)) or np.any(vals < 0.0) or np.any(vals > 1.0):
        raise SimulationError("rate values must lie in [0, 1]")
    if timesteps < 1:
        raise SimulationError("timesteps must be >= 1")
    rng = SplitMix64(seed)
    mat = np.zeros((vals.size, timesteps), dtype=np.float64)
    for t in range(timesteps):
        for i in range(vals.size):
            if rng.next_unit() < vals[i]:
                mat[i, t] = 1.0
    return SpikeTrain(mat)


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


@dataclass
class WorkloadTrace:
    """Spikes and per-timestep operation tallies from one inference.

    ``spikes[0]`` is the input train as supplied (possibly analog); all
    later layers are binary.  Tallies are effective (event-driven) counts;
    the dense membrane-update figure is non_input_neurons * timesteps.
    """

    layer_sizes: tuple[int, ...]
    spikes: list[np.ndarray]
    acs: np.ndarray
    macs: np.ndarray
    leak_macs: np.ndarray
    membrane_updates: np.ndarray
    timesteps: int
    timestep_duration: float
    model_name: str = ""
    model_version: str = ""
    static_metrics: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.timesteps * self.timestep_duration

    @property
    def non_input_neurons(self) -> int:
        return sum(self.layer_sizes[1:])

    @property
    def total_acs(self) -> int:
        return int(self.acs.sum())

    @property
    def total_macs(self) -> int:
        return int(self.macs.sum())

    @property
    def total_leak_macs(self) -> int:
        return int(self.leak_macs.sum())

    @property
    def total_membrane_updates(self) -> int:
        return int(self.membrane_updates.sum())

    @property
    def non_input_spikes(self) -> int:
        return int(sum(int(np.count_nonzero(s)) for s in self.spikes[1:]))

    def crossings_per_timestep(self) -> np.ndarray:
        """Events forwarded across a layer boundary, per timestep."""
        out = np.zeros(self.timesteps, dtype=np.int64)
        for layer in self.spikes[:-1]:
            out += np.count_nonzero(layer, axis=0)
        return out

    @property
    def total_crossings(self) -> int:
        return int(self.crossings_per_timestep().sum())

    def equals(self, other: "WorkloadTrace") -> bool:
        return (
            self.layer_sizes == other.layer_sizes
            and self.timesteps == other.timesteps
            and all(np.array_equal(a, b) for a, b in zip(self.spikes, other.spikes))
            and np.array_equal(self.acs, other.acs)
            and np.array_equal(self.macs, other.macs)
            and np.array_equal(self.leak_macs, other.leak_macs)
            and np.array_equal(self.membrane_updates, other.membrane_updates)
        )


def run_inference(
    model: ModelDescriptor, train: _Train, config: SimulationConfig
) -> WorkloadTrace:
    """Simulate one inference, counting ops only where events occur."""
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
    layers = model.weighted_layers
    acs = np.zeros(T, dtype=np.int64)
    macs = np.zeros(T, dtype=np.int64)
    leak_macs = np.zeros(T, dtype=np.int64)
    updates = np.zeros(T, dtype=np.int64)
    spikes: list[np.ndarray] = [np.array(train.events, copy=True)]
    spikes += [np.zeros((l.out_size, T), dtype=np.float64) for l in layers]

    # Per-layer precomputation: nonzero fan-out rows for every presynaptic
    # column, so zero weights are skipped exactly like the oracle does.
    ff_fanout = []
    rec_fanout = []
    for layer in layers:
        ff_fanout.append([np.flatnonzero(layer.weights[:, j]) for j in range(layer.in_size)])
        if layer.recurrent_weights is not None:
            rec_fanout.append(
                [np.flatnonzero(layer.recurrent_weights[:, k]) for k in range(layer.out_size)]
            )
        else:
            rec_fanout.append(None)

    states = [np.zeros(l.out_size, dtype=np.float64) for l in layers]
    prev_spikes = [np.zeros(l.out_size, dtype=np.float64) for l in layers]

    for t in range(T):
        for li, layer in enumerate(layers):
            source = spikes[li][:, t]
            cur = np.zeros(layer.out_size, dtype=np.float64)
            contributed = np.zeros(layer.out_size, dtype=bool)
            for j in np.flatnonzero(source):
                rows = ff_fanout[li][j]
                if rows.size == 0:
                    continue
                xj = source[j]
                if xj == 1.0:
                    acs[t] += rows.size
                else:
                    macs[t] += rows.size
                cur[rows] += layer.weights[rows, j] * xj
                contributed[rows] = True
            if rec_fanout[li] is not None:
                prev = prev_spikes[li]
                for k in np.flatnonzero(prev):
                    rows = rec_fanout[li][k]
                    if rows.size == 0:
                        continue
                    acs[t] += rows.size
                    cur[rows] += layer.recurrent_weights[rows, k] * prev[k]
                    contributed[rows] = True
            if layer.biases is not None:
                cur += layer.biases
                contributed |= layer.biases != 0.0

            beta = layer.neuron.beta
            threshold = layer.neuron.threshold
            v_prev = states[li]
            active = v_prev != 0.0
            if beta != 0.0 and beta != 1.0:
                n_leak = int(np.count_nonzero(active))
                leak_macs[t] += n_leak
                macs[t] += n_leak
            if beta != 1.0:
                updates[t] += int(np.count_nonzero(contributed | active))
            else:
                updates[t] += int(np.count_nonzero(contributed))

            v = beta * v_prev + cur
            fired = v >= threshold
            if layer.neuron.reset_mode is ResetMode.TO_ZERO:
                v_next = np.where(fired, 0.0, v)
            else:
                v_next = np.where(fired, v - threshold, v)
            states[li] = v_next
            out = fired.astype(np.float64)
            spikes[li + 1][:, t] = out
            prev_spikes[li] = out

    return WorkloadTrace(
        layer_sizes=model.layer_sizes,
        spikes=spikes,
        acs=acs,
        macs=macs,
        leak_macs=leak_macs,
        membrane_updates=updates,
        timesteps=T,
        timestep_duration=config.timestep_duration,
        model_name=model.name,
        model_version=model.version,
    )
