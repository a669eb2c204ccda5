"""Brute-force reference for the event-driven simulator.

Walks every synapse at every timestep with plain Python loops and the
scalar step_lif primitive -- no event shortcuts, no vectorization -- and
tallies the same counting conventions as run_inference.  Per neuron, input
accumulates feed-forward terms in ascending presynaptic order, then
recurrent terms, then bias, exactly as the event-driven path does, so the
two implementations agree bit-for-bit on spikes and potentials.  Every field
of the counts comes from the oracle's own lists, the crossings and the spike
total included, so comparing whole traces checks each of them.
"""

from __future__ import annotations

import numpy as np

from .model import ModelDescriptor
from .simulate import (
    AnalogTrain,
    NeuronState,
    SimulationConfig,
    SpikeTrain,
    WorkloadTrace,
    _Train,
    step_lif,
)
from .workload import TraceCounts


def dense_oracle_counts(
    model: ModelDescriptor, train: _Train, config: SimulationConfig
) -> WorkloadTrace:
    if train.neurons != model.input_size:
        raise ValueError("input train does not match model input size")
    if train.timesteps != config.timesteps:
        raise ValueError("input train does not match configured timesteps")
    if not isinstance(train, (SpikeTrain, AnalogTrain)):
        train = SpikeTrain(train.events)

    T = config.timesteps
    layers = model.weighted_layers
    weights = [l.weights.tolist() for l in layers]
    recurrents = [
        l.recurrent_weights.tolist() if l.recurrent_weights is not None else None
        for l in layers
    ]
    biases = [l.biases.tolist() if l.biases is not None else None for l in layers]
    input_events = train.events.tolist()

    acs = [0] * T
    macs = [0] * T
    leak_macs = [0] * T
    updates = [0] * T
    crossings = [0] * T
    non_input_spikes = 0
    spike_rec: list[list[list[float]]] = [
        [[0.0] * T for _ in range(l.out_size)] for l in layers
    ]
    states = [[0.0] * l.out_size for l in layers]
    prev_spikes = [[0.0] * l.out_size for l in layers]

    for t in range(T):
        for li, layer in enumerate(layers):
            if li == 0:
                source = [row[t] for row in input_events]
            else:
                source = [spike_rec[li - 1][i][t] for i in range(layers[li - 1].out_size)]
            crossings[t] += sum(1 for xj in source if xj != 0.0)
            w = weights[li]
            r = recurrents[li]
            b = biases[li]
            params = layer.neuron
            new_states = [0.0] * layer.out_size
            for i in range(layer.out_size):
                contributed = False
                cur = 0.0
                for j in range(layer.in_size):
                    xj = source[j]
                    if xj == 0.0 or w[i][j] == 0.0:
                        continue
                    if xj == 1.0:
                        acs[t] += 1
                    else:
                        macs[t] += 1
                    cur += w[i][j] * xj
                    contributed = True
                if r is not None:
                    prev = prev_spikes[li]
                    for k in range(layer.out_size):
                        if prev[k] == 0.0 or r[i][k] == 0.0:
                            continue
                        acs[t] += 1
                        cur += r[i][k] * prev[k]
                        contributed = True
                if b is not None:
                    cur += b[i]
                    if b[i] != 0.0:
                        contributed = True

                v_prev = states[li][i]
                if params.beta not in (0.0, 1.0) and v_prev != 0.0:
                    leak_macs[t] += 1
                    macs[t] += 1
                if contributed or (params.beta != 1.0 and v_prev != 0.0):
                    updates[t] += 1

                next_state, fired = step_lif(NeuronState(v_prev), cur, params)
                new_states[i] = next_state.v
                spike_rec[li][i][t] = float(fired)
                non_input_spikes += fired
            states[li] = new_states
            prev_spikes[li] = [spike_rec[li][i][t] for i in range(layer.out_size)]

    spikes = [train.events]
    spikes += [np.array(rec, dtype=bool) for rec in spike_rec]
    return WorkloadTrace(spikes, TraceCounts(
        layer_sizes=model.layer_sizes, timesteps=T, timestep_duration=config.timestep_duration,
        acs=acs, macs=macs, leak_macs=leak_macs, membrane_updates=updates,
        crossings=crossings, non_input_spikes=non_input_spikes,
        model_name=model.name, model_version=model.version,
    ))
