"""Shared fixtures: spec-sized fixture models and randomized model/input
generators used by the oracle-equivalence and property tests, the dense
worst-case op count that bounds a simulation's, and the environment for tests
that run ``python -m spikemeter`` as a child process."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import spikemeter
from spikemeter.model import (
    LayerDescriptor,
    LayerKind,
    ModelDescriptor,
    NeuronParams,
    Precision,
    ResetMode,
    TrainableFlags,
)
from spikemeter.simulate import AnalogTrain, SpikeTrain
from spikemeter.workload import OpCounts


def child_env() -> dict[str, str]:
    """The test process's environment with the directory holding the imported
    ``spikemeter`` package first on PYTHONPATH, as an absolute path.

    A child started from a temporary working directory then runs the very
    package under test: a relative entry such as ``PYTHONPATH=src`` would no
    longer resolve there, and another copy elsewhere on the path is shadowed.
    """
    env = dict(os.environ)
    root = str(Path(spikemeter.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")
    return env


def dense_synops(model: ModelDescriptor, timesteps: int) -> OpCounts:
    """Worst-case counts: every neuron spiking every timestep through a fully
    dense weight matrix, an upper bound on what a simulation counts."""
    synapses = 0
    for layer in model.weighted_layers:
        synapses += layer.weights.size
        if layer.recurrent_weights is not None:
            synapses += layer.recurrent_weights.size
    neurons = model.non_input_neurons
    return OpCounts(
        macs=0,
        acs=synapses * timesteps,
        membrane_updates_effective=neurons * timesteps,
        membrane_updates_dense=neurons * timesteps,
    )


def fc_layer(
    weights,
    *,
    biases=None,
    beta=0.9,
    threshold=1.0,
    reset=ResetMode.TO_ZERO,
    trainable=TrainableFlags(),
) -> LayerDescriptor:
    w = np.array(weights, dtype=np.float64)
    return LayerDescriptor(
        kind=LayerKind.FULLY_CONNECTED,
        in_size=w.shape[1],
        out_size=w.shape[0],
        weights=w,
        biases=None if biases is None else np.array(biases, dtype=np.float64),
        neuron=NeuronParams(beta=beta, threshold=threshold, reset_mode=reset),
        trainable=trainable,
    )


def input_layer(size: int) -> LayerDescriptor:
    return LayerDescriptor(kind=LayerKind.INPUT, in_size=size, out_size=size)


def simple_model(weights, **kwargs) -> ModelDescriptor:
    layer = fc_layer(weights, **kwargs)
    return ModelDescriptor(
        name="fixture",
        version="v1",
        layers=(input_layer(layer.in_size), layer),
    )


@pytest.fixture
def fixture_2x3_model() -> ModelDescriptor:
    # FC 2 -> 3, all six weights nonzero: three input spikes cost 9 ACs.
    return simple_model([[0.6, 0.5], [0.4, 0.3], [0.8, 0.7]])


@pytest.fixture
def fixture_input_spikes() -> SpikeTrain:
    # neuron 0 at t0, neuron 1 at t0 and t1
    return SpikeTrain.from_events(2, 4, [(0, 0), (1, 0), (1, 1)])


def random_model(rng: np.random.Generator, *, max_neurons: int = 32) -> ModelDescriptor:
    input_size = int(rng.integers(1, 6))
    budget = max_neurons - input_size
    n_layers = int(rng.integers(1, 4))
    sizes = []
    for _ in range(n_layers):
        cap = min(8, budget - 0)
        if cap < 1:
            break
        size = int(rng.integers(1, cap + 1))
        sizes.append(size)
        budget -= size
    if not sizes:
        sizes = [1]

    layers = [input_layer(input_size)]
    prev = input_size
    for size in sizes:
        recurrent = rng.random() < 0.3
        sparsity = rng.uniform(0.0, 0.9)
        weights = rng.uniform(-2.0, 2.0, size=(size, prev))
        weights[rng.random(weights.shape) < sparsity] = 0.0
        rec = None
        if recurrent:
            rec = rng.uniform(-2.0, 2.0, size=(size, size))
            rec[rng.random(rec.shape) < sparsity] = 0.0
        biases = None
        if rng.random() < 0.5:
            biases = rng.uniform(-0.3, 0.3, size=size)
            biases[rng.random(size) < 0.5] = 0.0
        beta = float(rng.choice([0.0, 0.5, 0.9, 1.0]))
        layers.append(
            LayerDescriptor(
                kind=LayerKind.RECURRENT if recurrent else LayerKind.FULLY_CONNECTED,
                in_size=prev,
                out_size=size,
                weights=weights,
                recurrent_weights=rec,
                biases=biases,
                neuron=NeuronParams(
                    beta=beta,
                    threshold=float(rng.uniform(0.5, 1.5)),
                    reset_mode=ResetMode.TO_ZERO if rng.random() < 0.5 else ResetMode.SUBTRACT,
                ),
                trainable=TrainableFlags(
                    weights=bool(rng.random() < 0.8),
                    biases=bool(rng.random() < 0.8),
                    neuron=bool(rng.random() < 0.2),
                ),
            )
        )
        prev = size
    return ModelDescriptor(
        name="random",
        version="v1",
        layers=tuple(layers),
        precision=Precision(
            weight_bits=int(rng.choice([8, 16, 32])),
            state_bits=int(rng.choice([8, 16, 32])),
        ),
    )


def random_train(
    rng: np.random.Generator, neurons: int, timesteps: int, *, analog_prob: float = 0.25
):
    if rng.random() < analog_prob:
        values = rng.uniform(0.0, 1.5, size=(neurons, timesteps))
        values[rng.random(values.shape) < 0.5] = 0.0
        # sprinkle exact spikes so both AC and MAC paths are exercised
        values[rng.random(values.shape) < 0.2] = 1.0
        return AnalogTrain(values)
    spikes = (rng.random((neurons, timesteps)) < rng.uniform(0.05, 0.6)).astype(np.float64)
    return SpikeTrain(spikes)
