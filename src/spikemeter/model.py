"""Hardware-neutral SNN model description and its structural metrics.

A model is an ordered stack of layers: one input layer followed by weighted
layers (fully-connected or recurrent) of leaky integrate-and-fire neurons.
The description is deliberately minimal -- dense weight matrices, optional
biases, per-layer neuron constants -- so that every structural metric
(parameter count, connection sparsity, memory footprint) has an exact,
enumerable definition.

Model file schema (JSON)::

    {
      "name": "demo",
      "version": "v1",
      "precision": {"weight_bits": 32, "state_bits": 32},
      "layers": [
        {"kind": "input", "in_size": 2, "out_size": 2},
        {"kind": "fully-connected", "in_size": 2, "out_size": 3,
         "weights": [[...], ...],          # out_size x in_size, row-major
         "biases": [...],                  # optional, length out_size
         "neuron": {"beta": 0.9, "threshold": 1.0, "reset_mode": "to-zero"},
         "trainable": {"weights": true, "biases": true, "neuron": false}}
      ]
    }

Recurrent layers additionally carry ``"recurrent_weights"`` (out_size x
out_size).  Each object's keys are the fields of its dataclass
(:class:`ModelDescriptor`, :class:`Precision`, :class:`LayerDescriptor`,
:class:`NeuronParams`, :class:`TrainableFlags`); unknown keys are rejected so
typos cannot silently change a model, and each numeric field's annotation
gives its domain.  A weight counts as zero exactly when its parsed value
equals 0.0; no epsilon thresholding is applied.

A model file is decoded one weighted layer at a time: as each layer's object
closes, its ``weights``, ``recurrent_weights`` and ``biases`` become float64
arrays, and their Python floats are freed before the next layer is decoded.
Loading a model peaks at its text plus its largest layer's floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Annotated

import numpy as np

from .fields import check, load_json, read_early, read_record, to_json, within


class ModelParseError(ValueError):
    """Raised when a model file is not valid against the documented schema."""


class ModelValidationError(ValueError):
    """Raised when a parsed model violates a structural invariant."""


class LayerKind(str, Enum):
    INPUT = "input"
    FULLY_CONNECTED = "fully-connected"
    RECURRENT = "recurrent"


class ResetMode(str, Enum):
    TO_ZERO = "to-zero"
    SUBTRACT = "subtract-threshold"


@dataclass(frozen=True)
class NeuronParams:
    """Leaky integrate-and-fire constants shared by all neurons of a layer.

    ``beta`` is the dimensionless per-timestep leak factor (1.0 keeps the
    membrane potential, 0.0 clears it); ``threshold`` is the firing level in
    membrane-potential units.
    """

    beta: Annotated[float, within(0, 1)]
    threshold: Annotated[float, within(0, open_lo=True)]
    reset_mode: ResetMode = ResetMode.TO_ZERO

    def __post_init__(self) -> None:
        check(self, "neuron", ModelValidationError)


@dataclass(frozen=True)
class TrainableFlags:
    weights: bool = True
    biases: bool = True
    neuron: bool = False


@dataclass(frozen=True)
class LayerDescriptor:
    """One layer of the stack; input layers carry no weights or neurons."""

    kind: LayerKind
    in_size: Annotated[int, within(1)]
    out_size: Annotated[int, within(1)]
    weights: np.ndarray | None = None
    recurrent_weights: np.ndarray | None = None
    biases: np.ndarray | None = None
    neuron: NeuronParams | None = None
    trainable: TrainableFlags = field(default_factory=TrainableFlags)

    def __post_init__(self) -> None:
        check(self, "layer", ModelValidationError)

    @property
    def is_input(self) -> bool:
        return self.kind is LayerKind.INPUT

    def validate(self, index: int) -> None:
        where = f"layer {index}"
        if self.is_input:
            if self.weights is not None or self.recurrent_weights is not None:
                raise ModelValidationError(f"{where}: input layers carry no weights")
            if self.biases is not None or self.neuron is not None or (
                self.trainable != TrainableFlags()
            ):
                raise ModelValidationError(
                    f"{where}: input layers carry no biases, neuron parameters or trainable flags"
                )
            if self.in_size != self.out_size:
                raise ModelValidationError(f"{where}: input layer in_size must equal out_size")
            return
        if self.weights is None:
            raise ModelValidationError(f"{where}: missing weights")
        if self.weights.shape != (self.out_size, self.in_size):
            raise ModelValidationError(
                f"{where}: weights shape {self.weights.shape} does not match "
                f"(out_size, in_size) = ({self.out_size}, {self.in_size})"
            )
        if self.kind is LayerKind.RECURRENT:
            if self.recurrent_weights is None:
                raise ModelValidationError(f"{where}: recurrent layer missing recurrent_weights")
            if self.recurrent_weights.shape != (self.out_size, self.out_size):
                raise ModelValidationError(
                    f"{where}: recurrent_weights must be out_size x out_size"
                )
        elif self.recurrent_weights is not None:
            raise ModelValidationError(f"{where}: only recurrent layers take recurrent_weights")
        if self.biases is not None and self.biases.shape != (self.out_size,):
            raise ModelValidationError(f"{where}: biases length must equal out_size")
        if self.neuron is None:
            raise ModelValidationError(f"{where}: missing neuron parameters")
        for name, arr in self._matrices():
            if not np.all(np.isfinite(arr)):
                raise ModelValidationError(f"{where}: non-finite value in {name}")

    def _matrices(self) -> list[tuple[str, np.ndarray]]:
        out = []
        if self.weights is not None:
            out.append(("weights", self.weights))
        if self.recurrent_weights is not None:
            out.append(("recurrent_weights", self.recurrent_weights))
        if self.biases is not None:
            out.append(("biases", self.biases))
        return out


@dataclass(frozen=True)
class Precision:
    weight_bits: Annotated[int, within(1)] = 32
    state_bits: Annotated[int, within(1)] = 32

    def __post_init__(self) -> None:
        check(self, "precision", ModelValidationError)


@dataclass(frozen=True)
class ModelDescriptor:
    name: str = ""
    version: str = ""
    layers: tuple[LayerDescriptor, ...] = ()
    precision: Precision = field(default_factory=Precision)

    def __post_init__(self) -> None:
        if not self.version:
            raise ModelValidationError("version must be non-empty")
        if not self.layers:
            raise ModelValidationError("model needs at least an input layer")
        if self.layers[0].kind is not LayerKind.INPUT:
            raise ModelValidationError("layer 0: first layer must be kind 'input'")
        for i, layer in enumerate(self.layers):
            if i > 0 and layer.is_input:
                raise ModelValidationError(f"layer {i}: only the first layer may be 'input'")
            layer.validate(i)
        for i in range(1, len(self.layers)):
            prev, cur = self.layers[i - 1], self.layers[i]
            if prev.out_size != cur.in_size:
                raise ModelValidationError(
                    f"layer {i}: in_size {cur.in_size} does not chain from "
                    f"layer {i - 1} out_size {prev.out_size}"
                )

    @property
    def weighted_layers(self) -> tuple[LayerDescriptor, ...]:
        return self.layers[1:]

    @property
    def input_size(self) -> int:
        return self.layers[0].out_size

    @property
    def non_input_neurons(self) -> int:
        return sum(l.out_size for l in self.weighted_layers)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(l.out_size for l in self.layers)


@dataclass(frozen=True)
class ParameterCount:
    trainable: int
    non_trainable: int
    total: int

    def __post_init__(self) -> None:
        if self.total != self.trainable + self.non_trainable:
            raise ModelValidationError("total must equal trainable + non_trainable")


# Per-neuron constants counted by count_parameters: beta and threshold.
NEURON_PARAMS_PER_NEURON = 2


def count_parameters(model: ModelDescriptor) -> ParameterCount:
    """Count every weight, bias and per-neuron constant exactly once.

    Weights and biases follow their layer's trainable flags; the two neuron
    constants per neuron (beta, threshold) default to non-trainable.  The
    split is exposed so either reading -- with or without neuron constants --
    can be recovered.
    """
    trainable = 0
    non_trainable = 0
    for layer in model.weighted_layers:
        n_weights = layer.weights.size
        if layer.recurrent_weights is not None:
            n_weights += layer.recurrent_weights.size
        n_biases = layer.biases.size if layer.biases is not None else 0
        n_neuron = NEURON_PARAMS_PER_NEURON * layer.out_size
        trainable += n_weights if layer.trainable.weights else 0
        non_trainable += 0 if layer.trainable.weights else n_weights
        trainable += n_biases if layer.trainable.biases else 0
        non_trainable += 0 if layer.trainable.biases else n_biases
        trainable += n_neuron if layer.trainable.neuron else 0
        non_trainable += 0 if layer.trainable.neuron else n_neuron
    return ParameterCount(trainable, non_trainable, trainable + non_trainable)


def connection_sparsity(model: ModelDescriptor) -> float:
    """Fraction of exactly-zero weights over all weight matrices.

    Biases are node parameters, not connections, and are excluded.  Raises
    when the model has no weighted layers.
    """
    zeros = 0
    total = 0
    for layer in model.weighted_layers:
        for mat in (layer.weights, layer.recurrent_weights):
            if mat is None:
                continue
            total += mat.size
            zeros += mat.size - int(np.count_nonzero(mat))
    if total == 0:
        raise ModelValidationError("no connections")
    return zeros / total


def memory_footprint(model: ModelDescriptor) -> int:
    """Bytes to store the model: weights and biases plus one membrane
    potential per non-input neuron, at the model's declared precisions.

    Per-neuron constants (beta, threshold) are layer-level configuration and
    are not counted.
    """
    cells = 0
    for layer in model.weighted_layers:
        cells += layer.weights.size
        if layer.recurrent_weights is not None:
            cells += layer.recurrent_weights.size
        if layer.biases is not None:
            cells += layer.biases.size
    state = model.non_input_neurons
    return math.ceil(cells * model.precision.weight_bits / 8) + math.ceil(
        state * model.precision.state_bits / 8
    )


# ---------------------------------------------------------------------------
# File round-trip
# ---------------------------------------------------------------------------


def model_from_dict(raw: dict) -> ModelDescriptor:
    layers = raw.get("layers") if isinstance(raw, dict) else None
    if isinstance(layers, list):  # read here, so each message starts "layer N"
        raw = {**raw, "layers": [
            read_record(LayerDescriptor, layer, f"layer {i}: model", ModelParseError)
            for i, layer in enumerate(layers)]}
    return read_record(ModelDescriptor, raw, "model", ModelParseError)


_WEIGHTED_KINDS = (LayerKind.FULLY_CONNECTED.value, LayerKind.RECURRENT.value)


def _read_layer_arrays(raw: dict) -> dict:
    """The decode's object hook: a weighted layer's arrays, read by their
    fields' rule as the layer's object closes."""
    if raw.get("kind") in _WEIGHTED_KINDS:
        read_early(LayerDescriptor, raw, ("weights", "recurrent_weights", "biases"))
    return raw


def load_model(path: str | Path) -> ModelDescriptor:
    """Load and validate a model file; errors name the offending layer."""
    return model_from_dict(load_json(path, "model file", ModelParseError, _read_layer_arrays))


def save_model(model: ModelDescriptor, path: str | Path) -> None:
    """Write the model, as compact JSON, so that load_model reproduces it
    value-for-value: each object holds its fields less those at their
    default (``fields.to_json``)."""
    Path(path).write_text(json.dumps(to_json(model)) + "\n")
