import json

import numpy as np
import pytest

from spikemeter.model import (
    ModelDescriptor,
    ModelParseError,
    ModelValidationError,
    NeuronParams,
    Precision,
    connection_sparsity,
    count_parameters,
    load_model,
    memory_footprint,
    model_from_dict,
    model_to_dict,
    save_model,
)

from conftest import fc_layer, input_layer, random_model, simple_model


def two_layer_dict():
    return {
        "name": "m",
        "version": "v1",
        "precision": {"weight_bits": 32, "state_bits": 32},
        "layers": [
            {"kind": "input", "in_size": 2, "out_size": 2},
            {
                "kind": "fully-connected",
                "in_size": 2,
                "out_size": 3,
                "weights": [[0.6, 0.5], [0.4, 0.3], [0.8, 0.7]],
                "biases": [0.1, 0.0, -0.2],
                "neuron": {"beta": 0.9, "threshold": 1.0, "reset_mode": "to-zero"},
                "trainable": {"weights": True, "biases": True, "neuron": False},
            },
        ],
    }


class TestLoadModel:
    def test_well_formed_two_layer_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(two_layer_dict()))
        model = load_model(path)
        assert len(model.layers) == 2
        assert model.layers[1].weights.shape == (3, 2)

    def test_broken_layer_chain_names_layer(self):
        raw = two_layer_dict()
        raw["layers"].append(
            {
                "kind": "fully-connected",
                "in_size": 4,
                "out_size": 1,
                "weights": [[1.0, 1.0, 1.0, 1.0]],
                "neuron": {"beta": 0.9, "threshold": 1.0},
            }
        )
        with pytest.raises(ModelValidationError, match="layer 2"):
            model_from_dict(raw)

    def test_beta_out_of_range_names_layer(self):
        raw = two_layer_dict()
        raw["layers"][1]["neuron"]["beta"] = 1.2
        with pytest.raises(ModelValidationError, match="layer 1.*beta out of range"):
            model_from_dict(raw)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelParseError):
            load_model(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ModelParseError):
            load_model(path)

    def test_unknown_keys_rejected(self):
        raw = two_layer_dict()
        raw["surprise"] = 1
        with pytest.raises(ModelParseError, match="unknown keys"):
            model_from_dict(raw)

    def test_unknown_layer_key_rejected(self):
        raw = two_layer_dict()
        raw["layers"][1]["extra"] = []
        with pytest.raises(ModelParseError, match="layer 1"):
            model_from_dict(raw)

    def test_first_layer_must_be_input(self):
        raw = two_layer_dict()
        raw["layers"] = raw["layers"][1:]
        with pytest.raises(ModelValidationError, match="layer 0"):
            model_from_dict(raw)

    def test_weight_shape_mismatch(self):
        raw = two_layer_dict()
        raw["layers"][1]["weights"] = [[1.0, 2.0]]
        with pytest.raises(ModelValidationError, match="layer 1"):
            model_from_dict(raw)

    @pytest.mark.parametrize("key, message", [
        ("weights", r"weights shape \(0,\) does not match"),
        ("biases", "biases length must equal out_size"),
    ], ids=["weights", "biases"])
    def test_empty_array_is_a_shape_mismatch(self, key, message):
        raw = two_layer_dict()
        raw["layers"][1][key] = []
        with pytest.raises(ModelValidationError, match=f"layer 1: {message}"):
            model_from_dict(raw)

    def test_empty_version_rejected(self):
        raw = two_layer_dict()
        raw["version"] = ""
        with pytest.raises(ModelValidationError, match="version"):
            model_from_dict(raw)


class TestRoundTrip:
    def test_save_load_reproduces_values_exactly(self, tmp_path):
        rng = np.random.default_rng(42)
        for case in range(20):
            model = random_model(rng)
            path = tmp_path / f"m{case}.json"
            save_model(model, path)
            again = load_model(path)
            assert model_to_dict(again) == model_to_dict(model)
            for a, b in zip(model.layers, again.layers):
                if a.weights is not None:
                    assert np.array_equal(a.weights, b.weights)
                    if a.recurrent_weights is not None:
                        assert np.array_equal(a.recurrent_weights, b.recurrent_weights)


class TestCountParameters:
    def test_fc_2x3_with_biases(self):
        model = simple_model(
            [[0.6, 0.5], [0.4, 0.3], [0.8, 0.7]], biases=[0.1, 0.2, 0.3]
        )
        counts = count_parameters(model)
        assert counts.trainable == 9  # 2*3 weights + 3 biases
        assert counts.non_trainable == 6  # beta and threshold per neuron
        assert counts.total == 15

    def test_input_only_model(self):
        model = ModelDescriptor(name="m", version="v1", layers=(input_layer(4),))
        counts = count_parameters(model)
        assert (counts.trainable, counts.non_trainable, counts.total) == (0, 0, 0)

    def test_all_flags_false_moves_split_not_total(self):
        from spikemeter.model import TrainableFlags

        model = simple_model(
            [[0.6, 0.5], [0.4, 0.3], [0.8, 0.7]],
            biases=[0.1, 0.2, 0.3],
            trainable=TrainableFlags(weights=False, biases=False, neuron=False),
        )
        counts = count_parameters(model)
        assert counts.trainable == 0
        assert counts.total == 15

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            model = random_model(rng)
            expected = 0
            for layer in model.weighted_layers:
                expected += layer.weights.size
                if layer.recurrent_weights is not None:
                    expected += layer.recurrent_weights.size
                if layer.biases is not None:
                    expected += layer.biases.size
                expected += 2 * layer.out_size
            assert count_parameters(model).total == expected


class TestConnectionSparsity:
    def test_half_zero(self):
        model = simple_model([[0.0, 1.0], [2.0, 0.0]])
        assert connection_sparsity(model) == 0.5

    def test_dense(self):
        model = simple_model([[1.0, 1.0], [1.0, 1.0]])
        assert connection_sparsity(model) == 0.0

    def test_all_zero(self):
        model = simple_model([[0.0, 0.0], [0.0, 0.0]])
        assert connection_sparsity(model) == 1.0

    def test_no_weighted_layers_errors(self):
        model = ModelDescriptor(name="m", version="v1", layers=(input_layer(2),))
        with pytest.raises(ModelValidationError, match="no connections"):
            connection_sparsity(model)

    def test_invariant_under_nonzero_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            w = rng.uniform(-2.0, 2.0, size=(4, 5))
            w[rng.random(w.shape) < 0.4] = 0.0
            base = connection_sparsity(simple_model(w))
            assert connection_sparsity(simple_model(w * 3.5)) == base
            assert connection_sparsity(simple_model(w * -0.25)) == base


class TestMemoryFootprint:
    def test_nine_params_three_neurons_32bit(self):
        model = simple_model(
            [[0.6, 0.5], [0.4, 0.3], [0.8, 0.7]], biases=[0.1, 0.2, 0.3]
        )
        # 9 weight/bias cells * 4 bytes + 3 membrane potentials * 4 bytes
        assert memory_footprint(model) == 48

    def test_eight_bit_everything(self):
        layer = fc_layer([[0.6, 0.5], [0.4, 0.3], [0.8, 0.7]], biases=[0.1, 0.2, 0.3])
        model = ModelDescriptor(
            name="m",
            version="v1",
            layers=(input_layer(2), layer),
            precision=Precision(weight_bits=8, state_bits=8),
        )
        assert memory_footprint(model) == 12

    def test_input_only_is_zero(self):
        model = ModelDescriptor(name="m", version="v1", layers=(input_layer(3),))
        assert memory_footprint(model) == 0

    def test_doubling_sizes_quadruples_weight_cells(self):
        def fc_model(n):
            weights = np.ones((n, n))
            return ModelDescriptor(
                name="m", version="v1", layers=(input_layer(n), fc_layer(weights))
            )

        for n in (2, 3, 5):
            small, big = fc_model(n), fc_model(2 * n)
            small_weights = small.layers[1].weights.size
            big_weights = big.layers[1].weights.size
            assert big_weights == 4 * small_weights
            # footprint difference is exactly the extra weight + state bytes
            assert memory_footprint(big) == big_weights * 4 + 2 * n * 4
            assert memory_footprint(small) == small_weights * 4 + n * 4
