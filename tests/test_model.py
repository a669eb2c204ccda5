import copy
import io
import json
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import numpy as np
import pytest

from spikemeter import cli
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

    def test_float64_array_passes_as_it_is(self):
        raw = two_layer_dict()
        weights = np.array(raw["layers"][1]["weights"])
        raw["layers"][1]["weights"] = weights
        assert model_from_dict(raw).layers[1].weights is weights

    def test_other_array_dtype_refused(self):
        raw = two_layer_dict()
        raw["layers"][1]["weights"] = np.array(raw["layers"][1]["weights"], dtype=np.float32)
        with pytest.raises(ModelParseError, match="'weights': expected a number array, got ndarray"):
            model_from_dict(raw)

    def test_empty_version_rejected(self):
        raw = two_layer_dict()
        raw["version"] = ""
        with pytest.raises(ModelValidationError, match="version"):
            model_from_dict(raw)


DEMO_TEXT = (resources.files("spikemeter") / "data" / "demo_model.json").read_text()
WEIGHTS = ("layers", 1, "weights")


def demo_with(*changes) -> str:
    """The demo model's JSON text with each (path, value) change applied."""
    doc = copy.deepcopy(json.loads(DEMO_TEXT))
    for path, value in changes:
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
    return json.dumps(doc)


def nested(depth: int):
    """``0.5`` inside ``depth`` one-item lists."""
    value = 0.5
    for _ in range(depth):
        value = [value]
    return value


def metrics(sparsity: str) -> str:
    """``analyze``'s stdout on a demo-shaped model of the given connection sparsity."""
    return ("parameters = 15 count [computed]\n"
            "parameters_trainable = 9 count [computed]\n"
            "parameters_non_trainable = 6 count [computed]\n"
            "memory_footprint = 48 bytes [computed]\n"
            f"connection_sparsity = {sparsity} ratio [computed]\n")


FIELD = "error: layer 1: model field"
SHAPE = "error: layer 1: weights shape {} does not match (out_size, in_size) = (3, 2)\n"

# (id, model text, exit code, stderr -- or stdout when the code is 0; {path}
# stands for the model file)
REFUSALS = [
    ("weights-3d", demo_with((WEIGHTS, [[[0.6], [0.5]], [[0.4], [0.3]], [[0.8], [0.7]]])),
     2, SHAPE.format("(3, 2, 1)")),
    ("weights-empty", demo_with((WEIGHTS, [])), 2, SHAPE.format("(0,)")),
    ("weights-empty-rows", demo_with((WEIGHTS, [[], [], []])), 2, SHAPE.format("(3, 0)")),
    ("weights-number", demo_with((WEIGHTS, 1.0)),
     2, f"{FIELD} 'weights': expected a number array, got 1.0\n"),
    ("weights-null", demo_with((WEIGHTS, None)), 2, "error: layer 1: missing weights\n"),
    ("weights-bool-entry", demo_with((WEIGHTS, [[0.6, True], [0.4, 0.3], [0.8, 0.7]])),
     2, f"{FIELD} 'weights': expected a number array, got bool entries\n"),
    ("weights-string-entry", demo_with((WEIGHTS, [[0.6, "1"], [0.4, 0.3], [0.8, 0.7]])),
     2, f"{FIELD} 'weights': expected a number array, got string entries\n"),
    ("weights-2**70-entry", demo_with((WEIGHTS, [[0.6, 2**70], [0.4, 0.3], [0.8, 0.7]])),
     2, f"{FIELD} 'weights': expected a number array, got out-of-range integer entries\n"),
    ("weights-ragged", demo_with((WEIGHTS, [[0.6, 0.5], [0.4], [0.8, 0.7]])),
     2, f"{FIELD} 'weights': expected a number array, got ragged rows\n"),
    ("weights-nan", demo_with((WEIGHTS, [[0.6, float("nan")], [0.4, 0.3], [0.8, 0.7]])),
     2, "error: layer 1: non-finite value in weights\n"),
    ("weights-8-deep", demo_with((WEIGHTS, nested(8))),
     2, SHAPE.format("(1, 1, 1, 1, 1, 1, 1, 1)")),
    ("weights-70-deep", demo_with((WEIGHTS, nested(70))),
     2, f"{FIELD} 'weights': expected a number array, got too many dimensions\n"),
    ("biases-2d", demo_with((("layers", 1, "biases"), [[0.0], [0.0], [0.0]])),
     2, "error: layer 1: biases length must equal out_size\n"),
    ("biases-false-entry", demo_with((("layers", 1, "biases"), [0.0, False, 0.0])),
     2, f"{FIELD} 'biases': expected a number array, got bool entries\n"),
    ("recurrent-weights-on-fc", demo_with((("layers", 1, "recurrent_weights"), [[0.0] * 3] * 3)),
     2, "error: layer 1: only recurrent layers take recurrent_weights\n"),
    ("weights-on-input", demo_with((("layers", 0, "weights"), [[1.0, 0.0], [0.0, 1.0]])),
     2, "error: layer 0: input layers carry no weights\n"),
    ("bad-entry-and-unknown-key",
     demo_with((WEIGHTS, [[0.6, "1"], [0.4, 0.3], [0.8, 0.7]]), (("layers", 1, "extra"), 1)),
     2, "error: layer 1: model: unknown keys ['extra']; allowed: kind, in_size, out_size, "
        "weights, recurrent_weights, biases, neuron, trainable\n"),
    ("trainable-weights-list", demo_with((("layers", 1, "trainable", "weights"), [[1.0]])),
     2, f"{FIELD} 'trainable.weights': expected true or false, got list\n"),
    ("neuron-weights-list", demo_with((("layers", 1, "neuron", "weights"), [[1.0]])),
     2, f"{FIELD} 'neuron': unknown keys ['weights']; allowed: beta, threshold, reset_mode\n"),
    ("top-level-weights", demo_with((("weights",), [[1.0]])),
     2, "error: model: unknown keys ['weights']; allowed: name, version, layers, precision\n"),
    ("duplicate-weights-last-wins",
     DEMO_TEXT.replace('"weights": [[', '"weights": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], '
                                        '"weights": [[', 1),
     0, metrics("0")),
    ("integer-weights", demo_with((WEIGHTS, [[1, 0], [0, 2], [3, 0]])), 0, metrics("0.5")),
    ("negative-zero-weights", demo_with((WEIGHTS, [[-0.0, 0.5], [0.4, -0.0], [0.8, 0.7]])),
     0, metrics("0.333333333333")),
    ("layers-100000-deep", '{"version": "v1", "layers": ' + "[" * 100_000 + "]" * 100_000 + "}",
     2, "error: malformed model file {path}: maximum recursion depth exceeded while decoding "
        "a JSON array from a unicode string\n"),
]


@pytest.mark.parametrize("text, code, output", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_analyze_reads_or_refuses_each_model_field(tmp_path, text, code, output):
    """Each broken field of the demo model exits 2 with one line naming it,
    and each odd but valid one is read; the whole output is pinned."""
    path = tmp_path / "model.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert cli.main(["analyze", "--model", str(path)]) == code
    assert (err if code else out).getvalue() == output.replace("{path}", str(path))
    assert (out if code else err).getvalue() == ""


def test_load_model_holds_one_layers_floats_at_a_time(tmp_path):
    """The decode converts each weighted layer's arrays as the layer closes:
    beyond the text, the peak stays below two layers' Python floats (32 B a
    weight, with its list slot), where holding all three would take three.
    numpy's own buffers, traced or not, add a quarter of a layer each."""
    n, layers = 300, 3
    rng = np.random.default_rng(0)
    weights = [rng.choice([0.5, -0.25, 1.5, 0.0], size=(n, n)).tolist() for _ in range(layers)]
    doc = {"version": "v1", "layers": [{"kind": "input", "in_size": n, "out_size": n}] + [
        {"kind": "fully-connected", "in_size": n, "out_size": n, "weights": w,
         "neuron": {"beta": 0.9, "threshold": 1.0}} for w in weights]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    del weights, doc
    text_bytes = path.stat().st_size
    tracemalloc.start()
    try:
        model = load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model.layers) == layers + 1
    one_layer = 32 * n * n
    assert (peak - text_bytes) / one_layer < 2


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

    def test_save_writes_compact_json(self, tmp_path):
        """One line, without the indent that would keep json.dumps off its C encoder."""
        model = random_model(np.random.default_rng(5))
        path = tmp_path / "m.json"
        save_model(model, path)
        assert path.read_text() == json.dumps(model_to_dict(model)) + "\n"


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
