import numpy as np
import pytest

from spikemeter import simulate
from spikemeter.model import LayerDescriptor, LayerKind, ModelDescriptor, NeuronParams, ResetMode
from spikemeter.oracle import dense_oracle_counts
from spikemeter.simulate import (_BLOCK_CELLS, AnalogTrain, SimulationConfig, SpikeTrain,
                                 run_inference)

from conftest import fc_layer, input_layer, random_model, random_train, simple_model


def test_fixture_oracle_matches_event_path(fixture_2x3_model, fixture_input_spikes):
    config = SimulationConfig(timesteps=4)
    event = run_inference(fixture_2x3_model, fixture_input_spikes, config)
    oracle = dense_oracle_counts(fixture_2x3_model, fixture_input_spikes, config)
    assert oracle.total_acs == 9
    assert event.equals(oracle)


def test_oracle_counts_crossings_and_spikes_itself(fixture_2x3_model, fixture_input_spikes):
    """The oracle counts the events that cross a layer boundary and the
    non-input spikes from its own lists, so comparing whole counts checks the
    simulator's."""
    config = SimulationConfig(timesteps=4)
    oracle = dense_oracle_counts(fixture_2x3_model, fixture_input_spikes, config).counts
    assert (oracle.crossings, oracle.non_input_spikes) == ([2, 1, 0, 0], 2)


def test_zero_weight_model_counts_nothing():
    model = simple_model([[0.0, 0.0], [0.0, 0.0]])
    train = SpikeTrain(np.ones((2, 5)))
    oracle = dense_oracle_counts(model, train, SimulationConfig(timesteps=5))
    assert oracle.total_acs == 0
    assert oracle.total_macs == 0


def test_randomized_equivalence_small_batch():
    # The full >= 1000-case sweep lives in the acceptance suite; this keeps a
    # fast regression signal in the unit tier.
    rng = np.random.default_rng(2025)
    for case in range(200):
        model = random_model(rng)
        T = int(rng.integers(1, 65))
        train = random_train(rng, model.input_size, T)
        config = SimulationConfig(timesteps=T)
        event = run_inference(model, train, config)
        oracle = dense_oracle_counts(model, train, config)
        assert event.equals(oracle), f"case {case}: event and oracle traces diverge"


# --- layer-major edge cases ---------------------------------------------------
# Each builder returns (model, train); the event path must equal the oracle.

def two_layer_model(w1, w2, biases=None, **neuron) -> ModelDescriptor:
    """Two fully-connected layers; ``biases`` go to the first."""
    first, second = fc_layer(w1, biases=biases, **neuron), fc_layer(w2, **neuron)
    return ModelDescriptor(name="edge", version="v1",
                           layers=(input_layer(first.in_size), first, second))


def case_single_timestep():
    rng = np.random.default_rng(1)
    return (two_layer_model(rng.uniform(-1, 2, (6, 4)), rng.uniform(-1, 2, (3, 6))),
            SpikeTrain(np.array([[1.0], [0.0], [1.0], [1.0]])))


def case_no_input_events():
    rng = np.random.default_rng(2)
    # the biases still drive the first layer, so the second sees spikes
    model = two_layer_model(rng.uniform(-1, 2, (5, 3)), rng.uniform(-1, 2, (2, 5)),
                            biases=[0.3, 0.0, 0.6, 0.0, -0.2])
    return model, SpikeTrain(np.zeros((3, 20)))


def case_all_zero_weight_column():
    rng = np.random.default_rng(3)
    w = rng.uniform(-1, 2, (5, 4))
    w[:, 1] = 0.0
    w[:, 3] = -0.0
    return simple_model(w, biases=[0.1, 0.0, -0.2, 0.0, 0.3]), SpikeTrain(np.ones((4, 12)))


def case_every_neuron_fires_every_step():
    w = np.full((4, 3), 2.0)
    return (two_layer_model(w, np.full((2, 4), 2.0), beta=0.9, threshold=1.0),
            SpikeTrain(np.ones((3, 10))))


def case_analog_with_exact_ones():
    rng = np.random.default_rng(5)
    frames = rng.uniform(0.0, 1.5, (4, 30))
    frames[rng.random(frames.shape) < 0.4] = 0.0
    frames[rng.random(frames.shape) < 0.3] = 1.0
    return (two_layer_model(rng.uniform(-1, 1, (6, 4)), rng.uniform(-1, 2, (3, 6))),
            AnalogTrain(frames))


def case_long_recurrent_analog():
    # sim-sparse-long's shape, shrunk: sparse analog channels into a
    # half-zero recurrent layer, then a small readout, over 400 steps.
    rng = np.random.default_rng(6)
    channels, hidden, outputs, steps = 12, 16, 3, 400

    def half_zero(shape, scale):
        w = rng.normal(0.0, scale, size=shape)
        w[rng.random(shape) < 0.5] = 0.0
        return w

    recurrent = LayerDescriptor(
        kind=LayerKind.RECURRENT, in_size=channels, out_size=hidden,
        weights=half_zero((hidden, channels), 1.2),
        recurrent_weights=half_zero((hidden, hidden), 0.5),
        biases=half_zero((hidden,), 0.05),
        neuron=NeuronParams(beta=0.9, threshold=1.0, reset_mode=ResetMode.SUBTRACT),
    )
    readout = fc_layer(half_zero((outputs, hidden), 0.8), beta=0.5)
    model = ModelDescriptor(name="long", version="v1",
                            layers=(input_layer(channels), recurrent, readout))
    frames = np.zeros((channels, steps))
    active = rng.random(frames.shape) < 0.1
    frames[active] = rng.uniform(0.05, 0.95, size=int(active.sum()))
    frames[rng.random(frames.shape) < 0.01] = 1.0
    return model, AnalogTrain(frames)


def recurrent_model(weights, recurrent_weights, beta, threshold=1.0) -> ModelDescriptor:
    """One recurrent layer, no biases."""
    weights = np.asarray(weights, dtype=np.float64)
    layer = LayerDescriptor(
        kind=LayerKind.RECURRENT, in_size=weights.shape[1], out_size=weights.shape[0],
        weights=weights, recurrent_weights=np.asarray(recurrent_weights, dtype=np.float64),
        neuron=NeuronParams(beta=beta, threshold=threshold),
    )
    return ModelDescriptor(name="recurrent", version="v1",
                           layers=(input_layer(layer.in_size), layer))


def case_contributions_cancel():
    # each neuron's two inputs sum to exactly 0.0, so its potential never
    # leaves zero and never leaks, yet each step with input is one update
    model = simple_model([[0.5, -0.5], [0.25, -0.25]], beta=0.5)
    return model, AnalogTrain(np.array([[0.5, 0.0, 0.5, 0.0], [0.5, 0.0, 0.5, 0.0]]))


def case_spikes_at_last_timestep():
    # both neurons fire only at the last step: their feedback has no step to reach
    model = recurrent_model([[2.0], [2.0]], [[0.0, 1.0], [1.0, 0.0]], beta=0.0)
    return model, SpikeTrain(np.array([[0.0, 0.0, 1.0]]))


def case_all_zero_recurrent_column():
    # neuron 0 fires every step, but its recurrent column holds only zeros
    # (one of them -0.0), so its feedback costs nothing and reaches no one;
    # neurons 1 and 2 never fire and, with beta 1, update only on input
    recurrent = [[0.0, 0.3, 0.0], [-0.0, 0.0, 0.3], [0.0, 0.3, 0.0]]
    model = recurrent_model([[2.0, 0.0], [0.0, 0.1], [0.0, 0.1]], recurrent, beta=1.0)
    return model, SpikeTrain(np.array([[1.0] * 8, [1.0, 0.0] * 4]))


def case_many_time_blocks():
    # wide enough that _tally_layer counts 32 timesteps per block, so the
    # run spans several blocks and recurrent spikes feed back across them
    rng = np.random.default_rng(8)
    inputs, hidden, steps = _BLOCK_CELLS // 32, 4, 3 * 32 + 5
    weights = rng.uniform(0.0, 0.6, (hidden, inputs))
    weights[rng.random(weights.shape) < 0.5] = 0.0
    model = recurrent_model(weights, rng.uniform(-0.5, 1.0, (hidden, hidden)), beta=0.9)
    return model, SpikeTrain((rng.random((inputs, steps)) < 0.02).astype(np.float64))


def beta_reset_case(beta, reset):
    def build():
        rng = np.random.default_rng(7)
        w = rng.uniform(-0.5, 1.0, (5, 3))
        model = two_layer_model(w, rng.uniform(-0.5, 1.0, (2, 5)), beta=beta,
                                threshold=0.8, reset=reset)
        return model, SpikeTrain((rng.random((3, 25)) < 0.5).astype(np.float64))
    return build


EDGE_CASES = {
    "T=1": case_single_timestep,
    "no-input-events": case_no_input_events,
    "all-zero-weight-column": case_all_zero_weight_column,
    "every-neuron-every-step": case_every_neuron_fires_every_step,
    "analog-with-exact-ones": case_analog_with_exact_ones,
    "recurrent-analog-T400": case_long_recurrent_analog,
    "contributions-cancel": case_contributions_cancel,
    "spikes-at-last-timestep": case_spikes_at_last_timestep,
    "all-zero-recurrent-column": case_all_zero_recurrent_column,
    "many-time-blocks": case_many_time_blocks,
    **{f"beta={beta}-{reset.value}": beta_reset_case(beta, reset)
       for beta in (0.0, 1.0, 0.9) for reset in ResetMode},
}


@pytest.mark.parametrize("build", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_layer_major_edge_case_matches_oracle(build):
    model, train = build()
    config = SimulationConfig(timesteps=train.timesteps)
    assert run_inference(model, train, config).equals(dense_oracle_counts(model, train, config))


@pytest.mark.parametrize("build, tallies", [
    (case_contributions_cancel, {"macs": [4, 0, 4, 0], "membrane_updates": [2, 0, 2, 0]}),
    (case_spikes_at_last_timestep, {"acs": [0, 0, 2], "membrane_updates": [0, 0, 2]}),
    (case_all_zero_recurrent_column, {"acs": [3, 1] * 4, "membrane_updates": [3, 1] * 4}),
], ids=["contributions-cancel", "spikes-at-last-timestep", "all-zero-recurrent-column"])
def test_edge_case_tallies(build, tallies):
    model, train = build()
    trace = run_inference(model, train, SimulationConfig(timesteps=train.timesteps))
    for key, expected in tallies.items():
        assert getattr(trace.counts, key) == expected, key


def test_many_time_blocks_feed_back_across_blocks():
    model, train = case_many_time_blocks()
    block = _BLOCK_CELLS // max(model.input_size, model.weighted_layers[0].out_size)
    fired = run_inference(model, train, SimulationConfig(timesteps=train.timesteps)).spikes[1]
    assert train.timesteps > 3 * block
    assert fired[:, block - 1].any() and fired[:, 2 * block - 1].any()


@pytest.mark.parametrize("steps", [1, 7, 16])
def test_run_across_current_blocks_matches_oracle(monkeypatch, steps):
    """_run_layer builds each layer's current ``steps`` timesteps at a time
    here, so a 50-step run spans at least four blocks.  Beta 0.9, the
    subtract reset and a bias keep potentials nonzero across the block
    edges, and recurrent spikes feed back over them."""
    rng = np.random.default_rng(9)
    channels, hidden, T = 5, 8, 50
    recurrent = LayerDescriptor(
        kind=LayerKind.RECURRENT, in_size=channels, out_size=hidden,
        weights=rng.uniform(-0.2, 0.6, (hidden, channels)),
        recurrent_weights=rng.uniform(-0.4, 0.3, (hidden, hidden)),
        biases=rng.uniform(0.05, 0.15, hidden),
        neuron=NeuronParams(beta=0.9, threshold=1.0, reset_mode=ResetMode.SUBTRACT))
    readout = fc_layer(rng.uniform(-0.5, 1.0, (3, hidden)), beta=0.9, reset=ResetMode.SUBTRACT)
    model = ModelDescriptor(name="blocks", version="v1",
                            layers=(input_layer(channels), recurrent, readout))
    frames = np.where(rng.random((channels, T)) < 0.3, rng.uniform(0.1, 1.0, (channels, T)), 0.0)
    train = AnalogTrain(frames)
    monkeypatch.setattr(simulate, "_CURRENT_CELLS", steps * hidden)
    assert T > 3 * steps
    config = SimulationConfig(timesteps=T)
    trace = run_inference(model, train, config)
    assert trace.equals(dense_oracle_counts(model, train, config))
    edges = range(steps, T, steps)
    assert all(trace.counts.leak_macs[t] for t in edges)  # potentials cross each edge
    assert any(trace.spikes[1][:, t - 1].any() for t in edges)  # and so does feedback


# Rounding makes these sums depend on their order.  (0.1 + 0.2) + 0.3 sits
# one ulp above (0.3 + 0.2) + 0.1, the sum of the same inputs taken in
# descending order; (0.1 + 0.2) + 0.4 sits one ulp above (0.1 + 0.4) + 0.2,
# the sum with the bias added before the recurrent term.  With the threshold
# at the documented order's sum -- feed-forward ascending, then recurrent,
# then bias -- the neuron fires only when it accumulates in that order.

def case_feed_forward_order():
    model = simple_model([[0.1, 0.2, 0.3]], beta=0.0, threshold=(0.1 + 0.2) + 0.3)
    return model, SpikeTrain(np.ones((3, 1))), (1, 0, 0)


def case_recurrent_then_bias_order():
    layer = LayerDescriptor(
        kind=LayerKind.RECURRENT, in_size=2, out_size=2,
        weights=np.array([[1.0, 0.0], [0.0, 0.1]]),
        recurrent_weights=np.array([[0.0, 0.0], [0.2, 0.0]]),
        biases=np.array([0.0, 0.4]),
        neuron=NeuronParams(beta=0.0, threshold=(0.1 + 0.2) + 0.4),
    )
    model = ModelDescriptor(name="order", version="v1", layers=(input_layer(2), layer))
    # input 0 fires neuron 0 at t0; at t1 neuron 1 sums 0.1 (input 1),
    # 0.2 (neuron 0's spike fed back) and 0.4 (bias)
    return model, SpikeTrain(np.array([[1.0, 0.0], [0.0, 1.0]])), (1, 1, 1)


@pytest.mark.parametrize("build", [case_feed_forward_order, case_recurrent_then_bias_order],
                         ids=["feed-forward-ascending", "recurrent-then-bias"])
def test_accumulation_order_decides_a_spike(build):
    model, train, (layer, neuron, t) = build()
    config = SimulationConfig(timesteps=train.timesteps)
    trace = run_inference(model, train, config)
    assert trace.spikes[layer][neuron, t] == 1.0
    assert trace.equals(dense_oracle_counts(model, train, config))
