import numpy as np
import pytest

from spikemeter.files import trace_to_dict
from spikemeter.model import NeuronParams, ResetMode
from spikemeter.oracle import dense_oracle_counts
from spikemeter.simulate import (
    AnalogTrain,
    NeuronState,
    SimulationConfig,
    SimulationError,
    SpikeTrain,
    rate_encode,
    run_inference,
    step_lif,
)
from spikemeter.workload import effective_synops

from conftest import dense_synops, random_model, random_train, simple_model


@pytest.mark.parametrize("seed", [-1, 2**64, 2**65])
def test_seed_outside_64_bits_rejected(seed):
    """The encoder's stream takes a 64-bit seed; a seed it would reduce is refused."""
    with pytest.raises(SimulationError, match=rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"):
        SimulationConfig(timesteps=1, seed=seed)
    assert SimulationConfig(timesteps=1, seed=2**64 - 1).seed == 2**64 - 1


class TestRateEncode:
    def test_zero_rates_never_fire(self):
        train = rate_encode([0.0, 0.0], 50, seed=123)
        assert train.events.sum() == 0

    def test_rate_one_always_fires(self):
        train = rate_encode([1.0], 5, seed=9)
        assert train.events.sum() == 5

    def test_empirical_rate_near_half(self):
        train = rate_encode([0.5], 10_000, seed=2024)
        rate = train.events.mean()
        assert abs(rate - 0.5) < 0.02

    def test_deterministic_for_fixed_seed(self):
        a = rate_encode([0.2, 0.7, 0.5], 64, seed=77)
        b = rate_encode([0.2, 0.7, 0.5], 64, seed=77)
        assert np.array_equal(a.events, b.events)
        c = rate_encode([0.2, 0.7, 0.5], 64, seed=78)
        assert not np.array_equal(a.events, c.events)

    def test_out_of_range_value_rejected(self):
        with pytest.raises(SimulationError):
            rate_encode([1.1], 4, seed=0)
        with pytest.raises(SimulationError):
            rate_encode([-0.1], 4, seed=0)


class TestStepLif:
    def test_fire_and_reset_to_zero(self):
        params = NeuronParams(beta=0.9, threshold=1.0, reset_mode=ResetMode.TO_ZERO)
        state, spike = step_lif(NeuronState(0.5), 0.6, params)
        assert spike == 1  # 0.45 + 0.6 = 1.05 >= 1
        assert state.v == 0.0

    def test_no_leak_no_input_holds_state(self):
        params = NeuronParams(beta=1.0, threshold=1.0)
        state, spike = step_lif(NeuronState(0.4), 0.0, params)
        assert spike == 0
        assert state.v == 0.4

    def test_subtract_reset_keeps_remainder(self):
        params = NeuronParams(beta=0.9, threshold=1.0, reset_mode=ResetMode.SUBTRACT)
        state, spike = step_lif(NeuronState(0.5), 0.6, params)
        assert spike == 1
        assert state.v == pytest.approx(0.05)
        assert state.v == (0.9 * 0.5 + 0.6) - 1.0  # exact float identity


class TestRunInference:
    def test_fixture_counts_nine_acs(self, fixture_2x3_model, fixture_input_spikes):
        config = SimulationConfig(timesteps=4)
        trace = run_inference(fixture_2x3_model, fixture_input_spikes, config)
        assert trace.total_acs == 9  # 3 spikes x fan-out 3

    def test_zero_input_zero_state_is_all_zero(self):
        model = simple_model([[0.5, 0.5], [0.5, 0.5]], beta=0.9)
        train = SpikeTrain(np.zeros((2, 6)))
        trace = run_inference(model, train, SimulationConfig(timesteps=6))
        assert trace.total_acs == 0
        assert trace.total_macs == 0
        assert sum(trace.counts.membrane_updates) == 0
        assert all(np.count_nonzero(layer) == 0 for layer in trace.spikes)

    def test_dimension_mismatch_rejected(self, fixture_2x3_model):
        train = SpikeTrain(np.zeros((3, 4)))
        with pytest.raises(SimulationError):
            run_inference(fixture_2x3_model, train, SimulationConfig(timesteps=4))
        train = SpikeTrain(np.zeros((2, 5)))
        with pytest.raises(SimulationError):
            run_inference(fixture_2x3_model, train, SimulationConfig(timesteps=4))

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            model = random_model(rng)
            T = int(rng.integers(1, 33))
            train = random_train(rng, model.input_size, T)
            config = SimulationConfig(timesteps=T, seed=5)
            a = run_inference(model, train, config)
            b = run_inference(model, train, config)
            assert a.equals(b)

    def test_analog_inputs_count_macs(self):
        model = simple_model([[1.0, 1.0], [1.0, 1.0]], beta=1.0, threshold=10.0)
        frames = np.array([[0.5, 0.0], [0.0, 1.0]])
        trace = run_inference(model, AnalogTrain(frames), SimulationConfig(timesteps=2))
        # t0: neuron 0 sends analog 0.5 -> 2 MACs; t1: neuron 1 spikes (1.0) -> 2 ACs
        assert trace.counts.macs == [2, 0]
        assert trace.counts.acs == [0, 2]

    def test_acs_bounded_by_spikes_times_max_fanout(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            n_in = int(rng.integers(1, 6))
            n_out = int(rng.integers(1, 6))
            weights = rng.uniform(-1.0, 1.0, size=(n_out, n_in))
            weights[rng.random(weights.shape) < 0.4] = 0.0
            model = simple_model(weights)
            T = int(rng.integers(1, 17))
            spikes = (rng.random((n_in, T)) < 0.4).astype(np.float64)
            trace = run_inference(model, SpikeTrain(spikes), SimulationConfig(timesteps=T))
            fanouts = [int(np.count_nonzero(weights[:, j])) for j in range(n_in)]
            input_spikes = int(spikes.sum())
            assert trace.total_acs <= input_spikes * max(fanouts, default=0)
            if all(f == n_out for f in fanouts):
                assert trace.total_acs == input_spikes * n_out

    def test_event_count_bounded_by_dense(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            model = random_model(rng)
            T = int(rng.integers(1, 17))
            train = random_train(rng, model.input_size, T, analog_prob=0.0)
            trace = run_inference(model, train, SimulationConfig(timesteps=T))
            dense = dense_synops(model, T)
            assert effective_synops(trace.counts).acs <= dense.acs

    def test_dense_equality_when_everything_fires(self):
        # all-ones weights, zero threshold effect: bias drives every neuron
        # to fire every timestep; every input neuron spikes every timestep.
        model = simple_model(
            [[1.0, 1.0], [1.0, 1.0]], biases=[5.0, 5.0], beta=0.0, threshold=1.0
        )
        T = 3
        train = SpikeTrain(np.ones((2, T)))
        trace = run_inference(model, train, SimulationConfig(timesteps=T))
        assert effective_synops(trace.counts).acs == dense_synops(model, T).acs

    def test_to_zero_reset_zeroes_potential_in_trace(self):
        # single neuron driven over threshold at t0 only; beta=1 so any
        # residual potential would persist and fire again.
        model = simple_model([[2.0]], beta=1.0, threshold=1.0)
        train = SpikeTrain(np.array([[1.0, 0.0, 0.0]]))
        trace = run_inference(model, train, SimulationConfig(timesteps=3))
        assert trace.spikes[1].tolist() == [[1.0, 0.0, 0.0]]

    def test_leak_mac_accounting_beta_edge_cases(self):
        # beta=1: holding potential costs nothing; beta=0: clear costs no MAC
        # but is a state change; beta=0.5: leak costs one MAC per active step.
        train = SpikeTrain(np.array([[1.0, 0.0]]))
        for beta, macs_t1, updates_t1 in ((1.0, 0, 0), (0.0, 0, 1), (0.5, 1, 1)):
            model = simple_model([[0.5]], beta=beta, threshold=10.0)
            trace = run_inference(model, train, SimulationConfig(timesteps=2))
            assert trace.counts.macs[1] == macs_t1, f"beta={beta}"
            assert trace.counts.membrane_updates[1] == updates_t1, f"beta={beta}"


@pytest.mark.parametrize("run", [run_inference, dense_oracle_counts], ids=["event", "oracle"])
@pytest.mark.parametrize("cls, rows", [
    (AnalogTrain, [[0.5, 0.0, -0.25, 1.0], [0.0, -0.0, 2.0, 0.75]]),
    (SpikeTrain, [[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]]),
], ids=["analog", "spikes"])
def test_train_holds_its_own_read_only_events(cls, rows, run):
    """A train copies the array it is built from and cannot be written, so
    the finiteness check holds for the whole run, and a trace holds the
    train's array as its ``spikes[0]`` without a copy of its own."""
    model = simple_model([[0.6, 0.5], [0.4, -0.3], [0.0, 0.7]], beta=0.9)
    config = SimulationConfig(timesteps=4)
    source = np.array(rows)
    train = cls(source)
    assert not np.shares_memory(train.events, source)
    assert not train.events.flags.writeable
    with pytest.raises(ValueError):
        train.events[0, 0] = np.nan
    trace = run(model, train, config)
    assert trace.spikes[0] is train.events
    saved = trace_to_dict(trace)

    source[:] = np.nan  # writing the caller's array reaches neither the train nor the trace
    assert train.events.tolist() == rows
    assert np.array_equal(np.signbit(train.events), np.signbit(rows))
    assert trace_to_dict(trace) == saved
    assert run(model, train, config).equals(trace)
