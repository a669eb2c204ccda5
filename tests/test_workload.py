import numpy as np
import pytest

from spikemeter.catalog import ALERT_RULES
from spikemeter.simulate import SimulationConfig, SpikeTrain, run_inference
from spikemeter.workload import (
    MemoryAccessCounts,
    OpCounts,
    TraceCounts,
    activation_sparsity,
    effective_synops,
    memory_accesses,
)

from conftest import dense_synops, random_model, random_train, simple_model


def counts(macs=0, acs=0, eff=0, dense=None, leak=0):
    return OpCounts(
        macs=macs,
        acs=acs,
        membrane_updates_effective=eff,
        membrane_updates_dense=eff if dense is None else dense,
        leak_macs=leak,
    )


class TestEffectiveSynops:
    def test_fixture_totals(self, fixture_2x3_model, fixture_input_spikes):
        trace = run_inference(
            fixture_2x3_model, fixture_input_spikes, SimulationConfig(timesteps=4)
        )
        ops = effective_synops(trace.counts)
        assert ops.acs == 9
        assert ops.acs + ops.macs == ops.total_sops
        assert ops.membrane_updates_effective <= ops.membrane_updates_dense

    def test_zero_trace(self):
        model = simple_model([[1.0, 1.0]])
        trace = run_inference(
            model, SpikeTrain(np.zeros((2, 3))), SimulationConfig(timesteps=3)
        )
        ops = effective_synops(trace.counts)
        assert (ops.macs, ops.acs, ops.membrane_updates_effective) == (0, 0, 0)

    def test_two_traces_add_componentwise(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        t1 = run_inference(
            model, random_train(rng, model.input_size, 8), SimulationConfig(timesteps=8)
        )
        t2 = run_inference(
            model, random_train(rng, model.input_size, 8), SimulationConfig(timesteps=8)
        )
        combined = effective_synops(t1.counts) + effective_synops(t2.counts)
        assert combined.acs == t1.total_acs + t2.total_acs
        assert combined.macs == t1.total_macs + t2.total_macs
        assert combined.total_sops == (
            effective_synops(t1.counts).total_sops + effective_synops(t2.counts).total_sops
        )


class TestDenseSynops:
    def test_fc_2x3_two_timesteps(self, fixture_2x3_model):
        assert dense_synops(fixture_2x3_model, 2).acs == 12

    def test_zero_timesteps(self, fixture_2x3_model):
        ops = dense_synops(fixture_2x3_model, 0)
        assert ops.acs == 0 and ops.membrane_updates_dense == 0

    def test_bounds_effective(self, fixture_2x3_model, fixture_input_spikes):
        trace = run_inference(
            fixture_2x3_model, fixture_input_spikes, SimulationConfig(timesteps=4)
        )
        assert effective_synops(trace.counts).acs <= dense_synops(fixture_2x3_model, 4).acs


class TestMemoryAccesses:
    def test_mixed_counts(self):
        mem = memory_accesses(counts(macs=4, acs=10))
        assert mem == MemoryAccessCounts(reads=32, writes=14)

    def test_zero_in_zero_out(self):
        assert memory_accesses(counts()) == MemoryAccessCounts(0, 0)

    def test_single_mac_is_three_loads_one_store(self):
        mem = memory_accesses(counts(macs=1))
        assert (mem.reads, mem.writes) == (3, 1)

    def test_single_ac_is_two_loads_one_store(self):
        mem = memory_accesses(counts(acs=1))
        assert (mem.reads, mem.writes) == (2, 1)

    def test_identity_for_random_counts(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            macs = int(rng.integers(0, 10**6))
            acs = int(rng.integers(0, 10**6))
            mem = memory_accesses(counts(macs=macs, acs=acs))
            assert mem.reads - 2 * acs - 3 * macs == 0
            assert mem.writes - acs - macs == 0

    def test_leak_mac_exclusion_flag(self):
        ops = counts(macs=5, acs=2, leak=3)
        with_leak = memory_accesses(ops)
        without = memory_accesses(ops, include_leak_macs=False)
        assert with_leak.reads == 3 * 5 + 2 * 2
        assert without.reads == 3 * 2 + 2 * 2
        assert without.writes == 2 + 2


def trace_with(spikes: int, neurons: int = 3, timesteps: int = 4) -> TraceCounts:
    """Counts of a trace over one hidden layer with the given number of spikes."""
    zeros = [0] * timesteps
    return TraceCounts(
        layer_sizes=(2, neurons), timesteps=timesteps, timestep_duration=1e-3,
        acs=zeros, macs=zeros, leak_macs=zeros, membrane_updates=zeros,
        crossings=zeros, non_input_spikes=spikes,
    )


SPARSITY = ALERT_RULES["sparsity"]


class TestActivationSparsity:
    def test_three_of_twelve(self):
        report = activation_sparsity(trace_with(3))
        assert report.activation_sparsity == 0.75
        assert not SPARSITY.violated(report.activation_sparsity)

    def test_zero_spikes_full_sparsity(self):
        report = activation_sparsity(trace_with(0))
        assert report.activation_sparsity == 1.0

    def test_half_spikes_raises_alert(self):
        report = activation_sparsity(trace_with(6))
        assert report.activation_sparsity == 0.5
        assert SPARSITY.violated(report.activation_sparsity)

    def test_exactly_at_threshold_no_alert(self):
        # 2 spikes over 5 opportunities: 1 - 2/5 evaluates to the same double
        # as the 0.6 threshold, and the comparison is strict.
        report = activation_sparsity(trace_with(2, neurons=5, timesteps=1))
        assert report.activation_sparsity == 0.6
        assert not SPARSITY.violated(report.activation_sparsity)

    def test_just_below_threshold_alerts(self):
        report = activation_sparsity(trace_with(41, neurons=10, timesteps=10))
        assert SPARSITY.violated(report.activation_sparsity)

    def test_adding_a_spike_strictly_decreases_sparsity(self):
        previous = activation_sparsity(trace_with(0)).activation_sparsity
        for spikes in range(1, 13):
            current = activation_sparsity(trace_with(spikes)).activation_sparsity
            assert current < previous
            previous = current

    def test_group_aggregation_sums_spikes_and_opportunities(self):
        a, b = trace_with(3), trace_with(5)
        combined = activation_sparsity(a, b)
        assert combined.spikes == 8
        assert combined.opportunities == 24
        assert combined.activation_sparsity == 1.0 - 8 / 24

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="opportunities"):
            activation_sparsity(trace_with(0, neurons=0))

    def test_custom_threshold(self):
        sparsity = activation_sparsity(trace_with(3)).activation_sparsity
        assert not SPARSITY.violated(sparsity)
        assert SPARSITY.at(0.8).violated(sparsity)  # 0.75 < 0.8
