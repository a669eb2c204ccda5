import json
import math

import numpy as np
import pytest

from spikemeter.catalog import ALERT_RULES
from spikemeter.energy import (
    BatterySpec,
    EnergyBreakdown,
    HardwareSpec,
    HardwareSpecError,
    MembraneCountMode,
    MissingSpecError,
    average_power,
    energy_area_fom,
    energy_per_sop,
    estimate_energy,
    hardware_spec_from_dict,
    load_hardware_spec,
    power_density,
)
from spikemeter.workload import OpCounts, TraceCounts, memory_accesses

PJ = 1e-12

FIXTURE_SPEC = HardwareSpec(e_mac=4 * PJ, e_ac=1 * PJ, e_read=2 * PJ, e_write=2 * PJ)


def fixture_ops():
    return OpCounts(macs=0, acs=10, membrane_updates_effective=0, membrane_updates_dense=0)


class TestEstimateEnergy:
    def test_fixture_model_total_70_pj(self):
        ops = fixture_ops()
        mem = memory_accesses(ops)
        assert (mem.reads, mem.writes) == (20, 10)
        breakdown = estimate_energy(ops, mem, FIXTURE_SPEC, duration=1e-3)
        assert breakdown.model.synop_energy == pytest.approx(10 * PJ)
        assert breakdown.model.memory_energy == pytest.approx(60 * PJ)
        assert breakdown.model.model_total == pytest.approx(70 * PJ)
        assert breakdown.overhead.overhead_total == 0.0
        assert breakdown.total == pytest.approx(70 * PJ)

    def test_static_only(self):
        spec = HardwareSpec(static_power=1e-6)
        zero = OpCounts(0, 0, 0, 0)
        breakdown = estimate_energy(zero, memory_accesses(zero), spec, duration=1.0)
        assert breakdown.model.model_total == 0.0
        assert breakdown.overhead.static_energy == pytest.approx(1e-6)
        assert breakdown.total == pytest.approx(1e-6)

    def test_doubling_counts_doubles_model_total(self):
        ops = OpCounts(macs=3, acs=11, membrane_updates_effective=5, membrane_updates_dense=8)
        spec = HardwareSpec(e_mac=4 * PJ, e_ac=1 * PJ, e_read=2 * PJ, e_write=2 * PJ,
                            e_membrane_update=0.5 * PJ)
        one = estimate_energy(ops, memory_accesses(ops), spec, duration=1.0)
        two = estimate_energy(ops.scaled(2), memory_accesses(ops.scaled(2)), spec, duration=1.0)
        assert two.model.model_total == pytest.approx(2 * one.model.model_total, rel=1e-12)
        assert two.overhead.static_energy == one.overhead.static_energy

    def test_conservation_is_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            ops = OpCounts(
                macs=int(rng.integers(0, 10**6)),
                acs=int(rng.integers(0, 10**6)),
                membrane_updates_effective=int(rng.integers(0, 10**5)),
                membrane_updates_dense=10**5,
            )
            spec = HardwareSpec(
                e_mac=rng.uniform(0, 1e-11),
                e_ac=rng.uniform(0, 1e-11),
                e_read=rng.uniform(0, 1e-11),
                e_write=rng.uniform(0, 1e-11),
                e_membrane_update=rng.uniform(0, 1e-11),
                static_power=rng.uniform(0, 1e-5),
                adc_energy_per_sample=rng.uniform(0, 1e-9),
                adc_samples_per_inference=int(rng.integers(0, 100)),
                tx_energy_per_bit=rng.uniform(0, 1e-9),
                tx_bits_per_inference=int(rng.integers(0, 1000)),
            )
            b = estimate_energy(ops, memory_accesses(ops), spec, duration=rng.uniform(1e-4, 10))
            assert b.total == b.model.model_total + b.overhead.overhead_total
            assert b.model.model_total == (
                b.model.synop_energy + b.model.membrane_energy + b.model.memory_energy
            )
            assert b.overhead.overhead_total == (
                b.overhead.static_energy + b.overhead.adc_energy + b.overhead.tx_energy
            )

    def test_monotone_in_each_coefficient(self):
        ops = OpCounts(macs=5, acs=7, membrane_updates_effective=3, membrane_updates_dense=4)
        mem = memory_accesses(ops)
        base = estimate_energy(ops, mem, FIXTURE_SPEC, duration=1.0)
        for field in ("e_mac", "e_ac", "e_read", "e_write", "e_membrane_update", "static_power"):
            bumped_spec = HardwareSpec(
                **{
                    **{f: getattr(FIXTURE_SPEC, f) for f in (
                        "e_mac", "e_ac", "e_read", "e_write", "e_membrane_update",
                        "static_power",
                    )},
                    field: getattr(FIXTURE_SPEC, field) + 1e-12,
                }
            )
            bumped = estimate_energy(ops, mem, bumped_spec, duration=1.0)
            assert bumped.total >= base.total

    def test_membrane_mode_selects_count(self):
        ops = OpCounts(macs=0, acs=0, membrane_updates_effective=2, membrane_updates_dense=10)
        mem = memory_accesses(ops)
        eff = estimate_energy(ops, mem, HardwareSpec(e_membrane_update=PJ), 1.0)
        dense = estimate_energy(
            ops, mem,
            HardwareSpec(e_membrane_update=PJ, membrane_count_mode=MembraneCountMode.DENSE),
            1.0,
        )
        assert eff.model.membrane_energy == pytest.approx(2 * PJ)
        assert dense.model.membrane_energy == pytest.approx(10 * PJ)

    def test_layer_crossing_coefficient(self):
        ops = fixture_ops()
        spec = HardwareSpec(e_ac=1 * PJ, e_layer_crossing=2 * PJ)
        breakdown = estimate_energy(ops, memory_accesses(ops), spec, 1.0, crossings=4)
        assert breakdown.model.synop_energy == pytest.approx(10 * PJ + 8 * PJ)

    def test_bad_duration_rejected(self):
        ops = fixture_ops()
        with pytest.raises(ValueError):
            estimate_energy(ops, memory_accesses(ops), FIXTURE_SPEC, duration=0.0)
        with pytest.raises(ValueError):
            estimate_energy(ops, memory_accesses(ops), FIXTURE_SPEC, duration=math.inf)

    def test_negative_spec_value_rejected(self):
        with pytest.raises(HardwareSpecError):
            HardwareSpec(e_mac=-1.0)
        with pytest.raises(HardwareSpecError):
            HardwareSpec(static_power=math.nan)

    def test_power_density_limit_is_read_by_its_rule(self):
        assert HardwareSpec().power_density_rule == ALERT_RULES["power_density"]
        rule = HardwareSpec(power_density_limit=5).power_density_rule
        assert rule == ALERT_RULES["power_density"].at(5.0)
        assert HardwareSpec(power_density_limit=0).power_density_rule.threshold == 0.0
        for limit, problem in ((-1.0, "expected a number in [0, inf), got -1"),
                               (math.nan, "expected a finite number, got NaN")):
            with pytest.raises(HardwareSpecError) as refused:
                HardwareSpec(power_density_limit=limit)
            assert str(refused.value) == f"hardware spec field 'power_density_limit': {problem}"


class TestEnergyPerInference:
    def test_identity_on_fixture(self):
        ops = fixture_ops()
        b = estimate_energy(ops, memory_accesses(ops), FIXTURE_SPEC, 1e-3)
        assert b.total == pytest.approx(70 * PJ)

    def test_zero_breakdown(self):
        zero = OpCounts(0, 0, 0, 0)
        b = estimate_energy(zero, memory_accesses(zero), HardwareSpec(), 1.0)
        assert b.total == 0.0

    def test_model_only_variant_excludes_overhead(self):
        ops = fixture_ops()
        spec = HardwareSpec(
            e_mac=4 * PJ, e_ac=1 * PJ, e_read=2 * PJ, e_write=2 * PJ, static_power=1e-6
        )
        b = estimate_energy(ops, memory_accesses(ops), spec, duration=1.0)
        assert b.total == pytest.approx(1e-6 + 70 * PJ)
        assert b.model.model_total == pytest.approx(70 * PJ)


class TestEnergyPerLearning:
    def test_reuses_estimator(self):
        ops = fixture_ops()
        assert estimate_energy(
            ops, memory_accesses(ops), FIXTURE_SPEC, 1e-3
        ).total == pytest.approx(70 * PJ)

    def test_zero_counts_static_only(self):
        zero = OpCounts(0, 0, 0, 0)
        spec = HardwareSpec(static_power=2e-6)
        assert estimate_energy(
            zero, memory_accesses(zero), spec, 0.5
        ).total == pytest.approx(1e-6)

    def test_linear_in_counts(self):
        ops = fixture_ops()
        one = estimate_energy(ops, memory_accesses(ops), FIXTURE_SPEC, 1.0).total
        two = estimate_energy(
            ops.scaled(2), memory_accesses(ops.scaled(2)), FIXTURE_SPEC, 1.0
        ).total
        assert two == pytest.approx(2 * one, rel=1e-12)


class TestAveragePower:
    def test_one_microjoule_per_second(self):
        b = estimate_energy(
            OpCounts(0, 0, 0, 0), memory_accesses(OpCounts(0, 0, 0, 0)),
            HardwareSpec(static_power=1e-6), 1.0,
        )
        assert average_power(b) == pytest.approx(1e-6)

    def test_seventy_pj_over_ten_ms(self):
        ops = fixture_ops()
        b = estimate_energy(ops, memory_accesses(ops), FIXTURE_SPEC, 10e-3)
        assert average_power(b) == pytest.approx(7e-9)

    def test_doubling_duration_halves_static_power_contribution(self):
        spec = HardwareSpec(adc_energy_per_sample=1e-9, adc_samples_per_inference=10)
        zero = OpCounts(0, 0, 0, 0)
        p1 = average_power(estimate_energy(zero, memory_accesses(zero), spec, 1.0))
        p2 = average_power(estimate_energy(zero, memory_accesses(zero), spec, 2.0))
        assert p2 == pytest.approx(p1 / 2)


LIMIT = ALERT_RULES["power_density"]


class TestPowerDensity:
    def test_violation_case(self):
        spec = HardwareSpec(chip_area=0.25)
        density = power_density(5e-3, spec)
        assert density == pytest.approx(20.0)
        assert LIMIT.at(spec.power_density_limit).violated(density)

    def test_compliant_case(self):
        density = power_density(1e-3, HardwareSpec(chip_area=1.0))
        assert density == pytest.approx(1.0)
        assert not LIMIT.violated(density)

    def test_exactly_at_limit_is_compliant(self):
        density = power_density(0.01, HardwareSpec(chip_area=1.0))
        assert density == 10.0
        assert not LIMIT.violated(density)

    def test_missing_area_is_capability_error(self):
        with pytest.raises(MissingSpecError):
            power_density(1e-3, HardwareSpec())

    def test_verdict_invariant_under_joint_scaling(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            power = rng.uniform(1e-6, 1e-1)
            area = rng.uniform(0.01, 10.0)
            k = rng.uniform(0.1, 10.0)
            a = power_density(power, HardwareSpec(chip_area=area))
            b = power_density(power * k, HardwareSpec(chip_area=area * k))
            assert LIMIT.violated(a) == LIMIT.violated(b)


class TestEnergyPerSop:
    def make_trace(self, acs_per_t):
        T = len(acs_per_t)
        return TraceCounts(
            layer_sizes=(1, 1), timesteps=T, timestep_duration=1e-3,
            acs=list(acs_per_t), macs=[0] * T, leak_macs=[0] * T, membrane_updates=[0] * T,
            crossings=[0] * T, non_input_spikes=0,
        )

    def test_seven_pj_per_sop(self):
        ops = fixture_ops()
        b = estimate_energy(ops, memory_accesses(ops), FIXTURE_SPEC, 1e-3)
        trace = self.make_trace([10])
        result = energy_per_sop(b, ops, trace, FIXTURE_SPEC)
        assert result.average_pj_per_sop == pytest.approx(7.0)

    def test_uniform_activity_peak_equals_average(self):
        trace = self.make_trace([5, 5, 5, 5])
        ops = OpCounts(0, 20, 0, 0)
        b = estimate_energy(ops, memory_accesses(ops), FIXTURE_SPEC, trace.duration)
        result = energy_per_sop(b, ops, trace, FIXTURE_SPEC)
        avg_dynamic_power = b.model.model_total / trace.duration
        assert result.peak_window_power_w == pytest.approx(avg_dynamic_power, rel=1e-12)

    def test_concentrated_activity_peak_is_t_times_average(self):
        T = 8
        trace = self.make_trace([40] + [0] * (T - 1))
        ops = OpCounts(0, 40, 0, 0)
        b = estimate_energy(ops, memory_accesses(ops), FIXTURE_SPEC, trace.duration)
        result = energy_per_sop(b, ops, trace, FIXTURE_SPEC)
        avg_dynamic_power = b.model.model_total / trace.duration
        assert result.peak_window_power_w == pytest.approx(T * avg_dynamic_power, rel=1e-12)

    def test_zero_sops_rejected(self):
        zero = OpCounts(0, 0, 0, 0)
        b = estimate_energy(zero, memory_accesses(zero), FIXTURE_SPEC, 1e-3)
        with pytest.raises(ValueError):
            energy_per_sop(b, zero, self.make_trace([0]), FIXTURE_SPEC)


class TestEnergyAreaFom:
    def test_worked_example(self):
        spec = HardwareSpec(channels=100, chip_area=1.0, sampling_frequency=1000.0)
        result = energy_area_fom(1e-3, spec)
        assert result.value == pytest.approx(1e-8)
        assert result.formula == "(power / channels) * chip_area / sampling_frequency"

    def test_area_proportionality(self):
        a = energy_area_fom(
            1e-3, HardwareSpec(channels=10, chip_area=1.0, sampling_frequency=100.0)
        )
        b = energy_area_fom(
            1e-3, HardwareSpec(channels=10, chip_area=2.0, sampling_frequency=100.0)
        )
        assert b.value == pytest.approx(2 * a.value, rel=1e-12)

    def test_sampling_frequency_inverse(self):
        a = energy_area_fom(
            1e-3, HardwareSpec(channels=10, chip_area=1.0, sampling_frequency=100.0)
        )
        b = energy_area_fom(
            1e-3, HardwareSpec(channels=10, chip_area=1.0, sampling_frequency=200.0)
        )
        assert b.value == pytest.approx(a.value / 2, rel=1e-12)

    def test_missing_fields_listed(self):
        with pytest.raises(MissingSpecError, match="channels"):
            energy_area_fom(1e-3, HardwareSpec(chip_area=1.0, sampling_frequency=1.0))


class TestHardwareSpecFile:
    def test_load_demo_spec(self):
        from importlib import resources

        with resources.as_file(
            resources.files("spikemeter") / "data" / "demo_hwspec.json"
        ) as path:
            spec = load_hardware_spec(path)
        assert spec.e_mac == 4e-12
        assert spec.battery.usable_joules == pytest.approx(100 * 3.6 * 3.0 * 0.8)

    def test_unknown_key_rejected(self):
        with pytest.raises(HardwareSpecError,
                           match=r"hardware spec: unknown keys \['e_macc'\]"):
            hardware_spec_from_dict({"e_mac": 1e-12, "e_macc": 2e-12})

    def test_unknown_battery_key_rejected(self):
        with pytest.raises(HardwareSpecError,
                           match=r"hardware spec field 'battery': unknown keys \['volts'\]"):
            hardware_spec_from_dict({"battery": {"capacity_joules": 1.0, "volts": 3}})

    def test_incomplete_battery_rejected(self):
        with pytest.raises(HardwareSpecError):
            BatterySpec(capacity_mah=100.0)

    def test_usable_fraction_bounds(self):
        with pytest.raises(HardwareSpecError):
            BatterySpec(capacity_joules=1.0, usable_fraction=0.0)
        with pytest.raises(HardwareSpecError):
            BatterySpec(capacity_joules=1.0, usable_fraction=1.5)

    def test_bad_mode_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"membrane_count_mode": "sometimes"}))
        with pytest.raises(HardwareSpecError, match="membrane_count_mode"):
            load_hardware_spec(path)


class TestPeakWindowPricing:
    """The peak window is priced by the same formula as the total, under
    every membrane-count mode and leak-MAC policy."""

    # Per timestep: macs, leak_macs, acs, effective membrane updates.  Layer
    # sizes (2, 3, 1) give 4 non-input neurons (the dense update count), and
    # 3, 3 and 0 events cross a layer boundary.
    MACS, LEAK_MACS, ACS, UPDATES = (2, 5, 0), (1, 4, 0), (6, 1, 2), (3, 4, 1)
    SPEC = dict(e_mac=4 * PJ, e_ac=1 * PJ, e_read=2 * PJ, e_write=3 * PJ,
                e_membrane_update=5 * PJ, e_layer_crossing=7 * PJ)
    # Hand-priced window energies in pJ: synop + membrane + memory, e.g.
    # t0 effective with leak MACs = (2*4 + 6*1 + 3*7) + 3*5 + (18*2 + 8*3).
    WINDOWS_PJ = {
        ("effective", True): (110, 114, 21),
        ("dense", True): (115, 114, 36),
        ("effective", False): (101, 78, 21),
        ("dense", False): (106, 78, 36),
    }

    def make_trace(self):
        return TraceCounts(
            layer_sizes=(2, 3, 1), timesteps=3, timestep_duration=1e-3,
            acs=list(self.ACS), macs=list(self.MACS), leak_macs=list(self.LEAK_MACS),
            membrane_updates=list(self.UPDATES), crossings=[3, 3, 0], non_input_spikes=3,
        )

    @pytest.mark.parametrize("include_leak", [True, False])
    @pytest.mark.parametrize("mode", ["effective", "dense"])
    def test_peak_matches_hand_priced_windows(self, mode, include_leak):
        from spikemeter.workload import effective_synops

        trace = self.make_trace()
        spec = HardwareSpec(**self.SPEC, membrane_count_mode=MembraneCountMode(mode))
        ops = effective_synops(trace)
        mem = memory_accesses(ops, include_leak_macs=include_leak)
        b = estimate_energy(ops, mem, spec, trace.duration, crossings=sum(trace.crossings))
        result = energy_per_sop(b, ops, trace, spec, include_leak_macs=include_leak)
        windows = self.WINDOWS_PJ[(mode, include_leak)]
        assert result.peak_window_power_w == pytest.approx(
            max(windows) * PJ / trace.timestep_duration, rel=1e-12
        )
        assert b.model.model_total == pytest.approx(sum(windows) * PJ, rel=1e-12)
