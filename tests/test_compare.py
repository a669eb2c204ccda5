import numpy as np
import pytest

from spikemeter.catalog import ALERT_RULES
from spikemeter.compare import (
    SECONDS_PER_YEAR,
    VersionMeasurement,
    accuracy_energy_tradeoff,
    efficiency_ratio,
    energy_delay_product,
    estimated_battery_life,
    greenup,
    inferences_per_battery_cycle,
    powerup,
    speedup,
)
from spikemeter.energy import BatterySpec, HardwareSpec, MissingSpecError


def measure(version, energy, time, accuracy=None):
    return VersionMeasurement(version, energy, time, accuracy)


class TestEnergyDelayProduct:
    def test_worked_example(self):
        assert energy_delay_product(70e-12, 10e-3) == pytest.approx(7e-13)

    def test_zero_energy(self):
        assert energy_delay_product(0.0, 3.0) == 0.0

    def test_bilinear(self):
        base = energy_delay_product(2.0, 3.0)
        assert energy_delay_product(4.0, 3.0) == pytest.approx(2 * base)
        assert energy_delay_product(2.0, 6.0) == pytest.approx(2 * base)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            energy_delay_product(-1.0, 1.0)


class TestSpeedupGreenup:
    def test_speedup_two(self):
        assert speedup(measure("a", 1, 1.0), measure("b", 1, 0.5)) == 2.0

    def test_identical_times(self):
        assert speedup(measure("a", 1, 0.7), measure("b", 1, 0.7)) == 1.0

    def test_reciprocity(self):
        a, b = measure("a", 2.0, 1.5), measure("b", 3.0, 0.5)
        assert speedup(a, b) * speedup(b, a) == pytest.approx(1.0, rel=1e-12)
        assert greenup(a, b) * greenup(b, a) == pytest.approx(1.0, rel=1e-12)

    def test_greenup_examples(self):
        assert greenup(measure("a", 2.0, 1), measure("b", 1.0, 1)) == 2.0
        assert greenup(measure("a", 1.0, 1), measure("b", 1.0, 1)) == 1.0
        assert greenup(measure("a", 1.0, 1), measure("b", 2.0, 1)) == 0.5

    def test_as_published_orientation_flips(self):
        a, b = measure("a", 2.0, 1.0), measure("b", 1.0, 0.5)
        assert speedup(a, b, as_published=True) == pytest.approx(1 / speedup(a, b))
        assert greenup(a, b, as_published=True) == pytest.approx(1 / greenup(a, b))


class TestPowerup:
    def test_energy_doubled_same_time_means_more_power(self):
        old = measure("a", 1.0, 2.0)
        new = measure("b", 2.0, 2.0)
        s, g = speedup(old, new), greenup(old, new)
        assert (s, g) == (1.0, 0.5)
        assert powerup(s, g) == 2.0

    def test_balanced_improvement_keeps_power(self):
        assert powerup(2.0, 2.0) == 1.0

    def test_greener_than_fast_means_less_power(self):
        assert powerup(2.0, 4.0) == 0.5

    def test_equals_average_power_ratio(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            old = measure("a", rng.uniform(1e-9, 10.0), rng.uniform(1e-6, 100.0))
            new = measure("b", rng.uniform(1e-9, 10.0), rng.uniform(1e-6, 100.0))
            p = powerup(speedup(old, new), greenup(old, new))
            expected = (new.energy / new.time) / (old.energy / old.time)
            assert p == pytest.approx(expected, rel=1e-12)
            assert (p > 1.0) == (new.energy / new.time > old.energy / old.time)

    def test_identical_measurements_one_everywhere(self):
        a = measure("a", 1.5, 2.5)
        b = measure("b", 1.5, 2.5)
        assert speedup(a, b) == 1.0
        assert greenup(a, b) == 1.0
        assert powerup(1.0, 1.0) == 1.0


class TestEfficiencyRatio:
    def test_v1_scenario(self):
        assert efficiency_ratio(measure("v1", 1e-3, 1.0, 0.7)) == pytest.approx(700.0)

    def test_v2_scenario(self):
        assert efficiency_ratio(measure("v2", 2e-3, 1.0, 0.8)) == pytest.approx(400.0)

    def test_zero_accuracy(self):
        assert efficiency_ratio(measure("v", 1e-3, 1.0, 0.0)) == 0.0

    def test_missing_accuracy_rejected(self):
        with pytest.raises(ValueError, match="accuracy"):
            efficiency_ratio(measure("v", 1e-3, 1.0))


class TestTradeoff:
    def test_worked_tradeoff_scenario(self):
        old = measure("v1", 1e-3, 1.0, 0.7)
        new = measure("v2", 2e-3, 1.0, 0.8)
        report = accuracy_energy_tradeoff(old, new)
        assert report.efficiency_ratio_old == pytest.approx(700.0)
        assert report.efficiency_ratio_new == pytest.approx(400.0)
        # 1 mJ extra for 0.1 accuracy -> 10 mJ per accuracy point
        assert report.marginal_energy_cost == pytest.approx(10e-3, rel=1e-12)
        assert not report.accuracy_regressed
        assert not report.accuracy_unchanged

    def test_identical_measurements_flag_unchanged(self):
        m = measure("v", 1e-3, 1.0, 0.7)
        report = accuracy_energy_tradeoff(m, m)
        assert report.accuracy_unchanged
        assert report.marginal_energy_cost is None

    def test_regression_flagged_without_division(self):
        old = measure("v1", 2e-3, 1.0, 0.8)
        new = measure("v2", 1e-3, 1.0, 0.7)
        report = accuracy_energy_tradeoff(old, new)
        assert report.accuracy_regressed
        assert report.marginal_energy_cost is None
        assert report.efficiency_ratio_old == pytest.approx(400.0)
        assert report.efficiency_ratio_new == pytest.approx(700.0)


def battery_spec(joules, fraction=1.0, static=0.0):
    return HardwareSpec(
        static_power=static,
        battery=BatterySpec(capacity_joules=joules, usable_fraction=fraction),
    )


TARGET = ALERT_RULES["battery_years"]


class TestBatteryLife:
    def test_worked_example_38_years(self):
        years = estimated_battery_life(3e-6, battery_spec(3600.0))
        assert years * SECONDS_PER_YEAR == pytest.approx(1.2e9)
        assert years == pytest.approx(38.0, abs=0.05)
        assert not TARGET.violated(years)

    def test_doubling_power_halves_life(self):
        a = estimated_battery_life(3e-6, battery_spec(3600.0))
        b = estimated_battery_life(6e-6, battery_spec(3600.0))
        assert b == pytest.approx(a / 2, rel=1e-12)

    def test_twenty_microwatt_misses_target(self):
        years = estimated_battery_life(20e-6, battery_spec(3600.0))
        assert years == pytest.approx(5.7, abs=0.01)
        assert TARGET.violated(years)

    def test_life_times_power_equals_capacity(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            joules = rng.uniform(1.0, 1e5)
            power = rng.uniform(1e-9, 1e-2)
            years = estimated_battery_life(power, battery_spec(joules))
            assert years * SECONDS_PER_YEAR * power == pytest.approx(joules, rel=1e-12)

    def test_exactly_ten_years_passes(self):
        capacity = 10.0 * SECONDS_PER_YEAR  # joules at 1 W
        years = estimated_battery_life(1.0, battery_spec(capacity))
        assert years == 10.0
        assert not TARGET.violated(years)

    def test_just_under_ten_years_fails(self):
        capacity = 9.99 * SECONDS_PER_YEAR
        years = estimated_battery_life(1.0, battery_spec(capacity))
        assert TARGET.violated(years)

    def test_missing_battery_is_capability_error(self):
        with pytest.raises(MissingSpecError):
            estimated_battery_life(1e-6, HardwareSpec())

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            estimated_battery_life(0.0, battery_spec(3600.0))


class TestInferencesPerCycle:
    def test_worked_example(self):
        result = inferences_per_battery_cycle(1e-6, battery_spec(3600.0))
        assert result.idealized == 3_600_000_000

    def test_static_drain_strictly_reduces_budget(self):
        spec = battery_spec(3600.0, static=1e-6)
        idealized = inferences_per_battery_cycle(1e-6, spec)
        duty = inferences_per_battery_cycle(1e-6, spec, inference_rate_hz=10.0)
        assert duty.duty_cycled is not None
        assert duty.duty_cycled < idealized.idealized

    def test_zero_capacity_zero_inferences(self):
        assert inferences_per_battery_cycle(1e-6, battery_spec(0.0)).idealized == 0

    def test_zero_inference_energy_rejected(self):
        with pytest.raises(ValueError):
            inferences_per_battery_cycle(0.0, battery_spec(3600.0))

    def test_budget_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            inferences_per_battery_cycle(1e-320, battery_spec(3600.0))
        with pytest.raises(ValueError, match="overflows"):
            inferences_per_battery_cycle(1e-6, HardwareSpec(battery=BatterySpec(
                capacity_mah=100.0, nominal_voltage=1e308)))

    def test_usable_fraction_applies(self):
        full = inferences_per_battery_cycle(1e-6, battery_spec(100.0))
        half = inferences_per_battery_cycle(1e-6, battery_spec(100.0, fraction=0.5))
        assert half.idealized == full.idealized // 2

    def test_mah_conversion(self):
        spec = HardwareSpec(
            battery=BatterySpec(capacity_mah=100.0, nominal_voltage=3.0)
        )
        # 100 mAh * 3.6 C/mAh * 3 V = 1080 J
        assert spec.battery.usable_joules == pytest.approx(1080.0)
