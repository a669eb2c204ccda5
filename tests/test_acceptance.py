"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any assertion failure marks that criterion red.
"""

import json
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from spikemeter.catalog import ALERT_RULES, SourceTable, builtin_catalog, find_metric
from spikemeter.compare import (
    SECONDS_PER_YEAR,
    VersionMeasurement,
    accuracy_energy_tradeoff,
    estimated_battery_life,
    greenup,
    powerup,
    speedup,
)
from spikemeter.energy import BatterySpec, HardwareSpec, estimate_energy, power_density
from spikemeter.oracle import dense_oracle_counts
from spikemeter.simulate import SimulationConfig, run_inference
from spikemeter.store import (
    DuplicateVersionError,
    MetricSnapshot,
    evaluate_alerts,
    read_store,
    record_snapshot,
    trend_report,
)
from spikemeter.workload import OpCounts, activation_sparsity, memory_accesses

from conftest import child_env, random_model, random_train
from test_catalog import TABLE1, TABLE2

RERUNS = 1000


def ok(criterion: int, text: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS — {text}")


def test_criterion_1_catalog_fidelity():
    start = time.perf_counter()
    catalog = builtin_catalog()
    assert len(catalog) == 20
    assert sum(1 for d in catalog if d.source_table is SourceTable.TABLE1) == 13
    assert sum(1 for d in catalog if d.source_table is SourceTable.TABLE2) == 7
    mismatches = 0
    for name, acc, fid, act, trend in TABLE1:
        d = find_metric(name)
        if (d.accessibility, d.high_fidelity, d.actionability, d.trend_based) != (
            acc, fid, act, trend
        ):
            mismatches += 1
    for name, acc, fid, act, trend, starred, inherent in TABLE2:
        d = find_metric(name)
        if (
            d.accessibility, d.high_fidelity, d.actionability, d.trend_based,
            d.assumes_estimation, d.trend_inherent,
        ) != (acc, fid, act, trend, starred, inherent):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 1.0
    ok(1, f"20/20 rows match the expected property grid, 0 mismatches, "
          f"{elapsed * 1e3:.1f} ms")


def test_criterion_2_memory_access_derivation():
    rng = np.random.default_rng(202)
    for _ in range(RERUNS):
        macs = int(rng.integers(0, 10**9))
        acs = int(rng.integers(0, 10**9))
        ops = OpCounts(macs=macs, acs=acs, membrane_updates_effective=0,
                       membrane_updates_dense=0)
        mem = memory_accesses(ops)
        assert mem.reads == 3 * macs + 2 * acs
        assert mem.writes == macs + acs
    ok(2, f"{RERUNS} random op counts satisfy reads=3*MAC+2*AC, writes=MAC+AC exactly")


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    reset_modes = set()
    analog_cases = 0
    for case in range(RERUNS):
        model = random_model(rng, max_neurons=32)
        T = int(rng.integers(1, 65))
        train = random_train(rng, model.input_size, T)
        config = SimulationConfig(timesteps=T)
        event = run_inference(model, train, config)
        oracle = dense_oracle_counts(model, train, config)
        assert event.equals(oracle), f"case {case}: traces diverge"
        for layer in model.weighted_layers:
            reset_modes.add(layer.neuron.reset_mode)
        if not np.all((train.events == 0.0) | (train.events == 1.0)):
            analog_cases += 1
    elapsed = time.perf_counter() - start
    assert len(reset_modes) == 2, "both reset modes must be exercised"
    assert analog_cases > 0, "analog inputs must be exercised"
    assert elapsed < 60.0
    ok(3, f"{RERUNS} randomized models: event-driven and dense oracle traces "
          f"identical (both reset modes, {analog_cases} analog cases, {elapsed:.1f} s)")


def alerted(values: dict[str, float]) -> list[str]:
    """The metrics of the alert records the default rules give ``values``."""
    return [r["metric"] for r in evaluate_alerts(values) if r["record"] == "alert"]


def test_criterion_4_actionability_thresholds():
    # sparsity: strict below-0.60 rule
    assert alerted({"activation_sparsity": 0.59}) == ["activation_sparsity"]
    assert alerted({"activation_sparsity": 0.60}) == []
    # same boundary on the workload-level sparsity (2 spikes / 5 slots = 0.60)
    from test_workload import trace_with

    sparsity = ALERT_RULES["sparsity"]
    assert not sparsity.violated(
        activation_sparsity(trace_with(2, neurons=5, timesteps=1)).activation_sparsity)
    assert sparsity.violated(
        activation_sparsity(trace_with(41, neurons=10, timesteps=10)).activation_sparsity)

    # power density: strict above-10 rule, on the estimator's value and the alert engine
    spec = HardwareSpec(chip_area=1.0)
    limit = ALERT_RULES["power_density"].at(spec.power_density_limit)
    assert limit.violated(power_density(0.01001, spec))
    assert not limit.violated(power_density(0.01, spec))
    assert power_density(0.01, spec) == 10.0
    assert alerted({"power_density": 10.01}) == ["power_density"]
    assert alerted({"power_density": 10.0}) == []

    # battery life: >= 10 years passes
    exact = estimated_battery_life(
        1.0, HardwareSpec(battery=BatterySpec(capacity_joules=10.0 * SECONDS_PER_YEAR))
    )
    short = estimated_battery_life(
        1.0, HardwareSpec(battery=BatterySpec(capacity_joules=9.99 * SECONDS_PER_YEAR))
    )
    target = ALERT_RULES["battery_years"]
    assert exact == 10.0 and not target.violated(exact)
    assert target.violated(short)
    assert alerted({"estimated_battery_life": 9.99}) == ["estimated_battery_life"]
    assert alerted({"estimated_battery_life": 10.0}) == []
    ok(4, "sparsity 0.59/0.60, power density 10.01/10.00, battery 9.99/10.0 "
          "all behave exactly at the boundaries")


def test_criterion_5_tradeoff_scenario_reproduction():
    rng = np.random.default_rng(505)
    for _ in range(100):
        e = float(rng.uniform(1e-9, 10.0))
        v1 = VersionMeasurement("v1", e, 1.0, 0.7)
        v2 = VersionMeasurement("v2", 2.0 * e, 1.0, 0.8)
        report = accuracy_energy_tradeoff(v1, v2)
        assert report.efficiency_ratio_old == pytest.approx(0.7 / e, rel=1e-12)
        assert report.efficiency_ratio_new == pytest.approx(0.4 / e, rel=1e-12)
        assert report.marginal_energy_cost == pytest.approx(10.0 * e, rel=1e-12)
    ok(5, "efficiency ratios 0.7/E and 0.4/E and marginal cost 10E reproduced "
          "at 1e-12 for 100 random E")


def test_criterion_6_powerup_consistency():
    rng = np.random.default_rng(606)
    for _ in range(RERUNS):
        old = VersionMeasurement("old", float(rng.uniform(1e-9, 10.0)),
                                 float(rng.uniform(1e-6, 100.0)))
        new = VersionMeasurement("new", float(rng.uniform(1e-9, 10.0)),
                                 float(rng.uniform(1e-6, 100.0)))
        p = powerup(speedup(old, new), greenup(old, new))
        expected = (new.energy / new.time) / (old.energy / old.time)
        assert p == pytest.approx(expected, rel=1e-12)
        assert (p > 1.0) == (new.energy / new.time > old.energy / old.time)
    ok(6, f"{RERUNS} random pairs: powerup equals the average-power ratio at 1e-12 "
          "and powerup>1 iff the new version draws more power")


def test_criterion_7_energy_conservation_and_homogeneity():
    rng = np.random.default_rng(707)
    for _ in range(RERUNS):
        ops = OpCounts(
            macs=int(rng.integers(0, 10**6)),
            acs=int(rng.integers(0, 10**6)),
            membrane_updates_effective=int(rng.integers(0, 10**5)),
            membrane_updates_dense=int(rng.integers(10**5, 2 * 10**5)),
        )
        spec = HardwareSpec(
            e_mac=float(rng.uniform(0, 1e-11)),
            e_ac=float(rng.uniform(0, 1e-11)),
            e_read=float(rng.uniform(0, 1e-11)),
            e_write=float(rng.uniform(0, 1e-11)),
            e_membrane_update=float(rng.uniform(0, 1e-11)),
            static_power=float(rng.uniform(0, 1e-5)),
            adc_energy_per_sample=float(rng.uniform(0, 1e-9)),
            adc_samples_per_inference=int(rng.integers(0, 100)),
            tx_energy_per_bit=float(rng.uniform(0, 1e-9)),
            tx_bits_per_inference=int(rng.integers(0, 1000)),
        )
        duration = float(rng.uniform(1e-4, 10.0))
        base = estimate_energy(ops, memory_accesses(ops), spec, duration)
        assert base.total == base.model.model_total + base.overhead.overhead_total
        for k in (2, 10):
            scaled = estimate_energy(
                ops.scaled(k), memory_accesses(ops.scaled(k)), spec, duration
            )
            if base.model.model_total > 0:
                assert scaled.model.model_total == pytest.approx(
                    k * base.model.model_total, rel=1e-12
                )
            else:
                assert scaled.model.model_total == 0.0
            assert scaled.overhead.static_energy == base.overhead.static_energy
    ok(7, f"{RERUNS} random spec/count pairs conserve totals exactly; scaling by "
          "2 and 10 scales model energy at 1e-12 with static energy untouched")


def _pipeline(workdir: Path) -> dict[str, bytes]:
    def demo(name: str) -> str:
        return str(resources.files("spikemeter") / "data" / name)

    outputs = {}

    def run(name, args, expect=0):
        result = subprocess.run(
            [sys.executable, "-m", "spikemeter", *args],
            capture_output=True, cwd=workdir, env=child_env(),
        )
        assert result.returncode == expect, result.stderr.decode()
        outputs[name] = result.stdout

    trace = workdir / "trace.json"
    store = workdir / "store.jsonl"
    run("simulate", ["simulate", "--model", demo("demo_model.json"),
                     "--workload", demo("demo_workload.json"), "--seed", "42",
                     "--trace-out", str(trace), "--format", "jsonl"])
    run("estimate", ["estimate", "--trace", str(trace),
                     "--hwspec", demo("demo_hwspec.json"), "--store", str(store),
                     "--record", "--version", "v1", "--format", "jsonl"])
    run("report", ["report", "--store", str(store), "--model", "demo",
                   "--format", "jsonl"], expect=4)  # demo battery misses 10 years
    outputs["trace"] = trace.read_bytes()
    return outputs


def test_criterion_8_pipeline_determinism(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    a = _pipeline(dir_a)
    b = _pipeline(dir_b)
    for key in ("simulate", "estimate", "report", "trace"):
        assert a[key] == b[key], f"{key} differs between runs"
    ok(8, "two full simulate->estimate->report runs produced byte-identical "
          "machine-format outputs")


def test_criterion_9_trend_store_round_trip(tmp_path):
    store = tmp_path / "store.jsonl"
    rng = np.random.default_rng(909)
    expected = {}
    models = ("alpha", "beta", "gamma")
    for i in range(100):
        model = models[i % 3]
        version = f"v{i // 3}"
        values = {
            "effective_synops": float(rng.integers(1, 10**6)),
            "activation_sparsity": float(rng.uniform(0, 1)),
            "energy_per_inference": float(rng.uniform(1e-12, 1e-3)),
        }
        snapshot = MetricSnapshot(
            model_name=model, version=version, values=values,
            timestamp=float(1_700_000_000 + i), accuracy=float(rng.uniform(0, 1)),
        )
        record_snapshot(store, snapshot)
        expected[(model, version)] = snapshot
    data = read_store(store)
    recovered = 0
    for (model, version), snapshot in expected.items():
        record = next(r for r in data.history(model) if r.version == version)
        assert record.timestamp == snapshot.timestamp
        assert record.accuracy == snapshot.accuracy
        for key, value in snapshot.values.items():
            assert record.values[key] == {"computed": value} or list(
                record.values[key].values()
            ) == [value]
        recovered += 1
    assert recovered == 100

    with pytest.raises(DuplicateVersionError):
        record_snapshot(
            store,
            MetricSnapshot(model_name="alpha", version="v0",
                           values={"effective_synops": 1.0}, timestamp=1.0),
        )

    trend_store = tmp_path / "trend.jsonl"
    for i, value in enumerate([100.0, 140.0, 200.0]):
        record_snapshot(
            trend_store,
            MetricSnapshot(model_name="m", version=f"v{i}",
                           values={"effective_synops": value}, timestamp=float(i)),
        )
    trend = trend_report(read_store(trend_store), "m", "effective_synops")
    assert trend["direction"] == "degrading"
    ok(9, "100 snapshots across 3 models recovered losslessly, duplicate "
          "version rejected, rising effective_synops reads as degrading")
