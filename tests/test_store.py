import json

import pytest

from spikemeter.store import (
    Direction,
    DuplicateVersionError,
    InsufficientHistoryError,
    MetricSnapshot,
    StoreError,
    UnknownMetricError,
    default_alert_rules,
    evaluate_alerts,
    read_store,
    record_external_metric,
    record_snapshot,
    register_metric,
    trend_report,
)


def snap(version, values, model="m", accuracy=None, ts=None):
    return MetricSnapshot(
        model_name=model,
        version=version,
        values=values,
        accuracy=accuracy,
        timestamp=ts if ts is not None else 1000.0,
    )


class TestRecordSnapshot:
    def test_first_snapshot_lands(self, tmp_path):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"effective_synops": 100.0}))
        data = read_store(store)
        assert len(data.history("m")) == 1

    def test_duplicate_version_rejected(self, tmp_path):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"effective_synops": 100.0}))
        with pytest.raises(DuplicateVersionError):
            record_snapshot(store, snap("v1", {"effective_synops": 120.0}))

    def test_two_versions_in_order(self, tmp_path):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"effective_synops": 100.0}))
        record_snapshot(store, snap("v2", {"effective_synops": 120.0}))
        history = read_store(store).history("m")
        assert [r.version for r in history] == ["v1", "v2"]

    def test_unknown_metric_rejected(self, tmp_path):
        store = tmp_path / "s.jsonl"
        with pytest.raises(UnknownMetricError):
            record_snapshot(store, snap("v1", {"made_up": 1.0}))

    def test_registered_custom_metric_accepted(self, tmp_path):
        store = tmp_path / "s.jsonl"
        register_metric(store, "fpga_lut_count", unit="LUTs")
        record_snapshot(store, snap("v1", {"fpga_lut_count": 4200.0}))
        record = read_store(store).history("m")[0]
        assert record.values["fpga_lut_count"] == {"ingested": 4200.0}

    def test_round_trip_is_lossless(self, tmp_path):
        store = tmp_path / "s.jsonl"
        values = {"effective_synops": 123.0, "activation_sparsity": 0.7321}
        record_snapshot(store, snap("v1", values, accuracy=0.91, ts=1234.5))
        record = read_store(store).history("m")[0]
        assert record.timestamp == 1234.5
        assert record.accuracy == 0.91
        assert record.values["effective_synops"] == {"computed": 123.0}
        assert record.values["activation_sparsity"] == {"computed": 0.7321}

    def test_append_only_prefix_preserved(self, tmp_path):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"effective_synops": 1.0}))
        before = store.read_bytes()
        record_snapshot(store, snap("v2", {"effective_synops": 2.0}))
        record_external_metric(store, "m", "v2", "training_time", 3600.0)
        after = store.read_bytes()
        assert after.startswith(before)

    def test_truncated_final_line_skipped(self, tmp_path):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"effective_synops": 1.0}))
        with open(store, "a") as f:
            f.write('{"kind": "snapshot", "model": "m", "ver')  # interrupted write
        data = read_store(store)
        assert len(data.history("m")) == 1


class TestExternalMetrics:
    def test_ingest_training_time(self, tmp_path):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"effective_synops": 1.0}))
        record_external_metric(store, "m", "v1", "training_time", 3600.0)
        record = read_store(store).history("m")[0]
        assert record.values["training_time"] == {"ingested": 3600.0}

    def test_measured_energy_coexists_with_estimate(self, tmp_path):
        store = tmp_path / "s.jsonl"
        record_snapshot(
            store,
            MetricSnapshot(
                model_name="m",
                version="v1",
                values={"energy_per_inference": 7e-8},
                provenance={"energy_per_inference": "estimated"},
                timestamp=1.0,
            ),
        )
        record_external_metric(store, "m", "v1", "energy_per_inference", 9e-8)
        record = read_store(store).history("m")[0]
        assert record.values["energy_per_inference"] == {
            "estimated": 7e-8,
            "ingested": 9e-8,
        }

    def test_unregistered_name_rejected(self, tmp_path):
        store = tmp_path / "s.jsonl"
        with pytest.raises(UnknownMetricError):
            record_external_metric(store, "m", "v1", "mystery", 1.0)


class TestTrendReport:
    def test_increasing_synops_degrades(self, tmp_path):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"effective_synops": 100.0}))
        record_snapshot(store, snap("v2", {"effective_synops": 120.0}))
        trend = trend_report(store, "m", "effective_synops")
        assert trend.series == (("v1", 100.0), ("v2", 120.0))
        assert trend.deltas[0].absolute == 20.0
        assert trend.deltas[0].percent == pytest.approx(20.0)
        assert trend.direction is Direction.DEGRADING

    def test_constant_series_flat(self, tmp_path):
        store = tmp_path / "s.jsonl"
        for v in ("v1", "v2", "v3"):
            record_snapshot(store, snap(v, {"effective_synops": 50.0}))
        assert trend_report(store, "m", "effective_synops").direction is Direction.FLAT

    def test_rising_sparsity_improves(self, tmp_path):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"activation_sparsity": 0.55}))
        record_snapshot(store, snap("v2", {"activation_sparsity": 0.70}))
        assert trend_report(store, "m", "activation_sparsity").direction is Direction.IMPROVING

    def test_insufficient_history(self, tmp_path):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"effective_synops": 100.0}))
        with pytest.raises(InsufficientHistoryError):
            trend_report(store, "m", "effective_synops")

    def test_reversed_series_flips_direction(self, tmp_path):
        up = tmp_path / "up.jsonl"
        down = tmp_path / "down.jsonl"
        series = [10.0, 15.0, 30.0]
        for i, value in enumerate(series):
            record_snapshot(up, snap(f"v{i}", {"effective_synops": value}))
        for i, value in enumerate(reversed(series)):
            record_snapshot(down, snap(f"v{i}", {"effective_synops": value}))
        a = trend_report(up, "m", "effective_synops").direction
        b = trend_report(down, "m", "effective_synops").direction
        assert {a, b} == {Direction.DEGRADING, Direction.IMPROVING}

    def test_lookup_by_display_name(self, tmp_path):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"effective_synops": 100.0}))
        record_snapshot(store, snap("v2", {"effective_synops": 90.0}))
        trend = trend_report(store, "m", "Effective Synaptic Operations")
        assert trend.metric == "effective_synops"
        assert trend.direction is Direction.IMPROVING

    def test_provenance_filter(self, tmp_path):
        store = tmp_path / "s.jsonl"
        for v, est in (("v1", 1.0), ("v2", 2.0)):
            record_snapshot(
                store,
                MetricSnapshot(
                    model_name="m", version=v, timestamp=1.0,
                    values={"energy_per_inference": est},
                    provenance={"energy_per_inference": "estimated"},
                ),
            )
        record_external_metric(store, "m", "v1", "energy_per_inference", 4.0)
        record_external_metric(store, "m", "v2", "energy_per_inference", 3.0)
        estimated = trend_report(store, "m", "energy_per_inference")
        assert [x for _, x in estimated.series] == [1.0, 2.0]  # catalog class preferred
        ingested = trend_report(store, "m", "energy_per_inference", provenance="ingested")
        assert [x for _, x in ingested.series] == [4.0, 3.0]


class TestAlerts:
    def test_low_sparsity_alerts(self):
        report = evaluate_alerts(snap("v1", {"activation_sparsity": 0.55}))
        assert [a.metric for a in report.alerts] == ["activation_sparsity"]
        assert "sparsity" in report.alerts[0].rationale

    def test_power_density_violation(self):
        report = evaluate_alerts(snap("v1", {"power_density": 20.0}))
        assert [a.metric for a in report.alerts] == ["power_density"]
        assert report.alerts[0].threshold == 10.0

    def test_healthy_battery_life_no_alert(self):
        report = evaluate_alerts(snap("v1", {"estimated_battery_life": 38.0}))
        assert report.alerts == ()

    def test_boundaries_are_strict(self):
        values = {
            "activation_sparsity": 0.60,
            "power_density": 10.0,
            "estimated_battery_life": 10.0,
        }
        assert evaluate_alerts(snap("v1", values)).alerts == ()
        values = {
            "activation_sparsity": 0.59,
            "power_density": 10.01,
            "estimated_battery_life": 9.99,
        }
        assert len(evaluate_alerts(snap("v1", values)).alerts) == 3

    def test_missing_metrics_skip_rules(self):
        report = evaluate_alerts(snap("v1", {"activation_sparsity": 0.9}))
        assert report.alerts == ()
        assert set(report.skipped) == {"power_density", "estimated_battery_life"}

    def test_overridden_limits(self):
        rules = default_alert_rules(
            sparsity_threshold=0.9, power_density_limit=5.0, battery_target_years=20.0
        )
        report = evaluate_alerts(
            snap("v1", {
                "activation_sparsity": 0.85,
                "power_density": 6.0,
                "estimated_battery_life": 15.0,
            }),
            rules,
        )
        assert len(report.alerts) == 3


def test_store_file_is_one_json_object_per_line(tmp_path):
    store = tmp_path / "s.jsonl"
    record_snapshot(store, snap("v1", {"effective_synops": 1.0}))
    record_external_metric(store, "m", "v1", "training_time", 10.0)
    for line in store.read_text().splitlines():
        record = json.loads(line)
        assert record["kind"] in {"snapshot", "ingest", "register"}


class TestMalformedStoreLines:
    """A record that lacks a required field names its line instead of
    surfacing as a KeyError."""

    @pytest.mark.parametrize(
        "record, field",
        [
            ({"kind": "snapshot", "version": "v2", "timestamp": 1.0, "values": {}}, "model"),
            ({"kind": "ingest", "model": "m", "version": "v1", "timestamp": 1.0,
              "metric": "effective_synops", "provenance": "ingested"}, "value"),
            ({"kind": "register", "unit": "s"}, "name"),
        ],
        ids=["snapshot", "ingest", "register"],
    )
    def test_missing_field_names_the_line(self, tmp_path, record, field):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"effective_synops": 100.0}))
        with open(store, "a") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(StoreError, match=f"store line 2: .*'{field}'"):
            read_store(store)

    def test_malformed_values_names_the_line(self, tmp_path):
        store = tmp_path / "s.jsonl"
        store.write_text(json.dumps(
            {"kind": "snapshot", "model": "m", "version": "v1", "timestamp": 1.0, "values": []}
        ) + "\n")
        with pytest.raises(StoreError, match="store line 1: malformed snapshot record"):
            read_store(store)
