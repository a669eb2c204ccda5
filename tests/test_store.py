import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hs

from spikemeter import cli
from spikemeter.catalog import (ALERT_RULES, CLASS_TAGS, RECORDED_QUANTITIES, Polarity,
                                Provenance, default_tag, find_metric)
from spikemeter.fields import FieldError, number
from spikemeter.store import (
    CustomMetric,
    DuplicateVersionError,
    InsufficientHistoryError,
    MetricSnapshot,
    StoreError,
    UnknownMetricError,
    evaluate_alerts,
    read_store,
    record_external_metric,
    record_snapshot,
    register_metric,
    trend_report,
    _check_value,
)

from conftest import child_env


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

    def test_registered_in_the_same_append(self, tmp_path):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"lut_count": 4200.0, "effective_synops": 1.0}),
                        register=[CustomMetric("lut_count", unit="LUTs"),
                                  CustomMetric("effective_synops")])
        kinds = [json.loads(line)["kind"] for line in store.read_text().splitlines()]
        assert kinds == ["register", "snapshot"]  # a built-in needs no registration
        assert read_store(store).registered["lut_count"].unit == "LUTs"
        # an identical registration already on file appends nothing
        record_snapshot(store, snap("v2", {"lut_count": 4100.0}),
                        register=[CustomMetric("lut_count", unit="LUTs")])
        kinds = [json.loads(line)["kind"] for line in store.read_text().splitlines()]
        assert kinds == ["register", "snapshot", "snapshot"]

    @pytest.mark.parametrize("version, values, error", [
        ("v1", {"lut_count": 1.0}, DuplicateVersionError),
        ("v2", {"lut_count": 1.0, "made_up": 1.0}, UnknownMetricError),
    ], ids=["duplicate-version", "unregistered-metric"])
    def test_rejected_snapshot_appends_nothing(self, tmp_path, version, values, error):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"effective_synops": 1.0}))
        before = store.read_bytes()
        with pytest.raises(error):
            record_snapshot(store, snap(version, values),
                            register=[CustomMetric("lut_count", unit="LUTs")])
        assert store.read_bytes() == before

    @pytest.mark.parametrize("write", [
        lambda store: record_snapshot(store, snap("v1", {"made_up": 1.0})),
        lambda store: record_external_metric(store, "m", "v1", "made_up", 1.0),
    ], ids=["snapshot", "ingest"])
    def test_rejected_write_creates_no_store_file(self, tmp_path, write):
        store = tmp_path / "s.jsonl"
        with pytest.raises(UnknownMetricError):
            write(store)
        assert not store.exists()

    @pytest.mark.parametrize("write, message", [
        (lambda store: register_metric(store, "lut", unit=[1, 2]),
         "register record field 'unit': expected a string, got list"),
        (lambda store: record_snapshot(store, snap("v1", {"lut": 1.0}),
                                       register=[CustomMetric("lut", description=3)]),
         "register record field 'description': expected a string, got 3"),
        (lambda store: record_snapshot(store, MetricSnapshot("m", "v1", {}, notes=7)),
         "snapshot record field 'notes': expected a string, got 7"),
        (lambda store: record_external_metric(store, "m", "v1", "effective_synops", 1.0,
                                              notes=None),
         "ingest record field 'notes': expected a string, got null"),
        (lambda store: record_snapshot(store, MetricSnapshot(["m"], "v1", {})),
         "snapshot record field 'model': expected a string, got list"),
        (lambda store: record_snapshot(store, MetricSnapshot("m", 3, {})),
         "snapshot record field 'version': expected a string, got 3"),
        (lambda store: record_external_metric(store, "m", 3, "effective_synops", 1.0),
         "ingest record field 'version': expected a string, got 3"),
        (lambda store: record_external_metric(store, "m", "v1", 5, 1.0),
         "ingest record field 'metric': expected a string, got 5"),
        (lambda store: record_external_metric(store, "m", "", "effective_synops", 1.0),
         "ingest record needs a model name and a version"),
        (lambda store: record_snapshot(store, MetricSnapshot("m", "", {})),
         "snapshot record needs a model name and a version"),
        (lambda store: record_snapshot(store, snap("v1", {}, ts=float("nan"))),
         "snapshot record field 'timestamp': expected a finite number, got NaN"),
        (lambda store: record_external_metric(store, "m", "v1", "effective_synops", 1.0,
                                              timestamp=float("inf")),
         "ingest record field 'timestamp': expected a finite number, got Infinity"),
    ], ids=["register-unit", "register-description", "snapshot-notes", "ingest-notes",
            "snapshot-model", "snapshot-version", "ingest-version", "ingest-metric",
            "ingest-version-empty", "snapshot-version-empty", "snapshot-timestamp-nan",
            "ingest-timestamp-inf"])
    def test_text_fields_are_strings_on_write(self, tmp_path, write, message):
        store = tmp_path / "s.jsonl"
        with pytest.raises(StoreError, match=f"^{re.escape(message)}$"):
            write(store)
        assert not store.exists()

    def test_first_write_registers_from_a_generator(self, tmp_path):
        # on a new path the checks run twice; a one-shot iterable must survive it
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"lut_count": 1.0}),
                        register=(CustomMetric(name, unit="LUTs") for name in ["lut_count"]))
        assert read_store(store).registered["lut_count"].unit == "LUTs"

    def test_registered_metric_keeps_its_registration(self, tmp_path):
        store = tmp_path / "s.jsonl"
        register_metric(store, "lut_count", unit="LUTs")
        before = store.read_text()
        record_snapshot(store, snap("v1", {"lut_count": 1.0}),
                        register=[CustomMetric("lut_count", unit="count")])
        appended = [json.loads(line) for line in store.read_text()[len(before):].splitlines()]
        assert [line["kind"] for line in appended] == ["snapshot"]
        assert read_store(store).registered["lut_count"].unit == "LUTs"
        # an explicit registration still replaces it
        register_metric(store, "lut_count", unit="kLUTs")
        assert read_store(store).registered["lut_count"].unit == "kLUTs"

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

    def test_append_after_an_interrupted_write(self, tmp_path):
        """The writer cuts the line the reader skips, so the next record
        starts a line of its own."""
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"effective_synops": 1.0}))
        first = store.read_bytes()
        with open(store, "a") as f:
            f.write('{"kind": "snapshot", "ver')  # interrupted write
        record_snapshot(store, snap("v2", {"effective_synops": 2.0}))
        assert [s.version for s in read_store(store).history("m")] == ["v1", "v2"]
        lines = store.read_bytes().split(b"\n")
        assert lines[0] + b"\n" == first and len(lines) == 3 and lines[2] == b""
        assert json.loads(lines[1])["version"] == "v2"

    @staticmethod
    def line(version: str, notes: str = "") -> str:
        """A snapshot line as an encoder run with ``ensure_ascii=False`` writes it."""
        return json.dumps({"kind": "snapshot", "model": "m", "version": version, "timestamp": 1.0,
                           "values": {"effective_synops": 1.0}, "provenance": {},
                           "notes": notes}, ensure_ascii=False)

    @pytest.mark.parametrize("char", ["\u0085", "\u2028", "\u2029"])
    def test_raw_line_separator_in_a_string_is_read(self, tmp_path, char):
        """Only "\\n" ends a line, so a record holding another Unicode line
        break reads, and the next line keeps the number ``wc -l`` gives it."""
        store = tmp_path / "s.jsonl"
        store.write_bytes((self.line("v1", f"a{char}b") + "\n").encode())
        assert read_store(store).history("m")[0].notes == f"a{char}b"
        store.write_bytes((self.line("v1", f"a{char}b") + "\n{\n").encode())
        with pytest.raises(StoreError, match="^store line 2 is not valid JSON"):
            read_store(store)

    def test_crlf_line_ends_are_read(self, tmp_path):
        store = tmp_path / "s.jsonl"
        store.write_bytes((self.line("v1") + "\r\n" + self.line("v2") + "\r\n").encode())
        assert [s.version for s in read_store(store).history("m")] == ["v1", "v2"]

    def test_lone_carriage_return_separates_no_records(self, tmp_path):
        store = tmp_path / "s.jsonl"
        store.write_bytes((self.line("v1") + "\r" + self.line("v2") + "\n").encode())
        with pytest.raises(StoreError, match="^store line 1 is not valid JSON: Extra data"):
            read_store(store)


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

    @pytest.mark.parametrize("provenance", ["ingested", "estimated"])
    def test_value_of_one_provenance_is_never_replaced(self, tmp_path, provenance):
        """A version's metric holds one value per provenance, whether the
        snapshot or an earlier ingest wrote it: a second is refused on write,
        leaving the store byte-identical, and on read, naming the line."""
        store = tmp_path / "s.jsonl"
        record_snapshot(store, MetricSnapshot(
            model_name="m", version="v1", timestamp=1.0,
            values={"energy_per_inference": 7e-8},
            provenance={"energy_per_inference": "estimated"},
        ))
        record_external_metric(store, "m", "v1", "energy_per_inference", 1.0, timestamp=2.0)
        before = store.read_bytes()
        message = (f"version 'v1' of model 'm' already has a '{provenance}' value for "
                   "'energy_per_inference'")
        with pytest.raises(StoreError, match=f"^{re.escape(message)}$"):
            record_external_metric(store, "m", "v1", "energy_per_inference", 2.0, provenance,
                                   timestamp=3.0)
        assert store.read_bytes() == before
        line = json.loads(before.splitlines()[-1])
        store.write_bytes(before + json.dumps({**line, "provenance": provenance}).encode() + b"\n")
        with pytest.raises(StoreError, match=f"^store line 3: {re.escape(message)}$"):
            read_store(store)
        code = cli.main(["history", "--store", str(store), "--model", "m",
                         "--metric", "energy_per_inference"])
        assert code == 2


# A catalog metric's value outside its domain [0, upper], and the message.
OUT_OF_DOMAIN = [
    ("energy_per_inference", -5, "value for 'energy_per_inference' must lie in [0, inf), got -5"),
    ("activation_sparsity", 1.7, "value for 'activation_sparsity' must lie in [0, 1], got 1.7"),
    ("activation_sparsity", -0.2, "value for 'activation_sparsity' must lie in [0, 1], got -0.2"),
    ("estimated_battery_life", -3,
     "value for 'estimated_battery_life' must lie in [0, inf), got -3"),
]
OUT_OF_DOMAIN_IDS = ["energy--5", "sparsity-1.7", "sparsity--0.2", "battery--3"]


class TestDefaultTag:
    """A snapshot value written without a tag and one read without a tag
    carry the same one: its catalog class, else ``ingested``.  The line keeps
    the name as written; the value reads back under its catalog key."""

    @pytest.mark.parametrize("metric, tag", [
        ("energy_per_inference", "estimated"),
        ("Energy per Inference", "estimated"),
        ("lut_count", "ingested"),
    ])
    def test_reader_tags_an_untagged_value_as_the_writer_does(self, tmp_path, metric, tag):
        written, by_hand = tmp_path / "written.jsonl", tmp_path / "by_hand.jsonl"
        for store in (written, by_hand):
            register_metric(store, "lut_count")
        record_snapshot(written, snap("v1", {metric: 2e-8}))
        assert json.loads(written.read_text().splitlines()[-1])["provenance"] == {metric: tag}
        with open(by_hand, "a") as handle:
            handle.write(json.dumps({"kind": "snapshot", "model": "m", "version": "v1",
                                     "timestamp": 1.0, "values": {metric: 2e-8}}) + "\n")
        key = getattr(find_metric(metric), "key", metric)
        for store in (written, by_hand):
            assert read_store(store).history("m")[0].values == {key: {tag: 2e-8}}
        assert default_tag(metric) == tag


class TestDomains:
    """Every catalog metric lies in [0, upper]: the store refuses a value
    outside, on write and on read, naming the metric."""

    @pytest.mark.parametrize("metric, value, message", OUT_OF_DOMAIN, ids=OUT_OF_DOMAIN_IDS)
    def test_refused_on_write(self, tmp_path, metric, value, message):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"effective_synops": 1.0}))
        before = store.read_bytes()
        with pytest.raises(StoreError, match=f"^{re.escape(message)}$"):
            record_external_metric(store, "m", "v1", metric, value)
        with pytest.raises(StoreError, match=f"^{re.escape(message)}$"):
            record_snapshot(store, snap("v2", {metric: value}))
        assert store.read_bytes() == before

    @pytest.mark.parametrize("metric, value, message", OUT_OF_DOMAIN, ids=OUT_OF_DOMAIN_IDS)
    @pytest.mark.parametrize("kind", ["snapshot", "ingest"])
    def test_refused_on_read_exits_2_with_one_line(self, tmp_path, capsys, metric, value,
                                                   message, kind):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"effective_synops": 1.0}))
        if kind == "snapshot":
            line = {"kind": "snapshot", "model": "m", "version": "v2", "timestamp": 2.0,
                    "values": {metric: value}}
        else:
            line = {"kind": "ingest", "model": "m", "version": "v1", "timestamp": 2.0,
                    "metric": metric, "value": value, "provenance": "ingested"}
        with open(store, "a") as handle:
            handle.write(json.dumps(line) + "\n")
        code = cli.main(["report", "--store", str(store), "--model", "m"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: store line 2: {message}\n"

    @pytest.mark.parametrize("metric, value", [
        ("activation_sparsity", 0), ("activation_sparsity", 1.0), ("connection_sparsity", 1),
        ("energy_per_inference", 0.0), ("estimated_battery_life", 1e300),
    ])
    def test_domain_ends_are_accepted(self, tmp_path, metric, value):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {metric: value}))
        assert list(read_store(store).history("m")[0].values[metric].values()) == [value]

    def test_display_name_has_the_metric_domain(self, tmp_path):
        with pytest.raises(StoreError, match="must lie in \\[0, 1\\], got 1.5$"):
            record_snapshot(tmp_path / "s.jsonl", snap("v1", {"Activation Sparsity": 1.5}))

    @pytest.mark.parametrize("metric", RECORDED_QUANTITIES)
    def test_recorded_quantity_is_never_negative(self, tmp_path, metric):
        """The tool's recorded quantities are registered custom metrics, but
        lie in [0, inf) whatever the registration says: a negative one is
        refused on write and on read."""
        store = tmp_path / "s.jsonl"
        register_metric(store, metric, unit="ms", polarity=Polarity.HIGHER_IS_BETTER)
        record_snapshot(store, snap("v1", {metric: 0.0}))
        before = store.read_bytes()
        message = f"value for {metric!r} must lie in [0, inf), got -5"
        with pytest.raises(StoreError, match=f"^{re.escape(message)}$"):
            record_external_metric(store, "m", "v1", metric, -5)
        with pytest.raises(StoreError, match=f"^{re.escape(message)}$"):
            record_snapshot(store, snap("v2", {metric: -5}))
        assert store.read_bytes() == before
        store.write_bytes(before + json.dumps(
            {"kind": "snapshot", "model": "m", "version": "v2", "timestamp": 2.0,
             "values": {metric: -5}}).encode() + b"\n")
        with pytest.raises(StoreError, match=f"^store line 3: {re.escape(message)}$"):
            read_store(store)

    def test_custom_metric_has_no_domain(self, tmp_path):
        store = tmp_path / "s.jsonl"
        register_metric(store, "latency_margin", unit="ms")
        record_snapshot(store, snap("v1", {"latency_margin": -5.0}))
        record_external_metric(store, "m", "v1", "latency_margin", 1e300, "computed")
        assert read_store(store).history("m")[0].values["latency_margin"] == {
            "ingested": -5.0, "computed": 1e300}


class TestTrendReport:
    def test_increasing_synops_degrades(self, tmp_path):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"effective_synops": 100.0}))
        record_snapshot(store, snap("v2", {"effective_synops": 120.0}))
        trend = trend_report(read_store(store), "m", "effective_synops")
        assert trend["record"] == "trend"
        assert trend["series"] == [["v1", 100.0], ["v2", 120.0]]
        assert trend["deltas"][0]["absolute"] == 20.0
        assert trend["deltas"][0]["percent"] == pytest.approx(20.0)
        assert trend["direction"] == "degrading"

    def test_constant_series_flat(self, tmp_path):
        store = tmp_path / "s.jsonl"
        for v in ("v1", "v2", "v3"):
            record_snapshot(store, snap(v, {"effective_synops": 50.0}))
        assert trend_report(read_store(store), "m", "effective_synops")["direction"] == "flat"

    def test_rising_sparsity_improves(self, tmp_path):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"activation_sparsity": 0.55}))
        record_snapshot(store, snap("v2", {"activation_sparsity": 0.70}))
        assert trend_report(read_store(store), "m", "activation_sparsity")["direction"] == "improving"

    def test_insufficient_history(self, tmp_path):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"effective_synops": 100.0}))
        with pytest.raises(InsufficientHistoryError):
            trend_report(read_store(store), "m", "effective_synops")

    def test_reversed_series_flips_direction(self, tmp_path):
        up = tmp_path / "up.jsonl"
        down = tmp_path / "down.jsonl"
        series = [10.0, 15.0, 30.0]
        for i, value in enumerate(series):
            record_snapshot(up, snap(f"v{i}", {"effective_synops": value}))
        for i, value in enumerate(reversed(series)):
            record_snapshot(down, snap(f"v{i}", {"effective_synops": value}))
        a = trend_report(read_store(up), "m", "effective_synops")["direction"]
        b = trend_report(read_store(down), "m", "effective_synops")["direction"]
        assert {a, b} == {"degrading", "improving"}

    def test_lookup_by_display_name(self, tmp_path):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"effective_synops": 100.0}))
        record_snapshot(store, snap("v2", {"effective_synops": 90.0}))
        trend = trend_report(read_store(store), "m", "Effective Synaptic Operations")
        assert trend["metric"] == "effective_synops"
        assert trend["direction"] == "improving"

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
        estimated = trend_report(read_store(store), "m", "energy_per_inference")
        assert [x for _, x in estimated["series"]] == [1.0, 2.0]  # catalog class preferred
        ingested = trend_report(read_store(store), "m", "energy_per_inference", provenance="ingested")
        assert [x for _, x in ingested["series"]] == [4.0, 3.0]


def alerts_of(records: list[dict]) -> list[dict]:
    return [record for record in records if record["record"] == "alert"]


class TestAlerts:
    def test_low_sparsity_alerts(self):
        alerts = alerts_of(evaluate_alerts({"activation_sparsity": 0.55}))
        assert [a["metric"] for a in alerts] == ["activation_sparsity"]
        assert "sparsity" in alerts[0]["rationale"]

    def test_power_density_violation(self):
        alerts = alerts_of(evaluate_alerts({"power_density": 20.0}))
        assert [a["metric"] for a in alerts] == ["power_density"]
        assert alerts[0]["threshold"] == 10.0
        assert alerts[0]["value"] == 20.0

    def test_healthy_battery_life_no_alert(self):
        assert alerts_of(evaluate_alerts({"estimated_battery_life": 38.0})) == []

    def test_boundaries_are_strict(self):
        values = {
            "activation_sparsity": 0.60,
            "power_density": 10.0,
            "estimated_battery_life": 10.0,
        }
        assert evaluate_alerts(values) == []
        values = {
            "activation_sparsity": 0.59,
            "power_density": 10.01,
            "estimated_battery_life": 9.99,
        }
        assert len(alerts_of(evaluate_alerts(values))) == 3

    def test_missing_metrics_skip_rules(self):
        records = evaluate_alerts({"activation_sparsity": 0.9})
        assert alerts_of(records) == []
        assert records == [{"record": "alert_skipped", "metric": "power_density"},
                           {"record": "alert_skipped", "metric": "estimated_battery_life"}]

    def test_alerts_come_before_skipped_rules(self):
        records = evaluate_alerts({"estimated_battery_life": 2.0})
        assert [(r["record"], r["metric"]) for r in records] == [
            ("alert", "estimated_battery_life"),
            ("alert_skipped", "activation_sparsity"),
            ("alert_skipped", "power_density"),
        ]

    def test_overridden_limits(self):
        thresholds = {"sparsity": 0.9, "power_density": 5.0, "battery_years": 20.0}
        rules = [rule.at(thresholds[key]) for key, rule in ALERT_RULES.items()]
        records = evaluate_alerts(
            {
                "activation_sparsity": 0.85,
                "power_density": 6.0,
                "estimated_battery_life": 15.0,
            },
            rules,
        )
        assert [(a["metric"], a["threshold"]) for a in alerts_of(records)] == [
            ("activation_sparsity", 0.9), ("power_density", 5.0), ("estimated_battery_life", 20.0)]
        assert alerts_of(records)[0]["rationale"].startswith("sparsity below 90% means")


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

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"kind": "register", "name": "lut_count", "polarity": "up"},
             "malformed register record: 'up' is not a valid Polarity"),
            ({"kind": "snapshot", "model": "m", "version": "v2", "timestamp": "abc",
              "values": {}},
             "snapshot record field 'timestamp': expected a finite number, got \"abc\""),
            ({"kind": "ingest", "model": "m", "version": "v1", "timestamp": 1.0,
              "metric": "effective_synops", "value": 1.0, "provenance": "measured"},
             "provenance of 'effective_synops' must be one of "
             "['computed', 'estimated', 'ingested'], got 'measured'"),
            ({"kind": "snapshot", "model": "m", "version": "v2", "timestamp": 1.0,
              "values": {"effective_synops": 1.0}, "provenance": {"effective_synops": "meter"}},
             "provenance of 'effective_synops' must be one of "
             "['computed', 'estimated', 'ingested'], got 'meter'"),
            ({"kind": "snapshot", "model": "m", "version": "v2", "timestamp": 1.0,
              "values": {"effective_synops": [1]}},
             "value for 'effective_synops' must be a finite number"),
            ({"kind": "ingest", "model": "m", "version": "v1", "timestamp": 1.0,
              "metric": "effective_synops", "value": "abc", "provenance": "ingested"},
             "value for 'effective_synops' must be a finite number"),
            ({"kind": "snapshot", "model": "m", "version": "v2", "timestamp": 1.0,
              "values": {}, "accuracy": "abc"}, "accuracy must lie in [0, 1]"),
            ({"kind": "snapshot", "model": "m", "version": "v2", "timestamp": 1.0,
              "values": {"effective_synops": True}},
             "value for 'effective_synops' must be a finite number"),
            ({"kind": "ingest", "model": "m", "version": "v1", "timestamp": 1.0,
              "metric": "effective_synops", "value": False, "provenance": "ingested"},
             "value for 'effective_synops' must be a finite number"),
            ({"kind": "snapshot", "model": "m", "version": "v2", "timestamp": 1.0,
              "values": {}, "accuracy": True}, "accuracy must lie in [0, 1]"),
            ({"kind": "snapshot", "model": "m", "version": "v2", "timestamp": "1.0",
              "values": {}},
             "snapshot record field 'timestamp': expected a finite number, got \"1.0\""),
            ({"kind": "ingest", "model": "m", "version": "v3", "timestamp": "1.0",
              "metric": "effective_synops", "value": 1.0, "provenance": "ingested"},
             "ingest record field 'timestamp': expected a finite number, got \"1.0\""),
            ({"kind": "register", "name": "lut", "unit": [1, 2]},
             "register record field 'unit': expected a string, got list"),
            ({"kind": "register", "name": "lut", "description": {"a": 1}},
             "register record field 'description': expected a string, got dict"),
            ({"kind": "snapshot", "model": "m", "version": "v2", "timestamp": 1.0,
              "values": {}, "notes": [[["x"]]]},
             "snapshot record field 'notes': expected a string, got list"),
            ({"kind": "snapshot", "model": "m", "version": "v2", "timestamp": 1.0,
              "values": {}, "notes": None},
             "snapshot record field 'notes': expected a string, got null"),
            ({"kind": "ingest", "model": "m", "version": "v1", "timestamp": 1.0,
              "metric": "effective_synops", "value": 1.0, "provenance": "ingested", "notes": 7},
             "ingest record field 'notes': expected a string, got 7"),
            ({"kind": "snapshot", "model": "m", "version": "v2", "timestamp": 1.0,
              "values": {"effective_synops": float("nan")}},
             "value for 'effective_synops' must be a finite number"),
            ({"kind": "ingest", "model": "m", "version": "v1", "timestamp": 1.0,
              "metric": "effective_synops", "value": 10**400, "provenance": "ingested"},
             "value for 'effective_synops' must be a finite number"),
            ({"kind": "register", "name": 5},
             "register record field 'name': expected a string, got 5"),
            ({"kind": "snapshot", "model": None, "version": "v2", "timestamp": 1.0,
              "values": {}},
             "snapshot record field 'model': expected a string, got null"),
            ({"kind": "snapshot", "model": "m", "version": 3, "timestamp": 1.0, "values": {}},
             "snapshot record field 'version': expected a string, got 3"),
            ({"kind": "ingest", "model": ["m"], "version": "v1", "timestamp": 1.0,
              "metric": "effective_synops", "value": 1.0, "provenance": "ingested"},
             "ingest record field 'model': expected a string, got list"),
            ({"kind": "ingest", "model": "m", "version": 1.5, "timestamp": 1.0,
              "metric": "effective_synops", "value": 1.0, "provenance": "ingested"},
             "ingest record field 'version': expected a string, got 1.5"),
            ({"kind": "ingest", "model": "m", "version": "v1", "timestamp": 1.0,
              "metric": 5, "value": 1.0, "provenance": "ingested"},
             "ingest record field 'metric': expected a string, got 5"),
            ({"kind": "snapshot", "model": "m", "version": "v2", "timestamp": 1.0,
              "values": {"effective_synops": 1.0, "made_up": 1.0}},
             "unknown metrics ['made_up']; register them first"),
            ({"kind": "ingest", "model": "m", "version": "v1", "timestamp": 1.0,
              "metric": "made_up", "value": 1.0, "provenance": "ingested"},
             "unknown metrics ['made_up']; register them first"),
            ({"kind": "snapshot", "model": "m", "version": "", "timestamp": 1.0, "values": {}},
             "snapshot record needs a model name and a version"),
            ({"kind": "ingest", "model": "", "version": "v1", "timestamp": 1.0,
              "metric": "effective_synops", "value": 1.0, "provenance": "ingested"},
             "ingest record needs a model name and a version"),
            ({"kind": "ingest", "model": "m", "version": "v1", "timestamp": float("nan"),
              "metric": "effective_synops", "value": 1.0, "provenance": "ingested"},
             "ingest record field 'timestamp': expected a finite number, got NaN"),
        ],
        ids=["register-polarity", "snapshot-timestamp", "ingest-provenance",
             "snapshot-provenance", "snapshot-value", "ingest-value", "snapshot-accuracy",
             "snapshot-value-bool", "ingest-value-bool", "snapshot-accuracy-bool",
             "snapshot-timestamp-string", "ingest-timestamp-string", "register-unit",
             "register-description", "snapshot-notes", "snapshot-notes-null", "ingest-notes",
             "snapshot-value-nan", "ingest-value-beyond-float", "register-name",
             "snapshot-model", "snapshot-version", "ingest-model", "ingest-version",
             "ingest-metric", "snapshot-unregistered-metric", "ingest-unregistered-metric",
             "snapshot-version-empty", "ingest-model-empty", "ingest-timestamp-nan"],
    )
    def test_bad_field_value_names_the_line(self, tmp_path, record, message):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"effective_synops": 100.0}))
        with open(store, "a") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(StoreError, match=re.escape(f"store line 2: {message}")):
            read_store(store)

    def test_bad_text_field_exits_2_with_one_line(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        register_metric(store, "lut", unit="LUTs")
        for version, value in (("v1", 1.0), ("v2", 2.0)):
            record_snapshot(store, snap(version, {"lut": value}))
        store.write_text(store.read_text().replace('"LUTs"', "[1, 2]"))
        code = cli.main(["history", "--store", str(store), "--model", "m", "--metric", "lut"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == ("error: store line 1: register record field 'unit': "
                                "expected a string, got list\n")

    def test_second_snapshot_of_a_version_names_the_line(self, tmp_path):
        store = tmp_path / "s.jsonl"
        record_snapshot(store, snap("v1", {"effective_synops": 1.0}))
        line = store.read_text()
        store.write_text(line + line.replace("1.0", "2.0"))
        with pytest.raises(
            DuplicateVersionError, match="store line 2: version 'v1' already recorded for model 'm'"
        ):
            read_store(store)


# Records one version after another, skipping those another writer recorded
# first, once the parent says go; prints how many it recorded itself.
WRITER = """
import sys
from spikemeter.store import CustomMetric, DuplicateVersionError, MetricSnapshot, record_snapshot

store, count = sys.argv[1], int(sys.argv[2])
print("ready", flush=True)
sys.stdin.readline()
recorded = 0
for i in range(count):
    try:
        record_snapshot(store, MetricSnapshot(
            model_name="m", version=f"v{i}",
            values={"effective_synops": float(i), "lut_count": float(i)}, timestamp=1.0,
        ), register=[CustomMetric("lut_count", unit="LUTs")])
        recorded += 1
    except DuplicateVersionError:
        pass
print(recorded)
"""


def test_two_writers_record_each_version_once(tmp_path):
    """Both writers race through the same versions, each registering the
    same custom metric with every snapshot; the store lock lets exactly one
    of them record each version, and the metric is registered once."""
    store, count = tmp_path / "s.jsonl", 150
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", WRITER, str(store), str(count)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(),
        )
        for _ in range(2)
    ]
    try:
        for writer in writers:
            assert writer.stdout.readline() == "ready\n"
        for writer in writers:
            writer.stdin.write("go\n")
            writer.stdin.flush()
        recorded = [int(writer.communicate(timeout=120)[0]) for writer in writers]
    finally:
        for writer in writers:
            writer.kill()
            writer.wait(timeout=10)
    assert [w.returncode for w in writers] == [0, 0]
    assert sum(recorded) == count
    assert [r.version for r in read_store(store).history("m")] == [f"v{i}" for i in range(count)]
    kinds = [json.loads(line)["kind"] for line in store.read_text().splitlines()]
    assert kinds == ["register"] + ["snapshot"] * count


VALID_STORE = (
    {"kind": "register", "name": "lut_count", "unit": "LUTs",
     "polarity": "higher_is_worse", "description": ""},
    {"kind": "snapshot", "model": "m", "version": "v1", "timestamp": 1.0,
     "values": {"effective_synops": 100.0, "lut_count": 10.0},
     "provenance": {"effective_synops": "computed"}, "accuracy": 0.9, "notes": ""},
    {"kind": "snapshot", "model": "m", "version": "v2", "timestamp": 2.0,
     "values": {"Effective Synaptic Operations": 90.0}, "provenance": {}, "accuracy": None,
     "notes": ""},
    {"kind": "ingest", "model": "m", "version": "v2", "timestamp": 3.0,
     "metric": "energy_per_inference", "value": 1e-3, "provenance": "ingested", "notes": ""},
)
JSON_VALUES = (None, True, 0, -1, 2.5, "", "abc", [], [1], {}, {"a": 1}, {"a": "abc"},
               float("nan"), float("inf"), float("-inf"), 10**400)


@hs.composite
def mutated_store(draw) -> str:
    """VALID_STORE with one line changed: a field dropped, a field's value or
    one entry of an object field (a snapshot's values or provenance) swapped
    for one of another JSON type, or the line written twice."""
    records = [dict(record) for record in VALID_STORE]
    index = draw(hs.integers(0, len(records) - 1))
    record = records[index]
    entries = [(key, entry) for key in sorted(record) if isinstance(record[key], dict)
               for entry in sorted(record[key])]
    mutation = draw(hs.sampled_from(("drop", "retype", "retype-entry", "duplicate")))
    if mutation == "duplicate":
        records.insert(draw(hs.integers(0, len(records))), record)
    elif mutation == "retype-entry" and entries:
        key, entry = draw(hs.sampled_from(entries))
        record[key] = {**record[key], entry: draw(hs.sampled_from(JSON_VALUES))}
    else:
        key = draw(hs.sampled_from(sorted(record)))
        if mutation == "drop":
            del record[key]
        else:
            record[key] = draw(hs.sampled_from(JSON_VALUES))
    return "".join(json.dumps(r) + "\n" for r in records)


# One call of each writer that every rule accepts on VALID_STORE, as its
# keyword arguments.
WRITES = {
    "register": {"name": "fpga_luts", "unit": "LUTs", "polarity": Polarity.HIGHER_IS_BETTER,
                 "description": ""},
    "snapshot": {"model_name": "m", "version": "v3", "timestamp": 4.0, "accuracy": 0.9,
                 "values": {"effective_synops": 80.0, "lut_count": 8.0},
                 "provenance": {"effective_synops": "computed"}, "notes": ""},
    "ingest": {"model": "m", "version": "v3", "metric": "energy_per_inference",
               "value": 1e-3, "provenance": "ingested", "timestamp": 5.0, "notes": ""},
}
WRITERS = {
    "register": lambda store, args: register_metric(store, **args),
    "snapshot": lambda store, args: record_snapshot(store, MetricSnapshot(**args)),
    "ingest": lambda store, args: record_external_metric(store, **args),
}


@hs.composite
def mutated_write(draw) -> tuple[str, dict]:
    """One of WRITES with one argument, or one entry of a dict argument,
    swapped for a value of any JSON type."""
    kind = draw(hs.sampled_from(sorted(WRITES)))
    args = dict(WRITES[kind])
    key = draw(hs.sampled_from(sorted(args)))
    if isinstance(args[key], dict):
        entry = draw(hs.sampled_from(sorted(args[key])))
        args[key] = {**args[key], entry: draw(hs.sampled_from(JSON_VALUES))}
    else:
        args[key] = draw(hs.sampled_from(JSON_VALUES))
    return kind, args


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(write=mutated_write(), existing=hs.booleans())
@example(write=("snapshot", {**WRITES["snapshot"], "timestamp": float("nan")}), existing=True)
@example(write=("ingest", {**WRITES["ingest"], "timestamp": float("inf")}), existing=False)
def test_writers_append_only_what_the_reader_loads(tmp_path, write, existing):
    """A write either raises StoreError and leaves the store as it was (or
    absent), or appends lines the reader loads."""
    store = tmp_path / "s.jsonl"
    store.unlink(missing_ok=True)
    if existing:
        store.write_text("".join(json.dumps(record) + "\n" for record in VALID_STORE))
    before = store.read_bytes() if existing else None
    kind, args = write
    try:
        WRITERS[kind](store, args)
    except StoreError:
        assert (store.read_bytes() if store.exists() else None) == before
        return
    read_store(store)


@pytest.mark.parametrize("write", [
    lambda store: register_metric(store, 5),
    lambda store: register_metric(store, ("fpga_luts",)),
    lambda store: record_snapshot(store, MetricSnapshot("m", "v3", {5: 1.0}, timestamp=4.0)),
    lambda store: record_snapshot(store, MetricSnapshot("m", "v3", {None: 1.0}, timestamp=4.0),
                                  register=[CustomMetric("fpga_luts")]),
    lambda store: record_snapshot(store, MetricSnapshot("m", "v3", 0, timestamp=4.0)),
], ids=["register-int", "register-tuple", "snapshot-int-key", "snapshot-none-key",
        "snapshot-int-values"])
@pytest.mark.parametrize("existing", [True, False], ids=["existing", "absent"])
def test_non_string_metric_name_raises_store_error(tmp_path, write, existing):
    """json.dumps would write a non-string name as another string, or fail;
    values that are not a dict hold no names at all."""
    store = tmp_path / "s.jsonl"
    if existing:
        store.write_text("".join(json.dumps(record) + "\n" for record in VALID_STORE))
    before = store.read_bytes() if existing else None
    with pytest.raises(StoreError):
        write(store)
    assert (store.read_bytes() if store.exists() else None) == before


def passes_number(value) -> bool:
    try:
        number(value)
    except FieldError:
        return False
    return True


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_store())
def test_mutated_store_loads_or_raises_store_error(tmp_path, text):
    """What loads holds only what the store's rules allow."""
    store = tmp_path / "s.jsonl"
    store.write_text(text)
    try:
        data = read_store(store)
    except StoreError:
        return
    tags = {p.value for p in Provenance}
    for metric in data.registered.values():
        assert type(metric.unit) is str and type(metric.description) is str
    for versions in data.models.values():
        for record in versions.values():
            assert type(record.notes) is str
            assert passes_number(record.timestamp)
            assert record.accuracy is None or passes_number(record.accuracy)
            for metric, by_provenance in record.values.items():
                assert metric in CLASS_TAGS or metric in data.registered
                assert set(by_provenance) <= tags
                assert all(passes_number(value) for value in by_provenance.values())
                descriptor = find_metric(metric)
                if descriptor is not None:
                    assert all(0 <= value <= descriptor.upper for value in by_provenance.values())


@pytest.mark.parametrize("value", [
    0.0, -2.5, 1e308, float("inf"), float("-inf"), float("nan"),
    0, -7, 2**70, 10**400, -(10**400), True, False,
    np.float64(2.5), np.float64("nan"), np.float64("inf"), np.float32(1.5), np.int64(3),
    "1.0", "NaN", None, [1.0], {"a": 1.0},
], ids=repr)
def test_check_value_accepts_exactly_what_fields_number_accepts(value):
    if passes_number(value):
        _check_value("m", value, "computed")
    else:
        with pytest.raises(StoreError, match="^value for 'm' must be a finite number$"):
            _check_value("m", value, "computed")
