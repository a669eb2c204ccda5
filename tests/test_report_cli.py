import io
import json
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

from spikemeter import cli
from spikemeter import report as rpt
from spikemeter import store as st
from spikemeter.catalog import (CLASS_TAGS, TOOL_QUANTITIES, Polarity, builtin_catalog,
                                find_metric)
from spikemeter.report import RENDERERS, build_report
from spikemeter.store import (
    MetricSnapshot,
    record_external_metric,
    record_snapshot,
    register_metric,
)

from conftest import child_env

DATA = Path(__file__).parent / "data"
README = Path(__file__).resolve().parent.parent / "README.md"


def demo_path(name: str) -> str:
    return str(resources.files("spikemeter") / "data" / name)


def run_main(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonl_values(out: str) -> dict:
    values = {}
    for line in out.splitlines():
        record = json.loads(line)
        if record.get("record") == "metric":
            values[record["key"]] = record["value"]
    return values


def build_golden_store(path) -> None:
    """Two versions of one model, deterministic timestamps, one alert."""
    record_snapshot(
        path,
        MetricSnapshot(
            model_name="golden",
            version="v1",
            timestamp=1_700_000_000.0,
            accuracy=0.7,
            values={
                "effective_synops": 100.0,
                "activation_sparsity": 0.72,
                "energy_per_inference": 1e-3,
                "parameters": 15.0,
            },
            provenance={"energy_per_inference": "estimated"},
        ),
    )
    record_snapshot(
        path,
        MetricSnapshot(
            model_name="golden",
            version="v2",
            timestamp=1_700_000_100.0,
            accuracy=0.8,
            values={
                "effective_synops": 120.0,
                "activation_sparsity": 0.55,
                "energy_per_inference": 2e-3,
                "parameters": 15.0,
            },
            provenance={"energy_per_inference": "estimated"},
        ),
    )
    record_external_metric(
        path, "golden", "v2", "energy_per_inference", 2.5e-3, timestamp=1_700_000_200.0
    )


def build_custom_store(path) -> None:
    """Two versions carrying registered custom metrics, one with a unit and
    one without, and ingested values of catalogued metrics, one of them
    ingested for the latest version only."""
    register_metric(path, "lut_count", unit="LUTs", description="FPGA lookup tables")
    register_metric(path, "spike_latency", polarity=Polarity.HIGHER_IS_BETTER)
    for version, timestamp, luts, latency, sparsity, edp, training in (
        ("v1", 1_700_000_000.0, 4096.0, 3.0, 0.9, 1.5e-12, 3600.0),
        ("v2", 1_700_000_100.0, 4100.5, 2.25, 0.8, 1.25e-12, 5400.0),
    ):
        record_snapshot(path, MetricSnapshot(
            model_name="custom", version=version, timestamp=timestamp,
            values={"lut_count": luts, "spike_latency": latency,
                    "activation_sparsity": sparsity, "energy_delay_product": edp},
        ))
        record_external_metric(path, "custom", version, "training_time", training,
                               timestamp=timestamp + 50)
    record_external_metric(path, "custom", "v2", "power_density", 12.345678,
                           timestamp=1_700_000_200.0)


# store -> (builder, report argv, exit code, golden file stem)
REPORT_STORES = {
    "golden": (build_golden_store, ["--model", "golden"], 4, "golden_report"),
    "custom": (build_custom_store, ["--model", "custom", "--limit-overrides",
                                    "sparsity=0.85,power_density=5"], 4, "golden_report_custom"),
    "unknown-model": (build_golden_store, ["--model", "ghost"], 0, "golden_report_empty"),
}
REPORT_SUFFIXES = {"jsonl": "jsonl", "csv": "csv", "markdown": "md", "text": "txt"}


@pytest.mark.parametrize("store_kind", REPORT_STORES)
@pytest.mark.parametrize("fmt", REPORT_SUFFIXES)
def test_golden_report(tmp_path, capsys, fmt, store_kind):
    """Each report format, rendered by the CLI, must not change by a byte;
    and each renders the same bytes from the golden jsonl's records."""
    build, argv, expected_code, stem = REPORT_STORES[store_kind]
    store = tmp_path / "s.jsonl"
    build(store)
    code, out, _ = run_main(["report", "--store", str(store), *argv, "--format", fmt], capsys)
    assert code == expected_code
    golden = (DATA / f"{stem}.{REPORT_SUFFIXES[fmt]}").read_text()
    assert out == golden
    records = [json.loads(line) for line in (DATA / f"{stem}.jsonl").read_text().splitlines()]
    assert RENDERERS[fmt](records) == golden


def build_history_store(path) -> None:
    """Three versions of one model: a degrading series from zero, a flat
    one, an improving one, estimated and ingested values of one metric, and
    a registered custom metric."""
    register_metric(path, "lut_count", unit="LUTs")
    for version, timestamp, synops, sparsity, energy, luts in (
        ("v1", 1_700_000_000.0, 0.0, 0.5, 1e-3, 4096.0),
        ("v2", 1_700_000_100.0, 100.0, 0.625, 2e-3, 4100.5),
        ("v3", 1_700_000_200.0, 120.0, 0.7, 1.5e-3, 4000.0),
    ):
        record_snapshot(path, MetricSnapshot(
            model_name="hist", version=version, timestamp=timestamp,
            values={"effective_synops": synops, "activation_sparsity": sparsity,
                    "parameters": 15.0, "energy_per_inference": energy, "lut_count": luts},
        ))
    for version, value in (("v1", 2.5e-3), ("v3", 2.25e-3)):
        record_external_metric(path, "hist", version, "energy_per_inference", value,
                               timestamp=1_700_000_300.0)


# history argv after --model hist, one run each, in golden order
HISTORY_RUNS = (
    ["--metric", "effective_synops"],  # degrading, zero first value
    ["--metric", "parameters"],  # flat
    ["--metric", "activation_sparsity"],  # improving: higher is better
    ["--metric", "Effective Synaptic Operations"],  # display name
    ["--metric", "energy_per_inference", "--provenance", "ingested"],
    ["--metric", "lut_count"],  # registered custom metric
)


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("jsonl", "jsonl")])
def test_golden_history(tmp_path, capsys, fmt, suffix):
    """``history``'s output, every run in HISTORY_RUNS, must not change by a byte."""
    store = tmp_path / "s.jsonl"
    build_history_store(store)
    out = ""
    for argv in HISTORY_RUNS:
        code, run_out, err = run_main(
            ["history", "--store", str(store), "--model", "hist", *argv, "--format", fmt], capsys)
        assert (code, err) == (0, "")
        out += run_out
    assert out == (DATA / f"golden_history.{suffix}").read_text()


def of_kind(records: list[dict], kind: str) -> list[dict]:
    return [record for record in records if record["record"] == kind]


class TestReportDocument:
    def test_empty_history_is_valid(self, tmp_path):
        records = build_report(tmp_path / "empty.jsonl", "ghost")
        assert records[0] == {"record": "report", "model": "ghost", "version": None,
                              "metrics": 0, "alert_count": 0}
        assert [r["record"] for r in records[1:]] == ["convention"] * len(rpt.CONVENTIONS)

    def test_flags_come_from_catalog(self, tmp_path):
        store = tmp_path / "s.jsonl"
        build_golden_store(store)
        entry = next(r for r in of_kind(build_report(store, "golden"), "metric")
                     if r["key"] == "activation_sparsity")
        assert (entry["accessible"], entry["high_fidelity"], entry["actionable"],
                entry["trend_based"]) == (True, False, True, True)

    def test_estimated_and_ingested_both_present(self, tmp_path):
        store = tmp_path / "s.jsonl"
        build_golden_store(store)
        tags = [r["provenance"] for r in of_kind(build_report(store, "golden"), "metric")
                if r["key"] == "energy_per_inference"]
        assert tags == ["estimated", "ingested"]

    def test_alert_fires_for_low_sparsity(self, tmp_path):
        store = tmp_path / "s.jsonl"
        build_golden_store(store)
        records = build_report(store, "golden")
        assert [r["metric"] for r in of_kind(records, "alert")] == ["activation_sparsity"]
        assert records[0]["alert_count"] == 1

    def test_trend_sections_cover_trend_based_metrics(self, tmp_path):
        store = tmp_path / "s.jsonl"
        build_golden_store(store)
        metrics = {r["metric"] for r in of_kind(build_report(store, "golden"), "trend")}
        assert "effective_synops" in metrics
        assert "activation_sparsity" in metrics

    def test_csv_and_jsonl_carry_identical_values(self, tmp_path):
        import csv as csv_module
        import io

        store = tmp_path / "s.jsonl"
        build_golden_store(store)
        records = build_report(store, "golden")
        from_jsonl = {}
        for line in RENDERERS["jsonl"](records).splitlines():
            record = json.loads(line)
            if record["record"] == "metric":
                from_jsonl[(record["key"], record["provenance"])] = record["value"]
        from_csv = {}
        reader = csv_module.DictReader(io.StringIO(RENDERERS["csv"](records)))
        for row in reader:
            if row["record"] == "metric":
                from_csv[(row["metric"], row["provenance"])] = float(row["value"])
        assert from_csv == from_jsonl


class TestCliExitCodes:
    def test_simulate_success(self, capsys):
        code, out, _ = run_main(
            ["simulate", "--model", demo_path("demo_model.json"),
             "--workload", demo_path("demo_workload.json"), "--format", "jsonl"],
            capsys,
        )
        assert code == 0
        assert jsonl_values(out)["acs"] == 9.0

    @pytest.mark.parametrize("seed, code", [("-1", 2), (str(2**64), 2), (str(2**64 - 1), 0)])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed, code):
        workload = tmp_path / "rates.json"
        workload.write_text(json.dumps({"kind": "rates", "values": [0.5, 0.5], "timesteps": 8}))
        got, out, err = run_main(["simulate", "--model", demo_path("demo_model.json"),
                                  "--workload", str(workload), "--seed", seed], capsys)
        assert got == code
        if code:
            assert (out, err) == ("", f"error: seed must lie in [0, 2**64), got {seed}\n")

    def test_seed_is_checked_before_anything_loads(self, tmp_path, capsys):
        code, out, err = run_main(["simulate", "--model", str(tmp_path / "missing.json"),
                                   "--workload", str(tmp_path / "missing.json"),
                                   "--seed", "-1"], capsys)
        assert (code, out, err) == (2, "", "error: seed must lie in [0, 2**64), got -1\n")

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_main(
            ["simulate", "--model", "/nonexistent.json",
             "--workload", demo_path("demo_workload.json")],
            capsys,
        )
        assert code == 2
        assert "error" in err

    def test_validation_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "m", "version": "v1",
            "layers": [
                {"kind": "input", "in_size": 2, "out_size": 2},
                {"kind": "fully-connected", "in_size": 2, "out_size": 1,
                 "weights": [[1.0, 1.0]], "neuron": {"beta": 1.2, "threshold": 1.0}},
            ],
        }))
        code, _, err = run_main(
            ["simulate", "--model", str(bad),
             "--workload", demo_path("demo_workload.json")],
            capsys,
        )
        assert code == 2
        assert err == ("error: layer 1: model field 'neuron.beta': "
                       "expected a number in [0, 1], got 1.2\n")

    def test_missing_capability_exits_3(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"e_ac": 1e-12}))  # no chip_area
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps({"acs": 10, "duration": 1e-3}))
        code, _, err = run_main(
            ["estimate", "--counts", str(counts), "--hwspec", str(spec),
             "--metrics", "power_density"],
            capsys,
        )
        assert code == 3
        assert "chip_area" in err

    def test_alert_exits_4(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        build_golden_store(store)
        code, out, _ = run_main(
            ["report", "--store", str(store), "--model", "golden", "--format", "jsonl"],
            capsys,
        )
        assert code == 4
        assert any(
            json.loads(line)["record"] == "alert" for line in out.splitlines()
        )

    def test_empty_history_report_exits_0(self, tmp_path, capsys):
        code, out, _ = run_main(
            ["report", "--store", str(tmp_path / "none.jsonl"), "--model", "ghost",
             "--format", "jsonl"],
            capsys,
        )
        assert code == 0
        header = json.loads(out.splitlines()[0])
        assert header["version"] is None

    def test_limit_overrides_change_verdict(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        build_golden_store(store)  # sparsity 0.55 alerts at default threshold
        code, _, _ = run_main(
            ["report", "--store", str(store), "--model", "golden",
             "--limit-overrides", "sparsity=0.5"],
            capsys,
        )
        assert code == 0

    @staticmethod
    def threshold_argv(tmp_path, override: str) -> list[str]:
        """``report --limit-overrides override`` on the golden store (sparsity
        0.55), or, for an ``override`` that is an option such as
        ``--sparsity-threshold=2``, ``simulate`` with it on the demo inputs
        (sparsity 0.8333)."""
        if override.startswith("--"):
            return ["simulate", "--model", demo_path("demo_model.json"),
                    "--workload", demo_path("demo_workload.json"), override]
        store = tmp_path / "s.jsonl"
        build_golden_store(store)
        return ["report", "--store", str(store), "--model", "golden", "--limit-overrides", override]

    @pytest.mark.parametrize("override, message", [
        ("sparsity=2", "'sparsity': expected a number in [0, 1], got 2"),
        ("sparsity=-0.1", "'sparsity': expected a number in [0, 1], got -0.1"),
        ("power_density=-1", "'power_density': expected a number in [0, inf), got -1"),
        ("sparsity=0.5,battery_years=-5", "'battery_years': expected a number in [0, inf), got -5"),
        pytest.param("--sparsity-threshold=2",
                     "'--sparsity-threshold': expected a number in [0, 1], got 2",
                     id="simulate-sparsity-threshold-2"),
        pytest.param("--sparsity-threshold=-0.1",
                     "'--sparsity-threshold': expected a number in [0, 1], got -0.1",
                     id="simulate-sparsity-threshold--0.1"),
    ])
    def test_limit_override_outside_its_metric_domain(self, tmp_path, capsys, override, message):
        """A threshold no value of its metric can cross, or every value
        crosses, is refused, naming the override, or the option of
        ``simulate`` that gives the same rule's threshold."""
        code, out, err = run_main(self.threshold_argv(tmp_path, override), capsys)
        where = "option" if override.startswith("--") else "limit override"
        assert (code, out) == (2, "")
        assert err == f"error: {where} field {message}\n"

    @pytest.mark.parametrize("override, expected_code", [
        ("sparsity=0", 0),
        ("sparsity=1", 4),
        pytest.param("--sparsity-threshold=0", 0, id="simulate-sparsity-threshold-0"),
        pytest.param("--sparsity-threshold=1", 0, id="simulate-sparsity-threshold-1"),
    ])
    def test_limit_override_at_a_domain_end(self, tmp_path, capsys, override, expected_code):
        code, out, _ = run_main(self.threshold_argv(tmp_path, override), capsys)
        assert code == expected_code
        if override.startswith("--"):  # only the threshold above the sparsity gives the note
            assert ("note: activation sparsity 0.8333 is below 1.00" in out) == (
                override == "--sparsity-threshold=1")

    def test_spec_power_density_limit_outside_its_metric_domain(self, tmp_path, capsys):
        """The spec's ``power_density_limit`` is the power-density rule's
        threshold, read by that rule: a limit no density can cross is
        refused, naming the field, as the same override is."""
        trace, spec = str(tmp_path / "trace.json"), tmp_path / "spec.json"
        assert run_main(golden_metric_runs(trace)[0][0], capsys)[0] == 0
        raw = json.loads(Path(demo_path("demo_hwspec.json")).read_text())
        spec.write_text(json.dumps({**raw, "power_density_limit": -1}))
        code, out, err = run_main(["estimate", "--trace", trace, "--hwspec", str(spec)], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: hardware spec field 'power_density_limit': "
                       "expected a number in [0, inf), got -1\n")

    @pytest.mark.parametrize("argv, message", [
        (["estimate", "--inference-rate", "-5"],
         "option field '--inference-rate': expected a number in (0, inf), got -5"),
        (["estimate", "--inference-rate", "0"],
         "option field '--inference-rate': expected a number in (0, inf), got 0"),
        (["estimate", "--duration", "0"],
         "option field '--duration': expected a number in (0, inf), got 0"),
        (["compare", "--old-energy", "1", "--old-time", "0", "--new-energy", "1",
          "--new-time", "1"], "version 'old' field 'time': expected a number in (0, inf), got 0"),
        (["simulate", "--timestep-duration", "-1"],
         "simulation config field 'timestep_duration': expected a number in (0, inf), got -1"),
    ], ids=["inference-rate-negative", "inference-rate-zero", "duration-zero",
            "compare-old-time", "simulate-timestep-duration"])
    def test_option_outside_its_domain_exits_2(self, tmp_path, capsys, argv, message):
        """Checked up front: a battery-less spec reads no --inference-rate."""
        spec = tmp_path / "spec.json"
        raw = json.loads(Path(demo_path("demo_hwspec.json")).read_text())
        spec.write_text(json.dumps({k: v for k, v in raw.items() if k != "battery"}))
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps({"acs": 10, "duration": 1e-3}))
        inputs = {"estimate": ["--counts", str(counts), "--hwspec", str(spec)],
                  "simulate": ["--model", demo_path("demo_model.json"),
                               "--workload", demo_path("demo_workload.json")]}
        code, out, err = run_main([*argv, *inputs.get(argv[0], [])], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("overrides", ["power_density=30,power_density=5",
                                           "power_density=5,power_density=30"])
    def test_repeated_limit_override_is_refused(self, tmp_path, capsys, overrides):
        """A key given twice is refused, whichever value comes last, rather
        than the last one silently winning."""
        code, out, err = run_main(self.threshold_argv(tmp_path, overrides), capsys)
        assert (code, out) == (2, "")
        assert err == "error: limit override 'power_density' is given more than once\n"

    def test_store_env_variable_used(self, tmp_path, capsys, monkeypatch):
        store = tmp_path / "s.jsonl"
        build_golden_store(store)
        monkeypatch.setenv(cli.STORE_ENV_VAR, str(store))
        code, out, _ = run_main(
            ["history", "--model", "golden", "--metric", "effective_synops",
             "--format", "jsonl"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["direction"] == "degrading"


class TestCliEstimate:
    def test_counts_fixture_70_pj(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"e_mac": 4e-12, "e_ac": 1e-12, "e_read": 2e-12, "e_write": 2e-12}
        ))
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps({"macs": 0, "acs": 10}))
        code, out, _ = run_main(
            ["estimate", "--counts", str(counts), "--hwspec", str(spec),
             "--duration", "0.001", "--format", "jsonl"],
            capsys,
        )
        assert code == 0
        values = jsonl_values(out)
        assert values["model_total"] == pytest.approx(70e-12)
        assert values["energy_per_inference"] == pytest.approx(70e-12)

    def test_zero_op_trace_static_only(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "name": "z", "version": "v1",
            "layers": [
                {"kind": "input", "in_size": 1, "out_size": 1},
                {"kind": "fully-connected", "in_size": 1, "out_size": 1,
                 "weights": [[0.5]], "neuron": {"beta": 0.9, "threshold": 1.0}},
            ],
        }))
        workload = tmp_path / "wl.json"
        workload.write_text(json.dumps(
            {"kind": "spikes", "layer": 1, "timesteps": 4, "events": []}
        ))
        trace = tmp_path / "trace.json"
        code, _, _ = run_main(
            ["simulate", "--model", str(model), "--workload", str(workload),
             "--trace-out", str(trace)],
            capsys,
        )
        assert code == 0
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"e_ac": 1e-12, "static_power": 1e-6}))
        code, out, _ = run_main(
            ["estimate", "--trace", str(trace), "--hwspec", str(spec),
             "--format", "jsonl"],
            capsys,
        )
        assert code == 0
        values = jsonl_values(out)
        assert values["model_total"] == 0.0
        assert values["energy_per_inference"] == pytest.approx(1e-6 * 0.004)

    def test_peak_window_prices_tallies_past_int64(self, tmp_path, capsys, demo_trace):
        """A tally the trace rules accept is priced exactly: 3 * 2**62 reads
        in the last window would wrap in int64."""
        raw = json.loads(Path(demo_trace).read_text())
        raw["per_timestep"]["macs"] = [0, 1, 3, 2**62]
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(raw))
        code, out, _ = run_main(
            ["estimate", "--trace", str(trace), "--hwspec", demo_path("demo_hwspec.json"),
             "--metrics", "energy_per_sop", "--format", "jsonl"],
            capsys,
        )
        assert code == 0
        # demo spec: 4 pJ per MAC, 2 pJ per read and per write, 1 pJ per
        # update; the last window has 2**62 MACs, no ACs and 3 updates
        macs = 2**62
        window = macs * 4e-12 + 3 * 1e-12 + (3 * macs * 2e-12 + macs * 2e-12)
        assert jsonl_values(out)["peak_window_power"] == pytest.approx(window / 1e-3, rel=1e-12)
        assert jsonl_values(out)["peak_window_power"] > 5.5e10

    def test_record_then_compare_from_store(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"e_ac": 1e-12}))
        for version, acs, duration, accuracy in (
            ("v1", 10, 0.001, 0.7), ("v2", 20, 0.001, 0.8)
        ):
            counts = tmp_path / f"counts_{version}.json"
            counts.write_text(json.dumps({"acs": acs}))
            code, _, _ = run_main(
                ["estimate", "--counts", str(counts), "--hwspec", str(spec),
                 "--duration", str(duration), "--store", str(store), "--record",
                 "--model-name", "m", "--version", version,
                 "--accuracy", str(accuracy), "--timestamp", "1000"],
                capsys,
            )
            assert code == 0
        code, out, _ = run_main(
            ["compare", "--store", str(store), "--model", "m",
             "--old", "v1", "--new", "v2", "--format", "jsonl"],
            capsys,
        )
        assert code == 0
        values = jsonl_values(out)
        assert values["speedup"] == 1.0
        assert values["greenup"] == pytest.approx(0.5)
        assert values["powerup"] == pytest.approx(2.0)


class TestCliAnalyze:
    def test_static_metrics_and_record(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        code, out, _ = run_main(
            ["analyze", "--model", demo_path("demo_model.json"), "--format", "jsonl",
             "--store", str(store), "--record", "--timestamp", "1000"],
            capsys,
        )
        assert code == 0
        values = jsonl_values(out)
        assert values["parameters"] == 15.0
        assert values["memory_footprint"] == 48.0
        assert values["connection_sparsity"] == 0.0
        code, out, _ = run_main(
            ["report", "--store", str(store), "--model", "demo", "--format", "jsonl"],
            capsys,
        )
        assert code == 0  # static metrics trip no alert rules
        assert jsonl_values(out)["parameters"] == 15.0


class TestCliCompare:
    def test_worked_tradeoff_scenario_inline(self, capsys):
        code, out, _ = run_main(
            ["compare", "--old-energy", "0.001", "--old-time", "1.0",
             "--old-accuracy", "0.7", "--new-energy", "0.002", "--new-time", "1.0",
             "--new-accuracy", "0.8", "--format", "jsonl"],
            capsys,
        )
        assert code == 0
        values = jsonl_values(out)
        assert values["efficiency_ratio_old"] == pytest.approx(700.0)
        assert values["efficiency_ratio_new"] == pytest.approx(400.0)
        assert values["marginal_energy_cost"] == pytest.approx(10e-3)
        assert values["powerup"] == pytest.approx(2.0)

    def test_identical_versions_all_ones(self, capsys):
        code, out, _ = run_main(
            ["compare", "--old-energy", "1.0", "--old-time", "2.0",
             "--new-energy", "1.0", "--new-time", "2.0", "--format", "jsonl"],
            capsys,
        )
        assert code == 0
        values = jsonl_values(out)
        assert values["speedup"] == values["greenup"] == values["powerup"] == 1.0

    def test_as_published_flag_flips(self, capsys):
        code, out, _ = run_main(
            ["compare", "--old-energy", "2.0", "--old-time", "1.0",
             "--new-energy", "1.0", "--new-time", "0.5", "--as-published",
             "--format", "jsonl"],
            capsys,
        )
        assert code == 0
        values = jsonl_values(out)
        assert values["speedup"] == pytest.approx(0.5)
        assert values["greenup"] == pytest.approx(0.5)

    def test_store_versions_prefer_the_catalog_class(self, tmp_path, capsys):
        """``--old/--new`` pick each value as ``report`` and ``history`` do:
        the estimated energy, not a computed ingest beside it."""
        store = tmp_path / "s.jsonl"
        register_metric(store, "execution_time", unit="s")
        for version, energy in (("v1", 2e-3), ("v2", 1e-3)):
            record_snapshot(store, MetricSnapshot(
                model_name="m", version=version, timestamp=1.0,
                values={"energy_per_inference": energy, "execution_time": 1.0}))
        record_external_metric(store, "m", "v2", "energy_per_inference", 4e-3, "computed")
        code, out, _ = run_main(["compare", "--store", str(store), "--model", "m",
                                 "--old", "v1", "--new", "v2", "--format", "jsonl"], capsys)
        assert code == 0
        assert jsonl_values(out)["greenup"] == 2.0
        trend = st.trend_report(st.read_store(store), "m", "energy_per_inference")
        assert trend["series"] == [["v1", 2e-3], ["v2", 1e-3]]

    def test_missing_measurement_exits_2(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        build_golden_store(store)  # snapshots lack execution_time
        code, _, err = run_main(
            ["compare", "--store", str(store), "--model", "golden",
             "--old", "v1", "--new", "v2"],
            capsys,
        )
        assert code == 2
        assert "execution_time" in err


def build_display_name_store(path) -> None:
    """Two versions that store activation sparsity under its display name,
    both below the sparsity rule's 0.60."""
    for version, sparsity in (("v1", 0.1), ("v2", 0.2)):
        record_snapshot(path, MetricSnapshot(model_name="probe", version=version, timestamp=1.0,
                                             values={"Activation Sparsity": sparsity}))


# How each report format prints the display-name store's sparsity alert.
DISPLAY_NAME_ALERTS = {
    "text": "  ! activation_sparsity = 0.2 ratio < 0.6: sparsity below 60%",
    "markdown": "- **activation_sparsity**: activation_sparsity = 0.2 ratio < 0.6: ",
    "jsonl": '"comparison":"below","metric":"activation_sparsity","rationale":',
    "csv": "alert,activation_sparsity,,0.2,ratio,,,,,,0.6,,sparsity below 60%",
}


class TestDisplayNameStore:
    """A value stored under its catalog display name is read under the
    metric's key, so it reaches its alert and its trend, and a second
    spelling of one metric is a second value of it."""

    @pytest.mark.parametrize("fmt", sorted(RENDERERS))
    def test_report_alerts(self, tmp_path, capsys, fmt):
        store = tmp_path / "s.jsonl"
        build_display_name_store(store)
        code, out, err = run_main(
            ["report", "--store", str(store), "--model", "probe", "--format", fmt], capsys)
        assert (code, err) == (4, "")
        assert DISPLAY_NAME_ALERTS[fmt] in out

    @pytest.mark.parametrize("fmt", ["text", "jsonl"])
    def test_history_by_display_name_equals_by_key(self, tmp_path, capsys, fmt):
        store = tmp_path / "s.jsonl"
        build_display_name_store(store)
        runs = [run_main(["history", "--store", str(store), "--model", "probe",
                          "--metric", metric, "--format", fmt], capsys)
                for metric in ("Activation Sparsity", "activation_sparsity")]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and "0.1" in runs[0][1] and "0.2" in runs[0][1]

    def test_line_naming_one_metric_twice_exits_2(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        build_display_name_store(store)
        before = store.read_bytes()
        values = {"Activation Sparsity": 0.7, "activation_sparsity": 0.7}
        with pytest.raises(st.StoreError,
                           match="^snapshot names metric 'activation_sparsity' twice$"):
            record_snapshot(store, MetricSnapshot(model_name="probe", version="v3",
                                                  timestamp=1.0, values=values))
        assert store.read_bytes() == before
        store.write_bytes(before + json.dumps(
            {"kind": "snapshot", "model": "probe", "version": "v3", "timestamp": 1.0,
             "values": values}).encode() + b"\n")
        code, out, err = run_main(["report", "--store", str(store), "--model", "probe"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: store line 3: snapshot names metric 'activation_sparsity' twice\n"

    def test_ingest_under_a_second_spelling_is_refused(self, tmp_path):
        store = tmp_path / "s.jsonl"
        build_display_name_store(store)
        record_external_metric(store, "probe", "v2", "energy_per_inference", 1e-3)
        before = store.read_bytes()
        with pytest.raises(st.StoreError, match="^version 'v2' of model 'probe' already has "
                           "a 'ingested' value for 'energy_per_inference'$"):
            record_external_metric(store, "probe", "v2", "Energy per Inference", 2e-3)
        with pytest.raises(st.StoreError, match="already has a 'computed' value for "
                           "'activation_sparsity'$"):
            record_external_metric(store, "probe", "v2", "activation_sparsity", 0.9, "computed")
        assert store.read_bytes() == before

    @pytest.mark.parametrize("name", ["activation_sparsity", "Activation Sparsity"])
    def test_register_line_naming_a_catalog_metric_exits_2(self, tmp_path, capsys, name):
        """The catalog holds a built-in metric's unit and polarity, so a
        register line that names one would be a registration nothing reads."""
        store = tmp_path / "s.jsonl"
        build_display_name_store(store)
        store.write_text(json.dumps({"kind": "register", "name": name, "unit": "furlongs",
                                     "polarity": "higher_is_worse"}) + "\n" + store.read_text())
        code, out, err = run_main(["history", "--store", str(store), "--model", "probe",
                                   "--metric", "activation_sparsity"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: store line 1: register record names the built-in metric {name!r}\n"


class TestPipelineDeterminism:
    def run_pipeline(self, workdir: Path) -> dict[str, bytes]:
        env = child_env()
        outputs = {}

        def run(name, args, expect=0):
            result = subprocess.run(
                [sys.executable, "-m", "spikemeter", *args],
                capture_output=True, cwd=workdir, env=env,
            )
            assert result.returncode == expect, result.stderr.decode()
            outputs[name] = result.stdout

        trace = workdir / "trace.json"
        store = workdir / "store.jsonl"
        run("simulate", [
            "simulate", "--model", demo_path("demo_model.json"),
            "--workload", demo_path("demo_workload.json"), "--seed", "42",
            "--trace-out", str(trace), "--format", "jsonl",
        ])
        run("estimate", [
            "estimate", "--trace", str(trace), "--hwspec", demo_path("demo_hwspec.json"),
            "--store", str(store), "--record", "--version", "v1", "--format", "jsonl",
        ])
        # demo battery is small, so the battery-life alert fires: exit 4
        run("report", [
            "report", "--store", str(store), "--model", "demo", "--format", "jsonl",
        ], expect=4)
        outputs["trace"] = trace.read_bytes()
        return outputs

    def test_two_runs_byte_identical(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        a = self.run_pipeline(dir_a)
        b = self.run_pipeline(dir_b)
        for key in ("simulate", "estimate", "report", "trace"):
            assert a[key] == b[key], f"{key} output differs between runs"


def quickstart_commands() -> list[list[str]]:
    """The README Quickstart ``sh`` block's commands, each split into its
    words, without comments or the ``D=`` line."""
    block = README.read_text().split("## Quickstart", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = (line.strip() for line in block.replace("\\\n", " ").splitlines())
    return [shlex.split(line) for line in lines
            if line and not line.startswith("#") and not line.startswith("D=")]


def test_readme_quickstart_runs(tmp_path):
    """The Quickstart, run in order as ``python -m spikemeter`` in a fresh
    directory with ``$D`` at the package data, exits as the README says:
    ``report`` 4 (the demo battery-life alert), every other command 0."""
    data = str(resources.files("spikemeter") / "data")
    codes, errors = [], ""
    for program, *argv in quickstart_commands():
        assert program == "spikemeter"
        proc = subprocess.run(
            [sys.executable, "-m", "spikemeter", *(arg.replace("$D", data) for arg in argv)],
            capture_output=True, text=True, cwd=tmp_path, env=child_env(), timeout=60,
        )
        codes.append(proc.returncode)
        errors += proc.stderr
    assert codes == [0, 0, 4, 0, 0, 0], errors


def test_rates_workload_is_seed_deterministic(tmp_path, capsys):
    workload = tmp_path / "rates.json"
    workload.write_text(json.dumps({"kind": "rates", "values": [0.4, 0.9]}))
    args = ["simulate", "--model", demo_path("demo_model.json"),
            "--workload", str(workload), "--timesteps", "16", "--seed", "5",
            "--format", "jsonl"]
    code1, out1, _ = run_main(args, capsys)
    code2, out2, _ = run_main(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run_main([*args[:-3], "9", "--format", "jsonl"], capsys)
    assert code3 == 0
    assert out3 != out1


class TestMalformedInputExits2:
    def test_counts_file_holding_a_list(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"e_ac": 1e-12}))
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps([{"acs": 10}]))
        code, _, err = run_main(
            ["estimate", "--counts", str(counts), "--hwspec", str(spec),
             "--duration", "0.001"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: ") and "JSON object" in err
        assert len(err.splitlines()) == 1

    def test_store_line_missing_model(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        build_golden_store(store)
        with open(store, "a") as handle:
            handle.write(json.dumps(
                {"kind": "snapshot", "version": "v9", "timestamp": 1.0, "values": {}}
            ) + "\n")
        lines = len(store.read_text().splitlines())
        code, _, err = run_main(
            ["report", "--store", str(store), "--model", "golden"], capsys
        )
        assert code == 2
        assert err == f"error: store line {lines}: snapshot record lacks field 'model'\n"


    def test_second_snapshot_of_a_version(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        build_golden_store(store)
        first = store.read_text().splitlines()[0]
        with open(store, "a") as handle:
            handle.write(first + "\n")
        lines = len(store.read_text().splitlines())
        code, out, err = run_main(
            ["history", "--store", str(store), "--model", "golden",
             "--metric", "effective_synops"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: store line {lines}: version 'v1' already recorded for model 'golden'\n"
        )


@pytest.fixture(scope="module")
def demo_trace(tmp_path_factory) -> str:
    """The demo model simulated on the demo workload, as a trace file."""
    trace = tmp_path_factory.mktemp("trace") / "trace.json"
    with redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--model", demo_path("demo_model.json"),
                         "--workload", demo_path("demo_workload.json"),
                         "--trace-out", str(trace)]) == 0
    return str(trace)


class TestOneStoreParsePerCommand:
    """Every verb parses the store once, however many trends it builds or
    lines it appends."""

    RECORD = ["--record", "--version", "v3", "--timestamp", "1700000400"]

    @pytest.mark.parametrize(
        "argv, expected_code, appended",
        [
            (["report", "--model", "golden"], 4, []),
            (["history", "--model", "golden", "--metric", "effective_synops"], 0, []),
            (["compare", "--model", "golden", "--old", "v1", "--new", "v2"], 0, []),
            (["estimate", "--trace", "{trace}", "--hwspec", demo_path("demo_hwspec.json"),
              "--model-name", "golden", *RECORD], 0,
             ["parameters_non_trainable", "snapshot"]),
            (["analyze", "--model", demo_path("demo_model.json"), *RECORD], 0,
             ["parameters_non_trainable", "snapshot"]),
            (["estimate", "--trace", "{trace}", "--hwspec", demo_path("demo_hwspec.json"),
              "--model-name", "golden", *RECORD, "--timestamp", "nan"], 2, []),
            (["analyze", "--model", demo_path("demo_model.json"), *RECORD,
              "--timestamp", "inf"], 2, []),
        ],
        ids=["report", "history", "compare", "estimate-record", "analyze-record",
             "estimate-record-nan-timestamp", "analyze-record-inf-timestamp"],
    )
    def test_reads_store_once(self, tmp_path, capsys, monkeypatch, demo_trace, argv,
                              expected_code, appended):
        store = tmp_path / "s.jsonl"
        build_golden_store(store)
        register_metric(store, "execution_time", unit="s")
        for version in ("v1", "v2"):
            record_external_metric(store, "golden", version, "execution_time", 0.1,
                                   "computed", timestamp=1_700_000_300.0)
        # a custom unit for a tool metric: recording keeps it
        register_metric(store, "parameters_trainable", unit="weights")
        before = store.read_text()
        argv = [arg.format(trace=demo_trace) for arg in argv]
        reads = []
        read_store = st.read_store

        def counting_read_store(path):
            reads.append(path)
            return read_store(path)

        monkeypatch.setattr(st, "read_store", counting_read_store)
        monkeypatch.setattr(rpt, "read_store", counting_read_store)
        code, _, _ = run_main(argv + ["--store", str(store)], capsys)
        assert code == expected_code
        assert reads == [str(store)]
        text = store.read_text()
        assert text.startswith(before)
        lines = [json.loads(line) for line in text[len(before):].splitlines()]
        assert [line.get("name", line["kind"]) for line in lines] == appended
        assert st.read_store(store).registered["parameters_trainable"].unit == "weights"

    def test_history_trend_line_equals_report_trend_line(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        build_golden_store(store)
        _, out, _ = run_main(
            ["report", "--store", str(store), "--model", "golden", "--format", "jsonl"], capsys
        )
        trends = {
            json.loads(line)["metric"]: line
            for line in out.splitlines()
            if json.loads(line)["record"] == "trend"
        }
        assert sorted(trends) == ["activation_sparsity", "effective_synops"]
        for metric, line in trends.items():
            code, history, _ = run_main(
                ["history", "--store", str(store), "--model", "golden", "--metric", metric,
                 "--format", "jsonl"],
                capsys,
            )
            assert code == 0
            assert history == line + "\n"


class TestRejectedRecordAppendsNothing:
    """A record command that exits 2 leaves the store byte-identical."""

    def test_recorded_version_with_a_custom_unit_on_file(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        argv = ["analyze", "--model", demo_path("demo_model.json"), "--store", str(store),
                "--record", "--version", "v1", "--timestamp", "1000"]
        assert run_main(argv, capsys)[0] == 0
        register_metric(store, "parameters_trainable", unit="weights")
        before = store.read_bytes()
        code, _, err = run_main(argv, capsys)
        assert code == 2
        assert "version 'v1' already recorded" in err
        assert store.read_bytes() == before
        assert st.read_store(store).registered["parameters_trainable"].unit == "weights"

    def test_snapshot_with_an_unregistered_metric(self, tmp_path, capsys, demo_trace):
        store = tmp_path / "s.jsonl"
        build_golden_store(store)
        trace = tmp_path / "trace.json"
        doc = json.loads(Path(demo_trace).read_text())
        doc["static_metrics"]["lut_count"] = 5.0
        trace.write_text(json.dumps(doc))
        before = store.read_bytes()
        code, _, err = run_main(
            ["estimate", "--trace", str(trace), "--hwspec", demo_path("demo_hwspec.json"),
             "--store", str(store), "--record", "--version", "v3", "--timestamp", "1000"],
            capsys,
        )
        assert code == 2
        assert err == "error: unknown metrics ['lut_count']; register them first\n"
        assert store.read_bytes() == before


@pytest.mark.parametrize("argv", [
    ["estimate", "--trace", "{trace}", "--hwspec", demo_path("demo_hwspec.json"),
     "--store", "{store}", "--record", "--version", "v3", "--accuracy", "nan"],
    ["simulate", "--model", demo_path("demo_model.json"),
     "--workload", demo_path("demo_workload.json"), "--trace-out", "{directory}"],
], ids=["estimate-record-nan-accuracy", "simulate-trace-out-directory"])
def test_refused_verb_prints_nothing(tmp_path, capsys, demo_trace, argv):
    """A verb that exits 2 fails before it prints, and leaves the store as it was."""
    store = tmp_path / "s.jsonl"
    build_golden_store(store)
    before = store.read_bytes()
    argv = [arg.format(trace=demo_trace, store=store, directory=tmp_path) for arg in argv]
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert store.read_bytes() == before


@pytest.mark.parametrize("argv, what", [
    (["simulate", "--model", demo_path("demo_model.json"),
      "--workload", demo_path("demo_workload.json"), "--trace-out", "{path}"], "trace file"),
    (["estimate", "--trace", "{trace}", "--hwspec", demo_path("demo_hwspec.json"),
      "--store", "{path}", "--record", "--version", "v3"], "store"),
    (["analyze", "--model", demo_path("demo_model.json"), "--store", "{path}", "--record"],
     "store"),
], ids=["simulate-trace-out", "estimate-store", "analyze-store"])
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_output_names_the_file(tmp_path, capsys, demo_trace, argv, what, target):
    """A path that cannot be written exits 2 with one line naming the file,
    as the readers' ``cannot read`` messages do, and prints nothing."""
    path = tmp_path / "out" if target == "directory" else tmp_path / "missing" / "out.json"
    if target == "directory":
        path.mkdir()
    argv = [arg.format(path=path, trace=demo_trace) for arg in argv]
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {what} {path}: [Errno ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "missing").exists()


class TestRecordProvenance:
    """Tool-computed parameter counts are stored as computed whichever verb
    records them."""

    PARAMETER_KEYS = ("parameters_trainable", "parameters_non_trainable")

    def last_snapshot_provenance(self, store: Path) -> dict:
        records = [json.loads(line) for line in store.read_text().splitlines()]
        return [r for r in records if r["kind"] == "snapshot"][-1]["provenance"]

    def test_analyze_record(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        code, _, _ = run_main(
            ["analyze", "--model", demo_path("demo_model.json"),
             "--store", str(store), "--record", "--timestamp", "1000"],
            capsys,
        )
        assert code == 0
        provenance = self.last_snapshot_provenance(store)
        assert [provenance[key] for key in self.PARAMETER_KEYS] == ["computed", "computed"]

    def test_estimate_record(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        trace = tmp_path / "trace.json"
        code, _, _ = run_main(
            ["simulate", "--model", demo_path("demo_model.json"),
             "--workload", demo_path("demo_workload.json"), "--trace-out", str(trace)],
            capsys,
        )
        assert code == 0
        code, _, _ = run_main(
            ["estimate", "--trace", str(trace), "--hwspec", demo_path("demo_hwspec.json"),
             "--store", str(store), "--record", "--version", "v1", "--timestamp", "1000"],
            capsys,
        )
        assert code == 0
        provenance = self.last_snapshot_provenance(store)
        assert [provenance[key] for key in self.PARAMETER_KEYS] == ["computed", "computed"]
        assert provenance["execution_time"] == "computed"


def test_analyze_prints_the_units_the_store_holds(tmp_path, capsys):
    """With --record, a tool metric's unit is the store's, a custom one
    included; without, the tool's default."""
    store = tmp_path / "s.jsonl"
    register_metric(store, "parameters_trainable", unit="weights")
    argv = ["analyze", "--model", demo_path("demo_model.json")]
    _, out, _ = run_main(argv, capsys)
    assert "parameters_trainable = 9 count [computed]\n" in out
    code, out, _ = run_main(argv + ["--store", str(store), "--record"], capsys)
    assert code == 0
    assert "parameters_trainable = 9 weights [computed]\n" in out
    assert "parameters_non_trainable = 6 count [computed]\n" in out


GOLDEN_METRICS = ("golden_simulate.jsonl", "golden_estimate.jsonl", "golden_analyze.jsonl",
                  "golden_compare.jsonl")


def golden_metric_runs(trace: str) -> list[list[list[str]]]:
    """The argv of each verb's golden, in GOLDEN_METRICS order: the demo
    model and workload simulated at seed 42, priced against the demo spec;
    the demo model analyzed; two inline versions compared with accuracy
    improved, regressed and unchanged, each in both orientations."""
    compare = [
        ["compare", "--old-energy", "2e-9", "--old-time", "0.01", "--old-accuracy", old,
         "--new-energy", "1.5e-9", "--new-time", "0.02", "--new-accuracy", new, *published]
        for old, new in (("0.7", "0.8"), ("0.8", "0.7"), ("0.8", "0.8"))
        for published in ([], ["--as-published"])
    ]
    return [
        [["simulate", "--model", demo_path("demo_model.json"),
          "--workload", demo_path("demo_workload.json"), "--seed", "42", "--trace-out", trace]],
        [["estimate", "--trace", trace, "--hwspec", demo_path("demo_hwspec.json")]],
        [["analyze", "--model", demo_path("demo_model.json")]],
        compare,
    ]


def golden_metric_outputs(tmp_path, capsys, fmt: str) -> list[str]:
    """Each verb's stdout over its golden runs, in GOLDEN_METRICS order."""
    outs = []
    for argvs in golden_metric_runs(str(tmp_path / "trace.json")):
        out = ""
        for argv in argvs:
            code, stdout, _ = run_main(argv + ["--format", fmt], capsys)
            assert code == 0, argv
            out += stdout
        outs.append(out)
    return outs


def test_golden_estimate_jsonl(tmp_path, capsys):
    """Each verb's jsonl stdout over its golden runs must not change by a byte."""
    for golden, out in zip(GOLDEN_METRICS, golden_metric_outputs(tmp_path, capsys, "jsonl")):
        assert out == (DATA / golden).read_text(), golden


def test_golden_metrics_text(tmp_path, capsys):
    """Each verb's text stdout over the same runs must not change by a byte."""
    for golden, out in zip(GOLDEN_METRICS, golden_metric_outputs(tmp_path, capsys, "text")):
        golden = golden.replace(".jsonl", ".txt")
        assert out == (DATA / golden).read_text(), golden


def test_goldens_carry_the_catalog_tags():
    """Every metric row whose key the catalog describes carries the catalog's
    provenance tag."""
    checked = 0
    for golden in GOLDEN_METRICS:
        for line in (DATA / golden).read_text().splitlines():
            record = json.loads(line)
            if record.get("key") in CLASS_TAGS:
                assert record["provenance"] == CLASS_TAGS[record["key"]], (golden, record)
                checked += 1
    assert checked >= 20


# Key -> (unit, provenance tag), read from the two descriptor tuples themselves.
DESCRIPTIONS = {**{d.key: (d.unit, d.provenance_class.value) for d in builtin_catalog()},
                **{key: (unit, tag.value) for key, unit, tag in TOOL_QUANTITIES}}


def test_tool_quantities_are_not_catalog_metrics():
    keys = [key for key, _, _ in TOOL_QUANTITIES]
    assert len(set(keys)) == len(keys)
    assert [key for key in keys if find_metric(key) is not None] == []


def test_every_printed_row_matches_its_description(tmp_path, capsys):
    """The golden runs, and estimate from a counts file, in both formats:
    every key printed has a description, and each row prints its unit and
    provenance tag."""
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"macs": 7, "acs": 9, "membrane_updates_effective": 12,
                                  "crossings": 3, "duration": 0.004}))
    runs = [argv for argvs in golden_metric_runs(str(tmp_path / "trace.json")) for argv in argvs]
    runs.append(["estimate", "--counts", str(counts), "--hwspec", demo_path("demo_hwspec.json")])
    printed = set()
    for argv in runs:
        code, out, _ = run_main(argv + ["--format", "jsonl"], capsys)
        assert code == 0, argv
        for record in map(json.loads, out.splitlines()):
            if record["record"] == "metric":
                assert (record["unit"], record["provenance"]) == DESCRIPTIONS[record["key"]], record
                printed.add(record["key"])
        code, text, _ = run_main(argv + ["--format", "text"], capsys)
        for line, record in zip(text.splitlines(), map(json.loads, out.splitlines())):
            unit, tag = DESCRIPTIONS[record["key"]]
            value = f"{record['key']} = {record['value']:.12g}{f' {unit}' if unit else ''}"
            assert line.startswith(f"{value} [{tag}]"), line
    # every tool quantity is printed, but the one only recording stores
    assert {key for key, _, _ in TOOL_QUANTITIES} - printed == {"execution_time"}


def test_every_recorded_value_matches_its_description(tmp_path, capsys, demo_trace):
    """What analyze and estimate record carries its description's tag, and a
    tool quantity is registered with its description's unit."""
    store = tmp_path / "s.jsonl"
    for argv in (["analyze", "--model", demo_path("demo_model.json"), "--version", "v1"],
                 ["estimate", "--trace", demo_trace, "--hwspec", demo_path("demo_hwspec.json"),
                  "--version", "v2"]):
        code, _, _ = run_main(argv + ["--store", str(store), "--record"], capsys)
        assert code == 0, argv
    lines = [json.loads(line) for line in store.read_text().splitlines()]
    registered = [(line["name"], line["unit"]) for line in lines if line["kind"] == "register"]
    assert registered == [(key, DESCRIPTIONS[key][0]) for key in
                          ("parameters_trainable", "parameters_non_trainable", "execution_time")]
    for snapshot in (line for line in lines if line["kind"] == "snapshot"):
        assert snapshot["provenance"].keys() == snapshot["values"].keys()
        for key, tag in snapshot["provenance"].items():
            assert tag == DESCRIPTIONS[key][1], key


# A small analog workload for the demo model: its input layer is written as
# dense ``frames`` (-0.0 keeps its sign), the output layer as binary ``events``.
ANALOG_WORKLOAD = {"kind": "analog", "layer": 2, "timesteps": 4,
                   "frames": [[0.5, 0.0, -0.25, 1.0], [0.0, -0.0, 2.0, 0.75]]}


@pytest.mark.parametrize("golden, workload", [
    ("golden_trace_demo.json", None),
    ("golden_trace_analog.json", ANALOG_WORKLOAD),
])
def test_golden_trace(tmp_path, capsys, golden, workload):
    """``simulate --trace-out`` on the demo model at seed 42, with the demo
    workload and with a small analog one: the trace file must not change by
    a byte."""
    workload_path = demo_path("demo_workload.json")
    if workload is not None:
        workload_path = tmp_path / "workload.json"
        workload_path.write_text(json.dumps(workload))
    trace = tmp_path / "trace.json"
    code, _, _ = run_main(
        ["simulate", "--model", demo_path("demo_model.json"), "--workload", str(workload_path),
         "--seed", "42", "--trace-out", str(trace)], capsys)
    assert code == 0
    assert trace.read_bytes() == (DATA / golden).read_bytes()
