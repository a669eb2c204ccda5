"""What each command imports: the store-only verbs start without numpy and
load only the package modules they use, the package still exports every
public name, and every entry point the benchmark's tracer wraps stays a
module attribute looked up at call time."""

import importlib
import inspect
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import spikemeter
from spikemeter import cli, files
from spikemeter.simulate import SimulationConfig
from spikemeter.store import CustomMetric, MetricSnapshot, record_snapshot

from conftest import child_env
from test_report_cli import demo_path

ROOT = Path(__file__).resolve().parent.parent

# Runs one command line through ``cli.main`` and reports on its last stderr
# line: whether numpy loaded, the exit code and the package modules loaded.
CHILD = """\
import sys
from spikemeter.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --help exits from argparse
    code = exc.code
modules = sorted(name for name in sys.modules if name.partition(".")[0] == "spikemeter")
sys.stderr.write(f"\\n{'numpy' in sys.modules} {code} {','.join(modules)}\\n")
"""

# The package modules every command loads: the CLI and what the store needs.
STORE_ONLY = {"spikemeter", "spikemeter.cli", "spikemeter.catalog", "spikemeter.fields",
              "spikemeter.store", "spikemeter.report"}


@pytest.fixture
def inputs(tmp_path) -> dict[str, str]:
    store = tmp_path / "s.jsonl"
    for i, version in enumerate(["v1", "v2"]):
        record_snapshot(store, MetricSnapshot(
            model_name="m", version=version, timestamp=1000.0 + i,
            values={"energy_per_inference": 1e-3 * (i + 1), "execution_time": 0.1},
        ), register=[CustomMetric("execution_time", unit="s")])
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"acs": 10, "duration": 1e-3}))
    paths = {"store": str(store), "counts": str(counts), "trace": str(tmp_path / "trace.json"),
             "hwspec": demo_path("demo_hwspec.json"), "model": demo_path("demo_model.json"),
             "workload": demo_path("demo_workload.json")}
    with redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--model", paths["model"], "--workload", paths["workload"],
                         "--trace-out", paths["trace"]]) == 0
    trace = json.loads(Path(paths["trace"]).read_text())
    trace["per_timestep"]["acs"][0] = True
    paths["bool_trace"] = str(tmp_path / "bool_trace.json")
    Path(paths["bool_trace"]).write_text(json.dumps(trace))
    return paths


# The last column names the field an exit-2 message must name.
@pytest.mark.parametrize("argv, expected_code, loads_numpy, modules, field", [
    (["compare", "--store", "{store}", "--model", "m", "--old", "v1", "--new", "v2"], 0, False,
     STORE_ONLY | {"spikemeter.compare"}, None),
    (["history", "--store", "{store}", "--model", "m", "--metric", "energy_per_inference"],
     0, False, STORE_ONLY, None),
    (["report", "--store", "{store}", "--model", "m"], 0, False, STORE_ONLY, None),
    (["estimate", "--counts", "{counts}", "--hwspec", "{hwspec}"], 0, False,
     STORE_ONLY | {"spikemeter.compare", "spikemeter.energy", "spikemeter.workload"}, None),
    (["estimate", "--trace", "{trace}", "--hwspec", "{hwspec}", "--store", "{store}", "--record",
      "--version", "v3"], 0, False,
     STORE_ONLY | {"spikemeter.compare", "spikemeter.energy", "spikemeter.workload",
                   "spikemeter.files"}, None),
    (["estimate", "--trace", "{bool_trace}", "--hwspec", "{hwspec}"], 2, False,
     STORE_ONLY | {"spikemeter.compare", "spikemeter.energy", "spikemeter.workload",
                   "spikemeter.files"}, "per_timestep.acs"),
    (["--help"], 0, False, STORE_ONLY, None),
    (["simulate", "--model", "{model}", "--workload", "{workload}"], 0, True, None, None),
    (["report", "--store", "{store}", "--model", "m", "--limit-overrides", "battery_years=nan"],
     2, False, STORE_ONLY, "battery_years"),
    (["report", "--store", "{store}", "--model", "m", "--limit-overrides", "sparsity=abc"],
     2, False, STORE_ONLY, "sparsity"),
    (["report", "--store", "{store}", "--model", "m", "--limit-overrides", "sparsity"],
     2, False, STORE_ONLY, "sparsity"),
    (["report", "--store", "{store}", "--model", "m", "--limit-overrides", "sparsity="],
     2, False, STORE_ONLY, "sparsity"),
    (["simulate", "--model", "{model}", "--workload", "{workload}",
      "--sparsity-threshold", "nan"], 2, False, STORE_ONLY, "--sparsity-threshold"),
    (["estimate", "--counts", "{counts}", "--hwspec", "{hwspec}", "--inference-rate", "inf"],
     2, False, STORE_ONLY, "--inference-rate"),
    (["estimate", "--counts", "{counts}", "--hwspec", "{hwspec}", "--inference-rate", "nan"],
     2, False, STORE_ONLY, "--inference-rate"),
], ids=["compare", "history", "report", "estimate-counts", "estimate-trace",
        "estimate-trace-bool-tally", "help", "simulate",
        "report-nan-limit-override", "report-text-limit-override",
        "report-bare-limit-override", "report-empty-limit-override",
        "simulate-nan-sparsity-threshold",
        "estimate-inf-inference-rate", "estimate-nan-inference-rate"])
def test_numpy_loads_only_for_the_verbs_that_need_it(tmp_path, inputs, argv, expected_code,
                                                      loads_numpy, modules, field):
    """Numpy loads only where a verb needs it, and each store-only verb loads
    exactly the package modules it uses."""
    argv = [arg.format(**inputs) for arg in argv]
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    numpy_loaded, code, loaded = proc.stderr.splitlines()[-1].split(" ")
    assert (numpy_loaded, code) == (str(loads_numpy), str(expected_code))
    if expected_code == 2:  # the message names the option, override or field it rejects
        assert f"field '{field}'" in proc.stderr
    if modules is not None:
        assert set(loaded.split(",")) == modules


def test_missing_spec_error_has_one_class():
    """The CLI catches the class from ``catalog``; ``energy`` and the package
    export the very same one."""
    from spikemeter import catalog, compare, energy

    assert spikemeter.MissingSpecError is energy.MissingSpecError is catalog.MissingSpecError
    assert compare.MissingSpecError is catalog.MissingSpecError


# Every name the package exported when its __init__ imported each module eagerly.
PUBLIC_NAMES = {
    "catalog": "MetricDescriptor Polarity Provenance builtin_catalog find_metric",
    "compare": "VersionMeasurement accuracy_energy_tradeoff efficiency_ratio "
               "energy_delay_product estimated_battery_life greenup "
               "inferences_per_battery_cycle powerup speedup",
    "energy": "EnergyBreakdown HardwareSpec MissingSpecError average_power energy_area_fom "
              "energy_per_sop estimate_energy load_hardware_spec power_density",
    "model": "LayerDescriptor ModelDescriptor NeuronParams ParameterCount connection_sparsity "
             "count_parameters load_model memory_footprint save_model",
    "oracle": "dense_oracle_counts",
    "simulate": "AnalogTrain NeuronState SimulationConfig SpikeTrain WorkloadTrace "
                "rate_encode run_inference step_lif",
    "store": "MetricSnapshot evaluate_alerts read_store "
             "record_external_metric record_snapshot register_metric trend_report",
    "workload": "MemoryAccessCounts OpCounts activation_sparsity effective_synops "
                "memory_accesses",
}


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in PUBLIC_NAMES.items() for name in names.split()
])
def test_package_exports_every_public_name(module, name):
    namespace = {}
    exec(f"from spikemeter import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"spikemeter.{module}"), name)


def test_package_refuses_unknown_names():
    assert spikemeter.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'not_a_metric'"):
        spikemeter.not_a_metric
    with pytest.raises(ImportError):
        exec("from spikemeter import not_a_metric", {})


@pytest.fixture
def entry_points(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    return importlib.import_module("perfbench.tracing").ENTRY_POINTS


def test_every_traced_entry_point_is_a_module_attribute(entry_points):
    for module, attr, _ in entry_points:
        assert callable(getattr(importlib.import_module(f"spikemeter.{module}"), attr)), \
            f"spikemeter.{module}.{attr}"
    assert inspect.isfunction(cli.run_inference)
    assert cli.run_inference.__module__ == "spikemeter.cli"
    assert files.rate_encode.__module__ == "spikemeter.files"


def test_simulate_calls_run_inference_through_the_cli_module(monkeypatch):
    calls = []
    run_inference = cli.run_inference

    def wrapped(*args, **kwargs):
        calls.append(args)
        return run_inference(*args, **kwargs)

    monkeypatch.setattr(cli, "run_inference", wrapped)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--model", demo_path("demo_model.json"),
                         "--workload", demo_path("demo_workload.json")]) == 0
    assert len(calls) == 1


def test_prepare_input_calls_rate_encode_through_the_files_module(monkeypatch):
    calls = []
    rate_encode = files.rate_encode

    def wrapped(*args, **kwargs):
        calls.append(args)
        return rate_encode(*args, **kwargs)

    monkeypatch.setattr(files, "rate_encode", wrapped)
    workload = files.workload_from_dict({"kind": "rates", "values": [0.5, 1.0]})
    train = files.prepare_input(workload, SimulationConfig(timesteps=4, seed=3))
    assert len(calls) == 1
    assert train.events[1].tolist() == [1.0] * 4
