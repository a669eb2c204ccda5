import json

import pytest

from perfbench import workloads
from spikemeter.store import read_store

from conftest import ROOT

SRC = ROOT / "src"
FAST = ("sim-sparse-long", "ci-gate")


def _files(inputs: workloads.Inputs) -> dict[str, bytes]:
    return {p.name: p.read_bytes()
            for p in (inputs.model, inputs.workload, inputs.hwspec, inputs.store)}


@pytest.mark.parametrize("name", FAST)
def test_same_seed_same_bytes(name, tmp_path):
    a = workloads.generate(name, 5, tmp_path / "a", SRC)
    b = workloads.generate(name, 5, tmp_path / "b", SRC)
    assert _files(a) == _files(b)
    assert a.sim_seed == b.sim_seed


@pytest.mark.parametrize("name", FAST)
def test_other_seed_other_inputs(name, tmp_path):
    a = workloads.generate(name, 5, tmp_path / "a", SRC)
    b = workloads.generate(name, 6, tmp_path / "b", SRC)
    assert a.store.read_bytes() != b.store.read_bytes()
    if name != "ci-gate":  # ci-gate runs the shipped demo model
        assert a.model.read_bytes() != b.model.read_bytes()


@pytest.mark.parametrize("name", FAST)
def test_base_store_reads_back(name, tmp_path):
    inputs = workloads.generate(name, 1, tmp_path, SRC)
    data = read_store(inputs.store)
    history = data.history(inputs.model_name)
    assert [r.version for r in history] == [
        workloads.version_name(i) for i in range(inputs.base_versions)]
    assert all(len(r.values) == 17 for r in history)
    assert set(data.registered) == set(workloads.REGISTERED)


def test_ci_gate_store_has_one_ingest_per_ten_versions(tmp_path):
    inputs = workloads.generate("ci-gate", 1, tmp_path, SRC)
    kinds = [json.loads(line)["kind"] for line in inputs.store.read_text().splitlines()]
    assert kinds.count("snapshot") == 1000
    assert kinds.count("ingest") == 100


def test_unknown_workload_rejected(tmp_path):
    with pytest.raises(ValueError):
        workloads.generate("nope", 0, tmp_path, SRC)
