import json

import pytest

from perfbench import checks, pipeline, workloads
from perfbench.proc import VerbRun

from conftest import ROOT


@pytest.fixture(scope="module")
def ci_pass(tmp_path_factory):
    """One in-process ci-gate pass: (inputs, runs, work dir)."""
    work = tmp_path_factory.mktemp("pass")
    inputs = workloads.generate("ci-gate", 0, work / "inputs", ROOT / "src")
    runs, _ = pipeline.in_process_pass(inputs, work, None)
    return inputs, runs, work


def _check(inputs, runs, work, pinned=None):
    checker = checks.Checker()
    seen = checks.check_pass(checker, inputs, runs, work, None, pinned)
    return checker, seen


def test_clean_pass_has_no_failures(ci_pass):
    inputs, runs, work = ci_pass
    checker, seen = _check(inputs, runs, work, checks.load_reference("ci-gate", 0))
    checks.check_oracle_prefix(checker, inputs, work)
    assert checker.failures == []
    assert checker.attempted > 10
    assert seen["report_exit"] == 4


def test_perturbed_trace_is_caught(ci_pass, tmp_path):
    inputs, runs, work = ci_pass
    raw = json.loads(pipeline.trace_path(work).read_text())
    raw["per_timestep"]["acs"][0] += 1
    pipeline.trace_path(tmp_path).write_text(json.dumps(raw))
    pipeline.store_path(tmp_path).write_bytes(pipeline.store_path(work).read_bytes())
    checker, _ = _check(inputs, runs, tmp_path)
    assert any("trace's tallies" in f for f in checker.failures)
    checks.check_oracle_prefix(checker, inputs, tmp_path)
    assert any("dense oracle" in f for f in checker.failures)


def test_perturbed_energy_is_caught(ci_pass):
    inputs, runs, work = ci_pass
    lines = []
    for line in runs["estimate"].stdout.splitlines():
        rec = json.loads(line)
        if rec.get("key") == "energy_per_inference":
            rec["value"] *= 1.000001
        lines.append(json.dumps(rec))
    bad = dict(runs, estimate=VerbRun(0, 0.0, "\n".join(lines)))
    checker, _ = _check(inputs, bad, work, checks.load_reference("ci-gate", 0))
    assert any("priced by the spec" in f for f in checker.failures)
    assert any("matches the reference" in f for f in checker.failures)


def test_later_pass_must_repeat_the_first(ci_pass):
    inputs, runs, work = ci_pass
    _, seen = _check(inputs, runs, work)
    checker = checks.Checker()
    checks.check_pass(checker, inputs, runs, work, seen, None)
    assert checker.failures == []
    changed = dict(runs, history=VerbRun(0, 0.0, runs["history"].stdout + "\n"))
    checks.check_pass(checker, inputs, changed, work, seen, None)
    assert checker.failures == ["outputs repeat the first pass byte for byte"]


def test_failed_verb_is_counted(ci_pass):
    inputs, runs, work = ci_pass
    bad = dict(runs, compare=VerbRun(2, 0.0, "", "error: boom"))
    checker, _ = _check(inputs, bad, work)
    assert any(f.startswith("compare exits 0 (exit 2: error: boom)") for f in checker.failures)
    assert checker.failed >= 2  # the exit code and the greenup check


def test_recomputed_energy_matches_estimator(ci_pass):
    inputs, runs, work = ci_pass
    raw = json.loads(pipeline.trace_path(work).read_text())
    spec = json.loads(inputs.hwspec.read_text())
    energy = checks.metric_values(runs["estimate"].stdout)["energy_per_inference"]
    assert checks.recomputed_energy(raw, spec) == pytest.approx(energy, rel=1e-12)
