"""Output checks for each pass; every check counts toward ``ok_ratio``.

Three kinds of check:

* consistency -- each verb's output agrees with the files it read or wrote
  and with an independent recomputation (pricing, ratios, alert rules);
* reference -- on the reference seed, the values pinned in
  ``reference.json``;
* oracle -- once per run, the first timesteps of the trace against
  ``dense_oracle_counts`` on the same input cut to those timesteps.  The
  simulator is causal and ``rate_encode`` draws timestep-major, so the
  prefix must match exactly on any seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from perfbench.pipeline import HISTORY_METRIC, store_path, trace_path
from perfbench.proc import VerbRun
from perfbench.workloads import NEW_VERSION, Inputs

REFERENCE = Path(__file__).with_name("reference.json")
# Reference-seed values may differ from the pinned ones only by summation order.
PINNED_REL_TOL = 1e-12
# The recomputed energy follows the documented formula, not the package's code.
RECOMPUTED_REL_TOL = 1e-9
# Timesteps checked against the dense oracle; it walks every synapse in
# plain Python, so the dense model gets the fewest.
ORACLE_PREFIX = {"sim-dense": 2, "sim-sparse-long": 100, "ci-gate": 4}
TALLIES = ("acs", "macs", "leak_macs", "membrane_updates")
# The default alert rules: metric -> (violating side, threshold).
ALERT_RULES = {
    "activation_sparsity": ("below", 0.60),
    "power_density": ("above", 10.0),
    "estimated_battery_life": ("below", 10.0),
}
READS_PER_MAC, READS_PER_AC, WRITES_PER_MAC, WRITES_PER_AC = 3, 2, 1, 1


class Checker:
    """Counts checks attempted and keeps a line for each one that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, what: str, test) -> None:
        """Run ``test()``; a false result or any exception is a failure."""
        self.attempted += 1
        try:
            ok = bool(test())
            detail = ""
        except Exception as exc:  # a malformed output is a failed check, not a crash
            ok, detail = False, f": {type(exc).__name__}: {exc}"
        if not ok:
            self.failures.append(what + detail)


def records(stdout: str, kind: str) -> list[dict]:
    out = []
    for line in stdout.splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec.get("record") == kind:
                out.append(rec)
    return out


def metric_values(stdout: str) -> dict[str, float]:
    return {rec["key"]: rec["value"] for rec in records(stdout, "metric")}


def trace_digest(raw: dict) -> str:
    """sha256 of the trace's spikes and per-timestep tallies."""
    content = {
        "spikes": [[p["kind"], p.get("events", p.get("frames"))] for p in raw["spikes"]],
        "per_timestep": [raw["per_timestep"][key] for key in TALLIES],
    }
    return hashlib.sha256(json.dumps(content).encode()).hexdigest()


def spike_matrices(raw: dict) -> list[np.ndarray]:
    mats = []
    for size, payload in zip(raw["layer_sizes"], raw["spikes"]):
        if payload["kind"] == "binary":
            mat = np.zeros((size, raw["timesteps"]))
            for n, t in payload["events"]:
                mat[n, t] = 1.0
        else:
            mat = np.array(payload["frames"], dtype=np.float64)
        mats.append(mat)
    return mats


def recomputed_energy(raw: dict, spec: dict) -> float:
    """Energy per inference from the trace, by the documented formula."""
    per = raw["per_timestep"]
    macs, acs = sum(per["macs"]), sum(per["acs"])
    if spec.get("membrane_count_mode", "effective") == "effective":
        updates = sum(per["membrane_updates"])
    else:
        updates = sum(raw["layer_sizes"][1:]) * raw["timesteps"]
    crossings = sum(int(np.count_nonzero(m)) for m in spike_matrices(raw)[:-1])
    synop = macs * spec["e_mac"] + acs * spec["e_ac"] + crossings * spec["e_layer_crossing"]
    membrane = updates * spec["e_membrane_update"]
    memory = ((READS_PER_MAC * macs + READS_PER_AC * acs) * spec["e_read"]
              + (WRITES_PER_MAC * macs + WRITES_PER_AC * acs) * spec["e_write"])
    duration = raw["timesteps"] * raw["timestep_duration"]
    overhead = (spec["static_power"] * duration
                + spec["adc_energy_per_sample"] * spec["adc_samples_per_inference"]
                + spec["tx_energy_per_bit"] * spec["tx_bits_per_inference"])
    return (synop + membrane + memory) + overhead


def expected_alerts(values: dict[str, float]) -> list[str]:
    fired = []
    for metric, (side, threshold) in ALERT_RULES.items():
        if metric in values:
            value = values[metric]
            if (value < threshold) if side == "below" else (value > threshold):
                fired.append(metric)
    return sorted(fired)


def _snapshot_versions(store: Path, model: str) -> list[str]:
    versions = []
    for line in store.read_text().splitlines():
        rec = json.loads(line)
        if rec["kind"] == "snapshot" and rec["model"] == model:
            versions.append(rec["version"])
    return versions


def _last_base_energy(inputs: Inputs) -> float:
    for line in reversed(inputs.store.read_text().splitlines()):
        rec = json.loads(line)
        if rec["kind"] == "snapshot" and rec["version"] == inputs.last_base_version:
            return rec["values"]["energy_per_inference"]
    raise KeyError(inputs.last_base_version)


def observe(runs: dict[str, VerbRun], raw_trace: dict) -> dict:
    """The pass's outputs that are pinned, and that every pass must repeat."""
    sim = metric_values(runs["simulate"].stdout)
    return {
        "simulate": {key: sim[key] for key in
                     ("acs", "macs", "effective_synops", "membrane_updates",
                      "activation_sparsity")},
        "trace_digest": trace_digest(raw_trace),
        "energy_per_inference": metric_values(runs["estimate"].stdout)["energy_per_inference"],
        "report_exit": runs["report"].code,
        "alerts": sorted(rec["metric"] for rec in records(runs["report"].stdout, "alert")),
    }


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def outputs_digest(runs: dict[str, VerbRun], work: Path) -> str:
    """sha256 of every verb's exit code and stdout, the trace and the store."""
    h = hashlib.sha256()
    for verb, run in runs.items():
        h.update(f"{verb}\0{run.code}\0{run.stdout}\0".encode())
    for path in (trace_path(work), store_path(work)):
        h.update(path.read_bytes() if path.exists() else b"missing")
    return h.hexdigest()


def check_pass(checker: Checker, inputs: Inputs, runs: dict[str, VerbRun], work: Path,
               first: dict | None, pinned: dict | None) -> dict | None:
    """Check one pass; returns what ``observe`` saw, or None if it could not.

    The first pass (``first`` is None) gets every check.  Every later pass
    must repeat it byte for byte, which implies the same checks and costs
    little time between passes.  ``pinned`` holds the reference values when
    the run uses the reference seed.
    """
    for verb in ("simulate", "estimate", "compare", "history"):
        run = runs[verb]
        stderr = f" (exit {run.code}: {run.stderr.strip()[-300:]})" if run.code else ""
        checker.check(f"{verb} exits 0{stderr}", lambda run=run: run.code == 0)
    digest = outputs_digest(runs, work)
    if first is not None:
        checker.check("outputs repeat the first pass byte for byte",
                      lambda: digest == first["outputs_digest"])
        return first
    try:
        raw = json.loads(trace_path(work).read_text())
        spec = json.loads(inputs.hwspec.read_text())
        sim = metric_values(runs["simulate"].stdout)
        est = metric_values(runs["estimate"].stdout)
    except (OSError, ValueError, KeyError) as exc:
        checker.check(f"pass outputs readable: {type(exc).__name__}: {exc}", lambda: False)
        return None
    energy = est.get("energy_per_inference", math.nan)

    checker.check("simulate counts equal the trace's tallies", lambda: all(
        sim[key] == sum(raw["per_timestep"][key]) for key in ("acs", "macs"))
        and sim["membrane_updates"] == sum(raw["per_timestep"]["membrane_updates"]))
    checker.check("energy_per_inference equals the trace priced by the spec",
                  lambda: _close(energy, recomputed_energy(raw, spec), RECOMPUTED_REL_TOL))

    def greenup_ok():
        greenup = metric_values(runs["compare"].stdout)["greenup"]
        return _close(greenup, _last_base_energy(inputs) / energy, PINNED_REL_TOL)

    checker.check("compare greenup is old/new energy", greenup_ok)

    def history_ok():
        (trend,) = records(runs["history"].stdout, "trend")
        series = trend["series"]
        return (trend["metric"] == HISTORY_METRIC
                and len(series) == inputs.base_versions + 1
                and series[-1] == [NEW_VERSION, energy])

    checker.check("history holds every version, ending at the new energy", history_ok)

    def report_ok():
        alerts = sorted(rec["metric"] for rec in records(runs["report"].stdout, "alert"))
        return (alerts == expected_alerts({**sim, **est})
                and runs["report"].code == (4 if alerts else 0))

    checker.check("report alerts and exit code follow the alert rules", report_ok)
    checker.check("store holds N+1 versions, the new one last", lambda: _snapshot_versions(
        store_path(work), inputs.model_name)[inputs.base_versions:] == [NEW_VERSION])

    try:
        seen = observe(runs, raw)
    except (KeyError, ValueError) as exc:
        checker.check(f"pinned outputs present: {type(exc).__name__}: {exc}", lambda: False)
        return None
    if pinned is not None:
        checker.check("simulate counts match the reference",
                      lambda: seen["simulate"] == pinned["simulate"])
        checker.check("trace digest matches the reference",
                      lambda: seen["trace_digest"] == pinned["trace_digest"])
        checker.check("energy_per_inference matches the reference", lambda: _close(
            seen["energy_per_inference"], pinned["energy_per_inference"], PINNED_REL_TOL))
        checker.check("report exit code and alerts match the reference",
                      lambda: (seen["report_exit"], seen["alerts"])
                      == (pinned["report_exit"], pinned["alerts"]))
    return {**seen, "outputs_digest": digest}


def truncated_input(inputs: Inputs, steps: int):
    """The workload's input train cut to its first ``steps`` timesteps."""
    from spikemeter.simulate import AnalogTrain, SpikeTrain, rate_encode

    raw = json.loads(inputs.workload.read_text())
    if raw["kind"] == "rates":
        return rate_encode(raw["values"], steps, inputs.sim_seed)
    if raw["kind"] == "analog":
        return AnalogTrain(np.array(raw["frames"], dtype=np.float64)[:, :steps])
    events = [(n, t) for n, t in raw["events"] if t < steps]
    return SpikeTrain.from_events(raw["layer"], steps, events)


def check_oracle_prefix(checker: Checker, inputs: Inputs, work: Path) -> None:
    from spikemeter.model import load_model
    from spikemeter.oracle import dense_oracle_counts
    from spikemeter.simulate import SimulationConfig

    def prefix_matches():
        raw = json.loads(trace_path(work).read_text())
        steps = min(ORACLE_PREFIX[inputs.name], raw["timesteps"])
        oracle = dense_oracle_counts(load_model(inputs.model), truncated_input(inputs, steps),
                                     SimulationConfig(timesteps=steps))
        mats = spike_matrices(raw)
        spikes_ok = len(mats) == len(oracle.spikes) and all(
            np.array_equal(mat[:, :steps], ref) for mat, ref in zip(mats, oracle.spikes))
        return spikes_ok and all(
            raw["per_timestep"][key][:steps] == getattr(oracle, key).tolist()
            for key in TALLIES)

    checker.check("trace prefix equals the dense oracle", prefix_matches)


def load_reference(name: str, seed: int) -> dict | None:
    ref = json.loads(REFERENCE.read_text())
    return ref["workloads"].get(name) if seed == ref["seed"] else None
