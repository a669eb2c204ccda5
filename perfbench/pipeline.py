"""The five-verb pass a CI job runs on every commit:
``simulate -> estimate --record -> compare -> history -> report``.

A pass runs either as cold ``python -m spikemeter`` children (the measured
path) or in process through ``spikemeter.cli.main`` (the traced path).
Every pass starts from a fresh copy of the base store and no trace file.
"""

from __future__ import annotations

import io
import shutil
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from perfbench.proc import Launcher, VerbRun
from perfbench.tracing import VERB_PREFIX, Tracer, instrument
from perfbench.workloads import NEW_VERSION, Inputs

VERBS = ("simulate", "estimate", "compare", "history", "report")
HISTORY_METRIC = "energy_per_inference"


def trace_path(work: Path) -> Path:
    return work / "trace.json"


def store_path(work: Path) -> Path:
    return work / "store.jsonl"


def verb_argv(inputs: Inputs, work: Path) -> list[tuple[str, list[str]]]:
    """(verb, argv) for one pass; ``work`` holds this pass's trace and store."""
    trace, store = str(trace_path(work)), str(store_path(work))
    model = inputs.model_name
    return [
        ("simulate", ["simulate", "--model", str(inputs.model),
                      "--workload", str(inputs.workload), "--seed", str(inputs.sim_seed),
                      "--trace-out", trace, "--format", "jsonl"]),
        ("estimate", ["estimate", "--trace", trace, "--hwspec", str(inputs.hwspec),
                      "--store", store, "--record", "--version", NEW_VERSION,
                      "--timestamp", repr(inputs.record_timestamp), "--format", "jsonl"]),
        ("compare", ["compare", "--store", store, "--model", model,
                     "--old", inputs.last_base_version, "--new", NEW_VERSION,
                     "--format", "jsonl"]),
        ("history", ["history", "--store", store, "--model", model,
                     "--metric", HISTORY_METRIC, "--format", "jsonl"]),
        ("report", ["report", "--store", store, "--model", model, "--format", "jsonl"]),
    ]


def _reset(inputs: Inputs, work: Path) -> None:
    trace_path(work).unlink(missing_ok=True)
    shutil.copyfile(inputs.store, store_path(work))


def child_pass(launcher: Launcher, inputs: Inputs, work: Path) -> tuple[dict[str, VerbRun], float]:
    """One pass of cold children; returns each verb's run and the pass's wall time."""
    _reset(inputs, work)
    start = time.perf_counter()
    runs = {verb: launcher.run_verb(argv, work) for verb, argv in verb_argv(inputs, work)}
    return runs, time.perf_counter() - start


def _call_main(argv: list[str]) -> VerbRun:
    from spikemeter import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code if isinstance(exc.code, int) else 2
    return VerbRun(code=code, seconds=time.perf_counter() - start,
                   stdout=out.getvalue(), stderr=err.getvalue())


def in_process_pass(inputs: Inputs, work: Path,
                    tracer: Tracer | None) -> tuple[dict[str, VerbRun], float]:
    """One pass through ``cli.main``, traced when ``tracer`` is given."""
    _reset(inputs, work)
    runs = {}
    start = time.perf_counter()
    with instrument(tracer) if tracer else nullcontext():
        for verb, argv in verb_argv(inputs, work):
            with tracer.span(VERB_PREFIX + verb) if tracer else nullcontext():
                runs[verb] = _call_main(argv)
    return runs, time.perf_counter() - start
