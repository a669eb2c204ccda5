"""spikemeter benchmark: the five verbs a CI job runs on every commit.

    python3 perfbench/run.py --workload {sim-dense,sim-sparse-long,ci-gate}
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it reads the package from ``src/`` and
works under ``.perfbench/``.  Each pass runs ``simulate -> estimate
--record -> compare -> history -> report`` on the workload's generated
inputs (see workloads.py for why each workload exists) and is checked for
correctness (checks.py).  Passes repeat until ``--seconds`` of pass time is
spent, and at least MIN_PASSES times.

``--trace 0`` runs every verb as a cold ``python -m spikemeter`` child and
reports the end-to-end metrics, medians over the passes.  ``--trace 1``
runs the same passes in process through ``spikemeter.cli.main``,
alternating traced and untraced passes, and reports per-layer times and
counts (tracing.py), medians over the traced passes.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The line before it holds the machine description and any failed checks;
both also go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.proc import Launcher  # noqa: E402  (standard library only)

WORKLOADS = ("sim-dense", "sim-sparse-long", "ci-gate")
REFERENCE_SEED = 0
MIN_PASSES = 3
SETUP_REPEATS = 3
STARTUP_PROBES = 5
END_TO_END_UNITS = {
    "setup_s": "s", "simulate_s": "s", "estimate_s": "s", "compare_s": "s",
    "history_s": "s", "report_s": "s", "pass_s": "s", "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "cli.startup_s": "s", "model.load_s": "s", "files.load_workload_s": "s",
    "files.prepare_input_s": "s", "simulate.run_inference_s": "s", "simulate.sops": "count", "simulate.crossings": "count",
    "simulate.layer_steps": "count", "simulate.sops_per_s": "1/s", "files.save_trace_s": "s",
    "files.trace_bytes": "bytes", "files.load_trace_s": "s", "workload.reduce_s": "s",
    "energy.estimate_s": "s", "store.read_s": "s", "store.read_calls": "count",
    "store.parse_ratio": "ratio", "store.append_s": "s", "store.bytes": "bytes",
    "store.trend_s": "s", "report.build_s": "s", "report.render_s": "s", "pass_s.tail": "s",
    "bench.trace_overhead_s": "s",
}


def machine_info() -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(), "commit": commit}


def setup(name: str, seed: int, work: Path, src: Path):
    """Generate the inputs SETUP_REPEATS times; returns them and the median time."""
    from perfbench.workloads import generate

    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = generate(name, seed, work / "inputs", src)
        times.append(time.perf_counter() - start)
    return inputs, statistics.median(times)


def measure_children(launcher: Launcher, inputs, work: Path, seconds: float, checker,
                     pinned) -> dict[str, float]:
    from perfbench import checks, pipeline

    launcher.run_python(["-c", "import spikemeter.cli"], work)  # bytecode cache warm-up
    passes, first, spent = [], None, 0.0
    while len(passes) < MIN_PASSES or spent < seconds:
        runs, pass_s = pipeline.child_pass(launcher, inputs, work)
        spent += pass_s
        passes.append((runs, pass_s))
        seen = checks.check_pass(checker, inputs, runs, work, first, pinned)
        first = first or seen
    checks.check_oracle_prefix(checker, inputs, work)
    out = {f"{verb}_s": statistics.median(runs[verb].seconds for runs, _ in passes)
           for verb in pipeline.VERBS}
    out["pass_s"] = statistics.median(pass_s for _, pass_s in passes)
    out["peak_rss_mb"] = statistics.median(
        max(run.peak_rss_mb for run in runs.values()) for runs, _ in passes)
    return out


def measure_traced(launcher: Launcher, inputs, work: Path, seconds: float, checker,
                   pinned, spans_out: Path) -> dict[str, float]:
    from perfbench import checks, pipeline, tracing

    startup = statistics.median(
        launcher.run_python(["-c", "import spikemeter.cli"], work).seconds
        for _ in range(STARTUP_PROBES))
    import spikemeter.cli  # noqa: F401  (in-process passes start warm)

    tracer = tracing.Tracer()
    traced, plain, first, spent = [], [], None, 0.0
    while len(traced) < MIN_PASSES or spent < seconds:
        for pass_times in (traced, plain):
            tracer.pass_id += 1
            runs, pass_s = pipeline.in_process_pass(
                inputs, work, tracer if pass_times is traced else None)
            spent += pass_s
            pass_times.append((tracer.pass_id, pass_s))
            tracer.count("store.bytes", pipeline.store_path(work).stat().st_size)
            tracer.count("files.trace_bytes", pipeline.trace_path(work).stat().st_size)
            seen = checks.check_pass(checker, inputs, runs, work, first, pinned)
            first = first or seen
    checks.check_oracle_prefix(checker, inputs, work)
    tracer.write(spans_out)

    per_pass = []
    for pass_id, _ in traced:
        metrics = tracing.pass_metrics(tracer, pass_id)
        metrics["store.bytes"] = float(tracer.counts[(pass_id, "store.bytes")])
        metrics["files.trace_bytes"] = float(tracer.counts[(pass_id, "files.trace_bytes")])
        per_pass.append(metrics)
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["cli.startup_s"] = startup
    out["pass_s.tail"] = max(pass_s for _, pass_s in traced)  # the slowest traced pass
    out["bench.trace_overhead_s"] = (statistics.median(s for _, s in traced)
                                     - statistics.median(s for _, s in plain))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "spikemeter" / "__main__.py").is_file():
        print(f"error: no spikemeter package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # Started before this process loads numpy, so children's peak RSS is their own.
    launcher = Launcher(src)
    try:
        work.mkdir(parents=True)
        sys.path.insert(0, str(src))
        from perfbench import checks

        checker = checks.Checker()
        inputs, setup_s = setup(args.workload, args.seed, work, src)
        pinned = checks.load_reference(args.workload, args.seed)
        if args.trace:
            metrics = measure_traced(launcher, inputs, work, args.seconds, checker, pinned,
                                     results / f"spans-{tag}.jsonl")
            units = PER_LAYER_UNITS
        else:
            metrics = measure_children(launcher, inputs, work, args.seconds, checker, pinned)
            metrics["setup_s"] = setup_s
            metrics["ok_ratio"] = 1.0 - checker.failed / checker.attempted
            units = END_TO_END_UNITS
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine_info(), "failures": checker.failures}
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }
    (results / f"{tag}.json").write_text(json.dumps({**info, **result}, indent=1) + "\n")
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
