"""In-process tracing of spikemeter's public entry points, from outside.

Each entry point is wrapped at the name its caller looks up (``cli`` calls
``run_inference`` through its own namespace, ``report`` calls its own
imported ``read_store``), so no code in the package changes.  Spans stay in
memory -- name, start, end, parent, pass id -- and are written out once the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[tuple[int, str]] = Counter()  # (pass id, name) -> count
        self.pass_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = Span(len(self.spans), name, time.perf_counter(), float("nan"),
                    self._stack[-1] if self._stack else None, self.pass_id)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def count(self, name: str, amount: float) -> None:
        self.counts[(self.pass_id, name)] += amount

    def write(self, path: Path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps({**asdict(span), "self": selfs[span.id]}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = span.duration - covered
    return out


# Entry points to wrap: (module, attribute, span name).  A function that
# more than one module imports by name is wrapped in each of them.
ENTRY_POINTS = (
    ("model", "load_model", "model.load_model"),
    ("files", "load_workload", "files.load_workload"),
    ("files", "prepare_input", "files.prepare_input"),
    ("files", "rate_encode", "simulate.rate_encode"),
    ("cli", "run_inference", "simulate.run_inference"),
    ("files", "save_trace", "files.save_trace"),
    ("files", "load_trace", "files.load_trace"),
    ("workload", "effective_synops", "workload.effective_synops"),
    ("workload", "memory_accesses", "workload.memory_accesses"),
    ("workload", "activation_sparsity", "workload.activation_sparsity"),
    ("energy", "load_hardware_spec", "energy.load_hardware_spec"),
    ("energy", "estimate_energy", "energy.estimate_energy"),
    ("energy", "average_power", "energy.average_power"),
    ("energy", "power_density", "energy.power_density"),
    ("energy", "energy_per_sop", "energy.energy_per_sop"),
    ("energy", "energy_area_fom", "energy.energy_area_fom"),
    ("store", "read_store", "store.read_store"),
    ("report", "read_store", "store.read_store"),
    ("store", "register_metric", "store.register_metric"),
    ("store", "record_snapshot", "store.record_snapshot"),
    ("store", "trend_report", "store.trend_report"),
    ("report", "trend_report", "store.trend_report"),
    ("report", "build_report", "report.build_report"),
)


def _count_inference(tracer: Tracer, trace) -> None:
    tracer.count("simulate.sops", trace.total_acs + trace.total_macs)
    tracer.count("simulate.crossings", trace.total_crossings)
    tracer.count("simulate.layer_steps", trace.timesteps * (len(trace.layer_sizes) - 1))


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every entry point, and each report renderer, for the block."""
    targets = [(importlib.import_module(f"spikemeter.{module}"), attr, span_name)
               for module, attr, span_name in ENTRY_POINTS]
    originals = [getattr(module, attr) for module, attr, _ in targets]
    renderers = importlib.import_module("spikemeter.report").RENDERERS
    original_renderers = dict(renderers)
    try:
        for (module, attr, span_name), fn in zip(targets, originals):
            hook = _count_inference if span_name == "simulate.run_inference" else None
            setattr(module, attr, tracer.wrap(span_name, fn, hook))
        for fmt, fn in original_renderers.items():
            renderers[fmt] = tracer.wrap("report.render", fn)
        yield tracer
    finally:
        for (module, attr, _), fn in zip(targets, originals):
            setattr(module, attr, fn)
        renderers.update(original_renderers)


# Per-layer times: metric -> (span names, whether to sum self time rather
# than whole durations).  Self time keeps a caller's figure from counting
# the store reads it made.  Rate encoding has its own spans but no metric of
# its own: on the analog and spike workloads it would read 0 on every run.
LAYER_TIMES = {
    "model.load_s": (("model.load_model",), False),
    "files.load_workload_s": (("files.load_workload",), False),
    "files.prepare_input_s": (("files.prepare_input",), False),  # includes rate encoding
    "simulate.run_inference_s": (("simulate.run_inference",), False),
    "files.save_trace_s": (("files.save_trace",), False),
    "files.load_trace_s": (("files.load_trace",), False),
    "workload.reduce_s": (tuple(n for _, _, n in ENTRY_POINTS if n.startswith("workload.")),
                          False),
    "energy.estimate_s": (tuple(n for _, _, n in ENTRY_POINTS if n.startswith("energy.")),
                          False),
    "store.read_s": (("store.read_store",), False),
    "store.append_s": (("store.register_metric", "store.record_snapshot"), True),
    "store.trend_s": (("store.trend_report",), True),
    "report.build_s": (("report.build_report",), True),
    "report.render_s": (("report.render",), False),
}
VERB_PREFIX = "cli."


def pass_metrics(tracer: Tracer, pass_id: int) -> dict[str, float]:
    """Per-layer times and counts of one traced pass.

    The bench opens a ``cli.<verb>`` span around each verb; a verb that
    reads the store at all counts once toward ``store.parse_ratio``.
    """
    spans = [s for s in tracer.spans if s.pass_id == pass_id]
    selfs = self_times(spans)
    out = {}
    for metric, (names, use_self) in LAYER_TIMES.items():
        out[metric] = float(sum(selfs[s.id] if use_self else s.duration
                                for s in spans if s.name in names))
    by_id = {s.id: s for s in spans}
    reads = [s for s in spans if s.name == "store.read_store"]
    verbs_reading = set()
    for span in reads:
        while span.parent is not None and not span.name.startswith(VERB_PREFIX):
            span = by_id[span.parent]
        verbs_reading.add(span.id)
    out["store.read_calls"] = float(len(reads))
    out["store.parse_ratio"] = len(verbs_reading) / len(reads) if reads else 1.0
    for name in ("simulate.sops", "simulate.crossings", "simulate.layer_steps"):
        out[name] = float(tracer.counts[(pass_id, name)])
    run_s = out["simulate.run_inference_s"]
    out["simulate.sops_per_s"] = out["simulate.sops"] / run_s if run_s > 0 else 0.0
    return out
