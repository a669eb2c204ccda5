"""Command-line surface: simulate -> analyze -> estimate -> compare ->
history -> report.

Exit codes: 0 success; 2 input or validation error; 3 a requested metric
lacks required hardware-spec fields; 4 an actionability alert fired (report
only), so CI can gate on energy regressions.

Start-up rule: a verb loads only the package modules it uses, so the CI
gate pays for no import it does not need.  Besides this module:

* ``history`` and ``report`` load ``catalog``, ``fields``, ``store`` and
  ``report``;
* ``compare`` loads those and ``compare``;
* ``estimate --counts`` loads those, ``compare``, ``energy`` and
  ``workload``, and still no numpy;
* ``estimate --trace`` loads those and ``files``, whose trace reader is
  pure Python, and still no numpy;
* only ``simulate`` and ``analyze`` load numpy, with ``model`` and, to
  simulate, ``files``, ``rng`` and ``simulate``.

So this module imports only ``catalog``, ``fields``, ``store`` and
``report`` at top level (``MissingSpecError`` lives in ``catalog`` for that),
and each verb imports the rest when it runs.  Keep ``files``, ``model`` and
``simulate`` out of the top-level imports of ``compare``, ``energy``,
``report``, ``store`` and ``workload`` too, and numpy, ``model`` and
``simulate`` out of those of ``files``.  ``tests/test_lazy_imports.py``
checks each verb's module set in a child process.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Annotated

from . import report as rpt, store as st
from .catalog import (ALERT_RULES, CLASS_TAGS, RECORDED_QUANTITIES, SPARSITY_THRESHOLD,
                      UNITS_AND_TAGS, AlertRule, MissingSpecError)
from .fields import check, load_json, optional, read_field, read_record, within

if TYPE_CHECKING:
    from . import compare as cmp, workload as wl
    from .model import ModelDescriptor

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISSING_SPEC = 3
EXIT_ALERT = 4

STORE_ENV_VAR = "SPIKEMETER_STORE"

EXTRA_METRICS = (
    "power_density",
    "energy_per_sop",
    "energy_area_fom",
    "estimated_battery_life",
    "inferences_per_battery_cycle",
)


def _emit_metrics(rows: list[tuple], fmt: str, units: dict[str, str] | None = None) -> None:
    """Print ``rows`` of key, value and an optional note, each with the unit
    and provenance tag the catalog gives its key; ``units`` overrides a unit
    with the one a store holds."""
    units = units or {}
    for key, value, *note in rows:
        unit, tag = UNITS_AND_TAGS[key]
        unit = units.get(key, unit)
        if fmt == "jsonl":
            record = dict(record="metric", key=key, value=value, unit=unit, provenance=tag)
            if note:  # an empty note is still printed
                record["note"] = note[0]
            print(rpt.json_line(record))
        else:
            unit = f" {unit}" if unit else ""
            note = f"  # {note[0]}" if note and note[0] else ""
            print(f"{key} = {value:.12g}{unit} [{tag}]{note}")


def _static_metrics(m: ModelDescriptor) -> dict[str, float]:
    from . import model as mdl

    params = mdl.count_parameters(m)
    out = {
        "parameters": float(params.total),
        "parameters_trainable": float(params.trainable),
        "parameters_non_trainable": float(params.non_trainable),
        "memory_footprint": float(mdl.memory_footprint(m)),
    }
    try:
        out["connection_sparsity"] = mdl.connection_sparsity(m)
    except mdl.ModelValidationError:
        pass  # input-only model has no connections
    return out


def _record(store: str, values: dict[str, float], **snapshot) -> dict[str, str]:
    """Snapshot ``values``; the catalog tags every value, and the tool's
    quantities the store does not know yet are registered, with the
    catalog's unit, in the same append.  Returns the unit the store holds for
    each of the tool's quantities recorded."""
    tool_keys = [key for key in RECORDED_QUANTITIES if key in values]
    registered = st.record_snapshot(
        store,
        st.MetricSnapshot(values=values, **snapshot,
                          provenance={key: UNITS_AND_TAGS[key][1] for key in tool_keys}),
        register=[st.CustomMetric(key, unit=UNITS_AND_TAGS[key][0]) for key in tool_keys],
    )
    return {key: registered[key].unit for key in tool_keys}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def run_inference(*args, **kwargs):
    """``simulate.run_inference``, imported on first call.  ``cmd_simulate``
    looks this name up in the module when it runs, so a wrapper set on
    ``cli.run_inference`` (a tracer, say) sees every simulation."""
    from .simulate import run_inference

    return run_inference(*args, **kwargs)


def _option(name: str, value, rule):
    """``value``, given as option ``name``, read by ``rule``; a value the rule
    refuses raises a ValueError that names the option."""
    return read_field({name: value}, name, rule, "option", ValueError)


def cmd_simulate(args: argparse.Namespace) -> int:
    rule = _option("--sparsity-threshold", args.sparsity_threshold, ALERT_RULES["sparsity"].at)
    timesteps = _option("--timesteps", args.timesteps, optional(within(1)))
    duration = _option("--timestep-duration", args.timestep_duration, within(0, open_lo=True))
    from . import files, model as mdl, rng, workload as wl
    from .simulate import SimulationConfig

    rng.check_seed(args.seed)  # before the model and workload load
    m = mdl.load_model(args.model)
    workload = files.load_workload(args.workload)
    if workload.timesteps is not None:
        if timesteps is not None and timesteps != workload.timesteps:
            raise files.WorkloadFileError(
                f"--timesteps {timesteps} conflicts with workload file "
                f"({workload.timesteps})"
            )
        timesteps = workload.timesteps
    if timesteps is None:
        raise files.WorkloadFileError("rates workloads need --timesteps")
    config = SimulationConfig(
        timesteps=timesteps,
        seed=args.seed,
        timestep_duration=duration,
    )
    train = files.prepare_input(workload, config)
    del workload  # its decoded lists, 8 MB per 10^6 frame entries of +0.0, go before the run
    trace = run_inference(m, train, config)
    counts = replace(trace.counts, static_metrics=_static_metrics(m))

    ops = wl.effective_synops(counts)
    mem = wl.memory_accesses(ops)
    sparsity = wl.activation_sparsity(counts).activation_sparsity

    rows = [
        ("acs", float(ops.acs)),
        ("macs", float(ops.macs)),
        ("effective_synops", float(ops.total_sops)),
        ("membrane_updates", float(ops.membrane_updates_effective)),
        ("membrane_updates_dense", float(ops.membrane_updates_dense)),
        ("memory_reads", float(mem.reads)),
        ("memory_writes", float(mem.writes)),
        ("activation_sparsity", sparsity),
        ("duration", counts.duration),
    ]
    if args.trace_out:  # before printing: a failed save prints nothing
        files.save_trace(replace(trace, counts=counts), args.trace_out)
    _emit_metrics(rows, args.format)
    if rule.violated(sparsity):
        note = (f"activation sparsity {sparsity:.4f} is below {rule.threshold:.2f}; the model "
                "is too dense to exploit event-driven execution")
        if args.format == "jsonl":
            print(rpt.json_line({"record": "note", "text": note}))
        else:
            print(f"note: {note}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import model as mdl

    m = mdl.load_model(args.model)
    values = _static_metrics(m)
    units = None
    if args.record:  # print the units the store holds, custom ones included
        units = _record(_require_store(args), values, model_name=m.name,
                        version=args.version or m.version, timestamp=args.timestamp)
    _emit_metrics(list(values.items()), args.format, units)
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountsFile:
    """The ``estimate --counts`` file (a training pass, say); every key is optional."""

    macs: Annotated[int, within(0)] = 0
    acs: Annotated[int, within(0)] = 0
    membrane_updates_effective: Annotated[int, within(0)] = 0
    membrane_updates_dense: Annotated[int, within(0)] | None = None  # default: the effective
    leak_macs: Annotated[int, within(0)] = 0
    crossings: Annotated[int, within(0)] = 0
    duration: Annotated[float, within(0, open_lo=True)] | None = None  # s; --duration overrides

    def __post_init__(self) -> None:
        check(self, "counts file", ValueError)


def _load_counts(path: str) -> tuple[wl.OpCounts, int, float | None]:
    from . import workload as wl

    raw = load_json(path, "counts file", ValueError)
    c = read_record(CountsFile, raw, "counts file", ValueError)
    effective, dense = c.membrane_updates_effective, c.membrane_updates_dense
    ops = wl.OpCounts(c.macs, c.acs, effective, effective if dense is None else dense, c.leak_macs)
    return ops, c.crossings, c.duration


def cmd_estimate(args: argparse.Namespace) -> int:
    rate, duration = (_option(name, value, optional(within(0, open_lo=True)))
                      for name, value in (("--inference-rate", args.inference_rate),
                                          ("--duration", args.duration)))
    if args.trace and duration is not None:
        raise ValueError("option '--duration' applies to --counts input only; "
                         "a trace carries its own duration")
    from . import compare as cmp, energy as en, workload as wl

    spec = en.load_hardware_spec(args.hwspec)
    trace = None
    if args.trace:
        from . import files

        trace = files.load_trace(args.trace)
        ops = wl.effective_synops(trace)
        crossings = sum(trace.crossings)
        duration = trace.duration
    else:
        ops, crossings, file_duration = _load_counts(args.counts)
        duration = duration if duration is not None else file_duration
        if duration is None:
            raise ValueError("--counts input needs --duration (or a duration field)")
    include_leak = not args.exclude_leak_macs
    mem = wl.memory_accesses(ops, include_leak_macs=include_leak)
    breakdown = en.estimate_energy(ops, mem, spec, duration, crossings=crossings)
    power = en.average_power(breakdown)
    edp = cmp.energy_delay_product(breakdown.total, duration)

    rows = [
        ("synop_energy", breakdown.model.synop_energy),
        ("membrane_energy", breakdown.model.membrane_energy),
        ("memory_energy", breakdown.model.memory_energy),
        ("model_total", breakdown.model.model_total),
        ("static_energy", breakdown.overhead.static_energy),
        ("adc_energy", breakdown.overhead.adc_energy),
        ("tx_energy", breakdown.overhead.tx_energy),
        ("overhead_total", breakdown.overhead.overhead_total),
        ("energy_per_inference", breakdown.total),
        ("average_power", power),
        ("energy_delay_product", edp),
    ]

    requested = EXTRA_METRICS if args.metrics == "auto" else tuple(
        name.strip() for name in args.metrics.split(",") if name.strip()
    )
    unknown = set(requested) - set(EXTRA_METRICS)
    if unknown:
        raise ValueError(f"unknown metrics requested: {sorted(unknown)}")
    for name in requested:
        try:
            if name == "power_density":
                density = en.power_density(power, spec)
                limit = spec.power_density_rule
                rows.append((name, density,
                             ("VIOLATION of limit" if limit.violated(density) else "within limit")
                             + f" {limit.threshold:g} mW/cm^2"))
            elif name == "energy_per_sop":
                if trace is None or ops.total_sops == 0:
                    raise MissingSpecError(
                        "energy_per_sop needs a trace with at least one synaptic op"
                    )
                sop = en.energy_per_sop(
                    breakdown, ops, trace, spec, include_leak_macs=include_leak
                )
                rows.append((name, sop.average_pj_per_sop))
                rows.append(("peak_window_power", sop.peak_window_power_w,
                             "hottest single-timestep window"))
            elif name == "energy_area_fom":
                fom = en.energy_area_fom(power, spec)
                rows.append((name, fom.value, f"assumed formula: {fom.formula}"))
            elif name == "estimated_battery_life":
                years = cmp.estimated_battery_life(power, spec)
                target = ALERT_RULES["battery_years"]
                rows.append((name, years, ("MISSES" if target.violated(years) else "meets")
                             + f" {target.threshold:g}-year target"))
            elif name == "inferences_per_battery_cycle":
                budget = cmp.inferences_per_battery_cycle(
                    breakdown.total, spec, inference_rate_hz=rate
                )
                note = ""
                if budget.duty_cycled is not None:
                    note = f"duty-cycled at {rate:g} Hz: {budget.duty_cycled}"
                rows.append((name, float(budget.idealized), note))
        except MissingSpecError:
            if args.metrics != "auto":
                raise

    if args.record:  # before printing: a refused record prints nothing
        store = _require_store(args)
        model_name = args.model_name or (trace.model_name if trace else "")
        version = args.version or (trace.model_version if trace else "")
        if not model_name or not version:
            raise ValueError("--record needs --model-name/--version (or a trace that carries them)")
        values: dict[str, float] = {}
        if trace is not None:
            values.update(trace.static_metrics)
            values["activation_sparsity"] = wl.activation_sparsity(trace).activation_sparsity
        values["effective_synops"] = float(ops.total_sops)
        values["membrane_updates"] = float(ops.membrane_updates_effective)
        values["memory_accesses"] = float(mem.total)
        values["execution_time"] = duration
        values.update((key, value) for key, value, *_ in rows if key in CLASS_TAGS)
        _record(store, values, model_name=model_name, version=version,
                accuracy=args.accuracy, timestamp=args.timestamp)
    _emit_metrics(rows, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _measurement_from_store(data: st.StoreData, model: str, version: str) -> cmp.VersionMeasurement:
    from . import compare as cmp

    record = data.find(model, version)
    if record is None:
        raise ValueError(f"version {version!r} not found for model {model!r} in store")
    energy, duration = (st.pick_value(record.values.get(key, {}), key, None)
                        for key in ("energy_per_inference", "execution_time"))
    if energy is None or duration is None:
        raise ValueError(
            f"version {version!r} lacks energy_per_inference or execution_time values"
        )
    return cmp.VersionMeasurement(
        version=version, energy=energy, time=duration, accuracy=record.accuracy
    )


def cmd_compare(args: argparse.Namespace) -> int:
    from . import compare as cmp

    if args.old is not None or args.new is not None:
        if not (args.old and args.new):
            raise ValueError("--old and --new must be given together")
        data = st.read_store(_require_store(args))
        old = _measurement_from_store(data, args.model, args.old)
        new = _measurement_from_store(data, args.model, args.new)
    else:
        if args.old_energy is None or args.old_time is None or \
                args.new_energy is None or args.new_time is None:
            raise ValueError(
                "inline comparison needs --old-energy/--old-time/--new-energy/--new-time"
            )
        old = cmp.VersionMeasurement("old", args.old_energy, args.old_time, args.old_accuracy)
        new = cmp.VersionMeasurement("new", args.new_energy, args.new_time, args.new_accuracy)

    s = cmp.speedup(old, new, as_published=args.as_published)
    g = cmp.greenup(old, new, as_published=args.as_published)
    p = cmp.powerup(s, g)
    orientation = "new/old (as published)" if args.as_published else "old/new (>1 improves)"
    rows = [
        ("speedup", s, f"orientation {orientation}"),
        ("greenup", g, f"orientation {orientation}"),
        ("powerup", p, "(>1 means more average power)" if not args.as_published else ""),
        ("energy_delay_product_old", cmp.energy_delay_product(old.energy, old.time)),
        ("energy_delay_product_new", cmp.energy_delay_product(new.energy, new.time)),
    ]
    if old.accuracy is not None and new.accuracy is not None:
        tradeoff = cmp.accuracy_energy_tradeoff(old, new)
        rows.append(("efficiency_ratio_old", tradeoff.efficiency_ratio_old))
        rows.append(("efficiency_ratio_new", tradeoff.efficiency_ratio_new))
        if tradeoff.marginal_energy_cost is not None:
            rows.append(("marginal_energy_cost", tradeoff.marginal_energy_cost))
        elif tradeoff.accuracy_regressed:
            rows.append(("accuracy_regressed", 1.0, "accuracy went down"))
        else:
            rows.append(("accuracy_unchanged", 1.0))
    _emit_metrics(rows, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# history / report
# ---------------------------------------------------------------------------


def cmd_history(args: argparse.Namespace) -> int:
    data = st.read_store(_require_store(args))
    trend = st.trend_report(data, args.model, args.metric, provenance=args.provenance)
    if args.format == "jsonl":
        print(rpt.json_line(trend))
    else:
        series = " -> ".join(f"{v}={x:.12g}" for v, x in trend["series"])
        print(f"{trend['metric']} [{trend['unit']}]: {series}")
        for d in trend["deltas"]:
            pct = f"{d['percent']:+.2f}%" if d["percent"] is not None else "n/a"
            print(f"  {d['from']} -> {d['to']}: {d['absolute']:+.12g} ({pct})")
        print(f"direction: {trend['direction']}")
    return EXIT_OK


def _parse_limit_overrides(text: str | None) -> tuple[AlertRule, ...]:
    """The alert rules, each at the threshold ``text`` gives its key, if any:
    ``key=value`` parts, comma-separated, each key one of ALERT_RULES's and
    given at most once."""
    overrides = {}
    for part in (text or "").split(","):
        if not part.strip():
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in ALERT_RULES:
            raise ValueError(
                f"unknown limit override {key!r}; expected one of {sorted(ALERT_RULES)}"
            )
        if key in overrides:
            raise ValueError(f"limit override {key!r} is given more than once")
        try:
            value = float(value)
        except ValueError:
            pass  # the number rule refuses the text, naming the key
        overrides[key] = read_field({key: value}, key, ALERT_RULES[key].at, "limit override",
                                    ValueError)
    return tuple(overrides.get(key, rule) for key, rule in ALERT_RULES.items())


def cmd_report(args: argparse.Namespace) -> int:
    rules = _parse_limit_overrides(args.limit_overrides)
    records = rpt.build_report(_require_store(args), args.model, rules)
    sys.stdout.write(rpt.RENDERERS[args.format](records))
    return EXIT_ALERT if records[0]["alert_count"] else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _require_store(args: argparse.Namespace) -> str:
    store = args.store or os.environ.get(STORE_ENV_VAR)
    if not store:
        raise ValueError(f"no store given (use --store or ${STORE_ENV_VAR})")
    return store


def _add_store_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--store", help=f"trend store path (default ${STORE_ENV_VAR})")


def _add_format_arg(p: argparse.ArgumentParser, choices=("text", "jsonl")) -> None:
    p.add_argument("--format", choices=choices, default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikemeter",
        description="Energy metrics for spiking neural network workloads",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run an inference and print workload metrics")
    p.add_argument("--model", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--timesteps", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timestep-duration", type=float, default=1e-3, help="seconds")
    p.add_argument("--sparsity-threshold", type=float, default=SPARSITY_THRESHOLD)
    p.add_argument("--trace-out", help="write the full trace to this file")
    _add_format_arg(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="static model metrics")
    p.add_argument("--model", required=True)
    _add_format_arg(p)
    _add_store_arg(p)
    p.add_argument("--record", action="store_true", help="record a snapshot")
    p.add_argument("--version", help="snapshot version (default: model version)")
    p.add_argument("--timestamp", type=float, help="snapshot timestamp override")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("estimate", help="estimate energy from a trace or counts")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace")
    src.add_argument("--counts", help="JSON op-counts file (for learning passes etc.)")
    p.add_argument("--hwspec", required=True)
    p.add_argument("--duration", type=float, help="seconds (counts input)")
    p.add_argument(
        "--metrics",
        default="auto",
        help="comma list of extras to require, or 'auto' "
        f"(choices: {', '.join(EXTRA_METRICS)})",
    )
    p.add_argument("--exclude-leak-macs", action="store_true",
                   help="derive memory traffic from synaptic ops only")
    p.add_argument("--inference-rate", type=float,
                   help="Hz, enables the duty-cycled battery budget")
    _add_format_arg(p)
    _add_store_arg(p)
    p.add_argument("--record", action="store_true")
    p.add_argument("--model-name")
    p.add_argument("--version")
    p.add_argument("--accuracy", type=float)
    p.add_argument("--timestamp", type=float)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("compare", help="speedup/greenup/powerup between versions")
    _add_store_arg(p)
    p.add_argument("--model")
    p.add_argument("--old", help="old version in the store")
    p.add_argument("--new", help="new version in the store")
    p.add_argument("--old-energy", type=float)
    p.add_argument("--old-time", type=float)
    p.add_argument("--old-accuracy", type=float)
    p.add_argument("--new-energy", type=float)
    p.add_argument("--new-time", type=float)
    p.add_argument("--new-accuracy", type=float)
    p.add_argument("--as-published", action="store_true",
                   help="report new/old ratios instead of old/new")
    _add_format_arg(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("history", help="trend of one metric across versions")
    _add_store_arg(p)
    p.add_argument("--model", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--provenance", choices=st.PROVENANCE_TAGS)
    _add_format_arg(p)
    p.set_defaults(func=cmd_history)

    p = sub.add_parser("report", help="full metric report with alerts")
    _add_store_arg(p)
    p.add_argument("--model", required=True)
    p.add_argument("--limit-overrides",
                   help="e.g. sparsity=0.5,power_density=20,battery_years=5")
    _add_format_arg(p, choices=tuple(rpt.RENDERERS))
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MissingSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_SPEC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
