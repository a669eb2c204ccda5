"""Report assembly and rendering.

A report gathers, for one model, the latest recorded value of every metric
(one entry per provenance, so an estimated and a measured figure for the
same metric stay side by side), the actionability alerts, and trend
sections for the trend-based metrics.  The report is its jsonl records:
:func:`build_report` returns them in order, the alert and trend records as
the store builds them, and the csv, markdown and text renderers format
those records and read nothing else, so every format renders identical
values; every numeric entry carries its unit, provenance tag and the
metric's four-property classification.
"""

from __future__ import annotations

import csv as csv_module
import io
import json
from collections import defaultdict

from .catalog import AlertRule, find_metric
from .store import (
    PROVENANCE_TAGS,
    InsufficientHistoryError,
    StoreData,
    evaluate_alerts,
    pick_value,
    read_store,
    trend_report,
)

CONVENTIONS = (
    "ratio metrics divide old by new: speedup/greenup > 1 means the new version "
    "improved, powerup > 1 means it draws more average power",
    "values tagged 'estimated' are priced from the hardware spec, not measured",
    "activation sparsity counts silent non-input neuron-timesteps",
)

# A metric record's four-property classification, as the catalog states it;
# None for a custom metric.
FLAGS = ("accessible", "high_fidelity", "actionable", "trend_based")


def _about(key: str, data: StoreData) -> dict:
    """What a metric record says of its metric besides the value: from the
    catalog descriptor, or from the registration of a custom metric."""
    descriptor = find_metric(key)
    if descriptor is None:  # the store holds no value of a metric neither built in nor registered
        custom = data.registered[key]
        return {"name": custom.name, "unit": custom.unit, **dict.fromkeys(FLAGS),
                "assumes_estimation": False}
    return {"name": descriptor.name, "unit": descriptor.unit,
            "accessible": descriptor.accessibility, "high_fidelity": descriptor.high_fidelity,
            "actionable": descriptor.actionability, "trend_based": descriptor.trend_based,
            "assumes_estimation": descriptor.assumes_estimation}


def build_report(
    store_path, model: str, rules: tuple[AlertRule, ...] | None = None
) -> list[dict]:
    """The report for a model from its store history, as its jsonl records
    in order: one ``report`` header, the ``convention`` notes, then the
    ``metric``, ``alert``, ``alert_skipped`` and ``trend`` records.

    An empty history yields a header and the conventions alone.
    """
    data = read_store(store_path)
    history = data.history(model)
    metrics: list[dict] = []
    alerts: list[dict] = []
    trends: list[dict] = []
    if history:
        latest = history[-1]
        for key in sorted(latest.values):
            about, by_provenance = _about(key, data), latest.values[key]
            metrics += [{"record": "metric", "key": key, "value": float(by_provenance[tag]),
                         "provenance": tag, **about}
                        for tag in PROVENANCE_TAGS if tag in by_provenance]
        alerts = evaluate_alerts(
            {key: pick_value(by_provenance, find_metric(key), None)
             for key, by_provenance in latest.values.items()},
            rules,
        )
        for key in dict.fromkeys(key for record in history for key in record.values):
            descriptor = find_metric(key)
            if descriptor is None or descriptor.trend_based:  # every custom metric trends
                try:
                    trends.append(trend_report(data, model, key))
                except InsufficientHistoryError:
                    continue
        trends.sort(key=lambda t: t["metric"])
    return [
        {"record": "report", "model": model, "version": history[-1].version if history else None,
         "metrics": len(metrics),
         "alert_count": sum(alert["record"] == "alert" for alert in alerts)},
        *({"record": "convention", "text": text} for text in CONVENTIONS),
        *metrics,
        *alerts,
        *trends,
    ]


# ---------------------------------------------------------------------------
# Renderers: each takes build_report's records and reads nothing else
# ---------------------------------------------------------------------------


def _flag(value: bool | None) -> str:
    if value is None:
        return "-"
    return "yes" if value else "no"


def _by_kind(records: list[dict]) -> defaultdict[str, list[dict]]:
    """The records grouped by kind, each group in report order."""
    groups = defaultdict(list)
    for record in records:
        groups[record["record"]].append(record)
    return groups


def _alert_message(a: dict) -> str:
    relation = "<" if a["comparison"] == "below" else ">"
    unit = f" {a['unit']}" if a["unit"] else ""
    return f"{a['metric']} = {a['value']:g}{unit} {relation} {a['threshold']:g}: {a['rationale']}"


def _series(t: dict) -> str:
    return " -> ".join(f"{v}={x:g}" for v, x in t["series"])


def json_line(obj: dict) -> str:
    """One compact JSONL record with sorted keys, as every jsonl output writes it."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def render_jsonl(records: list[dict]) -> str:
    return "".join(json_line(record) + "\n" for record in records)


CSV_COLUMNS = (
    "record",
    "metric",
    "name",
    "value",
    "unit",
    "provenance",
    *FLAGS,
    "threshold",
    "direction",
    "detail",
)

# csv columns of each record kind that has a row; the rest stay empty
_CSV_ROWS = {
    "metric": lambda m: {"metric": m["key"], "name": m["name"], "value": repr(m["value"]),
                         "unit": m["unit"], "provenance": m["provenance"],
                         **{flag: _flag(m[flag]) for flag in FLAGS}},
    "alert": lambda a: {"metric": a["metric"], "value": repr(a["value"]), "unit": a["unit"],
                        "threshold": repr(a["threshold"]), "detail": a["rationale"]},
    "trend": lambda t: {"metric": t["metric"], "unit": t["unit"], "direction": t["direction"],
                        "detail": ";".join(f"{v}:{x!r}" for v, x in t["series"])},
}


def render_csv(records: list[dict]) -> str:
    out = io.StringIO()
    writer = csv_module.DictWriter(out, CSV_COLUMNS, restval="", lineterminator="\n")
    writer.writeheader()
    for record in records:
        row = _CSV_ROWS.get(record["record"])
        if row is not None:
            writer.writerow({"record": record["record"], **row(record)})
    return out.getvalue()


def render_markdown(records: list[dict]) -> str:
    groups = _by_kind(records)
    head = groups["report"][0]
    lines = [f"# Energy report: {head['model']} {head['version'] or '(no snapshots)'}", ""]
    if groups["metric"]:
        lines += [
            "| metric | value | unit | provenance | accessible | high fidelity | actionable | trend-based |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for m in groups["metric"]:
            flags = " | ".join(_flag(m[flag]) for flag in FLAGS)
            lines.append(f"| {m['name']} | {m['value']:g} | {m['unit']} | {m['provenance']} "
                         f"| {flags} |")
        lines.append("")
    if groups["alert"]:
        lines.append("## Alerts")
        lines += [f"- **{a['metric']}**: {_alert_message(a)}" for a in groups["alert"]]
        lines.append("")
    if groups["trend"]:
        lines.append("## Trends")
        lines += [f"- {t['metric']}: {_series(t)} ({t['direction']})"
                  for t in groups["trend"]]
        lines.append("")
    lines.append("## Conventions")
    lines += [f"- {c['text']}" for c in groups["convention"]]
    return "\n".join(lines) + "\n"


def render_text(records: list[dict]) -> str:
    groups = _by_kind(records)
    head = groups["report"][0]
    lines = [
        f"model {head['model']} version {head['version'] or '(no snapshots)'} — "
        f"{head['metrics']} metric values, {head['alert_count']} alert(s)"
    ]
    if groups["metric"]:
        lines.append("metrics:")
        for m in groups["metric"]:
            flags = (
                f"accessible={_flag(m['accessible'])} fidelity={_flag(m['high_fidelity'])} "
                f"actionable={_flag(m['actionable'])} trend={_flag(m['trend_based'])}"
            )
            unit = f" {m['unit']}" if m["unit"] else ""
            star = " (assumes estimation)" if m["assumes_estimation"] else ""
            lines.append(f"  {m['name']}: {m['value']:g}{unit} [{m['provenance']}] {flags}{star}")
    if groups["alert"]:
        lines.append("alerts:")
        lines += [f"  ! {_alert_message(a)}" for a in groups["alert"]]
    if groups["alert_skipped"]:
        skipped = ", ".join(s["metric"] for s in groups["alert_skipped"])
        lines.append(f"rules skipped (metric absent): {skipped}")
    if groups["trend"]:
        lines.append("trends:")
        lines += [f"  {t['metric']}: {_series(t)} [{t['direction']}]"
                  for t in groups["trend"]]
    lines.append("conventions:")
    lines += [f"  - {c['text']}" for c in groups["convention"]]
    return "\n".join(lines) + "\n"


RENDERERS = {
    "text": render_text,
    "jsonl": render_jsonl,
    "csv": render_csv,
    "markdown": render_markdown,
}
