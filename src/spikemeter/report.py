"""Report assembly and rendering.

A report gathers, for one model, the latest recorded value of every metric
(one entry per provenance, so an estimated and a measured figure for the
same metric stay side by side), the actionability alerts, and trend
sections for the trend-based metrics.  Machine formats (jsonl, csv) are
schema-stable and render identical values; every numeric entry carries its
unit, provenance tag and the metric's four-property classification.
"""

from __future__ import annotations

import csv as csv_module
import io
import json
from dataclasses import dataclass, field

from .catalog import find_metric
from .store import (
    PROVENANCE_TAGS,
    AlertReport,
    AlertRule,
    InsufficientHistoryError,
    TrendReport,
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


@dataclass(frozen=True)
class MetricEntry:
    key: str
    name: str
    value: float
    unit: str
    provenance: str
    # the catalog's four properties; None for a custom metric
    accessibility: bool | None = None
    high_fidelity: bool | None = None
    actionability: bool | None = None
    trend_based: bool | None = None
    assumes_estimation: bool = False
    note: str = ""


@dataclass
class ReportDocument:
    model: str
    version: str | None
    entries: list[MetricEntry] = field(default_factory=list)
    alerts: AlertReport = field(default_factory=lambda: AlertReport((), ()))
    trends: list[TrendReport] = field(default_factory=list)
    conventions: tuple[str, ...] = CONVENTIONS


def build_report(
    store_path, model: str, rules: tuple[AlertRule, ...] | None = None
) -> ReportDocument:
    """Assemble the report for a model from its store history.

    An empty history yields an empty but valid document.
    """
    data = read_store(store_path)
    history = data.history(model)
    if not history:
        return ReportDocument(model=model, version=None)
    latest = history[-1]

    entries: list[MetricEntry] = []
    for key in sorted(latest.values):
        descriptor = find_metric(key)
        if descriptor is not None:
            about = dict(
                name=descriptor.name,
                unit=descriptor.unit,
                accessibility=descriptor.accessibility,
                high_fidelity=descriptor.high_fidelity,
                actionability=descriptor.actionability,
                trend_based=descriptor.trend_based,
                assumes_estimation=descriptor.assumes_estimation,
                note=descriptor.description,
            )
        else:  # the store holds no value of a metric neither built in nor registered
            custom = data.registered[key]
            about = dict(name=custom.name, unit=custom.unit,
                         note=custom.description or "custom metric")
        by_provenance = latest.values[key]
        for provenance in PROVENANCE_TAGS:
            if provenance in by_provenance:
                entries.append(MetricEntry(key=key, value=float(by_provenance[provenance]),
                                           provenance=provenance, **about))

    alerts = evaluate_alerts(
        {key: pick_value(by_provenance, find_metric(key), None)
         for key, by_provenance in latest.values.items()},
        rules,
    )

    trends: list[TrendReport] = []
    for key in dict.fromkeys(key for record in history for key in record.values):
        descriptor = find_metric(key)
        if descriptor is None or descriptor.trend_based:  # every custom metric trends
            try:
                trends.append(trend_report(data, model, key))
            except InsufficientHistoryError:
                continue
    trends.sort(key=lambda t: t.metric)

    return ReportDocument(
        model=model,
        version=latest.version,
        entries=entries,
        alerts=alerts,
        trends=trends,
    )


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------


def _flag(value: bool | None) -> str:
    if value is None:
        return "-"
    return "yes" if value else "no"


def json_line(obj: dict) -> str:
    """One compact JSONL record with sorted keys, as every jsonl output writes it."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def trend_record(t: TrendReport) -> dict:
    """The ``"record": "trend"`` object that ``report`` and ``history`` emit."""
    return {
        "record": "trend",
        "metric": t.metric,
        "unit": t.unit,
        "direction": t.direction.value,
        "series": [[v, x] for v, x in t.series],
        "deltas": [
            {"from": d.from_version, "to": d.to_version, "absolute": d.absolute,
             "percent": d.percent}
            for d in t.deltas
        ],
    }


def render_jsonl(doc: ReportDocument) -> str:
    lines = [
        json_line(
            {
                "record": "report",
                "model": doc.model,
                "version": doc.version,
                "metrics": len(doc.entries),
                "alert_count": len(doc.alerts.alerts),
            }
        )
    ]
    for text in doc.conventions:
        lines.append(json_line({"record": "convention", "text": text}))
    for e in doc.entries:
        lines.append(
            json_line(
                {
                    "record": "metric",
                    "key": e.key,
                    "name": e.name,
                    "value": e.value,
                    "unit": e.unit,
                    "provenance": e.provenance,
                    "accessible": e.accessibility,
                    "high_fidelity": e.high_fidelity,
                    "actionable": e.actionability,
                    "trend_based": e.trend_based,
                    "assumes_estimation": e.assumes_estimation,
                }
            )
        )
    for a in doc.alerts.alerts:
        lines.append(
            json_line(
                {
                    "record": "alert",
                    "metric": a.metric,
                    "value": a.value,
                    "threshold": a.threshold,
                    "comparison": a.comparison,
                    "unit": a.unit,
                    "rationale": a.rationale,
                }
            )
        )
    for s in doc.alerts.skipped:
        lines.append(json_line({"record": "alert_skipped", "metric": s}))
    for t in doc.trends:
        lines.append(json_line(trend_record(t)))
    return "\n".join(lines) + "\n"


CSV_COLUMNS = (
    "record",
    "metric",
    "name",
    "value",
    "unit",
    "provenance",
    "accessible",
    "high_fidelity",
    "actionable",
    "trend_based",
    "threshold",
    "direction",
    "detail",
)


def render_csv(doc: ReportDocument) -> str:
    out = io.StringIO()
    writer = csv_module.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for e in doc.entries:
        writer.writerow(
            [
                "metric",
                e.key,
                e.name,
                repr(e.value),
                e.unit,
                e.provenance,
                _flag(e.accessibility),
                _flag(e.high_fidelity),
                _flag(e.actionability),
                _flag(e.trend_based),
                "",
                "",
                "",
            ]
        )
    for a in doc.alerts.alerts:
        writer.writerow(
            ["alert", a.metric, "", repr(a.value), a.unit, "", "", "", "", "",
             repr(a.threshold), "", a.rationale]
        )
    for t in doc.trends:
        series = ";".join(f"{v}:{x!r}" for v, x in t.series)
        writer.writerow(
            ["trend", t.metric, "", "", t.unit, "", "", "", "", "", "",
             t.direction.value, series]
        )
    return out.getvalue()


def render_markdown(doc: ReportDocument) -> str:
    lines = [f"# Energy report: {doc.model} {doc.version or '(no snapshots)'}", ""]
    if doc.entries:
        lines += [
            "| metric | value | unit | provenance | accessible | high fidelity | actionable | trend-based |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for e in doc.entries:
            lines.append(
                f"| {e.name} | {e.value:g} | {e.unit} | {e.provenance} "
                f"| {_flag(e.accessibility)} | {_flag(e.high_fidelity)} "
                f"| {_flag(e.actionability)} | {_flag(e.trend_based)} |"
            )
        lines.append("")
    if doc.alerts.alerts:
        lines.append("## Alerts")
        for a in doc.alerts.alerts:
            lines.append(f"- **{a.metric}**: {a.message()}")
        lines.append("")
    if doc.trends:
        lines.append("## Trends")
        for t in doc.trends:
            series = " -> ".join(f"{v}={x:g}" for v, x in t.series)
            lines.append(f"- {t.metric}: {series} ({t.direction.value})")
        lines.append("")
    lines.append("## Conventions")
    for text in doc.conventions:
        lines.append(f"- {text}")
    return "\n".join(lines) + "\n"


def render_text(doc: ReportDocument) -> str:
    lines = [
        f"model {doc.model} version {doc.version or '(no snapshots)'} — "
        f"{len(doc.entries)} metric values, {len(doc.alerts.alerts)} alert(s)"
    ]
    if doc.entries:
        lines.append("metrics:")
        for e in doc.entries:
            flags = (
                f"accessible={_flag(e.accessibility)} fidelity={_flag(e.high_fidelity)} "
                f"actionable={_flag(e.actionability)} trend={_flag(e.trend_based)}"
            )
            unit = f" {e.unit}" if e.unit else ""
            star = " (assumes estimation)" if e.assumes_estimation else ""
            lines.append(
                f"  {e.name}: {e.value:g}{unit} [{e.provenance}] {flags}{star}"
            )
    if doc.alerts.alerts:
        lines.append("alerts:")
        for a in doc.alerts.alerts:
            lines.append(f"  ! {a.message()}")
    if doc.alerts.skipped:
        lines.append(f"rules skipped (metric absent): {', '.join(doc.alerts.skipped)}")
    if doc.trends:
        lines.append("trends:")
        for t in doc.trends:
            series = " -> ".join(f"{v}={x:g}" for v, x in t.series)
            lines.append(f"  {t.metric}: {series} [{t.direction.value}]")
    lines.append("conventions:")
    for text in doc.conventions:
        lines.append(f"  - {text}")
    return "\n".join(lines) + "\n"


RENDERERS = {
    "text": render_text,
    "jsonl": render_jsonl,
    "csv": render_csv,
    "markdown": render_markdown,
}
