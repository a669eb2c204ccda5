"""Append-only store of versioned metric snapshots, with trends and
actionability alerts given as the report's records: :func:`trend_report`
returns a ``trend`` record and :func:`evaluate_alerts` the ``alert`` and
``alert_skipped`` records, plain dicts that ``report`` and ``history`` emit
as they are.  The alert rules live in the catalog: ``catalog.ALERT_RULES``
holds the defaults, and ``AlertRule.at`` gives one at another threshold.

The store is a newline-delimited JSON file: one fully written record per
line, never mutated, so histories stay diff-friendly and a reader never
sees half a record.  Three record kinds exist::

    {"kind": "snapshot", "model": ..., "version": ..., "timestamp": ...,
     "values": {...}, "provenance": {...}, "accuracy": ..., "notes": ...}
    {"kind": "ingest", "model": ..., "version": ..., "timestamp": ...,
     "metric": ..., "value": ..., "provenance": ..., "notes": ...}
    {"kind": "register", "name": ..., "unit": ..., "polarity": ..., "description": ...}

A line keeps each metric name as written; the reader reads it under its
catalog key, and refuses a line that names one metric twice, and a register
line that names a catalog metric, whose unit and polarity the catalog holds.
A snapshot value whose ``provenance`` entry is absent or null takes
``catalog.default_tag`` (its catalog class, else ``ingested``), whether the
writer fills it in or a hand-written line leaves it out.

A version is recorded once per model: re-recording it is rejected rather
than overwritten so trend history stays trustworthy, and a store holding a
second snapshot line for a version already present (written by hand or by
another tool) is refused on read, naming the line.  Ingest records attach
externally obtained values (a power-meter reading, a training log) to a
version without touching what was already recorded -- the same metric may
then carry both an estimated and an ingested value, distinguishable by
provenance, but never two values of one provenance.  The line rules have
one home, :func:`_apply`: the reader runs it on every line it reads, and
each write runs it on every line it would append, against the store parsed
under an exclusive ``flock`` on the store file, and appends all of its
lines in one write, or none if one fails.  So the store only gains lines
the reader accepts, concurrent writers cannot both pass the same check, and
a rejected write leaves the store byte-identical.  Readers take no lock.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import time
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import BinaryIO

from .catalog import (ALERT_RULES, CLASS_TAGS, DOMAIN_UPPER, AlertRule, Polarity, Provenance,
                      default_tag, find_metric)
from .fields import FieldError, number, read_field, string, within

# Provenance tags as stored, in the order a metric's values are preferred and
# listed.  The tags are looked up once here: an enum's ``.value`` costs a call,
# and the store reads and trends touch thousands of values.
PROVENANCE_TAGS = tuple(p.value for p in (Provenance.COMPUTED, Provenance.ESTIMATED,
                                          Provenance.INGESTED))
_PROVENANCE_TAGS = frozenset(p.value for p in Provenance)


class StoreError(ValueError):
    """Raised on unreadable or malformed store files."""


class DuplicateVersionError(StoreError):
    """Raised when a snapshot version already exists for the model."""


class UnknownMetricError(StoreError):
    """Raised for metric names neither built in nor registered."""


class InsufficientHistoryError(StoreError):
    """Raised when a trend needs more snapshots than the store holds."""


def _is_number(value) -> bool:
    try:
        number(value)
    except FieldError:
        return False
    return True


def _check_value(key: str, value, provenance) -> None:
    """Every stored value, written or read, is a finite number carrying one
    of the catalog's provenance tags, and lies in its metric's domain.  A
    finite JSON float, what nearly every store line holds, passes without
    the full ``fields.number`` rule."""
    if not (type(value) is float and math.isfinite(value)) and not _is_number(value):
        raise StoreError(f"value for {key!r} must be a finite number")
    upper = DOMAIN_UPPER.get(key)  # a custom metric has no domain
    if upper is not None and not 0.0 <= value <= upper:
        raise StoreError(f"value for {key!r} must lie in {within(0, upper)}, got {value!r}")
    if provenance not in _PROVENANCE_TAGS:
        raise StoreError(
            f"provenance of {key!r} must be one of {sorted(_PROVENANCE_TAGS)}, "
            f"got {provenance!r}"
        )


def _text(record: dict, key: str, required: bool = False) -> str:
    """A store line's text field, written or read: a string.  An optional one
    (``unit``, ``description``, ``notes``) is "" when absent; a required one
    (``name``, ``model``, ``version``, ``metric``) raises KeyError."""
    value = record[key] if required else record.get(key, "")
    if type(value) is str:
        return value
    return read_field(record, key, string, f"{record['kind']} record", StoreError)


@dataclass(frozen=True)
class MetricSnapshot:
    model_name: str
    version: str
    values: dict[str, float]
    timestamp: float | None = None
    accuracy: float | None = None
    provenance: dict[str, str] = field(default_factory=dict)
    notes: str = ""


@dataclass(frozen=True)
class CustomMetric:
    name: str
    unit: str = ""
    polarity: Polarity = Polarity.HIGHER_IS_WORSE
    description: str = ""


@dataclass(frozen=True)
class VersionRecord:
    """Merged view of one model version: values keyed metric -> provenance."""

    version: str
    timestamp: float
    values: dict[str, dict[str, float]]
    accuracy: float | None
    notes: str


@dataclass
class StoreData:
    registered: dict[str, CustomMetric] = field(default_factory=dict)
    # model -> version -> record; dicts keep recording order
    models: dict[str, dict[str, VersionRecord]] = field(default_factory=dict)

    def history(self, model: str) -> list[VersionRecord]:
        """The model's versions in recording order."""
        return list(self.models.get(model, {}).values())

    def find(self, model: str, version: str) -> VersionRecord | None:
        return self.models.get(model, {}).get(version)

    def add(self, model: str, record: VersionRecord) -> VersionRecord:
        self.models.setdefault(model, {})[record.version] = record
        return record


def _timestamp(record: dict) -> float:
    return read_field(record, "timestamp", number, f"{record['kind']} record", StoreError)


def _names(record: dict) -> tuple[str, str]:
    """A snapshot's or an ingest's model and version: non-empty strings."""
    model, version = _text(record, "model", True), _text(record, "version", True)
    if not model or not version:
        raise StoreError(f"{record['kind']} record needs a model name and a version")
    return model, version


def _key(name: str, data: StoreData) -> str:
    """A line's metric name as every layer above the store reads it: its
    catalog key, else the name registered on an earlier line."""
    descriptor = find_metric(name)
    if descriptor is None and name not in data.registered:
        raise UnknownMetricError(f"unknown metrics {[name]}; register them first")
    return name if descriptor is None else descriptor.key


def _apply(data: StoreData, record: dict) -> None:
    """Apply one store line to ``data``, or raise StoreError saying what
    breaks the line's rules.  This is the one home of those rules: the
    reader runs it on every line it reads, and every writer on every line
    before it is appended."""
    kind = record["kind"]
    try:
        if kind == "register":
            name = _text(record, "name", True)
            if find_metric(name) is not None:
                raise StoreError(f"register record names the built-in metric {name!r}")
            data.registered[name] = CustomMetric(
                name=name,
                unit=_text(record, "unit"),
                polarity=Polarity(record.get("polarity", Polarity.HIGHER_IS_WORSE.value)),
                description=_text(record, "description"),
            )
        elif kind == "snapshot":
            model, version = _names(record)
            if data.find(model, version) is not None:
                raise DuplicateVersionError(
                    f"version {version!r} already recorded for model {model!r}"
                )
            values = {}
            tags = record.get("provenance", {})
            for name, val in record["values"].items():
                key = name if name in CLASS_TAGS else _key(name, data)  # a key, nearly always
                tag = tags.get(name)
                if tag is None:
                    tag = default_tag(key)
                _check_value(key, val, tag)
                values[key] = {tag: val}
            if len(values) < len(record["values"]):  # two names of one metric
                keys = [_key(name, data) for name in record["values"]]
                raise StoreError(f"snapshot names metric {max(keys, key=keys.count)!r} twice")
            accuracy = record.get("accuracy")
            if accuracy is not None and not (_is_number(accuracy) and 0.0 <= accuracy <= 1.0):
                raise StoreError("accuracy must lie in [0, 1]")
            data.add(model, VersionRecord(
                version=version,
                timestamp=_timestamp(record),
                values=values,
                accuracy=accuracy,
                notes=_text(record, "notes"),
            ))
        elif kind == "ingest":
            model, version = _names(record)
            metric, provenance = _key(_text(record, "metric", True), data), record["provenance"]
            _check_value(metric, record["value"], provenance)
            _text(record, "notes")
            timestamp = _timestamp(record)
            target = data.find(model, version)
            if target is not None and provenance in target.values.get(metric, {}):
                raise StoreError(f"version {version!r} of model {model!r} already has a "
                                 f"{provenance!r} value for {metric!r}")
            if target is None:
                target = data.add(model, VersionRecord(
                    version=version,
                    timestamp=timestamp,
                    values={},
                    accuracy=None,
                    notes="",
                ))
            target.values.setdefault(metric, {})[provenance] = record["value"]
        else:
            raise StoreError(f"unknown record kind {kind!r}")
    except StoreError:
        raise
    except KeyError as exc:
        raise StoreError(f"{kind} record lacks field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed {kind} record: {exc}") from exc


def _parse_line(line: str, lineno: int) -> dict:
    try:
        record = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise StoreError(f"store line {lineno} is not valid JSON: {exc}") from exc
    if not isinstance(record, dict) or "kind" not in record:
        raise StoreError(f"store line {lineno} is not a record object")
    return record


def read_store(path: str | Path) -> StoreData:
    """Parse the whole store.  Lines end at ``"\\n"`` alone, as ``wc -l``
    counts them: JSON allows U+0085, U+2028 and U+2029 raw inside a string,
    and reads a ``"\\r"`` before the ``"\\n"`` as whitespace.  A final line
    without a newline terminator is treated as an interrupted write and
    skipped."""
    data = StoreData()
    path = Path(path)
    if not path.exists():
        return data
    try:
        text = path.read_bytes().decode("utf-8")  # no newline translation
    except OSError as exc:
        raise StoreError(f"cannot read store {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise StoreError(f"store {path}: {exc}") from exc
    lines = text.split("\n")[:-1]  # the last item is "" or an interrupted write
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        record = _parse_line(line, lineno)
        try:
            _apply(data, record)
        except StoreError as exc:
            raise type(exc)(f"store line {lineno}: {exc}") from exc
    return data


def _commit(path: str | Path, lines: Callable[[StoreData], Iterable[dict]]) -> StoreData:
    """Append in one write the records ``lines`` gives for the parsed store,
    under an exclusive lock held from the read through the write.  Each
    record is applied to the parse by the reader's rules (:func:`_apply`)
    before the next is drawn, so a record that breaks them appends nothing,
    and later records see the earlier ones.  The append starts on a fresh
    line: an interrupted write that the read skipped is cut first.  Returns
    the parse with the records applied.

    On a path that does not exist yet the records are first applied to an
    empty store, before anything is opened, so a write they reject creates
    no file.
    """
    def accepted(data: StoreData) -> list[dict]:
        records = []
        for record in lines(data):
            _apply(data, record)
            records.append(record)
        return records

    if not Path(path).exists():
        accepted(StoreData())
    try:
        with open(path, "a+b") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            data = read_store(path)
            records = accepted(data)
            _cut_interrupted_write(handle)
            handle.write("".join(json.dumps(record, sort_keys=True) + "\n"
                                 for record in records).encode())
            handle.flush()
    except OSError as exc:
        raise StoreError(f"cannot write store {path}: {exc}") from exc
    return data


def _cut_interrupted_write(handle: BinaryIO) -> None:
    """Truncate the store open in ``handle`` after its last newline.  What
    follows is an interrupted write, which :func:`read_store` skips; an
    append after it would join it into a line that is not JSON."""
    size = handle.seek(0, os.SEEK_END)
    if size:
        handle.seek(size - 1)
        if handle.read(1) != b"\n":
            handle.seek(0)
            handle.truncate(handle.read().rfind(b"\n") + 1)


def _check_names(names: Iterable) -> None:
    """A writer's metric names are strings, as the catalog lookups and the
    store's lines need; JSON gives a reader no other kind of key."""
    for name in names:
        if not isinstance(name, str):
            raise StoreError(f"metric names must be strings, got {type(name).__name__}")


def _registration(metric: CustomMetric, data: StoreData) -> list[dict]:
    """The register line ``metric`` needs; none for a built-in or an
    identical registration on file."""
    if find_metric(metric.name) is not None or data.registered.get(metric.name) == metric:
        return []
    return [{"kind": "register", **asdict(metric)}]


def register_metric(
    store: str | Path,
    name: str,
    *,
    unit: str = "",
    polarity: Polarity = Polarity.HIGHER_IS_WORSE,
    description: str = "",
) -> None:
    """Declare a custom metric so snapshots and ingests may carry it."""
    _check_names((name,))
    if find_metric(name) is not None:
        return  # built-ins need no registration, nor a store file
    metric = CustomMetric(name, unit, polarity, description)
    _commit(store, lambda data: _registration(metric, data))


def record_snapshot(
    store: str | Path, snapshot: MetricSnapshot, *, register: Iterable[CustomMetric] = ()
) -> dict[str, CustomMetric]:
    """Append a snapshot, after registering the custom metrics in
    ``register`` that the store does not know yet (one already registered
    keeps its registration); duplicate (model, version) pairs are rejected.
    Returns the registration on file after the append of each metric in
    ``register`` that is not built in."""
    register = tuple(register)  # the checks may run twice
    if not isinstance(snapshot.values, dict):
        raise StoreError("snapshot values must map metric names to values, "
                         f"got {type(snapshot.values).__name__}")
    _check_names([*snapshot.values, *(metric.name for metric in register)])
    provenance = dict(snapshot.provenance)
    for key in snapshot.values:
        if provenance.get(key) is None:
            provenance[key] = default_tag(key)
    record = {
        "kind": "snapshot",
        "model": snapshot.model_name,
        "version": snapshot.version,
        "timestamp": snapshot.timestamp if snapshot.timestamp is not None else time.time(),
        "values": snapshot.values,
        "provenance": provenance,
        "accuracy": snapshot.accuracy,
        "notes": snapshot.notes,
    }

    def lines(data: StoreData) -> Iterable[dict]:
        for metric in register:
            if metric.name not in data.registered:
                yield from _registration(metric, data)
        yield record

    data = _commit(store, lines)
    return {m.name: data.registered[m.name] for m in register if m.name in data.registered}


def record_external_metric(
    store: str | Path,
    model: str,
    version: str,
    metric: str,
    value: float,
    provenance: str = Provenance.INGESTED.value,
    *,
    timestamp: float | None = None,
    notes: str = "",
) -> None:
    """Attach an externally obtained value (measurement, training log) to a
    version.  The provenance tag travels with the value into every report."""
    record = {
        "kind": "ingest",
        "model": model,
        "version": version,
        "timestamp": timestamp if timestamp is not None else time.time(),
        "metric": metric,
        "value": value,
        "provenance": provenance,
        "notes": notes,
    }
    _commit(store, lambda data: [record])


def pick_value(
    by_provenance: dict[str, float], key: str, requested: str | None
) -> float | None:
    """The requested provenance's value, else the one tagged with the catalog
    class of the metric ``key``, else the first present in PROVENANCE_TAGS."""
    if requested is not None:
        return by_provenance.get(requested)
    for tag in (CLASS_TAGS.get(key), *PROVENANCE_TAGS):
        if tag in by_provenance:
            return by_provenance[tag]
    return None


def trend_report(
    data: StoreData, model: str, metric: str, *, provenance: str | None = None
) -> dict:
    """The ``trend`` record of a metric across the model's versions: its
    ``series`` of [version, value] pairs in recording order, the ``deltas``
    between neighbours (``percent`` None when the earlier value is zero), and
    the polarity-aware overall ``direction``, "improving", "degrading" or
    "flat".  ``report`` and ``history`` emit the record as it is.

    ``data`` is a store already parsed by :func:`read_store`; one parse can
    feed any number of trends.  ``metric`` is a catalog key, a catalog
    display name or a registered custom metric; ``provenance`` restricts the
    series to values with that tag (default: the catalog class's, else the
    first present in PROVENANCE_TAGS).
    """
    descriptor = find_metric(metric)
    key = descriptor.key if descriptor is not None else metric
    about = descriptor or data.registered.get(key)  # unit and polarity
    if about is None:
        raise UnknownMetricError(f"unknown metric {key!r}")
    series = []
    for record in data.history(model):
        if key in record.values:
            value = pick_value(record.values[key], key, provenance)
            if value is not None:
                series.append([record.version, float(value)])
    if len(series) < 2:
        raise InsufficientHistoryError(
            f"metric {key!r} needs at least 2 snapshots for model {model!r}, "
            f"found {len(series)}"
        )
    deltas = [{"from": v0, "to": v1, "absolute": x1 - x0,
               "percent": None if x0 == 0 else (x1 - x0) / x0 * 100.0}
              for (v0, x0), (v1, x1) in zip(series, series[1:])]
    first, last = series[0][1], series[-1][1]
    if last == first:
        direction = "flat"
    else:
        increased = last > first
        worse = about.polarity is Polarity.HIGHER_IS_WORSE
        direction = "degrading" if increased == worse else "improving"
    return {"record": "trend", "metric": key, "unit": about.unit, "direction": direction,
            "series": series, "deltas": deltas}


def evaluate_alerts(values: dict[str, float], rules: Iterable[AlertRule] | None = None) -> list[dict]:
    """The report's ``alert`` records, one per rule (default: the catalog's
    ``ALERT_RULES``) that ``values`` (metric -> value) violates, then its
    ``alert_skipped`` records, one per rule whose metric is absent: an
    absent metric is never a violation."""
    alerts = []
    skipped = []
    for rule in ALERT_RULES.values() if rules is None else rules:
        value = values.get(rule.metric)
        if value is None:
            skipped.append({"record": "alert_skipped", "metric": rule.metric})
        elif rule.violated(value):
            alerts.append(rule.alert(value))
    return alerts + skipped
