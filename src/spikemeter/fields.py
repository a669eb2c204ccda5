"""What a field of an input file must be: the one home of the typing rules
shared by the model, workload, trace, counts and hardware-spec loaders and
by the store.

A rule takes a decoded JSON value and returns it converted, or raises
:class:`FieldError`.  An integer is a JSON int that fits 64 bits, never a
bool or a float (``2.0`` is refused); a number is finite and never a bool or
a string; an array is a rectangular list of numbers, each entry judged by its
type alone (an integer array's by the integer rule), and stays a list, but
for a dataclass field annotated ``np.ndarray``, which holds it as a float64
numpy array (and takes a float64 array as it is).  This module imports no
numpy.

:func:`load_json` decodes a file; :func:`read_record` reads a JSON object
into a dataclass, whose fields are the keys the object may hold, whose
defaults make keys optional and whose annotations pick the rules;
:func:`read_field` reads one value at a dotted path; :func:`check_keys` refuses
keys outside a list, for objects whose keys depend on a tag.  All raise the loader's
own error class, naming the file kind and, for a bad value, the field:
``hardware spec field 'battery.capacity_joules': expected a finite number,
got list``.  :func:`read_early` reads some of an object's fields in place,
from a decode's object hook, and leaves a value its rule refuses for
:func:`read_record` to report.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import types
import typing
from enum import Enum
from itertools import chain, compress
from pathlib import Path

REQUIRED = object()  # read_field's default: the key must be present


def load_json(path: str | Path, what: str, error: type[Exception], object_hook=None):
    """The JSON document in the UTF-8 file at ``path``; ``what`` names the
    file kind when it cannot be read or decoded, raised as ``error``.
    ``object_hook`` is ``json.loads``'s: it gets each object as it closes."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"malformed {what} {path}: {exc}") from exc
    try:
        return json.loads(text, object_hook=object_hook)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"malformed {what} {path}: {exc}") from exc


class FieldError(ValueError):
    """A value that breaks its field's rule; ``path`` locates it in that value."""

    def __init__(self, problem: str, path: str = "") -> None:
        super().__init__(problem)
        self.path = path


def _got(value) -> str:
    try:
        text = type(value).__name__ if isinstance(value, (list, dict)) else json.dumps(value)
    except TypeError:  # not a JSON value: a numpy scalar passed through the API, say
        text = type(value).__name__
    return text if len(text) <= 40 else text[:37] + "..."


def _join(path: str, below: str) -> str:
    return ".".join(part for part in (path, below) if part)


def integer(value) -> int:
    """A JSON int that fits 64 bits, judged as an integer array's entries
    are: a float such as ``2.0`` is no integer."""
    if _problem(value, True) is None:
        return value
    raise FieldError(f"expected a 64-bit integer, got {_got(value)}")


def number(value) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise FieldError(f"expected a finite number, got {_got(value)}")


def _instance_of(cls: type, expected: str):
    def read(value):
        if isinstance(value, cls):
            return value
        raise FieldError(f"expected {expected}, got {_got(value)}")

    return read


boolean = _instance_of(bool, "true or false")
string = _instance_of(str, "a string")
obj = _instance_of(dict, "a JSON object")


def one_of(*values):
    """A rule for one of ``values``."""

    def read(value):
        if value in values:
            return value
        raise FieldError(f"expected one of {list(values)}, got {_got(value)}")

    return read


def member(enum: type[Enum]):
    """A rule for one of ``enum``'s values."""
    read = one_of(*(m.value for m in enum))
    return lambda value: enum(read(value))


def optional(rule):
    """``rule``, or None for a JSON null."""
    return lambda value: None if value is None else rule(value)


def list_of(rule):
    """A rule for a JSON list whose items each pass ``rule``; read as a tuple."""

    def read(value) -> tuple:
        items = []
        for i, item in enumerate(_instance_of(list, "a list")(value)):
            try:
                items.append(rule(item))
            except FieldError as exc:
                raise FieldError(str(exc), _join(str(i), exc.path)) from None
        return tuple(items)

    return read


def _problem(entry, integers: bool) -> str | None:
    """What makes ``entry`` no entry of a number (an integer) array, judged
    by its type alone; None when it is one."""
    if isinstance(entry, bool):
        return "bool"
    if isinstance(entry, str):
        return "string"
    if isinstance(entry, int):
        return None if -(2**63) <= entry < 2**63 else "out-of-range integer"
    if isinstance(entry, float):
        return "non-integer" if integers else None
    return "non-numeric"


def _entries(value: list, depth: int):
    """The items ``depth`` lists below the list ``value``, in row-major order."""
    items = iter(value)
    for _ in range(depth):
        items = chain.from_iterable(items)
    return items


def _ints_fit(value: list, depth: int, kinds: set) -> bool:
    """Whether every int among ``value``'s entries, ``depth`` lists down and
    of the types ``kinds``, fits 64 bits."""
    if int not in kinds:
        return True
    ints = _entries(value, depth)
    if kinds != {int}:
        ints = compress(ints, map(int.__instancecheck__, _entries(value, depth)))
    ints = list(ints)
    return -(2**63) <= min(ints) and max(ints) < 2**63


def array(shape: tuple | None = None, *, integers: bool = False):
    """A rule for a rectangular JSON list of numbers (of integers), returned
    as it is.  An entry is a float (in a number array) or an int that fits
    64 bits; the first other entry, in row-major order, names the problem.
    ``shape`` gives each dimension's length, None for any; ``[]`` reads as
    zero rows, each of any shape."""
    expected = "an integer array" if integers else "a number array"
    if shape is not None:
        expected += f" of shape [{', '.join('*' if d is None else str(d) for d in shape)}]"
    allowed = {int} if integers else {int, float}

    def read(value):
        if not isinstance(value, list):
            raise FieldError(f"expected {expected}, got {_got(value)}")
        dims, kinds = [len(value)], set(map(type, value))
        while list in kinds:  # the items found so far are rows: one more dimension
            lengths = kinds == {list} and set(map(len, _entries(value, len(dims) - 1)))
            if not lengths or len(lengths) > 1:
                raise FieldError(f"expected {expected}, got ragged rows")
            dims.append(lengths.pop())
            kinds = set(map(type, _entries(value, len(dims) - 1)))
        depth = len(dims) - 1
        if not (kinds <= allowed and _ints_fit(value, depth, kinds)):
            for entry in _entries(value, depth):
                problem = _problem(entry, integers)
                if problem:
                    raise FieldError(f"expected {expected}, got {problem} entries")
        if shape is not None:
            if not value:  # zero rows: the inner dimensions are free
                dims = [0] + [d or 0 for d in shape[1:]]
            if len(dims) != len(shape) or any(d not in (None, n) for d, n in zip(shape, dims)):
                raise FieldError(f"expected {expected}, got shape {dims}")
        return value

    return read


def _rule(hint):
    """The rule for a dataclass field's annotation."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType) and type(None) in args:
        (inner,) = [arg for arg in args if arg is not type(None)]
        return optional(_rule(inner))
    if origin is tuple:  # tuple[X, ...]
        return list_of(_rule(args[0]))
    if dataclasses.is_dataclass(hint):  # an instance already built passes as is
        return lambda value: value if isinstance(value, hint) else _read(hint, value)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return member(hint)
    numpy = sys.modules.get("numpy")  # loaded wherever an annotation names it
    if numpy is not None and hint is numpy.ndarray:
        return functools.partial(_ndarray, numpy, array())
    return {bool: boolean, int: integer, float: number, str: string}[hint]


def _ndarray(numpy, rule, value):
    """``value`` read by the array ``rule``, as a float64 numpy array; a
    float64 array, read already, passes as is."""
    if isinstance(value, numpy.ndarray) and value.dtype == numpy.float64:
        return value
    rows = rule(value)
    try:
        return numpy.array(rows, dtype=numpy.float64)
    except ValueError:  # nested past the dimensions numpy holds
        raise FieldError("expected a number array, got too many dimensions") from None


@functools.cache
def _schema(cls) -> dict[str, tuple]:
    """Field name -> (rule, required) for a dataclass."""
    hints = typing.get_type_hints(cls)
    missing = dataclasses.MISSING
    return {
        f.name: (_rule(hints[f.name]), f.default is missing and f.default_factory is missing)
        for f in dataclasses.fields(cls)
    }


def read_early(cls, raw: dict, names) -> None:
    """Replace each of ``names`` in the JSON object ``raw`` with its value
    read by ``cls``'s rule for it, in place, so a decode can drop what it
    decoded; a value the rule refuses stays, for :func:`read_record` to
    report.  Each rule must pass what it returns through unchanged."""
    schema = _schema(cls)
    for name in names:
        if name in raw:
            try:
                raw[name] = schema[name][0](raw[name])
            except FieldError:
                pass


def _check_keys(raw, allowed) -> None:
    unknown = sorted(set(obj(raw)) - set(allowed))
    if unknown:
        raise FieldError(f"unknown keys {unknown}; allowed: {', '.join(allowed)}")


def _read(cls, raw):
    schema = _schema(cls)
    _check_keys(raw, schema)
    values = {}
    for name, (rule, required) in schema.items():
        if name in raw:
            try:
                values[name] = rule(raw[name])
            except FieldError as exc:
                raise FieldError(str(exc), _join(name, exc.path)) from None
        elif required:
            raise FieldError("missing", name)
    return cls(**values)


def _error(error: type[Exception], where: str, path: str, exc: FieldError) -> Exception:
    return error(f"{where} field {path!r}: {exc}" if path else f"{where}: {exc}")


def read_record(cls, raw, where: str, error: type[Exception]):
    """``cls`` built from the JSON object ``raw``; a bad field raises
    ``error`` naming ``where``, the file kind.  The dataclass's own checks
    raise their own errors."""
    try:
        return _read(cls, raw)
    except FieldError as exc:
        raise _error(error, where, exc.path, exc) from None


def check_keys(raw, allowed, where: str, error: type[Exception]) -> None:
    """Raise ``error`` naming ``where`` and the ``allowed`` keys when the JSON
    object ``raw`` holds any other key."""
    try:
        _check_keys(raw, allowed)
    except FieldError as exc:
        raise _error(error, where, exc.path, exc) from None


def read_field(raw, path: str, rule, where: str, error: type[Exception], default=REQUIRED):
    """The value at dotted ``path`` in the JSON object ``raw``, through
    ``rule``; ``default`` when a key on the path is absent, unless required."""
    value, walked = raw, ""
    try:
        for key in path.split("."):
            obj(value)
            walked = _join(walked, key)
            if key not in value:
                if default is REQUIRED:
                    raise FieldError("missing")
                return default
            value = value[key]
        return rule(value)
    except FieldError as exc:
        raise _error(error, where, _join(walked, exc.path), exc) from None
