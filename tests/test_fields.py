"""Every input file is read through the typing rules in ``spikemeter.fields``:
a malformed field exits 2 with one stderr line naming the file kind and the
field, never a traceback (exit 1) and never a silent acceptance."""

import importlib
import io
import json
import math
import pkgutil
import re
import typing
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, is_dataclass
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import spikemeter
from spikemeter import cli
from spikemeter.compare import VersionMeasurement
from spikemeter.energy import BatterySpec, HardwareSpec, HardwareSpecError
from spikemeter.fields import FieldError, array
from spikemeter.model import (LayerDescriptor, LayerKind, ModelValidationError, NeuronParams,
                              Precision, TrainableFlags)
from spikemeter.simulate import SimulationConfig, SimulationError
from spikemeter.workload import MemoryAccessCounts, OpCounts

DATA = resources.files("spikemeter") / "data"
README = Path(__file__).resolve().parent.parent / "README.md"

# The command each file kind is fed to; every other input is valid.
COMMANDS = {
    "model": ["simulate", "--model", "{model}", "--workload", "{workload}"],
    "workload": ["simulate", "--model", "{model}", "--workload", "{workload}"],
    "trace": ["estimate", "--trace", "{trace}", "--hwspec", "{hwspec}"],
    "counts": ["estimate", "--counts", "{counts}", "--hwspec", "{hwspec}"],
    "hwspec": ["estimate", "--trace", "{trace}", "--hwspec", "{hwspec}"],
    "store": ["history", "--store", "{store}", "--model", "m", "--metric", "effective_synops"],
}


def snapshot(version: str, synops: float) -> dict:
    return {"kind": "snapshot", "model": "m", "version": version, "timestamp": 1.0,
            "values": {"effective_synops": synops}, "provenance": {}}


def write(path: Path, doc) -> Path:
    if path.stem == "store":
        path.write_text("".join(json.dumps(record) + "\n" for record in doc))
    else:
        path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module", autouse=True)
def one_parser():
    """Build the CLI's parser once for the module: these tests exercise the
    loaders, and building the parser is most of the cost of a cli.main call."""
    parser = cli.build_parser()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_parser", lambda: parser)
        yield


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> dict:
    """One valid document of each kind: the shipped demo model, workload and
    spec, the trace they simulate to, a counts file and a two-version store;
    ``files`` maps each kind to a file holding it."""
    directory = tmp_path_factory.mktemp("valid")
    docs = {kind: json.loads((DATA / f"demo_{kind}.json").read_text())
            for kind in ("model", "workload", "hwspec")}
    trace = directory / "trace.json"
    with redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--model", str(DATA / "demo_model.json"),
                         "--workload", str(DATA / "demo_workload.json"),
                         "--trace-out", str(trace)]) == 0
    docs["trace"] = json.loads(trace.read_text())
    docs["counts"] = {"macs": 2, "acs": 10, "leak_macs": 1, "duration": 1e-3}
    docs["store"] = [snapshot("v1", 10.0), snapshot("v2", 12.0)]
    docs["files"] = {kind: write(directory / f"{kind}.json", doc) for kind, doc in docs.items()}
    return docs


def run(kind: str, doc, valid: dict, directory: Path) -> tuple[int, str]:
    """Exit code and stderr of ``kind``'s command with ``doc`` as that file."""
    return run_on(kind, write(directory / f"{kind}.json", doc), valid)


def run_on(kind: str, path: Path, valid: dict) -> tuple[int, str]:
    """Exit code and stderr of ``kind``'s command with ``path`` as that file."""
    paths = {**valid["files"], kind: path}
    argv = [arg.format(**paths) for arg in COMMANDS[kind]]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def mutated(doc, path: tuple, value):
    """A deep copy of ``doc`` with the entry at ``path`` set to ``value``,
    or deleted when ``value`` is DELETE."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


DELETE = object()

# (file kind, path to the field, bad value, field the message must name)
PROBES = [
    ("model", ("precision", "weight_bits"), [1], "precision.weight_bits"),
    ("hwspec", ("battery", "capacity_joules"), [1], "battery.capacity_joules"),
    ("counts", ("macs",), [1], "macs"),
    ("counts", ("duration",), "x", "duration"),
    ("model", ("layers", 1, "weights", 0, 0), "1", "weights"),
    ("model", ("layers", 1, "trainable", "weights"), [1], "trainable.weights"),
    ("hwspec", ("channels",), 1.5, "channels"),
    ("model", ("layers", 1, "in_size"), 2.7, "in_size"),
    ("model", ("layers", 1, "neuron", "beta"), "0.5", "neuron.beta"),
    ("model", ("name",), ["x"], "name"),
    ("hwspec", ("e_mac",), "1e-12", "e_mac"),
    ("hwspec", ("e_mac",), True, "e_mac"),
    ("counts", ("macs",), 1.5, "macs"),
    ("counts", ("macs",), "7", "macs"),
    ("hwspec", ("battery", "capacity_joules"), "x", "battery.capacity_joules"),
    ("trace", ("timestep_duration",), "x", "timestep_duration"),
    ("trace", ("model",), "x", "model"),
    ("trace", ("timesteps",), 2.5, "timesteps"),
    ("trace", ("timesteps",), 4.0, "timesteps"),
    ("hwspec", ("adc_samples_per_inference",), 4.0, "adc_samples_per_inference"),
    ("counts", ("macs",), 1e6, "macs"),
    ("store", (1, "values", "effective_synops"), True, "effective_synops"),
    ("store", (1, "values", "made_up"), 1.0, "made_up"),
    ("counts", ("mac",), 5, "mac"),
    ("workload", ("seed",), 3, "seed"),
    ("trace", ("seed",), 3, "seed"),
    ("trace", ("spikes", 1, "seed"), 3, "seed"),
    ("trace", ("spikes", 1), {"layer": 1, "kind": "bogus",
                              "frames": [[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]}, "kind"),
    ("trace", ("spikes", 1, "layer"), 7, "layer"),
    ("trace", ("spikes", 1, "layer"), "x", "layer"),
    ("model", ("layers", 1, "weights", 0, 0), True, "weights"),
    ("model", ("layers", 1, "biases", 2), False, "biases"),
    ("workload", ("events", 1, 0), True, "events"),
    ("trace", ("per_timestep", "acs", 3), False, "per_timestep.acs"),
    ("trace", ("layer_sizes", 1), True, "layer_sizes"),
    ("trace", ("spikes", 1, "events", 1, 1), False, "events"),
]


@pytest.mark.parametrize(
    "kind, path, value, field", PROBES,
    ids=[f"{kind}-{'.'.join(map(str, path))}-{json.dumps(value)}"
         for kind, path, value, _ in PROBES],
)
def test_bad_field_exits_2_naming_it(valid, tmp_path, kind, path, value, field):
    code, err = run(kind, mutated(valid[kind], path, value), valid, tmp_path)
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"'{field}'" in err


# A bool among numbers is refused, whatever text the file's strings hold.
ANALOG = {"layer": 0, "kind": "analog", "frames": [[1, 0, 0, 0], [1, 1, 0, 0.5]]}


def bool_probe(kind: str, valid: dict, bool_entry):
    """``kind``'s valid document with analog numbers, a name reading "true",
    and ``bool_entry`` (None for none) among the numbers."""
    if kind == "workload":  # no string field to name
        last = 0 if bool_entry is None else bool_entry
        return {"kind": "analog", "layer": 2, "timesteps": 4,
                "frames": [[0.5, 0, 0, 0], [0, 0.25, 0, last]]}
    if kind == "trace":
        doc = mutated(valid["trace"], ("spikes", 0), ANALOG)
        doc = mutated(doc, ("model", "name"), "true")
        return doc if bool_entry is None else mutated(doc, ("spikes", 0, "frames", 1, 2),
                                                      bool_entry)
    doc = mutated(valid["model"], ("name",), "true")
    return doc if bool_entry is None else mutated(doc, ("layers", 1, "weights", 0, 0),
                                                  bool_entry)


@pytest.mark.parametrize("bool_entry", [None, True, False])
@pytest.mark.parametrize("kind, field", [("workload", "frames"), ("trace", "frames"),
                                         ("model", "weights")])
def test_bool_among_numbers_exits_2_whatever_strings_hold(valid, tmp_path, kind, field,
                                                          bool_entry):
    code, err = run(kind, bool_probe(kind, valid, bool_entry), valid, tmp_path)
    if bool_entry is None:
        assert (code, err) == (0, "")
    else:
        assert code == 2
        assert f"'{field}': expected a number array" in err
        assert err.endswith(" got bool entries\n")


# --- the array rule: each entry judged by its type alone ---------------------

# Entries and what the array rule calls each in a number array and in an
# integer array, None where it is a valid entry.
OUT_OF_RANGE = "out-of-range integer"
CELLS = [
    (0, None, None), (-1, None, None), (-(2**63), None, None), (2**63 - 1, None, None),
    (0.5, None, "non-integer"), (2.0, None, "non-integer"), (-0.0, None, "non-integer"),
    (float("nan"), None, "non-integer"), (float("inf"), None, "non-integer"),
    (2**63, OUT_OF_RANGE, OUT_OF_RANGE), (-(2**63) - 1, OUT_OF_RANGE, OUT_OF_RANGE),
    (2**64, OUT_OF_RANGE, OUT_OF_RANGE), (2**70, OUT_OF_RANGE, OUT_OF_RANGE),
    (True, "bool", "bool"), (False, "bool", "bool"), ("", "string", "string"),
    ("1", "string", "string"), (None, "non-numeric", "non-numeric"),
]
ZERO, HALF, TOO_BIG = CELLS[0], CELLS[4], CELLS[9]


@st.composite
def grids(draw) -> list[list[tuple]]:
    """A rectangular list of rows of CELLS."""
    width = draw(st.integers(1, 3))
    row = st.lists(st.sampled_from(CELLS), min_size=width, max_size=width)
    return draw(st.lists(row, min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(grid=grids(), integers=st.booleans())
@example(grid=[[ZERO, TOO_BIG]], integers=True)
@example(grid=[[ZERO, TOO_BIG]], integers=False)
@example(grid=[[HALF, TOO_BIG]], integers=False)
@example(grid=[[TOO_BIG, TOO_BIG]], integers=True)
def test_array_verdict_is_that_of_its_first_bad_entry(grid, integers):
    """An array is refused exactly when it holds a bad entry, with the message
    the first of them, in row-major order, gets on its own."""
    rule = array((None, None), integers=integers)
    rows = [[entry for entry, *_ in row] for row in grid]
    bad = [(entry, problems[integers]) for row in grid for entry, *problems in row
           if problems[integers]]
    if not bad:
        assert rule(rows) is rows
        return
    (entry, problem), *_ = bad
    with pytest.raises(FieldError) as alone:
        rule([[entry]])
    kind = "an integer" if integers else "a number"
    assert str(alone.value) == f"expected {kind} array of shape [*, *], got {problem} entries"
    with pytest.raises(FieldError) as whole:
        rule(rows)
    assert str(whole.value) == str(alone.value)


def array_sites(valid: dict, integers: bool) -> list[tuple[str, object, tuple]]:
    """(file kind, valid document, path to an entry) for each array the
    loaders read as an integer (a number) array."""
    if integers:
        return [("workload", valid["workload"], ("events", 1, 0)),
                ("trace", valid["trace"], ("per_timestep", "acs", 3)),
                ("trace", valid["trace"], ("spikes", 1, "events", 1, 1))]
    return [("workload", bool_probe("workload", valid, None), ("frames", 1, 3)),
            ("trace", bool_probe("trace", valid, None), ("spikes", 0, "frames", 1, 2)),
            ("model", valid["model"], ("layers", 1, "weights", 0, 0)),
            ("model", valid["model"], ("layers", 1, "biases", 2))]


BAD_ENTRIES = [(integers, entry, problems[integers]) for integers in (False, True)
               for entry, *problems in CELLS if problems[integers]]


@pytest.mark.parametrize("integers, entry, problem", BAD_ENTRIES, ids=[
    f"{'integer' if integers else 'number'}-{json.dumps(entry)}"
    for integers, entry, _ in BAD_ENTRIES])
def test_bad_entry_gets_one_message_from_every_loader(valid, tmp_path, integers, entry,
                                                      problem):
    for kind, doc, path in array_sites(valid, integers):
        code, err = run(kind, mutated(doc, path, entry), valid, tmp_path)
        assert code == 2 and len(err.splitlines()) == 1, (kind, path, err)
        assert err.endswith(f" got {problem} entries\n"), (kind, path, err)


@pytest.mark.parametrize("shape, integers, message", [
    ((None,), False, None),
    ((None, 2), True, None),
    ((None, None), False, None),
    ((3,), True, "expected an integer array of shape [3], got shape [0]"),
    ((2, 2), False, "expected a number array of shape [2, 2], got shape [0, 2]"),
])
def test_empty_array_is_zero_rows(shape, integers, message):
    """``[]`` holds zero rows: it passes a shape whose row count is free and
    is refused, with its shape, where rows are required."""
    rule = array(shape, integers=integers)
    if message is None:
        assert rule([]) == []
        return
    with pytest.raises(FieldError) as refused:
        rule([])
    assert str(refused.value) == message


def test_array_nested_past_numpys_dimensions_names_the_field(valid, tmp_path):
    deep = 0.5
    for _ in range(70):
        deep = [deep]
    code, err = run("model", mutated(valid["model"], ("layers", 1, "weights"), deep), valid,
                    tmp_path)
    assert (code, err) == (2, "error: layer 1: model field 'weights': expected a number "
                              "array, got too many dimensions\n")


# Files the JSON decoder cannot turn into a value: nesting past the
# interpreter's recursion limit, and bytes that are not UTF-8.
UNDECODABLE = {
    "deep": b"[" * 100_000 + b"]" * 100_000 + b"\n",
    "not-utf8": b'{"kind": "snap\xffshot"}\n',
}


@pytest.mark.parametrize("kind", list(COMMANDS))
@pytest.mark.parametrize("content", list(UNDECODABLE.values()), ids=list(UNDECODABLE))
def test_undecodable_file_exits_2_naming_it(valid, tmp_path, kind, content):
    path = tmp_path / f"{kind}.json"
    path.write_bytes(content)
    code, err = run_on(kind, path, valid)
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    deep_store_line = kind == "store" and content.startswith(b"[")
    assert ("store line 1 " if deep_store_line else f" {path}: ") in err


def test_unknown_counts_key_names_the_allowed_keys(valid, tmp_path):
    code, err = run("counts", {"mac": 5, "acs": 1}, valid, tmp_path)
    assert code == 2
    assert err == (
        "error: counts file: unknown keys ['mac']; allowed: macs, acs, "
        "membrane_updates_effective, membrane_updates_dense, leak_macs, crossings, "
        "duration\n"
    )


@pytest.mark.parametrize("doc, allowed", [
    ({"kind": "spikes", "layer": 2, "timesteps": 4, "events": []},
     "kind, layer, timesteps, events"),
    ({"kind": "rates", "values": [0.5, 0.5], "timesteps": 4}, "kind, values, timesteps"),
    ({"kind": "analog", "layer": 2, "timesteps": 1, "frames": [[0.5], [1.0]]},
     "kind, layer, timesteps, frames"),
    ({"layer": 2, "timesteps": 4, "events": []}, "kind, layer, timesteps, events"),
], ids=["spikes", "rates", "analog", "untagged"])
def test_unknown_workload_key_names_the_allowed_keys(valid, tmp_path, doc, allowed):
    assert run("workload", doc, valid, tmp_path) == (0, "")
    code, err = run("workload", {**doc, "seed": 3}, valid, tmp_path)
    assert code == 2
    kind = doc.get("kind", "spikes")
    assert err == f"error: {kind} workload: unknown keys ['seed']; allowed: {allowed}\n"


@pytest.mark.parametrize("path, message", [
    ((), "trace: unknown keys ['seed']; allowed: format, model, timesteps, "
         "timestep_duration, layer_sizes, per_timestep, spikes, static_metrics"),
    (("spikes", 1), "trace layer 1: unknown keys ['seed']; allowed: layer, kind, events"),
    (("spikes", 0), "trace layer 0: unknown keys ['seed']; allowed: layer, kind, frames"),
], ids=["top", "binary-layer", "analog-layer"])
def test_unknown_trace_key_names_the_allowed_keys(valid, tmp_path, path, message):
    # layer 0 rewritten as the analog entry holding the same input spikes
    trace = mutated(valid["trace"], ("spikes", 0), {"layer": 0, "kind": "analog",
                                                    "frames": [[1, 0, 0, 0], [1, 1, 0, 0]]})
    assert run("trace", trace, valid, tmp_path) == (0, "")
    code, err = run("trace", mutated(trace, (*path, "seed"), 3), valid, tmp_path)
    assert code == 2
    assert err == f"error: {message}\n"


def test_valid_inputs_pass(valid, tmp_path):
    for kind in COMMANDS:
        assert run(kind, valid[kind], valid, tmp_path) == (0, "")


# --- fuzz: one field of a valid file replaced or deleted -------------------

def paths_in(doc, prefix=()) -> list[tuple]:
    """Every key and list index in ``doc``, depth first."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(paths_in(child, prefix + (key,)))
    return out


# Small integers keep every accepted input cheap to simulate; the values
# beyond 64 bits and the floats cover the range and finiteness rules.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.sampled_from([2**63, -(2**63) - 1, 10**400, 0.5, 2.0, -1.0, 1e300,
                     float("nan"), float("inf")]),
    st.sampled_from(["", "x", "1", "1e-12", "input", "binary", "effective", "to-zero"]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "name", "beta", "acs"]), inner, max_size=2),
    max_leaves=6,
)


@pytest.mark.parametrize("kind", ["model", "workload", "trace", "counts", "hwspec"])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_file_exits_cleanly(valid, tmp_path, kind, data):
    path = data.draw(st.sampled_from(paths_in(valid[kind])), label="path")
    value = data.draw(st.just(DELETE) | VALUES, label="value")
    code, err = run(kind, mutated(valid[kind], path, value), valid, tmp_path)
    assert code in (0, 2, 3, 4)
    assert len(err.splitlines()) == (0 if code == 0 else 1)


# --- the README documents every key the readers accept ---------------------

@pytest.mark.parametrize(
    "cls", [HardwareSpec, BatterySpec, Precision, NeuronParams, TrainableFlags],
    ids=lambda cls: cls.__name__,
)
def test_readme_names_every_key(cls):
    text = README.read_text()
    section = text[text.index("## File formats"):]
    section = section[:section.index("\n## ", 1)]
    code = " ".join(re.findall(r"`([^`]*)`", section))
    missing = [f.name for f in fields(cls) if not re.search(rf"\b{f.name}\b", code)]
    assert not missing, f"README 'File formats' lacks {cls.__name__} keys {missing}"


# --- numeric domains: each declared once, on its field's annotation ---------

def declared_domains(cls) -> dict[str, tuple]:
    """Field name -> (int or float, domain) of each field of the dataclass
    ``cls`` whose annotation declares a domain: ``Annotated[T, domain]``,
    optional or not."""
    out = {}
    for name, hint in typing.get_type_hints(cls, include_extras=True).items():
        if type(None) in typing.get_args(hint):
            (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if typing.get_origin(hint) is typing.Annotated:
            out[name] = typing.get_args(hint)[:2]
    return out


# Each dataclass that declares a domain: valid keyword arguments, and the
# error class its constructor raises.
CONSTRUCTORS = {
    HardwareSpec: ({}, HardwareSpecError),
    BatterySpec: ({"capacity_joules": 1.0}, HardwareSpecError),
    NeuronParams: ({"beta": 0.5, "threshold": 1.0}, ModelValidationError),
    Precision: ({}, ModelValidationError),
    LayerDescriptor: ({"kind": LayerKind.INPUT, "in_size": 2, "out_size": 2},
                      ModelValidationError),
    SimulationConfig: ({"timesteps": 1}, SimulationError),
    VersionMeasurement: ({"version": "v", "energy": 1.0, "time": 1.0}, ValueError),
    OpCounts: ({"macs": 0, "acs": 0, "membrane_updates_effective": 0,
                "membrane_updates_dense": 0}, ValueError),
    MemoryAccessCounts: ({"reads": 0, "writes": 0}, ValueError),
    cli.CountsFile: ({}, ValueError),
}

# Each of them read from a file: (file kind, path to its object in the valid
# document, the message's file kind, the field path's prefix).
FILE_RECORDS = {
    HardwareSpec: ("hwspec", (), "hardware spec", ""),
    BatterySpec: ("hwspec", ("battery",), "hardware spec", "battery."),
    Precision: ("model", ("precision",), "model", "precision."),
    LayerDescriptor: ("model", ("layers", 1), "layer 1: model", ""),
    NeuronParams: ("model", ("layers", 1, "neuron"), "layer 1: model", "neuron."),
    cli.CountsFile: ("counts", (), "counts file", ""),
}


def outside(kind: type, domain) -> list:
    """The values just outside each finite end of ``domain``."""
    below = (domain.lo if domain.open_lo else
             domain.lo - 1 if kind is int else math.nextafter(domain.lo, -math.inf))
    if not math.isfinite(domain.hi):
        return [below]
    return [below, domain.hi + 1 if kind is int else math.nextafter(domain.hi, math.inf)]


def closed_ends(kind: type, domain) -> list:
    return [kind(end) for end, closed in ((domain.lo, not domain.open_lo),
                                          (domain.hi, math.isfinite(domain.hi))) if closed]


def cases(ends, classes) -> list:
    return [pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
            for cls in classes for name, (kind, domain) in declared_domains(cls).items()
            for value in ends(kind, domain)]


def test_every_class_that_declares_a_domain_is_covered():
    found = set()
    for info in pkgutil.iter_modules(spikemeter.__path__):
        if not info.name.startswith("_"):
            module = importlib.import_module(f"spikemeter.{info.name}")
            found.update(cls for cls in vars(module).values()
                         if isinstance(cls, type) and is_dataclass(cls)
                         and cls.__module__ == module.__name__ and declared_domains(cls))
    assert found == set(CONSTRUCTORS)


@pytest.mark.parametrize("cls, name, value", cases(outside, CONSTRUCTORS))
def test_value_outside_its_domain_is_refused_by_the_constructor(cls, name, value):
    kwargs, error = CONSTRUCTORS[cls]
    domain = declared_domains(cls)[name][1]
    with pytest.raises(error) as refused:
        cls(**{**kwargs, name: value})
    assert type(refused.value) is error
    assert f"field {name!r}: expected a number in {domain}, got " in str(refused.value)


@pytest.mark.parametrize("cls, name, value", cases(closed_ends, CONSTRUCTORS))
def test_closed_end_of_a_domain_is_accepted(cls, name, value):
    kwargs, _ = CONSTRUCTORS[cls]
    assert getattr(cls(**{**kwargs, name: value}), name) == value


@pytest.mark.parametrize("cls, name, value", cases(outside, FILE_RECORDS))
def test_value_outside_its_domain_in_a_file_exits_2_naming_it(valid, tmp_path, cls, name,
                                                              value):
    kind, path, where, prefix = FILE_RECORDS[cls]
    code, err = run(kind, mutated(valid[kind], (*path, name), value), valid, tmp_path)
    assert code == 2
    assert err.startswith(f"error: {where} field '{prefix}{name}': expected a number in ")
    assert len(err.splitlines()) == 1
