import json
import math
import tracemalloc
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spikemeter import cli, fields
from spikemeter.files import (
    WorkloadFileError,
    _dump_array,
    load_trace,
    load_workload,
    prepare_input,
    save_trace,
    trace_to_dict,
    workload_from_dict,
)
from spikemeter.model import LayerDescriptor, LayerKind, ModelDescriptor, NeuronParams, ResetMode
from spikemeter.simulate import (AnalogTrain, SimulationConfig, SpikeTrain, WorkloadTrace,
                                 run_inference)
from spikemeter.workload import TraceCounts

from conftest import fc_layer, input_layer, simple_model


class TestWorkloadParsing:
    def test_spike_train_file_without_kind_tag(self, tmp_path):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps(
            {"layer": 2, "timesteps": 4, "events": [[0, 0], [1, 2]]}
        ))
        workload = load_workload(path)
        assert workload.kind == "spikes"
        train = prepare_input(workload, SimulationConfig(timesteps=4))
        assert isinstance(train, SpikeTrain)
        assert train.events[0, 0] == 1.0 and train.events[1, 2] == 1.0
        assert train.events.sum() == 2

    def test_rates_inferred_and_encoded_with_seed(self):
        workload = workload_from_dict({"values": [0.0, 1.0]})
        assert workload.kind == "rates"
        train = prepare_input(workload, SimulationConfig(timesteps=6, seed=3))
        assert train.events[0].sum() == 0
        assert train.events[1].sum() == 6

    def test_analog_frames(self):
        workload = workload_from_dict(
            {"kind": "analog", "layer": 2, "timesteps": 2, "frames": [[0.5, 0.0], [0.0, 1.0]]}
        )
        train = prepare_input(workload, SimulationConfig(timesteps=2))
        assert isinstance(train, AnalogTrain)
        assert train.events[0, 0] == 0.5

    def test_timestep_conflict_rejected(self):
        workload = workload_from_dict(
            {"kind": "spikes", "layer": 1, "timesteps": 3, "events": []}
        )
        with pytest.raises(ValueError):
            prepare_input(workload, SimulationConfig(timesteps=4))

    def test_event_outside_dimensions_rejected(self):
        workload = workload_from_dict(
            {"kind": "spikes", "layer": 1, "timesteps": 3, "events": [[1, 0]]}
        )
        with pytest.raises(ValueError):
            prepare_input(workload, SimulationConfig(timesteps=3))

    def test_unrecognizable_shape_rejected(self):
        with pytest.raises(WorkloadFileError):
            workload_from_dict({"something": 1})

    @pytest.mark.parametrize(
        "raw, field",
        [
            ({"kind": "spikes", "layer": 2, "timesteps": 3, "events": 5}, "events"),
            ({"kind": "spikes", "layer": 2, "timesteps": 3, "events": [[0]]}, "events"),
            ({"kind": "spikes", "layer": 2, "timesteps": 3, "events": [["a", 0]]}, "events"),
            ({"kind": "spikes", "layer": None, "timesteps": 3, "events": []}, "layer"),
            ({"kind": "rates", "values": 5}, "values"),
            ({"kind": "rates", "values": [[0.5]]}, "values"),
            ({"kind": "analog", "layer": 1, "timesteps": 2, "frames": 5}, "frames"),
            ({"kind": "analog", "layer": 1, "timesteps": 2, "frames": [5]}, "frames"),
        ],
        ids=["events-not-list", "short-event", "non-integer-event", "layer-null",
             "values-not-list", "value-not-number", "frames-not-list", "frame-row-not-list"],
    )
    def test_malformed_field_named(self, tmp_path, capsys, raw, field):
        with pytest.raises(WorkloadFileError, match=f"workload field '{field}'"):
            workload_from_dict(raw)
        path = tmp_path / "wl.json"
        path.write_text(json.dumps(raw))
        model = str(resources.files("spikemeter") / "data" / "demo_model.json")
        code = cli.main(["simulate", "--model", model, "--workload", str(path),
                         "--timesteps", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and f"'{field}'" in err and len(err.splitlines()) == 1

    def test_bad_frame_shape_rejected(self):
        workload = workload_from_dict(
            {"kind": "analog", "layer": 2, "timesteps": 3, "frames": [[1.0, 2.0, 3.0]]}
        )
        with pytest.raises(WorkloadFileError):
            prepare_input(workload, SimulationConfig(timesteps=3))


def with_static_metrics(trace: WorkloadTrace, static_metrics: dict) -> WorkloadTrace:
    return replace(trace, counts=replace(trace.counts, static_metrics=static_metrics))


def trace_of(spikes: list[np.ndarray], **fields) -> WorkloadTrace:
    """A trace of ``spikes``, its layer sizes, crossings and spike total
    counted from them; ``fields`` gives the rest of its counts."""
    timesteps = spikes[0].shape[1]
    crossings = np.zeros(timesteps, dtype=np.int64)
    for layer in spikes[:-1]:
        crossings += np.count_nonzero(layer, axis=0)
    return WorkloadTrace(spikes, TraceCounts(
        layer_sizes=tuple(len(layer) for layer in spikes), timesteps=timesteps,
        crossings=crossings.tolist(),
        non_input_spikes=sum(int(np.count_nonzero(layer)) for layer in spikes[1:]), **fields))


class TestTraceRoundTrip:
    def test_binary_and_analog_layers_survive(self, tmp_path):
        model = simple_model([[0.9, 0.4], [0.3, 0.8]], beta=0.5, threshold=0.7)
        frames = np.array([[0.5, 1.0, 0.0], [1.0, 0.0, 0.25]])
        trace = run_inference(model, AnalogTrain(frames), SimulationConfig(timesteps=3))
        trace = with_static_metrics(trace, {"parameters": 8.0})
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        again = load_trace(path)
        assert again == trace.counts
        assert again.timestep_duration == trace.counts.timestep_duration
        assert again.static_metrics == {"parameters": 8.0}
        assert again.model_name == "fixture"

    def test_unwritable_static_metrics_leave_the_old_file(self, tmp_path):
        model = simple_model([[0.9, 0.4], [0.3, 0.8]], beta=0.5, threshold=0.7)
        train = SpikeTrain.from_events(2, 3, [(0, 0), (1, 2)])
        trace = run_inference(model, train, SimulationConfig(timesteps=3))
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_trace(with_static_metrics(trace, {"parameters": object()}), path)
        assert path.read_bytes() == before
        # json.dumps would write the key as "1"
        with pytest.raises(ValueError, match="static_metrics key 1 is not a string"):
            save_trace(with_static_metrics(trace, {1: 2.0}), path)
        assert path.read_bytes() == before

    def test_non_trace_file_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(WorkloadFileError):
            load_trace(path)


# Entries whose text is easy to get wrong: the sign of zero, the smallest
# subnormal, and the exponent forms repr picks for small and large values.
EDGE_FLOATS = [-0.0, 5e-324, 1e-05, 1e+16, 1.0]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def layers(draw, timesteps: int) -> np.ndarray:
    """One layer's events: binary or analog, its rows all zero, fully dense
    or mixed.  A layer holds at least one neuron, as in any model."""
    binary = draw(st.booleans())
    nonzero = st.just(1.0) if binary else st.sampled_from(EDGE_FLOATS) | FINITE
    entry = {"zero": st.just(0.0), "dense": nonzero, "mixed": st.just(0.0) | nonzero}
    rows = [draw(st.lists(entry[draw(st.sampled_from(list(entry)))],
                          min_size=timesteps, max_size=timesteps))
            for _ in range(draw(st.integers(1, 4)))]
    return np.array(rows, dtype=np.float64).reshape(len(rows), timesteps)


@st.composite
def traces(draw) -> WorkloadTrace:
    timesteps = draw(st.integers(1, 6))
    spikes = draw(st.lists(layers(timesteps), min_size=1, max_size=3))
    tally = st.lists(st.integers(0, 2**40), min_size=timesteps, max_size=timesteps)
    return trace_of(
        spikes,
        **{key: draw(tally) for key in ("acs", "macs", "leak_macs", "membrane_updates")},
        timestep_duration=draw(st.sampled_from([1e-3, 1e-05]) | st.floats(1e-9, 1.0)),
        model_name=draw(st.text(max_size=4)),
        model_version=draw(st.text(max_size=4)),
        static_metrics=draw(st.dictionaries(st.text(max_size=4), FINITE, max_size=3)),
    )


def edge_trace(timesteps: int, analog: list[list[float]]) -> WorkloadTrace:
    """An analog input layer, then a binary layer with no events; no static metrics."""
    frames = np.array(analog, dtype=np.float64).reshape(-1, timesteps)
    zeros = [0] * timesteps
    return trace_of([frames, np.zeros((2, timesteps))], acs=zeros, macs=zeros,
                    leak_macs=zeros, membrane_updates=zeros, timestep_duration=1e-3)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trace=traces())
@example(trace=edge_trace(1, [[x] for x in EDGE_FLOATS]))
@example(trace=edge_trace(5, [[0.0] * 5, EDGE_FLOATS, [0.0, -0.0, 0.0, 1e-05, 0.0]]))
def test_save_trace_writes_the_json_dumps_bytes(tmp_path, trace):
    """The trace file is defined as these bytes; save_trace formats arrays
    itself and must write them exactly, then read back as the trace's counts."""
    path = tmp_path / "trace.json"
    save_trace(trace, path)
    assert path.read_bytes() == (json.dumps(trace_to_dict(trace), sort_keys=True)
                                 + "\n").encode()
    assert load_trace(path) == trace.counts


@pytest.mark.parametrize("array", [
    np.zeros((2, 3)), np.array([[0.0, 0.0], [0.0, -7.5]]), np.array([[3.0, 0.0], [0.0, 0.0]]),
    np.zeros((0, 2), dtype=np.int64), np.zeros((3, 0)), np.array([[0, 5], [2, 0]]),
    np.arange(12).reshape(4, 3), np.array([0.0, -0.0, 2.0]),
], ids=["zeros", "zero-row-first", "zero-row-last", "no-rows", "no-columns", "int-pairs",
        "int-triples", "vector"])
def test_dump_array_writes_json_dumps_of_the_list(array):
    """Entries the trace writer never meets too: a float matrix of zeros
    alone is a binary layer there, written as events."""
    pieces = []
    _dump_array(array, pieces.append)
    assert "".join(pieces) == json.dumps(array.tolist())


def test_boolean_spikes_save_as_their_float_copy(tmp_path):
    """A layer's spikes as bool, as the simulator holds them, or as float64
    0/1 give the same trace bytes: both are a binary layer's events."""
    rng = np.random.default_rng(3)
    frames = np.where(rng.random((3, 40)) < 0.3, rng.uniform(-1.0, 1.0, (3, 40)), 0.0)
    fired = rng.random((5, 40)) < 0.2
    zeros = [0] * 40
    saved = []
    for spikes in (fired, fired.astype(np.float64)):
        path = tmp_path / f"{spikes.dtype}.json"
        save_trace(trace_of([frames, spikes], acs=zeros, macs=zeros, leak_macs=zeros,
                            membrane_updates=zeros, timestep_duration=1e-3), path)
        saved.append(path.read_bytes())
    assert saved[0] == saved[1]
    assert json.loads(saved[0])["spikes"][1]["kind"] == "binary"


class TestTraceValidation:
    """A trace that does not describe a valid run is refused on load, and the
    CLI reports it as an input error (exit 2, one line, no traceback)."""

    def write_trace(self, tmp_path, mutate) -> str:
        model = simple_model([[0.9, 0.4], [0.3, 0.8]], beta=0.5, threshold=0.7)
        train = SpikeTrain.from_events(2, 3, [(0, 0), (1, 0), (1, 2)])
        trace = run_inference(model, train, SimulationConfig(timesteps=3))
        raw = trace_to_dict(trace)
        mutate(raw)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def assert_estimate_exits_2(self, path, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"e_ac": 1e-12}))
        assert cli.main(["estimate", "--trace", path, "--hwspec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda per: per["acs"].pop(),
            lambda per: per.update(acs=per["acs"][:1]),
            lambda per: per["macs"].__setitem__(1, -1),
        ],
        ids=["truncated", "length-1", "negative"],
    )
    def test_bad_tallies_rejected(self, tmp_path, capsys, mutate):
        path = self.write_trace(tmp_path, lambda raw: mutate(raw["per_timestep"]))
        with pytest.raises(WorkloadFileError, match="per_timestep"):
            load_trace(path)
        self.assert_estimate_exits_2(path, tmp_path, capsys)

    @pytest.mark.parametrize("event", [[-1, 0], [99, 0]], ids=["negative", "past-end"])
    def test_event_outside_layer_rejected(self, tmp_path, capsys, event):
        path = self.write_trace(tmp_path, lambda raw: raw["spikes"][0]["events"].append(event))
        with pytest.raises(WorkloadFileError, match="trace layer 0"):
            load_trace(path)
        self.assert_estimate_exits_2(path, tmp_path, capsys)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda raw: raw["per_timestep"].pop("leak_macs"),
             r"trace field 'per_timestep\.leak_macs': missing"),
            (lambda raw: raw.update(model=[]),
             r"trace field 'model': expected a JSON object, got list"),
            (lambda raw: raw["spikes"].append(raw["spikes"][-1]), "3 spike layers for 2"),
            (lambda raw: raw["spikes"].pop(), "1 spike layers for 2"),
            (lambda raw: raw["spikes"][0]["events"].append([0]),
             r"trace layer 0 field 'events': expected an integer array .*, got ragged rows"),
            (lambda raw: raw["spikes"].__setitem__(0, {
                "layer": 0, "kind": "analog", "frames": [[None, 0.0, 0.0], [1.0, 0.0, 0.5]],
            }), r"trace layer 0 field 'frames': expected a number array .*, got non-numeric"),
            (lambda raw: raw["spikes"].__setitem__(0, {
                "layer": 0, "kind": "analog",
                "frames": [[float("nan"), 0.0, 0.0], [1.0, 0.0, 0.5]],
            }), "trace layer 0: events must be finite"),
        ],
        ids=["missing-field", "model-not-object", "extra-layer", "missing-layer",
             "short-event", "non-finite-frame", "nan-frame"],
    )
    def test_malformed_structure_rejected(self, tmp_path, capsys, mutate, message):
        path = self.write_trace(tmp_path, mutate)
        with pytest.raises(WorkloadFileError, match=message):
            load_trace(path)
        self.assert_estimate_exits_2(path, tmp_path, capsys)

    @pytest.mark.parametrize("size", [-1, 0])
    @pytest.mark.parametrize("layer", [{"layer": 1, "kind": "binary", "events": []},
                                       {"layer": 1, "kind": "analog", "frames": []}],
                             ids=["binary", "analog"])
    def test_layer_size_below_one_refused(self, tmp_path, capsys, layer, size):
        """A layer holds at least one neuron, as in the model the trace came from."""
        def mutate(raw):
            raw["layer_sizes"][1] = size
            raw["spikes"][1] = layer

        path = self.write_trace(tmp_path, mutate)
        message = f"trace field 'layer_sizes.1': expected a layer size >= 1, got {size}"
        with pytest.raises(WorkloadFileError) as refused:
            load_trace(path)
        assert str(refused.value) == message
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"e_ac": 1e-12}))
        assert cli.main(["estimate", "--trace", path, "--hwspec", str(spec)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("mutate, entry, message", [
        *[(lambda raw: raw["spikes"].__setitem__(0, {
            "layer": 0, "kind": "analog", "frames": [["X", 0.0, 0.0], [1.0, 0.0, 0.5]]}),
           entry, message) for entry, message in [
            ("NaN", "trace layer 0: events must be finite"),
            ("1e999", "trace layer 0: events must be finite"),
            ("-Infinity", "trace layer 0: events must be finite"),
            ("null", "trace layer 0 field 'frames': expected a number array of shape [*, *], "
                     "got non-numeric entries"),
            ("true", "trace layer 0 field 'frames': expected a number array of shape [*, *], "
                     "got bool entries"),
        ]],
        *[(lambda raw: raw["per_timestep"]["macs"].__setitem__(1, "X"), entry,
           f"trace field 'per_timestep.macs': expected an integer array of shape [3], got {got}")
          for entry, got in [("2.5", "non-integer entries"), ("2.0", "non-integer entries"),
                             (str(2**63), "out-of-range integer entries"),
                             (str(2**64), "out-of-range integer entries"),
                             ("false", "bool entries")]],
        (lambda raw: raw["per_timestep"].__setitem__("macs", "X"), "[]",
         "trace field 'per_timestep.macs': expected an integer array of shape [3], "
         "got shape [0]"),
        *[(lambda raw: raw["spikes"][0]["events"].insert(1, "X"), entry,
           f"trace layer 0: event {shown} outside train dimensions")
          for entry, shown in [("[-1, 0]", "(-1, 0)"), ("[2, 0]", "(2, 0)"),
                               ("[0, 3]", "(0, 3)"), ("[1, -1]", "(1, -1)")]],
    ], ids=["nan-frame", "1e999-frame", "minus-infinity-frame", "null-frame", "bool-frame",
            "fractional-tally", "float-tally", "tally-2**63", "tally-2**64", "bool-tally",
            "empty-tally",
            "negative-neuron", "neuron-past-end", "timestep-past-end", "negative-timestep"])
    def test_refused_entries_keep_their_messages(self, tmp_path, capsys, mutate, entry,
                                                 message):
        """Each entry, written into the file as the text ``entry``, is refused
        with the message of the rule it breaks."""
        path = self.write_trace(tmp_path, mutate)
        Path(path).write_text(Path(path).read_text().replace('"X"', entry))
        with pytest.raises(WorkloadFileError) as refused:
            load_trace(path)
        assert str(refused.value) == message
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"e_ac": 1e-12}))
        assert cli.main(["estimate", "--trace", path, "--hwspec", str(spec)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_unsorted_and_duplicate_events_count_once(tmp_path):
    """A hand-written trace may list events in any order and more than once;
    each (neuron, timestep) counts once, as in the spike matrix the events
    describe."""
    events = [[[1, 1], [0, 0], [1, 0], [1, 1], [0, 0]],
              [[2, 0], [0, 0], [2, 0], [1, 3], [0, 1]]]
    layer_sizes, timesteps = (2, 3), 4
    tallies = {"acs": [6, 3, 0, 0], "macs": [0, 1, 3, 3], "leak_macs": [0, 1, 3, 3],
               "membrane_updates": [3, 3, 3, 3]}
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({
        "format": "spikemeter-trace-v1", "model": {"name": "demo", "version": "v1"},
        "timesteps": timesteps, "timestep_duration": 1e-3, "layer_sizes": list(layer_sizes),
        "per_timestep": tallies, "static_metrics": {},
        "spikes": [{"layer": i, "kind": "binary", "events": layer}
                   for i, layer in enumerate(events)],
    }))
    counts = load_trace(path)
    assert (counts.crossings, counts.non_input_spikes) == ([2, 1, 0, 0], 4)
    matrices = [SpikeTrain.from_events(size, timesteps, layer).events
                for size, layer in zip(layer_sizes, events)]
    assert counts == trace_of(matrices, **tallies, timestep_duration=1e-3,
                              model_name="demo", model_version="v1").counts


# Frame text ``json.dumps`` never writes: each spelling of a zero, and a subnormal.
ZERO_FRAMES = "[[0.0, -0.0, 0, 0.00], [1e-320, 0.5, -0.0, 0.0]]"
ZERO_WORKLOAD = f'{{"kind": "analog", "layer": 2, "timesteps": 4, "frames": {ZERO_FRAMES}}}'


def signed(rows: list) -> list:
    """Each entry with its type and its sign, which ``==`` does not tell apart."""
    return [[(type(x), x, math.copysign(1.0, x)) for x in row] for row in rows]


def test_frames_decode_as_json_loads_decodes_them(tmp_path):
    """The workload loader shares one +0.0 for the text ``0.0``; every
    other spelling, ``-0.0`` above all, decodes as ``json.loads`` decodes it."""
    path = tmp_path / "workload.json"
    path.write_text(ZERO_WORKLOAD)
    frames = load_workload(path).frames
    assert signed(frames) == signed(json.loads(ZERO_WORKLOAD)["frames"])
    assert frames[0][0] is frames[1][3]


def test_zero_spellings_give_the_golden_trace(tmp_path, monkeypatch):
    """``simulate --trace-out`` on frames holding every zero spelling writes
    the bytes it wrote when each float decoded to an object of its own; the
    trace loader reads those frames, respelled, to the same counts as the
    default decode does."""
    workload, trace = tmp_path / "workload.json", tmp_path / "trace.json"
    workload.write_text(ZERO_WORKLOAD)
    model = str(resources.files("spikemeter") / "data" / "demo_model.json")
    assert cli.main(["simulate", "--model", model, "--workload", str(workload),
                     "--trace-out", str(trace)]) == 0
    golden = (Path(__file__).parent / "data" / "golden_trace_zeros.json").read_text()
    assert trace.read_text() == golden
    written = "[[0.0, -0.0, 0.0, 0.0], [1e-320, 0.5, -0.0, 0.0]]"
    assert written in golden
    trace.write_text(golden.replace(written, ZERO_FRAMES))
    counts = load_trace(trace)
    monkeypatch.setattr(fields, "_shared_zero", float)
    assert counts == load_trace(trace)


def test_mostly_zero_frames_decode_small(tmp_path):
    """A +0.0 frame entry costs its list slot: decoding 96 x 2000 frames, 3 %
    of them nonzero, keeps under 12 bytes per entry allocated, where a float
    object of its own per entry would keep over 32."""
    rng = np.random.default_rng(5)
    shape = (96, 2000)
    frames = np.where(rng.random(shape) < 0.03, rng.normal(size=shape), 0.0).tolist()
    path = tmp_path / "workload.json"
    path.write_text(json.dumps({"kind": "analog", "layer": shape[0], "timesteps": shape[1],
                                "frames": frames}))
    tracemalloc.start()
    try:
        workload = load_workload(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert workload.frames == frames
    assert held / (shape[0] * shape[1]) < 12


def test_long_narrow_run_and_its_trace_stay_small(tmp_path):
    """Simulating 8 sparse analog channels into 256 recurrent neurons for
    4000 steps, then saving the trace, peaks under 8 bytes allocated per
    neuron-timestep of the recurrent layer: a float64 matrix of that layer's
    spikes or current would take all 8 by itself."""
    rng = np.random.default_rng(12)
    channels, hidden, steps = 8, 256, 4000

    def half_zero(shape, scale):
        return np.where(rng.random(shape) < 0.5, 0.0, rng.normal(0.0, scale, shape))

    recurrent = LayerDescriptor(
        kind=LayerKind.RECURRENT, in_size=channels, out_size=hidden,
        weights=half_zero((hidden, channels), 1.2),
        recurrent_weights=half_zero((hidden, hidden), 0.05), biases=half_zero((hidden,), 0.05),
        neuron=NeuronParams(beta=0.9, threshold=1.0, reset_mode=ResetMode.SUBTRACT))
    model = ModelDescriptor(name="long", version="v1", layers=(
        input_layer(channels), recurrent, fc_layer(half_zero((4, hidden), 0.8), beta=0.5)))
    shape = (channels, steps)
    train = AnalogTrain(np.where(rng.random(shape) < 0.03, rng.uniform(0.05, 0.95, shape), 0.0))
    tracemalloc.start()
    try:
        trace = run_inference(model, train, SimulationConfig(timesteps=steps))
        save_trace(trace, tmp_path / "trace.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.counts.non_input_spikes > 0
    assert peak / (hidden * steps) < 8
