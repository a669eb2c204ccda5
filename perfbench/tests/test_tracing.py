import pytest

from perfbench import tracing
from perfbench.tracing import Span, Tracer, self_times


def _span(i, start, end, parent=None, name="x", pass_id=1):
    return Span(i, name, start, end, parent, pass_id)


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 4.0, parent=0),  # overlaps span 1: [1, 4] is covered once
        _span(3, 8.0, 12.0, parent=0),  # runs past its parent: only [8, 10] counts
        _span(4, 1.5, 2.5, parent=1),  # a grandchild is not subtracted from span 0
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.0)


def test_leaf_self_time_is_its_duration():
    assert self_times([_span(0, 2.0, 5.0)]) == {0: 3.0}


def test_pass_metrics_parse_ratio_and_self_times():
    tracer = Tracer()
    tracer.spans = [
        _span(0, 0.0, 4.0, name="cli.estimate"),
        _span(1, 0.0, 1.0, parent=0, name="store.read_store"),
        _span(2, 1.0, 3.0, parent=0, name="store.record_snapshot"),
        _span(3, 1.0, 2.0, parent=2, name="store.read_store"),
        _span(4, 4.0, 8.0, name="cli.report"),
        _span(5, 4.0, 7.0, parent=4, name="report.build_report"),
        _span(6, 4.0, 5.0, parent=5, name="store.read_store"),
        _span(7, 8.0, 9.0, name="cli.simulate"),
        _span(8, 1.0, 2.0, name="store.read_store", pass_id=2),  # another pass
    ]
    tracer.counts[(1, "simulate.sops")] = 100
    tracer.counts[(1, "simulate.crossings")] = 7
    tracer.counts[(1, "simulate.layer_steps")] = 3
    m = tracing.pass_metrics(tracer, 1)
    assert m["store.read_calls"] == 3
    assert m["store.parse_ratio"] == pytest.approx(2 / 3)  # 2 verbs read, 3 reads
    assert m["store.read_s"] == pytest.approx(3.0)
    assert m["store.append_s"] == pytest.approx(1.0)  # 2 s minus its 1 s read
    assert m["report.build_s"] == pytest.approx(2.0)
    assert m["simulate.sops"] == 100
    assert m["simulate.sops_per_s"] == 0.0  # no run_inference span


def test_instrument_restores_entry_points():
    from spikemeter import cli, report, store

    before = (cli.run_inference, store.read_store, report.read_store,
              dict(report.RENDERERS))
    tracer = Tracer()
    with tracing.instrument(tracer):
        assert cli.run_inference is not before[0]
        assert report.RENDERERS["jsonl"] is not before[3]["jsonl"]
    assert (cli.run_inference, store.read_store, report.read_store,
            dict(report.RENDERERS)) == before


def test_wrapped_call_records_nested_span():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    names = {s.name: s for s in tracer.spans}
    assert names["inner"].parent == names["outer"].id
    assert names["outer"].parent is None
