import ast
import math
import sys
from pathlib import Path

import pytest

from spikemeter.catalog import (
    ALERT_RULES,
    Polarity,
    Provenance,
    SourceTable,
    builtin_catalog,
    find_metric,
)
from spikemeter.fields import FieldError

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spikemeter"

# Expected classification grid: name, accessible, high fidelity, actionable,
# trend-based.  The second (derived metrics) group adds two columns:
# assumes-estimation and trend-inherent.
TABLE1 = [
    ("Parameters", True, False, False, False),
    ("Effective Synaptic Operations", True, False, False, True),
    ("Membrane Updates", True, False, False, True),
    ("Activation Sparsity", True, False, True, True),
    ("Memory Footprint", True, False, False, False),
    ("Connection Sparsity", True, False, False, False),
    ("Memory Accesses", True, False, False, True),
    ("Training Time", True, False, False, True),
    ("Energy per Inference", False, True, False, False),
    ("Energy per Learning", False, True, False, False),
    ("Energy Area FoM", False, True, False, False),
    ("Peak per Energy Consumption", False, True, False, False),
    ("Power Density", False, True, True, False),
]
TABLE2 = [
    ("Energy Delay Product", True, True, False, False, True, False),
    ("Speedup", True, True, True, True, False, True),
    ("Greenup", True, True, True, True, True, True),
    ("Powerup", True, True, True, True, True, True),
    ("Estimated Battery Life", True, True, True, False, True, False),
    ("Inferences per Battery Cycle", True, True, True, False, True, False),
    ("Accuracy-Efficiency Tradeoff", True, True, True, True, True, False),
]


def by_name(name):
    descriptor = find_metric(name)
    assert descriptor is not None, f"missing descriptor {name!r}"
    return descriptor


def test_catalog_has_13_plus_7_descriptors():
    catalog = builtin_catalog()
    assert len(catalog) == 20
    assert sum(1 for d in catalog if d.source_table is SourceTable.TABLE1) == 13
    assert sum(1 for d in catalog if d.source_table is SourceTable.TABLE2) == 7


def test_table1_flags_cell_for_cell():
    for name, acc, fid, act, trend in TABLE1:
        d = by_name(name)
        assert d.source_table is SourceTable.TABLE1, name
        got = (d.accessibility, d.high_fidelity, d.actionability, d.trend_based)
        assert got == (acc, fid, act, trend), f"{name}: {got}"
        assert not d.assumes_estimation, name


def test_table2_flags_cell_for_cell():
    for name, acc, fid, act, trend, starred, inherent in TABLE2:
        d = by_name(name)
        assert d.source_table is SourceTable.TABLE2, name
        got = (d.accessibility, d.high_fidelity, d.actionability, d.trend_based)
        assert got == (acc, fid, act, trend), f"{name}: {got}"
        assert d.assumes_estimation == starred, name
        assert d.trend_inherent == inherent, name


def test_aggregate_counts_match_known_splits():
    table1 = [d for d in builtin_catalog() if d.source_table is SourceTable.TABLE1]
    assert sum(d.accessibility for d in table1) == 8
    assert sum(not d.accessibility for d in table1) == 5
    assert sum(d.high_fidelity for d in table1) == 5
    assert sum(d.actionability for d in table1) == 2
    assert sum(d.trend_based for d in table1) == 5


def test_spot_lookups():
    assert by_name("Activation Sparsity").actionability is True
    assert by_name("Parameters").trend_based is False
    greenup = by_name("Greenup")
    assert greenup.trend_based is True and greenup.trend_inherent is True


def test_accessible_implies_not_high_fidelity_in_table1():
    # the catalogued metrics split cleanly: accessible ones are low fidelity
    for d in builtin_catalog():
        if d.source_table is SourceTable.TABLE1:
            assert d.accessibility != d.high_fidelity, d.key


def test_keys_unique_and_lookup_by_key():
    keys = tuple(d.key for d in builtin_catalog())
    assert len(keys) == len(set(keys)) == 20
    for key in keys:
        assert find_metric(key).key == key
    assert find_metric("ACTIVATION_SPARSITY").key == "activation_sparsity"
    assert find_metric("power density").key == "power_density"
    assert find_metric("not a metric") is None


def test_polarities_for_trend_direction():
    assert by_name("effective_synops").polarity is Polarity.HIGHER_IS_WORSE
    assert by_name("activation_sparsity").polarity is Polarity.HIGHER_IS_BETTER
    assert by_name("estimated_battery_life").polarity is Polarity.HIGHER_IS_BETTER
    assert by_name("powerup").polarity is Polarity.HIGHER_IS_WORSE


def test_provenance_classes():
    assert by_name("parameters").provenance_class is Provenance.COMPUTED
    assert by_name("training_time").provenance_class is Provenance.INGESTED
    assert by_name("energy_per_inference").provenance_class is Provenance.ESTIMATED


@pytest.mark.parametrize("key", sorted(ALERT_RULES))
def test_alert_rule_threshold_lies_in_its_metric_domain(key):
    """``at`` takes a threshold at either end of the metric's domain and
    refuses one outside it, or one that is not a finite number."""
    rule = ALERT_RULES[key]
    upper = find_metric(rule.metric).upper
    top = upper if math.isfinite(upper) else sys.float_info.max
    for threshold in (0, top):
        moved = rule.at(threshold)
        assert (moved.metric, moved.comparison, moved.threshold) == (
            rule.metric, rule.comparison, threshold)
    outside = [-0.1, math.nan, math.inf, -math.inf, "1"]
    if math.isfinite(upper):
        outside.append(upper + 0.1)
    for threshold in outside:
        with pytest.raises(FieldError):
            rule.at(threshold)


def test_alert_rules_match_the_benchmarks_copy():
    """perfbench/checks.py judges the alerts the report prints from its own
    copy of the rules; read without running it, it states the same triples."""
    tree = ast.parse(CHECKS.read_text())
    copy = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "ALERT_RULES" for t in node.targets))
    assert {(metric, side, threshold) for metric, (side, threshold) in copy.items()} == {
        (rule.metric, rule.comparison, rule.threshold) for rule in ALERT_RULES.values()}


# (module, function) of each place that may resolve a metric name with
# find_metric.  Each takes the name from outside: a store line's metric name,
# a register line's name, history's --metric, a name to register, and a
# writer's name for its default tag.
NAME_RESOLVERS = {
    ("store", "_key"),
    ("store", "_apply"),
    ("store", "trend_report"),
    ("store", "register_metric"),
    ("store", "_registration"),
    ("catalog", "default_tag"),
}


def test_find_metric_resolves_outside_names_only():
    """The store reads every stored name under its key once; every layer
    above it looks a key up in ``DESCRIPTORS``.  Read without running it,
    the package names find_metric only inside NAME_RESOLVERS, so a new
    resolution site fails here."""
    sites = set()

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (isinstance(node, ast.Name) and node.id == "find_metric"
                or isinstance(node, ast.Attribute) and node.attr == "find_metric"
                or isinstance(node, ast.alias) and node.name == "find_metric" and node.asname):
            sites.add((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert sites == NAME_RESOLVERS
