"""Properties shared by the four text formats: graph, snapshot, scenario, sweep spec.

Every value a format can hold survives ``from_text(to_text(x)) == x``, and
no line of input, however malformed, escapes as anything but a ParseError
(or a GraphInvariantError for a well-formed but invalid graph).
"""

import pytest
from hypothesis import given, settings, strategies as st

from trustconnect.errors import GraphInvariantError, ParseError, RecordReader
from trustconnect.experiment import (
    SWEEP_HEADER,
    SWEEP_RECORDS,
    RandomGraphSpec,
    SweepSpec,
    parse_sweep_spec,
    sweep_spec_to_text,
)
from trustconnect.graph import (
    GRAPH_HEADER,
    GRAPH_RECORDS,
    DependencyGraph,
    EcuNode,
    EpsilonDistribution,
    from_text as graph_from_text,
    to_text as graph_to_text,
    validate,
)
from trustconnect.snapshot import (
    ATTACK_MODES,
    SCENARIO_HEADER,
    SCENARIO_RECORDS,
    SNAPSHOT_HEADER,
    SNAPSHOT_RECORDS,
    AttackSpec,
    ScenarioSpec,
    Snapshot,
    from_text as snapshot_from_text,
    scenario_from_text,
    scenario_to_text,
    to_text as snapshot_to_text,
)
from trustconnect.trust import MODES

node_ids = st.integers(min_value=0, max_value=10**6)
ids = st.integers(min_value=-10**6, max_value=10**6)
finite = st.floats(allow_nan=False, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0)


def _label_is_valid(label):
    return validate(DependencyGraph(nodes=(EcuNode(0, label, 0.5),), edges=())) == []


# '#', ',' and whitespace are drawn often, so the labels validate() must
# reject are tried on every run
labels = st.text(
    alphabet=st.sampled_from("E0_-#,. \t") | st.characters(), min_size=1, max_size=8
).filter(_label_is_valid)


@st.composite
def graphs(draw):
    ids_drawn = draw(st.lists(node_ids, unique=True, max_size=8))
    nodes = tuple(EcuNode(i, draw(labels), draw(unit)) for i in ids_drawn)
    edges = []
    if len(ids_drawn) > 1:
        pairs = st.tuples(st.sampled_from(ids_drawn), st.sampled_from(ids_drawn))
        edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), unique=True, max_size=16))
    return DependencyGraph(nodes=nodes, edges=tuple(edges))


snapshots = st.builds(
    Snapshot,
    observed=st.dictionaries(ids, finite, max_size=12),
    inferred=st.dictionaries(st.tuples(ids, ids), finite, max_size=12),
)
attacks = st.none() | st.builds(
    AttackSpec,
    compromised=st.frozensets(ids, min_size=1, max_size=5),
    mode=st.sampled_from(ATTACK_MODES),
    delta=nonnegative,
)
scenarios = st.builds(
    ScenarioSpec,
    ground_truth=st.dictionaries(ids, finite, max_size=12),
    noise_sigma=nonnegative,
    attack=attacks,
    seed=st.integers(),
)


@st.composite
def epsilon_distributions(draw):
    if draw(st.booleans()):
        return EpsilonDistribution("constant", draw(unit))
    low, high = sorted((draw(unit), draw(unit)))
    return EpsilonDistribution("uniform", low, high)


random_graphs = st.builds(
    RandomGraphSpec,
    n=st.integers(min_value=1, max_value=10**6),
    edge_probability=unit,
    epsilon=epsilon_distributions(),
    seed=st.integers(),
)
grid_axes = st.lists(nonnegative, min_size=1, max_size=5, unique=True).map(
    lambda values: tuple(sorted(values))
)
sweep_fields = dict(
    truth_constant=finite,
    truth_overrides=st.dictionaries(ids, finite, max_size=6).map(
        lambda truth: tuple(sorted(truth.items()))
    ),
    noise_sigma=nonnegative,
    attack=attacks,
    scenario_seed=st.integers(),
    k_values=grid_axes,
    alpha_values=grid_axes,
    mode=st.sampled_from(MODES),
)
sweep_specs = st.one_of(
    st.builds(SweepSpec, graph_file=st.from_regex(r"[\w./-]+", fullmatch=True), **sweep_fields),
    st.builds(SweepSpec, graph_random=random_graphs, **sweep_fields),
)


@given(graphs())
def test_graph_round_trips(graph):
    assert graph_from_text(graph_to_text(graph)) == graph


@given(snapshots)
def test_snapshot_round_trips(snapshot):
    assert snapshot_from_text(snapshot_to_text(snapshot)) == snapshot


@given(scenarios)
def test_scenario_round_trips(scenario):
    assert scenario_from_text(scenario_to_text(scenario)) == scenario


@given(sweep_specs)
def test_sweep_spec_round_trips(spec):
    assert parse_sweep_spec(sweep_spec_to_text(spec)) == spec


FORMATS = [
    (GRAPH_HEADER, GRAPH_RECORDS, graph_from_text),
    (SNAPSHOT_HEADER, SNAPSHOT_RECORDS, snapshot_from_text),
    (SCENARIO_HEADER, SCENARIO_RECORDS, scenario_from_text),
    (SWEEP_HEADER, SWEEP_RECORDS, parse_sweep_spec),
]

# fields that reach each conversion: numbers, non-finite values, lists,
# key=value pairs, modes and comments
fields = st.one_of(
    st.sampled_from([
        "0", "1", "-1", "0.5", "1e400", "nan", "-inf", "x", "", "1,2", "2,1", ",",
        "n=5", "p=0.5", "p=nan", "seed=3", "epsilon=constant:0.5", "epsilon=uniform:1,0",
        "bogus=1", "n", "=", "both", "self-injection", "fixed-point", "#", "a#b",
    ]),
    st.text(max_size=6),
)


@st.composite
def documents(draw, header, usage):
    kinds = st.sampled_from(sorted(usage)) | st.text(max_size=6)
    records = st.builds(
        lambda kind, rest: " ".join([kind, *rest]), kinds, st.lists(fields, max_size=6)
    )
    lines = draw(st.lists(records | st.text(max_size=12), max_size=8))
    return "\n".join([header, *lines]) + "\n"


@pytest.mark.parametrize(
    "header, usage, parse", FORMATS, ids=["graph", "snapshot", "scenario", "sweep"]
)
@settings(max_examples=100)
@given(data=st.data())
def test_malformed_lines_raise_only_parse_errors(header, usage, parse, data):
    text = data.draw(documents(header, usage))
    try:
        parse(text, path="doc.txt")
    except ParseError as exc:
        assert str(exc).startswith("doc.txt")
    except GraphInvariantError:
        pass


def test_reader_checks_optional_field_counts():
    text = "h\npair 1\npair 1 2\n  # comment only\n\npair 1 2 3\n"
    records = RecordReader(text, "f", "h", {"pair": "<a> [<b>]"})
    seen = []
    with pytest.raises(ParseError) as excinfo:
        with records:
            for fields in records:
                seen.append(fields)
    assert seen == [["pair", "1"], ["pair", "1", "2"]]
    assert str(excinfo.value) == "f:6: expected: pair <a> [<b>]"
