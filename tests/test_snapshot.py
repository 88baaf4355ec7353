import importlib.util
import math
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trustconnect.detector import detect
from trustconnect.errors import ParseError, SnapshotMismatchError
from trustconnect.experiment import reference_fixture
from trustconnect.graph import DependencyGraph, EcuNode, generate_random, load_graph, save_graph
from trustconnect.snapshot import (
    load_scenario,
    save_scenario,
    scenario_from_text,
    scenario_to_text,
    AttackSpec,
    ScenarioSpec,
    Snapshot,
    _check_edges,
    constant_ground_truth,
    deviations,
    from_text,
    load_snapshot,
    save_snapshot,
    synthesize_snapshot,
    to_text,
    validate_snapshot,
)
from trustconnect.trust import TrustParams, full_report


@pytest.fixture
def graph():
    return generate_random(10, 0.3, seed=5)


def clean_scenario(graph, **kwargs):
    truth = {node.id: 1.0 + 0.5 * node.id for node in graph.nodes}
    return ScenarioSpec(ground_truth=truth, **kwargs)


# ---------------------------------------------------------------------------
# synthesize_snapshot
# ---------------------------------------------------------------------------

def test_noise_free_no_attack_has_zero_deviation(graph):
    snap = synthesize_snapshot(graph, clean_scenario(graph))
    for (i, j), value in snap.inferred.items():
        assert value == snap.observed[i]
    assert all(d == 0.0 for d in deviations(graph, snap))


def test_self_injection_shifts_observed_only(graph):
    attack = AttackSpec(compromised={4}, mode="self-injection", delta=2.0)
    scenario = clean_scenario(graph, attack=attack)
    snap = synthesize_snapshot(graph, scenario)
    assert snap.observed[4] == scenario.ground_truth[4] + 2.0
    clean = synthesize_snapshot(graph, clean_scenario(graph))
    assert snap.inferred == clean.inferred
    d = deviations(graph, snap)
    for (i, j), value in zip(graph.edges, d, strict=True):
        assert value == (2.0 if i == 4 else 0.0)


def test_inference_corruption_hits_in_edges_of_compromised(graph):
    attack = AttackSpec(compromised={7}, mode="inference-corruption", delta=1.0)
    snap = synthesize_snapshot(graph, clean_scenario(graph, attack=attack))
    d = deviations(graph, snap)
    for (i, j), value in zip(graph.edges, d, strict=True):
        assert value == (1.0 if j == 7 else 0.0)


def test_both_mode_applies_both_surfaces(graph):
    attack = AttackSpec(compromised={4}, mode="both", delta=3.0)
    scenario = clean_scenario(graph, attack=attack)
    snap = synthesize_snapshot(graph, scenario)
    assert snap.observed[4] == scenario.ground_truth[4] + 3.0
    d = deviations(graph, snap)
    for (i, j), value in zip(graph.edges, d, strict=True):
        if i == 4 and j == 4:
            raise AssertionError("self-loops cannot exist")
        if i == 4:
            assert value == 3.0
        elif j == 4:
            assert value == 3.0
        else:
            assert value == 0.0


def test_synthesis_is_deterministic(graph):
    scenario = clean_scenario(graph, noise_sigma=0.2, seed=77)
    a = synthesize_snapshot(graph, scenario)
    b = synthesize_snapshot(graph, scenario)
    assert a == b
    assert to_text(a) == to_text(b)


def test_noise_changes_with_seed(graph):
    a = synthesize_snapshot(graph, clean_scenario(graph, noise_sigma=0.2, seed=1))
    b = synthesize_snapshot(graph, clean_scenario(graph, noise_sigma=0.2, seed=2))
    assert a != b


def test_scenario_validation(graph):
    truth = constant_ground_truth(graph, 1.0)
    truth[999] = 5.0
    with pytest.raises(ValueError, match="unknown node ids"):
        synthesize_snapshot(graph, ScenarioSpec(ground_truth=truth))
    partial = constant_ground_truth(graph, 1.0)
    del partial[3]
    with pytest.raises(ValueError, match="missing ground truth"):
        synthesize_snapshot(graph, ScenarioSpec(ground_truth=partial))
    attack = AttackSpec(compromised={999}, delta=1.0)
    with pytest.raises(ValueError, match="unknown node ids"):
        synthesize_snapshot(
            graph, ScenarioSpec(ground_truth=constant_ground_truth(graph, 1.0), attack=attack)
        )


def test_attack_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec(compromised={1}, mode="teleport", delta=1.0)
    with pytest.raises(ValueError):
        AttackSpec(compromised={1}, delta=-0.5)
    with pytest.raises(ValueError, match="at least one node"):
        AttackSpec(compromised=set())
    with pytest.raises(ValueError):
        ScenarioSpec(ground_truth={}, noise_sigma=-1.0)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda v: AttackSpec(compromised={1}, delta=v), "delta"),
        (lambda v: ScenarioSpec(ground_truth={0: 1.0}, noise_sigma=v), "noise_sigma"),
        (lambda v: ScenarioSpec(ground_truth={0: 1.0, 3: v}), "ground truth of node 3"),
    ],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_scenario_fields_reject_non_finite_by_name(build, field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        build(value)


# ---------------------------------------------------------------------------
# deviations
# ---------------------------------------------------------------------------

def two_node_snapshot(obs_0, inf_01):
    g = DependencyGraph(
        nodes=(EcuNode(0, "E0", 0.5), EcuNode(1, "E1", 0.5)), edges=((0, 1),)
    )
    return g, Snapshot(observed={0: obs_0, 1: 0.0}, inferred={(0, 1): inf_01})


@pytest.mark.parametrize(
    "obs, inf, expected",
    [(5.0, 5.0, 0.0), (5.0, 3.5, 1.5), (3.5, 5.0, 1.5)],
)
def test_deviation_arithmetic(obs, inf, expected):
    g, snap = two_node_snapshot(obs, inf)
    assert g.edges == ((0, 1),)
    assert deviations(g, snap) == [expected]


def test_deviations_require_complete_snapshot():
    g, snap = two_node_snapshot(1.0, 2.0)
    missing_inf = Snapshot(observed=snap.observed, inferred={})
    with pytest.raises(SnapshotMismatchError, match=r"edge \(0, 1\)"):
        deviations(g, missing_inf)
    missing_obs = Snapshot(observed={1: 0.0}, inferred=snap.inferred)
    with pytest.raises(SnapshotMismatchError, match="node 0"):
        deviations(g, missing_obs)


@pytest.mark.parametrize(
    "obs, inf, fragment",
    [
        (math.nan, 1.0, "observed value nan for node 0"),
        (math.inf, 1.0, "observed value inf for node 0"),
        (1.0, math.nan, r"inferred value nan for edge \(0, 1\)"),
        (1.0, -math.inf, r"inferred value -inf for edge \(0, 1\)"),
        (1e308, -1e308, r"deviation on edge \(0, 1\) overflows"),
    ],
)
def test_deviations_reject_non_finite_values(obs, inf, fragment):
    g, snap = two_node_snapshot(obs, inf)
    with pytest.raises(SnapshotMismatchError, match=fragment):
        deviations(g, snap)


def test_finite_deviations_whose_sum_overflows_pass():
    g = DependencyGraph(
        nodes=(EcuNode(0, "E0", 0.5), EcuNode(1, "E1", 0.5), EcuNode(2, "E2", 0.5)),
        edges=((0, 1), (0, 2)),
    )
    snap = Snapshot(observed={0: 1e308, 1: 0.0, 2: 0.0}, inferred={(0, 1): 0.0, (0, 2): 0.0})
    assert deviations(g, snap) == [1e308, 1e308]


@pytest.mark.parametrize("node", [0, 1])
def test_a_self_injected_value_that_overflows_is_rejected_where_it_is_formed(node):
    # node 1 has no out-edge, so no deviation would ever read its value
    g, _ = two_node_snapshot(0.0, 0.0)
    scenario = ScenarioSpec(constant_ground_truth(g, 1e308),
                            attack=AttackSpec(compromised={node}, delta=1e308))
    with pytest.raises(SnapshotMismatchError,
                       match=f"^non-finite observed value inf for node {node}$"):
        synthesize_snapshot(g, scenario)


def _bulk_pair(tmp_path, graph, snapshot):
    """``graph`` and ``snapshot`` saved canonically and loaded back in bulk."""
    save_graph(graph, tmp_path / "graph.txt")
    save_snapshot(snapshot, tmp_path / "snapshot.txt")
    loaded = load_graph(tmp_path / "graph.txt")
    return loaded, load_snapshot(tmp_path / "snapshot.txt", loaded)


def test_overflowing_deviation_is_rejected_on_the_column_path(tmp_path):
    g, snap = _bulk_pair(tmp_path, *two_node_snapshot(1e308, -1e308))
    assert "inferred" not in vars(snap)  # read in bulk, as a column
    with pytest.raises(SnapshotMismatchError, match=r"deviation on edge \(0, 1\) overflows"):
        deviations(g, snap)


def test_eval_and_detect_of_bulk_files_keep_edges_and_inferred_as_columns(tmp_path):
    graph, scenario = reference_fixture()
    synthesized = synthesize_snapshot(graph, scenario)
    g, snap = _bulk_pair(tmp_path, graph, synthesized)
    params, detect_params = TrustParams(k=1.0, alpha=0.1), TrustParams(k=1.0, alpha=0.0)
    report = full_report(g, snap, params)
    detection = detect(g, snap, detect_params)
    report.to_json(), detection.to_json()
    assert "edges" not in vars(g)
    assert "inferred" not in vars(snap)
    as_dicts = Snapshot(observed=synthesized.observed, inferred=synthesized.inferred)
    assert report == full_report(graph, as_dicts, params)
    assert detection == detect(graph, as_dicts, detect_params)


def test_scenario_eval_and_detect_of_a_bulk_read_graph_build_no_edges():
    graph, scenario = reference_fixture()  # the graph is read in bulk
    snap = synthesize_snapshot(graph, scenario)
    full_report(graph, snap, TrustParams(k=1.0, alpha=0.1)).to_json()
    detect(graph, snap, TrustParams(k=1.0, alpha=0.0)).to_json()
    assert "edges" not in vars(graph)
    # the noise stream is still drawn in edge order, as documented
    rng, attack = random.Random(scenario.seed), scenario.attack
    expected = [
        scenario.ground_truth[i] + rng.gauss(0.0, scenario.noise_sigma)
        + (attack.delta if attack.corrupts_inferred and j in attack.compromised else 0.0)
        for i, j in graph.edges
    ]
    assert [value.hex() for value in snap._column] == [value.hex() for value in expected]


def _derived_field_holders():
    """A bulk-read graph, a column snapshot and a report from columns, each without its field."""
    graph, scenario = reference_fixture()
    snap = synthesize_snapshot(graph, scenario)
    report = full_report(graph, snap, TrustParams(k=1.0, alpha=0.1))
    return {"graph": (graph, "edges"), "snapshot": (snap, "inferred"),
            "report": (report, "entries")}


@pytest.mark.parametrize("holder", ["graph", "snapshot", "report"])
def test_a_derived_field_is_built_on_first_read_and_kept(holder):
    instance, name = _derived_field_holders()[holder]
    assert name not in vars(instance)
    with pytest.raises(AttributeError, match="no_such_field"):
        instance.no_such_field
    assert not hasattr(instance, "_no_such_marker")
    assert name not in vars(instance)  # another name builds nothing
    value = getattr(instance, name)
    assert vars(instance)[name] is value
    assert getattr(instance, name) is value


def test_synthesized_column_gives_the_lookup_deviations_bit_for_bit(graph):
    attack = AttackSpec(compromised={1, 2}, mode="both", delta=0.7)
    snap = synthesize_snapshot(graph, clean_scenario(graph, noise_sigma=0.4, attack=attack, seed=3))
    column = [value.hex() for value in deviations(graph, snap)]
    assert "inferred" not in vars(snap)
    as_dict = Snapshot(observed=snap.observed, inferred=snap.inferred)
    assert column == [value.hex() for value in deviations(graph, as_dict)]


def test_edge_deviations_follow_edge_order(graph):
    attack = AttackSpec(compromised={1, 2}, mode="both", delta=0.7)
    snap = synthesize_snapshot(graph, clean_scenario(graph, noise_sigma=0.4, attack=attack, seed=3))
    assert deviations(graph, snap) == [
        abs(snap.observed[i] - snap.inferred[(i, j)]) for i, j in graph.edges
    ]


def _comprehension_deviations(graph, snapshot):
    """``deviations`` by its per-edge comprehension only: the lookup path's reference."""
    observed, inferred = snapshot.observed, snapshot.inferred
    try:
        result = [abs(observed[edge[0]] - inferred[edge]) for edge in graph.edges]
    except KeyError:
        result = None
    if result is None or not math.isfinite(sum(result)):
        _check_edges(graph, snapshot)
    return result


def _deviation_outcome(function, graph, snapshot):
    try:
        return [value.hex() for value in function(graph, snapshot)]
    except SnapshotMismatchError as exc:
        return str(exc)


# the cases that yield deviations; the others raise SnapshotMismatchError
DEVIATIONS_RESULT = ("own keys", "equal keys", "swapped keys", "extra key", "missing sink",
                     "nan sink")
DEVIATIONS_CASES = DEVIATIONS_RESULT + (
    "missing key", "missing source", "non-finite value", "overflow",
)


@st.composite
def deviation_inputs(draw, case):
    """A graph of 3+ nodes whose last node is a sink, and a snapshot edited as ``case`` says."""
    ids = sorted(draw(st.lists(st.integers(0, 50), min_size=3, max_size=7, unique=True)))
    sink = ids[-1]
    pairs = st.tuples(st.sampled_from(ids[:-1]), st.sampled_from(ids))
    edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), min_size=2, max_size=12,
                          unique=True))
    graph = DependencyGraph(tuple(EcuNode(i, f"E{i}", 0.5) for i in ids), tuple(edges))
    edges = graph.edges
    e = draw(st.integers(1, len(edges) - 1))
    keys = [(i, j) for i, j in edges] if case == "equal keys" else list(edges)
    if case == "swapped keys":
        keys[e - 1:e + 1] = keys[e], keys[e - 1]
    elif case == "missing key":
        del keys[e]
    elif case == "extra key":
        keys.append((sink, ids[0]))
    values = st.floats(-1e6, 1e6)
    observed = {i: draw(values) for i in ids}
    inferred = {key: draw(values) for key in keys}
    if case == "missing source":
        del observed[edges[e][0]]
    elif case == "missing sink":
        del observed[sink]
    elif case == "nan sink":
        observed[sink] = math.nan
    elif case == "non-finite value":
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        if draw(st.booleans()):
            observed[edges[e][0]] = bad
        else:
            inferred[edges[e]] = bad
    elif case == "overflow":
        observed[edges[e][0]], inferred[edges[e]] = 1e308, -1e308
    return graph, Snapshot(observed=observed, inferred=inferred)


@pytest.mark.parametrize("case", DEVIATIONS_CASES)
@settings(max_examples=25)
@given(data=st.data())
def test_edge_deviations_fast_path_matches_the_comprehension(case, data):
    graph, snapshot = data.draw(deviation_inputs(case))
    expected = _deviation_outcome(_comprehension_deviations, graph, snapshot)
    assert _deviation_outcome(deviations, graph, snapshot) == expected
    assert isinstance(expected, list) == (case in DEVIATIONS_RESULT)
    keys = tuple(snapshot.inferred)
    assert (keys == graph.edges) == (case not in ("swapped keys", "missing key", "extra key"))
    if case == "equal keys":
        assert not any(map(operator.is_, keys, graph.edges))


def test_deviations_nonnegative(graph):
    attack = AttackSpec(compromised={1, 2}, mode="both", delta=0.7)
    snap = synthesize_snapshot(graph, clean_scenario(graph, noise_sigma=0.4, attack=attack, seed=3))
    assert all(d >= 0.0 for d in deviations(graph, snap))


def test_every_package_export_resolves():
    import trustconnect

    assert [name for name in trustconnect.__all__ if not hasattr(trustconnect, name)] == []
    namespace = {}
    exec("from trustconnect import *", namespace)
    assert set(trustconnect.__all__) <= namespace.keys()
    assert namespace["deviations"] is deviations


def test_package_exports_are_exactly_the_public_api():
    # __all__ is built from the package's imports; a new import must be added here too
    import trustconnect

    assert sorted(trustconnect.__all__) == [
        "AttackSpec", "CellCheck", "DependencyGraph", "DetectionEntry", "DetectionReport",
        "DetectorParams", "EcuNode", "EpsilonDistribution", "GraphInvariantError",
        "NonConvergenceWarning", "ParseError", "RandomGraphSpec", "ScenarioSpec", "Snapshot",
        "SnapshotMismatchError", "SweepResult", "SweepSpec", "TrustConnectError", "TrustEntry",
        "TrustParams", "TrustReport", "__version__", "adjusted_trust", "baseline_trust",
        "check_gap_ordering", "constant_ground_truth", "detect", "deviations",
        "emit_figure_data", "full_report", "generate_random", "grouped_bar_svg", "load_graph",
        "load_scenario", "load_snapshot", "load_sweep_spec", "parse_epsilon_dist",
        "reference_fixture", "reference_sweep_spec", "relative_gap", "run_sweep",
        "run_sweep_on", "save_graph", "save_scenario", "save_snapshot", "save_sweep_spec",
        "synthesize_snapshot", "trust_scores", "validate", "validate_snapshot",
    ]
    assert len(set(trustconnect.__all__)) == len(trustconnect.__all__)


def test_a_cold_start_loads_every_traced_module_but_neither_openssl_nor_html():
    """``import trustconnect.cli`` leaves ``hashlib`` to the sweep's ``graph_digest`` and
    ``html`` to no one, and imports each module whose bindings perfbench's tracer swaps."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("spans", root / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = {home for home, *_ in spans.FUNCTIONS}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, trustconnect.cli; print(*sys.modules, sep='\\n')"],
        env={**os.environ, "PYTHONPATH": str(root / "src")}, capture_output=True, text=True,
        check=True)
    loaded = set(done.stdout.splitlines())
    assert len(traced) == 6 and traced <= loaded
    assert {"hashlib", "_hashlib", "html", "html.entities"}.isdisjoint(loaded)


# ---------------------------------------------------------------------------
# file round-trip
# ---------------------------------------------------------------------------

def test_round_trip(tmp_path, graph):
    snap = synthesize_snapshot(graph, clean_scenario(graph, noise_sigma=0.3, seed=11))
    path = tmp_path / "snap.txt"
    save_snapshot(snap, path)
    assert load_snapshot(path) == snap


def test_validate_snapshot_names_missing_edge(graph):
    snap = synthesize_snapshot(graph, clean_scenario(graph))
    edge = graph.edges[0]
    broken = Snapshot(
        observed=snap.observed,
        inferred={e: v for e, v in snap.inferred.items() if e != edge},
    )
    problems = validate_snapshot(graph, broken)
    assert problems == [f"missing inferred value for edge ({edge[0]}, {edge[1]})"]


def test_validate_snapshot_clean(graph):
    snap = synthesize_snapshot(graph, clean_scenario(graph))
    assert validate_snapshot(graph, snap) == []


def test_external_canonical_file_loads_equal():
    text = (
        "trustconnect-snapshot v1\n"
        "obs 0 1.5\n"
        "obs 1 2.5\n"
        "inf 0 1 1.25\n"
    )
    snap = from_text(text)
    assert snap == Snapshot(observed={0: 1.5, 1: 2.5}, inferred={(0, 1): 1.25})


def test_snapshot_parse_errors():
    with pytest.raises(ParseError):
        from_text("obs 0 1.5\n")
    with pytest.raises(ParseError) as excinfo:
        from_text("trustconnect-snapshot v1\ninf 0 1\n")
    assert excinfo.value.line_no == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
@pytest.mark.parametrize("record", ["obs 1 {}", "inf 0 1 {}"])
def test_snapshot_rejects_non_finite_values_with_line(record, value):
    text = "trustconnect-snapshot v1\nobs 0 1.0\n" + record.format(value) + "\n"
    with pytest.raises(ParseError, match="non-finite") as excinfo:
        from_text(text, path="snap.txt")
    assert excinfo.value.line_no == 3


# ---------------------------------------------------------------------------
# scenario files


def test_scenario_round_trip(graph):
    scenario = ScenarioSpec(
        ground_truth={n.id: 0.1 + n.id for n in graph.nodes},
        noise_sigma=0.25,
        attack=AttackSpec(compromised=frozenset({2, 7}), mode="both", delta=3.5),
        seed=99,
    )
    text = scenario_to_text(scenario)
    assert text.startswith("trustconnect-scenario v1\n")
    assert scenario_from_text(text) == scenario
    # byte-stable
    assert scenario_to_text(scenario_from_text(text)) == text


def test_scenario_without_attack_omits_the_attack_line():
    scenario = ScenarioSpec(ground_truth={0: 1.0})
    text = scenario_to_text(scenario)
    assert "attack" not in text
    parsed = scenario_from_text(text)
    assert parsed.attack is None
    assert parsed == scenario


def test_scenario_file_round_trip(tmp_path, graph):
    scenario = clean_scenario(graph, noise_sigma=0.5, seed=3)
    path = tmp_path / "scenario.txt"
    save_scenario(scenario, path)
    assert load_scenario(path) == scenario


def test_scenario_parse_errors():
    with pytest.raises(ParseError):
        scenario_from_text("truth 0 1.0\n")
    with pytest.raises(ParseError) as excinfo:
        scenario_from_text("trustconnect-scenario v1\nnoise_sigma 0.1\nnoise_sigma 0.2\n")
    assert excinfo.value.line_no == 3
    with pytest.raises(ParseError):
        scenario_from_text("trustconnect-scenario v1\nattack bogus-mode 1.0 0\n")
    with pytest.raises(ParseError):
        scenario_from_text("trustconnect-scenario v1\nwhatever 1\n")


@pytest.mark.parametrize(
    "record, message",
    [
        ("truth 0 nan", "non-finite value 'nan'"),
        ("noise_sigma inf", "non-finite value 'inf'"),
        ("noise_sigma -0.5", "noise_sigma must be >= 0, got -0.5"),
        ("attack both -inf 1", "non-finite value '-inf'"),
        ("seed 1 2", "expected: seed <int>"),
    ],
)
def test_scenario_field_errors_carry_their_line(record, message):
    text = f"trustconnect-scenario v1\ntruth 1 1.0\n{record}\n"
    with pytest.raises(ParseError) as excinfo:
        scenario_from_text(text, path="sc.txt")
    assert str(excinfo.value) == f"sc.txt:3: {message}"
