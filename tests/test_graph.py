import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import trustconnect.graph as graph_module
from trustconnect.cli import main
from trustconnect.errors import GraphInvariantError, ParseError
from trustconnect.experiment import RandomGraphSpec
from trustconnect.graph import (
    DependencyGraph,
    EcuNode,
    EpsilonDistribution,
    UNIFORM_EPSILON,
    from_text,
    generate_random,
    load_graph,
    parse_epsilon_dist,
    save_graph,
    to_text,
    validate,
    _violations,
)
from trustconnect.detector import detect
from trustconnect.snapshot import (
    ScenarioSpec, Snapshot, load_snapshot, save_snapshot, synthesize_snapshot,
)
from trustconnect.trust import TrustParams, full_report


def make_graph(n, edges, epsilon=0.5):
    nodes = tuple(EcuNode(i, f"E{i}", epsilon) for i in range(n))
    return DependencyGraph(nodes=nodes, edges=tuple(edges))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_empty_graph_is_valid():
    assert validate(DependencyGraph(nodes=(), edges=())) == []


def test_validate_self_loop():
    g = make_graph(4, [(3, 3)])
    assert validate(g) == ["self-loop at node 3"]


def test_validate_dangling_edge():
    g = make_graph(1, [(0, 99)])
    violations = validate(g)
    assert len(violations) == 1
    assert "unknown node 99" in violations[0]


@pytest.mark.parametrize(
    "mutate, expected_fragment",
    [
        (lambda g: DependencyGraph(g.nodes + (EcuNode(0, "dup", 0.5),), g.edges), "duplicate node id 0"),
        (lambda g: DependencyGraph(g.nodes + (EcuNode(9, "E9", 1.5),), g.edges), "epsilon out of range"),
        (lambda g: DependencyGraph(g.nodes + (EcuNode(9, "E9", -0.1),), g.edges), "epsilon out of range"),
        (lambda g: DependencyGraph(g.nodes + (EcuNode(-1, "neg", 0.5),), g.edges), "negative id"),
        (lambda g: DependencyGraph(g.nodes + (EcuNode(9, "bad label", 0.5),), g.edges), "invalid label"),
        pytest.param(
            lambda g: DependencyGraph(g.nodes + (EcuNode(9, "a#b", 0.5),), g.edges),
            "invalid label",
            id="comment-char-in-label",
        ),
        (lambda g: DependencyGraph(g.nodes, g.edges + ((1, 1),)), "self-loop at node 1"),
        (lambda g: DependencyGraph(g.nodes, g.edges + ((0, 1),)), "duplicate edge (0, 1)"),
        (lambda g: DependencyGraph(g.nodes, g.edges + ((0, 42),)), "unknown node 42"),
    ],
)
def test_validate_catches_each_injected_violation(mutate, expected_fragment):
    base = make_graph(3, [(0, 1), (1, 2)])
    assert validate(base) == []
    mutated = mutate(base)
    violations = validate(mutated)
    assert any(expected_fragment in v for v in violations), violations


def test_validate_ordering_is_deterministic():
    g = DependencyGraph(
        nodes=(EcuNode(2, "E2", 2.0), EcuNode(0, "E0", -1.0)),
        edges=((2, 2), (0, 7)),
    )
    violations = validate(g)
    assert violations == [
        "node 0: epsilon out of range (-1.0)",
        "node 2: epsilon out of range (2.0)",
        "edge (0, 7): unknown node 7",
        "self-loop at node 2",
    ]


FLAWS = (
    "negative id", "duplicate id", "label", "epsilon",
    "self-loop", "duplicate edge", "unknown source", "unknown target",
)


@st.composite
def graphs_with_flaw(draw, flaw):
    """A valid small graph, with one violation of kind ``flaw`` injected unless it is None."""
    n = draw(st.integers(min_value=1, max_value=6))
    nodes = [EcuNode(i, f"E{i}", draw(st.floats(0.0, 1.0))) for i in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), unique=True, max_size=10))
    i = draw(st.integers(0, n - 1))
    if flaw == "negative id":
        nodes.append(EcuNode(draw(st.integers(-3, -1)), "N", 0.5))
    elif flaw == "duplicate id":
        nodes.append(EcuNode(i, "D", 0.5))
    elif flaw == "label":
        label = draw(st.sampled_from(["a,b", "a#b", "a b", "", "\t", "x\n", "a\x1cb", "\u2003"]))
        nodes[i] = replace(nodes[i], label=label)
    elif flaw == "epsilon":
        epsilon = draw(st.sampled_from([math.nan, -0.1, 1.5, math.inf, -math.inf, -1e-300]))
        nodes[i] = replace(nodes[i], epsilon=epsilon)
    elif flaw == "self-loop":
        edges.append((i, i))
    elif flaw == "duplicate edge":
        # the copy goes first: the constructor must bring the pair together
        edges[:0] = [draw(st.sampled_from(edges))] if edges else [(0, n), (0, n)]
    elif flaw is not None:
        edge = (i, n + draw(st.integers(0, 3)))
        edges.append(edge if flaw == "unknown target" else edge[::-1])
    return DependencyGraph(nodes=tuple(nodes), edges=tuple(edges))


@pytest.mark.parametrize("flaw", [None, *FLAWS])
@settings(max_examples=50)
@given(data=st.data())
def test_bulk_accept_passes_exactly_when_the_scan_finds_nothing(flaw, data):
    graph = data.draw(graphs_with_flaw(flaw))
    assert (validate(graph) == []) == (_violations(graph) == []) == (flaw is None)
    assert validate(graph) == _violations(graph)
    if flaw is None:
        return
    ids = {*graph.node_ids, *(i for edge in graph.edges for i in edge)}
    # a value for every endpoint and every edge, so that only the graph can be at fault
    snapshot = Snapshot(observed=dict.fromkeys(ids, 1.0), inferred=dict.fromkeys(graph.edges, 1.0))
    params = TrustParams(k=1.0, alpha=0.1)
    for evaluate in (
        lambda: graph.compiled,
        lambda: synthesize_snapshot(graph, ScenarioSpec(dict.fromkeys(graph.node_ids, 1.0))),
        lambda: full_report(graph, snapshot, params),
        lambda: detect(graph, snapshot, params),
    ):
        with pytest.raises(GraphInvariantError) as excinfo:
            evaluate()
        assert excinfo.value.violations == _violations(graph)


def test_constructor_canonicalizes_any_iterable_of_pairs():
    g = DependencyGraph(nodes=(), edges=(e for e in ([1, 0], (True, 2.0), (0, 1))))
    assert g.edges == ((0, 1), (1, 0), (1, 2))
    assert all(type(i) is int for edge in g.edges for i in edge)


# ---------------------------------------------------------------------------
# generate_random
# ---------------------------------------------------------------------------

def test_generate_single_node():
    g = generate_random(1, 0.7, seed=123)
    assert len(g.nodes) == 1
    assert g.edges == ()


def test_generate_complete_digraph():
    g = generate_random(20, 1.0, seed=7)
    assert len(g.edges) == 20 * 19


def test_generate_empty_for_p_zero():
    g = generate_random(20, 0.0, seed=7)
    assert g.edges == ()


def test_generate_rejects_bad_probability():
    with pytest.raises(ValueError):
        generate_random(5, 1.5)
    with pytest.raises(ValueError):
        generate_random(5, -0.01)
    with pytest.raises(ValueError):
        generate_random(0, 0.5)


@pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
def test_generate_and_random_graph_spec_reject_a_non_int_n(n):
    with pytest.raises(ValueError, match=f"^n must be an int, got {n!r}$"):
        generate_random(n, 0.5)
    with pytest.raises(ValueError, match=f"^n must be an int, got {n!r}$"):
        RandomGraphSpec(n=n, edge_probability=0.5)


def reference_generation(n, p, seed):
    """Independent walk of the documented generation procedure."""
    rng = random.Random(seed)
    epsilons = [0.0 + (1.0 - 0.0) * rng.random() for _ in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if rng.random() < p:
                edges.append((i, j))
    return epsilons, edges


def test_generate_matches_reference_walk():
    n, p, seed = 20, 0.15, 42
    expected_eps, expected_edges = reference_generation(n, p, seed)
    g = generate_random(n, p, seed=seed)
    assert len(g.edges) == len(expected_edges)
    assert list(g.edges) == sorted(expected_edges)
    assert [node.epsilon for node in g.nodes] == expected_eps


def test_generate_is_reproducible():
    a = generate_random(20, 0.15, seed=99)
    b = generate_random(20, 0.15, seed=99)
    assert a == b
    assert to_text(a) == to_text(b)


def test_generate_mean_edge_count_binomial():
    # mean over 1000 seeds should sit within 3 sigma of n(n-1)p = 57
    n, p = 20, 0.15
    trials = 1000
    pairs = n * (n - 1)
    counts = [len(generate_random(n, p, seed=s).edges) for s in range(trials)]
    mean = sum(counts) / trials
    sigma = math.sqrt(pairs * p * (1 - p) / trials)
    assert abs(mean - pairs * p) <= 3 * sigma


def test_generate_constant_epsilon():
    g = generate_random(5, 0.5, EpsilonDistribution("constant", 0.25), seed=1)
    assert all(node.epsilon == 0.25 for node in g.nodes)


def test_parse_epsilon_dist():
    assert parse_epsilon_dist("uniform") == UNIFORM_EPSILON
    d = parse_epsilon_dist("uniform:0.1,0.9")
    assert (d.kind, d.a, d.b) == ("uniform", 0.1, 0.9)
    c = parse_epsilon_dist("constant:0.3")
    assert (c.kind, c.a) == ("constant", 0.3)
    with pytest.raises(ValueError):
        parse_epsilon_dist("gauss:0,1")
    with pytest.raises(ValueError):
        parse_epsilon_dist("uniform:0.5,1.5")


def test_epsilon_distribution_rejects_an_unknown_kind_and_a_reversed_range(tmp_path, capsys):
    with pytest.raises(ValueError, match="unknown distribution kind 'bogus'"):
        EpsilonDistribution("bogus")
    argv = ["generate", "--epsilon", "uniform:0.9,0.1", "--out", str(tmp_path / "g.txt")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "trustconnect: error: bad distribution spec 'uniform:0.9,0.1': "
        "uniform distribution needs a <= b\n")
    assert not (tmp_path / "g.txt").exists()


# ---------------------------------------------------------------------------
# file round-trip
# ---------------------------------------------------------------------------

def test_round_trip(tmp_path):
    g = generate_random(20, 0.15, seed=42)
    path = tmp_path / "g.txt"
    save_graph(g, path)
    assert load_graph(path) == g
    # canonical files are byte-stable
    save_graph(g, tmp_path / "g2.txt")
    assert (tmp_path / "g.txt").read_bytes() == (tmp_path / "g2.txt").read_bytes()


def test_load_rejects_missing_header():
    with pytest.raises(ParseError):
        from_text("node 0 E0 0.5\n")


def test_load_reports_malformed_record_with_line():
    text = "trustconnect-graph v1\nnode 0 E0 0.5\nedge 0\n"
    with pytest.raises(ParseError) as excinfo:
        from_text(text)
    assert "edge" in str(excinfo.value)
    assert excinfo.value.line_no == 3


def test_load_rejects_unknown_record():
    with pytest.raises(ParseError) as excinfo:
        from_text("trustconnect-graph v1\nvertex 0 E0 0.5\n")
    assert "vertex" in str(excinfo.value)


def test_load_rejects_epsilon_out_of_range():
    text = "trustconnect-graph v1\nnode 0 E0 1.5\n"
    with pytest.raises(GraphInvariantError) as excinfo:
        from_text(text)
    assert "epsilon out of range" in str(excinfo.value)


def test_load_skips_comments_and_blank_lines():
    text = (
        "trustconnect-graph v1\n"
        "# a comment\n"
        "\n"
        "node 0 E0 0.5  # trailing comment\n"
        "node 1 E1 0.25\n"
        "edge 0 1\n"
    )
    g = from_text(text)
    assert g.node_ids == (0, 1)
    assert g.edges == ((0, 1),)


def test_epsilon_full_precision_round_trip():
    eps = 0.1234567890123456789  # collapses to nearest double
    g = DependencyGraph(nodes=(EcuNode(0, "E0", eps),), edges=())
    g2 = from_text(to_text(g))
    assert g2.nodes[0].epsilon == g.nodes[0].epsilon


# ---------------------------------------------------------------------------
# compiled form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_compiled_rows_match_out_adjacency(seed):
    g = generate_random(n=15, edge_probability=0.25, seed=seed)
    cg = g.compiled
    assert cg.ids == g.node_ids
    assert cg.epsilons == tuple(n.epsilon for n in g.nodes)
    adjacency = {n.id: [j for i, j in g.edges if i == n.id] for n in g.nodes}
    for k, i in enumerate(cg.ids):
        row = range(cg.offsets[k], cg.offsets[k + 1])
        assert [cg.ids[cg.dst[e]] for e in row] == adjacency[i]
        assert [g.edges[e] for e in row] == [(i, j) for j in adjacency[i]]
    assert cg.offsets[-1] == len(g.edges)


def test_compiled_is_built_once_per_graph():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert g.compiled is g.compiled
    assert make_graph(0, []).compiled.offsets == (0,)


def test_canonical_file_evaluates_without_compiling_or_revalidating(tmp_path, monkeypatch):
    graph = generate_random(n=12, edge_probability=0.3, seed=4)
    scenario = ScenarioSpec({node.id: 1.0 for node in graph.nodes}, noise_sigma=0.2, seed=1)
    save_graph(graph, tmp_path / "g.txt")
    save_snapshot(synthesize_snapshot(graph, scenario), tmp_path / "s.txt")
    params = TrustParams(k=1.0, alpha=0.1)
    expected = full_report(graph, synthesize_snapshot(graph, scenario), params)

    def fail(_graph):
        raise AssertionError("the bulk read hands over a checked, compiled graph")

    monkeypatch.setattr(graph_module, "_compile", fail)
    monkeypatch.setattr(graph_module, "_violations", fail)
    loaded = load_graph(tmp_path / "g.txt")
    report = full_report(loaded, load_snapshot(tmp_path / "s.txt", loaded), params)
    assert report.to_json() == expected.to_json()


@pytest.mark.parametrize(
    "graph, fragment",
    [
        (make_graph(2, [(0, 1), (0, 42)]), "edge (0, 42): unknown node 42"),
        (make_graph(2, [(7, 1)]), "edge (7, 1): unknown node 7"),
        (DependencyGraph(make_graph(2, []).nodes + (EcuNode(1, "dup", 0.5),), ()),
         "duplicate node id 1"),
    ],
)
def test_compiling_an_inconsistent_graph_raises(graph, fragment):
    with pytest.raises(GraphInvariantError) as excinfo:
        graph.compiled
    assert fragment in excinfo.value.violations
