import math
import random

import pytest

from trustconnect.errors import GraphInvariantError, ParseError
from trustconnect.graph import (
    DependencyGraph,
    EcuNode,
    EpsilonDistribution,
    UNIFORM_EPSILON,
    from_text,
    generate_random,
    load_graph,
    out_neighbors,
    parse_epsilon_dist,
    save_graph,
    to_text,
    validate,
)


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


# ---------------------------------------------------------------------------
# out_neighbors
# ---------------------------------------------------------------------------

def test_out_neighbors_empty():
    g = make_graph(3, [(1, 0)])
    assert out_neighbors(g, 0) == []


def test_out_neighbors_sorted():
    g = make_graph(18, [(2, 5), (2, 17), (2, 1), (2, 11), (2, 4), (2, 13)])
    assert out_neighbors(g, 2) == [1, 4, 5, 11, 13, 17]


def test_out_neighbors_complete_triangle():
    g = make_graph(3, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)])
    assert out_neighbors(g, 0) == [1, 2]


def test_out_neighbors_unknown_node():
    g = make_graph(3, [])
    with pytest.raises(ValueError):
        out_neighbors(g, 5)


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
    assert cg.epsilons == tuple(g.epsilons()[i] for i in cg.ids)
    adjacency = g.out_adjacency()
    for k, i in enumerate(cg.ids):
        row = range(cg.offsets[k], cg.offsets[k + 1])
        assert [cg.ids[cg.dst[e]] for e in row] == adjacency[i]
        assert [g.edges[e] for e in row] == [(i, j) for j in adjacency[i]]
    assert cg.offsets[-1] == len(g.edges)


def test_compiled_is_built_once_per_graph():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert g.compiled is g.compiled
    assert make_graph(0, []).compiled.offsets == (0,)


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
