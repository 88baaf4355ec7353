"""One-off builder for the committed reference fixture.

Regenerates src/trustconnect/data/reference_graph.txt and
reference_scenario.txt from a fixed seed, then verifies every property
the test suite relies on before writing anything. The committed files
are the artifact of record; this script exists so the fixture's
construction stays reproducible and auditable.

Fixture requirements:
  * 20 nodes labeled E0..E19.
  * out(E2) == {E1, E4, E5, E11, E13, E17}.
  * out-degrees: E5 -> 3, E13 -> 4, E18 -> 4.
  * epsilon >= 0.9 for E5, E13, E18; epsilon <= 0.3 for E2, E9.
  * The bundled attack (inference corruption by E1, E4, E11) must leave
    the trust of E5, E13, E18 bitwise at baseline while pulling E2 and
    E9 strictly below baseline, in every default grid cell. That makes
    the resilient/exposed gap ordering strict rather than approximate.

The last point shapes the topology: E5/E13's out-edges point only at
higher ids (whose contribution is the constant prior in a single pass),
and E18's lower-id out-neighbors (E0, E3, E6) are kept away from the
compromised trio and from E2 so their own trust never moves.
"""

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from trustconnect.graph import DependencyGraph, EcuNode, save_graph, to_text, validate
from trustconnect.snapshot import (
    AttackSpec,
    ScenarioSpec,
    save_scenario,
    synthesize_snapshot,
)
from trustconnect.trust import TrustParams, full_report

BUILDER_SEED = 20250817
N = 20
RANDOM_EDGE_PROBABILITY = 0.2

COMPROMISED = (1, 4, 11)
RESILIENT = (5, 13, 18)
EXPOSED = (2, 9)

PINNED_OUT = {
    2: (1, 4, 5, 11, 13, 17),
    5: (8, 14, 16),
    9: (4, 7, 16),
    13: (14, 15, 16, 19),
    18: (0, 3, 6, 19),
}

# Targets each free node must avoid so the nodes E18 depends on stay
# unaffected by the bundled attack (see module docstring).
FORBIDDEN_TARGETS = {
    0: {1, 4, 11},
    1: {4, 11},
    3: {1, 2, 4, 11},
    4: {1, 11},
    6: {1, 2, 4, 11},
}

PINNED_EPSILON = {
    1: 0.25,
    2: 0.15,
    4: 0.22,
    5: 0.95,
    9: 0.2,
    11: 0.28,
    13: 0.92,
    17: 0.91,
    18: 0.94,
}

K_VALUES = (0.1, 0.5, 1.0, 2.0)
ALPHA_VALUES = (0.05, 0.1, 0.2, 0.4)

TRUTH_VALUE = 10.0
ATTACK_DELTA = 4.0
SCENARIO_SEED = 20


def build_graph() -> DependencyGraph:
    rng = random.Random(BUILDER_SEED)
    epsilons = {}
    for i in range(N):
        drawn = round(rng.uniform(0.1, 0.6), 2)
        epsilons[i] = PINNED_EPSILON.get(i, drawn)
    edges = []
    for i in range(N):
        if i in PINNED_OUT:
            edges.extend((i, j) for j in PINNED_OUT[i])
            continue
        forbidden = FORBIDDEN_TARGETS.get(i, set())
        for j in range(N):
            if j == i or j in forbidden:
                continue
            if rng.random() < RANDOM_EDGE_PROBABILITY:
                edges.append((i, j))
    nodes = tuple(EcuNode(id=i, label=f"E{i}", epsilon=epsilons[i]) for i in range(N))
    graph = DependencyGraph(nodes=nodes, edges=tuple(sorted(edges)))
    problems = validate(graph)
    assert not problems, problems
    return graph


def build_scenario(graph) -> ScenarioSpec:
    return ScenarioSpec(
        ground_truth={node.id: TRUTH_VALUE for node in graph.nodes},
        noise_sigma=0.0,
        attack=AttackSpec(
            compromised=frozenset(COMPROMISED),
            mode="inference-corruption",
            delta=ATTACK_DELTA,
        ),
        seed=SCENARIO_SEED,
    )


def topology(graph):
    """Epsilon and ascending out-neighbor ids per node id, read off the compiled graph."""
    cg = graph.compiled
    rows = zip(cg.ids, cg.offsets, cg.offsets[1:])
    adjacency = {i: [cg.ids[j] for j in cg.dst[start:end]] for i, start, end in rows}
    return dict(zip(cg.ids, cg.epsilons)), adjacency


def spectral_radius(graph, alpha, iterations=200):
    """Power iteration on the trust recursion's linear part."""
    epsilons, adjacency = topology(graph)
    v = {i: 1.0 for i in adjacency}
    radius = 0.0
    for _ in range(iterations):
        nxt = {
            i: sum(alpha * epsilons[j] * v[j] for j in adjacency[i])
            for i in adjacency
        }
        radius = max(abs(x) for x in nxt.values())
        if radius == 0.0:
            return 0.0
        v = {i: x / radius for i, x in nxt.items()}
    return radius


def verify(graph, scenario):
    epsilons, adjacency = topology(graph)
    assert tuple(adjacency[2]) == PINNED_OUT[2]
    assert len(adjacency[5]) == 3
    assert len(adjacency[13]) == 4
    assert len(adjacency[18]) == 4
    for i in RESILIENT:
        assert epsilons[i] >= 0.9, (i, epsilons[i])
    for i in EXPOSED:
        assert epsilons[i] <= 0.3, (i, epsilons[i])
    for i in COMPROMISED:
        assert epsilons[i] <= 0.3, (i, epsilons[i])
        assert i in adjacency[2]

    snapshot = synthesize_snapshot(graph, scenario)
    strict_failures = []
    for k in K_VALUES:
        for alpha in ALPHA_VALUES:
            report = full_report(graph, snapshot, TrustParams(k=k, alpha=alpha))
            gaps = {}
            by_id = {e.id: e for e in report.entries}
            for e in report.entries:
                assert abs(e.eatv - e.btv) <= (1 - e.epsilon) * abs(e.btv - e.trust) + 1e-12
                gaps[e.id] = abs(e.eatv - e.btv) / max(e.btv, 1e-12)
            for i in RESILIENT:
                entry = by_id[i]
                assert entry.trust == entry.btv, (k, alpha, i, "trust moved")
            for i in EXPOSED:
                entry = by_id[i]
                assert entry.trust < entry.btv, (k, alpha, i, "trust did not drop")
            worst_resilient = max(gaps[i] for i in RESILIENT)
            best_exposed = min(gaps[i] for i in EXPOSED)
            if not worst_resilient < best_exposed:
                strict_failures.append((k, alpha, worst_resilient, best_exposed))
    assert not strict_failures, strict_failures

    # alpha-monotonicity of T per fixed k, k-monotonicity per fixed alpha
    reports = {
        (k, alpha): {
            e.id: e for e in full_report(graph, snapshot, TrustParams(k=k, alpha=alpha)).entries
        }
        for k in K_VALUES
        for alpha in ALPHA_VALUES
    }
    strictly_up = False
    for k in K_VALUES:
        for lo, hi in zip(ALPHA_VALUES, ALPHA_VALUES[1:]):
            for i in adjacency:
                a, b = reports[(k, lo)][i].trust, reports[(k, hi)][i].trust
                assert a <= b, (k, lo, hi, i)
                if b > a:
                    strictly_up = True
    assert strictly_up
    for alpha in ALPHA_VALUES:
        for lo, hi in zip(K_VALUES, K_VALUES[1:]):
            for i in adjacency:
                assert reports[(hi, alpha)][i].trust <= reports[(lo, alpha)][i].trust

    # fixed-point usability at the most demanding grid corner
    radius = spectral_radius(graph, max(ALPHA_VALUES))
    assert radius < 0.95, radius
    fp = full_report(
        graph,
        snapshot,
        TrustParams(k=max(K_VALUES), alpha=max(ALPHA_VALUES), mode="fixed-point"),
    )
    assert fp.converged
    print(f"spectral radius at alpha={max(ALPHA_VALUES)}: {radius:.4f}")
    print(f"edges: {len(graph.edges)}")


def main():
    graph = build_graph()
    scenario = build_scenario(graph)
    verify(graph, scenario)
    data_dir = Path(__file__).resolve().parent.parent / "src" / "trustconnect" / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    graph_path = data_dir / "reference_graph.txt"
    scenario_path = data_dir / "reference_scenario.txt"
    save_graph(graph, graph_path)
    save_scenario(scenario, scenario_path)
    for path in (graph_path, scenario_path):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{path.name}: sha256 {digest}")
    text = to_text(graph)
    assert text == graph_path.read_text(encoding="utf-8")


if __name__ == "__main__":
    main()
