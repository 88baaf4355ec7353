"""ECU dependency graphs: model, validation, seeded generation, file I/O.

A graph is a set of ECU nodes plus directed edges (i, j), where an edge
means "node i's value can be inferred by node j". Each node carries a
resilience value epsilon in [0, 1]: 1 means the ECU is hard to reach by
remote injection, 0 means it is an easy target.

Graph file format (version header required, `#` starts a comment):

    trustconnect-graph v1
    node <id> <label> <epsilon>
    edge <i> <j>

Files written by ``save_graph`` are canonical (nodes by ascending id,
edges in lexicographic order, epsilon at full round-trip precision), so
two equal graphs always serialize to byte-identical files.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

from .errors import GraphInvariantError, ParseError

GRAPH_HEADER = "trustconnect-graph v1"


@dataclass(frozen=True)
class EcuNode:
    """One ECU: numeric id, display label, resilience epsilon in [0, 1]."""

    id: int
    label: str
    epsilon: float


@dataclass(frozen=True)
class DependencyGraph:
    """Immutable directed graph of EcuNodes.

    Construction canonicalizes ordering (nodes by id, edges lexicographic)
    but does not reject invalid input; use :func:`validate` to check the
    invariants.
    """

    nodes: tuple[EcuNode, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "nodes", tuple(sorted(self.nodes, key=lambda node: node.id))
        )
        object.__setattr__(
            self, "edges", tuple(sorted((int(i), int(j)) for i, j in self.edges))
        )

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(node.id for node in self.nodes)

    def epsilons(self) -> dict[int, float]:
        return {node.id: node.epsilon for node in self.nodes}

    def out_adjacency(self) -> dict[int, list[int]]:
        """Out-neighbor lists for every node, ascending (one O(E) pass)."""
        adjacency: dict[int, list[int]] = {node.id: [] for node in self.nodes}
        for i, j in self.edges:
            if i in adjacency:
                adjacency[i].append(j)
        return adjacency

    @cached_property
    def compiled(self) -> CompiledGraph:
        """The flat form the evaluation loops run on, built on first use."""
        return _compile(self)


@dataclass(frozen=True)
class CompiledGraph:
    """Index-based (CSR) form of a DependencyGraph, shared by every evaluation.

    Node ``k`` is the k-th node by ascending id: ``ids[k]``, resilience
    ``epsilons[k]``. Its out-edges are positions ``offsets[k]:offsets[k + 1]``
    of ``graph.edges``, and ``dst[e]`` is the node index of edge e's target.
    ``baselines`` is the trust module's memo of snapshot-independent
    baseline scores for this topology, keyed by the parameters they use.
    """

    ids: tuple[int, ...]
    epsilons: tuple[float, ...]
    offsets: tuple[int, ...]
    dst: tuple[int, ...]
    baselines: dict = field(default_factory=dict, compare=False, repr=False)


def _compile(graph: DependencyGraph) -> CompiledGraph:
    ids = graph.node_ids
    index = {node_id: k for k, node_id in enumerate(ids)}
    src = [index.get(i) for i, _ in graph.edges]
    dst = tuple(index.get(j) for _, j in graph.edges)
    if len(index) != len(ids) or None in src or None in dst:
        raise GraphInvariantError(validate(graph))
    # edges are sorted by source id, so each node's out-edges are one run
    offsets = tuple(bisect_left(src, k) for k in range(len(ids) + 1))
    return CompiledGraph(
        ids=ids,
        epsilons=tuple(node.epsilon for node in graph.nodes),
        offsets=offsets,
        dst=dst,
    )


def validate(graph: DependencyGraph) -> list[str]:
    """Return every invariant violation, in deterministic order.

    Node problems come first (ascending id), then edge problems
    (lexicographic). An empty list means the graph is valid.
    """
    violations: list[str] = []
    seen_ids: set[int] = set()
    for node in graph.nodes:
        if node.id < 0:
            violations.append(f"node {node.id}: negative id")
        if node.id in seen_ids:
            violations.append(f"duplicate node id {node.id}")
        seen_ids.add(node.id)
        if not node.label or any(c.isspace() for c in node.label) or "," in node.label:
            violations.append(f"node {node.id}: invalid label {node.label!r}")
        if not 0.0 <= node.epsilon <= 1.0:
            violations.append(f"node {node.id}: epsilon out of range ({node.epsilon!r})")
    seen_edges: set[tuple[int, int]] = set()
    for i, j in graph.edges:
        if i == j:
            violations.append(f"self-loop at node {i}")
        if (i, j) in seen_edges:
            violations.append(f"duplicate edge ({i}, {j})")
        seen_edges.add((i, j))
        for endpoint in (i, j):
            if endpoint not in seen_ids:
                violations.append(f"edge ({i}, {j}): unknown node {endpoint}")
    return violations


@dataclass(frozen=True)
class EpsilonDistribution:
    """How per-node epsilon values are drawn during generation.

    kind "uniform": a + (b - a) * rng.random(), one draw per node.
    kind "constant": always a, no draws consumed.
    """

    kind: str
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform", "constant"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "uniform" and self.a > self.b:
            raise ValueError("uniform distribution needs a <= b")
        low, high = (self.a, self.b) if self.kind == "uniform" else (self.a, self.a)
        if not (0.0 <= low <= 1.0 and 0.0 <= high <= 1.0):
            raise ValueError("epsilon distribution must stay within [0, 1]")

    def sample(self, rng: random.Random) -> float:
        if self.kind == "uniform":
            return self.a + (self.b - self.a) * rng.random()
        return self.a

    def spec(self) -> str:
        if self.kind == "uniform":
            return f"uniform:{self.a!r},{self.b!r}"
        return f"constant:{self.a!r}"


UNIFORM_EPSILON = EpsilonDistribution("uniform", 0.0, 1.0)


def parse_epsilon_dist(spec: str) -> EpsilonDistribution:
    """Parse a distribution spec: "uniform", "uniform:LO,HI" or "constant:V"."""
    name, _, args = spec.partition(":")
    try:
        if name == "uniform":
            if not args:
                return UNIFORM_EPSILON
            lo, hi = (float(part) for part in args.split(","))
            return EpsilonDistribution("uniform", lo, hi)
        if name == "constant":
            return EpsilonDistribution("constant", float(args))
    except ValueError as exc:
        raise ValueError(f"bad distribution spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown distribution {spec!r}")


def generate_random(
    n: int,
    edge_probability: float,
    epsilon_distribution: EpsilonDistribution = UNIFORM_EPSILON,
    seed: int = 0,
) -> DependencyGraph:
    """Generate a seeded random dependency graph on nodes 0..n-1.

    One random.Random(seed) stream drives everything, in a documented
    order so reference implementations can reproduce it exactly: first
    one epsilon sample per node (ascending id), then one uniform draw
    per ordered pair (i, j), i != j, walked in ascending (i, j) order;
    the pair becomes an edge iff the draw is < edge_probability.

    Identical inputs yield identical graphs on every platform.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError(f"edge_probability must be in [0, 1], got {edge_probability}")
    rng = random.Random(seed)
    nodes = tuple(
        EcuNode(id=i, label=f"E{i}", epsilon=epsilon_distribution.sample(rng))
        for i in range(n)
    )
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < edge_probability:
                edges.append((i, j))
    return DependencyGraph(nodes=nodes, edges=tuple(edges))


def out_neighbors(graph: DependencyGraph, i: int) -> list[int]:
    """Ascending list of all j with an edge (i, j)."""
    if i not in set(graph.node_ids):
        raise ValueError(f"unknown node id {i}")
    return sorted(j for (a, j) in graph.edges if a == i)


def to_text(graph: DependencyGraph) -> str:
    """Canonical text serialization (byte-stable for equal graphs)."""
    lines = [GRAPH_HEADER]
    for node in graph.nodes:
        lines.append(f"node {node.id} {node.label} {node.epsilon!r}")
    for i, j in graph.edges:
        lines.append(f"edge {i} {j}")
    return "\n".join(lines) + "\n"


def from_text(text: str, path: str | None = None) -> DependencyGraph:
    """Parse a graph document; raises ParseError / GraphInvariantError."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != GRAPH_HEADER:
        raise ParseError(f"missing header {GRAPH_HEADER!r}", path=path, line_no=1)
    nodes: list[EcuNode] = []
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "node":
                if len(fields) != 4:
                    raise ValueError("expected: node <id> <label> <epsilon>")
                nodes.append(EcuNode(int(fields[1]), fields[2], float(fields[3])))
            elif kind == "edge":
                if len(fields) != 3:
                    raise ValueError("expected: edge <i> <j>")
                edges.append((int(fields[1]), int(fields[2])))
            else:
                raise ValueError(f"unknown record type {kind!r}")
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line_no=line_no) from exc
    graph = DependencyGraph(nodes=tuple(nodes), edges=tuple(edges))
    violations = validate(graph)
    if violations:
        raise GraphInvariantError(violations)
    return graph


def save_graph(graph: DependencyGraph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(to_text(graph))


def load_graph(path) -> DependencyGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return from_text(handle.read(), path=str(path))
