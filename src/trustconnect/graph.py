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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice, pairwise, repeat, starmap
from operator import add, eq, itemgetter, lt, sub
from pathlib import Path

from .errors import (
    LIST, GraphInvariantError, is_one_field, read_columns, read_records, read_text, require_int,
    split_lines,
)

GRAPH_HEADER = "trustconnect-graph v1"
GRAPH_RECORDS = {
    "node": ("<id> <label> <epsilon>", lambda f: EcuNode(int(f[1]), f[2], float(f[3])), LIST),
    "edge": ("<i> <j>", lambda f: (int(f[1]), int(f[2])), LIST),
}


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
    invariants. A graph read in bulk holds no ``edges`` until they are
    first read; they are then built from ``compiled`` and kept.
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

    def __getattr__(self, name):
        # reached only for a missing attribute: the edges of a bulk-read graph
        if name != "edges" or "compiled" not in self.__dict__:
            raise AttributeError(name)
        cg = self.compiled
        edges = tuple(zip(cg.sources_of(cg.ids), map(cg.ids.__getitem__, cg.dst)))
        object.__setattr__(self, "edges", edges)
        return edges

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(node.id for node in self.nodes)

    @cached_property
    def compiled(self) -> CompiledGraph:
        """The flat form the evaluation loops run on, built on first use unless read in bulk."""
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

    def sources_of(self, values: Iterable) -> Iterator:
        """Per edge, in edge order, the entry of ``values`` (one per node) for its source."""
        return chain.from_iterable(map(repeat, values, map(sub, self.offsets[1:], self.offsets)))


def _compile(graph: DependencyGraph) -> CompiledGraph:
    ids = graph.node_ids
    index = dict(zip(ids, range(len(ids))))
    sources = list(map(itemgetter(0), graph.edges))
    dst = tuple(map(index.get, map(itemgetter(1), graph.edges)))
    if len(index) != len(ids) or None in dst or not index.keys() >= set(sources):
        raise GraphInvariantError(validate(graph))
    # edges are sorted by source id, so each node's out-edges are one run
    return CompiledGraph(
        ids=ids,
        epsilons=tuple(node.epsilon for node in graph.nodes),
        offsets=(*map(bisect_left, repeat(sources), ids), len(sources)),
        dst=dst,
    )


def validate(graph: DependencyGraph) -> list[str]:
    """Return every invariant violation, in deterministic order.

    Node problems come first (ascending id), then edge problems
    (lexicographic). An empty list means the graph is valid.
    """
    return [] if _is_valid(graph) else _violations(graph)


def _is_valid(graph: DependencyGraph) -> bool:
    """Whether :func:`_violations` would find nothing, proved by bulk checks.

    The constructor sorts the edges, so duplicate edges sit next to each
    other. Every check runs over whole sequences in C except the one pass
    over the nodes.
    """
    ids = graph.node_ids
    known = set(ids)
    edges = graph.edges
    sources = list(map(itemgetter(0), edges))
    targets = list(map(itemgetter(1), edges))
    return (
        len(known) == len(ids)
        and min(ids, default=0) >= 0
        and _nodes_valid(graph.nodes)
        and not any(map(eq, sources, targets))
        and not any(map(eq, edges, islice(edges, 1, None)))
        and known.issuperset(sources)
        and known.issuperset(targets)
    )


def _nodes_valid(nodes) -> bool:
    return all(0.0 <= n.epsilon <= 1.0 and is_one_field(n.label) and "," not in n.label
               for n in nodes)


def _violations(graph: DependencyGraph) -> list[str]:
    """The per-item scan behind :func:`validate`."""
    violations: list[str] = []
    seen_ids: set[int] = set()
    for node in graph.nodes:
        if node.id < 0:
            violations.append(f"node {node.id}: negative id")
        if node.id in seen_ids:
            violations.append(f"duplicate node id {node.id}")
        seen_ids.add(node.id)
        if not is_one_field(node.label) or "," in node.label:
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


def check_random_graph(n: int, edge_probability: float) -> None:
    """Raise ValueError unless G(n, p) has an int n >= 1 and p in [0, 1]."""
    require_int("n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError(f"edge_probability must be in [0, 1], got {edge_probability}")


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
    check_random_graph(n, edge_probability)
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
    return _read_canonical(text) or _read_records(text, path)


def _read_canonical(text: str) -> DependencyGraph | None:
    """The valid graph of a document in ``to_text``'s layout, read in bulk and compiled; else None.

    Canonical order is proved, not restored. Endpoints are looked up by id text as node positions,
    and the edges are kept only as ``compiled``'s rows until ``graph.edges`` is first read.
    """
    # a comment or a tab anywhere leaves the document to the reader at once
    if "#" in text or "\t" in text:
        return None
    lines = split_lines(text)
    columns = next(lines, None) == GRAPH_HEADER and read_columns(
        islice(lines, text.count("\nnode ")), (repeat("node"), int, str, float))
    index = columns and dict(zip(map(str, columns[0]), range(len(columns[0]))))
    edge_columns = columns and read_columns(
        lines, (repeat("edge"), index.__getitem__, index.__getitem__))
    if not edge_columns:
        return None
    (ids, labels, epsilons), (sources, targets) = columns, edge_columns
    nodes = tuple(map(EcuNode, ids, labels, epsilons))
    # as ids ascend, source * n + target orders edges as their id pairs do
    keys = map(add, map(len(ids).__mul__, sources), targets)
    if not (min(ids, default=0) >= 0 and all(map(lt, ids, islice(ids, 1, None)))
            and all(starmap(lt, pairwise(keys)))
            and not any(map(eq, sources, targets)) and _nodes_valid(nodes)):
        return None
    graph = DependencyGraph.__new__(DependencyGraph)  # proved canonical: no __post_init__
    offsets = (*map(bisect_left, repeat(sources), range(len(ids))), len(sources))
    graph.__dict__.update(nodes=nodes, compiled=CompiledGraph(
        tuple(ids), tuple(epsilons), offsets, tuple(targets)))
    return graph


def _read_records(text: str, path: str | None) -> DependencyGraph:
    """Any graph document, record by record; raises at the first bad line or invariant."""
    found = read_records(text, path, GRAPH_HEADER, GRAPH_RECORDS)
    graph = DependencyGraph(nodes=tuple(found["node"]), edges=tuple(found["edge"]))
    violations = validate(graph)
    if violations:
        raise GraphInvariantError(violations)
    return graph


def save_graph(graph: DependencyGraph, path) -> None:
    Path(path).write_text(to_text(graph), encoding="utf-8", newline="\n")


def load_graph(path) -> DependencyGraph:
    return from_text(read_text(path), path=str(path))
