"""Network snapshots: observed/inferred values, scenarios, attack injection.

A snapshot captures one instant of the network: what every ECU reports
for itself (``observed[i]``) and what each dependency edge (i, j) lets
node j compute node i's value to be (``inferred[(i, j)]``).

Snapshots are synthesized from a scenario: a latent ground-truth signal
per ECU, optional gaussian inference noise, and an optional attack that
adds a fixed offset to the values a compromised ECU touches.

Snapshot file format (version header required, `#` starts a comment):

    trustconnect-snapshot v1
    obs <i> <value>
    inf <i> <j> <value>

``save_snapshot`` writes records in canonical order (obs by id, inf in
edge-lexicographic order) at full round-trip precision.

Scenarios have their own file format so an experiment can be replayed
from its inputs instead of its synthesized snapshot:

    trustconnect-scenario v1
    truth <id> <value>
    noise_sigma <value>
    seed <int>
    attack <mode> <delta> <id,id,...>

The attack line is omitted for clean scenarios.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice, repeat
from operator import sub
from pathlib import Path

from .errors import (
    ID, SINGLE, SnapshotMismatchError, finite_float, read_columns, read_records, read_text,
    require_finite, require_int, split_lines,
)
from .graph import DependencyGraph

SNAPSHOT_HEADER = "trustconnect-snapshot v1"
SNAPSHOT_RECORDS = {
    "obs": ("<i> <value>", lambda f: finite_float(f[2]), ID),
    "inf": ("<i> <j> <value>", lambda f: finite_float(f[3]), ID),
}
SCENARIO_HEADER = "trustconnect-scenario v1"

ATTACK_MODES = ("self-injection", "inference-corruption", "both")


@dataclass(frozen=True)
class Snapshot:
    """Observed per-node values plus inferred per-edge values.

    A snapshot read in bulk or synthesized for a graph holds its inferred
    values as a column in that graph's edge order, with the graph; the
    ``inferred`` dict is built from the column when it is first read.
    """

    observed: dict[int, float]
    inferred: dict[tuple[int, int], float]

    def __getattr__(self, name):
        # reached only for a missing attribute: the inferred dict of a column
        if name != "inferred" or "_graph" not in self.__dict__:
            raise AttributeError(name)
        inferred = dict(zip(self._graph.edges, self._column))
        object.__setattr__(self, "inferred", inferred)
        return inferred


def _column_snapshot(graph: DependencyGraph, observed: dict[int, float],
                     column: list[float]) -> Snapshot:
    """The snapshot of ``observed`` and the inferred ``column`` in ``graph.edges`` order."""
    snapshot = Snapshot.__new__(Snapshot)
    snapshot.__dict__.update(observed=observed, _graph=graph, _column=column)
    return snapshot


@dataclass(frozen=True)
class AttackSpec:
    """Remote-injection attack: which ECUs are compromised and how.

    "self-injection" corrupts the compromised ECU's own reported value;
    "inference-corruption" corrupts every inference the compromised ECU
    computes for its dependents; "both" does both. delta is the additive
    offset applied to each corrupted value.
    """

    compromised: frozenset[int]
    mode: str = "self-injection"
    delta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "compromised", frozenset(self.compromised))
        if not self.compromised:
            raise ValueError("compromised must name at least one node")
        if self.mode not in ATTACK_MODES:
            raise ValueError(f"mode must be one of {ATTACK_MODES}, got {self.mode!r}")
        require_finite(self, "delta")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")

    @property
    def corrupts_observed(self) -> bool:
        return self.mode in ("self-injection", "both")

    @property
    def corrupts_inferred(self) -> bool:
        return self.mode in ("inference-corruption", "both")


@dataclass(frozen=True)
class ScenarioSpec:
    """Latent ground truth, inference noise, and an optional attack."""

    ground_truth: dict[int, float]
    noise_sigma: float = 0.0
    attack: AttackSpec | None = None
    seed: int = 0

    def __post_init__(self):
        require_finite(self, "noise_sigma")
        require_int("seed", self.seed)
        check_noise_sigma(self.noise_sigma)
        check_ground_truth(self.ground_truth.items())


def check_noise_sigma(value: float) -> float:
    if value < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {value}")
    return value


def check_ground_truth(items) -> None:
    """Raise ValueError naming the first node whose (id, value) truth is not finite."""
    for node_id, value in items:
        if not math.isfinite(value):
            raise ValueError(f"ground truth of node {node_id} must be finite, got {value!r}")


def parse_ids(text: str) -> frozenset[int]:
    """A comma-separated node id list, as in ``--attack-nodes`` and attack records."""
    return frozenset(int(part) for part in text.split(","))


def attack_from_fields(fields: list[str]) -> AttackSpec:
    """The AttackSpec of an ``attack <mode> <delta> <id,id,...>`` record."""
    return AttackSpec(
        compromised=parse_ids(fields[3]), mode=fields[1], delta=finite_float(fields[2])
    )


def attack_to_text(attack: AttackSpec) -> str:
    ids = ",".join(str(i) for i in sorted(attack.compromised))
    return f"attack {attack.mode} {attack.delta!r} {ids}"


SCENARIO_RECORDS = {
    "truth": ("<id> <value>", lambda f: finite_float(f[2]), ID),
    "noise_sigma": ("<value>", lambda f: check_noise_sigma(finite_float(f[1])), SINGLE),
    "seed": ("<int>", lambda f: int(f[1]), SINGLE),
    "attack": ("<mode> <delta> <id,id,...>", attack_from_fields, SINGLE),
}


def constant_ground_truth(graph: DependencyGraph, value: float) -> dict[int, float]:
    return {node.id: value for node in graph.nodes}


def synthesize_snapshot(graph: DependencyGraph, scenario: ScenarioSpec) -> Snapshot:
    """Produce the snapshot a scenario implies for a graph.

    observed[i] is the ground truth, plus the attack delta when i is
    compromised in a self-injection mode. inferred[(i, j)] is the ground
    truth of i plus one gauss(0, noise_sigma) draw, plus the attack
    delta when j is compromised in an inference-corruption mode. Noise
    draws come from a fresh random.Random(seed) stream consumed in
    canonical edge order, so identical inputs give identical snapshots.
    A graph that ``graph.compiled`` rejects raises GraphInvariantError.
    """
    node_ids = set(graph.node_ids)
    unknown = sorted(set(scenario.ground_truth) - node_ids)
    if unknown:
        raise ValueError(f"scenario references unknown node ids {unknown}")
    missing = sorted(node_ids - set(scenario.ground_truth))
    if missing:
        raise ValueError(f"scenario is missing ground truth for nodes {missing}")
    attack = scenario.attack
    if attack is not None:
        bad = sorted(attack.compromised - node_ids)
        if bad:
            raise ValueError(f"attack references unknown node ids {bad}")

    observed: dict[int, float] = {}
    for i in sorted(node_ids):
        value = scenario.ground_truth[i]
        if attack is not None and attack.corrupts_observed and i in attack.compromised:
            value += attack.delta
        observed[i] = value

    rng = random.Random(scenario.seed)
    column: list[float] = []
    cg = graph.compiled
    for i, j in zip(cg.sources_of(cg.ids), map(cg.ids.__getitem__, cg.dst)):
        value = scenario.ground_truth[i] + rng.gauss(0.0, scenario.noise_sigma)
        if attack is not None and attack.corrupts_inferred and j in attack.compromised:
            value += attack.delta
        column.append(value)
    return _column_snapshot(graph, observed, column)


def deviations(graph: DependencyGraph, snapshot: Snapshot) -> list[float]:
    """|observed[i] - inferred[(i, j)]| for every edge, in ``graph.edges`` order.

    Fails closed: raises SnapshotMismatchError naming the first node or
    edge whose value is missing or non-finite, or whose deviation
    overflows, so no NaN or infinity reaches trust or detection.
    """
    observed = snapshot.observed
    try:
        if vars(snapshot).get("_graph") is graph:
            # each row's source value, repeated by row length, minus the column
            cg = graph.compiled
            sources = cg.sources_of(map(observed.__getitem__, cg.ids))
            result = list(map(abs, map(sub, sources, snapshot._column)))
        else:
            inferred = snapshot.inferred
            result = [abs(observed[edge[0]] - inferred[edge]) for edge in graph.edges]
    except KeyError:
        result = None
    # a NaN or infinite deviation makes the sum non-finite; a finite sum
    # proves every deviation finite, so the per-edge scan runs only then
    if result is None or not math.isfinite(sum(result)):
        _check_edges(graph, snapshot)
    return result


def _check_edges(graph: DependencyGraph, snapshot: Snapshot) -> None:
    for i, j in graph.edges:
        if i not in snapshot.observed:
            raise SnapshotMismatchError(f"snapshot has no observed value for node {i}")
        if (i, j) not in snapshot.inferred:
            raise SnapshotMismatchError(f"snapshot has no inferred value for edge ({i}, {j})")
        observed, inferred = snapshot.observed[i], snapshot.inferred[(i, j)]
        if not math.isfinite(observed):
            raise SnapshotMismatchError(f"non-finite observed value {observed!r} for node {i}")
        if not math.isfinite(inferred):
            raise SnapshotMismatchError(
                f"non-finite inferred value {inferred!r} for edge ({i}, {j})"
            )
        if not math.isfinite(observed - inferred):
            raise SnapshotMismatchError(f"deviation on edge ({i}, {j}) overflows")


def validate_snapshot(graph: DependencyGraph, snapshot: Snapshot) -> list[str]:
    """Completeness check against a companion graph; [] when complete."""
    problems: list[str] = []
    node_ids = set(graph.node_ids)
    for i in sorted(node_ids - set(snapshot.observed)):
        problems.append(f"missing observed value for node {i}")
    for i in sorted(set(snapshot.observed) - node_ids):
        problems.append(f"observed value for unknown node {i}")
    edge_set = set(graph.edges)
    for i, j in sorted(edge_set - set(snapshot.inferred)):
        problems.append(f"missing inferred value for edge ({i}, {j})")
    for i, j in sorted(set(snapshot.inferred) - edge_set):
        problems.append(f"inferred value for unknown edge ({i}, {j})")
    return problems


def to_text(snapshot: Snapshot) -> str:
    lines = [SNAPSHOT_HEADER]
    for i in sorted(snapshot.observed):
        lines.append(f"obs {i} {snapshot.observed[i]!r}")
    for i, j in sorted(snapshot.inferred):
        lines.append(f"inf {i} {j} {snapshot.inferred[(i, j)]!r}")
    return "\n".join(lines) + "\n"


def from_text(text: str, path: str | None = None,
              graph: DependencyGraph | None = None) -> Snapshot:
    """Parse a snapshot document; raises ParseError at the first bad line.

    Given ``graph``, SnapshotMismatchError lists the first five ways the
    snapshot fails to match it. A document in ``to_text``'s layout for the
    graph is read in bulk and matches by construction.
    """
    aligned = graph is not None and _read_aligned(text, graph)
    if aligned:
        return aligned
    found = read_records(text, path, SNAPSHOT_HEADER, SNAPSHOT_RECORDS)
    snapshot = Snapshot(observed=found["obs"], inferred=found["inf"])
    # a snapshot with the graph's node ids and values for exactly its edges
    # matches it; otherwise the full comparison lists the mismatches
    if graph is not None and (len(snapshot.inferred) != len(graph.edges)
                              or snapshot.observed.keys() != set(graph.node_ids)
                              or not all(map(snapshot.inferred.__contains__, graph.edges))):
        problems = validate_snapshot(graph, snapshot)
        more = f"; and {len(problems) - 5} more" if len(problems) > 5 else ""
        raise SnapshotMismatchError("; ".join(problems[:5]) + more)
    return snapshot


def _read_aligned(text: str, graph: DependencyGraph) -> Snapshot | None:
    """The snapshot of the header, an ``obs`` line per node in id order and an
    ``inf`` line per edge in ``graph.edges`` order, all finite; else None.

    Ids are compared as text, and the inferred values stay the column they were read as.
    """
    compiled = graph.compiled
    if "#" in text or "\t" in text:
        return None
    ids = list(map(str, compiled.ids))
    lines = split_lines(text)
    obs = next(lines, None) == SNAPSHOT_HEADER and read_columns(
        islice(lines, len(ids)), (repeat("obs"), iter(ids), float))
    # a line past the last edge has no id text left to match; a short file, too few values
    inf = obs and read_columns(lines, (
        repeat("inf"), compiled.sources_of(ids), map(ids.__getitem__, compiled.dst), float))
    # a finite sum proves every value finite; any other is the reader's to name
    if (not inf or len(obs[0]) + len(inf[0]) != len(ids) + len(compiled.dst)
            or not math.isfinite(sum(obs[0]) + sum(inf[0]))):
        return None
    return _column_snapshot(graph, dict(zip(compiled.ids, obs[0])), inf[0])


def save_snapshot(snapshot: Snapshot, path) -> None:
    Path(path).write_text(to_text(snapshot), encoding="utf-8", newline="\n")


def load_snapshot(path, graph: DependencyGraph | None = None) -> Snapshot:
    return from_text(read_text(path), str(path), graph)


def scenario_to_text(scenario: ScenarioSpec) -> str:
    lines = [SCENARIO_HEADER]
    for i in sorted(scenario.ground_truth):
        lines.append(f"truth {i} {scenario.ground_truth[i]!r}")
    lines.append(f"noise_sigma {scenario.noise_sigma!r}")
    lines.append(f"seed {scenario.seed}")
    if scenario.attack is not None:
        lines.append(attack_to_text(scenario.attack))
    return "\n".join(lines) + "\n"


def scenario_from_text(text: str, path: str | None = None) -> ScenarioSpec:
    found = read_records(text, path, SCENARIO_HEADER, SCENARIO_RECORDS)
    return ScenarioSpec(ground_truth=found.pop("truth"), **found)


def save_scenario(scenario: ScenarioSpec, path) -> None:
    Path(path).write_text(scenario_to_text(scenario), encoding="utf-8", newline="\n")


def load_scenario(path) -> ScenarioSpec:
    return scenario_from_text(read_text(path), path=str(path))
