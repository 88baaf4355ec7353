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

from .errors import ParseError, SnapshotMismatchError
from .graph import DependencyGraph

SNAPSHOT_HEADER = "trustconnect-snapshot v1"
SCENARIO_HEADER = "trustconnect-scenario v1"

ATTACK_MODES = ("self-injection", "inference-corruption", "both")


@dataclass(frozen=True)
class Snapshot:
    """Observed per-node values plus inferred per-edge values."""

    observed: dict[int, float]
    inferred: dict[tuple[int, int], float]


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
        if self.mode not in ATTACK_MODES:
            raise ValueError(f"mode must be one of {ATTACK_MODES}, got {self.mode!r}")
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
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


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
    inferred: dict[tuple[int, int], float] = {}
    for i, j in graph.edges:
        value = scenario.ground_truth[i] + rng.gauss(0.0, scenario.noise_sigma)
        if attack is not None and attack.corrupts_inferred and j in attack.compromised:
            value += attack.delta
        inferred[(i, j)] = value
    return Snapshot(observed=observed, inferred=inferred)


def edge_deviations(graph: DependencyGraph, snapshot: Snapshot) -> list[float]:
    """|observed[i] - inferred[(i, j)]| for every edge, in ``graph.edges`` order.

    Fails closed: raises SnapshotMismatchError naming the first node or
    edge whose value is missing or non-finite, or whose deviation
    overflows, so no NaN or infinity reaches trust or detection.
    """
    observed, inferred = snapshot.observed, snapshot.inferred
    try:
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


def deviations(graph: DependencyGraph, snapshot: Snapshot) -> dict[tuple[int, int], float]:
    """Per-edge absolute gap between self-reported and inferred values."""
    return dict(zip(graph.edges, edge_deviations(graph, snapshot)))


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


def _finite(field: str) -> float:
    value = float(field)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {field!r}")
    return value


def from_text(text: str, path: str | None = None) -> Snapshot:
    lines = text.splitlines()
    if not lines or lines[0].strip() != SNAPSHOT_HEADER:
        raise ParseError(f"missing header {SNAPSHOT_HEADER!r}", path=path, line_no=1)
    observed: dict[int, float] = {}
    inferred: dict[tuple[int, int], float] = {}
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "obs":
                if len(fields) != 3:
                    raise ValueError("expected: obs <i> <value>")
                observed[int(fields[1])] = _finite(fields[2])
            elif kind == "inf":
                if len(fields) != 4:
                    raise ValueError("expected: inf <i> <j> <value>")
                inferred[(int(fields[1]), int(fields[2]))] = _finite(fields[3])
            else:
                raise ValueError(f"unknown record type {kind!r}")
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line_no=line_no) from exc
    return Snapshot(observed=observed, inferred=inferred)


def save_snapshot(snapshot: Snapshot, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(to_text(snapshot))


def load_snapshot(path) -> Snapshot:
    with open(path, "r", encoding="utf-8") as handle:
        return from_text(handle.read(), path=str(path))


def scenario_to_text(scenario: ScenarioSpec) -> str:
    lines = [SCENARIO_HEADER]
    for i in sorted(scenario.ground_truth):
        lines.append(f"truth {i} {scenario.ground_truth[i]!r}")
    lines.append(f"noise_sigma {scenario.noise_sigma!r}")
    lines.append(f"seed {scenario.seed}")
    if scenario.attack is not None:
        ids = ",".join(str(i) for i in sorted(scenario.attack.compromised))
        lines.append(f"attack {scenario.attack.mode} {scenario.attack.delta!r} {ids}")
    return "\n".join(lines) + "\n"


def scenario_from_text(text: str, path: str | None = None) -> ScenarioSpec:
    lines = text.splitlines()
    if not lines or lines[0].strip() != SCENARIO_HEADER:
        raise ParseError(f"missing header {SCENARIO_HEADER!r}", path=path, line_no=1)
    truth: dict[int, float] = {}
    noise_sigma = 0.0
    seed = 0
    attack: AttackSpec | None = None
    seen: set[str] = set()
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "truth":
                if len(fields) != 3:
                    raise ValueError("expected: truth <id> <value>")
                truth[int(fields[1])] = float(fields[2])
                continue
            if kind in seen:
                raise ValueError(f"duplicate {kind} record")
            seen.add(kind)
            if kind == "noise_sigma":
                if len(fields) != 2:
                    raise ValueError("expected: noise_sigma <value>")
                noise_sigma = float(fields[1])
            elif kind == "seed":
                if len(fields) != 2:
                    raise ValueError("expected: seed <int>")
                seed = int(fields[1])
            elif kind == "attack":
                if len(fields) != 4:
                    raise ValueError("expected: attack <mode> <delta> <id,id,...>")
                compromised = frozenset(int(p) for p in fields[3].split(","))
                attack = AttackSpec(
                    compromised=compromised, mode=fields[1], delta=float(fields[2])
                )
            else:
                raise ValueError(f"unknown record type {kind!r}")
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line_no=line_no) from exc
    return ScenarioSpec(ground_truth=truth, noise_sigma=noise_sigma, attack=attack, seed=seed)


def save_scenario(scenario: ScenarioSpec, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(scenario_to_text(scenario))


def load_scenario(path) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return scenario_from_text(handle.read(), path=str(path))
