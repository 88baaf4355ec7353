"""Seeded O(E) builders for the benchmark's graphs, snapshots and sweep specs.

The library's ``generate_random`` walks all n^2 ordered pairs (its stream is
pinned by a test), which takes tens of seconds at 20k nodes. Here every node
instead draws ``degree`` distinct out-neighbours with ``random.sample``, so a
graph costs O(n + E) draws, in the spirit of Batagelj & Brandes, "Efficient
generation of large random networks", Phys. Rev. E 71, 036113 (2005).

The builders write the ``trustconnect-graph v1``, ``trustconnect-snapshot v1``
and ``trustconnect-sweep v1`` text formats themselves, in the canonical order
the library's writers use, so the program under test receives only files (or
``Snapshot`` objects for the in-process monitor loop). One ``random.Random``
stream per artefact, consumed in a fixed order, makes equal seeds give
byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TRUTH = 10.0
DELTA = 4.0
NOISE_SIGMA = 0.3
K_VALUES = (0.1, 0.5, 1.0, 2.0)
ALPHA_VALUES = (0.05, 0.1, 0.2, 0.4)


@dataclass(frozen=True)
class Topology:
    """Node resiliences plus each node's ascending out-neighbour list."""

    epsilons: tuple[float, ...]
    out: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.epsilons)

    def edges(self):
        for i, targets in enumerate(self.out):
            for j in targets:
                yield i, j


def build_topology(n: int, degree: int, seed: int) -> Topology:
    """n nodes, uniform epsilon in [0, 1), ``degree`` distinct out-neighbours each."""
    if not 0 < degree < n:
        raise ValueError(f"degree must be in (0, {n}), got {degree}")
    rng = random.Random(f"topology:{seed}")
    epsilons = tuple(rng.random() for _ in range(n))
    out = []
    for i in range(n):
        # Sample from the n - 1 other ids, then shift past i: no self-loops.
        picks = rng.sample(range(n - 1), degree)
        out.append(tuple(sorted(j + (j >= i) for j in picks)))
    return Topology(epsilons=epsilons, out=tuple(out))


def graph_text(topology: Topology) -> str:
    lines = ["trustconnect-graph v1"]
    lines.extend(f"node {i} E{i} {eps!r}" for i, eps in enumerate(topology.epsilons))
    lines.extend(f"edge {i} {j}" for i, j in topology.edges())
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Reading:
    """One snapshot's values: observed per node, inferred per edge (edge order)."""

    observed: tuple[float, ...]
    inferred: tuple[float, ...]


def attacked_set(n: int, share: float, rng: random.Random) -> frozenset[int]:
    return frozenset(rng.sample(range(n), max(1, round(n * share))))


def build_reading(topology: Topology, seed: int | str, attack_share: float) -> Reading:
    """Constant truth, gaussian inference noise and a ``both``-mode attack.

    An attacked node reports TRUTH + DELTA for itself and adds DELTA to every
    inference it makes about its in-neighbours, as the library's ``both``
    attack mode does.
    """
    rng = random.Random(f"reading:{seed}")
    attacked = attacked_set(topology.n, attack_share, rng)
    observed = tuple(TRUTH + DELTA if i in attacked else TRUTH for i in range(topology.n))
    inferred = tuple(
        TRUTH + rng.gauss(0.0, NOISE_SIGMA) + (DELTA if j in attacked else 0.0)
        for _, j in topology.edges()
    )
    return Reading(observed=observed, inferred=inferred)


def snapshot_text(topology: Topology, reading: Reading) -> str:
    lines = ["trustconnect-snapshot v1"]
    lines.extend(f"obs {i} {value!r}" for i, value in enumerate(reading.observed))
    lines.extend(
        f"inf {i} {j} {value!r}"
        for (i, j), value in zip(topology.edges(), reading.inferred)
    )
    return "\n".join(lines) + "\n"


def snapshot_dicts(topology: Topology, reading: Reading):
    """(observed, inferred) dicts in the shape ``trustconnect.Snapshot`` takes."""
    observed = dict(enumerate(reading.observed))
    inferred = dict(zip(topology.edges(), reading.inferred))
    return observed, inferred


def sweep_text(graph_file: str, n: int, seed: int, attack_share: float) -> str:
    """A sweep spec over ``graph_file``: noise, a ``both`` attack, the 4x4 grid."""
    rng = random.Random(f"sweep:{seed}")
    attacked = attacked_set(n, attack_share, rng)
    lines = [
        "trustconnect-sweep v1",
        f"graph_file {graph_file}",
        f"truth_constant {TRUTH!r}",
        f"noise_sigma {NOISE_SIGMA!r}",
        f"scenario_seed {rng.randrange(2**31)}",
        f"attack both {DELTA!r} {','.join(str(i) for i in sorted(attacked))}",
        f"k_values {','.join(repr(k) for k in K_VALUES)}",
        f"alpha_values {','.join(repr(a) for a in ALPHA_VALUES)}",
        "mode single-pass",
    ]
    return "\n".join(lines) + "\n"
