"""Trust scoring: edge weights, per-ECU trust, baseline, adjusted trust.

The pipeline, per dependency edge (i, j):

    deviation  D = |observed[i] - inferred[(i, j)]|
    weight     W = exp(-k * D)            (1 means perfect agreement)

and per node, summing over its out-neighbors j:

    T(i) = sum( epsilon[j] * alpha * C(j) + W[i, j] )

where C(j) is node j's trust score when one is already available and a
prior c0 otherwise. Two evaluation modes resolve "already available":

* "single-pass": nodes are evaluated once in ascending id order; C(j)
  is T(j) for neighbors evaluated earlier in the pass, else c0.
* "fixed-point": C is the previous iterate's T (all starting at c0),
  repeated until the max-norm change drops below ``tolerance`` or
  ``max_iterations`` is hit. Non-convergence is reported, never hidden.

The baseline trust value (BTV) is the same computation with every
deviation forced to zero (every weight exactly 1): the score a node
earns when nothing in the network contradicts anything. The adjusted
trust value blends the two by resilience:

    EATV(i) = BTV(i) - (BTV(i) - T(i)) * (1 - epsilon[i])

so a hard-to-attack node (epsilon near 1) keeps its baseline score even
when easily-attacked neighbors contradict it, while an exposed node
(epsilon near 0) is pulled all the way down to its measured trust.

Evaluation runs on the graph's compiled form (``DependencyGraph.compiled``).
The BTV depends only on topology and parameters, so it is memoized there.
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field

from .errors import require_finite
from .graph import CompiledGraph, DependencyGraph
from .snapshot import Snapshot, deviations, edge_deviations

REPORT_HEADER = "trustconnect-report v1"
CSV_HEADER = "id,label,epsilon,btv,trust,eatv"

MODES = ("single-pass", "fixed-point")


class NonConvergenceWarning(UserWarning):
    """Fixed-point evaluation stopped at max_iterations without settling."""


@dataclass(frozen=True)
class TrustParams:
    """Tuning knobs for the trust computation."""

    k: float
    alpha: float
    c0: float = 1.0
    mode: str = "single-pass"
    max_iterations: int = 100
    tolerance: float = 1e-9

    def __post_init__(self):
        require_finite(self, "k", "alpha", "c0", "tolerance")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")


def edge_weight(d: float, k: float) -> float:
    """Weight of an edge with deviation d under decay factor k: exp(-k*d)."""
    if d < 0:
        raise ValueError(f"deviation must be >= 0, got {d}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return math.exp(-k * d)


def edge_weights(devs: Iterable[float], k: float) -> list[float]:
    """:func:`edge_weight` over edge-aligned deviations.

    Unchecked: deviations are absolute values and TrustParams holds k
    finite and non-negative.
    """
    exp = math.exp
    return [exp(-k * d) for d in devs]


def _row_total(row, scores) -> float:
    # left to right in edge order, so the sum is bit-for-bit the
    # documented recurrence on every Python version
    total = 0.0
    for coef, j, weight in row:
        total += coef * scores[j] + weight
    return total


def _propagate(cg: CompiledGraph, weights: list[float], params: TrustParams):
    """Scores by node index for edge-aligned weights, and a converged flag.

    Both modes sweep rows in ascending id. Single-pass updates the score
    list in place (a neighbor not yet evaluated still holds c0); fixed-point
    builds each iterate from the previous one.
    """
    alpha, offsets = params.alpha, cg.offsets
    terms = list(zip([cg.epsilons[j] * alpha for j in cg.dst], cg.dst, weights))
    rows = [terms[a:b] for a, b in zip(offsets, offsets[1:])]
    scores = [params.c0] * len(rows)
    if params.mode == "single-pass":
        for i, row in enumerate(rows):
            scores[i] = _row_total(row, scores)
        return scores, True
    converged = not rows
    for _ in range(params.max_iterations):
        nxt = [_row_total(row, scores) for row in rows]
        change = max(map(abs, map(operator.sub, nxt, scores)), default=0.0)
        scores = nxt
        if change < params.tolerance:
            converged = True
            break
    return scores, converged


def _baseline(cg: CompiledGraph, params: TrustParams):
    """Memoized baseline scores by node index, and their converged flag.

    Every baseline weight is exp(-k * 0.0) == 1.0 exactly, so k is not
    part of the key.
    """
    key = (params.alpha, params.c0, params.mode, params.max_iterations, params.tolerance)
    memo = cg.baselines.get(key)
    if memo is None:
        scores, converged = _propagate(cg, [1.0] * len(cg.dst), params)
        memo = cg.baselines[key] = (tuple(scores), converged)
    return memo


def _warn_unconverged(params: TrustParams, what: str) -> None:
    warnings.warn(
        f"fixed-point {what} did not converge within "
        f"{params.max_iterations} iterations; returning the last iterate",
        NonConvergenceWarning,
    )


def trust_scores(
    graph: DependencyGraph, snapshot: Snapshot, params: TrustParams
) -> dict[int, float]:
    """Per-node trust score for one snapshot; warns on non-convergence."""
    cg = graph.compiled
    weights = edge_weights(edge_deviations(graph, snapshot), params.k)
    scores, converged = _propagate(cg, weights, params)
    if not converged:
        _warn_unconverged(params, "evaluation")
    return dict(zip(cg.ids, scores))


def baseline_trust(graph: DependencyGraph, params: TrustParams) -> dict[int, float]:
    """Trust scores under zero deviation everywhere (every weight is 1)."""
    cg = graph.compiled
    scores, converged = _baseline(cg, params)
    if not converged:
        _warn_unconverged(params, "baseline")
    return dict(zip(cg.ids, scores))


def adjusted_trust(btv: float, trust: float, epsilon: float) -> float:
    """Resilience-weighted blend of baseline and measured trust.

    Equals epsilon * btv + (1 - epsilon) * trust; exact at both
    endpoints regardless of floating-point cancellation.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if epsilon == 0.0:
        return trust
    if epsilon == 1.0:
        return btv
    return btv - (btv - trust) * (1.0 - epsilon)


@dataclass(frozen=True)
class TrustEntry:
    id: int
    label: str
    epsilon: float
    btv: float
    trust: float
    eatv: float


@dataclass(frozen=True)
class TrustReport:
    """Per-ECU trust triple plus the network aggregate and provenance."""

    entries: tuple[TrustEntry, ...]
    network_trust: float
    params: TrustParams
    converged: bool
    provenance: tuple[tuple[str, str], ...] = field(default=())

    def entry(self, node_id: int) -> TrustEntry:
        for entry in self.entries:
            if entry.id == node_id:
                return entry
        raise ValueError(f"unknown node id {node_id}")

    def btv(self) -> dict[int, float]:
        return {e.id: e.btv for e in self.entries}

    def trust(self) -> dict[int, float]:
        return {e.id: e.trust for e in self.entries}

    def eatv(self) -> dict[int, float]:
        return {e.id: e.eatv for e in self.entries}

    def to_text(self) -> str:
        lines = [REPORT_HEADER]
        for e in self.entries:
            lines.append(
                f"ecu {e.id} {e.label} {e.epsilon!r} {e.btv!r} {e.trust!r} {e.eatv!r}"
            )
        lines.append(f"network_trust {self.network_trust!r}")
        p = self.params
        lines.append(
            f"params k={p.k!r} alpha={p.alpha!r} c0={p.c0!r} mode={p.mode} "
            f"max_iterations={p.max_iterations} tolerance={p.tolerance!r}"
        )
        lines.append(f"converged {'true' if self.converged else 'false'}")
        for key, value in sorted(self.provenance):
            lines.append(f"meta {key} {value}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for e in self.entries:
            lines.append(
                f"{e.id},{e.label},{e.epsilon!r},{e.btv!r},{e.trust!r},{e.eatv!r}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        p = self.params
        doc = {
            "ecus": [
                {
                    "id": e.id,
                    "label": e.label,
                    "epsilon": e.epsilon,
                    "btv": e.btv,
                    "trust": e.trust,
                    "eatv": e.eatv,
                }
                for e in self.entries
            ],
            "network_trust": self.network_trust,
            "params": {
                "k": p.k,
                "alpha": p.alpha,
                "c0": p.c0,
                "mode": p.mode,
                "max_iterations": p.max_iterations,
                "tolerance": p.tolerance,
            },
            "converged": self.converged,
            "provenance": {key: value for key, value in sorted(self.provenance)},
        }
        return json.dumps(doc, indent=2) + "\n"


def _network_trust(entries: tuple[TrustEntry, ...]) -> float:
    """Resilience-weighted mean of capped per-node trust ratios.

    Each node contributes min(T, BTV) / BTV (1.0 when BTV is 0), so the
    aggregate is 1.0 exactly when nothing contradicts anything, and the
    testimony of easily-attacked nodes is discounted by their epsilon.
    Falls back to the unweighted mean when every epsilon is zero.
    """
    if not entries:
        return 1.0
    ratios = [
        (min(e.trust, e.btv) / e.btv if e.btv > 0 else 1.0) for e in entries
    ]
    epsilon_sum = sum(e.epsilon for e in entries)
    if epsilon_sum > 0:
        return sum(e.epsilon * r for e, r in zip(entries, ratios)) / epsilon_sum
    return sum(ratios) / len(ratios)


def full_report(
    graph: DependencyGraph,
    snapshot: Snapshot,
    params: TrustParams,
    provenance: dict[str, str] | None = None,
) -> TrustReport:
    """Assemble baseline, trust, and adjusted trust for every node."""
    # through the public deviations(), so layer tracing (perfbench/spans.py)
    # times this step; its keys follow graph.edges, so values are edge-aligned
    devs = deviations(graph, snapshot).values()
    return report_from_deviations(graph, devs, params, provenance)


def report_from_deviations(
    graph: DependencyGraph,
    devs: Iterable[float],
    params: TrustParams,
    provenance: dict[str, str] | None = None,
) -> TrustReport:
    """:func:`full_report` from deviations in ``graph.edges`` order.

    ``devs`` is what ``snapshot.edge_deviations`` returns, so a caller
    evaluating one snapshot under many parameters computes it once.
    """
    cg = graph.compiled
    trust, trust_conv = _propagate(cg, edge_weights(devs, params.k), params)
    btv, base_conv = _baseline(cg, params)
    converged = trust_conv and base_conv
    if not converged:
        _warn_unconverged(params, "evaluation")
    entries = tuple(
        TrustEntry(
            id=node.id,
            label=node.label,
            epsilon=node.epsilon,
            btv=b,
            trust=t,
            eatv=adjusted_trust(b, t, node.epsilon),
        )
        for node, b, t in zip(graph.nodes, btv, trust)
    )
    return TrustReport(
        entries=entries,
        network_trust=_network_trust(entries),
        params=params,
        converged=converged,
        provenance=tuple(sorted((provenance or {}).items())),
    )
