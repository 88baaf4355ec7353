"""Contradiction-threshold anomaly detector.

An edge (i, j) is a contradiction when its weight exp(-k * D) falls
strictly below ``weight_threshold``: node j's inference of node i's
value disagrees too much with what i itself reports. Each contradiction
adds the neighbor's resilience epsilon[j] to node i's evidence, so
disagreement with hard-to-attack neighbors counts for more than
disagreement with neighbors an attacker could have corrupted instead.
A node is flagged when its evidence meets or exceeds
``evidence_threshold``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DependencyGraph
from .errors import require_finite
from .snapshot import Snapshot, deviations
from .trust import TrustParams, edge_weights, json_text, params_line

DETECTION_HEADER = "trustconnect-detection v1"
DETECTION_CSV_HEADER = "id,evidence,flagged"


@dataclass(frozen=True)
class DetectorParams:
    weight_threshold: float = 0.5
    evidence_threshold: float = 1.0

    def __post_init__(self):
        require_finite(self, "weight_threshold", "evidence_threshold")
        if not 0.0 < self.weight_threshold < 1.0:
            raise ValueError(
                f"weight_threshold must be in (0, 1), got {self.weight_threshold}"
            )
        if self.evidence_threshold < 0:
            raise ValueError(
                f"evidence_threshold must be >= 0, got {self.evidence_threshold}"
            )


@dataclass(frozen=True)
class DetectionEntry:
    id: int
    label: str
    evidence: float
    flagged: bool
    contradicting_neighbors: tuple[int, ...]


@dataclass(frozen=True)
class DetectionReport:
    """Per-node contradiction evidence plus a deterministic ranking."""

    entries: tuple[DetectionEntry, ...]
    ranking: tuple[int, ...]
    params: DetectorParams

    def flagged_ids(self) -> tuple[int, ...]:
        return tuple(e.id for e in self.entries if e.flagged)

    def _ranked_entries(self) -> list[DetectionEntry]:
        by_id = {e.id: e for e in self.entries}
        return [by_id[i] for i in self.ranking]

    def to_text(self) -> str:
        lines = [DETECTION_HEADER]
        for e in self._ranked_entries():
            mark = "FLAGGED" if e.flagged else "ok"
            neighbors = ",".join(str(j) for j in e.contradicting_neighbors) or "-"
            lines.append(
                f"ecu {e.id} {e.label} evidence={e.evidence!r} {mark} contradicted_by={neighbors}"
            )
        lines.append(params_line(self.params))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = [DETECTION_CSV_HEADER]
        for e in self._ranked_entries():
            lines.append(f"{e.id},{e.evidence!r},{'true' if e.flagged else 'false'}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json_text({
            "ecus": [vars(e) for e in self.entries],
            "ranking": self.ranking,
            "params": vars(self.params),
        })


def detect(
    graph: DependencyGraph,
    snapshot: Snapshot,
    trust_params: TrustParams,
    det_params: DetectorParams | None = None,
) -> DetectionReport:
    """Score every node's contradiction evidence and rank the network.

    Evidence for node i is the sum of epsilon[j] over out-neighbors j
    whose edge weight sits strictly below the weight threshold. Ranking
    is by descending evidence with ties broken by ascending id.
    """
    det_params = det_params or DetectorParams()
    cg = graph.compiled
    weights = edge_weights(deviations(graph, snapshot), trust_params.k)
    entries = []
    for node, start, stop in zip(graph.nodes, cg.offsets, cg.offsets[1:]):
        contradicting = []
        evidence = 0.0
        for e in range(start, stop):
            if weights[e] < det_params.weight_threshold:
                contradicting.append(cg.ids[cg.dst[e]])
                evidence += cg.epsilons[cg.dst[e]]
        entries.append(
            DetectionEntry(
                id=node.id,
                label=node.label,
                evidence=evidence,
                flagged=evidence >= det_params.evidence_threshold,
                contradicting_neighbors=tuple(contradicting),
            )
        )
    ranking = tuple(
        e.id for e in sorted(entries, key=lambda e: (-e.evidence, e.id))
    )
    return DetectionReport(entries=tuple(entries), ranking=ranking, params=det_params)
