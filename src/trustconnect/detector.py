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

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import attrgetter, ge, itemgetter, lt, neg

from .graph import DependencyGraph
from .errors import require_finite
from .snapshot import Snapshot
from .trust import (TrustParams, _EntryColumns, _json_column, _json_list, _report_json,
                    _snapshot_weights, params_line)

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
class DetectionReport(_EntryColumns):
    """Per-node contradiction evidence plus a deterministic ranking."""

    entries: tuple[DetectionEntry, ...]
    ranking: tuple[int, ...]
    params: DetectorParams
    _entry = DetectionEntry

    def flagged_ids(self) -> tuple[int, ...]:
        return tuple(compress(self._columns[0], self._columns[3]))

    def _ranked_rows(self):
        return map(dict(zip(self._columns[0], zip(*self._columns))).__getitem__, self.ranking)

    def to_text(self) -> str:
        lines = [DETECTION_HEADER]
        for i, label, evidence, flagged, neighbors in self._ranked_rows():
            mark = "FLAGGED" if flagged else "ok"
            lines.append(f"ecu {i} {label} evidence={evidence!r} {mark} "
                         f"contradicted_by={','.join(map(str, neighbors)) or '-'}")
        lines.append(params_line(self.params))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = [DETECTION_CSV_HEADER]
        for i, _, evidence, flagged, _ in self._ranked_rows():
            lines.append(f"{i},{evidence!r},{'true' if flagged else 'false'}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        neighbors = self._columns[4]  # encoded as one column, then taken back row by row
        texts = iter(_json_column(list(chain.from_iterable(neighbors))))
        return _report_json({"ecus": [
            f'{{\n      "id": {i},\n      "label": {label},\n      "evidence": {e},\n      '
            f'"flagged": {f},\n      "contradicting_neighbors": '
            f'{_json_list(list(islice(texts, len(n))), "        ")}\n    }}'
            for i, label, e, f, n in zip(*map(_json_column, self._columns[:4]), neighbors)],
            "ranking": _json_column(self.ranking)}, {"params": vars(self.params)})


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
    weights = _snapshot_weights(graph, snapshot, trust_params.k)
    evidence, neighbors = [0.0] * len(cg.ids), [()] * len(cg.ids)
    # the contradictions in edge order, so each node's evidence is summed left to right
    for e in compress(count(), map(lt, weights, repeat(det_params.weight_threshold))):
        i, j = bisect_right(cg.offsets, e) - 1, cg.dst[e]
        evidence[i] += cg.epsilons[j]
        neighbors[i] += (cg.ids[j],)
    return DetectionReport._of(
        _columns=(cg.ids, tuple(map(attrgetter("label"), graph.nodes)), tuple(evidence),
                  tuple(map(ge, evidence, repeat(det_params.evidence_threshold))),
                  tuple(neighbors)),
        ranking=tuple(map(itemgetter(1), sorted(zip(map(neg, evidence), cg.ids)))),
        params=det_params,
    )
