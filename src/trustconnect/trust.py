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
from itertools import chain, islice, repeat

from .errors import require_finite, require_int
from .graph import CompiledGraph, DependencyGraph
from .snapshot import Snapshot, deviations
from .svgchart import grouped_bar_svg

REPORT_HEADER = "trustconnect-report v1"
CSV_HEADER = "id,label,epsilon,btv,trust,eatv"

MODES = ("single-pass", "fixed-point")


class NonConvergenceWarning(UserWarning):
    """Fixed-point evaluation stopped at max_iterations without settling."""


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


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
        check_mode(self.mode)
        require_int("max_iterations", self.max_iterations)
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")


def edge_weights(devs: Iterable[float], k: float) -> list[float]:
    """Edge weights exp(-k * d) for edge-aligned deviations d.

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


def _coefficients(cg: CompiledGraph, alpha: float) -> list[float]:
    """epsilon[j] * alpha per edge: the factor on C(j) in T(i)'s sum."""
    epsilons = cg.epsilons
    return [epsilons[j] * alpha for j in cg.dst]


def _propagate(cg: CompiledGraph, coefs, weights: Iterable[float], params: TrustParams):
    """Scores by node index for edge-aligned coefs and weights, and a converged flag.

    Both modes sweep rows in ascending id. Single-pass updates the score
    list in place (a neighbor not yet evaluated still holds c0) and reads
    each row straight off one iterator over the edges. Fixed-point builds
    each iterate from the previous one, over rows of (coef, j, weight)
    tuples built once, which is faster when every row is read many times.
    """
    offsets = cg.offsets
    edges = zip(coefs, cg.dst, weights)
    scores = [params.c0] * len(cg.ids)
    if params.mode == "single-pass":
        for i, count in enumerate(map(operator.sub, offsets[1:], offsets)):
            scores[i] = _row_total(islice(edges, count), scores)
        converged = True
    else:
        terms = list(edges)
        rows = [terms[a:b] for a, b in zip(offsets, offsets[1:])]
        converged = not rows
        for _ in range(params.max_iterations):
            nxt = [_row_total(row, scores) for row in rows]
            change = max(map(abs, map(operator.sub, nxt, scores)), default=0.0)
            scores = nxt
            if change < params.tolerance:
                converged = True
                break
    # finite inputs can still overflow; a finite sum proves every score finite
    if not math.isfinite(sum(scores)):
        for node_id, score in zip(cg.ids, scores):
            if not math.isfinite(score):
                raise ValueError(
                    f"trust score of node {node_id} is {score!r}, not finite "
                    f"(alpha={params.alpha!r}, c0={params.c0!r}, mode={params.mode})"
                )
    return scores, converged


def _baseline(cg: CompiledGraph, params: TrustParams, coefs: list[float] | None = None):
    """Memoized baseline scores by node index, and their converged flag.

    Every baseline weight is exp(-k * 0.0) == 1.0 exactly, so k is not
    part of the key. A miss builds ``coefs`` unless the caller has them.
    """
    key = (params.alpha, params.c0, params.mode, params.max_iterations, params.tolerance)
    memo = cg.baselines.get(key)
    if memo is None:
        coefs = _coefficients(cg, params.alpha) if coefs is None else coefs
        scores, converged = _propagate(cg, coefs, repeat(1.0), params)
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
    weights = edge_weights(deviations(graph, snapshot), params.k)
    scores, converged = _propagate(cg, _coefficients(cg, params.alpha), weights, params)
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


def params_line(params) -> str:
    """``params name=value ...`` over the fields of a params dataclass."""
    return "params " + " ".join(
        f"{name}={value if isinstance(value, str) else repr(value)}"
        for name, value in vars(params).items()
    )


# A list of records one level into the document holds each record's fields
# six spaces deep under indent=2. The C encoder writes no newline of its own,
# so with this item separator it puts the fields of a flat record exactly there.
_RECORDS = json.JSONEncoder(allow_nan=False, separators=(",\n      ", ": "))
_SCALARS = {str, int, float, bool, type(None)}


def _records_json(value) -> str | None:
    """``value`` as indent=2 writes it one level in, if it is a nonempty list
    of nonempty dicts of scalars; otherwise None.

    Such a list comes out of the C encoder as ``[{...},SEP{...}]``. Only a
    record boundary reads ``},SEP{``: SEP holds a newline, which no encoded
    string does, and inside a record SEP is followed by a key's quote.
    """
    if not (
        type(value) in (list, tuple) and set(map(type, value)) == {dict}
        and all(value)
        and set(map(type, chain.from_iterable(map(dict.values, value)))) <= _SCALARS
    ):
        return None
    records = _RECORDS.encode(value)[2:-2]
    return "[\n    {\n      " + records.replace(
        "},\n      {", "\n    },\n    {\n      "
    ) + "\n    }\n  ]"


def json_text(doc: dict) -> str:
    """A report document as indented JSON; ValueError on NaN or an infinity.

    ``doc`` has string keys. The text is ``json.dumps(doc, indent=2,
    allow_nan=False)`` plus a newline. That encoder is pure Python; a list
    of flat records (a report's ``ecus``) goes through the C encoder instead.
    """
    fields = []
    for key, value in doc.items():
        text = _records_json(value)
        if text is None:
            text = json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")
        fields.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}\n" if fields else "{}\n"


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

    def to_text(self) -> str:
        lines = [REPORT_HEADER]
        for e in self.entries:
            lines.append(
                f"ecu {e.id} {e.label} {e.epsilon!r} {e.btv!r} {e.trust!r} {e.eatv!r}"
            )
        lines.append(f"network_trust {self.network_trust!r}")
        lines.append(params_line(self.params))
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

    def to_svg(self) -> str:
        """Grouped-bar chart of BTV, trust and EATV per ECU."""
        entries = self.entries
        return grouped_bar_svg(
            f"k={self.params.k:g} alpha={self.params.alpha:g}",
            [e.label for e in entries],
            [(name, [getattr(e, name) for e in entries]) for name in ("btv", "trust", "eatv")],
        )

    def to_json(self) -> str:
        return json_text({
            "ecus": [vars(e) for e in self.entries],
            "network_trust": self.network_trust,
            "params": vars(self.params),
            "converged": self.converged,
            "provenance": dict(sorted(self.provenance)),
        })


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
) -> TrustReport:
    """Assemble baseline, trust, and adjusted trust for every node."""
    return report_from_deviations(graph, deviations(graph, snapshot), params)


def report_from_deviations(
    graph: DependencyGraph,
    devs: Iterable[float],
    params: TrustParams,
) -> TrustReport:
    """:func:`full_report` from deviations in ``graph.edges`` order.

    ``devs`` is what ``snapshot.deviations`` returns, so a caller
    evaluating one snapshot under many parameters computes it once.
    """
    cg = graph.compiled
    coefs = _coefficients(cg, params.alpha)
    trust, trust_conv = _propagate(cg, coefs, edge_weights(devs, params.k), params)
    btv, base_conv = _baseline(cg, params, coefs)
    del coefs  # freed before the entries are built: 37.6 -> 36.8 MB sweep peak at 20k edges
    converged = trust_conv and base_conv
    if not converged:
        _warn_unconverged(params, "evaluation")
    entries = tuple(map(TrustEntry, cg.ids, map(operator.attrgetter("label"), graph.nodes),
                        cg.epsilons, btv, trust, map(adjusted_trust, btv, trust, cg.epsilons)))
    return TrustReport(
        entries=entries,
        network_trust=_network_trust(entries),
        params=params,
        converged=converged,
    )
