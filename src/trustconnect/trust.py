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
from functools import lru_cache, partial
from itertools import islice, repeat

from .errors import require_finite, require_int
from .graph import CompiledGraph, DependencyGraph, _Derived
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
    exp, minus_k = math.exp, -k
    return [exp(minus_k * d) for d in devs]


def _snapshot_weights(graph: DependencyGraph, snapshot: Snapshot, k: float) -> list[float]:
    """``edge_weights(deviations(graph, snapshot), k)``, kept on the snapshot for one (graph, k):
    a report and a detection of one snapshot share the list, and it is freed with them."""
    memo = vars(snapshot).get("_weights")
    if memo is None or memo[0] is not graph or memo[1] != k:
        memo = (graph, k, edge_weights(deviations(graph, snapshot), k))
        object.__setattr__(snapshot, "_weights", memo)
    return memo[2]


# The generated row kernels' bounds; README, "How evaluation runs", has their measurements.
# A graph's loop iterations pay for its kernels' build at about KERNEL_BUILD_ITERATIONS,
# and a graph's kernels retain about 175 bytes per edge: at most 9 MB under the cap.
KERNEL_BUILD_ITERATIONS = 500
KERNEL_EDGE_CAP = 50_000
KERNEL_TERMS = 128


def _kernel(cg: CompiledGraph, rows: range):
    """A function of (products, weights) returning the totals of ``rows``.

    Each is ``0.0 + (p[j0] + w[e0]) + (p[j1] + w[e1]) + ...``, the loop's own sum, in
    statements of at most KERNEL_TERMS terms, which keeps the compiler's recursion shallow.
    """
    lines = ["def kernel(p, w):"]
    totals = []
    for row in rows:
        edges = range(cg.offsets[row], cg.offsets[row + 1])
        terms = [f"(p[{cg.dst[e]}] + w[{e}])" for e in edges]
        total = "0.0"
        while len(terms) > KERNEL_TERMS:
            lines.append(f" t{row} = {' + '.join([total, *terms[:KERNEL_TERMS]])}")
            total = f"t{row}"
            terms = terms[KERNEL_TERMS:]
        totals.append(" + ".join([total, *terms]))
    lines.append(f" return [{', '.join(totals)}]")
    namespace = {}
    exec(compile("\n".join(lines), "<row kernel>", "exec"), namespace)
    return namespace["kernel"]


def _row_kernels(cg: CompiledGraph):
    """The row kernels memoized on ``cg``, or None while it has none.

    They are built once the loop has run KERNEL_BUILD_ITERATIONS fixed-point
    iterations on a graph of at most KERNEL_EDGE_CAP edges: the loop time the
    kernels would have saved by then about equals their build time, so no
    run of evaluations pays more than about twice its best choice, and a
    one-shot report builds nothing. Each kernel compiles at most KERNEL_TERMS terms,
    a row's leading 0.0 among them, unless one row alone is longer: small compile
    units keep the compiler's peak memory small.
    """
    memo, offsets, n = cg.kernels, cg.offsets, len(cg.ids)
    if ("rows" not in memo and len(cg.dst) <= KERNEL_EDGE_CAP
            and memo.get("iterations", 0) >= KERNEL_BUILD_ITERATIONS):
        kernels, start = [], 0
        for stop in range(1, n + 1):  # rows start:stop, unless row stop would overfill
            if stop == n or offsets[stop + 1] - offsets[start] + stop + 1 - start > KERNEL_TERMS:
                kernels.append(_kernel(cg, range(start, stop)))
                start = stop
        memo["rows"] = kernels
    return memo.get("rows")


def _propagate(cg: CompiledGraph, weights: Iterable[float], params: TrustParams):
    """Scores by node index for edge-aligned weights, the iteration count and the residual.

    Both modes sum each row left to right, bit for bit the documented recurrence.
    Single-pass updates the score list in place (a neighbor not yet evaluated still holds
    c0) off one iterator over the edges: one iteration, residual 0.0. Fixed-point sums
    ``products[j] + weight``, one product epsilon[j] * alpha * C(j) per node, by the row
    kernels (see ``_row_kernels``) or else the loop, whose iterations count towards
    building them, until the residual, the max-norm change of the last iterate, is below
    the tolerance. That max-norm is taken only where no change reaches the tolerance, and
    on the last iterate; elsewhere it (or the NaN ``max`` keeps) is not below it, nor is ``change``.
    """
    offsets = cg.offsets
    factors = [epsilon * params.alpha for epsilon in cg.epsilons]
    scores = [params.c0] * len(cg.ids)
    iterations, change = 1, 0.0
    if params.mode == "single-pass":
        edges = zip(cg.dst, weights)
        for i, count in enumerate(map(operator.sub, offsets[1:], offsets)):
            total = 0.0
            for j, weight in islice(edges, count):
                total += factors[j] * scores[j] + weight
            scores[i] = total
    else:
        kernels = _row_kernels(cg)
        if kernels is None:
            terms = list(zip(cg.dst, weights))
            rows = [terms[a:b] for a, b in zip(offsets, offsets[1:])]
        else:
            weights = list(weights)
        reaches, change = partial(operator.le, params.tolerance), math.inf
        for iterations in range(1, params.max_iterations + 1):
            products = list(map(operator.mul, factors, scores))
            nxt = []
            if kernels is None:
                for row in rows:
                    total = 0.0
                    for j, weight in row:
                        total += products[j] + weight
                    nxt.append(total)
            else:
                for kernel in kernels:
                    nxt += kernel(products, weights)
            if iterations == params.max_iterations or not any(
                    map(reaches, map(abs, map(operator.sub, nxt, scores)))):
                change = max(map(abs, map(operator.sub, nxt, scores)), default=0.0)
            scores = nxt
            if change < params.tolerance:
                break
        if kernels is None:
            cg.kernels["iterations"] = cg.kernels.get("iterations", 0) + iterations
    # finite inputs can still overflow; a finite sum proves every score finite
    if not math.isfinite(sum(scores)):
        for node_id, score in zip(cg.ids, scores):
            if not math.isfinite(score):
                raise ValueError(
                    f"trust score of node {node_id} is {score!r}, not finite "
                    f"(alpha={params.alpha!r}, c0={params.c0!r}, mode={params.mode})"
                )
    return scores, iterations, change


def _baseline(cg: CompiledGraph, params: TrustParams):
    """Memoized baseline scores by node index, iteration count and residual.

    Every baseline weight is exp(-k * 0.0) == 1.0 exactly, so k is not part of
    the key.
    """
    key = (params.alpha, params.c0, params.mode, params.max_iterations, params.tolerance)
    memo = cg.baselines.get(key)
    if memo is None:
        scores, iterations, residual = _propagate(cg, repeat(1.0, len(cg.dst)), params)
        memo = cg.baselines[key] = (tuple(scores), iterations, residual)
    return memo


def _warn_unconverged(params: TrustParams, what: str, residual: float) -> None:
    if not residual < params.tolerance:
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
    scores, _, residual = _propagate(cg, _snapshot_weights(graph, snapshot, params.k), params)
    _warn_unconverged(params, "evaluation", residual)
    return dict(zip(cg.ids, scores))


def baseline_trust(graph: DependencyGraph, params: TrustParams) -> dict[int, float]:
    """Trust scores under zero deviation everywhere (every weight is 1)."""
    cg = graph.compiled
    scores, _, residual = _baseline(cg, params)
    _warn_unconverged(params, "baseline", residual)
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


# No encoded scalar holds a newline, so this item separator splits a column's text.
_COLUMN = json.JSONEncoder(allow_nan=False, separators=("\n", ": "))


def _json_column(values) -> list[str]:
    """Each of ``values``, scalars, as JSON text from one C-encoder call; ValueError on NaN
    or an infinity, as ``json.dumps(..., allow_nan=False)`` raises."""
    return _COLUMN.encode(values)[1:-1].split("\n") if values else []


def _json_list(texts: list[str], indent: str) -> str:
    """A list of encoded values as indent=2 lays it out with its items ``indent`` deep."""
    return f"[\n{indent}" + f",\n{indent}".join(texts) + f"\n{indent[2:]}]" if texts else "[]"


def _report_json(lists: dict[str, list[str]], rest: dict) -> str:
    """``json.dumps(doc, indent=2, allow_nan=False)`` and a newline, where ``doc`` is ``lists``
    followed by ``rest``, which is not empty; each list is given as its items' texts, a
    record's laid out two levels in."""
    return ("{\n" + "".join(f'  "{key}": {_json_list(texts, "    ")},\n'
                            for key, texts in lists.items())
            + json.dumps(rest, indent=2, allow_nan=False)[2:] + "\n")


@dataclass(frozen=True)
class TrustEntry:
    id: int
    label: str
    epsilon: float
    btv: float
    trust: float
    eatv: float


class _EntryColumns(_Derived):
    """Base of a frozen report whose serializers read ``_columns``, a tuple per ``_entry`` field."""

    _derived = ("entries", "_columns", lambda report: tuple(map(report._entry, *report._columns)))

    def __post_init__(self):
        object.__setattr__(self, "_columns", tuple(
            tuple(map(operator.attrgetter(name), self.entries))
            for name in self._entry.__dataclass_fields__))


@dataclass(frozen=True)
class TrustReport(_EntryColumns):
    """Per-ECU trust triple plus the network aggregate and provenance."""

    entries: tuple[TrustEntry, ...]
    network_trust: float
    params: TrustParams
    converged: bool
    provenance: tuple[tuple[str, str], ...] = field(default=())
    # the larger of trust's and baseline's (see _propagate); no serializer lists them
    iterations: int = 1
    residual: float = 0.0
    _entry = TrustEntry

    def to_text(self) -> str:
        lines = [REPORT_HEADER]
        for i, label, epsilon, btv, trust, eatv in zip(*self._columns):
            lines.append(f"ecu {i} {label} {epsilon!r} {btv!r} {trust!r} {eatv!r}")
        lines.append(f"network_trust {self.network_trust!r}")
        lines.append(params_line(self.params))
        lines.append(f"converged {'true' if self.converged else 'false'}")
        for key, value in sorted(self.provenance):
            lines.append(f"meta {key} {value}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        ids, labels, epsilons, btv, trust, eatv = self._columns
        heads = _csv_heads(ids, labels, epsilons, btv, (id(ids), id(epsilons)))
        return CSV_HEADER + "\n" + "".join([
            f"{head}{t!r},{a!r}\n" for head, t, a in zip(heads, trust, eatv)])

    def to_svg(self) -> str:
        """Grouped-bar chart of BTV, trust and EATV per ECU."""
        _, labels, _, btv, trust, eatv = self._columns
        return grouped_bar_svg(
            f"k={self.params.k:g} alpha={self.params.alpha:g}",
            labels, [("btv", btv), ("trust", trust), ("eatv", eatv)],
        )

    def to_json(self) -> str:
        return _report_json({"ecus": [
            f'{{\n      "id": {i},\n      "label": {label},\n      "epsilon": {e},\n      '
            f'"btv": {b},\n      "trust": {t},\n      "eatv": {a}\n    }}'
            for i, label, e, b, t, a in zip(*map(_json_column, self._columns))]}, {
            "network_trust": self.network_trust,
            "params": vars(self.params),
            "converged": self.converged,
            "provenance": dict(sorted(self.provenance)),
        })


@lru_cache(maxsize=4)
def _csv_heads(ids, labels, epsilons, btv, identity) -> tuple[str, ...]:
    """Each CSV row's ``id,label,epsilon,btv,`` text, shared by the cells of one alpha.

    ``identity``, the id() of ``ids`` and ``epsilons``, keeps columns that are equal but
    print apart (0.0 and -0.0, 1 and 1.0) from sharing; the key keeps both tuples alive.
    """
    return tuple([f"{i},{l},{e!r},{b!r}," for i, l, e, b in zip(ids, labels, epsilons, btv)])


def _network_trust(epsilons, btv, trust) -> float:
    """Resilience-weighted mean of capped per-node trust ratios.

    Each node contributes min(T, BTV) / BTV (1.0 when BTV is 0), so the
    aggregate is 1.0 exactly when nothing contradicts anything, and the
    testimony of easily-attacked nodes is discounted by their epsilon.
    Falls back to the unweighted mean when every epsilon is zero. Each total
    is summed left to right, not by ``sum()``, which compensates on Python 3.12+.
    """
    if not btv:
        return 1.0
    epsilon_sum = weighted_sum = ratio_sum = 0
    for epsilon, b, t in zip(epsilons, btv, trust):
        ratio = min(t, b) / b if b > 0 else 1.0
        epsilon_sum += epsilon
        weighted_sum += epsilon * ratio
        ratio_sum += ratio
    if epsilon_sum > 0:
        return weighted_sum / epsilon_sum
    return ratio_sum / len(btv)


def full_report(
    graph: DependencyGraph,
    snapshot: Snapshot,
    params: TrustParams,
) -> TrustReport:
    """Assemble baseline, trust, and adjusted trust for every node."""
    return report_from_weights(graph, _snapshot_weights(graph, snapshot, params.k), params)


def report_from_weights(
    graph: DependencyGraph,
    weights: Iterable[float],
    params: TrustParams,
) -> TrustReport:
    """:func:`full_report` from edge weights in ``graph.edges`` order.

    ``weights`` is what ``edge_weights`` returns for ``params.k``, so a
    caller evaluating one snapshot under many alphas computes it once.
    """
    cg = graph.compiled
    trust, iterations, residual = _propagate(cg, weights, params)
    btv, base_iterations, base_residual = _baseline(cg, params)
    iterations, residual = max(iterations, base_iterations), max(residual, base_residual)
    _warn_unconverged(params, "evaluation", residual)
    trust = tuple(trust)
    return TrustReport._of(
        _columns=(cg.ids, tuple(map(operator.attrgetter("label"), graph.nodes)), cg.epsilons,
                  btv, trust, tuple(map(adjusted_trust, btv, trust, cg.epsilons))),
        network_trust=_network_trust(cg.epsilons, btv, trust),
        params=params,
        converged=residual < params.tolerance,
        iterations=iterations,
        residual=residual,
    )
