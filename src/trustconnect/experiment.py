"""Parameter sweeps over a (k, alpha) grid, plus the bundled reference network.

A sweep evaluates the SAME graph and the SAME synthesized snapshot under
every combination of k and alpha, producing one full trust report per
grid cell. Deviations do not depend on k or alpha, so cells differ only
in edge weights and trust propagation, which is exactly what makes the
grid comparable.

The package ships a frozen 20-node reference network plus an attack
scenario (three low-resilience ECUs corrupting the inferences they
produce). ``reference_fixture`` loads it and ``check_gap_ordering``
verifies its headline property: the high-resilience nodes E5, E13, E18
hold their baseline-adjusted trust while the exposed nodes E2 and E9
fall, in every grid cell.

Sweep spec file format (version header required, `#` starts a comment):

    trustconnect-sweep v1
    graph_file <path>                      # exactly one graph source
    graph_random n=<int> p=<float> seed=<int> [epsilon=<spec>]
    truth_constant <value>
    truth <id> <value>                     # per-node override, repeatable
    noise_sigma <value>
    scenario_seed <int>
    attack <mode> <delta> <id,id,...>
    k_values <v,v,...>
    alpha_values <v,v,...>
    mode <single-pass|fixed-point>

A relative graph_file is resolved against the spec file's directory.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import ParseError
from .graph import (
    DependencyGraph,
    EpsilonDistribution,
    UNIFORM_EPSILON,
    from_text as graph_from_text,
    generate_random,
    load_graph,
    parse_epsilon_dist,
    to_text as graph_to_text,
)
from .snapshot import (
    AttackSpec,
    ScenarioSpec,
    Snapshot,
    edge_deviations,
    scenario_from_text,
    synthesize_snapshot,
)
from .svgchart import grouped_bar_svg
from .trust import MODES, TrustParams, TrustReport, report_from_deviations

SWEEP_HEADER = "trustconnect-sweep v1"
MANIFEST_HEADER = "trustconnect-sweep-manifest v1"

DEFAULT_K_VALUES = (0.1, 0.5, 1.0, 2.0)
DEFAULT_ALPHA_VALUES = (0.05, 0.1, 0.2, 0.4)

REFERENCE_RESILIENT = (5, 13, 18)
REFERENCE_EXPOSED = (2, 9)


@dataclass(frozen=True)
class RandomGraphSpec:
    n: int
    edge_probability: float
    epsilon: EpsilonDistribution = UNIFORM_EPSILON
    seed: int = 0


def _check_grid_axis(name, values):
    if not values:
        raise ValueError(f"{name} must be nonempty")
    if any(v < 0 for v in values):
        raise ValueError(f"{name} must be >= 0, got {list(values)}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must be strictly ascending, got {list(values)}")


@dataclass(frozen=True)
class SweepSpec:
    """Everything a sweep needs: graph source, scenario fields, grid.

    The scenario is stored flattened (constant truth plus overrides)
    because a per-node ground truth can only be materialized once the
    graph source has been resolved to actual node ids.
    """

    graph_file: str | None = None
    graph_random: RandomGraphSpec | None = None
    truth_constant: float = 0.0
    truth_overrides: tuple[tuple[int, float], ...] = ()
    noise_sigma: float = 0.0
    attack: AttackSpec | None = None
    scenario_seed: int = 0
    k_values: tuple[float, ...] = DEFAULT_K_VALUES
    alpha_values: tuple[float, ...] = DEFAULT_ALPHA_VALUES
    mode: str = "single-pass"

    def __post_init__(self):
        object.__setattr__(self, "k_values", tuple(self.k_values))
        object.__setattr__(self, "alpha_values", tuple(self.alpha_values))
        object.__setattr__(self, "truth_overrides", tuple(self.truth_overrides))
        if (self.graph_file is None) == (self.graph_random is None):
            raise ValueError("exactly one of graph_file and graph_random is required")
        _check_grid_axis("k_values", self.k_values)
        _check_grid_axis("alpha_values", self.alpha_values)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


def resolve_graph(spec: SweepSpec) -> DependencyGraph:
    if spec.graph_file is not None:
        return load_graph(spec.graph_file)
    g = spec.graph_random
    return generate_random(
        n=g.n, edge_probability=g.edge_probability,
        epsilon_distribution=g.epsilon, seed=g.seed,
    )


def resolve_scenario(spec: SweepSpec, graph: DependencyGraph) -> ScenarioSpec:
    truth = {node.id: spec.truth_constant for node in graph.nodes}
    for node_id, value in spec.truth_overrides:
        truth[node_id] = value
    return ScenarioSpec(
        ground_truth=truth,
        noise_sigma=spec.noise_sigma,
        attack=spec.attack,
        seed=spec.scenario_seed,
    )


def graph_digest(graph: DependencyGraph) -> str:
    return hashlib.sha256(graph_to_text(graph).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SweepResult:
    graph: DependencyGraph
    snapshot: Snapshot
    scenario: ScenarioSpec
    k_values: tuple[float, ...]
    alpha_values: tuple[float, ...]
    mode: str
    reports: dict[tuple[float, float], TrustReport]
    graph_sha256: str

    def report(self, k: float, alpha: float) -> TrustReport:
        return self.reports[(k, alpha)]

    def cells(self):
        """Grid cells in canonical order: k-major, alpha-minor, ascending."""
        for k in self.k_values:
            for alpha in self.alpha_values:
                yield k, alpha


def run_sweep_on(
    graph: DependencyGraph,
    scenario: ScenarioSpec,
    k_values=DEFAULT_K_VALUES,
    alpha_values=DEFAULT_ALPHA_VALUES,
    mode: str = "single-pass",
) -> SweepResult:
    """Evaluate every (k, alpha) cell on one shared snapshot."""
    k_values = tuple(k_values)
    alpha_values = tuple(alpha_values)
    _check_grid_axis("k_values", k_values)
    _check_grid_axis("alpha_values", alpha_values)
    snapshot = synthesize_snapshot(graph, scenario)
    devs = edge_deviations(graph, snapshot)
    reports = {}
    for k in k_values:
        for alpha in alpha_values:
            params = TrustParams(k=k, alpha=alpha, mode=mode)
            reports[(k, alpha)] = report_from_deviations(graph, devs, params)
    return SweepResult(
        graph=graph,
        snapshot=snapshot,
        scenario=scenario,
        k_values=k_values,
        alpha_values=alpha_values,
        mode=mode,
        reports=reports,
        graph_sha256=graph_digest(graph),
    )


def run_sweep(spec: SweepSpec) -> SweepResult:
    graph = resolve_graph(spec)
    scenario = resolve_scenario(spec, graph)
    return run_sweep_on(
        graph, scenario,
        k_values=spec.k_values, alpha_values=spec.alpha_values, mode=spec.mode,
    )


# ---------------------------------------------------------------------------
# sweep spec files


def _format_values(values) -> str:
    return ",".join(repr(v) for v in values)


def sweep_spec_to_text(spec: SweepSpec) -> str:
    lines = [SWEEP_HEADER]
    if spec.graph_file is not None:
        lines.append(f"graph_file {spec.graph_file}")
    else:
        g = spec.graph_random
        lines.append(
            f"graph_random n={g.n} p={g.edge_probability!r} seed={g.seed} "
            f"epsilon={g.epsilon.spec()}"
        )
    lines.append(f"truth_constant {spec.truth_constant!r}")
    for node_id, value in sorted(spec.truth_overrides):
        lines.append(f"truth {node_id} {value!r}")
    lines.append(f"noise_sigma {spec.noise_sigma!r}")
    lines.append(f"scenario_seed {spec.scenario_seed}")
    if spec.attack is not None:
        ids = ",".join(str(i) for i in sorted(spec.attack.compromised))
        lines.append(f"attack {spec.attack.mode} {spec.attack.delta!r} {ids}")
    lines.append(f"k_values {_format_values(spec.k_values)}")
    lines.append(f"alpha_values {_format_values(spec.alpha_values)}")
    lines.append(f"mode {spec.mode}")
    return "\n".join(lines) + "\n"


def parse_sweep_spec(text: str, path: str | None = None) -> SweepSpec:
    lines = text.splitlines()
    if not lines or lines[0].strip() != SWEEP_HEADER:
        raise ParseError(f"missing header {SWEEP_HEADER!r}", path=path, line_no=1)
    fields_by_kind = {}
    overrides = []
    seen = set()
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
                overrides.append((int(fields[1]), float(fields[2])))
                continue
            if kind in seen:
                raise ValueError(f"duplicate {kind} record")
            seen.add(kind)
            fields_by_kind[kind] = fields
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line_no=line_no) from exc
    kwargs = {"truth_overrides": tuple(overrides)}
    try:
        for kind, fields in fields_by_kind.items():
            if kind == "graph_file":
                if len(fields) != 2:
                    raise ValueError("expected: graph_file <path>")
                graph_path = fields[1]
                if path is not None and not os.path.isabs(graph_path):
                    graph_path = str(Path(path).parent / graph_path)
                kwargs["graph_file"] = graph_path
            elif kind == "graph_random":
                params = dict(part.split("=", 1) for part in fields[1:])
                unknown = set(params) - {"n", "p", "seed", "epsilon"}
                if unknown:
                    raise ValueError(f"unknown graph_random keys {sorted(unknown)}")
                kwargs["graph_random"] = RandomGraphSpec(
                    n=int(params["n"]),
                    edge_probability=float(params["p"]),
                    seed=int(params.get("seed", "0")),
                    epsilon=parse_epsilon_dist(params.get("epsilon", "uniform")),
                )
            elif kind == "truth_constant":
                kwargs["truth_constant"] = float(fields[1])
            elif kind == "noise_sigma":
                kwargs["noise_sigma"] = float(fields[1])
            elif kind == "scenario_seed":
                kwargs["scenario_seed"] = int(fields[1])
            elif kind == "attack":
                if len(fields) != 4:
                    raise ValueError("expected: attack <mode> <delta> <id,id,...>")
                kwargs["attack"] = AttackSpec(
                    compromised=frozenset(int(p) for p in fields[3].split(",")),
                    mode=fields[1],
                    delta=float(fields[2]),
                )
            elif kind == "k_values":
                kwargs["k_values"] = tuple(float(p) for p in fields[1].split(","))
            elif kind == "alpha_values":
                kwargs["alpha_values"] = tuple(float(p) for p in fields[1].split(","))
            elif kind == "mode":
                kwargs["mode"] = fields[1]
            else:
                raise ValueError(f"unknown record type {kind!r}")
        return SweepSpec(**kwargs)
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from exc


def load_sweep_spec(path) -> SweepSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_sweep_spec(handle.read(), path=str(path))


def save_sweep_spec(spec: SweepSpec, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(sweep_spec_to_text(spec))


# ---------------------------------------------------------------------------
# bundled reference network


def _data_text(name: str) -> str:
    return (resources.files("trustconnect") / "data" / name).read_text(encoding="utf-8")


def reference_fixture() -> tuple[DependencyGraph, ScenarioSpec]:
    """The frozen 20-node network and its bundled attack scenario."""
    graph = graph_from_text(_data_text("reference_graph.txt"), path="reference_graph.txt")
    scenario = scenario_from_text(
        _data_text("reference_scenario.txt"), path="reference_scenario.txt"
    )
    return graph, scenario


def reference_sweep_spec(graph_file: str = "reference_graph.txt") -> SweepSpec:
    """Sweep spec mirroring the bundled scenario, for a saved graph file."""
    _, scenario = reference_fixture()
    truth_values = set(scenario.ground_truth.values())
    if len(truth_values) == 1:
        constant, overrides = truth_values.pop(), ()
    else:
        constant, overrides = 0.0, tuple(sorted(scenario.ground_truth.items()))
    return SweepSpec(
        graph_file=graph_file,
        truth_constant=constant,
        truth_overrides=overrides,
        noise_sigma=scenario.noise_sigma,
        attack=scenario.attack,
        scenario_seed=scenario.seed,
    )


# ---------------------------------------------------------------------------
# gap ordering check


@dataclass(frozen=True)
class CellCheck:
    k: float
    alpha: float
    bound_ok: bool
    ordering_ok: bool
    ordering_vacuous: bool
    resilient_gaps: dict[int, float] = field(compare=False)
    exposed_gaps: dict[int, float] = field(compare=False)

    @property
    def passed(self) -> bool:
        return self.bound_ok and (self.ordering_ok or self.ordering_vacuous)


@dataclass(frozen=True)
class GapSummary:
    cells: tuple[CellCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(cell.passed for cell in self.cells)

    def cell(self, k: float, alpha: float) -> CellCheck:
        for c in self.cells:
            if (c.k, c.alpha) == (k, alpha):
                return c
        raise ValueError(f"no cell for k={k}, alpha={alpha}")


def relative_gap(entry) -> float:
    """|eatv - btv| normalized by btv (floored to dodge zero division)."""
    return abs(entry.eatv - entry.btv) / max(entry.btv, 1e-12)


def check_gap_ordering(
    result: SweepResult,
    resilient: tuple[int, ...] = REFERENCE_RESILIENT,
    exposed: tuple[int, ...] = REFERENCE_EXPOSED,
) -> GapSummary:
    """Per-cell verdicts on the resilient-vs-exposed gap story.

    Per cell: (bound) every node's |eatv - btv| stays within
    (1 - epsilon) * |btv - trust| + 1e-12; (ordering) each resilient
    node's relative gap is strictly below each exposed node's, judged
    only on pairs where at least one side's trust actually moved.
    Cells where no pair carries signal report the ordering as vacuous.
    """
    node_ids = set(result.graph.node_ids)
    unknown = [i for i in (*resilient, *exposed) if i not in node_ids]
    if unknown:
        raise ValueError(f"nodes not in the swept graph: {unknown}")
    cells = []
    for k, alpha in result.cells():
        report = result.report(k, alpha)
        bound_ok = all(
            abs(e.eatv - e.btv) <= (1.0 - e.epsilon) * abs(e.btv - e.trust) + 1e-12
            for e in report.entries
        )
        moved = {i: abs(report.entry(i).btv - report.entry(i).trust) > 0
                 for i in (*resilient, *exposed)}
        ordering_ok = True
        checked_any = False
        for r in resilient:
            for e in exposed:
                if not (moved[r] or moved[e]):
                    continue
                checked_any = True
                if not relative_gap(report.entry(r)) < relative_gap(report.entry(e)):
                    ordering_ok = False
        cells.append(
            CellCheck(
                k=k,
                alpha=alpha,
                bound_ok=bound_ok,
                ordering_ok=ordering_ok if checked_any else False,
                ordering_vacuous=not checked_any,
                resilient_gaps={i: relative_gap(report.entry(i)) for i in resilient},
                exposed_gaps={i: relative_gap(report.entry(i)) for i in exposed},
            )
        )
    return GapSummary(cells=tuple(cells))


# ---------------------------------------------------------------------------
# figure data emission


def _cell_stem(k: float, alpha: float) -> str:
    return f"sweep_k{k:g}_a{alpha:g}"


def emit_figure_data(result: SweepResult, out_dir) -> list[Path]:
    """Write per-cell CSV + grouped-bar SVG plus a manifest; returns paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    manifest_lines = [
        MANIFEST_HEADER,
        f"graph_sha256 {result.graph_sha256}",
        f"mode {result.mode}",
    ]
    labels = [node.label for node in result.graph.nodes]
    for k, alpha in result.cells():
        report = result.report(k, alpha)
        stem = _cell_stem(k, alpha)
        csv_path = out_dir / f"{stem}.csv"
        svg_path = out_dir / f"{stem}.svg"
        csv_path.write_text(report.to_csv(), encoding="utf-8", newline="\n")
        series = [
            ("btv", [e.btv for e in report.entries]),
            ("trust", [e.trust for e in report.entries]),
            ("eatv", [e.eatv for e in report.entries]),
        ]
        svg_path.write_text(
            grouped_bar_svg(f"k={k:g} alpha={alpha:g}", labels, series),
            encoding="utf-8", newline="\n",
        )
        written.extend([csv_path, svg_path])
        manifest_lines.append(
            f"cell k={k:g} alpha={alpha:g} csv={csv_path.name} svg={svg_path.name}"
        )
    manifest_path = out_dir / "manifest.txt"
    manifest_path.write_text(
        "\n".join(manifest_lines) + "\n", encoding="utf-8", newline="\n"
    )
    written.append(manifest_path)
    return written
