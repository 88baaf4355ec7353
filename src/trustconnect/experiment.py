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
    graph_random n=<int> p=<float> [seed=<int>] [epsilon=<spec>]
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

import math
import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import (SINGLE, ParseError, finite_float, is_one_field, read_records, read_text,
                     require_finite, require_int, write_text)
from .graph import (
    DependencyGraph,
    EpsilonDistribution,
    UNIFORM_EPSILON,
    check_random_graph,
    from_text as graph_from_text,
    generate_random,
    load_graph,
    parse_epsilon_dist,
    to_text as graph_to_text,
)
from .snapshot import (
    SCENARIO_RECORDS,
    AttackSpec,
    ScenarioSpec,
    Snapshot,
    attack_to_text,
    check_ground_truth,
    check_noise_sigma,
    constant_ground_truth,
    deviations,
    scenario_from_text,
    synthesize_snapshot,
)
from .trust import TrustParams, TrustReport, check_mode, edge_weights, report_from_weights

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

    def __post_init__(self):
        check_random_graph(self.n, self.edge_probability)
        require_int("seed", self.seed)


def _check_grid_axis(name, values) -> tuple[float, ...]:
    """``values`` as a tuple, once it is a nonempty, finite, non-negative, ascending axis."""
    values = tuple(values)
    if not values:
        raise ValueError(f"{name} must be nonempty")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{name} must be finite, got {list(values)}")
    if any(v < 0 for v in values):
        raise ValueError(f"{name} must be >= 0, got {list(values)}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must be strictly ascending, got {list(values)}")
    return values


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
        object.__setattr__(self, "truth_overrides", tuple(self.truth_overrides))
        if (self.graph_file is None) == (self.graph_random is None):
            raise ValueError("exactly one of graph_file and graph_random is required")
        require_finite(self, "truth_constant", "noise_sigma")
        require_int("scenario_seed", self.scenario_seed)
        check_ground_truth(self.truth_overrides)
        check_noise_sigma(self.noise_sigma)
        for axis in ("k_values", "alpha_values"):
            object.__setattr__(self, axis, _check_grid_axis(axis, getattr(self, axis)))
        check_mode(self.mode)


def graph_digest(graph: DependencyGraph) -> str:
    import hashlib  # here, so that only a sweep's cold start loads OpenSSL
    return hashlib.sha256(graph_to_text(graph).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SweepResult:
    graph: DependencyGraph
    snapshot: Snapshot
    k_values: tuple[float, ...]
    alpha_values: tuple[float, ...]
    mode: str
    # keyed (k, alpha), in canonical order: k-major, alpha-minor, ascending
    reports: dict[tuple[float, float], TrustReport]
    graph_sha256: str


def run_sweep_on(
    graph: DependencyGraph,
    scenario: ScenarioSpec,
    k_values=DEFAULT_K_VALUES,
    alpha_values=DEFAULT_ALPHA_VALUES,
    mode: str = "single-pass",
) -> SweepResult:
    """Evaluate every (k, alpha) cell on one shared snapshot."""
    k_values = _check_grid_axis("k_values", k_values)
    alpha_values = _check_grid_axis("alpha_values", alpha_values)
    snapshot = synthesize_snapshot(graph, scenario)
    devs = deviations(graph, snapshot)
    reports = {}
    for k in k_values:
        weights = edge_weights(devs, k)
        for alpha in alpha_values:
            params = TrustParams(k=k, alpha=alpha, mode=mode)
            reports[(k, alpha)] = report_from_weights(graph, weights, params)
    return SweepResult(
        graph=graph,
        snapshot=snapshot,
        k_values=k_values,
        alpha_values=alpha_values,
        mode=mode,
        reports=reports,
        graph_sha256=graph_digest(graph),
    )


def run_sweep(spec: SweepSpec) -> SweepResult:
    if spec.graph_file is not None:
        graph = load_graph(spec.graph_file)
    else:
        g = spec.graph_random
        graph = generate_random(
            n=g.n, edge_probability=g.edge_probability,
            epsilon_distribution=g.epsilon, seed=g.seed,
        )
    truth = constant_ground_truth(graph, spec.truth_constant)
    truth.update(spec.truth_overrides)
    scenario = ScenarioSpec(
        ground_truth=truth,
        noise_sigma=spec.noise_sigma,
        attack=spec.attack,
        seed=spec.scenario_seed,
    )
    return run_sweep_on(
        graph, scenario,
        k_values=spec.k_values, alpha_values=spec.alpha_values, mode=spec.mode,
    )


# ---------------------------------------------------------------------------
# sweep spec files


def sweep_spec_to_text(spec: SweepSpec) -> str:
    lines = [SWEEP_HEADER]
    if spec.graph_file is not None:
        # not a SweepSpec check: a path resolved against a spec's directory may hold a space
        if not is_one_field(spec.graph_file):
            raise ValueError(f"graph_file {spec.graph_file!r} does not read back as one field")
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
        lines.append(attack_to_text(spec.attack))
    lines.append(f"k_values {','.join(map(repr, spec.k_values))}")
    lines.append(f"alpha_values {','.join(map(repr, spec.alpha_values))}")
    lines.append(f"mode {spec.mode}")
    return "\n".join(lines) + "\n"


def _random_graph_spec(fields: list[str]) -> RandomGraphSpec:
    params = dict(part.partition("=")[::2] for part in fields[1:])
    # a repeated key shrinks the dict; n and p are required
    if (len(params) < len(fields) - 1
            or not {"n", "p"} <= params.keys() <= {"n", "p", "seed", "epsilon"}):
        raise ValueError(f"expected: graph_random {SWEEP_RECORDS['graph_random'][0]}")
    return RandomGraphSpec(
        n=int(params["n"]),
        edge_probability=finite_float(params["p"]),
        seed=int(params.get("seed", "0")),
        epsilon=parse_epsilon_dist(params.get("epsilon", "uniform")),
    )


SWEEP_RECORDS = {
    "graph_file": ("<path>", lambda f: f[1], SINGLE),
    "graph_random": ("n=<int> p=<float> [seed=<int>] [epsilon=<spec>]",
                     _random_graph_spec, SINGLE),
    "truth_constant": ("<value>", lambda f: finite_float(f[1]), SINGLE),
    "truth": SCENARIO_RECORDS["truth"],
    "noise_sigma": SCENARIO_RECORDS["noise_sigma"],
    "scenario_seed": SCENARIO_RECORDS["seed"],
    "attack": SCENARIO_RECORDS["attack"],
    # either axis record converts to the checked axis its kind names
    **dict.fromkeys(("k_values", "alpha_values"), (
        "<v,v,...>", lambda f: _check_grid_axis(f[0], map(finite_float, f[1].split(","))),
        SINGLE)),
    "mode": ("<single-pass|fixed-point>", lambda f: check_mode(f[1]), SINGLE),
}


def parse_sweep_spec(text: str, path: str | None = None) -> SweepSpec:
    """Parse a sweep spec, checking each record at its own line.

    Only "exactly one graph source" spans records, so its ParseError
    names the file but no line.
    """
    found = read_records(text, path, SWEEP_HEADER, SWEEP_RECORDS)
    found["truth_overrides"] = tuple(found.pop("truth").items())
    graph_file = found.get("graph_file")
    if path is not None and graph_file is not None and not os.path.isabs(graph_file):
        found["graph_file"] = str(Path(path).parent / graph_file)
    try:
        return SweepSpec(**found)
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from exc


def load_sweep_spec(path) -> SweepSpec:
    return parse_sweep_spec(read_text(path), path=str(path))


def save_sweep_spec(spec: SweepSpec, path) -> None:
    write_text(path, sweep_spec_to_text(spec))


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
    (constant,) = set(scenario.ground_truth.values())
    return SweepSpec(
        graph_file=graph_file,
        truth_constant=constant,
        noise_sigma=scenario.noise_sigma,
        attack=scenario.attack,
        scenario_seed=scenario.seed,
    )


# ---------------------------------------------------------------------------
# gap ordering check


@dataclass(frozen=True)
class CellCheck:
    bound_ok: bool
    ordering_ok: bool
    ordering_vacuous: bool
    resilient_gaps: dict[int, float] = field(compare=False)
    exposed_gaps: dict[int, float] = field(compare=False)

    @property
    def passed(self) -> bool:
        return self.bound_ok and (self.ordering_ok or self.ordering_vacuous)


def relative_gap(entry) -> float:
    """|eatv - btv| normalized by btv (floored to dodge zero division)."""
    return abs(entry.eatv - entry.btv) / max(entry.btv, 1e-12)


def check_gap_ordering(
    result: SweepResult,
    resilient: tuple[int, ...] = REFERENCE_RESILIENT,
    exposed: tuple[int, ...] = REFERENCE_EXPOSED,
) -> dict[tuple[float, float], CellCheck]:
    """Per-cell verdicts on the resilient-vs-exposed gap story.

    Keyed (k, alpha) in the order of ``result.reports``. Per cell:
    (bound) every node's |eatv - btv| stays within
    (1 - epsilon) * |btv - trust| + 1e-12 * max(1, |btv|, |trust|); (ordering)
    each resilient node's relative gap is strictly below each exposed node's,
    judged only on pairs where at least one side's trust actually moved.
    Cells where no pair carries signal report the ordering as vacuous.
    """
    node_ids = set(result.graph.node_ids)
    unknown = [i for i in (*resilient, *exposed) if i not in node_ids]
    if unknown:
        raise ValueError(f"nodes not in the swept graph: {unknown}")
    checks = {}
    for cell, report in result.reports.items():
        by_id = {e.id: e for e in report.entries}
        gaps = {i: relative_gap(by_id[i]) for i in (*resilient, *exposed)}
        moved = {i: abs(by_id[i].btv - by_id[i].trust) > 0 for i in gaps}
        pairs = [(r, e) for r in resilient for e in exposed if moved[r] or moved[e]]
        checks[cell] = CellCheck(
            bound_ok=all(
                abs(e.eatv - e.btv) <= (1.0 - e.epsilon) * abs(e.btv - e.trust)
                + 1e-12 * max(1.0, abs(e.btv), abs(e.trust))
                for e in report.entries
            ),
            ordering_ok=bool(pairs) and all(gaps[r] < gaps[e] for r, e in pairs),
            ordering_vacuous=not pairs,
            resilient_gaps={i: gaps[i] for i in resilient},
            exposed_gaps={i: gaps[i] for i in exposed},
        )
    return checks


# ---------------------------------------------------------------------------
# figure data emission


def emit_figure_data(result: SweepResult, out_dir) -> list[Path]:
    """Write per-cell CSV + grouped-bar SVG plus a manifest; returns paths.

    Raises ValueError, before writing anything, when two cells would
    write the same files (grid values alike in ``%g`` form).
    """
    cells = {}
    for k, alpha in result.reports:
        stem = f"sweep_k{k:g}_a{alpha:g}"
        other = cells.setdefault(stem, (k, alpha))
        if other != (k, alpha):
            raise ValueError(
                f"cells k={other[0]!r} alpha={other[1]!r} and k={k!r} alpha={alpha!r} "
                f"would both write {stem}.csv and {stem}.svg"
            )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    manifest_lines = [
        MANIFEST_HEADER,
        f"graph_sha256 {result.graph_sha256}",
        f"mode {result.mode}",
    ]
    for stem, (k, alpha) in cells.items():
        report = result.reports[(k, alpha)]
        csv_path = out_dir / f"{stem}.csv"
        svg_path = out_dir / f"{stem}.svg"
        write_text(csv_path, report.to_csv())
        write_text(svg_path, report.to_svg())
        written.extend([csv_path, svg_path])
        manifest_lines.append(
            f"cell k={k:g} alpha={alpha:g} csv={csv_path.name} svg={svg_path.name}"
        )
    manifest_path = out_dir / "manifest.txt"
    write_text(manifest_path, "\n".join(manifest_lines) + "\n")
    written.append(manifest_path)
    return written
