"""Topology-based trust scoring and anomaly detection for ECU networks.

The package models an in-vehicle network as a directed dependency graph,
turns observed-versus-inferred value deviations into per-ECU trust
scores, adjusts them for each ECU's resilience to remote injection, and
flags nodes whose neighborhood evidence crosses a contradiction
threshold. The experiment module sweeps the (k, alpha) parameter grid
and emits CSV/SVG figure data; the cli module wires everything into the
``trustconnect`` command.
"""

from .detector import DetectionEntry, DetectionReport, DetectorParams, detect
from .errors import (
    GraphInvariantError,
    ParseError,
    SnapshotMismatchError,
    TrustConnectError,
)
from .experiment import (
    CellCheck,
    RandomGraphSpec,
    SweepResult,
    SweepSpec,
    check_gap_ordering,
    emit_figure_data,
    load_sweep_spec,
    reference_fixture,
    reference_sweep_spec,
    relative_gap,
    run_sweep,
    run_sweep_on,
    save_sweep_spec,
)
from .graph import (
    DependencyGraph,
    EcuNode,
    EpsilonDistribution,
    generate_random,
    load_graph,
    parse_epsilon_dist,
    save_graph,
    validate,
)
from .snapshot import (
    AttackSpec,
    ScenarioSpec,
    Snapshot,
    constant_ground_truth,
    deviations,
    load_scenario,
    load_snapshot,
    save_scenario,
    save_snapshot,
    synthesize_snapshot,
    validate_snapshot,
)
from .svgchart import grouped_bar_svg
from .trust import (
    NonConvergenceWarning,
    TrustEntry,
    TrustParams,
    TrustReport,
    adjusted_trust,
    baseline_trust,
    full_report,
    trust_scores,
)

__version__ = "0.1.0"

__all__ = [
    "AttackSpec",
    "CellCheck",
    "DependencyGraph",
    "DetectionEntry",
    "DetectionReport",
    "DetectorParams",
    "EcuNode",
    "EpsilonDistribution",
    "GraphInvariantError",
    "NonConvergenceWarning",
    "ParseError",
    "RandomGraphSpec",
    "ScenarioSpec",
    "Snapshot",
    "SnapshotMismatchError",
    "SweepResult",
    "SweepSpec",
    "TrustConnectError",
    "TrustEntry",
    "TrustParams",
    "TrustReport",
    "adjusted_trust",
    "baseline_trust",
    "check_gap_ordering",
    "constant_ground_truth",
    "detect",
    "deviations",
    "emit_figure_data",
    "full_report",
    "generate_random",
    "grouped_bar_svg",
    "load_graph",
    "load_scenario",
    "load_snapshot",
    "load_sweep_spec",
    "parse_epsilon_dist",
    "reference_fixture",
    "reference_sweep_spec",
    "relative_gap",
    "run_sweep",
    "run_sweep_on",
    "save_graph",
    "save_scenario",
    "save_snapshot",
    "save_sweep_spec",
    "synthesize_snapshot",
    "trust_scores",
    "validate",
    "validate_snapshot",
    "__version__",
]
