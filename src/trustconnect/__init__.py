"""Topology-based trust scoring and anomaly detection for ECU networks.

The package models an in-vehicle network as a directed dependency graph,
turns observed-versus-inferred value deviations into per-ECU trust
scores, adjusts them for each ECU's resilience to remote injection, and
flags nodes whose neighborhood evidence crosses a contradiction
threshold. The experiment module sweeps the (k, alpha) parameter grid
and emits CSV/SVG figure data; the cli module wires everything into the
``trustconnect`` command.
"""

from types import ModuleType as _ModuleType

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

# every name imported above, less the submodules those imports bind
__all__ = [name for name, value in list(globals().items())
           if not (name.startswith("_") or isinstance(value, _ModuleType))] + ["__version__"]
