"""Command-line front end: generate, eval, sweep, detect, fixture.

Exit codes: 0 success, 1 I/O failure, 2 usage or validation error,
3 when --fail-on-flag is set and the detector flagged at least one ECU.

Every command is byte-deterministic on stdout and all produced files
for identical flags and inputs. The seed for anything randomized comes
from --seed, falling back to the TRUSTCONNECT_SEED environment
variable, then to 0.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from .detector import DetectorParams, detect
from .errors import SnapshotMismatchError, TrustConnectError, write_text
from .experiment import (
    emit_figure_data,
    load_sweep_spec,
    reference_fixture,
    reference_sweep_spec,
    run_sweep,
    save_sweep_spec,
)
from .graph import generate_random, load_graph, parse_epsilon_dist, save_graph
from .snapshot import (
    ATTACK_MODES,
    AttackSpec,
    ScenarioSpec,
    constant_ground_truth,
    load_scenario,
    load_snapshot,
    parse_ids,
    save_scenario,
    synthesize_snapshot,
)
from .trust import MODES, TrustParams, full_report

# the inline scenario flags, by dest: each one's add_argument keywords
_SCENARIO_FLAGS = {
    "truth_constant": dict(type=float, metavar="V",
                           help="constant ground truth for every node (default 0.0)"),
    "noise_sigma": dict(type=float, metavar="S", help="gaussian inference noise (default 0.0)"),
    "attack_nodes": dict(type=parse_ids, metavar="IDS",
                         help="comma-separated compromised node ids"),
    "attack_mode": dict(choices=ATTACK_MODES, help="attack mode (default self-injection)"),
    "delta": dict(type=float, metavar="D", help="attack offset (default 1.0)"),
    "scenario_seed": dict(type=int, metavar="N", help="noise stream seed"),
}


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("TRUSTCONNECT_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"TRUSTCONNECT_SEED must be an integer, got {env!r}")


def _build_scenario(args, graph, inline: list[str]) -> ScenarioSpec:
    """Resolve the snapshot scenario from a file, inline flags, or both.

    The flags named in ``inline`` win over the scenario file field by field;
    overriding prints a warning to stderr naming the flags that took precedence.
    """
    if args.scenario_file is not None:
        scenario = load_scenario(args.scenario_file)
        if inline:
            flags = ", ".join("--" + name.replace("_", "-") for name in inline)
            print(
                f"warning: inline scenario flags override {args.scenario_file}: {flags}",
                file=sys.stderr,
            )
    else:
        scenario = ScenarioSpec(
            ground_truth=constant_ground_truth(graph, 0.0), seed=_resolve_seed(args)
        )

    attack = scenario.attack
    if args.attack_nodes is not None:
        attack = AttackSpec(compromised=args.attack_nodes)
    if args.attack_mode is not None or args.delta is not None:
        if attack is None:
            raise ValueError(
                "--attack-mode/--delta need --attack-nodes or a scenario file with an attack"
            )
        attack = replace(
            attack,
            mode=args.attack_mode or attack.mode,
            delta=attack.delta if args.delta is None else args.delta,
        )
    return replace(
        scenario,
        ground_truth=scenario.ground_truth if args.truth_constant is None
        else constant_ground_truth(graph, args.truth_constant),
        noise_sigma=scenario.noise_sigma if args.noise_sigma is None else args.noise_sigma,
        seed=scenario.seed if args.scenario_seed is None else args.scenario_seed,
        attack=attack,
    )


def _load_inputs(args):
    """The graph and snapshot that eval and detect read: (graph, snapshot)."""
    graph = load_graph(args.graph)
    inline = [name for name in _SCENARIO_FLAGS if getattr(args, name) is not None]
    if args.snapshot is not None and (args.scenario_file is not None or inline):
        raise ValueError("--snapshot and scenario flags are mutually exclusive")
    scenario = None if args.snapshot is not None else _build_scenario(args, graph, inline)
    source = args.snapshot if scenario is None else args.scenario_file
    try:
        return graph, (load_snapshot(args.snapshot, graph) if scenario is None
                       else synthesize_snapshot(graph, scenario))
    except (ValueError, SnapshotMismatchError) as exc:
        # an id inline flags did not set, or an overflow without inline noise, is the file's
        if (source is None
                or args.attack_nodes is not None and str(exc).startswith("attack")
                or args.noise_sigma is not None and isinstance(exc, SnapshotMismatchError)):
            raise
        raise ValueError(f"{source} does not match {args.graph}: {exc}") from None


def _emit(report, args) -> None:
    text = getattr(report, f"to_{args.format}")()
    if args.out is None:
        sys.stdout.write(text)
    else:
        write_text(args.out, text)


def cmd_generate(args) -> int:
    graph = generate_random(
        n=args.n,
        edge_probability=args.p,
        epsilon_distribution=parse_epsilon_dist(args.epsilon),
        seed=_resolve_seed(args),
    )
    out = Path(args.out) if args.out else Path(args.output_dir) / "graph.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    save_graph(graph, out)
    print(f"wrote {out} ({len(graph.nodes)} nodes, {len(graph.edges)} edges)")
    return 0


def cmd_eval(args) -> int:
    graph, snapshot = _load_inputs(args)
    params = TrustParams(k=args.k, alpha=args.alpha, c0=args.c0, mode=args.mode)
    report = full_report(graph, snapshot, params)
    del graph, snapshot  # freed before the output is built
    svg = None if args.svg is None else report.to_svg()  # a refused chart writes nothing
    _emit(report, args)
    if svg is not None:
        write_text(args.svg, svg)
    return 0


def cmd_sweep(args) -> int:
    spec = load_sweep_spec(args.spec)
    try:
        result = run_sweep(spec)
    except (ValueError, SnapshotMismatchError) as exc:
        # the graph's own errors name it; the rest come from the spec's scenario or grid
        raise ValueError(f"{args.spec}: {exc}") from None
    written = emit_figure_data(result, args.output_dir)
    print(f"wrote {len(written)} files to {args.output_dir}")
    return 0


def cmd_detect(args) -> int:
    graph, snapshot = _load_inputs(args)
    # contradiction evidence reads only the weight decay k
    trust_params = TrustParams(k=args.k, alpha=0.0)
    det_params = DetectorParams(
        weight_threshold=args.weight_threshold,
        evidence_threshold=args.evidence_threshold,
    )
    report = detect(graph, snapshot, trust_params, det_params)
    del graph, snapshot  # freed before the output is built
    _emit(report, args)
    if args.fail_on_flag and report.flagged_ids():
        return 3
    return 0


def cmd_fixture(args) -> int:
    graph, scenario = reference_fixture()
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    graph_path = out_dir / "reference_graph.txt"
    scenario_path = out_dir / "reference_scenario.txt"
    sweep_path = out_dir / "reference_sweep.txt"
    save_graph(graph, graph_path)
    save_scenario(scenario, scenario_path)
    save_sweep_spec(reference_sweep_spec(), sweep_path)
    for path in (graph_path, scenario_path, sweep_path):
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # one parent per shared flag set, so each command takes only those it reads
    seed, output_dir, inputs = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    seed.add_argument(
        "--seed", type=int, default=None,
        help="seed for randomized inputs (fallback: TRUSTCONNECT_SEED, then 0)",
    )
    output_dir.add_argument(
        "--output-dir", default=".", metavar="DIR", help="directory for written files"
    )
    inputs.add_argument(
        "--format", choices=("text", "csv", "json"), default="text",
        help="stdout/report format",
    )
    inputs.add_argument("--graph", required=True, metavar="FILE", help="graph file")
    source = inputs.add_argument_group("snapshot source")
    source.add_argument("--snapshot", metavar="FILE", help="load a snapshot file")
    source.add_argument(
        "--scenario-file", metavar="FILE", help="synthesize from a scenario file"
    )
    for dest, keywords in _SCENARIO_FLAGS.items():
        source.add_argument("--" + dest.replace("_", "-"), **keywords)
    inputs.add_argument("--k", type=float, default=1.0, help="weight decay (default 1.0)")
    inputs.add_argument("--out", metavar="FILE", help="write the report here, not stdout")

    parser = argparse.ArgumentParser(
        prog="trustconnect",
        description="Topology-based trust scoring for ECU dependency networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "generate", parents=[seed, output_dir], help="write a seeded random dependency graph"
    )
    p.add_argument("--n", type=int, default=20, help="node count (default 20)")
    p.add_argument(
        "--p", type=float, default=0.15, help="edge probability (default 0.15)"
    )
    p.add_argument(
        "--epsilon", default="uniform", metavar="DIST",
        help="epsilon distribution: uniform, uniform:LO,HI or constant:V",
    )
    p.add_argument("--out", metavar="FILE", help="output path (default graph.txt)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "eval", parents=[seed, inputs], help="trust report for one graph and snapshot"
    )
    p.add_argument(
        "--alpha", type=float, default=0.1, help="neighbor trust gain (default 0.1)"
    )
    p.add_argument("--c0", type=float, default=1.0, help="trust prior (default 1.0)")
    p.add_argument(
        "--mode", choices=MODES, default="single-pass", help="evaluation mode"
    )
    p.add_argument("--svg", metavar="FILE", help="also render a grouped-bar chart")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "sweep", parents=[output_dir], help="run a (k, alpha) grid from a sweep spec file"
    )
    p.add_argument("spec", help="sweep spec file")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "detect", parents=[seed, inputs], help="rank ECUs by contradiction evidence"
    )
    p.add_argument(
        "--weight-threshold", type=float, default=0.5,
        help="edge weight below this is a contradiction (default 0.5)",
    )
    p.add_argument(
        "--evidence-threshold", type=float, default=1.0,
        help="flag a node at this much evidence (default 1.0)",
    )
    p.add_argument(
        "--fail-on-flag", action="store_true", help="exit 3 if any node is flagged"
    )
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser(
        "fixture", parents=[output_dir],
        help="write the bundled reference graph, scenario, and sweep spec",
    )
    p.set_defaults(func=cmd_fixture)

    return parser


def main(argv=None) -> int:
    # nothing a command builds forms a reference cycle, so the cyclic
    # collector would only rescan the parsed records; off for the run
    gc_enabled = gc.isenabled()
    gc.disable()
    with warnings.catch_warnings():
        # a warning is one line, as an error is; the default filter still shows each once
        warnings.showwarning = lambda message, *_: print(
            f"trustconnect: warning: {message}", file=sys.stderr)
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except (TrustConnectError, ValueError) as exc:
            print(f"trustconnect: error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"trustconnect: i/o error: {exc}", file=sys.stderr)
            return 1
        finally:
            if gc_enabled:
                gc.enable()


if __name__ == "__main__":
    sys.exit(main())
