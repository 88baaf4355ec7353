"""Tests of the benchmark itself: input builder, output checks, tracer, workload list.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import monitor  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import trustconnect  # noqa: E402
from trustconnect import cli, graph as graph_module, snapshot as snapshot_module  # noqa: E402


def _files(seed):
    topology = inputs.build_topology(300, 6, seed)
    reading = inputs.build_reading(topology, seed, 0.02)
    return (
        inputs.graph_text(topology),
        inputs.snapshot_text(topology, reading),
        inputs.sweep_text("graph.txt", topology.n, seed, 0.02),
    )


def test_builder_is_deterministic_per_seed():
    assert _files(7) == _files(7)
    assert all(a != b for a, b in zip(_files(7), _files(8)))


def test_builder_writes_valid_v1_files():
    graph_text, snapshot_text, sweep_text = _files(3)
    graph = graph_module.from_text(graph_text)
    snapshot = snapshot_module.from_text(snapshot_text)
    assert len(graph.nodes) == 300 and len(graph.edges) == 300 * 6
    assert graph_module.to_text(graph) == graph_text
    assert snapshot_module.to_text(snapshot) == snapshot_text
    assert snapshot_module.validate_snapshot(graph, snapshot) == []
    spec = trustconnect.experiment.parse_sweep_spec(sweep_text)
    assert spec.attack.mode == "both" and len(spec.attack.compromised) == 6
    assert (spec.k_values, spec.alpha_values) == (inputs.K_VALUES, inputs.ALPHA_VALUES)


def _eval_json(tmp_path):
    graph_text, snapshot_text, _ = _files(5)
    (tmp_path / "g.txt").write_text(graph_text)
    (tmp_path / "s.txt").write_text(snapshot_text)
    out = tmp_path / "r.json"
    code = cli.main(["eval", "--graph", str(tmp_path / "g.txt"), "--snapshot",
                     str(tmp_path / "s.txt"), "--format", "json", "--out", str(out)])
    assert code == 0
    return out.read_bytes()


def test_corrupted_eval_byte_fails_the_op(tmp_path):
    data = _eval_json(tmp_path)
    check = checks.OutputCheck(None)
    assert check.op(0, checks.sha256_hex(data), checks.eval_output_ok(data))
    position = data.index(b'"trust": ') + len(b'"trust": ')
    corrupted = data[:position] + bytes([data[position] ^ 1]) + data[position + 1:]
    assert not check.op(0, checks.sha256_hex(corrupted), checks.eval_output_ok(corrupted))
    assert (check.attempted, check.failed) == (2, 1)


def test_wrong_run_digest_fails_every_op(tmp_path):
    data = _eval_json(tmp_path)
    check = checks.OutputCheck(expected="0" * 64)
    check.op(0, checks.sha256_hex(data), checks.eval_output_ok(data))
    check.finish()
    assert check.failed == check.attempted == 1


def test_unkeyed_ops_are_checked_for_validity_only():
    check = checks.OutputCheck(None)
    check.op(0, "a" * 64, True)
    digest = check.run_digest()
    assert check.op(None, "b" * 64, True)
    assert not check.op(None, "c" * 64, False)
    assert not check.op(None, None, True)
    assert check.run_digest() == digest
    assert (check.attempted, check.failed) == (4, 2)


def test_corrupted_sweep_byte_fails_the_op(tmp_path):
    graph_text, _, sweep_text = _files(9)
    (tmp_path / "graph.txt").write_text(graph_text)
    spec = trustconnect.experiment.parse_sweep_spec(sweep_text, path=str(tmp_path / "spec"))
    figures = tmp_path / "figures"
    trustconnect.emit_figure_data(trustconnect.run_sweep(spec), figures)
    cells = len(inputs.K_VALUES) * len(inputs.ALPHA_VALUES)
    digest, sound = checks.sweep_digest(figures, cells)
    assert sound
    svg = sorted(figures.glob("*.svg"))[3]
    data = svg.read_bytes()
    svg.write_bytes(data[:100] + bytes([data[100] ^ 1]) + data[101:])
    check = checks.OutputCheck(None)
    assert check.op(0, digest, sound)
    assert not check.op(0, *checks.sweep_digest(figures, cells))


def test_fixed_point_iterations_on_default_monitor_seed():
    topology = inputs.build_topology(monitor.NODES, monitor.DEGREE, monitor.VEHICLE_SEED)
    graph = graph_module.from_text(inputs.graph_text(topology))
    snapshot = monitor.snapshot_for(topology, run.DEFAULT_SEED, 0)
    assert monitor.least_converging_iterations(graph, snapshot) == 34


def test_tracer_spans_public_calls_and_restores_them(tmp_path):
    originals = (cli.load_graph, cli.full_report, trustconnect.TrustReport.to_json)
    tracer = spans.Tracer()
    tracer.op = 0
    with tracer.installed():
        _eval_json(tmp_path)
    assert (cli.load_graph, cli.full_report, trustconnect.TrustReport.to_json) == originals
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    for name in ("graph.load_s", "snapshot.load_s", "snapshot.deviations_s",
                 "trust.full_report_s", "trust.trust_scores_s",
                 "trust.baseline_trust_s", "trust.serialize_s"):
        assert metrics[name] > 0, name
    assert (metrics["graph.nodes"], metrics["graph.edges"]) == (300, 1800)
    # deviations runs once in full_report; the probe's call is not counted
    assert sum(1 for s in tracer.spans
               if s["name"] == "snapshot.deviations_s" and not s["probe"]) == 1


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    expected = json.loads(checks.EXPECTED_FILE.read_text())
    assert expected["seed"] == run.DEFAULT_SEED
    assert sorted(expected["sha256"]) == sorted(run.WORKLOADS)
