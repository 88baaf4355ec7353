"""Detector tests: evidence sums, thresholds, ranking, serialization."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from trustconnect.detector import (
    DETECTION_CSV_HEADER,
    DETECTION_HEADER,
    DetectionEntry,
    DetectionReport,
    DetectorParams,
    detect,
)
from trustconnect.errors import GraphInvariantError, SnapshotMismatchError
from trustconnect.experiment import reference_fixture
from trustconnect.graph import DependencyGraph, EcuNode, generate_random
from trustconnect.snapshot import (
    AttackSpec,
    ScenarioSpec,
    Snapshot,
    constant_ground_truth,
    synthesize_snapshot,
)
from trustconnect.trust import TrustParams, full_report

PARAMS = TrustParams(k=1.0, alpha=0.1)


def build(nodes, edges):
    return DependencyGraph(
        nodes=tuple(EcuNode(id=i, label=f"E{i}", epsilon=e) for i, e in nodes),
        edges=tuple(edges),
    )


class TestDetectorParams:
    def test_defaults(self):
        params = DetectorParams()
        assert params.weight_threshold == 0.5
        assert params.evidence_threshold == 1.0

    @pytest.mark.parametrize("wt", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_bad_weight_threshold(self, wt):
        with pytest.raises(ValueError):
            DetectorParams(weight_threshold=wt)

    def test_rejects_negative_evidence_threshold(self):
        with pytest.raises(ValueError):
            DetectorParams(evidence_threshold=-0.1)

    @pytest.mark.parametrize("field", ["weight_threshold", "evidence_threshold"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_thresholds_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            DetectorParams(**{field: value})


class TestFailsClosed:
    def test_nan_reading_cannot_evade_detection(self):
        # A NaN observed value made every weight of node 0 NaN, and
        # ``nan < threshold`` is False, so the node was never flagged.
        graph = build([(0, 0.9), (1, 0.9), (2, 0.9)], [(0, 1), (0, 2), (1, 0)])
        snapshot = Snapshot(
            observed={0: math.nan, 1: 1.0, 2: 1.0},
            inferred={(0, 1): 1.0, (0, 2): 1.0, (1, 0): 1.0},
        )
        with pytest.raises(SnapshotMismatchError, match="node 0"):
            detect(graph, snapshot, PARAMS)
        with pytest.raises(SnapshotMismatchError, match="node 0"):
            full_report(graph, snapshot, PARAMS)

    def test_unknown_neighbor_is_a_graph_invariant_error(self):
        graph = build([(0, 0.5)], [(0, 7)])
        snapshot = Snapshot(observed={0: 1.0}, inferred={(0, 7): 1.0})
        with pytest.raises(GraphInvariantError, match="unknown node 7"):
            detect(graph, snapshot, PARAMS)


class TestEvidence:
    def test_clean_snapshot_yields_no_evidence(self):
        graph = generate_random(n=15, edge_probability=0.25, seed=4)
        snapshot = synthesize_snapshot(
            graph, ScenarioSpec(ground_truth=constant_ground_truth(graph, 7.0))
        )
        report = detect(graph, snapshot, PARAMS)
        assert all(e.evidence == 0.0 for e in report.entries)
        assert report.flagged_ids() == ()
        assert report.ranking == graph.node_ids

    def test_two_resilient_contradictors_sum_to_1_6(self):
        # Self-injection with delta 5 at k=1 pushes both out-edge
        # weights to e^-5, far below 0.5, so evidence = 0.9 + 0.7.
        graph = build([(0, 0.5), (1, 0.9), (2, 0.7)], [(0, 1), (0, 2)])
        scenario = ScenarioSpec(
            ground_truth={0: 1.0, 1: 1.0, 2: 1.0},
            attack=AttackSpec(compromised=frozenset({0}), mode="self-injection", delta=5.0),
        )
        report = detect(graph, synthesize_snapshot(graph, scenario), PARAMS)
        entry = {e.id: e for e in report.entries}[0]
        assert entry.evidence == pytest.approx(1.6, abs=1e-12)
        assert entry.flagged
        assert entry.contradicting_neighbors == (1, 2)
        assert report.ranking[0] == 0

    def test_fully_vulnerable_contradictors_carry_no_weight(self):
        graph = build([(0, 0.5), (1, 0.0), (2, 0.0)], [(0, 1), (0, 2)])
        scenario = ScenarioSpec(
            ground_truth={0: 1.0, 1: 1.0, 2: 1.0},
            attack=AttackSpec(compromised=frozenset({0}), mode="self-injection", delta=5.0),
        )
        report = detect(graph, synthesize_snapshot(graph, scenario), PARAMS)
        entry = {e.id: e for e in report.entries}[0]
        assert entry.evidence == 0.0
        assert not entry.flagged
        assert entry.contradicting_neighbors == (1, 2)

    def test_weight_equal_to_threshold_is_not_a_contradiction(self):
        graph = build([(0, 0.5), (1, 0.9)], [(0, 1)])
        d = 0.5  # power of two, so the deviation reconstructs exactly
        w = math.exp(-1.0 * d)
        snapshot = Snapshot(observed={0: 2.0, 1: 2.0}, inferred={(0, 1): 2.0 + d})
        at = detect(graph, snapshot, PARAMS, DetectorParams(weight_threshold=w))
        assert {e.id: e for e in at.entries}[0].evidence == 0.0
        above = detect(
            graph, snapshot, PARAMS,
            DetectorParams(weight_threshold=math.nextafter(w, 1.0)),
        )
        assert {e.id: e for e in above.entries}[0].evidence == 0.9

    @pytest.mark.parametrize("seed", range(6))
    def test_evidence_bounded_by_neighbor_epsilon_sum(self, seed):
        graph = generate_random(n=12, edge_probability=0.3, seed=seed)
        scenario = ScenarioSpec(
            ground_truth=constant_ground_truth(graph, 3.0),
            noise_sigma=2.0,
            seed=seed,
        )
        report = detect(graph, synthesize_snapshot(graph, scenario), PARAMS)
        epsilons = {n.id: n.epsilon for n in graph.nodes}
        adjacency = {n.id: [j for i, j in graph.edges if i == n.id] for n in graph.nodes}
        for e in report.entries:
            cap = sum(epsilons[j] for j in adjacency[e.id])
            assert 0.0 <= e.evidence <= cap + 1e-12
            assert e.flagged == (e.evidence >= 1.0)

    def test_sink_node_never_flagged_at_positive_threshold(self):
        graph = build([(0, 0.9), (1, 0.9)], [(1, 0)])
        snapshot = Snapshot(observed={0: 0.0, 1: 0.0}, inferred={(1, 0): 50.0})
        report = detect(graph, snapshot, PARAMS)
        assert not {e.id: e for e in report.entries}[0].flagged


class TestRanking:
    def test_ties_break_by_ascending_id(self):
        # Corrupting node 3's inferences puts identical evidence 0.8 on
        # both of its in-neighbors.
        graph = build(
            [(0, 0.5), (1, 0.5), (2, 0.1), (3, 0.8)],
            [(0, 3), (1, 3), (2, 0)],
        )
        scenario = ScenarioSpec(
            ground_truth={0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0},
            attack=AttackSpec(
                compromised=frozenset({3}), mode="inference-corruption", delta=5.0
            ),
        )
        report = detect(graph, synthesize_snapshot(graph, scenario), PARAMS)
        by_id = {e.id: e for e in report.entries}
        assert by_id[0].evidence == by_id[1].evidence == 0.8
        assert report.ranking == (0, 1, 2, 3)

    def test_self_injected_node_ranks_first(self):
        graph = generate_random(n=20, edge_probability=0.25, seed=21)
        adjacency = {n.id: [j for i, j in graph.edges if i == n.id] for n in graph.nodes}
        epsilons = {n.id: n.epsilon for n in graph.nodes}
        target = max(
            adjacency,
            key=lambda i: sum(epsilons[j] for j in adjacency[i]),
        )
        scenario = ScenarioSpec(
            ground_truth=constant_ground_truth(graph, 5.0),
            attack=AttackSpec(
                compromised=frozenset({target}), mode="self-injection", delta=6.0
            ),
        )
        report = detect(graph, synthesize_snapshot(graph, scenario), PARAMS)
        assert report.ranking[0] == target
        assert {e.id: e for e in report.entries}[target].flagged


class TestSerialization:
    def make_report(self):
        graph = build([(0, 0.5), (1, 0.9), (2, 0.7)], [(0, 1), (0, 2), (1, 2)])
        scenario = ScenarioSpec(
            ground_truth={0: 1.0, 1: 1.0, 2: 1.0},
            attack=AttackSpec(compromised=frozenset({0}), mode="self-injection", delta=5.0),
        )
        return detect(graph, synthesize_snapshot(graph, scenario), PARAMS)

    def test_text_lists_ranking_order(self):
        report = self.make_report()
        lines = report.to_text().splitlines()
        assert lines[0] == DETECTION_HEADER
        assert lines[1].startswith("ecu 0 E0 evidence=")
        assert "FLAGGED" in lines[1]
        assert "contradicted_by=1,2" in lines[1]
        assert lines[-1].startswith("params weight_threshold=")

    def test_csv_shape(self):
        report = self.make_report()
        lines = report.to_csv().splitlines()
        assert lines[0] == DETECTION_CSV_HEADER
        assert lines[1] == "0,1.6,true"
        assert len(lines) == 4

    def test_json_shape(self):
        report = self.make_report()
        doc = json.loads(report.to_json())
        assert doc["ranking"][0] == 0
        assert doc["ecus"][0]["contradicting_neighbors"] == [1, 2]
        assert doc["params"]["weight_threshold"] == 0.5

    def test_json_refuses_nan_evidence(self):
        entry = DetectionEntry(
            id=0, label="E0", evidence=math.nan, flagged=False, contradicting_neighbors=()
        )
        report = DetectionReport(entries=(entry,), ranking=(0,), params=DetectorParams())
        with pytest.raises(ValueError):
            report.to_json()

    def test_deterministic(self):
        a, b = self.make_report(), self.make_report()
        assert a.to_text() == b.to_text()
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()


_graphs = st.builds(
    generate_random,
    n=st.integers(2, 12),
    edge_probability=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**16),
)


def _attacked(graph, truth, nodes, mode, delta):
    """The noise-free snapshot of a constant truth under one attack."""
    attack = AttackSpec(compromised=frozenset(nodes), mode=mode, delta=delta)
    scenario = ScenarioSpec(ground_truth=constant_ground_truth(graph, truth), attack=attack)
    return synthesize_snapshot(graph, scenario)


class TestClosedFormOracles:
    """With no noise and a constant truth, an edge's deviation is the attack
    delta or 0, so it contradicts exactly when delta > ln(1/w)/k. The margin
    of 1e-3 around that threshold absorbs ``(c + delta) - c != delta``."""

    @settings(max_examples=60)
    @given(graph=_graphs, data=st.data(), k=st.floats(0.1, 5.0), w=st.floats(0.05, 0.95),
           truth=st.floats(-100.0, 100.0), factor=st.floats(1.001, 20.0))
    def test_self_injection_above_threshold_contradicts_every_out_neighbor(
        self, graph, data, k, w, truth, factor
    ):
        node = data.draw(st.sampled_from(graph.node_ids), label="node")
        snapshot = _attacked(graph, truth, {node}, "self-injection", factor * math.log(1 / w) / k)
        report = detect(graph, snapshot, TrustParams(k=k, alpha=0.1),
                        DetectorParams(weight_threshold=w))
        out = tuple(j for i, j in graph.edges if i == node)
        epsilon = {n.id: n.epsilon for n in graph.nodes}
        evidence = 0.0
        for j in out:  # left to right in edge order, as the detector adds
            evidence += epsilon[j]
        by_id = {e.id: e for e in report.entries}
        assert by_id[node].contradicting_neighbors == out
        assert by_id[node].evidence == evidence
        for entry in report.entries:
            if entry.id != node:
                assert entry.evidence == 0.0 and entry.contradicting_neighbors == ()

    @settings(max_examples=60)
    @given(graph=_graphs, data=st.data(), k=st.floats(0.1, 5.0), w=st.floats(0.05, 0.95),
           truth=st.floats(-100.0, 100.0), factor=st.floats(0.0, 0.999))
    def test_self_injection_below_threshold_contradicts_nothing(
        self, graph, data, k, w, truth, factor
    ):
        node = data.draw(st.sampled_from(graph.node_ids), label="node")
        snapshot = _attacked(graph, truth, {node}, "self-injection", factor * math.log(1 / w) / k)
        report = detect(graph, snapshot, TrustParams(k=k, alpha=0.1),
                        DetectorParams(weight_threshold=w))
        assert all(e.contradicting_neighbors == () for e in report.entries)
        assert report.flagged_ids() == ()

    @pytest.mark.parametrize("delta, flagged", [(0.69, False), (0.70, True)])
    def test_reference_node_2_flags_between_0_69_and_0_70(self, delta, flagged):
        # k = 1, w = 0.5: the threshold deviation is ln 2 = 0.693
        graph, scenario = reference_fixture()
        truth = scenario.ground_truth[2]
        report = detect(graph, _attacked(graph, truth, {2}, "self-injection", delta), PARAMS)
        entry = {e.id: e for e in report.entries}[2]
        assert entry.flagged == flagged
        if flagged:
            assert entry.contradicting_neighbors == tuple(j for i, j in graph.edges if i == 2)
            assert entry.evidence == pytest.approx(3.53, abs=1e-12)
        else:
            assert entry.evidence == 0.0 and entry.contradicting_neighbors == ()

    @settings(max_examples=60)
    @given(graph=_graphs, data=st.data(), k=st.floats(0.1, 5.0), w=st.floats(0.05, 0.95),
           truth=st.floats(-100.0, 100.0), delta=st.floats(0.0, 50.0))
    def test_inference_corruption_is_only_ever_blamed_on_the_corrupting_set(
        self, graph, data, k, w, truth, delta
    ):
        corrupt = data.draw(st.sets(st.sampled_from(graph.node_ids), min_size=1), label="S")
        snapshot = _attacked(graph, truth, corrupt, "inference-corruption", delta)
        report = detect(graph, snapshot, TrustParams(k=k, alpha=0.1),
                        DetectorParams(weight_threshold=w))
        for entry in report.entries:
            assert set(entry.contradicting_neighbors) <= corrupt
