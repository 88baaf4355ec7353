"""Trust scoring tests: weights, hand-worked scores, oracles, reports."""

import copy
import json
import gc
import math
import operator
import pickle
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import trustconnect.trust as trust_module
from trustconnect.detector import DetectionEntry, DetectionReport, DetectorParams, detect
from trustconnect.errors import SnapshotMismatchError
from trustconnect.experiment import reference_fixture
from trustconnect.graph import DependencyGraph, EcuNode, generate_random
from trustconnect.snapshot import (
    AttackSpec,
    ScenarioSpec,
    Snapshot,
    constant_ground_truth,
    deviations,
    synthesize_snapshot,
)
from trustconnect.trust import (
    CSV_HEADER,
    MODES,
    REPORT_HEADER,
    NonConvergenceWarning,
    TrustEntry,
    TrustParams,
    TrustReport,
    adjusted_trust,
    baseline_trust,
    edge_weights,
    full_report,
    report_from_weights,
    trust_scores,
)


def build(nodes, edges):
    return DependencyGraph(
        nodes=tuple(EcuNode(id=i, label=f"E{i}", epsilon=e) for i, e in nodes),
        edges=tuple(edges),
    )


def exact_snapshot(graph, truth):
    """Snapshot where every inference matches the producer's truth."""
    return Snapshot(
        observed=dict(truth),
        inferred={(i, j): truth[i] for i, j in graph.edges},
    )


class TestEdgeWeight:
    def test_zero_deviation_is_exactly_one(self):
        assert edge_weights([0.0], 2.0) == [1.0]

    def test_zero_k_ignores_deviation(self):
        assert edge_weights([123.4], 0.0) == [1.0]

    def test_known_value(self):
        # k * d = 1 in both cases
        assert edge_weights([2.0], 0.5) == [0.36787944117144233]
        assert edge_weights([1.0], 1.0) == [0.36787944117144233]

    def test_monotone_in_deviation(self):
        weights = edge_weights([0.0, 0.5, 1.0, 2.0, 4.0], 1.0)
        assert weights == sorted(weights, reverse=True)

    def test_monotone_in_k(self):
        weights = [edge_weights([1.5], k)[0] for k in (0.0, 0.1, 0.5, 1.0, 2.0)]
        assert weights == sorted(weights, reverse=True)

    @given(
        observed=st.floats(min_value=-1e6, max_value=1e6),
        inferred=st.floats(min_value=-1e6, max_value=1e6),
    )
    def test_deviations_it_is_given_are_never_negative(self, observed, inferred):
        # edge_weights does not check its input; deviations is what feeds it
        graph = build([(0, 0.5), (1, 0.5)], [(0, 1)])
        snapshot = Snapshot(observed={0: observed, 1: 0.0}, inferred={(0, 1): inferred})
        [d] = deviations(graph, snapshot)
        assert d >= 0.0
        assert edge_weights([d], 1.0)[0] <= 1.0

    @given(
        d=st.floats(min_value=0.0, max_value=100.0),
        k=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_bounded(self, d, k):
        [w] = edge_weights([d], k)
        assert 0.0 < w <= 1.0


class TestTrustParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": -0.5, "alpha": 0.1},
            {"k": 1.0, "alpha": -0.1},
            {"k": 1.0, "alpha": 0.1, "mode": "recursive"},
            {"k": 1.0, "alpha": 0.1, "max_iterations": 0},
            {"k": 1.0, "alpha": 0.1, "tolerance": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrustParams(**kwargs)

    @pytest.mark.parametrize("field", ["k", "alpha", "c0", "tolerance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values_naming_the_field(self, field, value):
        kwargs = {"k": 1.0, "alpha": 0.1, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TrustParams(**kwargs)

    @pytest.mark.parametrize("mode", ["single-pass", "fixed-point"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_rejects_a_non_int_max_iterations(self, mode, value):
        with pytest.raises(ValueError, match=f"^max_iterations must be an int, got {value!r}$"):
            TrustParams(k=1.0, alpha=0.1, mode=mode, max_iterations=value)

    def test_defaults(self):
        params = TrustParams(k=1.0, alpha=0.1)
        assert params.c0 == 1.0
        assert params.mode == "single-pass"


class TestSinglePassByHand:
    def test_isolated_node_scores_zero(self):
        graph = build([(0, 0.5)], [])
        scores = trust_scores(graph, exact_snapshot(graph, {0: 3.0}), TrustParams(k=1.0, alpha=0.1))
        assert scores == {0: 0.0}

    def test_neighbor_already_evaluated_uses_its_score(self):
        # Node 0 has no out-edges, so T(0) = 0. Node 1 then sees the
        # freshly computed T(0), not the prior: T(1) = 0.8*0.1*0 + 1.
        graph = build([(0, 0.8), (1, 0.5)], [(1, 0)])
        scores = trust_scores(graph, exact_snapshot(graph, {0: 1.0, 1: 1.0}), TrustParams(k=1.0, alpha=0.1))
        assert scores[0] == 0.0
        assert scores[1] == 1.0

    def test_neighbor_not_yet_evaluated_uses_prior(self):
        # Node 0 is evaluated before node 1, so C(1) falls back to c0:
        # T(0) = 0.8 * 0.1 * 1.0 + 1.0 = 1.08
        graph = build([(0, 0.5), (1, 0.8)], [(0, 1)])
        scores = trust_scores(graph, exact_snapshot(graph, {0: 1.0, 1: 1.0}), TrustParams(k=1.0, alpha=0.1))
        assert scores[0] == pytest.approx(1.08, abs=1e-15)
        assert scores[1] == 0.0

    def test_chain_with_one_disagreement(self):
        # Deviation 1 on edge (0, 1) at k=1, zero elsewhere:
        # T(0) = 0.5*0.2*c0 + e^-1, T(1) = 0.5*0.2*c0 + 1, T(2) = 0
        graph = build([(0, 0.5), (1, 0.5), (2, 0.5)], [(0, 1), (1, 2)])
        snapshot = Snapshot(
            observed={0: 2.0, 1: 2.0, 2: 2.0},
            inferred={(0, 1): 3.0, (1, 2): 2.0},
        )
        scores = trust_scores(graph, snapshot, TrustParams(k=1.0, alpha=0.2))
        assert scores[0] == pytest.approx(0.1 + 0.36787944117144233, abs=1e-15)
        assert scores[1] == pytest.approx(1.1, abs=1e-15)
        assert scores[2] == 0.0


def oracle_single_pass(graph, snapshot, k, alpha, c0):
    """Independent transcription of the scoring rule, used as an oracle."""
    epsilons = {node.id: node.epsilon for node in graph.nodes}
    scores = {}
    for i in sorted(epsilons):
        total = 0.0
        for j in sorted(j2 for (i2, j2) in graph.edges if i2 == i):
            d = abs(snapshot.observed[i] - snapshot.inferred[(i, j)])
            c = scores[j] if j in scores else c0
            total += epsilons[j] * alpha * c + math.exp(-k * d)
        scores[i] = total
    return scores


def oracle_fixed_point(graph, snapshot, k, alpha, c0, rounds):
    epsilons = {node.id: node.epsilon for node in graph.nodes}
    out = {
        node.id: sorted(j for (i, j) in graph.edges if i == node.id)
        for node in graph.nodes
    }
    scores = {i: c0 for i in epsilons}
    for _ in range(rounds):
        scores = {
            i: sum(
                epsilons[j] * alpha * scores[j]
                + math.exp(-k * abs(snapshot.observed[i] - snapshot.inferred[(i, j)]))
                for j in out[i]
            )
            for i in epsilons
        }
    return scores


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_single_pass_matches_transcription(self, seed):
        graph = generate_random(n=7, edge_probability=0.4, seed=seed)
        scenario = ScenarioSpec(
            ground_truth=constant_ground_truth(graph, 10.0),
            noise_sigma=1.5,
            seed=seed,
        )
        snapshot = synthesize_snapshot(graph, scenario)
        params = TrustParams(k=0.7, alpha=0.25, c0=1.0)
        scores = trust_scores(graph, snapshot, params)
        expected = oracle_single_pass(graph, snapshot, 0.7, 0.25, 1.0)
        for i in graph.node_ids:
            assert scores[i] == pytest.approx(expected[i], abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_fixed_point_matches_iterated_transcription(self, seed):
        graph = generate_random(n=6, edge_probability=0.5, seed=seed)
        scenario = ScenarioSpec(
            ground_truth=constant_ground_truth(graph, 5.0),
            noise_sigma=0.8,
            seed=seed + 100,
        )
        snapshot = synthesize_snapshot(graph, scenario)
        params = TrustParams(k=1.0, alpha=0.1, mode="fixed-point")
        scores = trust_scores(graph, snapshot, params)
        expected = oracle_fixed_point(graph, snapshot, 1.0, 0.1, 1.0, rounds=200)
        for i in graph.node_ids:
            assert scores[i] == pytest.approx(expected[i], abs=1e-9)


def dict_reference(graph, snapshot, params):
    """The dict-based propagation the compiled core replaced, kept as a reference.

    Returns (trust, btv, converged) with every float computed in the
    original order, so the compiled core must match it exactly.
    """
    epsilons = {n.id: n.epsilon for n in graph.nodes}
    adjacency = {n.id: [j for i, j in graph.edges if i == n.id] for n in graph.nodes}

    def propagate(weights):
        if params.mode == "single-pass":
            scores = {}
            for i in sorted(adjacency):
                total = 0.0
                for j in adjacency[i]:
                    c = scores[j] if j in scores else params.c0
                    total += epsilons[j] * params.alpha * c + weights[(i, j)]
                scores[i] = total
            return scores, True
        current = {i: params.c0 for i in adjacency}
        converged = not adjacency
        for _ in range(params.max_iterations):
            nxt = {}
            for i in sorted(adjacency):
                total = 0.0
                for j in adjacency[i]:
                    total += epsilons[j] * params.alpha * current[j] + weights[(i, j)]
                nxt[i] = total
            change = max((abs(nxt[i] - current[i]) for i in adjacency), default=0.0)
            current = nxt
            if change < params.tolerance:
                converged = True
                break
        return current, converged

    weights = {
        (i, j): math.exp(-params.k * abs(snapshot.observed[i] - snapshot.inferred[(i, j)]))
        for i, j in graph.edges
    }
    trust, trust_conv = propagate(weights)
    btv, base_conv = propagate({edge: math.exp(-params.k * 0.0) for edge in graph.edges})
    return trust, btv, trust_conv and base_conv


def bits(scores: dict[int, float]) -> dict[int, str]:
    return {i: score.hex() for i, score in scores.items()}


class TestCompiledCoreMatchesDictReference:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        mode=st.sampled_from(["single-pass", "fixed-point"]),
        k=st.sampled_from([0.0, 0.3, 1.0, 2.5]),
        alpha=st.sampled_from([0.0, 0.05, 0.2, 0.9]),
        c0=st.sampled_from([1.0, 0.0, 0.5, -2.0, 3.75]),
        max_iterations=st.integers(min_value=1, max_value=60),
    )
    def test_bitwise_equal(self, seed, mode, k, alpha, c0, max_iterations):
        graph = generate_random(n=9, edge_probability=0.35, seed=seed)
        attack = AttackSpec(compromised=frozenset({seed % 9}), mode="both", delta=1.5)
        snapshot = synthesize_snapshot(
            graph,
            ScenarioSpec(
                ground_truth=constant_ground_truth(graph, 4.0),
                noise_sigma=0.7,
                attack=attack,
                seed=seed,
            ),
        )
        params = TrustParams(
            k=k, alpha=alpha, c0=c0, mode=mode, max_iterations=max_iterations
        )
        trust, btv, converged = dict_reference(graph, snapshot, params)
        trust, btv = bits(trust), bits(btv)  # == cannot tell -0.0 from 0.0; repr can
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            report = full_report(graph, snapshot, params)
            assert bits(trust_scores(graph, snapshot, params)) == trust
            assert bits(baseline_trust(graph, params)) == btv
        assert bits({e.id: e.trust for e in report.entries}) == trust
        assert bits({e.id: e.btv for e in report.entries}) == btv
        assert report.converged is converged


class TestBaselineMemo:
    def test_shared_across_k_and_snapshots(self):
        graph = generate_random(n=12, edge_probability=0.3, seed=3)
        for k in (0.0, 0.5, 2.0):
            baseline_trust(graph, TrustParams(k=k, alpha=0.2, mode="fixed-point"))
        assert len(graph.compiled.baselines) == 1
        baseline_trust(graph, TrustParams(k=1.0, alpha=0.3, mode="fixed-point"))
        baseline_trust(graph, TrustParams(k=1.0, alpha=0.3))
        assert len(graph.compiled.baselines) == 3

    def test_result_is_not_aliased_by_callers(self):
        graph = generate_random(n=8, edge_probability=0.4, seed=1)
        params = TrustParams(k=1.0, alpha=0.2)
        first = baseline_trust(graph, params)
        first[0] = -1.0
        assert baseline_trust(graph, params)[0] != -1.0

    def test_equal_graphs_do_not_share_the_memo(self):
        a = generate_random(n=6, edge_probability=0.5, seed=2)
        b = generate_random(n=6, edge_probability=0.5, seed=2)
        assert a == b
        baseline_trust(a, TrustParams(k=1.0, alpha=0.1))
        assert a.compiled is not b.compiled
        assert b.compiled.baselines == {}

    def test_non_converged_baseline_warns_on_every_call(self):
        # alpha * epsilon = 2 on a cycle, so the baseline iteration blows up
        graph = build([(0, 1.0), (1, 1.0)], [(0, 1), (1, 0)])
        snapshot = exact_snapshot(graph, {0: 1.0, 1: 1.0})
        params = TrustParams(k=1.0, alpha=2.0, mode="fixed-point")
        for _ in range(3):
            with pytest.warns(NonConvergenceWarning, match="baseline"):
                baseline_trust(graph, params)
            with pytest.warns(NonConvergenceWarning):
                report = full_report(graph, snapshot, params)
            assert report.converged is False
        assert len(graph.compiled.baselines) == 1

    def test_baseline_alone_can_fail_the_report(self):
        # T = 0.9 * T' + W on a two-cycle from c0 = 0 changes by 0.9^n * W per
        # sweep: trust (W = e^-20) settles within 50 sweeps, the unit-weight
        # baseline memoized by the first call does not.
        graph = build([(0, 1.0), (1, 1.0)], [(0, 1), (1, 0)])
        params = TrustParams(k=1.0, alpha=0.9, c0=0.0, mode="fixed-point", max_iterations=50)
        with pytest.warns(NonConvergenceWarning):
            baseline_trust(graph, params)
        snapshot = Snapshot(observed={0: 0.0, 1: 0.0}, inferred={(0, 1): 20.0, (1, 0): 20.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonConvergenceWarning)
            trust_scores(graph, snapshot, params)
        for _ in range(2):
            with pytest.warns(NonConvergenceWarning):
                report = full_report(graph, snapshot, params)
            assert report.converged is False


class TestBaseline:
    def test_alpha_zero_baseline_is_out_degree(self):
        graph = generate_random(n=12, edge_probability=0.3, seed=3)
        adjacency = {n.id: [j for i, j in graph.edges if i == n.id] for n in graph.nodes}
        baseline = baseline_trust(graph, TrustParams(k=2.0, alpha=0.0))
        for i, neighbors in adjacency.items():
            assert baseline[i] == float(len(neighbors))

    @pytest.mark.parametrize("mode", ["single-pass", "fixed-point"])
    def test_matches_scores_on_agreeing_snapshot_bitwise(self, mode):
        graph = generate_random(n=15, edge_probability=0.25, seed=9)
        scenario = ScenarioSpec(ground_truth=constant_ground_truth(graph, 4.2))
        snapshot = synthesize_snapshot(graph, scenario)
        params = TrustParams(k=1.3, alpha=0.2, mode=mode)
        assert trust_scores(graph, snapshot, params) == baseline_trust(graph, params)


class TestAdjustedTrust:
    def test_epsilon_one_returns_baseline_exactly(self):
        assert adjusted_trust(1e16, 1.0, 1.0) == 1e16

    def test_epsilon_zero_returns_trust_exactly(self):
        assert adjusted_trust(1e16, 1.0, 0.0) == 1.0

    def test_halfway(self):
        assert adjusted_trust(2.0, 1.5, 0.5) == pytest.approx(1.75, abs=1e-15)

    def test_rejects_out_of_range_epsilon(self):
        with pytest.raises(ValueError):
            adjusted_trust(1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            adjusted_trust(1.0, 1.0, -0.1)

    @given(
        btv=st.floats(min_value=0.0, max_value=1e6),
        trust=st.floats(min_value=0.0, max_value=1e6),
        epsilon=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_matches_convex_combination(self, btv, trust, epsilon):
        blended = adjusted_trust(btv, trust, epsilon)
        reference = epsilon * btv + (1.0 - epsilon) * trust
        assert blended == pytest.approx(reference, abs=1e-9 * max(1.0, btv, trust))

    @given(
        btv=st.floats(min_value=0.0, max_value=1e6),
        trust=st.floats(min_value=0.0, max_value=1e6),
        epsilon=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_stays_between_endpoints(self, btv, trust, epsilon):
        blended = adjusted_trust(btv, trust, epsilon)
        low, high = min(btv, trust), max(btv, trust)
        assert low - 1e-9 <= blended <= high + 1e-9


class TestFixedPoint:
    def test_two_cycle_converges_to_analytic_solution(self):
        # T = 0.5 * 0.2 * T' + 1 on both nodes, so T = 1 / 0.9
        graph = build([(0, 0.5), (1, 0.5)], [(0, 1), (1, 0)])
        snapshot = exact_snapshot(graph, {0: 1.0, 1: 1.0})
        params = TrustParams(k=1.0, alpha=0.2, mode="fixed-point")
        scores = trust_scores(graph, snapshot, params)
        assert scores[0] == pytest.approx(1.0 / 0.9, abs=1e-8)
        assert scores[1] == pytest.approx(1.0 / 0.9, abs=1e-8)

    def test_divergent_feedback_warns_and_is_flagged(self):
        # alpha * epsilon = 2 on a cycle, so the iteration blows up
        graph = build([(0, 1.0), (1, 1.0)], [(0, 1), (1, 0)])
        snapshot = exact_snapshot(graph, {0: 1.0, 1: 1.0})
        params = TrustParams(k=1.0, alpha=2.0, mode="fixed-point")
        with pytest.warns(NonConvergenceWarning):
            trust_scores(graph, snapshot, params)
        with pytest.warns(NonConvergenceWarning):
            report = full_report(graph, snapshot, params)
        assert report.converged is False

    def test_single_pass_never_warns_on_same_input(self):
        graph = build([(0, 1.0), (1, 1.0)], [(0, 1), (1, 0)])
        snapshot = exact_snapshot(graph, {0: 1.0, 1: 1.0})
        params = TrustParams(k=1.0, alpha=2.0)
        report = full_report(graph, snapshot, params)
        assert report.converged is True

    def test_convergence_flag_true_on_contraction(self):
        graph = generate_random(n=10, edge_probability=0.3, seed=5)
        snapshot = synthesize_snapshot(
            graph, ScenarioSpec(ground_truth=constant_ground_truth(graph, 1.0))
        )
        report = full_report(graph, snapshot, TrustParams(k=1.0, alpha=0.1, mode="fixed-point"))
        assert report.converged is True


class TestMonotonicity:
    @pytest.mark.parametrize("seed", range(5))
    def test_growing_one_deviation_never_raises_any_score(self, seed):
        graph = generate_random(n=10, edge_probability=0.35, seed=seed)
        if not graph.edges:
            pytest.skip("no edges in this draw")
        truth = constant_ground_truth(graph, 6.0)
        snapshot = synthesize_snapshot(
            graph, ScenarioSpec(ground_truth=truth, noise_sigma=0.5, seed=seed)
        )
        params = TrustParams(k=1.0, alpha=0.2)
        before = trust_scores(graph, snapshot, params)
        edge = graph.edges[seed % len(graph.edges)]
        bumped = dict(snapshot.inferred)
        i, _ = edge
        offset = bumped[edge] - snapshot.observed[i]
        bumped[edge] = snapshot.observed[i] + (abs(offset) + 2.0)
        after = trust_scores(graph, Snapshot(snapshot.observed, bumped), params)
        for node_id in graph.node_ids:
            assert after[node_id] <= before[node_id] + 1e-12

    def test_alpha_growth_raises_scores_when_nothing_disagrees(self):
        graph = generate_random(n=12, edge_probability=0.3, seed=11)
        snapshot = synthesize_snapshot(
            graph, ScenarioSpec(ground_truth=constant_ground_truth(graph, 2.0))
        )
        low = trust_scores(graph, snapshot, TrustParams(k=1.0, alpha=0.05))
        high = trust_scores(graph, snapshot, TrustParams(k=1.0, alpha=0.4))
        adjacency = {n.id: [j for i, j in graph.edges if i == n.id] for n in graph.nodes}
        for i, neighbors in adjacency.items():
            if neighbors:
                assert high[i] > low[i]
            else:
                assert high[i] == low[i] == 0.0


class TestFullReport:
    def make_attacked(self):
        graph = generate_random(n=20, edge_probability=0.2, seed=7)
        attack = AttackSpec(compromised=frozenset({3}), mode="self-injection", delta=5.0)
        scenario = ScenarioSpec(
            ground_truth=constant_ground_truth(graph, 10.0), attack=attack
        )
        return graph, synthesize_snapshot(graph, scenario)

    def test_entries_ascend_and_cover_all_nodes(self):
        graph, snapshot = self.make_attacked()
        report = full_report(graph, snapshot, TrustParams(k=1.0, alpha=0.1))
        assert tuple(e.id for e in report.entries) == graph.node_ids

    def test_agreeing_network_scores_exactly_one(self):
        graph = generate_random(n=20, edge_probability=0.2, seed=2)
        snapshot = synthesize_snapshot(
            graph, ScenarioSpec(ground_truth=constant_ground_truth(graph, 3.0))
        )
        report = full_report(graph, snapshot, TrustParams(k=1.0, alpha=0.1))
        assert report.network_trust == 1.0
        for e in report.entries:
            assert e.trust == e.btv
            assert e.eatv == e.btv

    def test_attack_pulls_network_below_one(self):
        graph, snapshot = self.make_attacked()
        report = full_report(graph, snapshot, TrustParams(k=1.0, alpha=0.1))
        assert report.network_trust < 1.0

    def test_no_edges_means_all_zero_and_network_one(self):
        graph = build([(0, 0.4), (1, 0.6)], [])
        snapshot = exact_snapshot(graph, {0: 1.0, 1: 2.0})
        report = full_report(graph, snapshot, TrustParams(k=1.0, alpha=0.1))
        assert [e.btv for e in report.entries] == [0.0, 0.0]
        assert report.network_trust == 1.0

    def test_zero_epsilon_everywhere_falls_back_to_plain_mean(self):
        graph = build([(0, 0.0), (1, 0.0)], [(0, 1)])
        snapshot = Snapshot(observed={0: 0.0, 1: 0.0}, inferred={(0, 1): 10.0})
        params = TrustParams(k=1.0, alpha=0.1)
        report = full_report(graph, snapshot, params)
        # node 0: btv = 1.0 (alpha term vanishes), trust = e^-10
        ratio0 = math.exp(-10.0) / 1.0
        assert report.network_trust == pytest.approx((ratio0 + 1.0) / 2.0, abs=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_overflowing_scores_raise_naming_node_and_params(self, mode):
        graph = build([(0, 1.0), (1, 1.0)], [(0, 1), (1, 0)])
        snapshot = exact_snapshot(graph, {0: 0.0, 1: 0.0})
        params = TrustParams(k=1.0, alpha=1e300, c0=1e300, mode=mode)
        message = rf"node 0 is inf, not finite \(alpha=1e\+300, c0=1e\+300, mode={mode}\)"
        for call in (
            lambda: full_report(graph, snapshot, params),
            lambda: trust_scores(graph, snapshot, params),
            lambda: baseline_trust(graph, params),
        ):
            with pytest.raises(ValueError, match=message):
                call()


class TestReportSerialization:
    def make_report(self):
        graph = generate_random(n=6, edge_probability=0.4, seed=13)
        snapshot = synthesize_snapshot(
            graph,
            ScenarioSpec(
                ground_truth=constant_ground_truth(graph, 5.0),
                attack=AttackSpec(compromised=frozenset({1}), delta=2.0),
            ),
        )
        return replace(
            full_report(graph, snapshot, TrustParams(k=0.5, alpha=0.1)),
            provenance=(("seed", "13"), ("source", "unit-test")),
        )

    def test_text_shape(self):
        report = self.make_report()
        lines = report.to_text().splitlines()
        assert lines[0] == REPORT_HEADER
        ecu_lines = [l for l in lines if l.startswith("ecu ")]
        assert len(ecu_lines) == 6
        assert any(l.startswith("network_trust ") for l in lines)
        assert any(l.startswith("params k=") for l in lines)
        assert "converged true" in lines
        assert "meta seed 13" in lines
        assert "meta source unit-test" in lines

    def test_csv_shape(self):
        report = self.make_report()
        lines = report.to_csv().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == "E0"
        # repr floats survive a parse round trip exactly
        assert float(first[3]) == {e.id: e for e in report.entries}[0].btv

    def test_json_shape(self):
        report = self.make_report()
        doc = json.loads(report.to_json())
        assert len(doc["ecus"]) == 6
        assert doc["ecus"][0]["id"] == 0
        assert doc["network_trust"] == report.network_trust
        assert doc["params"]["mode"] == "single-pass"
        assert doc["converged"] is True
        assert doc["provenance"] == {"seed": "13", "source": "unit-test"}

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_json_refuses_non_finite_values(self, value):
        report = TrustReport(
            entries=(TrustEntry(id=0, label="E0", epsilon=0.5, btv=1.0, trust=value, eatv=1.0),),
            network_trust=1.0,
            params=TrustParams(k=1.0, alpha=0.1),
            converged=True,
        )
        with pytest.raises(ValueError):
            report.to_json()

    def test_serialization_is_deterministic(self):
        a, b = self.make_report(), self.make_report()
        assert a.to_text() == b.to_text()
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()


SERIALIZERS = ("to_text", "to_csv", "to_json", "to_svg")


class TestReportColumns:
    @settings(max_examples=60)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=9),
        mode=st.sampled_from(MODES),
        alpha=st.sampled_from([0.0, 0.05, 0.2, 0.9]),
    )
    def test_a_report_from_columns_is_the_report_from_its_entries(self, seed, n, mode, alpha):
        graph = generate_random(n=n, edge_probability=0.35, seed=seed)
        snapshot = synthesize_snapshot(graph, ScenarioSpec(
            ground_truth=constant_ground_truth(graph, 4.0), noise_sigma=0.7,
            attack=AttackSpec(compromised=frozenset({seed % n}), mode="both"), seed=seed))
        params = TrustParams(k=1.0, alpha=alpha, mode=mode, max_iterations=20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            report, other = (full_report(graph, snapshot, params) for _ in range(2))
        texts = [getattr(report, name)() for name in SERIALIZERS]
        clones = [pickle.loads(pickle.dumps(report)), copy.copy(report), copy.deepcopy(report)]
        assert "entries" not in vars(report)
        twin = TrustReport(
            entries=other.entries, network_trust=report.network_trust, params=report.params,
            converged=report.converged, iterations=report.iterations, residual=report.residual)
        assert [getattr(twin, name)() for name in SERIALIZERS] == texts
        for clone in clones:
            assert "entries" not in vars(clone)
            assert [getattr(clone, name)() for name in SERIALIZERS] == texts
        assert report == twin and hash(report) == hash(twin)
        assert "entries" in vars(report)
        for clone in (*clones, replace(report), pickle.loads(pickle.dumps(twin)), copy.copy(twin)):
            assert clone == twin
            assert [getattr(clone, name)() for name in SERIALIZERS] == texts

    def test_csv_heads_of_columns_that_are_equal_but_print_apart_do_not_mix(self):
        csvs = []
        for epsilon in (0.0, -0.0, 1, 1.0):
            graph = build([(0, epsilon), (1, 0.5)], [(0, 1), (1, 0)])
            snapshot = exact_snapshot(graph, {0: 1.0, 1: 1.0})
            csvs.append(full_report(graph, snapshot, TrustParams(k=1.0, alpha=0.1)).to_csv())
        assert [csv.splitlines()[1].split(",")[2] for csv in csvs] == ["0.0", "-0.0", "1", "1.0"]


# quotes, backslashes, braces, separators, control and non-ASCII characters
json_strings = st.text(
    alphabet=st.sampled_from('"\\{}[],: \n\t\x00\x1fé \U0001f600') | st.characters(),
    max_size=6,
)
json_finite = st.floats(allow_nan=False, allow_infinity=False)


def _dumps(doc):
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


json_ids = st.integers() | st.booleans()


def _report_doc(report) -> dict:
    """The document a report's JSON writes, built from its entries' own fields."""
    doc = {"ecus": [vars(entry) for entry in report.entries]}
    if isinstance(report, DetectionReport):
        return {**doc, "ranking": report.ranking, "params": vars(report.params)}
    return {**doc, "network_trust": report.network_trust, "params": vars(report.params),
            "converged": report.converged, "provenance": dict(report.provenance)}


class TestJsonText:
    @given(
        entries=st.lists(
            st.builds(
                TrustEntry, id=json_ids, label=json_strings, epsilon=json_finite,
                btv=json_finite, trust=json_finite, eatv=json_finite,
            ),
            max_size=4,
        ),
        provenance=st.dictionaries(json_strings, json_strings, max_size=3),
    )
    def test_trust_report_document(self, entries, provenance):
        report = TrustReport(
            entries=tuple(entries), network_trust=1.0, params=TrustParams(k=1.0, alpha=0.1),
            converged=True, provenance=tuple(sorted(provenance.items())),
        )
        text = report.to_json()
        assert _dumps(_report_doc(report)) == _dumps(json.loads(text)) == text

    @given(
        entries=st.lists(
            st.builds(
                DetectionEntry, id=json_ids, label=json_strings, evidence=json_finite,
                flagged=st.booleans(),
                contradicting_neighbors=st.lists(json_ids, max_size=3).map(tuple),
            ),
            max_size=4,
        )
    )
    def test_detection_report_document(self, entries):
        report = DetectionReport(
            entries=tuple(entries), ranking=tuple(e.id for e in entries),
            params=DetectorParams(),
        )
        text = report.to_json()
        assert _dumps(_report_doc(report)) == _dumps(json.loads(text)) == text

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["epsilon", "btv", "trust", "eatv", "network_trust", "evidence"])
    def test_a_non_finite_float_raises_as_json_dumps_does(self, field, value):
        entry = TrustEntry(id=0, label="E0", epsilon=0.5, btv=2.0, trust=1.0, eatv=1.5)
        if field == "evidence":
            report = DetectionReport(entries=(DetectionEntry(0, "E0", value, True, (1,)),),
                                     ranking=(0,), params=DetectorParams())
        else:
            report = TrustReport(
                entries=(replace(entry, **{field: value}) if hasattr(entry, field) else entry,),
                network_trust=value if field == "network_trust" else 1.0,
                params=TrustParams(k=1.0, alpha=0.1), converged=True)
        for write in (report.to_json, lambda: _dumps(_report_doc(report))):
            with pytest.raises(ValueError, match="^Out of range float values are not JSON"):
                write()

    def test_empty_reports(self):
        for report in (
            TrustReport(entries=(), network_trust=1.0, params=TrustParams(k=1.0, alpha=0.1),
                        converged=True),
            DetectionReport(entries=(), ranking=(), params=DetectorParams()),
        ):
            text = report.to_json()
            assert _dumps(_report_doc(report)) == text
            assert '"ecus": [],' in text

    def test_a_2000_node_report(self):
        graph = generate_random(n=2000, edge_probability=0.005, seed=1)
        scenario = ScenarioSpec(constant_ground_truth(graph, 10.0), noise_sigma=0.5, seed=1,
                                attack=AttackSpec(frozenset({3, 400, 1999}), "both", 4.0))
        snapshot = synthesize_snapshot(graph, scenario)
        params = TrustParams(k=1.0, alpha=0.1)
        detection = detect(graph, snapshot, params)
        assert sum(map(len, detection._columns[4])) > 1000
        for report in (full_report(graph, snapshot, params), detection):
            text = report.to_json()
            assert len(json.loads(text)["ecus"]) == 2000
            assert _dumps(_report_doc(report)) == _dumps(json.loads(text)) == text


def reference_inputs():
    """The bundled reference graph and the snapshot of its scenario."""
    graph, scenario = reference_fixture()
    return graph, synthesize_snapshot(graph, scenario)


class TestConvergenceFacts:
    @pytest.mark.parametrize("alpha, iterations", [(0.05, 10), (0.1, 13), (0.2, 19), (0.4, 39)])
    def test_reference_fixture_fixed_point_count_is_pinned(self, alpha, iterations):
        graph, snapshot = reference_inputs()
        report = full_report(graph, snapshot, TrustParams(k=1.0, alpha=alpha, mode="fixed-point"))
        assert (report.iterations, report.converged) == (iterations, True)
        assert 0.0 < report.residual < report.params.tolerance

    def test_count_is_the_least_cap_that_converges(self):
        graph, snapshot = reference_inputs()
        params = TrustParams(k=1.0, alpha=0.2, mode="fixed-point")
        report = full_report(graph, snapshot, params)
        assert full_report(graph, snapshot, replace(
            params, max_iterations=report.iterations)).converged
        with pytest.warns(NonConvergenceWarning):
            short = full_report(graph, snapshot, replace(
                params, max_iterations=report.iterations - 1))
        assert (short.converged, short.iterations) == (False, report.iterations - 1)
        assert short.residual >= params.tolerance

    def test_single_pass_is_one_iteration_with_no_residual(self):
        report = full_report(*reference_inputs(), TrustParams(k=1.0, alpha=0.4))
        assert (report.iterations, report.residual, report.converged) == (1, 0.0, True)

    def test_no_serializer_lists_them(self):
        params = TrustParams(k=1.0, alpha=0.1, mode="fixed-point")
        report = full_report(*reference_inputs(), params)
        plain = replace(report, iterations=1, residual=0.0)
        for name in ("to_text", "to_csv", "to_json", "to_svg"):
            assert getattr(report, name)() == getattr(plain, name)()


# weights a row can carry: zero, subnormal, one that overflows when two meet, and plain ones
KERNEL_WEIGHTS = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e308, 1.0]),
                           st.floats(min_value=0.0, max_value=1.0))


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, kept in zip(pairs, keep) if kept]
    epsilons = st.sampled_from([0.0, 5e-324, 0.25, 1.0]) | st.floats(0.0, 1.0)
    graph = build([(i, draw(epsilons)) for i in range(n)], edges)
    weights = draw(st.lists(KERNEL_WEIGHTS, min_size=len(edges), max_size=len(edges)))
    params = TrustParams(k=1.0, alpha=draw(st.sampled_from([0.0, 0.1, 0.9, 2.0, 1e300])),
                         c0=draw(st.sampled_from([1.0, 0.0, -0.0, -3.5, 1e308])),
                         mode="fixed-point", max_iterations=draw(st.integers(1, 40)))
    return graph, weights, params


def report_outcome(graph, weights, params):
    """A report's every float as ``float.hex``, its facts and warnings; or the ValueError text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            report = report_from_weights(graph, weights, params)
        except ValueError as exc:
            return str(exc)
    return ([(e.btv.hex(), e.trust.hex(), e.eatv.hex()) for e in report.entries],
            report.network_trust.hex(), report.converged, report.iterations,
            report.residual.hex(), [str(w.message) for w in caught])


def build_kernels(cg):
    """``cg``'s row kernels, built now whatever the loop has run on it."""
    with mock.patch.object(trust_module, "KERNEL_BUILD_ITERATIONS", 0):
        return trust_module._row_kernels(cg)


def kernel_outcome(graph, weights, params):
    """``report_outcome`` with trust and baseline summed by the row kernels."""
    copy = DependencyGraph(nodes=graph.nodes, edges=graph.edges)
    assert build_kernels(copy.compiled) is not None
    return report_outcome(copy, weights, params)


class TestRowKernels:
    @settings(max_examples=150)
    @given(case=kernel_cases(), terms=st.integers(1, 6))
    def test_kernels_and_loop_agree_bit_for_bit(self, case, terms):
        # small budgets split rows across statements and graphs across kernels
        with mock.patch.object(trust_module, "KERNEL_TERMS", terms):
            assert kernel_outcome(*case) == report_outcome(*case)

    @pytest.mark.parametrize("pattern", [(0.0, 5e-324, 0.1, 1e-310, 0.7), (0.3, 1e308, 0.0)])
    def test_a_hub_row_of_5000_edges_agrees(self, pattern):
        hub = [(0, j) for j in range(1, 5001)]
        graph = build([(i, 0.5) for i in range(5001)], hub + [(7, 0), (9, 3)])
        weights = [pattern[e % len(pattern)] for e in range(len(graph.edges))]
        params = TrustParams(k=1.0, alpha=0.1, mode="fixed-point")
        loop = report_outcome(graph, weights, params)
        assert loop == kernel_outcome(graph, weights, params)
        assert isinstance(loop, str) == (1e308 in pattern)  # two 1e308 weights overflow

    def test_non_convergence_warns_alike(self):
        graph = build([(0, 1.0), (1, 1.0)], [(0, 1), (1, 0)])
        case = (graph, [1.0, 1.0], TrustParams(k=1.0, alpha=2.0, mode="fixed-point"))
        outcome = report_outcome(*case)
        assert outcome == kernel_outcome(*case)
        assert outcome[2] is False and "did not converge" in outcome[-1][0]

    def test_overflow_raises_the_same_error(self):
        graph = build([(0, 1.0), (1, 1.0)], [(0, 1), (1, 0)])
        case = (graph, [1e308, 1e308], TrustParams(k=1.0, alpha=1.0, mode="fixed-point"))
        outcome = report_outcome(*case)
        assert outcome == kernel_outcome(*case)
        assert outcome.startswith("trust score of node 0 is inf, not finite")


def kernel_builds(monkeypatch) -> list:
    """The row ranges every later kernel build compiles, in build order."""
    built = []
    kernel = trust_module._kernel
    monkeypatch.setattr(trust_module, "_kernel",
                        lambda cg, rows: built.append(rows) or kernel(cg, rows))
    return built


class TestRowKernelPolicy:
    params = TrustParams(k=1.0, alpha=0.1, mode="fixed-point")

    def test_one_report_builds_nothing(self, monkeypatch):
        built = kernel_builds(monkeypatch)
        graph, snapshot = reference_inputs()
        full_report(graph, snapshot, self.params)
        assert built == [] and "rows" not in graph.compiled.kernels

    def test_builds_once_the_loop_has_run_the_threshold(self, monkeypatch):
        built = kernel_builds(monkeypatch)
        monkeypatch.setattr(trust_module, "KERNEL_BUILD_ITERATIONS", 40)
        # the fixture's 79 edges and 20 rows fit one kernel of the default budget
        monkeypatch.setattr(trust_module, "KERNEL_TERMS", 32)
        graph, snapshot = reference_inputs()
        memo = graph.compiled.kernels
        reports, counts, builds = [], [], []
        for _ in range(5):
            reports.append(full_report(graph, snapshot, self.params))
            counts.append(memo["iterations"])
            builds.append(len(built))
        # 13 loop iterations per trust evaluation, and 13 for the one baseline;
        # the fourth report starts at 52 >= 40, so it builds and runs no loop
        assert [report.iterations for report in reports] == [13] * 5
        assert counts == [26, 39, 52, 52, 52]
        assert builds[:3] == [0, 0, 0] and builds[3] == builds[4] == len(memo["rows"]) > 1
        # every row once, in order
        assert [row for rows in built for row in rows] == list(range(len(graph.nodes)))
        assert all(report == reports[0] for report in reports)

    def test_baselines_count_towards_the_build(self, monkeypatch):
        built = kernel_builds(monkeypatch)
        monkeypatch.setattr(trust_module, "KERNEL_BUILD_ITERATIONS", 13)
        graph, snapshot = reference_inputs()
        baseline_trust(graph, self.params)
        assert built == [] and graph.compiled.kernels["iterations"] == 13
        trust_scores(graph, snapshot, self.params)
        assert len(built) == len(graph.compiled.kernels["rows"])

    def test_a_graph_above_the_cap_never_builds(self, monkeypatch):
        built = kernel_builds(monkeypatch)
        monkeypatch.setattr(trust_module, "KERNEL_BUILD_ITERATIONS", 0)
        graph, snapshot = reference_inputs()
        monkeypatch.setattr(trust_module, "KERNEL_EDGE_CAP", len(graph.edges) - 1)
        for _ in range(3):
            full_report(graph, snapshot, self.params)
        assert built == [] and "rows" not in graph.compiled.kernels

    def test_single_pass_neither_counts_nor_builds(self, monkeypatch):
        built = kernel_builds(monkeypatch)
        monkeypatch.setattr(trust_module, "KERNEL_BUILD_ITERATIONS", 0)
        graph, snapshot = reference_inputs()
        for alpha in (0.1, 0.2, 0.3):
            full_report(graph, snapshot, replace(self.params, alpha=alpha, mode="single-pass"))
        assert built == [] and graph.compiled.kernels == {}

    def test_a_graph_with_kernels_pickles_and_copies_without_its_memos(self):
        graph, snapshot = reference_inputs()
        report = full_report(graph, snapshot, self.params)
        assert build_kernels(graph.compiled) and graph.compiled.baselines
        for graph_copy, snapshot_copy in (pickle.loads(pickle.dumps((graph, snapshot))),
                                          copy.deepcopy((graph, snapshot))):
            assert graph_copy.compiled.kernels == graph_copy.compiled.baselines == {}
            assert full_report(graph_copy, snapshot_copy, self.params) == report

    def test_building_200_node_kernels_peaks_below_a_fixed_bound(self):
        # chunked: about 0.7 MB; one function for the whole graph: about 7.4 MB
        graph = generate_random(n=200, edge_probability=0.05, seed=0)
        assert len(graph.edges) > 1900
        tracemalloc.start()
        try:
            kernels = build_kernels(graph.compiled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kernels is graph.compiled.kernels["rows"]
        assert peak < 2_000_000


def every_iterate_propagation(cg, weights, params):
    """Fixed-point scores, iteration count and residual, the max-norm taken on every iterate."""
    factors = [epsilon * params.alpha for epsilon in cg.epsilons]
    scores = [params.c0] * len(cg.ids)
    for iterations in range(1, params.max_iterations + 1):
        products = [factor * score for factor, score in zip(factors, scores)]
        nxt = []
        for start, stop in zip(cg.offsets, cg.offsets[1:]):
            total = 0.0
            for e in range(start, stop):
                total += products[cg.dst[e]] + weights[e]
            nxt.append(total)
        change = max(map(abs, map(operator.sub, nxt, scores)), default=0.0)
        scores = nxt
        if change < params.tolerance:
            break
    return scores, iterations, change


def every_iterate_outcome(graph, weights, params):
    """What ``report_outcome`` reads of trust and baseline, by ``every_iterate_propagation``:
    each score as ``float.hex`` with the facts, or the ValueError text of the first score
    that is not finite."""
    cg = graph.compiled
    runs = [every_iterate_propagation(cg, w, params) for w in (weights, [1.0] * len(weights))]
    for scores, _, _ in runs:
        for node_id, score in zip(cg.ids, scores):
            if not math.isfinite(score):
                return (f"trust score of node {node_id} is {score!r}, not finite "
                        f"(alpha={params.alpha!r}, c0={params.c0!r}, mode={params.mode})")
    (trust, iterations, residual), (btv, base_iterations, base_residual) = runs
    residual = max(residual, base_residual)
    return ([(b.hex(), t.hex()) for b, t in zip(btv, trust)], residual < params.tolerance,
            max(iterations, base_iterations), residual.hex())


class TestConvergenceTest:
    """The max-norm is taken only on an iterate where no change reaches the tolerance, or
    on the last; the iteration count, the residual and every score stay those of a loop
    that takes it on every iterate."""

    @settings(max_examples=150)
    @given(case=kernel_cases(), tolerance=st.sampled_from([1e-9, 1e-3, 0.5, 1, 1e300]))
    def test_facts_match_a_max_norm_on_every_iterate(self, case, tolerance):
        graph, weights, params = case
        params = replace(params, tolerance=tolerance)  # 1 is an int: float.__le__ refuses it
        expected = every_iterate_outcome(graph, weights, params)
        for outcome in (report_outcome(graph, weights, params),
                        kernel_outcome(graph, weights, params)):
            if isinstance(expected, str):
                assert outcome == expected
            else:
                assert ([(b, t) for b, t, _ in outcome[0]], *outcome[2:5]) == expected

    @pytest.mark.parametrize("max_iterations", [1, 3, 13, 100])
    @pytest.mark.parametrize("tolerance", [1e-9, 1e-3, 1])
    def test_reference_fixture_facts_match(self, max_iterations, tolerance):
        graph, snapshot = reference_inputs()
        params = TrustParams(k=1.0, alpha=0.1, mode="fixed-point",
                             max_iterations=max_iterations, tolerance=tolerance)
        weights = edge_weights(deviations(graph, snapshot), params.k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            report = full_report(graph, snapshot, params)
        expected = every_iterate_outcome(graph, weights, params)
        assert ([(e.btv.hex(), e.trust.hex()) for e in report.entries], report.converged,
                report.iterations, report.residual.hex()) == expected


class TestSharedEdgeWeights:
    params = TrustParams(k=1.0, alpha=0.1, mode="fixed-point")

    @pytest.fixture
    def calls(self, monkeypatch):
        """The (graph, snapshot) of every deviations pass trust runs from now on."""
        calls = []
        monkeypatch.setattr(trust_module, "deviations",
                            lambda graph, snapshot: calls.append((graph, snapshot))
                            or deviations(graph, snapshot))
        return calls

    def test_detect_after_full_report_reads_the_same_pass(self, calls):
        graph, snapshot = reference_inputs()
        report = full_report(graph, snapshot, self.params)
        detection = detect(graph, snapshot, self.params)
        assert trust_scores(graph, snapshot, self.params) == {
            e.id: e.trust for e in report.entries}
        assert len(calls) == 1 and calls[0][0] is graph and calls[0][1] is snapshot
        fresh = synthesize_snapshot(graph, reference_fixture()[1])
        assert detect(graph, fresh, self.params) == detection and len(calls) == 2

    def test_another_k_or_graph_object_runs_its_own_pass(self, calls):
        graph, snapshot = reference_inputs()
        twin = DependencyGraph(nodes=graph.nodes, edges=graph.edges)
        full_report(graph, snapshot, self.params)
        detect(graph, snapshot, replace(self.params, k=2.0))
        full_report(twin, snapshot, self.params)
        trust_scores(twin, snapshot, self.params)
        # twin == graph, so the graphs are told apart by identity
        assert [(g is graph, g is twin, s is snapshot) for g, s in calls] == [
            (True, False, True), (True, False, True), (False, True, True)]

    def test_a_failed_pass_keeps_nothing_and_fails_again(self, calls):
        graph = build([(0, 0.5), (1, 0.5)], [(0, 1), (1, 0)])
        snapshot = Snapshot(observed={0: 1.0}, inferred={(0, 1): 1.0, (1, 0): 1.0})
        for run in (full_report, trust_scores, lambda *args: detect(*args)):
            with pytest.raises(SnapshotMismatchError, match="node 1"):
                run(graph, snapshot, self.params)
        assert len(calls) == 3

    @pytest.mark.parametrize("columns", [True, False], ids=["column", "dict"])
    def test_a_pickle_or_copy_leaves_the_kept_weights_out(self, columns):
        graph, snapshot = reference_inputs()
        if not columns:
            snapshot = Snapshot(observed=dict(snapshot.observed), inferred=dict(snapshot.inferred))
        size = len(pickle.dumps(snapshot))
        report = full_report(graph, snapshot, self.params)
        assert "_weights" in vars(snapshot) and len(pickle.dumps(snapshot)) == size
        hexes = [e.trust.hex() for e in report.entries], report.network_trust.hex()
        for clone in (pickle.loads(pickle.dumps(snapshot)), copy.copy(snapshot),
                      copy.deepcopy(snapshot)):
            assert "_weights" not in vars(clone)
            assert (clone.observed, clone.inferred) == (snapshot.observed, snapshot.inferred)
            again = full_report(graph, clone, self.params)
            assert ([e.trust.hex() for e in again.entries], again.network_trust.hex()) == hexes

    def test_the_weights_are_freed_with_the_snapshot(self):
        graph, snapshot = reference_inputs()
        full_report(graph, snapshot, self.params)
        detect(graph, snapshot, self.params)
        freed = weakref.ref(snapshot)
        gc.disable()  # freed by reference counting, held by nothing but the snapshot
        try:
            del snapshot
            assert freed() is None
        finally:
            gc.enable()
