"""Trust scoring tests: weights, hand-worked scores, oracles, reports."""

import json
import math
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from trustconnect.detector import DetectionEntry, DetectionReport, DetectorParams
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
    json_text,
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


# quotes, backslashes, braces, separators, control and non-ASCII characters
json_strings = st.text(
    alphabet=st.sampled_from('"\\{}[],: \n\t\x00\x1fé \U0001f600') | st.characters(),
    max_size=6,
)
json_finite = st.floats(allow_nan=False, allow_infinity=False)
json_scalars = st.none() | st.booleans() | st.integers() | json_finite | json_strings
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(json_strings, inner, max_size=3),
    max_leaves=8,
)
json_docs = st.dictionaries(
    json_strings,
    json_values | st.lists(st.dictionaries(json_strings, json_scalars, max_size=4), max_size=3),
    max_size=4,
)


def _dumps(doc):
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


class TestJsonText:
    @given(json_docs)
    def test_equals_json_dumps_indent_2(self, doc):
        assert json_text(doc) == _dumps(doc)

    @given(
        entries=st.lists(
            st.builds(
                TrustEntry, id=st.integers(), label=json_strings, epsilon=json_finite,
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
        assert json_text(json.loads(text)) == _dumps(json.loads(text)) == text

    @given(
        entries=st.lists(
            st.builds(
                DetectionEntry, id=st.integers(), label=json_strings, evidence=json_finite,
                flagged=st.booleans(),
                contradicting_neighbors=st.lists(st.integers(), max_size=3).map(tuple),
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
        assert json_text(json.loads(text)) == _dumps(json.loads(text)) == text
