"""Acceptance gate: nine release criteria, one printed verdict line each.

Each test prints "PASS criterion N: ..." or "FAIL criterion N: ..."
straight to the terminal (bypassing pytest capture) so a plain
`pytest -v` run shows the verdicts inline. Every criterion carries its
own runtime budget, asserted alongside the functional checks.
"""

import math
import random
import time
import warnings
from contextlib import contextmanager

import pytest

from trustconnect.cli import main
from trustconnect.detector import DetectorParams, detect
from trustconnect.experiment import (
    DEFAULT_ALPHA_VALUES,
    DEFAULT_K_VALUES,
    REFERENCE_EXPOSED,
    REFERENCE_RESILIENT,
    check_gap_ordering,
    reference_fixture,
    relative_gap,
    run_sweep_on,
)
from trustconnect.graph import generate_random
from trustconnect.snapshot import (
    AttackSpec,
    ScenarioSpec,
    Snapshot,
    constant_ground_truth,
    synthesize_snapshot,
)
from trustconnect.trust import (
    TrustParams,
    adjusted_trust,
    baseline_trust,
    edge_weights,
    full_report,
    trust_scores,
)


@pytest.fixture()
def announce(request):
    """Print through pytest's capture so verdicts reach the terminal."""
    manager = request.config.pluginmanager.getplugin("capturemanager")

    def _announce(line: str) -> None:
        if manager is None:
            print(line)
            return
        with manager.global_and_fixture_disabled():
            print(line)

    return _announce


@contextmanager
def criterion(announce, number, description):
    try:
        yield
    except BaseException:
        announce(f"FAIL criterion {number}: {description}")
        raise
    announce(f"PASS criterion {number}: {description}")


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False

    def check(self, budget: float) -> None:
        assert self.elapsed < budget, (
            f"took {self.elapsed:.2f}s, budget {budget:g}s"
        )


def oracle_single_pass(graph, snapshot, k, alpha, c0):
    """Brute-force transcription of the trust recurrence over raw edges."""
    epsilons = {node.id: node.epsilon for node in graph.nodes}
    scores = {}
    for node in sorted(graph.nodes, key=lambda n: n.id):
        i = node.id
        total = 0.0
        for a, b in graph.edges:
            if a != i:
                continue
            d = abs(snapshot.observed[i] - snapshot.inferred[(i, b)])
            w = math.exp(-k * d)
            neighbor = scores[b] if b in scores else c0
            total += epsilons[b] * alpha * neighbor + w
        scores[i] = total
    return scores


def test_criterion_1_oracle_equivalence(announce):
    with criterion(
        announce, 1,
        "single-pass trust matches the brute-force oracle within 1e-12 "
        "per node on 200 random graphs",
    ):
        rng = random.Random(101)
        with Stopwatch() as watch:
            for trial in range(200):
                graph = generate_random(
                    n=rng.randint(1, 6), edge_probability=rng.random(), seed=trial
                )
                snapshot = Snapshot(
                    observed={i: rng.uniform(-5.0, 5.0) for i in graph.node_ids},
                    inferred={e: rng.uniform(-5.0, 5.0) for e in graph.edges},
                )
                k = rng.uniform(0.1, 3.0)
                alpha = rng.uniform(0.0, 0.5)
                got = trust_scores(graph, snapshot, TrustParams(k=k, alpha=alpha))
                want = oracle_single_pass(graph, snapshot, k, alpha, 1.0)
                for i in graph.node_ids:
                    assert abs(got[i] - want[i]) <= 1e-12
        watch.check(5.0)


def test_criterion_2_baseline_identity(announce):
    with criterion(
        announce, 2,
        "baseline trust is bitwise equal to trust on a zero-deviation "
        "snapshot for 50 random (graph, params) pairs",
    ):
        rng = random.Random(202)
        with Stopwatch() as watch:
            for trial in range(50):
                graph = generate_random(
                    n=rng.randint(1, 8), edge_probability=0.3, seed=1000 + trial
                )
                observed = {i: rng.uniform(-10.0, 10.0) for i in graph.node_ids}
                snapshot = Snapshot(
                    observed=observed,
                    inferred={(a, b): observed[a] for a, b in graph.edges},
                )
                params = TrustParams(
                    k=rng.uniform(0.1, 3.0),
                    alpha=rng.uniform(0.0, 0.5),
                    mode="single-pass" if trial % 2 == 0 else "fixed-point",
                )
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    assert baseline_trust(graph, params) == trust_scores(
                        graph, snapshot, params
                    )
        watch.check(2.0)


def test_criterion_3_adjustment_identities(announce):
    with criterion(
        announce, 3,
        "adjusted trust hits both endpoints exactly and matches the "
        "convex form within 1e-12 on 100000 triples",
    ):
        rng = random.Random(303)
        with Stopwatch() as watch:
            for _ in range(1000):
                btv = rng.uniform(0.0, 100.0)
                trust = rng.uniform(0.0, 100.0)
                assert adjusted_trust(btv, trust, 1.0) == btv
                assert adjusted_trust(btv, trust, 0.0) == trust
            for _ in range(100_000):
                btv = rng.uniform(0.0, 100.0)
                trust = rng.uniform(0.0, 100.0)
                epsilon = rng.random()
                convex = epsilon * btv + (1.0 - epsilon) * trust
                assert abs(adjusted_trust(btv, trust, epsilon) - convex) <= 1e-12
        watch.check(1.0)


def test_criterion_4_resilience_narrative(announce):
    with criterion(
        announce, 4,
        "high-resilience nodes keep strictly smaller relative EATV gaps "
        "than exposed ones in all 16 grid cells, within the (1-eps) bound",
    ):
        graph, scenario = reference_fixture()
        epsilons = {n.id: n.epsilon for n in graph.nodes}
        with Stopwatch() as watch:
            result = run_sweep_on(graph, scenario)
            summary = check_gap_ordering(result)
            assert summary.all_pass
            for k in DEFAULT_K_VALUES:
                for alpha in DEFAULT_ALPHA_VALUES:
                    cell = summary.cell(k, alpha)
                    assert not cell.ordering_vacuous
                    report = result.report(k, alpha)
                    for entry in report.entries:
                        bound = (1.0 - epsilons[entry.id]) * abs(
                            entry.btv - entry.trust
                        )
                        assert abs(entry.eatv - entry.btv) <= bound + 1e-12
                    gaps = {
                        e.id: relative_gap(e) for e in report.entries
                    }
                    worst_resilient = max(gaps[i] for i in REFERENCE_RESILIENT)
                    best_exposed = min(gaps[i] for i in REFERENCE_EXPOSED)
                    assert worst_resilient < best_exposed
        watch.check(1.0)


def test_criterion_5_k_insensitivity(announce):
    with criterion(
        announce, 5,
        "for D <= 1 and k in [0, 0.2] sampled at step 0.01, weight "
        "changes stay under 0.2 and under the d*|k1-k2| bound",
    ):
        with Stopwatch() as watch:
            observed_max = 0.0
            for di in range(101):
                d = di / 100.0
                for k1i in range(21):
                    k1 = k1i / 100.0
                    [w1] = edge_weights([d], k1)
                    for k2i in range(k1i, 21):
                        k2 = k2i / 100.0
                        gap = abs(w1 - edge_weights([d], k2)[0])
                        assert gap <= 0.2
                        assert gap <= d * (k2 - k1) + 1e-15
                        observed_max = max(observed_max, gap)
            assert observed_max <= 1.0 * 0.2
        watch.check(1.0)


def test_criterion_6_alpha_monotonicity(announce):
    with criterion(
        announce, 6,
        "on the reference snapshot every trust score is non-decreasing "
        "in alpha at each k, with at least one strict increase",
    ):
        graph, scenario = reference_fixture()
        with Stopwatch() as watch:
            result = run_sweep_on(graph, scenario)
            for k in DEFAULT_K_VALUES:
                columns = [
                    {e.id: e.trust for e in result.report(k, a).entries}
                    for a in DEFAULT_ALPHA_VALUES
                ]
                for earlier, later in zip(columns, columns[1:]):
                    for i in graph.node_ids:
                        assert later[i] >= earlier[i]
                assert any(
                    columns[-1][i] > columns[0][i] for i in graph.node_ids
                )
        watch.check(1.0)


def test_criterion_7_detector_soundness(announce):
    with criterion(
        announce, 7,
        "a single injected node is flagged and ranked first in >= 95 of "
        "100 seeded scenarios, with zero flags on clean counterparts",
    ):
        params = TrustParams(k=1.0, alpha=0.1)
        det_params = DetectorParams()
        with Stopwatch() as watch:
            hits = 0
            collected = 0
            seed = 0
            while collected < 100:
                seed += 1
                graph = generate_random(n=20, edge_probability=0.2, seed=seed)
                epsilons = {n.id: n.epsilon for n in graph.nodes}
                adjacency = {n.id: [j for i, j in graph.edges if i == n.id] for n in graph.nodes}
                candidates = [
                    i for i in graph.node_ids
                    if sum(1 for j in adjacency[i] if epsilons[j] >= 0.5) >= 2
                ]
                if not candidates:
                    continue
                collected += 1
                compromised = candidates[0]
                truth = constant_ground_truth(graph, 10.0)
                attacked = synthesize_snapshot(graph, ScenarioSpec(
                    ground_truth=truth,
                    noise_sigma=0.05,
                    attack=AttackSpec(
                        compromised=frozenset({compromised}),
                        mode="self-injection",
                        delta=5.0,
                    ),
                    seed=seed,
                ))
                report = detect(graph, attacked, params, det_params)
                if (
                    report.ranking[0] == compromised
                    and compromised in report.flagged_ids()
                ):
                    hits += 1
                clean = synthesize_snapshot(graph, ScenarioSpec(
                    ground_truth=truth, noise_sigma=0.05, seed=seed
                ))
                assert not detect(graph, clean, params, det_params).flagged_ids()
            assert hits >= 95, f"only {hits} of 100 scenarios detected"
        watch.check(5.0)


def test_criterion_8_cli_determinism(announce, tmp_path):
    with criterion(
        announce, 8,
        "generate/eval/sweep produce byte-identical outputs on repeat "
        "runs, including all 16 sweep CSVs and SVGs",
    ):
        fixture_dir = tmp_path / "fixture"
        assert main(["fixture", "--output-dir", str(fixture_dir)]) == 0
        graph_file = str(fixture_dir / "reference_graph.txt")
        scenario_file = str(fixture_dir / "reference_scenario.txt")
        with Stopwatch() as watch:
            pairs = [tmp_path / "gen_a.txt", tmp_path / "gen_b.txt"]
            for out in pairs:
                assert main(["generate", "--n", "20", "--p", "0.15",
                             "--seed", "42", "--out", str(out)]) == 0
            assert pairs[0].read_bytes() == pairs[1].read_bytes()

            pairs = [tmp_path / "eval_a.csv", tmp_path / "eval_b.csv"]
            for out in pairs:
                assert main(["eval", "--graph", graph_file,
                             "--scenario-file", scenario_file,
                             "--k", "1.0", "--alpha", "0.2",
                             "--format", "csv", "--out", str(out)]) == 0
            assert pairs[0].read_bytes() == pairs[1].read_bytes()

            sweep_dirs = [tmp_path / "sweep_a", tmp_path / "sweep_b"]
            for out_dir in sweep_dirs:
                assert main(["sweep", str(fixture_dir / "reference_sweep.txt"),
                             "--output-dir", str(out_dir)]) == 0
            first, second = (
                sorted(p.relative_to(d) for p in d.rglob("*") if p.is_file())
                for d in sweep_dirs
            )
            assert first == second
            assert sum(1 for p in first if p.suffix == ".csv") == 16
            assert sum(1 for p in first if p.suffix == ".svg") == 16
            for rel in first:
                a = (sweep_dirs[0] / rel).read_bytes()
                b = (sweep_dirs[1] / rel).read_bytes()
                assert a == b, f"{rel} differs between runs"
        watch.check(2.0)


def test_criterion_9_performance(announce):
    with criterion(
        announce, 9,
        "the 4x4 reference sweep and a 1000-node evaluation each finish "
        "in under a second",
    ):
        graph, scenario = reference_fixture()
        with Stopwatch() as sweep_watch:
            run_sweep_on(graph, scenario)
        sweep_watch.check(1.0)

        big = generate_random(n=1000, edge_probability=0.01, seed=1)
        snapshot = synthesize_snapshot(
            big, ScenarioSpec(ground_truth=constant_ground_truth(big, 10.0))
        )
        with Stopwatch() as eval_watch:
            report = full_report(big, snapshot, TrustParams(k=1.0, alpha=0.1))
        assert report.network_trust == 1.0
        eval_watch.check(1.0)
