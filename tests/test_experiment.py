"""Sweep, fixture, gap-ordering, and figure-emission tests."""

import dataclasses
import hashlib
import math
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

import trustconnect.trust as trust_module
from trustconnect.errors import ParseError
from trustconnect.graph import (
    DependencyGraph,
    EcuNode,
    generate_random,
    validate,
)
from trustconnect.snapshot import (
    ATTACK_MODES,
    AttackSpec,
    ScenarioSpec,
    constant_ground_truth,
)
from trustconnect.experiment import (
    DEFAULT_ALPHA_VALUES,
    DEFAULT_K_VALUES,
    MANIFEST_HEADER,
    RandomGraphSpec,
    SweepSpec,
    check_gap_ordering,
    emit_figure_data,
    graph_digest,
    load_sweep_spec,
    parse_sweep_spec,
    reference_fixture,
    reference_sweep_spec,
    relative_gap,
    run_sweep,
    run_sweep_on,
    save_sweep_spec,
    sweep_spec_to_text,
)
from trustconnect.trust import MODES, TrustParams, full_report

# Fingerprints of the committed fixture files; a change here is a
# deliberate fixture version bump, never an accident.
REFERENCE_GRAPH_SHA256 = (
    "ee87901e978a5cc4718f4d4ace98f441407dc37f66f120fff077f30aa4c20e59"
)
REFERENCE_SCENARIO_SHA256 = (
    "a14b8d6fc3c357f72ede9ece4474e55f2ea3c83126eb83f1809303e2dbb11646"
)


def clean_scenario(graph):
    return ScenarioSpec(ground_truth=constant_ground_truth(graph, 5.0))


def nested_loop_gap_check(result, resilient, exposed):
    """Reference transcription of the gap check: grid loops, one lookup per use.

    Returns [((k, alpha), bound_ok, ordering_ok, ordering_vacuous,
    resilient_gaps, exposed_gaps)] in k-major, alpha-minor order.
    """
    def entry(report, i):
        return next(e for e in report.entries if e.id == i)

    cells = []
    for k in result.k_values:
        for alpha in result.alpha_values:
            report = result.reports[(k, alpha)]
            bound_ok = all(
                abs(e.eatv - e.btv) <= (1.0 - e.epsilon) * abs(e.btv - e.trust)
                + 1e-12 * max(1.0, abs(e.btv), abs(e.trust))
                for e in report.entries
            )
            moved = {i: abs(entry(report, i).btv - entry(report, i).trust) > 0
                     for i in (*resilient, *exposed)}
            ordering_ok = True
            checked_any = False
            for r in resilient:
                for e in exposed:
                    if not (moved[r] or moved[e]):
                        continue
                    checked_any = True
                    if not relative_gap(entry(report, r)) < relative_gap(entry(report, e)):
                        ordering_ok = False
            cells.append((
                (k, alpha),
                bound_ok,
                ordering_ok if checked_any else False,
                not checked_any,
                {i: relative_gap(entry(report, i)) for i in resilient},
                {i: relative_gap(entry(report, i)) for i in exposed},
            ))
    return cells


@st.composite
def gap_check_cases(draw):
    """A small random sweep plus watched sets, which may be empty or overlap.

    Each sampled list puts a value that moves trust first, because
    hypothesis favours early elements and a still cell is vacuous.
    """
    graph = generate_random(
        n=draw(st.integers(min_value=1, max_value=12)),
        edge_probability=draw(st.sampled_from([0.5, 0.2, 1.0, 0.0])),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    ids = st.sampled_from(graph.node_ids)
    mode = draw(st.sampled_from((*ATTACK_MODES, None)))
    attack = None if mode is None else AttackSpec(
        compromised=draw(st.frozensets(ids, min_size=1)),
        mode=mode,
        delta=draw(st.sampled_from([3.0, 0.5, 0.0])),
    )
    scenario = ScenarioSpec(
        ground_truth=constant_ground_truth(graph, draw(st.sampled_from([5.0, 1.0, 0.0]))),
        noise_sigma=draw(st.sampled_from([1.5, 0.0])),
        attack=attack,
        seed=draw(st.integers(min_value=0, max_value=99)),
    )
    axis = st.lists(st.sampled_from([0.0, 0.1, 0.5, 2.0]), min_size=1, max_size=3,
                    unique=True).map(sorted)
    result = run_sweep_on(graph, scenario, k_values=draw(axis), alpha_values=draw(axis),
                          mode=draw(st.sampled_from(MODES)))
    watched = st.lists(ids, max_size=3).map(tuple)
    return result, draw(watched), draw(watched)


def one_sided_case(resilient, exposed):
    """Node 1 has no out-edges, so its trust never moves while node 0's does."""
    graph = DependencyGraph(
        nodes=(EcuNode(id=0, label="E0", epsilon=0.5), EcuNode(id=1, label="E1", epsilon=0.5)),
        edges=((0, 1),),
    )
    scenario = ScenarioSpec(ground_truth=constant_ground_truth(graph, 1.0), noise_sigma=1.5)
    result = run_sweep_on(graph, scenario, k_values=(1.0,), alpha_values=(0.1,))
    return result, resilient, exposed


class TestSweepSpecValidation:
    def test_requires_exactly_one_graph_source(self):
        with pytest.raises(ValueError):
            SweepSpec()
        with pytest.raises(ValueError):
            SweepSpec(
                graph_file="g.txt",
                graph_random=RandomGraphSpec(n=5, edge_probability=0.2),
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_values": ()},
            {"k_values": (0.5, 0.1)},
            {"k_values": (0.1, 0.1)},
            {"alpha_values": (-0.1, 0.2)},
            {"mode": "iterative"},
            {"noise_sigma": -1.0},
            {"noise_sigma": math.nan},
            {"truth_constant": math.inf},
            {"truth_overrides": ((0, 1.0), (1, -math.inf))},
            {"k_values": (0.1, math.nan)},
            {"alpha_values": (math.inf,)},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SweepSpec(graph_file="g.txt", **kwargs)

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda v: ScenarioSpec(ground_truth={0: 1.0}, seed=v), "seed"),
            (lambda v: SweepSpec(graph_file="g.txt", scenario_seed=v), "scenario_seed"),
            (lambda v: RandomGraphSpec(n=3, edge_probability=0.5, seed=v), "seed"),
        ],
        ids=["ScenarioSpec", "SweepSpec", "RandomGraphSpec"],
    )
    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_seeds_must_be_ints(self, build, field, value):
        # a float or bool seed would be written out and then rejected by the reader
        with pytest.raises(ValueError, match=f"^{field} must be an int"):
            build(value)


class TestRunSweep:
    def test_degenerate_grid_equals_direct_report(self):
        graph, scenario = reference_fixture()
        result = run_sweep_on(graph, scenario, k_values=(1.0,), alpha_values=(0.2,))
        assert set(result.reports) == {(1.0, 0.2)}
        direct = full_report(graph, result.snapshot, TrustParams(k=1.0, alpha=0.2))
        cell = result.reports[(1.0, 0.2)]
        assert cell.entries == direct.entries

    def test_clean_scenario_keeps_trust_at_baseline_in_every_cell(self):
        graph = generate_random(n=12, edge_probability=0.25, seed=6)
        result = run_sweep_on(graph, clean_scenario(graph))
        for report in result.reports.values():
            for e in report.entries:
                assert e.trust == e.btv

    def test_default_grid_has_16_cells_sharing_snapshot(self):
        graph, scenario = reference_fixture()
        result = run_sweep_on(graph, scenario)
        assert len(result.reports) == 16
        assert result.graph_sha256 == graph_digest(graph)
        assert list(result.reports) == [
            (k, alpha) for k in DEFAULT_K_VALUES for alpha in DEFAULT_ALPHA_VALUES
        ]

    def test_alpha_monotone_per_fixed_k_on_fixture(self):
        graph, scenario = reference_fixture()
        result = run_sweep_on(graph, scenario)
        for k in result.k_values:
            for lo, hi in zip(result.alpha_values, result.alpha_values[1:]):
                low, high = result.reports[(k, lo)], result.reports[(k, hi)]
                assert all(
                    a.trust <= b.trust for a, b in zip(low.entries, high.entries)
                )

    def test_k_growth_never_raises_trust_on_fixture(self):
        graph, scenario = reference_fixture()
        result = run_sweep_on(graph, scenario)
        for alpha in result.alpha_values:
            for lo, hi in zip(result.k_values, result.k_values[1:]):
                low, high = result.reports[(lo, alpha)], result.reports[(hi, alpha)]
                assert all(
                    b.trust <= a.trust for a, b in zip(low.entries, high.entries)
                )

    def test_cells_are_independent_of_grid_shape(self):
        graph, scenario = reference_fixture()
        full = run_sweep_on(graph, scenario, k_values=(0.1, 2.0), alpha_values=(0.05, 0.4))
        single = run_sweep_on(graph, scenario, k_values=(2.0,), alpha_values=(0.4,))
        assert full.reports[(2.0, 0.4)] == single.reports[(2.0, 0.4)]

    def test_fixed_point_sweep_converges_on_fixture(self):
        graph, scenario = reference_fixture()
        result = run_sweep_on(
            graph, scenario, k_values=(2.0,), alpha_values=(0.4,), mode="fixed-point"
        )
        assert result.reports[(2.0, 0.4)].converged


class TestReferenceFixture:
    def test_loads_and_validates(self):
        graph, scenario = reference_fixture()
        assert validate(graph) == []
        assert len(graph.nodes) == 20
        assert [n.label for n in graph.nodes] == [f"E{i}" for i in range(20)]
        assert set(scenario.ground_truth) == set(graph.node_ids)

    def test_pinned_topology(self):
        graph, _ = reference_fixture()
        adjacency = {n.id: [j for i, j in graph.edges if i == n.id] for n in graph.nodes}
        assert adjacency[2] == [1, 4, 5, 11, 13, 17]
        assert len(adjacency[5]) == 3
        assert len(adjacency[13]) == 4
        assert len(adjacency[18]) == 4

    def test_pinned_epsilons(self):
        graph, _ = reference_fixture()
        epsilons = {n.id: n.epsilon for n in graph.nodes}
        for i in (5, 13, 18):
            assert epsilons[i] >= 0.9
        for i in (2, 9):
            assert epsilons[i] <= 0.3

    def test_attack_targets_low_epsilon_neighbors_of_e2(self):
        graph, scenario = reference_fixture()
        assert scenario.attack is not None
        assert scenario.attack.mode == "inference-corruption"
        neighbors = {j for i, j in graph.edges if i == 2}
        epsilons = {n.id: n.epsilon for n in graph.nodes}
        assert scenario.attack.compromised <= neighbors
        assert all(epsilons[i] <= 0.3 for i in scenario.attack.compromised)

    def test_committed_bytes_have_not_drifted(self):
        data = resources.files("trustconnect") / "data"
        graph_digest_now = hashlib.sha256(
            (data / "reference_graph.txt").read_bytes()
        ).hexdigest()
        scenario_digest_now = hashlib.sha256(
            (data / "reference_scenario.txt").read_bytes()
        ).hexdigest()
        assert graph_digest_now == REFERENCE_GRAPH_SHA256
        assert scenario_digest_now == REFERENCE_SCENARIO_SHA256


class TestGapOrdering:
    def test_fixture_passes_every_default_cell(self):
        graph, scenario = reference_fixture()
        checks = check_gap_ordering(run_sweep_on(graph, scenario))
        assert all(cell.passed for cell in checks.values())
        assert len(checks) == 16
        for cell in checks.values():
            assert cell.bound_ok
            assert cell.ordering_ok
            assert not cell.ordering_vacuous
            assert max(cell.resilient_gaps.values()) < min(cell.exposed_gaps.values())

    def test_clean_scenario_is_vacuous(self):
        graph, _ = reference_fixture()
        checks = check_gap_ordering(run_sweep_on(graph, clean_scenario(graph)))
        assert all(cell.passed for cell in checks.values())
        for cell in checks.values():
            assert cell.ordering_vacuous
            assert set(cell.resilient_gaps.values()) == {0.0}

    def test_epsilon_one_node_shows_zero_gap_under_attack(self):
        nodes = tuple(
            EcuNode(id=i, label=f"E{i}", epsilon=e)
            for i, e in [(0, 1.0), (1, 0.1), (2, 0.1)]
        )
        graph = DependencyGraph(nodes=nodes, edges=((0, 1), (2, 1)))
        scenario = ScenarioSpec(
            ground_truth=constant_ground_truth(graph, 3.0),
            attack=AttackSpec(
                compromised=frozenset({1}), mode="inference-corruption", delta=5.0
            ),
        )
        result = run_sweep_on(graph, scenario, k_values=(1.0,), alpha_values=(0.1,))
        cell = check_gap_ordering(result, resilient=(0,), exposed=(2,))[(1.0, 0.1)]
        assert cell.resilient_gaps[0] == 0.0
        assert cell.exposed_gaps[2] > 0.0
        assert cell.ordering_ok

    def test_unknown_ids_rejected(self):
        graph, scenario = reference_fixture()
        result = run_sweep_on(graph, scenario, k_values=(1.0,), alpha_values=(0.1,))
        with pytest.raises(ValueError):
            check_gap_ordering(result, resilient=(99,))

    def test_cell_lookup(self):
        graph, scenario = reference_fixture()
        checks = check_gap_ordering(run_sweep_on(graph, scenario))
        assert list(checks)[0] == (0.1, 0.05)
        assert checks[(0.1, 0.05)].passed
        with pytest.raises(KeyError):
            checks[(9.9, 9.9)]

    @pytest.mark.filterwarnings("ignore::trustconnect.trust.NonConvergenceWarning")
    @pytest.mark.parametrize("seed", range(5))
    def test_bound_slack_scales_with_diverged_values(self, seed):
        graph = generate_random(n=8, edge_probability=0.5, seed=seed)
        scenario = ScenarioSpec(ground_truth=constant_ground_truth(graph, 5.0),
                                noise_sigma=1.5, seed=seed)
        result = run_sweep_on(graph, scenario, k_values=(0.5,), alpha_values=(2.0,),
                              mode="fixed-point")
        report = result.reports[(0.5, 2.0)]
        assert not report.converged
        assert max(abs(e.trust) for e in report.entries) > 1e30
        assert check_gap_ordering(result, (0,), (1,))[(0.5, 2.0)].bound_ok

    def test_bound_still_catches_a_small_break_near_one(self):
        graph = DependencyGraph(
            nodes=(EcuNode(id=0, label="E0", epsilon=0.5), EcuNode(id=1, label="E1", epsilon=0.5)),
            edges=((0, 1),),
        )
        result = run_sweep_on(graph, clean_scenario(graph), k_values=(1.0,), alpha_values=(0.1,))
        report = result.reports[(1.0, 0.1)]
        entry, still = report.entries
        assert entry.btv == entry.trust == entry.eatv == pytest.approx(1.05)
        assert check_gap_ordering(result, (0,), (1,))[(1.0, 0.1)].bound_ok
        moved = dataclasses.replace(entry, eatv=entry.eatv + 1e-6)
        report = dataclasses.replace(report, entries=(moved, still))
        broken = dataclasses.replace(result, reports={(1.0, 0.1): report})
        assert not check_gap_ordering(broken, (0,), (1,))[(1.0, 0.1)].bound_ok

    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("ignore::trustconnect.trust.NonConvergenceWarning")
    @given(gap_check_cases())
    @example(one_sided_case(resilient=(1,), exposed=(0,)))
    @example(one_sided_case(resilient=(0,), exposed=(1,)))
    def test_matches_nested_loop_reference(self, case):
        result, resilient, exposed = case
        checks = check_gap_ordering(result, resilient, exposed)
        reference = nested_loop_gap_check(result, resilient, exposed)
        assert list(checks) == [cell for cell, *_ in reference]
        for cell, *fields in reference:
            c = checks[cell]
            assert [c.bound_ok, c.ordering_ok, c.ordering_vacuous,
                    c.resilient_gaps, c.exposed_gaps] == fields


class TestEmitFigureData:
    def test_one_by_one_grid_writes_three_files(self, tmp_path):
        graph, scenario = reference_fixture()
        result = run_sweep_on(graph, scenario, k_values=(1.0,), alpha_values=(0.2,))
        written = emit_figure_data(result, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert names == ["manifest.txt", "sweep_k1_a0.2.csv", "sweep_k1_a0.2.svg"]

    def test_default_grid_writes_16_cells_and_manifest(self, tmp_path):
        graph, scenario = reference_fixture()
        result = run_sweep_on(graph, scenario)
        written = emit_figure_data(result, tmp_path)
        assert len(written) == 33
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert manifest[0] == MANIFEST_HEADER
        assert manifest[1] == f"graph_sha256 {result.graph_sha256}"
        cell_lines = [l for l in manifest if l.startswith("cell ")]
        assert len(cell_lines) == 16
        assert cell_lines[0] == (
            "cell k=0.1 alpha=0.05 csv=sweep_k0.1_a0.05.csv svg=sweep_k0.1_a0.05.svg"
        )

    def test_csv_reload_reproduces_report_exactly(self, tmp_path):
        graph, scenario = reference_fixture()
        result = run_sweep_on(graph, scenario, k_values=(0.5,), alpha_values=(0.1,))
        emit_figure_data(result, tmp_path)
        report = result.reports[(0.5, 0.1)]
        lines = (tmp_path / "sweep_k0.5_a0.1.csv").read_text().splitlines()
        assert lines[0] == "id,label,epsilon,btv,trust,eatv"
        by_id = {e.id: e for e in report.entries}
        for line in lines[1:]:
            fields = line.split(",")
            entry = by_id[int(fields[0])]
            assert fields[1] == entry.label
            assert float(fields[2]) == entry.epsilon
            assert float(fields[3]) == entry.btv
            assert float(fields[4]) == entry.trust
            assert float(fields[5]) == entry.eatv

    def test_a_sweep_builds_no_entries_and_four_csv_heads(self, tmp_path):
        # cells run k-major, so each alpha's heads are built once and hit by the next three k
        trust_module._csv_heads.cache_clear()
        result = run_sweep_on(*reference_fixture())
        emit_figure_data(result, tmp_path)
        info = trust_module._csv_heads.cache_info()
        assert (info.misses, info.hits) == (4, 12)
        assert not any("entries" in vars(report) for report in result.reports.values())

    def test_byte_identical_across_runs(self, tmp_path):
        graph, scenario = reference_fixture()
        blobs = []
        for name in ("a", "b"):
            result = run_sweep_on(graph, scenario)
            out = tmp_path / name
            written = emit_figure_data(result, out)
            blobs.append({p.name: p.read_bytes() for p in written})
        assert blobs[0] == blobs[1]


class TestSweepSpecFiles:
    def test_round_trip_with_random_source(self):
        spec = SweepSpec(
            graph_random=RandomGraphSpec(n=10, edge_probability=0.3, seed=4),
            truth_constant=2.0,
            truth_overrides=((3, 9.0),),
            noise_sigma=0.1,
            attack=AttackSpec(compromised=frozenset({1, 2}), mode="both", delta=3.0),
            scenario_seed=77,
            k_values=(0.1, 1.0),
            alpha_values=(0.2,),
            mode="fixed-point",
        )
        text = sweep_spec_to_text(spec)
        assert text.startswith("trustconnect-sweep v1\n")
        assert parse_sweep_spec(text) == spec

    def test_relative_graph_file_resolves_against_spec_dir(self, tmp_path):
        graph, _ = reference_fixture()
        from trustconnect.graph import save_graph

        save_graph(graph, tmp_path / "net.txt")
        spec_path = tmp_path / "sweep.txt"
        save_sweep_spec(SweepSpec(graph_file="net.txt"), spec_path)
        loaded = load_sweep_spec(spec_path)
        assert loaded.graph_file == str(tmp_path / "net.txt")
        result = run_sweep(loaded)
        assert result.graph == graph

    @pytest.mark.parametrize("graph_file", ["dir#1/g.txt", "my dir/g.txt", ""])
    def test_writer_rejects_graph_file_that_does_not_read_back(self, graph_file):
        with pytest.raises(ValueError, match="graph_file"):
            sweep_spec_to_text(SweepSpec(graph_file=graph_file))

    def test_spec_in_directory_with_space_loads_and_runs(self, tmp_path):
        from trustconnect.graph import save_graph

        graph, _ = reference_fixture()
        spec_dir = tmp_path / "my specs"
        spec_dir.mkdir()
        save_graph(graph, spec_dir / "net.txt")
        spec_path = spec_dir / "sweep.txt"
        save_sweep_spec(reference_sweep_spec("net.txt"), spec_path)
        loaded = load_sweep_spec(spec_path)
        assert loaded.graph_file == str(spec_dir / "net.txt")
        assert run_sweep(loaded).graph == graph

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_sweep_spec("k_values 0.1\n")
        with pytest.raises(ParseError):
            parse_sweep_spec("trustconnect-sweep v1\nmode a\nmode b\n")
        with pytest.raises(ParseError):
            parse_sweep_spec("trustconnect-sweep v1\nbogus 1\n")
        with pytest.raises(ParseError):
            # no graph source at all
            parse_sweep_spec("trustconnect-sweep v1\nk_values 0.1\n")
        with pytest.raises(ParseError):
            parse_sweep_spec(
                "trustconnect-sweep v1\ngraph_random n=5 p=0.1 bogus=1\n"
            )

    def test_reference_sweep_spec_mirrors_bundled_scenario(self):
        _, scenario = reference_fixture()
        spec = reference_sweep_spec()
        assert spec.graph_file == "reference_graph.txt"
        assert spec.truth_constant == 10.0
        assert spec.truth_overrides == ()
        assert spec.attack == scenario.attack
        assert spec.scenario_seed == scenario.seed
        assert spec.k_values == DEFAULT_K_VALUES
        assert spec.alpha_values == DEFAULT_ALPHA_VALUES

    def test_run_sweep_from_generated_source(self):
        spec = SweepSpec(
            graph_random=RandomGraphSpec(n=8, edge_probability=0.3, seed=12),
            truth_constant=1.0,
            k_values=(1.0,),
            alpha_values=(0.1,),
        )
        result = run_sweep(spec)
        assert result.graph == generate_random(n=8, edge_probability=0.3, seed=12)
        assert set(result.reports) == {(1.0, 0.1)}
