"""End-to-end tests for the command-line interface.

Every test drives main() in process and asserts on exit codes plus
captured stdout/stderr, the same contract scripts and CI see.
"""

import json
import xml.etree.ElementTree as ElementTree
from dataclasses import replace
from importlib import resources

import pytest

from trustconnect.cli import main
from trustconnect.experiment import (
    reference_fixture,
    run_sweep_on,
    save_sweep_spec,
    reference_sweep_spec,
)
from trustconnect.graph import DependencyGraph, EcuNode, load_graph, save_graph
from trustconnect.snapshot import Snapshot, save_snapshot


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("TRUSTCONNECT_SEED", raising=False)


@pytest.fixture()
def fixture_dir(tmp_path):
    """Reference graph/scenario/sweep files written by the fixture command."""
    out = tmp_path / "fixture"
    assert main(["fixture", "--output-dir", str(out)]) == 0
    return out


def _tiny_graph_files(tmp_path):
    graph = DependencyGraph(
        nodes=(EcuNode(0, "E0", 0.5), EcuNode(1, "E1", 0.5)),
        edges=((0, 1),),
    )
    graph_path = tmp_path / "tiny_graph.txt"
    save_graph(graph, graph_path)
    return graph, graph_path


class TestGenerate:
    def test_same_seed_twice_is_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        args = ["generate", "--n", "20", "--p", "0.15", "--seed", "42"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_edge_probability_out_of_range_exits_2(self, tmp_path, capsys):
        rc = main(["generate", "--p", "1.5", "--out", str(tmp_path / "g.txt")])
        assert rc == 2
        assert "edge_probability" in capsys.readouterr().err

    def test_single_node_graph_is_valid(self, tmp_path):
        out = tmp_path / "one.txt"
        assert main(["generate", "--n", "1", "--out", str(out)]) == 0
        graph = load_graph(out)
        assert len(graph.nodes) == 1
        assert graph.edges == ()

    def test_default_path_under_output_dir(self, tmp_path, capsys):
        assert main(["generate", "--output-dir", str(tmp_path / "work")]) == 0
        assert (tmp_path / "work" / "graph.txt").exists()

    def test_prints_node_and_edge_counts(self, tmp_path, capsys):
        assert main(["generate", "--n", "5", "--p", "1.0",
                     "--out", str(tmp_path / "g.txt")]) == 0
        out = capsys.readouterr().out
        assert "5 nodes" in out
        assert "20 edges" in out

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        monkeypatch.setenv("TRUSTCONNECT_SEED", "42")
        assert main(["generate", "--out", str(a)]) == 0
        monkeypatch.delenv("TRUSTCONNECT_SEED")
        assert main(["generate", "--seed", "42", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_beats_env(self, tmp_path, monkeypatch):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        monkeypatch.setenv("TRUSTCONNECT_SEED", "1")
        assert main(["generate", "--seed", "42", "--out", str(a)]) == 0
        monkeypatch.delenv("TRUSTCONNECT_SEED")
        assert main(["generate", "--seed", "42", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_non_integer_env_seed_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TRUSTCONNECT_SEED", "not-a-number")
        rc = main(["generate", "--out", str(tmp_path / "g.txt")])
        assert rc == 2
        assert "TRUSTCONNECT_SEED" in capsys.readouterr().err


class TestEval:
    def test_clean_scenario_gives_unit_network_trust(self, fixture_dir, capsys):
        rc = main(["eval", "--graph", str(fixture_dir / "reference_graph.txt"),
                   "--format", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["network_trust"] == 1.0
        for ecu in report["ecus"]:
            assert ecu["trust"] == ecu["btv"]

    def test_matches_sweep_cell_byte_for_byte(self, fixture_dir, capsys):
        graph, scenario = reference_fixture()
        result = run_sweep_on(graph, scenario, k_values=(2.0,), alpha_values=(0.4,))
        expected = result.report(2.0, 0.4).to_csv()
        rc = main(["eval", "--graph", str(fixture_dir / "reference_graph.txt"),
                   "--scenario-file", str(fixture_dir / "reference_scenario.txt"),
                   "--k", "2.0", "--alpha", "0.4", "--format", "csv"])
        assert rc == 0
        assert capsys.readouterr().out == expected

    def test_missing_snapshot_entry_exits_2_naming_edge(self, tmp_path, capsys):
        _, graph_path = _tiny_graph_files(tmp_path)
        snap_path = tmp_path / "partial.txt"
        save_snapshot(Snapshot(observed={0: 1.0, 1: 1.0}, inferred={}), snap_path)
        rc = main(["eval", "--graph", str(graph_path), "--snapshot", str(snap_path)])
        assert rc == 2
        assert "(0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--k", "--alpha", "--c0"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_param_exits_2_naming_it(self, fixture_dir, capsys, flag, value):
        rc = main(["eval", "--graph", str(fixture_dir / "reference_graph.txt"),
                   flag, value])
        assert rc == 2
        assert f"{flag[2:]} must be finite" in capsys.readouterr().err

    def test_non_finite_snapshot_value_exits_2_with_line(self, tmp_path, capsys):
        _, graph_path = _tiny_graph_files(tmp_path)
        snap_path = tmp_path / "nan.txt"
        snap_path.write_text(
            "trustconnect-snapshot v1\nobs 0 nan\nobs 1 1.0\ninf 0 1 1.0\n"
        )
        rc = main(["eval", "--graph", str(graph_path), "--snapshot", str(snap_path)])
        assert rc == 2
        assert f"{snap_path}:2: non-finite value 'nan'" in capsys.readouterr().err

    def test_snapshot_excludes_scenario_flags(self, tmp_path, capsys):
        _, graph_path = _tiny_graph_files(tmp_path)
        snap_path = tmp_path / "snap.txt"
        save_snapshot(
            Snapshot(observed={0: 1.0, 1: 1.0}, inferred={(0, 1): 1.0}), snap_path
        )
        rc = main(["eval", "--graph", str(graph_path),
                   "--snapshot", str(snap_path), "--truth-constant", "5.0"])
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_inline_flag_overrides_scenario_file_with_warning(
        self, fixture_dir, capsys
    ):
        rc = main(["eval", "--graph", str(fixture_dir / "reference_graph.txt"),
                   "--scenario-file", str(fixture_dir / "reference_scenario.txt"),
                   "--delta", "9.0"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "override" in err
        assert "--delta" in err

    def test_attack_mode_without_attack_exits_2(self, fixture_dir, capsys):
        rc = main(["eval", "--graph", str(fixture_dir / "reference_graph.txt"),
                   "--attack-mode", "self-injection"])
        assert rc == 2
        assert "--attack-nodes" in capsys.readouterr().err

    def test_missing_graph_file_exits_1(self, tmp_path, capsys):
        rc = main(["eval", "--graph", str(tmp_path / "absent.txt")])
        assert rc == 1

    def test_out_writes_report_file(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "report.txt"
        rc = main(["eval", "--graph", str(fixture_dir / "reference_graph.txt"),
                   "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8").startswith("trustconnect-report v1")

    def test_svg_sidecar_is_well_formed(self, fixture_dir, tmp_path, capsys):
        svg = tmp_path / "chart.svg"
        rc = main(["eval", "--graph", str(fixture_dir / "reference_graph.txt"),
                   "--svg", str(svg)])
        assert rc == 0
        root = ElementTree.fromstring(svg.read_text(encoding="utf-8"))
        assert root.tag.endswith("svg")

    def test_stdout_is_byte_deterministic(self, fixture_dir, capsys):
        args = ["eval", "--graph", str(fixture_dir / "reference_graph.txt"),
                "--scenario-file", str(fixture_dir / "reference_scenario.txt")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestSweep:
    def test_runs_spec_and_reports_file_count(self, fixture_dir, tmp_path, capsys):
        spec = replace(reference_sweep_spec(), k_values=(1.0,), alpha_values=(0.2,))
        spec_path = fixture_dir / "small_sweep.txt"
        save_sweep_spec(spec, spec_path)
        out_dir = tmp_path / "cells"
        rc = main(["sweep", str(spec_path), "--output-dir", str(out_dir)])
        assert rc == 0
        assert "wrote 3 files" in capsys.readouterr().out
        assert (out_dir / "manifest.txt").exists()
        assert (out_dir / "sweep_k1_a0.2.csv").exists()
        assert (out_dir / "sweep_k1_a0.2.svg").exists()

    def test_missing_spec_file_exits_1(self, tmp_path, capsys):
        rc = main(["sweep", str(tmp_path / "absent.txt"),
                   "--output-dir", str(tmp_path)])
        assert rc == 1


class TestDetect:
    def test_clean_snapshot_has_no_flags(self, fixture_dir, capsys):
        rc = main(["detect", "--graph", str(fixture_dir / "reference_graph.txt"),
                   "--format", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert all(not ecu["flagged"] for ecu in report["ecus"])

    def test_injected_node_ranks_first_and_is_flagged(self, fixture_dir, capsys):
        rc = main(["detect", "--graph", str(fixture_dir / "reference_graph.txt"),
                   "--truth-constant", "10.0", "--attack-nodes", "2",
                   "--attack-mode", "self-injection", "--delta", "5.0",
                   "--format", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ranking"][0] == 2
        by_id = {ecu["id"]: ecu for ecu in report["ecus"]}
        assert by_id[2]["flagged"]

    def test_non_finite_evidence_threshold_exits_2(self, fixture_dir, capsys):
        rc = main(["detect", "--graph", str(fixture_dir / "reference_graph.txt"),
                   "--evidence-threshold", "inf"])
        assert rc == 2
        assert "evidence_threshold must be finite" in capsys.readouterr().err

    def test_weight_threshold_out_of_range_exits_2(self, fixture_dir, capsys):
        rc = main(["detect", "--graph", str(fixture_dir / "reference_graph.txt"),
                   "--weight-threshold", "1.2"])
        assert rc == 2
        assert "weight_threshold" in capsys.readouterr().err

    def test_fail_on_flag_exits_3_when_flagged(self, fixture_dir, capsys):
        rc = main(["detect", "--graph", str(fixture_dir / "reference_graph.txt"),
                   "--truth-constant", "10.0", "--attack-nodes", "2",
                   "--attack-mode", "self-injection", "--delta", "5.0",
                   "--fail-on-flag"])
        assert rc == 3

    def test_fail_on_flag_clean_exits_0(self, fixture_dir, capsys):
        rc = main(["detect", "--graph", str(fixture_dir / "reference_graph.txt"),
                   "--fail-on-flag"])
        assert rc == 0


class TestFixture:
    def test_writes_packaged_reference_files(self, fixture_dir):
        data = resources.files("trustconnect") / "data"
        for name in ("reference_graph.txt", "reference_scenario.txt"):
            assert (fixture_dir / name).read_bytes() == (data / name).read_bytes()

    def test_sweep_spec_is_loadable(self, fixture_dir):
        from trustconnect.experiment import load_sweep_spec

        spec = load_sweep_spec(fixture_dir / "reference_sweep.txt")
        assert spec.truth_constant == 10.0
        assert spec.k_values == (0.1, 0.5, 1.0, 2.0)
        assert spec.alpha_values == (0.05, 0.1, 0.2, 0.4)


class TestParsing:
    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["generate", "--bogus"]) == 2

    @pytest.mark.parametrize(
        "command", ["generate", "eval", "sweep", "detect", "fixture"]
    )
    def test_help_exits_0_and_lists_global_flags(self, command, capsys):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--format" in out
        assert "--seed" in out
        assert "--output-dir" in out
