"""End-to-end tests for the command-line interface.

Every test drives main() in process and asserts on exit codes plus
captured stdout/stderr, the same contract scripts and CI see.
"""

import functools
import gc
import io
import json
import re
import tempfile
import xml.etree.ElementTree as ElementTree
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trustconnect.cli import build_parser, main
from trustconnect.experiment import (
    reference_fixture,
    run_sweep_on,
    save_sweep_spec,
    reference_sweep_spec,
    sweep_spec_to_text,
)
from trustconnect.graph import (
    DependencyGraph, EcuNode, generate_random, load_graph, save_graph, to_text as graph_to_text,
)
from trustconnect.snapshot import (
    Snapshot, save_snapshot, scenario_to_text, synthesize_snapshot, to_text as snapshot_to_text,
)


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


# each inline scenario flag, with a value it accepts on the reference fixture
INLINE_SCENARIO_FLAGS = [
    ("--truth-constant", "5.0"), ("--noise-sigma", "0.5"), ("--attack-nodes", "2"),
    ("--attack-mode", "both"), ("--delta", "9.0"), ("--scenario-seed", "3"),
]


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
        expected = result.reports[(2.0, 0.4)].to_csv()
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

    @pytest.mark.parametrize("command", ["eval", "detect"])
    def test_snapshot_records_the_graph_lacks_exit_2(self, fixture_dir, tmp_path, capsys,
                                                      command):
        graph, scenario = reference_fixture()
        snap_path = tmp_path / "extra.txt"
        save_snapshot(synthesize_snapshot(graph, scenario), snap_path)
        args = [command, "--graph", str(fixture_dir / "reference_graph.txt"),
                "--snapshot", str(snap_path)]
        assert main(args) == 0
        capsys.readouterr()
        with open(snap_path, "a", encoding="utf-8") as snap:
            snap.write("obs 999 5.0\ninf 998 999 1.0\n")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "observed value for unknown node 999" in err
        assert "inferred value for unknown edge (998, 999)" in err

    @pytest.mark.parametrize("command", ["eval", "detect"])
    def test_snapshot_of_other_edges_at_the_graphs_count_exits_2_naming_both(
        self, fixture_dir, tmp_path, capsys, command
    ):
        graph_path, snap_path = fixture_dir / "reference_graph.txt", tmp_path / "snap.txt"
        save_snapshot(synthesize_snapshot(*reference_fixture()), snap_path)
        text = graph_path.read_text(encoding="utf-8")
        assert text.endswith("\nedge 19 16\n")
        graph_path.write_text(text.replace("\nedge 19 16\n", "\nedge 19 17\n"), encoding="utf-8")
        assert main([command, "--graph", str(graph_path), "--snapshot", str(snap_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"trustconnect: error: {snap_path} does not match {graph_path}: "
            "missing inferred value for edge (19, 17); inferred value for unknown edge (19, 16)\n"
        )

    @pytest.mark.parametrize("flag", ["--k", "--alpha", "--c0"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_param_exits_2_naming_it(self, fixture_dir, capsys, flag, value):
        rc = main(["eval", "--graph", str(fixture_dir / "reference_graph.txt"),
                   flag, value])
        assert rc == 2
        assert f"{flag[2:]} must be finite" in capsys.readouterr().err

    def test_non_finite_delta_exits_2_naming_it(self, fixture_dir, capsys):
        rc = main(["eval", "--graph", str(fixture_dir / "reference_graph.txt"),
                   "--truth-constant", "1", "--attack-nodes", "2", "--delta", "nan"])
        assert rc == 2
        assert "delta must be finite, got nan" in capsys.readouterr().err

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
        for flag, value in INLINE_SCENARIO_FLAGS:
            rc = main(["eval", "--graph", str(graph_path),
                       "--snapshot", str(snap_path), flag, value])
            assert rc == 2, flag
            assert "mutually exclusive" in capsys.readouterr().err, flag

    def test_inline_flag_overrides_scenario_file_with_warning(
        self, fixture_dir, capsys
    ):
        scenario = fixture_dir / "reference_scenario.txt"
        for flag, value in INLINE_SCENARIO_FLAGS:
            rc = main(["eval", "--graph", str(fixture_dir / "reference_graph.txt"),
                       "--scenario-file", str(scenario), flag, value])
            assert rc == 0, flag
            assert capsys.readouterr().err == (
                f"warning: inline scenario flags override {scenario}: {flag}\n"
            )

    def test_scenario_file_that_does_not_match_the_graph_exits_2_naming_both(
        self, fixture_dir, tmp_path, capsys
    ):
        graph_path = str(fixture_dir / "reference_graph.txt")
        reference = (fixture_dir / "reference_scenario.txt").read_text(encoding="utf-8")
        cases = {
            "unknown.txt": (reference + "truth 999 1.0\n", "scenario references unknown node ids [999]"),
            "missing.txt": (reference.replace("truth 0 ", "# truth 0 "),
                            "scenario is missing ground truth for nodes [0]"),
            "attack.txt": (reference.replace(" 1,4,11", " 1,999"),
                           "attack references unknown node ids [999]"),
        }
        for name, (text, message) in cases.items():
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            for command in ("eval", "detect"):
                assert main([command, "--graph", graph_path, "--scenario-file", str(path)]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == (
                    f"trustconnect: error: {path} does not match {graph_path}: {message}\n"
                )

    @pytest.mark.parametrize("flag, value, message", [
        ("--noise-sigma", "-1", "noise_sigma must be >= 0, got -1.0"),
        ("--delta", "-2", "delta must be >= 0, got -2.0"),
    ])
    def test_an_inline_flags_own_error_is_not_blamed_on_the_scenario_file(
        self, fixture_dir, capsys, flag, value, message
    ):
        rc = main(["eval", "--graph", str(fixture_dir / "reference_graph.txt"),
                   "--scenario-file", str(fixture_dir / "reference_scenario.txt"), flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.endswith(f"trustconnect: error: {message}\n")
        assert "does not match" not in err

    def test_ids_from_inline_flags_keep_their_message(self, fixture_dir, capsys):
        scenario = str(fixture_dir / "reference_scenario.txt")
        for extra in ([], ["--scenario-file", scenario]):
            rc = main(["eval", "--graph", str(fixture_dir / "reference_graph.txt"),
                       "--attack-nodes", "999", *extra])
            assert rc == 2
            assert capsys.readouterr().err.endswith(
                "trustconnect: error: attack references unknown node ids [999]\n")

    def test_a_scenario_whose_values_overflow_exits_2_naming_both(
        self, fixture_dir, tmp_path, capsys
    ):
        graph_path = str(fixture_dir / "reference_graph.txt")
        reference = (fixture_dir / "reference_scenario.txt").read_text(encoding="utf-8")
        clean = reference.replace("attack inference-corruption 4.0 1,4,11\n", "")
        cases = {
            "noise.txt": (reference.replace("noise_sigma 0.0", "noise_sigma 1e308"),
                          "non-finite inferred value -inf for edge (1, 3)"),
            "truth.txt": (clean.replace("truth 1 10.0", "truth 1 1.7e308")
                          + "attack self-injection 1e308 1\n",
                          "non-finite observed value inf for node 1"),
        }
        for name, (text, message) in cases.items():
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            for command in ("eval", "detect"):
                assert main([command, "--graph", graph_path, "--scenario-file", str(path)]) == 2
                assert capsys.readouterr() == ("", (
                    f"trustconnect: error: {path} does not match {graph_path}: {message}\n"))

    def test_an_inline_noise_sigma_that_overflows_keeps_its_message(self, fixture_dir, capsys):
        scenario = str(fixture_dir / "reference_scenario.txt")
        for command in ("eval", "detect"):
            rc = main([command, "--graph", str(fixture_dir / "reference_graph.txt"),
                       "--scenario-file", scenario, "--noise-sigma", "1e308"])
            assert rc == 2
            assert capsys.readouterr() == ("", (
                f"warning: inline scenario flags override {scenario}: --noise-sigma\n"
                "trustconnect: error: non-finite inferred value -inf for edge (1, 3)\n"))

    def test_a_warning_is_one_line_on_stderr(self, fixture_dir, capsys):
        rc = main(["eval", "--graph", str(fixture_dir / "reference_graph.txt"),
                   "--scenario-file", str(fixture_dir / "reference_scenario.txt"),
                   "--mode", "fixed-point", "--alpha", "0.6"])
        assert rc == 0
        assert capsys.readouterr().err == (
            "trustconnect: warning: fixed-point evaluation did not converge within 100"
            " iterations; returning the last iterate\n")

    def test_an_inline_attack_whose_observed_value_overflows_exits_2(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        save_graph(DependencyGraph((EcuNode(0, "A", 0.5), EcuNode(1, "B", 0.5)), ((0, 1),)), graph)
        # node 1 has no out-edge, so no deviation reads its value
        for node in ("0", "1"):
            rc = main(["eval", "--graph", str(graph), "--truth-constant", "1e308",
                       "--attack-nodes", node, "--delta", "1e308"])
            assert rc == 2
            assert capsys.readouterr() == (
                "", f"trustconnect: error: non-finite observed value inf for node {node}\n")

    def test_attack_mode_without_attack_exits_2(self, fixture_dir, capsys):
        rc = main(["eval", "--graph", str(fixture_dir / "reference_graph.txt"),
                   "--attack-mode", "self-injection"])
        assert rc == 2
        assert "--attack-nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1,,2", "", "a"])
    def test_malformed_attack_nodes_exits_2_naming_the_flag(self, fixture_dir, capsys, value):
        rc = main(["eval", "--graph", str(fixture_dir / "reference_graph.txt"),
                   "--attack-nodes", value])
        assert rc == 2
        assert f"argument --attack-nodes: invalid parse_ids value: {value!r}" in (
            capsys.readouterr().err
        )

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

    def test_chart_whose_bars_overflow_exits_2_writing_nothing(
        self, fixture_dir, tmp_path, capsys
    ):
        svg, out = tmp_path / "chart.svg", tmp_path / "report.txt"
        args = ["eval", "--graph", str(fixture_dir / "reference_graph.txt"),
                "--c0", "1e307", "--alpha", "0.5", "--svg", str(svg)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too large to chart" in captured.err
        assert main(args + ["--out", str(out)]) == 2
        assert not svg.exists() and not out.exists()

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

    def test_grid_values_sharing_a_file_name_exit_2_writing_nothing(
        self, fixture_dir, tmp_path, capsys
    ):
        spec = replace(reference_sweep_spec(), k_values=(0.1, 0.1000001))
        spec_path = fixture_dir / "close_sweep.txt"
        save_sweep_spec(spec, spec_path)
        out_dir = tmp_path / "cells"
        assert main(["sweep", str(spec_path), "--output-dir", str(out_dir)]) == 2
        assert "k=0.1 alpha=0.05 and k=0.1000001 alpha=0.05" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_an_error_in_the_specs_scenario_exits_2_naming_the_spec(
        self, fixture_dir, tmp_path, capsys
    ):
        reference = (fixture_dir / "reference_sweep.txt").read_text(encoding="utf-8")
        cases = {
            "ids.txt": (reference.replace(" 1,4,11\n", " 1,99\n"),
                        "attack references unknown node ids [99]"),
            "noise.txt": (reference.replace("noise_sigma 0.0", "noise_sigma 1e308"),
                          "non-finite inferred value -inf for edge (1, 3)"),
        }
        out_dir = tmp_path / "cells"
        for name, (text, message) in cases.items():
            path = fixture_dir / name
            path.write_text(text, encoding="utf-8")
            assert main(["sweep", str(path), "--output-dir", str(out_dir)]) == 2
            assert capsys.readouterr() == ("", f"trustconnect: error: {path}: {message}\n")
            assert not out_dir.exists()

    def test_missing_spec_file_exits_1(self, tmp_path, capsys):
        rc = main(["sweep", str(tmp_path / "absent.txt"),
                   "--output-dir", str(tmp_path)])
        assert rc == 1


GRAPH_FILE = "graph_file reference_graph.txt"


@pytest.mark.parametrize(
    "name, lines, line_no",
    [
        ("reference_sweep.txt", [GRAPH_FILE, "truth_constant"], 3),
        ("reference_sweep.txt", [GRAPH_FILE, "k_values"], 3),
        ("reference_sweep.txt", ["graph_random n=5"], 2),
        ("reference_sweep.txt", ["graph_random n=0 p=0.5"], 2),
        ("reference_sweep.txt", ["graph_random n=3 p=1.5"], 2),
        ("reference_sweep.txt", [GRAPH_FILE, "mode fixed-point extra junk"], 3),
        ("reference_sweep.txt", [GRAPH_FILE, "noise_sigma 0.0 1.0"], 3),
        ("reference_sweep.txt", [GRAPH_FILE, "k_values 0.1,0.5 9"], 3),
        ("reference_sweep.txt", [GRAPH_FILE, "k_values 1,0.5"], 3),
        ("reference_sweep.txt", [GRAPH_FILE, "noise_sigma nan"], 3),
        ("reference_scenario.txt", ["truth 0 nan"], 2),
    ],
    ids=lambda value: value[-1] if isinstance(value, list) else None,
)
def test_malformed_input_file_exits_2_naming_file_and_line(
    fixture_dir, tmp_path, capsys, name, lines, line_no
):
    """An uncaught exception would escape main() and fail the test, so a
    returned 2 also means no traceback was printed."""
    path = fixture_dir / name
    header, *rest = path.read_text().splitlines()
    # a scenario keeps its other records, so only the bad line is wrong
    body = rest[1:] if name == "reference_scenario.txt" else []
    path.write_text("\n".join([header, *lines, *body]) + "\n")
    if name == "reference_sweep.txt":
        argv = ["sweep", str(path), "--output-dir", str(tmp_path)]
    else:
        argv = ["eval", "--graph", str(fixture_dir / "reference_graph.txt"),
                "--scenario-file", str(path)]
    assert main(argv) == 2
    assert f"error: {path}:{line_no}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_non_utf8_input_file_exits_2_naming_file_and_line(fixture_dir, tmp_path, capsys, command):
    path = fixture_dir / ("reference_graph.txt" if command == "eval" else "reference_sweep.txt")
    header, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header + b"\n# \xff\n" + rest)
    argv = {"eval": ["eval", "--graph", str(path)],
            "sweep": ["sweep", str(path), "--output-dir", str(tmp_path / "out")]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {path}:2: invalid UTF-8 byte 0xff: invalid start byte" in captured.err


@pytest.mark.parametrize(
    "header, records",
    [
        ("trustconnect-snapshot v1", ["obs 0 1.0", "obs 0 2.0"]),
        ("trustconnect-snapshot v1", ["inf 0 1 1.0", "inf 0 1 2.0"]),
        ("trustconnect-scenario v1", ["truth 0 1.0", "truth 0 2.0"]),
        ("trustconnect-sweep v1", [GRAPH_FILE, "truth 0 1.0", "truth 0 2.0"]),
    ],
    ids=["snapshot-obs", "snapshot-inf", "scenario-truth", "sweep-truth"],
)
def test_duplicate_per_id_record_exits_2_at_second_copy(
    fixture_dir, tmp_path, capsys, header, records
):
    path = fixture_dir / "dup.txt"
    path.write_text("\n".join([header, *records]) + "\n")
    graph = str(fixture_dir / "reference_graph.txt")
    argv = {
        "trustconnect-snapshot v1": ["eval", "--graph", graph, "--snapshot", str(path)],
        "trustconnect-scenario v1": ["eval", "--graph", graph, "--scenario-file", str(path)],
        "trustconnect-sweep v1": ["sweep", str(path), "--output-dir", str(tmp_path)],
    }[header]
    assert main(argv) == 2
    key = records[-1].rsplit(" ", 1)[0]
    assert f"error: {path}:{len(records) + 1}: duplicate {key} record" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--alpha", "1e300", "--c0", "1e300", "--format", "json"],
        ["--mode", "fixed-point", "--alpha", "1000"],
    ],
    ids=["alpha-c0-1e300-json", "fixed-point-alpha-1000"],
)
def test_overflowing_trust_score_exits_2(fixture_dir, capsys, flags):
    rc = main(["eval", "--graph", str(fixture_dir / "reference_graph.txt"),
               "--scenario-file", str(fixture_dir / "reference_scenario.txt"), *flags])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "trust score of node 0 is inf, not finite" in captured.err


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


# the flags that several commands share, each with a value it accepts
SHARED_FLAG_VALUES = {"--seed": "1", "--output-dir": ".", "--format": "json"}
SHARED_FLAGS_READ = {
    "generate": {"--seed", "--output-dir"},
    "eval": {"--seed", "--format"},
    "detect": {"--seed", "--format"},
    "sweep": {"--output-dir"},
    "fixture": {"--output-dir"},
}

# the flags eval and detect both read, with the defaults their parsers give
SNAPSHOT_SOURCE = {
    "snapshot": None, "scenario_file": None, "truth_constant": None, "noise_sigma": None,
    "attack_nodes": None, "attack_mode": None, "delta": None, "scenario_seed": None,
}
INPUTS = {"format": "text", "graph": "g.txt", **SNAPSHOT_SOURCE, "k": 1.0, "out": None}
# per command: a minimal argv, then every dest its parser sets and the value it reads
PARSED = {
    "generate": ([], {"seed": None, "output_dir": ".", "n": 20, "p": 0.15,
                      "epsilon": "uniform", "out": None}),
    "eval": (["--graph", "g.txt"], {"seed": None, **INPUTS, "alpha": 0.1, "c0": 1.0,
                                    "mode": "single-pass", "svg": None}),
    "sweep": (["s.txt"], {"output_dir": ".", "spec": "s.txt"}),
    "detect": (["--graph", "g.txt"], {"seed": None, **INPUTS, "weight_threshold": 0.5,
                                      "evidence_threshold": 1.0, "fail_on_flag": False}),
    "fixture": ([], {"output_dir": "."}),
}
POSITIONALS = {"spec"}


class TestParsing:
    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["generate", "--bogus"]) == 2

    @pytest.mark.parametrize("command", sorted(SHARED_FLAGS_READ))
    def test_help_lists_exactly_its_shared_flags(self, command, capsys):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert listed & set(SHARED_FLAG_VALUES) == SHARED_FLAGS_READ[command]

    @pytest.mark.parametrize("command", sorted(PARSED))
    def test_help_lists_exactly_the_commands_flags(self, command, capsys):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
        dests = set(PARSED[command][1]) - POSITIONALS
        assert listed == {"--help"} | {"--" + dest.replace("_", "-") for dest in dests}

    @pytest.mark.parametrize("command", sorted(PARSED))
    def test_minimal_argv_parses_to_every_dest_and_default(self, command):
        argv, expected = PARSED[command]
        parsed = vars(build_parser().parse_args([command, *argv]))
        assert parsed.pop("func").__name__ == f"cmd_{command}"
        assert parsed == {"command": command, **expected}

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, read in SHARED_FLAGS_READ.items()
        for flag in SHARED_FLAG_VALUES if flag not in read
    ])
    def test_a_shared_flag_the_command_does_not_read_exits_2(
        self, command, flag, fixture_dir, tmp_path, capsys
    ):
        graph, out = str(fixture_dir / "reference_graph.txt"), tmp_path / "out"
        valid = {
            "generate": ["--out", str(out / "g.txt")],
            "eval": ["--graph", graph],
            "detect": ["--graph", graph],
            "sweep": [str(fixture_dir / "reference_sweep.txt"), "--output-dir", str(out)],
            "fixture": ["--output-dir", str(out)],
        }[command]
        value = SHARED_FLAG_VALUES[flag]
        assert main([command, *valid, flag, value]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "detect"])
    def test_seed_seeds_the_synthesized_scenario(self, command, fixture_dir, capsys, monkeypatch):
        base = [command, "--graph", str(fixture_dir / "reference_graph.txt"),
                "--noise-sigma", "0.5"]

        def stdout(*flags):
            assert main([*base, *flags]) == 0
            return capsys.readouterr().out

        seeded = stdout("--seed", "3")
        assert stdout("--scenario-seed", "3") == seeded
        monkeypatch.setenv("TRUSTCONNECT_SEED", "3")
        assert stdout() == seeded
        monkeypatch.delenv("TRUSTCONNECT_SEED")
        assert stdout("--seed", "4") != seeded


class TestCyclicCollector:
    """``main`` runs each command with the cyclic collector off."""

    @staticmethod
    def _commands(tmp_path, graph, scenario):
        tmp_path.mkdir()
        graph_path, snap_path = tmp_path / "graph.txt", tmp_path / "snapshot.txt"
        spec_path = tmp_path / "sweep.txt"
        save_graph(graph, graph_path)
        save_snapshot(synthesize_snapshot(graph, scenario), snap_path)
        save_sweep_spec(reference_sweep_spec(str(graph_path)), spec_path)
        files = ["--graph", str(graph_path), "--snapshot", str(snap_path)]
        return [
            ["eval", *files, "--format", "json"],
            ["detect", *files, "--format", "json"],
            ["sweep", str(spec_path), "--output-dir", str(tmp_path / "cells")],
        ]

    @staticmethod
    def _leftovers(commands, capsys):
        """Per command, the objects in unreachable cycles it left behind."""
        counts = []
        for argv in commands:
            gc.collect()
            assert main(argv) == 0
            assert gc.isenabled()
            counts.append(gc.collect())
        capsys.readouterr()
        return counts

    def test_prior_collector_state_is_restored(self, fixture_dir, capsys):
        argv = ["eval", "--graph", str(fixture_dir / "reference_graph.txt")]
        gc.disable()
        try:
            assert main(argv) == 0
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert main(argv) == 0
        assert gc.isenabled()

    def test_cyclic_garbage_does_not_grow_with_the_input(self, tmp_path, capsys):
        # argparse and the indented JSON encoder leave a fixed number of
        # cycles per command; none may come from the graph or snapshot
        graph, scenario = reference_fixture()
        larger = generate_random(10 * len(graph.nodes), 0.2, seed=1)
        larger_scenario = replace(
            scenario, ground_truth={i: 1.0 + i % 7 for i in larger.node_ids}
        )
        reference = self._commands(tmp_path / "reference", graph, scenario)
        ten_times = self._commands(tmp_path / "larger", larger, larger_scenario)
        self._leftovers(reference, capsys)  # warm-up: first-use caches
        assert self._leftovers(ten_times, capsys) == self._leftovers(reference, capsys)


@pytest.mark.parametrize("command", ["eval", "detect", "sweep"])
@pytest.mark.parametrize("line, message", [
    ("edge 19 16", "duplicate edge (19, 16)"),
    ("edge 19 20", "edge (19, 20): unknown node 20"),
    ("node 19 E19b 0.5", "duplicate node id 19"),
])
def test_graph_invariant_error_names_the_graph_file(fixture_dir, tmp_path, capsys,
                                                    command, line, message):
    path = fixture_dir / "reference_graph.txt"
    path.write_text(path.read_text() + line + "\n")  # line 101
    argv = {"eval": ["eval", "--graph", str(path)],
            "detect": ["detect", "--graph", str(path)],
            "sweep": ["sweep", str(fixture_dir / "reference_sweep.txt"),
                      "--output-dir", str(tmp_path / "out")]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"trustconnect: error: {path}: {message}\n"



@functools.cache
def _fuzz_files() -> dict[str, str]:
    """The fixture's files by name, and a saved snapshot of its scenario."""
    graph, scenario = reference_fixture()
    return {
        "reference_graph.txt": graph_to_text(graph),
        "reference_scenario.txt": scenario_to_text(scenario),
        "reference_sweep.txt": sweep_spec_to_text(reference_sweep_spec()),
        "snapshot.txt": snapshot_to_text(synthesize_snapshot(graph, scenario)),
    }


FUZZ_TOKENS = ("nan", "1e309", "07", "#", "\t")
# per command, its argv before the input files; the sweep takes its spec
FUZZ_COMMANDS = {
    "eval": ["eval", "--format", "json"],
    "eval-fixed-point": ["eval", "--format", "json", "--mode", "fixed-point"],
    "detect": ["detect", "--format", "json"],
    "sweep": ["sweep", "--output-dir", "out"],
}


@st.composite
def fuzz_runs(draw):
    """A command and the files it reads, one of them mutated: (argv, name, text).

    Each argv entry that names a file of ``_fuzz_files()``, or ``out``, is a
    path relative to the directory the files are written to.
    """
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    if command == "sweep":
        inputs = ["reference_sweep.txt"]
        reads = ["reference_graph.txt", "reference_sweep.txt"]
    else:
        flag, source = draw(st.sampled_from([("--scenario-file", "reference_scenario.txt"),
                                             ("--snapshot", "snapshot.txt")]))
        inputs = ["--graph", "reference_graph.txt", flag, source]
        reads = ["reference_graph.txt", source]
    name = draw(st.sampled_from(reads))
    lines = _fuzz_files()[name].splitlines(keepends=True)
    at = draw(st.integers(0, len(lines) - 1))
    mutation = draw(st.sampled_from(["drop", "copy", "cut", "token"]))
    if mutation == "drop":
        del lines[at]
    elif mutation == "copy":
        lines.insert(draw(st.integers(0, len(lines))), lines[at])
    elif mutation == "cut":
        lines[at] = lines[at][:draw(st.integers(0, len(lines[at]) - 1))] + "\n"
    else:  # a token in place of a field, or before it
        fields = lines[at].rstrip("\n").split(" ")
        k = draw(st.integers(0, len(fields)))
        fields[k:k + draw(st.integers(0, 1))] = [draw(st.sampled_from(FUZZ_TOKENS))]
        lines[at] = " ".join(fields) + "\n"
    return [*FUZZ_COMMANDS[command], *inputs], name, "".join(lines)


def _no_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(max_examples=400, deadline=None)
@given(fuzz_runs())
def test_a_mutated_fixture_file_never_gives_a_traceback(run):
    """Exit 0 with a finite report, 2 with an error naming the mutated file, or 1
    with an I/O error (a mutated ``graph_file`` path); a raise would escape ``main``."""
    argv, name, text = run
    with tempfile.TemporaryDirectory() as tmp:
        root, files = Path(tmp), _fuzz_files()
        for file_name, original in files.items():
            (root / file_name).write_text(original, encoding="utf-8")
        (root / name).write_text(text, encoding="utf-8")
        argv = [str(root / arg) if arg in files or arg == "out" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    if code == 1:
        assert err.getvalue().startswith("trustconnect: i/o error: ")
    elif code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("trustconnect: error: "), err.getvalue()
        assert str(root / name) in err.getvalue(), err.getvalue()
    else:
        assert code == 0, err.getvalue()
        if argv[0] != "sweep":
            json.loads(out.getvalue(), parse_constant=_no_constant)
