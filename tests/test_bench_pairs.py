"""The pair runner's verdicts, on synthetic runs of known shape."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.03, 0.97]


def runs(values: list[float]) -> list[dict]:
    """Runs whose every end-to-end metric reads the given values in turn."""
    return [{"correct": True, "failed": 0,
             "metrics": {name: {"value": v} for name in bench_pairs.BETTER}}
            for v in values]


def judge(before, after, better="lower", bound=0.25):
    return bench_pairs.judge(before, after, better, bound)


def test_every_pair_won_by_a_clear_margin_is_a_gain():
    entry = judge(PARENT, [v * 0.8 for v in PARENT])
    assert entry["change_wins"] == 10 and entry["pairs"] == 10
    assert entry["claim_holds"] and entry["within_bound"] and entry["all_better"]
    assert entry["verdict"] == "gain"


def test_the_same_runs_are_no_worse_and_win_nothing():
    entry = judge(PARENT, PARENT)
    assert entry["change_wins"] == 0
    assert not entry["claim_holds"] and entry["within_bound"]
    assert entry["verdict"] == "no worse"


def test_ties_count_for_neither_side():
    after = [v * 0.8 for v in PARENT[:8]] + PARENT[8:]
    entry = judge(PARENT, after)
    assert entry["change_wins"] == 8
    assert not entry["claim_holds"]
    assert entry["verdict"] == "no worse"


def test_nine_of_ten_pairs_with_a_gap_wider_than_the_quartiles_is_a_gain():
    after = [v * 0.8 for v in PARENT[:9]] + [PARENT[9] * 1.1]
    entry = judge(PARENT, after)
    assert entry["change_wins"] == 9 and not entry["all_better"]
    assert entry["verdict"] == "gain"


def test_a_gap_inside_the_parent_quartiles_is_no_gain():
    before = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]
    entry = judge(before, [v - 0.01 for v in before], bound=0.5)
    assert entry["change_wins"] == 10
    assert not entry["claim_holds"]
    assert entry["verdict"] == "no worse"


def test_a_median_beyond_the_bound_is_worse():
    entry = judge(PARENT, [v * 1.3 for v in PARENT])
    assert not entry["within_bound"]
    assert entry["verdict"] == "worse"


def test_a_median_inside_the_bound_is_no_worse():
    entry = judge(PARENT, [v * 1.2 for v in PARENT])
    assert entry["within_bound"]
    assert entry["verdict"] == "no worse"


def test_a_spread_wider_than_the_bound_is_unresolved():
    before = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.0]
    entry = judge(before, list(reversed(before)))
    assert entry["spread"] > entry["bound"] and entry["within_bound"]
    assert entry["verdict"] == "unresolved"


def test_a_wide_spread_with_every_change_run_better_is_no_worse():
    before = [1.0] * 8 + [10.0, 10.0]
    entry = judge(before, [0.9] * 10)
    assert entry["spread"] > entry["bound"] and entry["all_better"]
    assert not entry["claim_holds"]
    assert entry["verdict"] == "no worse"


def test_higher_is_better_turns_every_rule_around():
    assert judge(PARENT, [v * 1.3 for v in PARENT], better="higher")["verdict"] == "gain"
    assert judge(PARENT, [v * 0.7 for v in PARENT], better="higher")["verdict"] == "worse"


@pytest.mark.parametrize("name", sorted(bench_pairs.BETTER))
def test_compare_judges_every_metric_against_its_own_bound(name):
    table = bench_pairs.compare(runs(PARENT), runs([v * 0.8 for v in PARENT]))
    assert table[name]["bound"] == bench_pairs.BOUND[name]
    assert table[name]["verdict"] == "gain"
    assert table["correct"] and table["failed_ops"] == {"parent": 0, "change": 0}


def traced_runs(values: list[float], failed: int = 0) -> list[dict]:
    """Traced runs whose render layer reads the given values in turn."""
    return [{"facts": {"seed": 1}, "correct": failed == 0, "attempted": 4, "failed": failed,
             "metrics": {"svgchart.render_s": {"value": v}, "graph.nodes": {"value": 2000.0}}}
            for v in values]


def test_layers_records_each_layers_median_quartiles_and_runs():
    entry = bench_pairs.layers(traced_runs([0.30, 0.10, 0.20]))
    render = entry["metrics"]["svgchart.render_s"]
    assert render == {"median": 0.2, "q1": 0.1, "q3": 0.3, "runs": [0.3, 0.1, 0.2]}
    assert entry["metrics"]["graph.nodes"]["runs"] == [2000.0] * 3
    assert entry["correct"] and entry["attempted"] == 12 and entry["failed"] == 0
    assert entry["facts"] == {"seed": 1}


def test_a_failed_traced_run_makes_the_side_incorrect():
    entry = bench_pairs.layers(traced_runs([0.1, 0.2]) + traced_runs([0.3], failed=1))
    assert not entry["correct"] and entry["failed"] == 1


def test_traced_pairs_alternate_which_side_runs_first(monkeypatch):
    calls = []

    def bench(checkout, workload, trace):
        calls.append((checkout, workload, trace))
        return {"metrics": {}}

    monkeypatch.setattr(bench_pairs, "bench", bench)
    runs = bench_pairs.alternate({"parent": "P", "change": "C"}, "w", bench_pairs.TRACED_PAIRS, 1)
    assert [checkout for checkout, _, _ in calls] == ["P", "C", "C", "P", "P", "C"]
    assert {(workload, trace) for _, workload, trace in calls} == {("w", 1)}
    assert len(runs["parent"]) == len(runs["change"]) == bench_pairs.TRACED_PAIRS == 3


def test_src_lines_totals_the_package_modules_as_wc_counts_them(tmp_path):
    package = tmp_path / "src" / "trustconnect"
    (package / "data").mkdir(parents=True)
    (package / "a.py").write_text("one\ntwo\n")
    (package / "b.py").write_text("three\nno newline at the end")
    (package / "data" / "c.py").write_text("not a package module\n")
    (package / "notes.txt").write_text("not python\n")
    assert bench_pairs.src_lines(tmp_path) == 3


MODULE = '''"""A module docstring is no statement."""


def scale(values, factor):
    """Nor is a function's."""
    # a comment is no statement either
    total = sum(
        values,
    )
    return total * factor
'''


@pytest.mark.parametrize("edit, change", [
    (lambda text: text, 0),
    (lambda text: text.replace("sum(\n        values,\n    )", "sum(values)"), 0),
    (lambda text: text.replace("    # a comment is no statement either\n", ""), 0),
    (lambda text: text.replace("    total = sum(\n        values,\n    )\n", "")
     .replace("total * factor", "factor"), -1),
])
def test_src_statements_moves_only_when_a_statement_goes(tmp_path, edit, change):
    package = tmp_path / "src" / "trustconnect"
    package.mkdir(parents=True)
    (package / "a.py").write_text(edit(MODULE))
    (package / "b.py").write_text("class Empty:\n    'a class docstring'\n    pass\n")
    # a.py: the def, the assignment and the return; b.py: the class and its pass
    assert bench_pairs.src_statements(tmp_path) == 5 + change


# The most statements and lines src/trustconnect may hold. A change that must grow
# either raises it here in the same diff and says why in CHANGES.md.
MAX_SRC_STATEMENTS, MAX_SRC_LINES = 1148, 2424


def test_the_package_is_no_larger_than_its_ratchet():
    assert bench_pairs.src_statements(bench_pairs.ROOT) <= MAX_SRC_STATEMENTS
    assert bench_pairs.src_lines(bench_pairs.ROOT) <= MAX_SRC_LINES
