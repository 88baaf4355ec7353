"""Run the benchmark in alternating parent/change pairs and write BENCH_<pr>.json.

    python3 tools/bench_pairs.py --pr N --parent REV --change TEXT

Both sides are committed revisions, each extracted with ``git archive`` into
a temporary directory: the parent is ``--parent`` and the change is HEAD.
The two must differ in tree. For each workload of ``BENCHMARK.json`` the
two sides run ``perfbench/run.py`` with its defaults in turn, ``PAIRS``
times, and the side that runs first alternates from pair to pair. Each
run's end-to-end metrics are paired by index: ``change_wins`` counts the
pairs where the change is better. Then ``TRACED_PAIRS`` pairs of ``--trace 1``
runs per workload, alternating in the same way, record the per-layer
metrics: each side's median, quartiles and runs of every layer, so a layer's
move can be told from its run-to-run spread.

Each end-to-end metric's entry also records, besides both sides'
summaries, ``change_wins`` and ``pairs``:

* ``bound``: the metric's relative bound from ``BENCHMARK.json``;
* ``spread``: the wider of the two sides' quartile distances, relative to
  the parent's median;
* ``claim_holds``: the change won at least nine tenths of the pairs, ties
  counting for neither, and the medians differ in its favour by more than
  the parent's quartile distance;
* ``within_bound``: the change's median is no worse than the parent's by
  more than ``bound``;
* ``all_better``: every run of the change is better than every parent run;
* ``verdict``: ``gain`` when the claim holds; else ``worse`` outside the
  bound; else ``unresolved`` when the spread is wider than the bound and
  not every change run is better; else ``no worse``.

``src_lines`` records each side's line total of ``src/trustconnect/*.py``, and
``src_statements`` its count of statements there, docstrings excluded: a size
that joining lines or deleting comments leaves as it is.

Standard library only. The output has the schema of ``BENCH_5.json``, plus
those keys, except that each per-layer metric is a ``summary`` of the traced
runs rather than one value, and ``attempted`` and ``failed`` are their sums.
"""

from __future__ import annotations

import argparse
import ast
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
PAIRS = 10
TRACED_PAIRS = 3
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, into: Path) -> Path:
    """The committed files of ``rev``, written to a new directory ``into``."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def src_lines(checkout: Path) -> int:
    """The line total of ``src/trustconnect/*.py`` in ``checkout``, counted as ``wc -l`` does."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "trustconnect").glob("*.py"))


def src_statements(checkout: Path) -> int:
    """The AST statements of ``src/trustconnect/*.py`` in ``checkout``, docstrings excluded."""
    total = 0
    for path in (checkout / "src" / "trustconnect").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_bytes())):
            total += isinstance(node, ast.stmt)
            if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
                total -= 1  # the docstring is the body's first statement
    return total


def bench(checkout: Path, workload: str, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its result line, plus its facts."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    facts = [json.loads(line[len("facts "):]) for line in lines if line.startswith("facts ")]
    return {"facts": facts[0] if facts else None, **result}


def alternate(sides: dict, workload: str, pairs: int, trace: int) -> dict:
    """Each side's runs of ``workload``, in pairs whose first side alternates."""
    runs = {"parent": [], "change": []}
    for pair in range(pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            run = bench(sides[side], workload, trace)
            runs[side].append(run)
            shown = "traced" if trace else f"op_p90_s {run['metrics']['op_p90_s']['value']:.4f}"
            print(f"{workload} pair {pair + 1}/{pairs} {side}: {shown}", file=sys.stderr)
    return runs


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": round(statistics.median(runs), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": [round(value, 4) for value in runs]}


def judge(before: list[float], after: list[float], better: str, bound: float) -> dict:
    """One metric's entry: both sides' summaries, the pairs won, the rule checks, a verdict."""
    sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0: the change is better
    (p1, pm, p3), (c1, cm, c3) = (statistics.quantiles(runs, n=4) for runs in (before, after))
    base = abs(pm) or 1.0
    won = sum(sign * (a - b) > 0 for a, b in zip(before, after))
    spread = max(p3 - p1, c3 - c1) / base
    claim = 10 * won >= 9 * len(before) and sign * (pm - cm) > p3 - p1
    within = sign * (cm - pm) <= bound * base
    all_better = all(sign * (a - b) > 0 for a in before for b in after)
    if claim:
        word = "gain"
    elif not within:
        word = "worse"
    elif spread > bound and not all_better:
        word = "unresolved"
    else:
        word = "no worse"
    return {"parent": summary(before), "change": summary(after), "change_wins": won,
            "pairs": len(before), "bound": bound, "spread": round(spread, 4),
            "claim_holds": claim, "within_bound": within, "all_better": all_better,
            "verdict": word}


def compare(parent: list[dict], change: list[dict]) -> dict:
    """Per end-to-end metric, the entry ``judge`` makes of both sides' runs."""
    table = {name: judge([run["metrics"][name]["value"] for run in parent],
                         [run["metrics"][name]["value"] for run in change], better, BOUND[name])
             for name, better in BETTER.items()}
    table["correct"] = all(run["correct"] for run in parent + change)
    table["failed_ops"] = {"parent": sum(run["failed"] for run in parent),
                           "change": sum(run["failed"] for run in change)}
    return table


def layers(runs: list[dict]) -> dict:
    """One side's traced runs of a workload: the ``summary`` of every per-layer metric."""
    return {"facts": runs[0]["facts"], "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": {name: summary([run["metrics"][name]["value"] for run in runs])
                        for name in runs[0]["metrics"]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="the revision the change (HEAD) is compared with")
    parser.add_argument("--change", required=True, metavar="TEXT", help="what the change does")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in SPEC["workloads"]]
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", "HEAD")}
    if len({git("rev-parse", f"{commit}^{{tree}}") for commit in commits.values()}) == 1:
        parser.error(f"{args.parent} and HEAD have the same tree: nothing to compare")

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        sides = {side: extract(commit, Path(scratch) / side) for side, commit in commits.items()}
        command = "python3 perfbench/run.py --workload W"
        doc = {
            "pr": args.pr,
            "change": args.change,
            "parent_commit": commits["parent"],
            "change_commit": commits["change"],
            "src_lines": {side: src_lines(checkout) for side, checkout in sides.items()},
            "src_statements": {side: src_statements(checkout) for side, checkout in sides.items()},
            "end_to_end": {
                "command": command,
                "method": f"{PAIRS} pairs per workload, alternating which side runs "
                          "first; median and quartiles of each side's runs",
                "workloads": {},
            },
        }
        for workload in workloads:
            runs = alternate(sides, workload, PAIRS, 0)
            doc["end_to_end"]["workloads"][workload] = compare(runs["parent"], runs["change"])
        traced = {workload: alternate(sides, workload, TRACED_PAIRS, 1) for workload in workloads}
        doc["per_layer"] = {
            "command": f"{command} --trace 1",
            "note": f"{TRACED_PAIRS} traced pairs per workload, alternating which side "
                    "runs first; median, quartiles and runs of each side's layers",
            **{side: {w: layers(traced[w][side]) for w in workloads} for side in sides},
        }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
