"""Golden outputs: CLI reports, sweep CSVs, SVGs and manifests, byte for byte.

Every case runs the real CLI in process and compares its bytes with a file
under ``tests/golden/``. Two inputs are covered: the bundled 20-node
reference fixture (with its attack scenario) and a seeded 200-node graph
with noise and a two-sided attack. The 200-node sweep is pinned as a
per-file sha256 list rather than as 33 stored files.

The files were captured from the code as it stood before trust propagation
moved onto the compiled graph core, and the detect JSON and CSV files before
the report serializers were derived from the dataclasses; refactors must
leave them unchanged.
Regenerate them only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
from pathlib import Path

import pytest

import trustconnect.trust as trust_module
from trustconnect.cli import main

GOLDEN = Path(__file__).parent / "golden"

# eval_fixed-point_c0-2 on the 200-node graph diverges on purpose: the bytes
# of a non-converged report are pinned too.
pytestmark = pytest.mark.filterwarnings("ignore::trustconnect.trust.NonConvergenceWarning")

# The 200-node graph and its scenario, as CLI flags.
GRAPH200_ARGS = ["generate", "--n", "200", "--p", "0.05", "--seed", "11"]
SCENARIO200_FLAGS = [
    "--truth-constant", "10", "--noise-sigma", "0.05", "--scenario-seed", "3",
    "--attack-nodes", "4,17,90,151", "--attack-mode", "both", "--delta", "2",
]
SWEEP200_SPEC = """trustconnect-sweep v1
graph_file graph200.txt
truth_constant 10.0
noise_sigma 0.05
scenario_seed 3
attack both 2.0 4,17,90,151
mode fixed-point
"""

# name -> CLI arguments after ``--graph GRAPH <scenario flags>``
REPORT_CASES = {
    "eval_single-pass.txt": ["eval"],
    "eval_single-pass.csv": ["eval", "--format", "csv"],
    "eval_single-pass.json": ["eval", "--format", "json"],
    "eval_fixed-point.txt": ["eval", "--mode", "fixed-point"],
    "eval_fixed-point.csv": ["eval", "--mode", "fixed-point", "--format", "csv"],
    "eval_fixed-point.json": ["eval", "--mode", "fixed-point", "--format", "json"],
    "eval_k0_c0-half.txt": ["eval", "--k", "0", "--c0", "0.5", "--alpha", "0.2"],
    "eval_fixed-point_c0-2.txt": [
        "eval", "--mode", "fixed-point", "--k", "2", "--c0", "2", "--alpha", "0.4",
    ],
    "detect.txt": ["detect", "--k", "2"],
    "detect.csv": ["detect", "--k", "2", "--format", "csv"],
    "detect.json": ["detect", "--k", "2", "--format", "json"],
}


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    if rc != 0:
        raise AssertionError(f"trustconnect {' '.join(argv)} exited {rc}")
    return out.getvalue()


def _inputs(work: Path) -> dict[str, tuple[Path, list[str]]]:
    """Write both inputs under ``work``: name -> (graph file, scenario flags)."""
    _run(["fixture", "--output-dir", str(work)])
    graph200 = work / "graph200.txt"
    _run(GRAPH200_ARGS + ["--out", str(graph200)])
    (work / "sweep200.txt").write_text(SWEEP200_SPEC, encoding="utf-8")
    return {
        "reference": (
            work / "reference_graph.txt",
            ["--scenario-file", str(work / "reference_scenario.txt")],
        ),
        "graph200": (graph200, SCENARIO200_FLAGS),
    }


def _reports(work: Path) -> dict[str, bytes]:
    """Every golden report, keyed by its path relative to ``GOLDEN``."""
    produced = {}
    for name, (graph, flags) in _inputs(work).items():
        for case, args in REPORT_CASES.items():
            argv = [args[0], "--graph", str(graph), *flags, *args[1:]]
            produced[f"{name}/{case}"] = _run(argv).encode("utf-8")
    return produced


def _sweep(spec: Path, out: Path) -> dict[str, bytes]:
    _run(["sweep", str(spec), "--output-dir", str(out)])
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _sha256_list(files: dict[str, bytes]) -> bytes:
    lines = [f"{hashlib.sha256(data).hexdigest()}  {name}" for name, data in files.items()]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _everything(work: Path) -> dict[str, bytes]:
    produced = _reports(work)
    for name, data in _sweep(work / "reference_sweep.txt", work / "ref_sweep").items():
        produced[f"reference_sweep/{name}"] = data
    produced["graph200_sweep.sha256"] = _sha256_list(
        _sweep(work / "sweep200.txt", work / "sweep200_out")
    )
    return produced


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return _everything(tmp_path_factory.mktemp("golden"))


def test_golden_file_set_is_complete(produced):
    stored = {
        str(path.relative_to(GOLDEN)) for path in GOLDEN.rglob("*") if path.is_file()
    }
    assert stored == set(produced)
    # 16 CSVs, 16 SVGs and the manifest for the reference sweep
    assert sum(name.startswith("reference_sweep/") for name in produced) == 33


@pytest.mark.parametrize(
    "name",
    sorted(
        [f"{graph}/{case}" for graph in ("reference", "graph200") for case in REPORT_CASES]
        + ["graph200_sweep.sha256"]
    ),
)
def test_report_bytes_match_golden(produced, name):
    assert produced[name] == (GOLDEN / name).read_bytes()


def test_reference_sweep_bytes_match_golden(produced):
    names = sorted(n for n in produced if n.startswith("reference_sweep/"))
    mismatched = [n for n in names if produced[n] != (GOLDEN / n).read_bytes()]
    assert mismatched == []


def _compensated_sum(values, start=0):
    """``sum`` as Python 3.12 and later computes it on floats (Neumaier's compensated sum)."""
    total, compensation = start, 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_network_trust_is_the_same_where_sum_compensates(tmp_path, monkeypatch):
    monkeypatch.setattr(trust_module, "sum", _compensated_sum, raising=False)
    _run(["fixture", "--output-dir", str(tmp_path)])
    argv = ["eval", "--graph", str(tmp_path / "reference_graph.txt"), "--scenario-file",
            str(tmp_path / "reference_scenario.txt"), "--format", "json"]
    assert _run(argv).encode("utf-8") == (GOLDEN / "reference/eval_single-pass.json").read_bytes()


def _write_goldens() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        produced = _everything(Path(tmp))
    for name, data in produced.items():
        path = GOLDEN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    print(f"wrote {len(produced)} golden files under {GOLDEN}")


if __name__ == "__main__":
    _write_goldens()
    sys.exit(0)
