"""The trustconnect benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Inputs are built from ``--seed`` by
``inputs.py`` under ``.bench_work/NAME``; the program receives only those
files (or ``Snapshot`` objects). CLI operations run as cold subprocesses,
``python -m trustconnect.cli`` with ``PYTHONPATH`` set to the checkout's
``src``, one at a time. Every operation's output is checked (``checks.py``).

The last stdout line is the result: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are end to end; with ``--trace 1``
every other op runs with layer spans recorded (``spans.py``) and the metrics
are per layer, including the tracing overhead against the untraced ops of the
same run; layers the workload never calls read 0. The lines before it give the machine facts and the run digest.

Workloads:

* ``eval-cold``: one cold ``eval --format json`` of a 20k-node, ~200k-edge
  graph and its snapshot. Read-heavy: parsing and trust dominate.
* ``monitor-stream``: a child process loads a fixed 200-node vehicle graph
  once, then evaluates a stream of snapshots (``full_report`` fixed-point
  plus ``detect``). Compute-bound, no parsing per op. Twelve children run
  in turn, a twelfth of the time each, so set-up is sampled across the run.
* ``sweep-figures``: one cold ``sweep`` of the 4x4 (k, alpha) grid on a
  2k-node graph, writing 16 CSVs, 16 SVGs and a manifest. Write-heavy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import monitor
import spans

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
IMPORT_PROFILE_REPEATS = 5
MONITOR_PARTS = 12
OP_TIMEOUT_S = 120

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class Run:
    """What a workload measured, before it is turned into the result line."""

    attempted: int
    failed: int
    digest: str
    metrics: dict[str, float]
    spans: dict = field(default_factory=lambda: {"spans": [], "counts": []})
    notes: list[str] = field(default_factory=list)


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _timeout(signum, frame):
    raise TimeoutError(f"a child process ran longer than {OP_TIMEOUT_S} s")


def wait_child(proc: subprocess.Popen, timeout: float = OP_TIMEOUT_S) -> tuple[int, float]:
    """Reap ``proc``; its exit code and peak RSS in MB. Kills it on timeout."""
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(math.ceil(timeout))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def run_child(argv: list[str], cwd: Path) -> tuple[int, float, float, str]:
    """Run one child to completion: exit code, wall seconds, peak RSS MB, stderr."""
    stderr_path = cwd / "stderr.txt"
    with open(stderr_path, "wb") as stderr:
        began = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, stderr=stderr
        )
        code, rss_mb = wait_child(proc)
        wall = time.perf_counter() - began
    return code, wall, rss_mb, stderr_path.read_text(encoding="utf-8", errors="replace")


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(setups: list[float], ops: list[float], rss_mb: float) -> dict:
    """Set-up and op-time statistics.

    On a shared host an op runs up to 1.5x faster in phases when the host's
    other tenants are idle, and those phases come and go over tens of
    seconds. The share of a run they cover moves an op's median and mean
    from run to run; the upper decile follows the loaded speed, which holds.
    """
    return {
        "setup_s": statistics.median(setups),
        "op_p90_s": percentile(ops, 0.90),
        "peak_rss_mb": rss_mb,
    }


def import_profile(work: Path) -> tuple[float, list[str]]:
    """Median cold ``import trustconnect.cli`` time per ``-X importtime``, and its top entries."""
    totals = []
    entries: list[tuple[int, str]] = []
    for _ in range(IMPORT_PROFILE_REPEATS):
        code, _, _, stderr = run_child(
            [sys.executable, "-X", "importtime", "-c", "import trustconnect.cli"], work
        )
        if code != 0:
            raise RuntimeError(f"import trustconnect.cli failed:\n{stderr}")
        entries = []
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own, cumulative, name = line[len("import time:"):].split("|")
            if not own.strip().isdigit():
                continue
            entries.append((int(own), name.strip()))
            if name.rstrip() == " trustconnect.cli":
                totals.append(int(cumulative) / 1e6)
    top = [f"{name}={own}us" for own, name in sorted(entries, reverse=True)[:5]]
    return statistics.median(totals), top


def cli_setup(work: Path) -> float:
    """Wall time of one cold ``import trustconnect.cli``."""
    code, wall, _, stderr = run_child([sys.executable, "-c", "import trustconnect.cli"], work)
    if code != 0:
        raise RuntimeError(f"import trustconnect.cli failed:\n{stderr}")
    return wall


def merge_spans(into: dict, doc: dict, tag=None) -> None:
    """Append one process's spans and counts; ``tag`` prefixes its op ids."""
    offset = len(into["spans"])
    for s in doc["spans"]:
        into["spans"].append(dict(
            s, parent=None if s["parent"] is None else s["parent"] + offset,
            op=s["op"] if tag is None else f"{tag}:{s['op']}",
        ))
    into["counts"] += [
        [op if tag is None else f"{tag}:{op}", name, value] for op, name, value in doc["counts"]
    ]


def cli_workload(work: Path, name: str, seed: int, seconds: float, trace: bool,
                 cli_args: list[str], clear, output) -> Run:
    """Time cold CLI ops for ``seconds``.

    ``clear()`` removes the previous op's output; ``output()`` returns its
    (digest, sound) or (None, False) when it is missing. With ``trace`` every
    other op runs under ``traced_cli.py``. A set-up (cold import) is timed
    before each op, so set-up samples span the run as the ops do.
    """
    check = checks.OutputCheck(checks.expected_digest(name, seed))
    cli_setup(work)  # writes the bytecode cache; not measured
    plain = [sys.executable, "-m", "trustconnect.cli", *cli_args]
    setups, walls, rss, traced_walls, notes = [], [], [], {}, []
    traced_spans = {"spans": [], "counts": []}
    start = time.perf_counter()
    index = 0
    while index < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and index % 2 == 1
        spans_path = work / f"spans-{index}.json"
        argv = plain
        if traced:
            argv = [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"),
                    str(spans_path), str(index), "--", *cli_args]
        setups.append(cli_setup(work))
        clear()
        code, wall, rss_mb, stderr = run_child(argv, work)
        digest, sound = output() if code == 0 else (None, False)
        if not check.op(0, digest, sound):
            notes.append(f"op {index} failed (exit {code}): {stderr.strip()[-500:]}")
        if traced and code == 0:
            merge_spans(traced_spans, json.loads(spans_path.read_text(encoding="utf-8")))
            traced_walls[index] = wall
        elif not traced:
            walls.append(wall)
            rss.append(rss_mb)
        index += 1
    check.finish()
    run = Run(check.attempted, check.failed, check.run_digest(), {}, traced_spans, notes)
    if not trace:
        run.metrics = end_to_end(setups, walls, statistics.median(rss))
        return run
    all_spans = traced_spans["spans"]
    top = spans.top_level_seconds(all_spans)
    probes = spans.probe_seconds(all_spans)
    import_s, top_imports = import_profile(work)
    notes.append("importtime top self: " + " ".join(top_imports))
    run.metrics = spans.layer_metrics(all_spans, traced_spans["counts"])
    run.metrics.update({
        "cli.import_s": import_s,
        "cli.overhead_s": statistics.median(
            wall - top.get(op, 0.0) for op, wall in traced_walls.items()
        ),
        "trace.overhead_s": statistics.median(
            wall - probes.get(op, 0.0) for op, wall in traced_walls.items()
        ) - statistics.median(walls),
    })
    return run


def eval_cold(work: Path, seed: int, seconds: float, trace: bool) -> Run:
    topology = inputs.build_topology(20_000, 10, seed)
    reading = inputs.build_reading(topology, seed, 0.01)
    (work / "graph.txt").write_text(inputs.graph_text(topology), encoding="utf-8")
    (work / "snapshot.txt").write_text(inputs.snapshot_text(topology, reading), encoding="utf-8")
    report = work / "report.json"

    def output():
        if not report.is_file():
            return None, False
        data = report.read_bytes()
        return checks.sha256_hex(data), checks.eval_output_ok(data)

    return cli_workload(
        work, "eval-cold", seed, seconds, trace,
        ["eval", "--graph", "graph.txt", "--snapshot", "snapshot.txt",
         "--format", "json", "--out", report.name],
        lambda: report.unlink(missing_ok=True), output,
    )


def sweep_figures(work: Path, seed: int, seconds: float, trace: bool) -> Run:
    n = 2_000
    topology = inputs.build_topology(n, 10, seed)
    (work / "graph.txt").write_text(inputs.graph_text(topology), encoding="utf-8")
    (work / "spec.txt").write_text(inputs.sweep_text("graph.txt", n, seed, 0.01), encoding="utf-8")
    figures = work / "figures"
    cells = len(inputs.K_VALUES) * len(inputs.ALPHA_VALUES)

    def output():
        if not figures.is_dir():
            return None, False
        return checks.sweep_digest(figures, cells)

    return cli_workload(
        work, "sweep-figures", seed, seconds, trace,
        ["sweep", "spec.txt", "--output-dir", figures.name],
        lambda: shutil.rmtree(figures, ignore_errors=True), output,
    )


def run_monitor(work: Path, argv: list[str], seconds: float) -> tuple[float, float]:
    """Run one monitor child: its set-up time (until ``ready``) and peak RSS MB."""
    script = str(ROOT / "perfbench" / "monitor.py")
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, script, *argv], cwd=work, env=child_env(),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - began
        proc.stdout.close()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    code, rss_mb = wait_child(proc, seconds + OP_TIMEOUT_S)
    if line != "ready\n" or code != 0:
        raise RuntimeError(f"monitor child exited with {code}")
    return setup, rss_mb


def monitor_stream(work: Path, seed: int, seconds: float, trace: bool) -> Run:
    """``MONITOR_PARTS`` children in turn, each set up once and looping a share of ``seconds``."""
    topology = inputs.build_topology(monitor.NODES, monitor.DEGREE, monitor.VEHICLE_SEED)
    (work / "graph.txt").write_text(inputs.graph_text(topology), encoding="utf-8")
    setups, rss, ops, traced_ops, results = [], [], [], [], []
    traced_spans = {"spans": [], "counts": []}
    for part in range(MONITOR_PARTS):
        setup, rss_mb = run_monitor(work, [
            "graph.txt", str(seed), "1" if trace else "0",
            str(seconds / MONITOR_PARTS), f"result-{part}.json",
        ], seconds)
        setups.append(setup)
        rss.append(rss_mb)
        result = json.loads((work / f"result-{part}.json").read_text(encoding="utf-8"))
        results.append(result)
        ops += result["op_seconds"]
        traced_ops += [[f"{part}:{op}", wall] for op, wall in result["traced_ops"]]
        if trace:
            merge_spans(traced_spans, result, tag=part)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len({r["digest"] for r in results}) != 1:
        failed = attempted  # every child replays the same checked snapshots
    run = Run(attempted, failed, results[0]["digest"], {}, traced_spans)
    if not trace:
        run.metrics = end_to_end(setups, ops, statistics.median(rss))
        return run
    probes = spans.probe_seconds(traced_spans["spans"])
    run.metrics = spans.layer_metrics(traced_spans["spans"], traced_spans["counts"])
    run.metrics.update({
        "cli.import_s": import_profile(work)[0],
        "trust.fixed_point_iterations": results[0]["fixed_point_iterations"],
        "trace.overhead_s": statistics.median(
            wall - probes.get(op, 0.0) for op, wall in traced_ops
        ) - statistics.median(ops),
    })
    return run


WORKLOADS = {
    "eval-cold": eval_cold,
    "monitor-stream": monitor_stream,
    "sweep-figures": sweep_figures,
}


def machine_facts(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "loadavg": os.getloadavg(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "trustconnect" / "cli.py").is_file():
        print(f"benchmark: no trustconnect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    facts = machine_facts(args.seed)
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = WORKLOADS[args.workload](work, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: run.metrics.get(name, 0.0) for name in units}
    if args.trace:
        (work / "spans.json").write_text(json.dumps(run.spans), encoding="utf-8")
    print("facts " + json.dumps(facts))
    for note in run.notes:
        print(note)
    print(f"digest {run.digest}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
