"""Time one cold CLI run at the north star's scale: 100k nodes, 1M edges.

    python3 tools/scale_check.py [--nodes N] [eval|detect [FLAG ...]]

Builds ``perfbench/inputs.build_topology(N, 10, 1)`` (N defaults to 100,000)
and its reading (seed 1, the eval-cold attack share) into a temporary
directory, runs one cold ``python -m trustconnect.cli COMMAND --format json``
of the checkout this file sits in (``eval`` unless named, with any further
flags, such as ``--mode fixed-point``), and prints the wall seconds and the
peak RSS that ``os.wait4`` reports for that process, then the sha256 of the
report, so that two checkouts can be compared by running it in each.

The inputs are built by a child process (this file, given ``--inputs`` and
the directory), so the process that spawns the CLI never holds them. A
process starts with the high-water RSS of the one that spawned it, so
``ru_maxrss`` would otherwise report the builder's peak whenever it is above
the CLI's own.

It only reads ``perfbench/inputs.py``: its inputs and report live in the
temporary directory, and no bytecode is written beside that module.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEGREE, SEED, ATTACK_SHARE = 10, 1, 0.01


def write_inputs(work: Path, nodes: int) -> None:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    topology = inputs.build_topology(nodes, DEGREE, SEED)
    reading = inputs.build_reading(topology, SEED, ATTACK_SHARE)
    (work / "graph.txt").write_text(inputs.graph_text(topology), encoding="utf-8")
    (work / "snapshot.txt").write_text(inputs.snapshot_text(topology, reading), encoding="utf-8")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--nodes", type=int, default=100_000, help="node count (default 100,000)")
    parser.add_argument("--inputs", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("command", nargs="?", choices=("eval", "detect"), default="eval")
    args, flags = parser.parse_known_args(argv)
    if args.inputs is not None:  # the child that builds the inputs
        write_inputs(Path(args.inputs), args.nodes)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        subprocess.run([sys.executable, __file__, "--nodes", str(args.nodes), "--inputs", tmp],
                       check=True)
        argv = [sys.executable, "-m", "trustconnect.cli", args.command, "--graph", "graph.txt",
                "--snapshot", "snapshot.txt", "--format", "json", "--out", "report.json", *flags]
        began = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - began
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            print(f"{args.command} exited with {code}", file=sys.stderr)
            return 1
        digest = hashlib.sha256((work / "report.json").read_bytes()).hexdigest()
    print(f"wall_s {wall:.2f}")
    print(f"peak_rss_mb {usage.ru_maxrss / 1024:.1f}")
    print(f"report_sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
