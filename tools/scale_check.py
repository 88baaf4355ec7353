"""Time one cold CLI eval at the north star's scale: 100k nodes, 1M edges.

    python3 tools/scale_check.py

Builds ``perfbench/inputs.build_topology(100_000, 10, 1)`` and its reading
(seed 1, the eval-cold attack share) into a temporary directory, runs one
cold ``python -m trustconnect.cli eval --format json`` of the checkout this
file sits in, and prints the wall seconds and the peak RSS that ``os.wait4``
reports for that process, then the sha256 of the report, so that two
checkouts can be compared by running it in each. It takes no options.

The inputs are built by a child process (this file, given the directory),
so the process that spawns the eval never holds them. A process starts with
the high-water RSS of the one that spawned it, so ``ru_maxrss`` would
otherwise report the builder's peak whenever it is above the eval's own.

It only reads ``perfbench/inputs.py``: its inputs and report live in the
temporary directory, and no bytecode is written beside that module.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NODES, DEGREE, SEED, ATTACK_SHARE = 100_000, 10, 1, 0.01


def write_inputs(work: Path) -> None:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    topology = inputs.build_topology(NODES, DEGREE, SEED)
    reading = inputs.build_reading(topology, SEED, ATTACK_SHARE)
    (work / "graph.txt").write_text(inputs.graph_text(topology), encoding="utf-8")
    (work / "snapshot.txt").write_text(inputs.snapshot_text(topology, reading), encoding="utf-8")


def main(args: list[str]) -> int:
    if args:  # the child that builds the inputs
        write_inputs(Path(args[0]))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        subprocess.run([sys.executable, __file__, tmp], check=True)
        argv = [sys.executable, "-m", "trustconnect.cli", "eval", "--graph", "graph.txt",
                "--snapshot", "snapshot.txt", "--format", "json", "--out", "report.json"]
        began = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - began
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            print(f"eval exited with {code}", file=sys.stderr)
            return 1
        digest = hashlib.sha256((work / "report.json").read_bytes()).hexdigest()
    print(f"wall_s {wall:.2f}")
    print(f"peak_rss_mb {usage.ru_maxrss / 1024:.1f}")
    print(f"report_sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
