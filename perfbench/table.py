"""Run every workload once and print its end-to-end metrics, one row per workload.

    python3 perfbench/table.py

Workloads, metric names, units and the run length come from
``BENCHMARK.json``; each run is ``run.py --trace 0`` on the default seed.
The last column says whether every output was correct.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run


def main() -> int:
    spec = run.SPEC
    columns = [f"{m['name']} ({m['unit']})" for m in spec["end_to_end"]]
    print("\t".join(["workload", *columns, "correct (failed/attempted)"]))
    worst = 0
    for workload in spec["workloads"]:
        done = subprocess.run(
            [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload["name"],
             "--seed", str(run.DEFAULT_SEED), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True,
        )
        if done.returncode != 0:
            print(f"{workload['name']}\trun failed:\n{done.stderr}", file=sys.stderr)
            worst = 1
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        cells = [f"{result['metrics'][m['name']]['value']:.6g}" for m in spec["end_to_end"]]
        verdict = f"{result['correct']} ({result['failed']}/{result['attempted']})"
        print("\t".join([workload["name"], *cells, verdict]))
        worst = worst or (0 if result["correct"] else 1)
    return worst


if __name__ == "__main__":
    sys.exit(main())
