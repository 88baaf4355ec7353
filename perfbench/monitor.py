"""The monitor-stream child: one vehicle-scale graph, a closed loop of snapshots.

    python3 perfbench/monitor.py GRAPH SEED TRACE SECONDS RESULT_JSON

Set-up is interpreter start, ``import trustconnect`` and ``load_graph``; the
child prints ``ready`` when it is done, so the parent can time it. Then one
caller evaluates snapshots back to back for SECONDS: each op is
``full_report`` (fixed-point) plus ``detect`` on a snapshot the benchmark
built just before the op, outside the timer. Every op has its own snapshot,
seeded with SEED and the op's index, so no two ops of a child share inputs.
Every op's output must be converged and finite; the first ``CHECKED_OPS``
ops also feed the run digest, which every child of a run must reproduce and
which must match ``expected.json`` on the default seed. With TRACE 1 set-up
and every other op run with layer spans recorded.

The graph is the same vehicle on every seed (``VEHICLE_SEED``); SEED drives
the snapshot stream. Fixed-point work follows the graph's contraction (its
iteration count ranges from 31 to 39 over random 200-node graphs), so a
per-seed graph would make op time depend on the seed more than on the code.
Bench modules are imported after ``ready`` so they do not count as set-up.
"""

from __future__ import annotations

import sys
import time
from contextlib import nullcontext

NODES = 200
DEGREE = 10
CHECKED_OPS = 16
ATTACK_SHARE = 0.01
VEHICLE_SEED = 0


def trust_params(max_iterations: int = 100):
    from trustconnect import TrustParams

    return TrustParams(k=1.0, alpha=0.1, mode="fixed-point", max_iterations=max_iterations)


def snapshot_for(topology, seed: int, index: int):
    """The snapshot of op ``index`` in a run seeded with ``seed``."""
    import inputs
    from trustconnect import Snapshot

    reading = inputs.build_reading(topology, f"{seed}:{index}", ATTACK_SHARE)
    observed, inferred = inputs.snapshot_dicts(topology, reading)
    return Snapshot(observed=observed, inferred=inferred)


def least_converging_iterations(graph, snapshot) -> int | None:
    """The least ``max_iterations`` whose ``full_report`` has ``converged``.

    The iterates do not depend on the cap, so convergence is monotone in it
    and a bisection finds the least one. None when the default cap fails.
    """
    import warnings

    from trustconnect import NonConvergenceWarning, full_report

    def converged(cap: int) -> bool:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            return full_report(graph, snapshot, trust_params(cap)).converged

    low, high = 1, trust_params().max_iterations
    if not converged(high):
        return None
    while low < high:
        middle = (low + high) // 2
        if converged(middle):
            high = middle
        else:
            low = middle + 1
    return low


def run_loop(graph, seed: int, seconds: float, tracer) -> dict:
    """Closed loop for ``seconds``; ``tracer`` (or None) records every other op."""
    import traceback

    import trustconnect

    import checks
    import inputs

    topology = inputs.build_topology(NODES, DEGREE, VEHICLE_SEED)
    params = trust_params()
    detector_params = trustconnect.DetectorParams()
    check = checks.OutputCheck(checks.expected_digest("monitor-stream", seed))
    result = {"op_seconds": [], "traced_ops": []}
    if tracer is not None:
        result["fixed_point_iterations"] = least_converging_iterations(
            graph, snapshot_for(topology, seed, 0)
        )
    start = time.perf_counter()
    index = 0
    while index < CHECKED_OPS or time.perf_counter() - start < seconds:
        key = index if index < CHECKED_OPS else None
        snapshot = snapshot_for(topology, seed, index)
        traced = tracer is not None and index % 2 == 1
        try:
            if traced:
                tracer.op = index
            with tracer.installed() if traced else nullcontext():
                began = time.perf_counter()
                report = trustconnect.full_report(graph, snapshot, params)
                detection = trustconnect.detect(graph, snapshot, params, detector_params)
                elapsed = time.perf_counter() - began
        except Exception:  # the loop goes on; the op counts as failed
            traceback.print_exc()
            check.op(key, None, False)
        else:
            if traced:
                result["traced_ops"].append([index, elapsed])
            else:
                result["op_seconds"].append(elapsed)
            digest = checks.sha256_hex(
                report.to_json().encode("utf-8"), detection.to_json().encode("utf-8")
            )
            check.op(key, digest, checks.monitor_output_ok(report, detection))
        index += 1
    check.finish()
    result.update(attempted=check.attempted, failed=check.failed, digest=check.run_digest())
    return result


def main(argv: list[str]) -> int:
    import trustconnect

    graph_path, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.op = "setup"
    with tracer.installed() if trace else nullcontext():
        graph = trustconnect.load_graph(graph_path)
    print("ready", flush=True)
    seconds, result_path = float(argv[3]), argv[4]
    import json

    result = run_loop(graph, seed, seconds, tracer)
    if tracer is not None:
        result.update(tracer.dump())
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
