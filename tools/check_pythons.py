"""Reproduce every golden file, byte for byte, on each supported Python.

    python3 tools/check_pythons.py [PYTHON ...]

Each interpreter named (a path or a command), or else each one found as
``~/.pyenv/versions/3.1*/bin/python3``, runs a driver that needs no pytest. It
makes three checks:

* the goldens: it imports ``tests/test_golden.py`` with a stand-in ``pytest``
  module, writes every golden output into a temporary directory with that
  module's ``_everything``, and compares them with the files under
  ``tests/golden/``. The report bytes rest on float ``repr`` and JSON
  escaping, so this is where a version that changes either would show;
* the row kernels: a fixed-point report of the reference fixture, with its
  kernels built at once (``KERNEL_BUILD_ITERATIONS`` patched to 0), has the
  loop's every trust and baseline score and network trust, as ``float.hex``;
* ``network_trust``: in both modes, the fixture report's value is its entries'
  sums taken left to right, which Python 3.12's compensated ``sum`` would move.

One line per interpreter:

    PYTHON ok: VERSION, N golden files byte-identical, kernels bit-identical to the loop, network_trust summed left to right
    PYTHON FAILED: VERSION, ...
    PYTHON skipped: not installed

The exit code is 1 if any interpreter failed. Standard library only; no
bytecode is written.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DRIVER = r"""
import sys, tempfile, warnings
from pathlib import Path
from unittest import mock


class Stub:
    # pytest's marks and fixtures, leaving what they decorate as it is
    def __getattr__(self, name):
        return self

    def __call__(self, *args, **kwargs):
        return args[0] if len(args) == 1 and not kwargs and callable(args[0]) else self


root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "tests")]
sys.modules["pytest"] = Stub()
warnings.simplefilter("ignore")
import test_golden
from trustconnect import trust
from trustconnect.experiment import reference_fixture
from trustconnect.graph import DependencyGraph
from trustconnect.snapshot import synthesize_snapshot

with tempfile.TemporaryDirectory() as tmp:
    produced = test_golden._everything(Path(tmp))
stored = {str(path.relative_to(test_golden.GOLDEN)): path.read_bytes()
          for path in test_golden.GOLDEN.rglob("*") if path.is_file()}
version = sys.version.split()[0]
wrong = sorted(name for name in stored.keys() | produced.keys()
               if stored.get(name) != produced.get(name))
failures = [f"{len(wrong)} of {len(stored)} golden files differ: " + ", ".join(wrong[:5])
            ] if wrong else []

graph, scenario = reference_fixture()
snapshot = synthesize_snapshot(graph, scenario)


def report(graph, mode):
    return trust.full_report(graph, snapshot, trust.TrustParams(k=1.0, alpha=0.1, mode=mode))


def bits(report):
    return [(e.trust.hex(), e.btv.hex()) for e in report.entries], report.network_trust.hex()


with mock.patch.object(trust, "KERNEL_BUILD_ITERATIONS", 0):
    kernel_graph = DependencyGraph(nodes=graph.nodes, edges=graph.edges)
    kernels = bits(report(kernel_graph, "fixed-point"))
if "rows" not in kernel_graph.compiled.kernels:
    failures.append("no row kernels were built")
if bits(report(graph, "fixed-point")) != kernels:
    failures.append("fixed-point scores by the row kernels differ from the loop's")

for mode in ("single-pass", "fixed-point"):
    done = report(graph, mode)
    epsilon_sum = weighted_sum = 0.0
    for entry in done.entries:
        ratio = min(entry.trust, entry.btv) / entry.btv if entry.btv > 0 else 1.0
        epsilon_sum += entry.epsilon
        weighted_sum += entry.epsilon * ratio
    if done.network_trust != weighted_sum / epsilon_sum:
        failures.append(f"{mode} network_trust {done.network_trust.hex()} is not its "
                        f"left-to-right sum {(weighted_sum / epsilon_sum).hex()}")

if failures:
    print(f"FAILED: {version}, " + "; ".join(failures))
    sys.exit(1)
print(f"ok: {version}, {len(stored)} golden files byte-identical, "
      "kernels bit-identical to the loop, network_trust summed left to right")
"""


def check(python: str) -> tuple[bool, str]:
    """Whether ``python`` passed (or is missing), and its line."""
    found = shutil.which(python)
    if found is None:
        return True, f"{python} skipped: not installed"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run([found, "-B", "-c", DRIVER, str(ROOT)], env=env,
                          capture_output=True, text=True)
    last = (done.stdout.strip() or done.stderr.strip() or f"exited {done.returncode}")
    last = last.splitlines()[-1]
    if done.returncode != 0 and not last.startswith("FAILED"):
        last = f"FAILED: {last}"
    return done.returncode == 0, f"{python} {last}"


def main(argv: list[str]) -> int:
    pythons = argv or [str(path) for path in
                       sorted(Path.home().glob(".pyenv/versions/3.1*/bin/python3"))]
    passed = True
    for python in pythons:
        ok, line = check(python)
        print(line, flush=True)
        passed = passed and ok
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
