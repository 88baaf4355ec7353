"""``tools/check_pythons.py``: every golden file, the row kernels and ``network_trust`` on each
supported Python."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_pythons.py"
GOLDEN_FILES = sum(path.is_file() for path in (Path(__file__).parent / "golden").rglob("*"))


def run_tool(*pythons: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, TOOL, *pythons], capture_output=True, text=True)


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_every_golden_file_is_reproduced(version):
    found = sorted(Path.home().glob(f".pyenv/versions/{version}.*/bin/python3"))
    if not found:
        pytest.skip(f"no Python {version} under ~/.pyenv/versions")
    done = run_tool(str(found[-1]))
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith(f"{found[-1]} ok: {version}.")
    assert done.stdout.endswith(
        f", {GOLDEN_FILES} golden files byte-identical, kernels bit-identical to the loop,"
        " network_trust summed left to right\n")


def test_a_missing_interpreter_is_skipped_not_failed(tmp_path):
    missing = tmp_path / "python3.99"
    done = run_tool(str(missing))
    assert (done.returncode, done.stdout) == (0, f"{missing} skipped: not installed\n")
