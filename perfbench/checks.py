"""Output checks: digests per operation and a digest per run.

Every operation's output is hashed. Each op must reproduce the digest of the
first op with the same key (the same inputs); an op without a key is checked
for validity only. At the end of a run the
digests of all keys, in key order, are hashed again into the run digest;
for the default seed it must equal the one recorded in ``expected.json``.
A run whose digest is wrong counts every operation as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"


def expected_digest(workload: str, seed: int) -> str | None:
    """The recorded run digest for ``workload`` when ``seed`` is the recorded one."""
    recorded = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    if seed != recorded["seed"]:
        return None
    return recorded["sha256"][workload]


def sha256_hex(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def eval_output_ok(data: bytes) -> bool:
    """An eval JSON report that converged and holds only finite numbers."""
    try:
        doc = json.loads(data)
    except ValueError:
        return False
    values = [doc.get("network_trust")]
    for ecu in doc.get("ecus", []):
        values.extend(ecu.get(key) for key in ("epsilon", "btv", "trust", "eatv"))
    return doc.get("converged") is True and bool(doc.get("ecus")) and all_finite(values)


def sweep_digest(out_dir: Path, cells: int) -> tuple[str, bool]:
    """Digest of every file a sweep wrote (by name), and whether they are sound.

    Sound means one CSV and one SVG per grid cell plus the manifest, and
    CSVs holding only finite numbers.
    """
    files = sorted(path for path in out_dir.iterdir() if path.is_file())
    chunks = []
    ok = True
    for path in files:
        data = path.read_bytes()
        chunks.extend([path.name.encode("utf-8"), b"\0", data, b"\0"])
        if path.suffix == ".csv":
            ok = ok and csv_values_ok(data)
    suffixes = sorted(path.suffix for path in files)
    ok = ok and suffixes == [".csv"] * cells + [".svg"] * cells + [".txt"]
    return sha256_hex(*chunks), ok


def csv_values_ok(data: bytes) -> bool:
    try:
        rows = list(csv.reader(data.decode("utf-8").splitlines()))
        header_ok = rows[0] == ["id", "label", "epsilon", "btv", "trust", "eatv"]
        return header_ok and len(rows) > 1 and all(len(row) == 6 for row in rows) and all_finite(
            float(value) for row in rows[1:] for value in row[2:]
        )
    except (ValueError, IndexError):
        return False


def monitor_output_ok(report, detection) -> bool:
    values = [report.network_trust]
    for e in report.entries:
        values.extend((e.btv, e.trust, e.eatv))
    values.extend(e.evidence for e in detection.entries)
    return report.converged and all_finite(values)


def all_finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class OutputCheck:
    """Decides per op whether its output is right, and per run at the end."""

    def __init__(self, expected: str | None):
        self.expected = expected
        self.first: dict[object, str] = {}
        self.attempted = 0
        self.failed = 0

    def op(self, key, digest: str | None, valid: bool) -> bool:
        """Record one op; ``digest`` is None when the op produced no output."""
        self.attempted += 1
        ok = valid and digest is not None and (
            key is None or self.first.setdefault(key, digest) == digest
        )
        if not ok:
            self.failed += 1
        return ok

    def run_digest(self) -> str:
        return sha256_hex(*(self.first[key].encode("ascii") for key in sorted(self.first)))

    def finish(self) -> None:
        """Count every op as failed when the run digest is not the recorded one."""
        if self.expected is not None and self.run_digest() != self.expected:
            self.failed = self.attempted
