"""Run one trustconnect CLI command with layer spans recorded.

    python3 perfbench/traced_cli.py SPANS_JSON OP_ID -- <trustconnect arguments>

Imports ``trustconnect.cli`` as ``python -m trustconnect.cli`` would, wraps
the public layer functions (see ``spans.py``), runs ``main`` and writes the
spans and counts to SPANS_JSON. The exit code is the CLI's.
"""

import json
import sys

import trustconnect.cli

from spans import Tracer


def main(argv: list[str]) -> int:
    spans_path, op_id, dashes, *cli_args = argv
    if dashes != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON OP_ID -- ARGS...")
    tracer = Tracer()
    tracer.op = int(op_id)
    with tracer.installed():
        code = trustconnect.cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
