"""Traced fresh-process CLI run: ``cli.main(argv)`` under the span tracer.

Usage: python -X importtime perfbench/cli_child.py SPANS_JSON -- CLI_ARGS...

The ``-X importtime`` rows go to stderr; the aggregated spans are written
to SPANS_JSON.  The exit code is the CLI's.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402  (stdlib only, so the import rows stay ionlink's)
import ionlink.cli as cli  # noqa: E402


def run(spans_path: str, argv: list[str]) -> int:
    tr = tracer.Tracer()
    tr.install()
    tr.op = 0
    code = cli.main(argv)
    Path(spans_path).write_text(json.dumps(
        {"stats": tr.stats(), "campaigns": tr.campaigns()}))
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: cli_child.py SPANS_JSON -- CLI_ARGS...")
    sys.exit(run(sys.argv[1], sys.argv[3:]))
