"""Traced stand-in for `python -m steerkit`, one fresh process per command.

Usage: cli_child.py SPANS_PATH ARGV...

Imports `steerkit.cli` (timed as the `cli.import` span), installs the span
wrappers, calls `steerkit.cli.run(ARGV)` so the report goes to standard
output as it does for a user, then writes the spans to SPANS_PATH and exits
with the command's code.  The parent needs `src` on PYTHONPATH.
"""

import json
import sys
import time

start = time.perf_counter()
import steerkit.cli  # noqa: E402

imported = time.perf_counter()

from spans import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.record("cli.import", start, imported)
    tracer.install()
    code = steerkit.cli.run(sys.argv[2:])
    sys.stdout.flush()
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
