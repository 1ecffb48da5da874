"""Traced entry point for one command-line request.

    python perfbench/traced_cli.py SPANS_FILE SUBCOMMAND [ARG ...]

Installs the span wrappers, calls `wallcross.cli.main` with the remaining
arguments, so standard output is the program's own, writes the spans to
SPANS_FILE as JSON and exits with main's exit code.  `wallcross` must be
importable (run.py puts src/ on PYTHONPATH).
"""

from __future__ import annotations

import json
import sys

import spans


def main() -> int:
    out_path, args = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    spans.install(recorder)
    import wallcross.cli

    code = wallcross.cli.main(args)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(recorder.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
