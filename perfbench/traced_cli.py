"""Run one `jetmin` command with the benchmark's spans installed.

    python3 perfbench/traced_cli.py SPANS_JSON COMMAND [ARGS...]

Writes the spans and counts of the command to SPANS_JSON and exits with the
command's exit code; stdout and stderr are the command's own.
"""
import json
import sys

import jetmin.cli

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return tracer.wrap("cli.main", jetmin.cli.main)(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
