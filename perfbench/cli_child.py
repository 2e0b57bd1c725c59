"""Run one monoval CLI command with the per-layer tracer installed.

    python3 -X importtime perfbench/cli_child.py STATS_JSON TRACE_FILE \
        SPAN_OFFSET OP_ID -- CLI_ARGS...

Appends the command's spans to TRACE_FILE (span indices shifted by
SPAN_OFFSET), writes the tracer summary to STATS_JSON and exits with
the CLI's own exit code.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from monoval import cli  # noqa: E402

import tracer as tracing  # noqa: E402


def main(argv):
    stats_file, trace_file, offset, op_id = argv[1:5]
    if argv[5] != "--":
        raise SystemExit("usage: cli_child.py STATS TRACE OFFSET OP -- ARGS")
    tracer = tracing.Tracer()
    tracer.op = int(op_id)
    tracer.install()
    try:
        code = cli.main(argv[6:])
    finally:
        tracer.uninstall()
    spans = tracer.dump(trace_file, int(offset))
    with open(stats_file, "w", encoding="utf-8") as handle:
        json.dump({"summary": tracer.summary(), "spans": spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
