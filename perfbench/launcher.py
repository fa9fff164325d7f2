"""Traced CLI call, the child process of a traced ``cli_calls`` run.

    python3 perfbench/launcher.py SPANS_PATH OP_ID CLI_ARGS...

Behaves like ``python -m ptoscillator.cli CLI_ARGS...`` (same stdout,
same exit status), but wraps the traced public functions first and
writes the spans of the call to SPANS_PATH when it ends.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def main() -> int:
    spans_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from ptoscillator import cli

    tracer.current_op[0] = op_id
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
