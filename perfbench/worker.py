"""Benchmark worker: a fresh interpreter that runs operations in-process.

    python3 perfbench/worker.py --workload NAME [--setup-only] [--trace PATH]

It imports ``ptoscillator`` from ``src``, makes one warm-up call of each
operation kind the workload uses, and then, unless ``--setup-only``,
serves the parent (``run.py``) in lockstep: the parent writes one JSON
line per operation on stdin; the worker times the operation and answers
with frames holding the time and the operation's output, then waits
for the next line.  Nothing else runs meanwhile, so the parent's checks
never compete with an operation for a core.

Frames go to a private copy of the original stdout; file descriptor 1
is pointed at stderr so that nothing the program prints can corrupt
them.  With ``--trace PATH`` every traced public function is wrapped
(see ``tracing.py``) and the spans are written to PATH on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import pickle
import resource
import struct
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def send(stream, message) -> None:
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(struct.pack(">Q", len(data)))
    stream.write(data)


class Program:
    """The public entry points operations call, looked up on their modules."""

    def __init__(self) -> None:
        from ptoscillator import cli, oracle, parameters, semiclassical, spectra

        self.cli, self.oracle, self.semiclassical, self.spectra = cli, oracle, semiclassical, spectra
        self.parameters = parameters

    def run(self, op: dict):
        """Run one operation; returns its raw result (the timed part)."""
        kind = op["kind"]
        if kind == "cli":
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = self.cli.main(list(op["argv"]))
            return code, buffer
        params = self.parameters.PTParameters(*op["params"])
        if kind == "spectrum_table":
            return self.spectra.spectrum_table(params, op["n_max"])
        if kind == "solve_eigenvalues":
            return self.oracle.solve_eigenvalues(params, self.oracle.GridSpec(*op["grid"]))
        if kind == "numerical_pressure":
            return self.oracle.numerical_pressure(params, op["n"], use_eigenvalues=True)
        if kind == "qc_energy_numeric":
            return self.semiclassical.qc_energy_numeric(params, op["n"])
        if kind == "convergence_study":
            return self.oracle.convergence_study(params, op["grid_sizes"], op["level_count"])
        raise ValueError(f"unknown operation kind {kind!r}")


def output_parts(op: dict, result):
    """The operation's output as (name, value) parts of plain types; the
    parent reads parts until a ``None`` frame.

    A table is sent one column at a time, so that converting it adds
    little to the worker's peak memory.
    """
    import numpy as np

    kind = op["kind"]
    if kind == "cli":
        code, buffer = result
        yield "code", code
        yield "text", buffer.getvalue()
    elif kind == "spectrum_table":
        rows = result.rows
        count = len(rows)
        yield "n", np.fromiter((r.n for r in rows), dtype=np.int64, count=count)
        for field in (
            "energy_fp", "energy_ho", "energy_total", "pressure_fp", "pressure_ho",
            "pressure_total", "regime_ratio",
        ):
            yield field, np.fromiter((getattr(r, field) for r in rows), dtype=np.float64, count=count)
        yield "regime_label", [r.regime_label for r in rows]
    elif kind == "solve_eigenvalues":
        yield "eigenvalues", [float(v) for v in result.eigenvalues]
    elif kind in ("numerical_pressure", "qc_energy_numeric"):
        yield "value", float(result)
    elif kind == "convergence_study":
        yield "slopes", [float(v) for v in result.slopes]
        yield "errors", [[float(v) for v in row] for row in result.errors]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, help="write spans here on exit")
    args = parser.parse_args()

    frames = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    program = Program()  # the same import a CLI call pays: cli imports every module
    for op in workloads.WARMUPS[args.workload]:
        program.run(op)
    if args.setup_only:
        return 0

    send(frames, {"ready": True})
    frames.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("quit"):
            break
        op = request["op"]
        if tracer is not None:
            tracer.current_op[0] = request["id"]
        gc.collect()
        start = perf_counter()
        result = program.run(op)
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.current_op[0] = -1
        send(frames, {"elapsed": elapsed})
        for part in output_parts(op, result):
            send(frames, part)
        send(frames, None)
        del result
        frames.flush()
    if tracer is not None:
        tracer.dump(args.trace)
    send(frames, {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    frames.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
