"""End-to-end and per-layer benchmark of ptoscillator.

    python3 perfbench/run.py --workload {cli_calls,crosscheck} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src`` and is not installed.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``perfbench/README.md`` defines every metric, workload
and check.  Results and spans are also written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import pickle
import shutil
import statistics
import struct
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.ptoscillator_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "parameters.derive_scales.us_per_call": "us",
    "parameters.derive_scales.calls_per_row": "calls/row",
    "spectra.spectrum_table.us_per_row": "us",
    "spectra.level.us_per_call": "us",
    "spectra.level_calls_per_row": "calls/row",
    "limits.expansion.us_per_call": "us",
    "perturbation.perturbed_energy.us_per_call": "us",
    "semiclassical.action.ms_per_call": "ms",
    "semiclassical.action_calls_per_root": "calls/root",
    "semiclassical.qc_energy_numeric.ms_per_root": "ms",
    "oracle.solve_eigenvalues.ms_per_call": "ms",
    "oracle.grid_points_per_s": "points/s",
    "oracle.numerical_pressure.ms_per_level": "ms",
    "oracle.eigensolves_per_pressure": "calls/level",
    "oracle.convergence_study.ms_per_call": "ms",
    "cli.csv.self_us_per_row": "us",
    "cli.json.self_us_per_row": "us",
    "cli.main.self_ms_per_call": "ms",
    "trace.overhead_pct": "%",
}

# op_tail_s is the highest percentile that keeps at least ten samples
# beyond it at the op count a 55 s run reaches on the reference machine
# (README, "Tail percentile").  Nearest-rank definition.
TAIL_PERCENTILE = {"cli_calls": 0.75, "crosscheck": 0.99}
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3


class BenchmarkError(RuntimeError):
    pass


def program_env() -> dict[str, str]:
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def wait(proc: subprocess.Popen):
    """Reap ``proc``; returns (exit code, peak resident memory in KiB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class WorkerRunner:
    """Runs operations in one ``worker.py`` process, in lockstep.

    Use as a context manager: leaving the block kills a worker that
    :meth:`close` did not end, and waits for it.
    """

    def __init__(self, workload: str, trace_path: Path | None = None) -> None:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)
        if not self._read().get("ready"):
            raise BenchmarkError("worker did not start")
        self.peak_kb = 0

    def _read(self):
        header = self.proc.stdout.read(8)
        if len(header) < 8:
            raise BenchmarkError("worker ended unexpectedly")
        (size,) = struct.unpack(">Q", header)
        return pickle.loads(self.proc.stdout.read(size))

    def run(self, op_id: int, op: dict):
        self.proc.stdin.write(json.dumps({"id": op_id, "op": op}).encode() + b"\n")
        self.proc.stdin.flush()
        elapsed = self._read()["elapsed"]
        parts = {}
        while (part := self._read()) is not None:
            parts[part[0]] = part[1]
        return elapsed, parts

    def close(self) -> int:
        self.proc.stdin.write(b'{"quit": true}\n')
        self.proc.stdin.flush()
        self.peak_kb = self._read()["maxrss_kb"]
        self.proc.stdin.close()
        self.proc.stdout.close()
        code, _ = wait(self.proc)
        if code != 0:
            raise BenchmarkError(f"worker exited with status {code}")
        return self.peak_kb

    def __enter__(self) -> "WorkerRunner":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            wait(self.proc)


class CliRunner:
    """Runs each operation as a fresh ``python -m ptoscillator.cli`` process.

    With ``trace_dir`` the child is ``launcher.py`` instead, which traces
    the same ``cli.main`` call and writes its spans there.
    """

    def __init__(self, trace_dir: Path | None = None) -> None:
        self.trace_dir = trace_dir
        self.env = program_env()
        self.peak_kb = 0

    def run(self, op_id: int, op: dict):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "ptoscillator.cli", *op["argv"]]
        else:
            spans = self.trace_dir / f"cli-{op_id}.npz"
            cmd = [sys.executable, str(HERE / "launcher.py"), str(spans), str(op_id), *op["argv"]]
        gc.collect()
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env, cwd=ROOT)
        text = proc.stdout.read()
        proc.stdout.close()
        code, peak_kb = wait(proc)
        elapsed = perf_counter() - start
        self.peak_kb = max(self.peak_kb, peak_kb)
        return elapsed, {"code": code, "text": text.decode("utf-8")}

    def close(self) -> int:
        return self.peak_kb

    def __enter__(self) -> "CliRunner":
        return self

    def __exit__(self, *exc) -> None:
        pass  # every child has been waited for in run()


def runner_for(workload: str, trace_path: Path | None = None):
    """The runner of a workload; traced when ``trace_path`` is given."""
    if workload == "cli_calls":
        return CliRunner(trace_path)
    return WorkerRunner(workload, trace_path)


class Session:
    """Runs whole rounds of operations and checks every output."""

    def __init__(self, seed: int) -> None:
        self.checker = checks.Checker(seed)
        self.digests: dict[str, str] = {}
        self.ops: dict[int, dict] = {}
        self.unexpected: list[str] = []

    def execute(self, runner, op: dict) -> tuple[int, float, bool]:
        """Run and check one operation; returns (op id, seconds, passed)."""
        op_id = len(self.ops)
        self.ops[op_id] = op
        elapsed, parts = runner.run(op_id, op)
        problems = self.checker.check(op, parts)
        if op["kind"] == "cli":
            key = json.dumps(op["argv"])
            digest = hashlib.sha256(parts["text"].encode()).hexdigest()
            if self.digests.setdefault(key, digest) != digest:
                problems.append("output differs from an identical earlier call")
        if unexpected := checks.unexplained(problems):
            self.unexpected.append(f"{op['kind']} {op.get('argv', op.get('params'))}: {unexpected[:3]}")
        return op_id, elapsed, not problems

    def rounds(self, runners, round_ops, seconds: float, before_round=None) -> list[list[tuple[int, float, bool]]]:
        """Whole rounds until the next one would end past ``seconds``.

        Each operation runs on every runner in turn, the first runner
        changing from round to round, so that all of them see the same
        phases of the host.  Returns the records of each runner.
        """
        records = [[] for _ in runners]
        order = list(zip(runners, records))
        start = perf_counter()
        while True:
            if before_round is not None:
                before_round(perf_counter() - start)
            round_start = perf_counter()
            for op in round_ops:
                for runner, done in order:
                    done.append(self.execute(runner, op))
            order.reverse()
            now = perf_counter()
            if now - start + (now - round_start) > seconds:
                return records


def setup_sample(workload: str) -> float:
    """Seconds for a fresh interpreter to import the program and warm up."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--setup-only"]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, cwd=ROOT)
    code, _ = wait(proc)
    elapsed = perf_counter() - start
    if code != 0:
        raise BenchmarkError(f"set-up process exited with status {code}")
    return elapsed


def nearest_rank(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def summary(session: Session, records) -> dict:
    failed = sum(1 for _, _, ok in records if not ok)
    return {"correct": not session.unexpected, "attempted": len(records), "failed": failed}


def measure(workload: str, seed: int, seconds: float) -> tuple[Session, dict]:
    session = Session(seed)
    round_ops = workloads.make_round(workload, seed)
    setups: list[float] = []

    def before_round(elapsed: float) -> None:
        # spread the set-up samples over the run, so a slow phase of the
        # host does not fall on all of them
        due = min(SETUP_SAMPLES, 1 + int(SETUP_SAMPLES * elapsed / seconds))
        while len(setups) < due:
            setups.append(setup_sample(workload))

    with runner_for(workload) as runner:
        (records,) = session.rounds([runner], round_ops, seconds, before_round)
        peak_kb = runner.close()
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(workload))

    times = [elapsed for _, elapsed, _ in records]
    rows = sum(session.ops[op_id]["rows"] for op_id, _, ok in records if ok)
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(times),
        "op_tail_s": nearest_rank(times, TAIL_PERCENTILE[workload]),
        "rows_per_s": rows / sum(times),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    result = summary(session, records)
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return session, result


def import_sample() -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ptoscillator.cli"],
        env=program_env(), cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"import failed: {proc.stderr[-500:]}")
    return tracing.import_times(proc.stderr)


def trace(workload: str, seed: int, seconds: float) -> tuple[Session, dict]:
    """Untraced and traced runners taking the workload's operations in
    turn for ``seconds``, then the probe round."""
    session = Session(seed)
    round_ops = workloads.make_round(workload, seed)
    samples = [import_sample() for _ in range(IMPORT_SAMPLES)]
    imports = {name: statistics.median(s[name] for s in samples) for name in samples[0]}

    trace_dir = OUT / f"trace-{workload}"  # only the latest traced run is kept
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    # a traced CLI child writes one span file per call into trace_dir
    spans_at = trace_dir if workload == "cli_calls" else trace_dir / "worker.npz"
    with runner_for(workload) as plain_runner, runner_for(workload, spans_at) as traced_runner:
        plain, traced = session.rounds([plain_runner, traced_runner], round_ops, seconds)
        plain_runner.close()
        traced_runner.close()
    with WorkerRunner(workload, trace_dir / "probe.npz") as runner:
        probe = [session.execute(runner, op) for op in workloads.PROBE_ROUND]
        runner.close()

    spans = tracing.Spans(sorted(trace_dir.glob("*.npz")))
    layers = tracing.layer_metrics(
        spans,
        {op_id: session.ops[op_id] for op_id, _, _ in traced},
        {op_id: session.ops[op_id] for op_id, _, _ in probe},
    )

    def total(records) -> float:
        return sum(elapsed for _, elapsed, _ in records)

    # both runners ran the same operations, interleaved
    layers["trace.overhead_pct"] = 100.0 * (total(traced) / total(plain) - 1.0)
    layers.update(imports)
    # probe operations are checked but not counted, so that the failed
    # share depends only on the workload's own rounds
    result = summary(session, plain + traced)
    result["metrics"] = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return session, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ptoscillator" / "__init__.py").is_file():
        print(f"error: no ptoscillator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = trace if args.trace else measure
    try:
        session, result = run(args.workload, args.seed, args.seconds)
    except (BenchmarkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in session.unexpected[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
