"""Fast self-check of the benchmark itself (about half a minute).

    python3 perfbench/selfcheck.py

1. The checker accepts real program output and rejects the same output
   with one deliberately perturbed row, for each output kind.
   A slope outside the band of the one known fault, or any other
   problem, on the operation that has that fault is not excused.
2. The metric names and units that ``run.py`` prints, in a one-second
   run with ``--trace 0`` and with ``--trace 1``, match BENCHMARK.json.
3. ``run.py`` exits non-zero, without printing a result, in a directory
   that holds only BENCHMARK.json and the benchmark's files.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import Program, output_parts  # noqa: E402


def perturb_text(text: str, row: int) -> str:
    """Scale one value of data row ``row`` by 1 + 1e-9: the fourth CSV
    field, or the first float field of a JSON row."""
    lines = text.split("\n")
    if text.startswith("{"):
        document = json.loads(text)
        record = document["rows"][row]
        key = sorted(k for k, v in record.items() if isinstance(v, float))[0]
        record[key] *= 1.0 + 1e-9
        return json.dumps(document) + "\n"
    fields = lines[row + 1].split(",")
    fields[3] = repr(float(fields[3]) * (1.0 + 1e-9))
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


def checker_rejects_perturbed_rows() -> list[str]:
    program = Program()
    checker = checks.Checker(seed=0)
    ops = [op for op in workloads.PROBE_ROUND if op.get("known_fault") is None]
    ops.append(workloads.sweep(workloads.CASES["box"], "well-depth", 0.0, 5.0, 50, 2, "json"))
    failures = []
    for op in ops:
        with contextlib.redirect_stderr(io.StringIO()):
            parts = dict(output_parts(op, program.run(op)))
        label = f"{op['kind']} {op.get('argv', [''])[0]} {op.get('fmt', '')}".strip()
        if checker.check(op, parts):
            failures.append(f"{label}: real output rejected: {checker.check(op, parts)}")
            continue
        bad = dict(parts)
        if op["kind"] == "cli":
            bad["text"] = perturb_text(parts["text"], row=1)
        elif op["kind"] == "spectrum_table":
            bad["energy_total"] = parts["energy_total"].copy()
            bad["energy_total"][-1] *= 1.0 + 1e-9
        elif op["kind"] == "solve_eigenvalues":
            bad["eigenvalues"] = parts["eigenvalues"][:1] + [parts["eigenvalues"][1] * 1.01] + parts["eigenvalues"][2:]
        elif op["kind"] == "convergence_study":
            bad["slopes"] = [1.5] + parts["slopes"][1:]
        else:
            bad["value"] = parts["value"] * 1.01
        if not checker.check(op, bad):
            failures.append(f"{label}: perturbed output accepted")
    return failures


def known_fault_is_narrow() -> list[str]:
    op = workloads.convergence("shallow")
    parts = dict(output_parts(op, Program().run(op)))
    checker = checks.Checker(seed=0)
    failures = []
    problems = checker.check(op, parts)
    if not problems or checks.unexplained(problems):
        failures.append(f"known fault: expected only excused slope problems, got {problems}")
    for label, bad in (
        ("slope outside the band", dict(parts, slopes=[1.7] + parts["slopes"][1:])),
        ("non-positive error", dict(parts, errors=[[-1.0] + row[1:] for row in parts["errors"]])),
        ("missing slope", dict(parts, slopes=parts["slopes"][1:])),
    ):
        if not checks.unexplained(checker.check(op, bad)):
            failures.append(f"known fault: {label} was excused")
    return failures


def printed_names_match() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    if not {w["name"] for w in spec["workloads"]} <= set(workloads.ROUNDS):
        failures.append("BENCHMARK.json names a workload that run.py does not have")
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [*spec["command"], "--workload", "crosscheck", "--seed", "1", "--seconds", "1", "--trace", str(trace)]
        cmd[0] = sys.executable
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            failures.append(f"--trace {trace}: exit status {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        if printed != wanted:
            failures.append(f"--trace {trace}: printed {printed} but BENCHMARK.json has {wanted}")
        if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
            failures.append(f"--trace {trace}: bad result keys or not correct: {sorted(result)}")
    return failures


def fails_without_sources() -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cli_calls", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["run.py succeeded or printed a result without the program's sources"]
    return []


def main() -> int:
    failures = (
        checker_rejects_perturbed_rows() + known_fault_is_narrow() + printed_names_match() + fails_without_sources()
    )
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
