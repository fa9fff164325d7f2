"""Spans around calls into the public functions of each ptoscillator module.

The program is not edited: :func:`install` replaces each traced function,
in every ``ptoscillator`` module namespace that holds it, by a wrapper
that records one span (name, start, end, parent, operation id, size).
Modules call each other through these globals, so internal calls are
traced as well.  Spans are kept in compact in-memory arrays and written
out once, at the end, by :meth:`Tracer.dump`.

:func:`layer_metrics` turns the spans of a run into the per-layer
metrics listed in ``perfbench/README.md``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

TRACED = {
    "parameters": ("derive_scales", "potential"),
    "spectra": ("energy_level", "pressure_level", "regime_ratio", "spectrum_table"),
    "limits": ("fp_limit_expansion", "ho_limit_expansion", "limit_equation_of_state"),
    "perturbation": ("perturbed_energy",),
    "semiclassical": (
        "classical_momentum", "turning_point", "action", "qc_energy_closed", "qc_energy_numeric",
    ),
    "oracle": ("solve_eigenvalues", "numerical_pressure", "convergence_study"),
    "cli": ("main",),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work size recorded on the span: table levels, or grid points solved.
SIZES = {
    "spectra.spectrum_table": lambda a, k: _arg(a, k, 1, "n_max"),
    "oracle.solve_eigenvalues": lambda a, k: sum(_arg(a, k, 1, "grid").grid_sequence()),
    "oracle.convergence_study": lambda a, k: sum(_arg(a, k, 1, "grid_sizes")),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.sizes = array("d")
        self.current_op = [-1]
        self._stack = [-1]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        size_of = SIZES.get(name)
        name_ids, parents, ops = self.name_ids, self.parents, self.ops
        starts, ends, sizes = self.starts, self.ends, self.sizes
        current_op, stack = self.current_op, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ops.append(current_op[0])
            sizes.append(size_of(args, kwargs) if size_of is not None else 0.0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[index] = start
                ends[index] = end

        return wrapper

    def dump(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            ops=np.frombuffer(self.ops, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            sizes=np.frombuffer(self.sizes, dtype=np.float64),
        )


def install(tracer: Tracer) -> None:
    """Wrap every traced function that exists in the imported package."""
    modules = {name: importlib.import_module(f"ptoscillator.{name}") for name in TRACED}
    package = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "ptoscillator"]
    for module_name, functions in TRACED.items():
        for function in functions:
            original = getattr(modules[module_name], function, None)
            if original is None:
                continue
            wrapper = tracer.wrap(f"{module_name}.{function}", original)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


class Spans:
    """Spans of one or more processes, merged, with durations and self times."""

    def __init__(self, files) -> None:
        names, name_ids, parents, ops, starts, ends, sizes = [], [], [], [], [], [], []
        offset = 0
        for path in files:
            with np.load(path) as data:
                local = list(data["names"])
                ids = np.array([self._id(names, n) for n in local], dtype=np.int64)
                count = len(data["name_ids"])
                name_ids.append(ids[data["name_ids"]] if count else np.zeros(0, np.int64))
                parent = data["parents"].astype(np.int64)
                parents.append(np.where(parent >= 0, parent + offset, -1))
                ops.append(data["ops"].astype(np.int64))
                starts.append(data["starts"])
                ends.append(data["ends"])
                sizes.append(data["sizes"])
                offset += count
        self.names = names
        cat = lambda parts, dtype: np.concatenate(parts) if parts else np.zeros(0, dtype)
        self.name = cat(name_ids, np.int64)
        self.parent = cat(parents, np.int64)
        self.op = cat(ops, np.int64)
        self.size = cat(sizes, np.float64)
        self.duration = cat(ends, np.float64) - cat(starts, np.float64)
        child = np.zeros(len(self.name))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child

    @staticmethod
    def _id(names: list[str], name: str) -> int:
        if name not in names:
            names.append(name)
        return names.index(name)

    def mask(self, *functions: str) -> np.ndarray:
        ids = [self.names.index(f) for f in functions if f in self.names]
        return np.isin(self.name, ids)

    def under(self, anchor: str) -> np.ndarray:
        """Spans that have a span of ``anchor`` among their ancestors."""
        is_anchor = self.mask(anchor)
        inside = np.zeros(len(self.name), dtype=bool)
        has_parent = self.parent >= 0
        parent = np.where(has_parent, self.parent, 0)
        while True:  # a fixed point after as many passes as the call depth
            step = has_parent & (is_anchor[parent] | inside[parent])
            if np.array_equal(step, inside):
                return inside
            inside = step


def _mean(values: np.ndarray):
    return float(values.mean()) if len(values) else None


def _ratio(numerator: float, denominator: float):
    return numerator / denominator if denominator else None


def _scaled(factor: float, value):
    return None if value is None else factor * value


def _metrics_from(spans: Spans, ops: dict[int, dict]) -> dict[str, float | None]:
    """Every per-layer metric over the spans of ``ops``; None where they
    hold no call of the layer."""
    rows = sum(op["rows"] for op in ops.values())
    keep = np.isin(spans.op, list(ops))

    def calls(*functions: str) -> np.ndarray:
        return spans.mask(*functions) & keep

    derive = calls("parameters.derive_scales")
    table = calls("spectra.spectrum_table")
    level = calls("spectra.energy_level", "spectra.pressure_level", "spectra.regime_ratio")
    expansion = calls("limits.fp_limit_expansion", "limits.ho_limit_expansion")
    perturbed = calls("perturbation.perturbed_energy")
    action = calls("semiclassical.action")
    root = calls("semiclassical.qc_energy_numeric")
    solve = calls("oracle.solve_eigenvalues")
    pressure = calls("oracle.numerical_pressure")
    convergence = calls("oracle.convergence_study")
    main = calls("cli.main")
    size = max(ops, default=0) + 1
    op_rows = np.zeros(size)
    op_fmt = np.zeros(size, dtype=object)
    for op_id, op in ops.items():
        op_rows[op_id], op_fmt[op_id] = op["rows"], op.get("fmt", "")
    lookup = np.where(keep, spans.op, 0)
    op_rows, fmt = op_rows[lookup], op_fmt[lookup]

    def cli_self_us_per_row(kind: str):
        chosen = main & (fmt == kind)
        if not chosen.any():
            return None
        return 1e6 * _ratio(spans.self_time[chosen].sum(), op_rows[chosen].sum())

    table_rows = spans.size[table].sum()
    return {
        "parameters.derive_scales.us_per_call": _scaled(1e6, _mean(spans.self_time[derive])),
        "parameters.derive_scales.calls_per_row": _ratio(float(derive.sum()), rows) if derive.any() else None,
        "spectra.spectrum_table.us_per_row": _scaled(1e6, _ratio(spans.duration[table].sum(), table_rows)),
        "spectra.level.us_per_call": _scaled(1e6, _mean(spans.self_time[level])),
        "spectra.level_calls_per_row": _ratio(float((level & spans.under("spectra.spectrum_table")).sum()), table_rows),
        "limits.expansion.us_per_call": _scaled(1e6, _mean(spans.duration[expansion])),
        "perturbation.perturbed_energy.us_per_call": _scaled(1e6, _mean(spans.duration[perturbed])),
        "semiclassical.action.ms_per_call": _scaled(1e3, _mean(spans.duration[action])),
        "semiclassical.action_calls_per_root": _ratio(
            float((action & spans.under("semiclassical.qc_energy_numeric")).sum()), float(root.sum())
        ),
        "semiclassical.qc_energy_numeric.ms_per_root": _scaled(1e3, _mean(spans.duration[root])),
        "oracle.solve_eigenvalues.ms_per_call": _scaled(1e3, _mean(spans.duration[solve])),
        "oracle.grid_points_per_s": _ratio(spans.size[solve].sum(), spans.duration[solve].sum()),
        "oracle.numerical_pressure.ms_per_level": _scaled(1e3, _mean(spans.duration[pressure])),
        "oracle.eigensolves_per_pressure": _ratio(
            float((solve & spans.under("oracle.numerical_pressure")).sum()), float(pressure.sum())
        ),
        "oracle.convergence_study.ms_per_call": _scaled(1e3, _mean(spans.duration[convergence])),
        "cli.csv.self_us_per_row": cli_self_us_per_row("csv"),
        "cli.json.self_us_per_row": cli_self_us_per_row("json"),
        "cli.main.self_ms_per_call": _scaled(1e3, _mean(spans.self_time[main])),
    }


def layer_metrics(spans: Spans, workload_ops: dict[int, dict], probe_ops: dict[int, dict]) -> dict[str, float]:
    """Per-layer metrics of the workload's own operations.

    A layer the workload never calls is taken from the probe round
    instead, and reads 0 only if the program no longer has that layer.
    """
    own = _metrics_from(spans, workload_ops)
    probe = _metrics_from(spans, probe_ops)
    result = {}
    for name, value in own.items():
        if value is None:
            value = probe[name]
        result[name] = 0.0 if value is None else float(value)
    return result


def import_times(stderr_text: str) -> dict[str, float]:
    """Seconds spent importing ptoscillator, scipy and numpy, from ``-X importtime``.

    A package's time is the cumulative time of each of its entries whose
    enclosing import is not part of the same package.
    """
    totals = {"ptoscillator": 0.0, "scipy": 0.0, "numpy": 0.0}
    stack: list[tuple[int, str]] = []  # (depth, top-level package) of open entries
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    # importtime prints children before their parent; walk in reverse so
    # that parents come first.
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = name.split(".")[0]
        if package in totals and not any(p == package for _, p in stack):
            totals[package] += cumulative / 1e6
        stack.append((depth, package))
    return {f"import.{name}_s": value for name, value in totals.items()}
