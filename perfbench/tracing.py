"""Spans around the public functions of each epbeat module.

`Tracer.install` wraps every module-level function of the package at
every place that binds it (the defining module, each module that
imported it, the package namespace), so calls between modules pass
through the wrapper. A span is (name, start, end, parent, op): `parent`
indexes the enclosing span, `op` numbers the CLI invocation. Spans stay
in memory and are written out when the run ends.

A layer's self time is its span's duration minus the part of that
interval that its child spans cover (`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import statistics
import sys
import time

PACKAGE = "epbeat"
# Private functions that are layer boundaries of their own.
PRIVATE_TRACED = ("_full_block_operator",)

# Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = (
    ("truncated.diagonalize_sym.s", "s", "lower"),
    ("truncated.diagonalize_sym.calls", "count", "lower"),
    ("truncated.diagonalize_sym.max_dim", "count", "lower"),
    ("truncated.solve_truncated.s", "s", "lower"),
    ("truncated.build_truncated.s", "s", "lower"),
    ("effective.eval_ep.s", "s", "lower"),
    ("effective.eval_ep.calls", "count", "lower"),
    ("effective.assemble_ep.s", "s", "lower"),
    ("effective.recurse_ep.s", "s", "lower"),
    ("effective.schur_ep.s", "s", "lower"),
    ("effective._full_block_operator.s", "s", "lower"),
    ("spectrum.find_roots.s", "s", "lower"),
    ("spectrum.find_roots.calls", "count", "lower"),
    ("spectrum.linearize_ep.s", "s", "lower"),
    ("spectrum.lin_dim", "count", "lower"),
    ("spectrum.roots", "count", "higher"),
    ("spectrum.excluded", "count", "lower"),
    ("spectrum.certified_ratio", "ratio", "higher"),
    ("spectrum.residual_max", "eta", "lower"),
    ("assembly.reconstruct_all.s", "s", "lower"),
    ("assembly.density.s", "s", "lower"),
    ("assembly.density.calls", "count", "lower"),
    ("assembly.schmidt_rank.s", "s", "lower"),
    ("realizations.group_realizations.s", "s", "lower"),
    ("realizations.realization_densities.s", "s", "lower"),
    ("realizations.mix_density.s", "s", "lower"),
    ("realizations.groups", "count", "higher"),
    ("pipeline.solve_problem.s", "s", "lower"),
    ("pipeline.mean_intermediate_density.s", "s", "lower"),
    ("beat.simulate_beat.s", "s", "lower"),
    ("beat.events", "count", "higher"),
    ("rng.categorical_block.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.write_events_csv.s", "s", "lower"),
    ("cli.write_density_csv.s", "s", "lower"),
    ("cli.write_json.s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("oracle.direct_spectrum.s", "s", "lower"),
    ("oracle.direct_spectrum.calls", "count", "lower"),
    ("oracle.build_full_operator.s", "s", "lower"),
    ("oracle.compare_spectra.s", "s", "lower"),
    ("verification.check_instance.s", "s", "lower"),
    ("verification.check_instance.p50_s", "s", "lower"),
    ("verification.check_instance.p90_s", "s", "lower"),
    ("verification.max_state_residual.s", "s", "lower"),
    ("model.project_coupling.s", "s", "lower"),
    ("model.project_coupling.calls", "count", "lower"),
    ("model.build_problem.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


# ---------------------------------------------------------------------------
# Counters read from arguments and results at the layer boundary


def _max_dim(c, args, result):
    c["truncated.diagonalize_sym.max_dim"] = max(
        c.get("truncated.diagonalize_sym.max_dim", 0), int(args[0].shape[0]))


def _lin_dim(c, args, result):
    c["spectrum.lin_dim"] = c.get("spectrum.lin_dim", 0) + int(result.shape[0])


def _roots(c, args, result):
    c["spectrum.roots"] = c.get("spectrum.roots", 0) + int(len(result.roots))
    c["spectrum.excluded"] = (c.get("spectrum.excluded", 0)
                              + len(result.excluded))
    c["spectrum.residual_max"] = max(c.get("spectrum.residual_max", 0.0),
                                     float(result.residual_max))


def _groups(c, args, result):
    c["realizations.groups"] = (c.get("realizations.groups", 0)
                                + len(result.groups))


def _events(c, args, result):
    c["beat.events"] = c.get("beat.events", 0) + int(result.length)


def _bytes(c, args, result):
    c["cli.bytes_written"] = (c.get("cli.bytes_written", 0)
                              + os.path.getsize(args[0]))


PROBES = {
    "truncated.diagonalize_sym": _max_dim,
    "spectrum.linearize_ep": _lin_dim,
    "spectrum.find_roots": _roots,
    "realizations.group_realizations": _groups,
    "beat.simulate_beat": _events,
    "cli.write_events_csv": _bytes,
    "cli.write_density_csv": _bytes,
    "cli.write_json": _bytes,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, op]
        self.counters: dict = {}
        self.probe_errors = 0
        self.op = 0
        self._stack: list = []

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None,
                          self.op])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if probe is not None:
                try:
                    probe(self.counters, args, result)
                except Exception:  # a counter must never break the program
                    self.probe_errors += 1
            return result

        return traced

    def install(self) -> int:
        """Wrap the package's functions wherever they are bound."""
        pkg = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        wrappers: dict = {}
        for mod_name in sorted(sys.modules):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            module = sys.modules[mod_name]
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                if obj.__name__.startswith("_") \
                        and obj.__name__ not in PRIVATE_TRACED:
                    continue
                if id(obj) not in wrappers:
                    layer = home[len(PACKAGE) + 1:]
                    wrappers[id(obj)] = (obj, self.wrap(
                        f"{layer}.{obj.__name__}", obj))
                setattr(module, attr, wrappers[id(obj)][1])
        return len(wrappers)


# ---------------------------------------------------------------------------
# Span arithmetic (pure; the runner applies it to the written spans)


def covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list:
    """Per span: duration minus the time its direct children cover."""
    children: dict = {}
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [(end - start) - covered(children.get(i, ()), start, end)
            for i, (name, start, end, *_) in enumerate(spans)]


def layer_metrics(untraced: dict, traced: dict) -> dict:
    """Every PER_LAYER metric of a traced run, from its untraced pass
    and its traced pass (which recorded the spans and counters).

    Span seconds are rescaled by the traced pass's host speed, like the
    pass's own wall time (hostspeed.py).
    """
    spans, counters = traced["spans"], traced["counters"]
    speed = traced["host"]["speed"]
    selfs: dict = {}
    calls: dict = {}
    durations: dict = {}
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        selfs[name] = selfs.get(name, 0.0) + own * speed
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append((span[2] - span[1]) * speed)
    checks = sorted(durations.get("verification.check_instance", ()))
    derived = {
        "spectrum.certified_ratio": (
            counters.get("spectrum.roots", 0) / counters["spectrum.lin_dim"]
            if counters.get("spectrum.lin_dim") else 0.0),
        "verification.check_instance.p50_s": (
            statistics.median(checks) if checks else 0.0),
        "verification.check_instance.p90_s": (
            statistics.quantiles(checks, n=10, method="inclusive")[-1]
            if len(checks) >= 2 else (checks[0] if checks else 0.0)),
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.spans": len(spans),
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name in counters:
            value = counters[name]
        elif name.endswith(".calls"):
            value = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".s"):
            value = selfs.get(name[:-len(".s")], 0.0)
        else:
            value = 0
        out[name] = {"value": value, "unit": unit}
    return out
