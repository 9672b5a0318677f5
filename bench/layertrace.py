"""Span tracing of eprenorm's layers from outside the package.

``Tracer.install`` wraps every public module-level function of each layer
module and rebinds every module attribute in the package that refers to an
original, so calls through ``from .x import y`` aliases (``cli.solve_exact_ep``,
``spectral.cubic_roots``, ...) are caught too.  Each call becomes one span
(name, start, end, parent, op id, ok, note) kept in memory; self times and
counts are derived from each op's spans between ops, outside the timed
region, and the first spans of the run are written out at its end.  Spans
assume one thread, which holds because the benchmark leaves
EPRENORM_THREADS unset.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "eprenorm"
LAYERS = ("cli", "config", "model", "charpoly", "epsolver", "spectral", "response", "embedcheck")
ROOT = "op"  # the benchmark's own span around one op; its self time is harness glue


def _divergent_rows(rows):
    return sum(1 for row in rows if any(row.divergent))


# Counts read off a call's result and stored as the span's note.
NOTES = {
    "spectral.sweep_eigs": _divergent_rows,
    "spectral.sweep_petermann": _divergent_rows,
    "response.spectrum": lambda points: sum(1 for pt in points if pt.singular),
    "embedcheck.integrate_pseudomode": lambda traj: len(traj.times) - 1,
    "embedcheck.integrate_nonmarkovian": lambda traj: len(traj.times) - 1,
}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    *[(f"{layer}.self_ms", "ms/op", "lower") for layer in LAYERS],
    ("bench.self_ms", "ms/op", "lower"),
    ("trace.op_ms", "ms", "lower"),
    ("trace.layer_share", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("cli.output_bytes", "B/op", "lower"),
    ("config.load_config.self_ms", "ms/op", "lower"),
    ("model.drift_nonmarkovian.calls", "count/op", "lower"),
    ("model.drift_markovian.calls", "count/op", "lower"),
    ("charpoly.cubic_roots.calls", "count/op", "lower"),
    ("charpoly.cubic_roots.self_ms", "ms/op", "lower"),
    ("charpoly.factors.calls", "count/op", "lower"),
    ("epsolver.solve_exact_ep.calls", "count/op", "lower"),
    ("epsolver.solve_exact_ep.self_ms", "ms/op", "lower"),
    ("epsolver.solve_exact_ep.fails", "count/op", "lower"),
    ("epsolver.certify_order_two.fails", "count/op", "lower"),
    ("epsolver.factors_per_solve", "count", "lower"),
    ("spectral.eigensystem.calls", "count/op", "lower"),
    ("spectral.eigensystem.self_ms", "ms/op", "lower"),
    ("spectral.sweep.self_ms", "ms/op", "lower"),
    ("spectral.divergent_rows", "count/op", "lower"),
    ("response.reflection.calls", "count/op", "lower"),
    ("response.reflection.self_ms", "ms/op", "lower"),
    ("response.spectrum.self_ms", "ms/op", "lower"),
    ("response.dip_metrics.self_ms", "ms/op", "lower"),
    ("response.singular_points", "count/op", "lower"),
    ("embedcheck.integrate_pseudomode.self_ms", "ms/op", "lower"),
    ("embedcheck.integrate_nonmarkovian.self_ms", "ms/op", "lower"),
    ("embedcheck.kernel_fourier_error.self_ms", "ms/op", "lower"),
    ("embedcheck.steps", "count/op", "lower"),
]


def public_functions(module):
    """Public functions defined in module itself (not imported into it)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Wraps the layers' public functions and records one span per call.

    Spans of the current op are in ``spans``; ``fold`` (called between ops,
    outside the timed region) adds them to ``summary`` and keeps the first
    MAX_KEPT_SPANS of the run for ``write``, so memory stays bounded.
    """

    MAX_KEPT_SPANS = 100_000

    def __init__(self):
        self.spans = []
        self.kept = []
        self.summary = Summary()
        self._stack = [-1]
        self._op = -1
        self._wrappers = {}  # id(original) -> (original, wrapper)
        self._rebound = []  # (module, attribute, original)

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in public_functions(module).items():
                qualname = f"{layer}.{name}"
                self._wrappers[id(fn)] = (fn, self._wrap(qualname, fn, NOTES.get(qualname)))
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._rebound.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def wrapped(self, fn) -> bool:
        entry = self._wrappers.get(id(fn))
        return entry is not None and entry[0] is fn

    def _wrap(self, qualname, fn, note_fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            ok = False
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                note = note_fn(result) if ok and note_fn is not None else None
                spans[idx] = (qualname, start, end, parent, self._op, ok, note)

        return wrapper

    def run_op(self, op_id, fn):
        """Run fn() inside the root span (index 0) of op op_id; returns fn's result."""
        if self.spans:
            raise RuntimeError("fold() the previous op before running the next")
        self._op = op_id
        self.spans.append(None)
        self._stack.append(0)
        ok = False
        start = time.perf_counter()
        try:
            result = fn()
            ok = True
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[0] = (ROOT, start, end, -1, op_id, ok, None)

    def fold(self):
        """Move the finished op's spans into the summary (and the kept list)."""
        self.summary.add(self.spans)
        if len(self.kept) + len(self.spans) <= self.MAX_KEPT_SPANS:
            base = len(self.kept)
            self.kept.extend((*sp[:3], sp[3] + base if sp[3] >= 0 else -1, *sp[4:])
                             for sp in self.spans)
        self.spans.clear()

    def write(self, path):
        """One JSON array per kept span: name, start_s, end_s, parent, op, ok, note."""
        t0 = self.kept[0][1] if self.kept else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op, ok, note in self.kept:
                fh.write(json.dumps([name, start - t0, end - t0, parent, op, ok, note]) + "\n")


class Summary:
    """Self times and counts accumulated from the spans of whole ops."""

    def __init__(self):
        self.self_s, self.calls, self.fails, self.notes = {}, {}, {}, {}
        self.factors_in_solve = 0
        self.op_s = 0.0
        self.ops = 0

    def add(self, spans):
        """Fold one op's spans; parents precede children, the root is spans[0]."""
        child = [0.0] * len(spans)
        in_solve = [False] * len(spans)
        for idx, (name, start, end, parent, op, ok, note) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                in_solve[idx] = in_solve[parent] or spans[parent][0] == "epsolver.solve_exact_ep"
        for idx, (name, start, end, parent, op, ok, note) in enumerate(spans):
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start) - child[idx]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.fails[name] = self.fails.get(name, 0) + (not ok)
            if note is not None:
                self.notes[name] = self.notes.get(name, 0) + note
            if name == ROOT:
                self.op_s += end - start
                self.ops += 1
            elif name == "charpoly.factors" and in_solve[idx]:
                self.factors_in_solve += 1

    def metrics(self):
        """Per-op values of every PER_LAYER metric the spans give."""
        if self.ops == 0:
            raise ValueError("no op spans recorded")
        self_s, calls, fails, notes, ops = self.self_s, self.calls, self.fails, self.notes, self.ops

        def ms(*names):
            return 1e3 * sum(self_s.get(nm, 0.0) for nm in names) / ops

        def per_op(table, *names):
            return sum(table.get(nm, 0) for nm in names) / ops

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = ms(*[nm for nm in self_s if nm.startswith(layer + ".")])
        out["bench.self_ms"] = ms(ROOT)
        out["trace.op_ms"] = 1e3 * self.op_s / ops
        out["trace.layer_share"] = 1.0 - self_s[ROOT] / self.op_s
        solves = calls.get("epsolver.solve_exact_ep", 0)
        out.update({
            "config.load_config.self_ms": ms("config.load_config"),
            "model.drift_nonmarkovian.calls": per_op(calls, "model.drift_nonmarkovian"),
            "model.drift_markovian.calls": per_op(calls, "model.drift_markovian"),
            "charpoly.cubic_roots.calls": per_op(calls, "charpoly.cubic_roots"),
            "charpoly.cubic_roots.self_ms": ms("charpoly.cubic_roots"),
            "charpoly.factors.calls": per_op(calls, "charpoly.factors"),
            "epsolver.solve_exact_ep.calls": per_op(calls, "epsolver.solve_exact_ep"),
            "epsolver.solve_exact_ep.self_ms": ms("epsolver.solve_exact_ep"),
            "epsolver.solve_exact_ep.fails": per_op(fails, "epsolver.solve_exact_ep"),
            "epsolver.certify_order_two.fails": per_op(fails, "epsolver.certify_order_two"),
            "epsolver.factors_per_solve": self.factors_in_solve / solves if solves else 0.0,
            "spectral.eigensystem.calls": per_op(calls, "spectral.eigensystem"),
            "spectral.eigensystem.self_ms": ms("spectral.eigensystem"),
            "spectral.sweep.self_ms": ms("spectral.sweep_eigs", "spectral.sweep_petermann"),
            "spectral.divergent_rows": per_op(notes, "spectral.sweep_eigs", "spectral.sweep_petermann"),
            "response.reflection.calls": per_op(calls, "response.reflection"),
            "response.reflection.self_ms": ms("response.reflection"),
            "response.spectrum.self_ms": ms("response.spectrum"),
            "response.dip_metrics.self_ms": ms("response.dip_metrics"),
            "response.singular_points": per_op(notes, "response.spectrum"),
            "embedcheck.integrate_pseudomode.self_ms": ms("embedcheck.integrate_pseudomode"),
            "embedcheck.integrate_nonmarkovian.self_ms": ms("embedcheck.integrate_nonmarkovian"),
            "embedcheck.kernel_fourier_error.self_ms": ms("embedcheck.kernel_fourier_error"),
            "embedcheck.steps": per_op(notes, "embedcheck.integrate_pseudomode",
                                       "embedcheck.integrate_nonmarkovian"),
        })
        return out
