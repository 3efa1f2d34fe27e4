"""Per-layer tracing from outside the library.

Wrappers are installed by name around hymem's public functions: every
reference to the original object in a loaded ``hymem`` module (the defining
module and every module that imported it) is replaced, so calls made from
inside the library are seen too.  A name that no longer exists is reported
as absent rather than failing the run, so the trace survives refactors that
fold or remove functions.

Spans (name, start, end, parent) are kept in memory; counts are recorded at
the same boundaries.  The SystemSpec callables are counted, not spanned: they
run millions of times, and their selection maps receive a proxy of the
window that counts delayed lookups.
"""

from __future__ import annotations

import dataclasses
import importlib
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _points(tr, result, args):
    tr.counts["solver.simulate.points"] += sum(
        seg.times.shape[0] for seg in result.arc.forward_segments)


def _issues(tr, result, args):
    tr.counts["solver.verify_solution.issues"] += len(result.issues)


def _csv_out(tr, result, args):
    tr.counts["hybrid_time.csv.bytes"] += len(result)


def _csv_in(tr, result, args):
    tr.counts["hybrid_time.csv.bytes"] += len(args[0])


def _arcs(tr, result, args):
    for s in result:
        if s.origin.startswith("reachable"):
            tr.counts["sampling.windows"] += 1
        else:
            tr.counts["sampling.cover_arcs"] += 1


def _report(tr, result, args):
    tr.counts["certificates.conditions_evaluated"] += result.conditions_evaluated
    tr.counts["certificates.flow_arcs_skipped"] += int(
        result.meta.get("flow_arcs_skipped", 0))


# (span name, module, attribute path, hook run on the result)
TARGETS = (
    ("solver.simulate", "solver", "simulate", _points),
    ("solver.locate_event", "solver", "locate_event", None),
    ("solver.flow_window", "solver", "flow_window", None),
    ("solver.verify_solution", "solver", "verify_solution", _issues),
    ("hybrid_time.memory_window", "hybrid_time", "memory_window", None),
    ("hybrid_time.append_jump", "hybrid_time", "append_jump", None),
    ("hybrid_time.window_max", "hybrid_time", "vbar", None),
    ("hybrid_time.window_max", "hybrid_time", "sup_norm_w", None),
    ("hybrid_time.delayed_sq_integral", "hybrid_time", "delayed_sq_integral", None),
    ("hybrid_time.csv", "hybrid_time", "arc_to_csv", _csv_out),
    ("hybrid_time.csv", "hybrid_time", "arc_from_csv", _csv_in),
    ("sampling.sample", "sampling", "ArcSampler.sample", _arcs),
    ("certificates.check", "certificates", "check_razumikhin", _report),
    ("certificates.check", "certificates", "check_krasovskii", _report),
    ("builtin.certificate", "builtin", "example1_razumikhin_certificate", None),
    ("builtin.certificate", "builtin", "example2_krasovskii_certificate", None),
)

# name -> (unit, better); the order is the order of BENCHMARK.json.
LAYER_METRICS = {
    "solver.simulate.calls": ("count", "lower"),
    "solver.simulate.s": ("s", "lower"),
    "solver.simulate.self_s": ("s", "lower"),
    "solver.simulate.points": ("count", "lower"),
    "solver.simulate.us_per_point": ("us", "lower"),
    "solver.simulate.p50_ms": ("ms", "lower"),
    "solver.simulate.p90_ms": ("ms", "lower"),
    "solver.locate_event.calls": ("count", "lower"),
    "solver.locate_event.s": ("s", "lower"),
    "solver.flow_window.calls": ("count", "lower"),
    "solver.flow_window.s": ("s", "lower"),
    "solver.verify_solution.s": ("s", "lower"),
    "solver.verify_solution.issues": ("count", "lower"),
    "system.flow_selection.calls": ("count", "lower"),
    "system.delayed.calls": ("count", "lower"),
    "system.guard.calls": ("count", "lower"),
    "system.jump_selections.calls": ("count", "lower"),
    "hybrid_time.memory_window.calls": ("count", "lower"),
    "hybrid_time.memory_window.s": ("s", "lower"),
    "hybrid_time.append_jump.calls": ("count", "lower"),
    "hybrid_time.append_jump.s": ("s", "lower"),
    "hybrid_time.window_max.calls": ("count", "lower"),
    "hybrid_time.window_max.s": ("s", "lower"),
    "hybrid_time.delayed_sq_integral.calls": ("count", "lower"),
    "hybrid_time.delayed_sq_integral.s": ("s", "lower"),
    "hybrid_time.csv.s": ("s", "lower"),
    "hybrid_time.csv.bytes": ("bytes", "lower"),
    "sampling.sample.s": ("s", "lower"),
    "sampling.sample.self_s": ("s", "lower"),
    "sampling.windows": ("count", "higher"),
    "sampling.windows_per_simulation": ("ratio", "higher"),
    "sampling.cover_arcs": ("count", "higher"),
    "certificates.check.s": ("s", "lower"),
    "certificates.check.self_s": ("s", "lower"),
    "certificates.conditions_evaluated": ("count", "higher"),
    "certificates.flow_arcs_skipped": ("count", "lower"),
    "builtin.certificate.s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.absent_wrappers": ("count", "lower"),
}

# Per-layer figures that are exact counts; the rest are times.
COUNTS = tuple(n for n, (unit, _) in LAYER_METRICS.items()
               if unit in ("count", "bytes"))


class _CountingWindow:
    """Window proxy (head, delayed, delta) that counts delayed lookups."""

    __slots__ = ("_w", "_counts")

    def __init__(self, w, counts: Counter):
        self._w = w
        self._counts = counts

    @property
    def head(self):
        return self._w.head

    @property
    def delta(self):
        return self._w.delta

    def delayed(self, s):
        self._counts["system.delayed.calls"] += 1
        return self._w.delayed(s)


def _resolve(module: str, path: str):
    """(owner, attribute, original) for hymem.<module>.<path>, or None."""
    try:
        owner = importlib.import_module(f"hymem.{module}")
    except ModuleNotFoundError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr)
    if original is None:
        return None
    return owner, attr, original


class Tracer:
    """Collects spans and counts while installed (use as a context manager)."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_time: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                self.spans.append((sid, name, parent, start, end))
                self.durations[name].append(dur)
                self.self_time[name] += dur - frame[1]
            if hook is not None:
                hook(self, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        found = []
        for name, module, path, hook in TARGETS:
            target = _resolve(module, path)
            if target is None:
                self.absent.append(f"{module}.{path}")
            else:
                found.append((name, hook) + target)
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "hymem" or key.startswith("hymem."))]
        for name, hook, owner, attr, original in found:
            wrapper = self._wrap(name, original, hook)
            self._patch(owner, attr, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and (mod, key) != (owner, attr):
                        self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def wrap_spec(self, spec):
        """Copy of a SystemSpec whose guards and selection maps are counted.

        ``flow_candidates`` keeps calling the original selection, so
        ``system.flow_selection.calls`` counts the solver's calls (RK4
        stages, head derivatives, verify_solution) and not the checkers'
        flow-candidate evaluations.
        """
        counts = self.counts

        def counted(key, fn, proxy):
            def call(w):
                counts[key] += 1
                return fn(_CountingWindow(w, counts) if proxy else w)
            return call

        return dataclasses.replace(
            spec,
            flow_guard=counted("system.guard.calls", spec.flow_guard, False),
            jump_guard=counted("system.guard.calls", spec.jump_guard, False),
            flow_selection=counted("system.flow_selection.calls",
                                   spec.flow_selection, True),
            jump_selections=counted("system.jump_selections.calls",
                                    spec.jump_selections, True))

    # -- results ------------------------------------------------------------

    def layer_values(self) -> dict[str, float]:
        """Every per-layer figure recorded so far, except the overhead."""
        spans = {name for name, *_ in TARGETS}
        d = self.durations
        out = {}
        for key in LAYER_METRICS:
            span, _, stat = key.rpartition(".")
            if span in spans and stat == "calls":
                out[key] = len(d.get(span, ()))
            elif span in spans and stat == "s":
                out[key] = sum(d.get(span, ()))
            elif span in spans and stat == "self_s":
                out[key] = self.self_time.get(span, 0.0)
            else:
                out[key] = self.counts[key]
        sims = d.get("solver.simulate", [])
        points = self.counts["solver.simulate.points"]
        out["solver.simulate.us_per_point"] = 1e6 * sum(sims) / points if points else 0.0
        out["solver.simulate.p50_ms"] = _quantile(sims, 0.5) * 1e3
        out["solver.simulate.p90_ms"] = _quantile(sims, 0.9) * 1e3
        out["sampling.windows_per_simulation"] = (
            self.counts["sampling.windows"] / len(sims) if sims else 0.0)
        out["trace.absent_wrappers"] = len(self.absent)
        return out

    def span_records(self) -> list[dict]:
        return [{"id": sid, "name": name, "parent": parent, "start": start,
                 "end": end} for sid, name, parent, start, end in self.spans]


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]

