"""Span tracer that wraps safefleet's public functions from outside the package.

`Tracer.install()` replaces every public module-level function of the layer
modules, plus the public methods of a few hot classes, with a timing wrapper.
A function is replaced under every name it is reachable by, so names pulled
in with `from .x import f` (for example `scenarios.select_control` or
`controller.predict_next_batch`) are counted too.  `uninstall()` puts the
originals back.

Each call becomes a span (name, start, end, parent span, rep id) kept in
in-memory arrays; per-name statistics (calls, rows, busy time, self time) are
accumulated on the fly.  Self time is the span's duration minus the time its
child spans cover.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("world", "nn", "data", "dynamics", "ood", "barrier", "controller",
          "fleet", "scenarios", "pipeline")
# classes whose public methods are traced as `<module>.<Class>.<method>`
CLASSES = {"nn": ("Mlp", "Adam"), "barrier": ("BarrierModel",),
           "fleet": ("Orchestrator", "JunctionRegistry")}
SMALL_BATCH = 64        # rows; nn.Mlp.forward at or below this is "small"


class Stat:
    __slots__ = ("calls", "rows", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.rows = 0
        self.busy = 0.0
        self.self_time = 0.0


def _rows(args):
    """Leading dimension of the first array argument (1 for a vector)."""
    for a in args:
        if isinstance(a, np.ndarray):
            return a.shape[0] if a.ndim >= 2 else 1
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.stats: list[Stat] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_rep = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.rep = 0
        self.survivors = 0           # from filter_candidates' return
        self.candidates = 0
        self.events = 0              # orchestrator events, from run_single's return
        self._stack: list[list] = []  # [span index, child time]
        self._patched: list[tuple] = []

    # -- registry -----------------------------------------------------------
    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append(Stat())
        return i

    def stat(self, name) -> Stat:
        i = self._ids.get(name)
        return self.stats[i] if i is not None else Stat()

    # -- wrapping -----------------------------------------------------------
    def _wrap(self, fn, name):
        sid = self._id(name)
        stats = self.stats[sid]
        stack = self._stack
        span_name, span_parent, span_rep = self.span_name, self.span_parent, self.span_rep
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter
        if name == "nn.Mlp.forward":
            small, large = self._id("nn.forward.small"), self._id("nn.forward.large")
        else:
            small = large = None
        hook = {"controller.filter_candidates": self._on_filter,
                "scenarios.run_single": self._on_run_single}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_start)
            parent = stack[-1][0] if stack else -1
            span_name.append(sid)
            span_parent.append(parent)
            span_rep.append(self.rep)
            span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_end[idx] = t1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                rows = _rows(args)
                stats.calls += 1
                stats.rows += rows
                stats.busy += dur
                stats.self_time += dur - frame[1]
                if small is not None:
                    s = self.stats[small if rows <= SMALL_BATCH else large]
                    s.calls += 1
                    s.rows += rows
                    s.busy += dur
                    s.self_time += dur - frame[1]
            if hook is not None:
                hook(result)
            return result

        return traced

    def _on_filter(self, result):
        survivors, terminal = result[0], result[1]
        self.survivors += len(survivors)
        self.candidates += len(terminal)

    def _on_run_single(self, result):
        self.events += len(result.events)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {m: sys.modules[f"safefleet.{m}"] for m in LAYERS}
        wrappers = {}                    # id(original) -> wrapper
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
            for cls_name in CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if attr.startswith("_") or not inspect.isfunction(obj):
                        continue
                    wrapper = self._wrap(obj, f"{short}.{cls_name}.{attr}")
                    self._patched.append((cls, attr, obj))
                    setattr(cls, attr, wrapper)
        # rebind every name a wrapped function is reachable by
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -------------------------------------------------------------
    def ancestor_count(self, name, ancestor):
        """Calls of `name` that ran inside a span of `ancestor`."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        nid, aid = self._ids[name], self._ids[ancestor]
        names, parents = self.span_name, self.span_parent
        count = 0
        for i in range(len(names)):
            if names[i] != nid:
                continue
            p = parents[i]
            while p >= 0:
                if names[p] == aid:
                    count += 1
                    break
                p = parents[p]
        return count

    def save_spans(self, path):
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            rep=np.frombuffer(self.span_rep, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))

    def table(self):
        """Per-name rows (name, calls, rows, busy_s, self_s), busiest first."""
        rows = [(n, s.calls, s.rows, s.busy, s.self_time)
                for n, s in zip(self.names, self.stats) if s.calls]
        return sorted(rows, key=lambda r: -r[4])
