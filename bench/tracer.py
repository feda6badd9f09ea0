"""Spans around the program's layer boundaries, recorded from outside.

The program is not modified.  Each traced function is replaced, at the
place its caller looks it up (a module global such as
``osbalance.solver.row_col_sums_at`` or a class attribute such as
``GreedyState.refresh``), by a wrapper that keeps a call stack.  For
every name it aggregates the call count, total time and self time
(total minus the time of traced calls made inside it); calls are also
counted per (parent, child) pair so that, say, kernel calls made by the
selection upkeep can be told apart from those made by the update.
Coarse boundaries additionally record a span (id, name, start, end,
parent id).  Everything is kept in memory and returned by ``dump``.

A target that no longer exists (the program moved or renamed it) is
skipped and listed in ``unresolved``; its span then never fires, and the
benchmark reports it as missing rather than failing the run.
"""

from __future__ import annotations

import importlib
import time

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.stack = []       # frames: [name, child_ns, span_id]
        self.stats = {}       # name -> [calls, total_ns, self_ns]
        self.edges = {}       # (parent, name) -> [calls, total_ns]
        self.spans = []       # (id, name, start_ns, end_ns, parent_id)
        self.kernel_nnz = 0   # None once a call's arguments did not fit
        self.unresolved = []  # targets that could not be wrapped
        self.captured = {}    # name -> last return value (or instance)

    def _enter(self, name, coarse):
        span_id = None
        if coarse:
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id; filled on exit
        frame = [name, 0, span_id]
        self.stack.append(frame)
        return frame

    def _exit(self, frame, start, end):
        stack = self.stack
        stack.pop()
        dt = end - start
        name = frame[0]
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0]
        st[0] += 1
        st[1] += dt
        st[2] += dt - frame[1]
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][1] += dt
        edge = self.edges.get((parent, name))
        if edge is None:
            edge = self.edges[(parent, name)] = [0, 0]
        edge[0] += 1
        edge[1] += dt
        if frame[2] is not None:
            parent_id = next((f[2] for f in reversed(stack)
                              if f[2] is not None), None)
            self.spans[frame[2]] = (frame[2], name, start, end, parent_id)

    def span(self, name):
        """Context manager for a coarse span around a block of code."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.frame = tracer._enter(name, True)
                self.start = _now()

            def __exit__(self, *exc):
                tracer._exit(self.frame, self.start, _now())

        return _Span()

    def wrap(self, name, fn, coarse=False, capture=None, kernel=False):
        """Return fn wrapped in a span named name.

        capture="result" keeps the last return value, capture="self" the
        first positional argument (the instance, for __init__).  kernel
        counts deg(j) of row_col_sums_at(A, u, j) into kernel_nnz.
        """
        tracer = self

        def traced(*args, **kwargs):
            if kernel and tracer.kernel_nnz is not None:
                try:
                    tracer.kernel_nnz += int(args[0].deg[args[2]])
                except (AttributeError, IndexError, TypeError):
                    tracer.kernel_nnz = None
            frame = tracer._enter(name, coarse)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, start, _now())
            if capture == "result":
                tracer.captured[name] = result
            elif capture == "self":
                tracer.captured[name] = args[0]
            return result

        return traced

    def patch(self, target, name, coarse=False, capture=None, kernel=False):
        """Wrap the attribute named by target, "module:attr" or
        "module:Class.attr", in place; record it as unresolved if the
        program has no such attribute."""
        try:
            owner, attr = resolve(target)
            fn = owner.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            self.unresolved.append(target)
            return
        setattr(owner, attr, self.wrap(name, fn, coarse, capture, kernel))

    def dump(self):
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "edges": [[p, c, n, ns] for (p, c), (n, ns)
                      in self.edges.items()],
            "spans": [list(s) for s in self.spans if s is not None],
            "kernel_nnz": self.kernel_nnz,
            "unresolved": self.unresolved,
        }


def resolve(target):
    """("module:Class.attr" | "module:attr") -> (owner object, attr)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr
