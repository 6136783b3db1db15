"""Span tracing for the traced benchmark run, done from outside the package.

The tracer replaces module-level names and class methods of hgdosim with
wrappers that record one span per call: name, start, end, parent span and
operation id. Spans stay in memory until the run ends; `totals` sums them
per span name and `write_spans` dumps them as CSV. Nothing
under src/ is touched; `restore` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import os
import time

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = []          # span name per name id
        self._name_ids = {}
        self.spans = []          # (name id, start, end, parent span, op id)
        self.stack = []          # open span indices
        self.op = -1
        self.counters = {}
        self._active = {}        # name -> depth, for outermost-only spans
        self._undo = []

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name."""
        return self._wrap(fn, name, None, False)(*args, **kwargs)

    def _wrap(self, fn, name, after, outermost):
        nid = self._name_id(name)
        spans, stack, active = self.spans, self.stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and active.get(name):
                return fn(*args, **kwargs)
            active[name] = active.get(name, 0) + 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                active[name] -= 1
                spans[sid] = (nid, t0, t1, parent, self.op)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr, name, after=None, outermost=False):
        """Replace owner.attr (a module global or a class's own method)."""
        fn = inspect.getattr_static(owner, attr)
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name, after, outermost))

    def restore(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for sid, (nid, t0, t1, _, _) in enumerate(self.spans):
            calls, total, own = out.get(self.names[nid], (0, 0.0, 0.0))
            dur = t1 - t0
            out[self.names[nid]] = (calls + 1, total + dur, own + dur - child[sid])
        return out

    def write_spans(self, path):
        """One CSV row per span; times are seconds since the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        names = self.names
        lines = ["span,name,start_s,end_s,parent,op"]
        lines.extend(
            f"{sid},{names[nid]},{t0 - base:.9f},{t1 - base:.9f},{parent},{op}"
            for sid, (nid, t0, t1, parent, op) in enumerate(self.spans))
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
