"""Spans around calls into tensorgeo's public functions, recorded from outside.

The tracer replaces each traced function in every ``tensorgeo`` module
namespace that binds it (``homogeneous`` imports ``lowrank_geodesic_step``
and ``reduce_columns`` by name, ``group`` imports ``psi1``, and so on), so a
call is seen whichever module makes it.  Methods of shape classes are patched
on the class.  Nothing inside the program is edited.

Each call becomes a span (name, start, end, parent, op).  Spans stay in
memory until :meth:`Tracer.write_spans`.  A span's self time is its duration
minus the time its child spans cover.  An exception is charged to the
innermost traced function it left, once, by exception type.

Probes attached to a function turn its arguments and result into exact
counts for the op in progress (model flops, z, bytes); they run after the
span's end time is taken.
"""

import json
import time
from collections import Counter, defaultdict


class OpCounts:
    """Exact counts of one op: calls, failures and probe counters."""

    def __init__(self):
        self.calls = Counter()
        self.failures = Counter()        # (function, exception type)
        self.counters = Counter()        # probe counters, exact numbers
        self.z_max = None

    def note_z(self, z):
        if self.z_max is None or z > self.z_max:
            self.z_max = z


class Tracer:
    def __init__(self):
        self.names = ["op"]
        self.spans = []                  # [name_id, start, end, parent, op]
        self.stack = []
        self.op = -1
        self.op_counts = []              # OpCounts of every op
        self.current = None
        self.last_exc = None
        self.last_z = None
        self.enabled = False
        self._patches = []

    # -- installing -------------------------------------------------------

    def install(self, modules, targets, methods=(), probes=None):
        """Wrap ``targets`` (name, function) wherever ``modules`` bind them,
        and ``methods`` (name, class, attribute) on their classes."""
        probes = probes or {}
        wrapped = {}
        for name, fn in targets:
            wrapped[id(fn)] = self._wrap(name, fn, probes.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                w = wrapped.get(id(value))
                if w is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, w)
        for name, cls, attr in methods:
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn, probes.get(name)))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def count(self, key, value):
        """Add to a probe counter of the op in progress."""
        self.current.counters[key] += value

    def _wrap(self, name, fn, probe):
        tracer = self
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans = tracer.spans
            index = len(spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name_id, 0.0, 0.0, parent, tracer.op]
            spans.append(span)
            tracer.stack.append(index)
            result = exc = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
                counts = tracer.current
                if exc is not None and exc is not tracer.last_exc:
                    tracer.last_exc = exc
                    if counts is not None:
                        counts.failures[(name, type(exc).__name__)] += 1
                if counts is not None:
                    counts.calls[name] += 1
                if probe is not None:
                    probe(tracer, args, kwargs, result, exc)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- ops --------------------------------------------------------------

    def begin_op(self, op):
        """Open the root span of op ``op``; calls after this belong to it."""
        self.op = op
        self.last_exc = None
        self.last_z = None
        self.current = OpCounts()
        self.op_counts.append(self.current)
        self.stack = [len(self.spans)]
        self.spans.append([0, time.perf_counter(), 0.0, -1, op])
        self.enabled = True

    def end_op(self):
        self.enabled = False
        self.spans[self.stack[0]][2] = time.perf_counter()
        self.stack = []
        self.current = None

    # -- results ----------------------------------------------------------

    def self_times(self):
        """{name: (self seconds, calls)} over every recorded span."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = defaultdict(lambda: [0.0, 0])
        for s, c in zip(self.spans, child):
            rec = out[self.names[s[0]]]
            rec[0] += (s[2] - s[1]) - c
            rec[1] += 1
        return {k: tuple(v) for k, v in out.items()}

    def inclusive_time(self, name):
        nid = self.names.index(name)
        return sum(s[2] - s[1] for s in self.spans if s[0] == nid)

    def counts(self):
        """Sums of the per-op counts over every op."""
        calls, failures, counters = Counter(), Counter(), Counter()
        z_hist = Counter()
        for c in self.op_counts:
            calls.update(c.calls)
            failures.update(c.failures)
            counters.update(c.counters)
            if c.z_max is not None:
                z_hist[c.z_max] += 1
        return calls, failures, counters, z_hist

    def write_spans(self, path):
        """One JSON object per line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": self.names[s[0]], "start": s[1],
                                     "end": s[2], "parent": s[3],
                                     "op": s[4]}) + "\n")
