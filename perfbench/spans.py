"""In-memory span recorder for the traced benchmark run.

Spans are recorded from *outside* the program: :meth:`SpanRecorder.wrap`
replaces a public function or method with a timing wrapper for the
duration of a ``with`` block and puts the original back afterwards.
Each span is ``[name, start, end, parent, op]`` -- ``parent`` is the
index of the enclosing span (-1 at top level) and ``op`` the verdict,
cell or pass the span belongs to.  Spans stay in memory until the run
ends; :meth:`write` dumps them as JSON lines and :meth:`reduce` folds
them into per-name call counts, inclusive time and self time.
"""

import functools
import json
import time

_MISSING = object()


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, name, op_of=None):
        """Trace every call of ``owner.attr`` as a span called ``name``.

        ``op_of(*args, **kwargs)``, when given, names the op the call
        starts (e.g. a sweep cell); otherwise the span inherits the op
        of its parent, or :attr:`op` at top level.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if op_of is not None:
                op = op_of(*args, **kwargs)
            else:
                op = spans[parent][4] if parent >= 0 else self.op
            record = [name, time.perf_counter(), 0.0, parent, op]
            stack.append(len(spans))
            spans.append(record)
            try:
                return original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def restore(self):
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def reduce(self, op_filter=None):
        """``({name: (calls, inclusive_s, self_s)}, top_level_s)``.

        Self time is a span's duration minus the time its direct
        children cover.  ``op_filter(op)`` restricts the fold to spans
        of matching ops; ``top_level_s`` sums the spans with no parent.
        """
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        top = 0.0
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op_filter is not None and not op_filter(op):
                continue
            duration = end - start
            calls, inclusive, own = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (calls + 1, inclusive + duration, own + duration - child[index])
            if parent < 0:
                top += duration
        return totals, top

    def write(self, path):
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, separators=(",", ":")))
                handle.write("\n")


def inclusive(totals, name):
    """Total seconds inside spans called ``name`` (from :meth:`SpanRecorder.reduce`)."""
    return totals.get(name, (0, 0.0, 0.0))[1]


def own(totals, name):
    """Self seconds of spans called ``name``."""
    return totals.get(name, (0, 0.0, 0.0))[2]


def per_call(totals, name):
    """Mean inclusive seconds per call of ``name``."""
    calls, spent, _own = totals.get(name, (0, 0.0, 0.0))
    return spent / calls if calls else 0.0
