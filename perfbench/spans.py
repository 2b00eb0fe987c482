"""In-memory spans around the calls into crbeam's layers.

`crbeam.pipeline` imports its callees by name, and so do `rbal`,
`feasibility`, `reduction` and `recovery`, so each call is traced by
replacing the attribute the caller looks up with a timing wrapper.  A span
is named after the wrapped function's home module, so
`crbeam.recovery.evaluate_sinr` records as `scenario.evaluate_sinr`.
"""

import inspect
import time
from contextlib import contextmanager

import crbeam.feasibility
import crbeam.pipeline
import crbeam.rbal
import crbeam.recovery
import crbeam.reduction

# (module, attribute) pairs whose lookups are traced
TRACED = (
    [
        (crbeam.pipeline, name)
        for name, value in vars(crbeam.pipeline).items()
        if inspect.isfunction(value) and value.__module__.startswith("crbeam.")
    ]
    + [
        (crbeam.rbal, name)
        for name in (
            "iterate", "prox_x", "prox_y", "prox_z", "constraint_violation",
            "objective_value", "positive_cubic_root", "monotone_scalar_root",
        )
    ]
    + [
        (crbeam.feasibility, "compact_svd"),
        (crbeam.reduction, "compact_svd"),
        (crbeam.recovery, "null_space_basis"),
        (crbeam.recovery, "sensing_factor"),
        (crbeam.recovery, "evaluate_sinr"),
    ]
)


def span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records (solve_id, span_id, parent_id, name, start, end, self_seconds).

    Self time is the span's duration minus the time its child spans cover;
    calls are sequential, so that is the sum of the children's durations.
    """

    def __init__(self):
        self.spans = []
        self.solve_id = -1
        self._stack = []  # [span_id, child_seconds] of the open spans

    def wrap(self, fn):
        name = span_name(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent_id = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[span_id] = (self.solve_id, span_id, parent_id, name, start, end, duration - frame[1])

        return traced

    @contextmanager
    def installed(self):
        """Swap the traced attributes for wrappers; restore them on exit."""
        originals = [(module, attr, getattr(module, attr)) for module, attr in TRACED]
        try:
            for module, attr, fn in originals:
                setattr(module, attr, self.wrap(fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def totals(self):
        """name -> [calls, total seconds, self seconds]."""
        out = {}
        for _, _, _, name, start, end, self_s in self.spans:
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_s
        return out
