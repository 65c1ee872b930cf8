"""In-memory span recorder that times calls into sdgflow from outside.

Each layer entry point is replaced on the module that looks it up (for
example ``sdgflow.solver.splu``, which ``run_transient`` resolves through
``sdgflow.solver``'s globals) by a wrapper that records a span: name,
start, end and the index of the enclosing span. Nothing inside the
package is edited, so the same benchmark can time the seed code and any
later refactor of it. A name that a refactor removed is skipped and
listed in ``missing``; metrics that depend on it are then absent rather
than wrong.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    """Records spans as ``[name, start, end, parent]`` lists.

    ``parent`` is the index of the enclosing span in ``spans`` or -1.
    ``counters`` holds integer counts and ``gauges`` the largest value
    seen for quantities recorded at the same boundaries (factor fill,
    sweeps per step, solve residuals).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.missing: list[str] = []
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        self.installed.add(name)
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = _clock()
        try:
            yield
        finally:
            rec[2] = _clock()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge_max(self, name: str, value: float) -> None:
        self.gauges[name] = max(self.gauges.get(name, value), value)

    def wrap(self, fn, name: str, after=None):
        """``fn`` timed as span ``name``; ``after(result, args)`` runs
        once the span has closed and may return a replacement result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                replaced = after(out, args)
                if replaced is not None:
                    out = replaced
            return out

        return traced

    def patch(self, module, attr: str, name: str, after=None, factory=None) -> None:
        """Replace ``module.attr`` by a traced version until ``restore``.

        ``factory(original)`` builds the replacement when a plain timed
        wrapper does not fit. When the module no longer has the attribute
        it is recorded as missing and nothing is replaced.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        if factory is not None:
            replacement = factory(original)
        else:
            replacement = self.wrap(original, name, after)
        self.installed.add(name)
        self._restore.append((module, attr, original))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Spans nest strictly (one thread, one call stack), so the direct
    children of a span never overlap and their durations add up.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_cost(calls: int = 20000) -> float:
    """Seconds a traced call costs over a bare one, measured here.

    Multiplied by the number of spans a unit recorded, this estimates
    what tracing added to that unit. Comparing traced and untraced units
    instead would drown a sub-percent cost in run-to-run noise.
    """

    def noop():
        return None

    traced = Tracer().wrap(noop, "noop")
    start = _clock()
    for _ in range(calls):
        traced()
    mid = _clock()
    for _ in range(calls):
        noop()
    end = _clock()
    return max((mid - start) - (end - mid), 0.0) / calls
