"""Timing from outside the program, and the opt-in span tracer.

``Recorder.op`` times one benchmark operation (a call into hdgbs) with the
monotonic performance counter and counts it as attempted, or failed if it
raises. With a ``Tracer`` attached, every op is also a root span, and the
tracer's wrappers record a child span for each public hdgbs function the
op reaches. Spans are kept in memory as parallel lists and written out as
JSON lines when the run ends.

Spans assume one calling thread: the Hafnian's worker threads run only
private functions, which are never wrapped.
"""

import bisect
import functools
import inspect
import json
import statistics
import sys
import traceback
from collections import defaultdict
from time import perf_counter

FAILED = object()        # the result of an operation that raised


class Recorder:
    """Per-label call times of the benchmark's operations, and per-pass
    totals of them."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = defaultdict(list)
        self.pass_totals: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failed_labels: set[str] = set()

    def begin_pass(self) -> None:
        self.pass_totals.append(0.0)
        if self.tracer:
            self.tracer.begin_pass()

    def op(self, label: str, fn, *args, **kwargs):
        """Call ``fn`` and time it; an exception is printed, counted as
        failed, and turned into the result FAILED."""
        self.attempted += 1
        span = self.tracer.open("op:" + label) if self.tracer else None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.failed_labels.add(label)
            result = FAILED
        dt = perf_counter() - t0
        if span is not None:
            self.tracer.close(span)
        if result is not FAILED:
            self.times[label].append(dt)
        if self.pass_totals:
            self.pass_totals[-1] += dt
        return result

    def median(self, label: str) -> float:
        return statistics.median(self.times[label])


class Tracer:
    """Spans as (name, parent, start, end) in four parallel lists."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.pass_starts: list[int] = []
        self._stack: list[int] = []
        self._patched: list = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def begin_pass(self) -> None:
        self.pass_starts.append(len(self.names))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def install(self, modules) -> None:
        """Wrap every public function defined in ``modules``, in every
        namespace of ``modules`` that binds it (the package namespace
        included, when it is passed)."""
        owners = {m.__name__ for m in modules}
        wrappers = {}
        for mod in modules:
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__ and obj not in wrappers):
                    layer = mod.__name__.rsplit(".", 1)[-1]
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers and obj.__module__ in owners:
                    setattr(mod, name, wrappers[obj])
                    self._patched.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def write(self, path: str, t0: float) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"id": i, "name": name, "parent": self.parents[i],
                                     "start": self.starts[i] - t0,
                                     "end": self.ends[i] - t0}) + "\n")


class SpanTable:
    """Durations, self times, root op and pass of every recorded span."""

    def __init__(self, tracer: Tracer):
        names, parents = tracer.names, tracer.parents
        n = len(names)
        self.names = names
        self.dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
        child = [0.0] * n
        self.root = list(range(n))
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += self.dur[i]
                self.root[i] = self.root[p]
        self.self_time = [d - c for d, c in zip(self.dur, child)]
        self.passes = len(tracer.pass_starts)
        self.pass_of = [bisect.bisect_right(tracer.pass_starts, i) - 1 for i in range(n)]
        self.by_name = defaultdict(list)
        self.by_layer = defaultdict(list)
        for i, nm in enumerate(names):
            self.by_name[nm if parents[i] >= 0 else None].append(i)
            if parents[i] >= 0:
                self.by_layer[nm.split(".", 1)[0]].append(i)

    def select(self, name: str | None, op: str = ""):
        """Indices of spans named ``name`` whose root op is ``op`` or lies
        under it (``op`` + "." + anything); ``name=None`` selects the root
        op spans themselves."""
        want, sub = "op:" + op, "op:" + op + "."
        return [i for i in self.by_name.get(name, ())
                if not op or self.names[self.root[i]] == want
                or self.names[self.root[i]].startswith(sub)]

    def median_duration(self, name: str | None, op: str = "") -> float:
        return statistics.median(self.dur[i] for i in self.select(name, op))

    def per_pass(self, name: str | None, op: str = "", value: str = "dur") -> float:
        """Median over passes of the per-pass sum of ``value`` ("dur",
        "self" or "count") over the selected spans."""
        return self._per_pass(self.select(name, op), value)

    def layer_per_pass(self, layer: str, value: str = "self") -> float:
        """``per_pass`` over every span of one layer (module)."""
        return self._per_pass(self.by_layer.get(layer, ()), value)

    def _per_pass(self, indices, value: str) -> float:
        column = {"dur": self.dur, "self": self.self_time}.get(value)
        sums = [0.0] * self.passes
        for i in indices:
            sums[self.pass_of[i]] += column[i] if column else 1
        return statistics.median(sums)
