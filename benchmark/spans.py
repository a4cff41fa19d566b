"""Spans around calls into rankwarp's public functions, recorded from outside.

``Tracer.wrap`` replaces a module attribute with a wrapper.  While a job is
being recorded, each call becomes a span (layer name, start, end, parent
span, job id) kept in memory.  In memory mode each call of a leaf layer
runs under tracemalloc, started and stopped around the call alone, and its
peak is recorded: the most memory the call itself held at once.  Outside either mode
the wrapper only forwards the call.  ``close`` puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import tracemalloc


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.peaks: list[dict] = []
        self.observed: list[dict] = []
        self._mode: str | None = None
        self._job: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, module, attr: str, layer: str, observe=None, leaf: bool = True) -> None:
        """Trace calls to ``module.attr`` as ``layer``.

        ``observe`` maps the call's result to a dict of counts kept with the
        job; ``leaf`` False marks a span that encloses other traced calls,
        whose own peak is not measured.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self._mode == "memory":
                if not leaf:
                    return original(*args, **kwargs)
                tracemalloc.start()
                try:
                    result = original(*args, **kwargs)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                self.peaks.append({"job": self._job, "name": layer, "bytes": peak})
                return result
            if self._mode != "time":
                return original(*args, **kwargs)
            span = {"id": len(self.spans), "job": self._job, "name": layer,
                    "parent": self._stack[-1] if self._stack else None, "start": time.perf_counter()}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                self.observed.append({"job": self._job, "name": layer, **observe(result)})
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    @contextlib.contextmanager
    def recording(self, job: str, mode: str = "time"):
        """Record spans (``mode="time"``) or per-call peaks (``mode="memory"``) under the job id ``job``."""
        self._mode, self._job = mode, job
        try:
            yield
        finally:
            self._mode = self._job = None

    def close(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def durations(self, job: str) -> dict[str, float]:
        """Seconds per layer summed over one job, plus each enclosing span's self time as ``<layer>.self``."""
        spans = [s for s in self.spans if s["job"] == job]
        total: dict[str, float] = {}
        for s in spans:
            total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
        children: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
        for s in spans:
            if s["id"] in children:
                key = s["name"] + ".self"
                total[key] = total.get(key, 0.0) + s["end"] - s["start"] - children[s["id"]]
        return total

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "peaks": self.peaks, **extra}, fh)
