"""Spans for the traced benchmark run.

Spans are recorded by the benchmark around its calls into the package's
public functions; nothing inside the package is instrumented. Each span
keeps its name, start and end (perf_counter nanoseconds), the index of the
span that was open when it started, and the id of the op it belongs to.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

OP = "op"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def layers(self, plain: SimpleNamespace, names: dict[str, str]) -> SimpleNamespace:
        """A copy of the layer namespace whose calls are spanned.

        names maps each attribute to its span name.
        """
        wrapped = dict(vars(plain))
        for attr, span_name in names.items():
            wrapped[attr] = self.wrap(span_name, wrapped[attr])
        return SimpleNamespace(**wrapped)

    def totals(self) -> tuple[dict[str, tuple[int, int]], int]:
        """Per span name (calls, self nanoseconds), and total op nanoseconds.

        Self time is a span's duration minus the durations of the spans
        opened directly inside it.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, tuple[int, int]] = {}
        op_ns = 0
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            calls, self_ns = out.get(name, (0, 0))
            out[name] = (calls + 1, self_ns + end - start - inner)
            if name == OP:
                op_ns += end - start
        return out, op_ns

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op_id,
                        }
                    )
                    + "\n"
                )
