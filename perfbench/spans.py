"""In-memory span recorder for the traced run.

A span is (name, start, end, parent, op id).  Spans are kept in flat
arrays, so a traced run of a few hundred thousand spans stays small, and
are written out once, when the run ends.  Spans are recorded only from the
benchmark's own files, around calls into the library's public functions;
evaluator-internal term pulls are timed by handing the evaluator a stream
built with the public ``CFStream(b0, term_fn)`` whose ``term_fn`` times the
inner stream's ``term(k)``.
"""

from __future__ import annotations

import gzip
from array import array
from collections import defaultdict
from time import perf_counter

from confrac import CFStream

NO_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.op_id = -1

    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def add(self, name: str, start: float, end: float) -> int:
        """Record a finished span under the innermost open span."""
        self.code.append(self._code(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(self.stack[-1] if self.stack else NO_PARENT)
        self.op.append(self.op_id)
        return len(self.code) - 1

    def open(self, name: str) -> int:
        index = self.add(name, perf_counter(), 0.0)
        self.stack.append(index)
        return index

    def close(self, index: int) -> float:
        self.end[index] = perf_counter()
        self.stack.pop()
        return self.end[index] - self.start[index]

    def unwind(self, index: int) -> None:
        """Close every open span down to and including *index* (after an
        operation raised)."""
        while self.stack and self.stack[-1] >= index:
            self.close(self.stack[-1])

    def timed_stream(self, inner: CFStream) -> CFStream:
        """Stream with the same terms whose pulls record "families.term"."""
        add, inner_term = self.add, inner.term

        def term_fn(k: int):
            t0 = perf_counter()
            t = inner_term(k)
            add("families.term", t0, perf_counter())
            return t

        return CFStream(inner.b0, term_fn, description=inner.description)

    def aggregate(self, op_workload: dict[int, str]) -> dict[tuple[str, str], list[float]]:
        """``(workload, span name) -> [count, total µs, self µs, child count]``.

        Self time is a span's duration minus the durations of its direct
        children; child count is the number of direct children.
        """
        n = len(self.code)
        child_time = [0.0] * n
        child_count = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p != NO_PARENT:
                child_time[p] += self.end[i] - self.start[i]
                child_count[p] += 1
        out: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out[(op_workload.get(self.op[i], ""), self.names[self.code[i]])]
            row[0] += 1
            row[1] += dur * 1e6
            row[2] += (dur - child_time[i]) * 1e6
            row[3] += child_count[i]
        return out

    def write(self, path, op_labels: dict[int, str]) -> None:
        """Write ops and spans (times in ns from the first span) as gzip'd CSV."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("# ops: op,label\n")
            for op, label in op_labels.items():
                fh.write(f"{op},{label}\n")
            fh.write("# spans: index,name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.code)):
                fh.write(
                    f"{i},{self.names[self.code[i]]},{round((self.start[i] - t0) * 1e9)},"
                    f"{round((self.end[i] - t0) * 1e9)},{self.parent[i]},{self.op[i]}\n"
                )
