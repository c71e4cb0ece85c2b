"""In-memory spans recorded around calls into arbora's public functions.

A span is ``(name, start_ns, end_ns, parent, request)``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``request`` the corpus
index of the operation it belongs to (-1 during set-up).  Spans are only
opened here, in the benchmark, never inside the program: a public
function is either called through :meth:`Tracer.call`, or replaced in
arbora's module namespaces by a wrapper from :meth:`Tracer.patch` so that
calls the program makes to it are timed too.
"""

from __future__ import annotations

import sys
import time
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.request)

    def patch(self, fn, name: str, on_result=None) -> None:
        """Time every call to fn from any arbora module under the span name."""

        def wrapper(*args, **kwargs):
            result = self.call(name, lambda: fn(*args, **kwargs))
            if on_result is not None:
                on_result(result)
            return result

        replace_everywhere(fn, wrapper)

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def replace_everywhere(fn, replacement) -> None:
    """Bind replacement wherever an arbora module binds fn, so that the
    program's own calls to fn go through it."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "arbora" or module_name.startswith("arbora."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, replacement)


def totals(spans) -> Counter:
    """Seconds per span name, plus ``cli.self`` (cli.main minus the
    verifier spans directly under it)."""
    out: Counter = Counter()
    for name, start, end, parent, _ in spans:
        seconds = (end - start) / 1e9
        out[name] += seconds
        if parent >= 0 and name.startswith("verifier.") and spans[parent][0] == "cli.main":
            out["cli.self"] -= seconds
    out["cli.self"] += out["cli.main"]
    return out


def write_csv(path: str, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start_ns,end_ns,parent,request\n")
        for span in spans:
            fh.write(",".join(str(x) for x in span) + "\n")
