"""Span tracer that wraps treeaa functions from outside the package.

Each wrapper is installed at the name where the package looks the function
up (``treeaa.gradecast.decode_vector``, not ``treeaa.wire.decode_vector``,
because gradecast imports it by name) and records one span per call: its
name, start, end, parent span and run id.  Spans are kept in flat arrays,
so a traced pass of a few million calls stays within tens of megabytes,
and are written out when the benchmark ends.

A target whose module or attribute no longer exists is recorded in
``Tracer.missing`` instead of failing, so the metrics that depend on it can
be reported absent while everything else proceeds.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable, Iterable, NamedTuple

OBSERVE = "trace.observe"
"""Span around the tracer's own bookkeeping (hashing a decoded body), so
that its cost is charged to no layer."""


class Target(NamedTuple):
    span: str  # span name, "<layer>.<function>"
    module: str  # module whose namespace the caller looks the name up in
    attr: str  # dotted attribute path inside that module
    observe: Callable[["Tracer", tuple, Any], None] | None = None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = -1
        self._stack: list[int] = []
        self.errors: Counter[str] = Counter()  # exceptions raised out of a span
        self.counters: Counter[str] = Counter()  # totals kept by the observers
        self.distinct: set[bytes] = set()  # decoded vector bodies of the current run
        self.transcript: Any = None  # last transcript returned by run_simulation
        self.missing: dict[str, str] = {}  # span name -> dotted name not found
        self._restore: list[tuple[Any, str, Any, bool]] = []

    # -- spans ------------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        nid = self.name_id(target.span)
        observe = target.observe
        open_, close = self.open, self.close
        errors = self.errors
        onid = self.name_id(OBSERVE)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[target.span] += 1
                raise
            finally:
                close(idx)
            if observe is not None:
                oidx = open_(onid)
                try:
                    observe(self, args, result)
                finally:
                    close(oidx)
            return result

        return traced

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
                *owners, attr = target.attr.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.setdefault(target.span, f"{target.module}.{target.attr}")
                continue
            own = isinstance(owner, type) and attr in owner.__dict__
            raw = owner.__dict__[attr] if own else original
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(target, raw.__func__))
            elif isinstance(raw, functools.cached_property):
                wrapped = functools.cached_property(self._wrap(target, raw.func))
                wrapped.__set_name__(owner, attr)
            else:
                wrapped = self._wrap(target, raw)
            setattr(owner, attr, wrapped)
            put_back = own or not isinstance(owner, type)  # else it was inherited: delete
            self._restore.append((owner, attr, raw, put_back))

    def uninstall(self) -> None:
        """Put back every original, last wrapped first."""
        while self._restore:
            owner, attr, raw, put_back = self._restore.pop()
            if put_back:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- results ----------------------------------------------------------------

    def self_times(self) -> list[int]:
        return self_times(self.start, self.end, self.parent)

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tparent\trun\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{self.run[i]}\t{names[self.name[i]]}"
                          f"\t{self.start[i]}\t{self.end[i]}\n")


def self_times(start, end, parent) -> list[int]:
    """Per span, its duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span lie inside it
    one after another and never overlap: the time they cover is the sum
    of their durations.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own
