"""In-memory spans around a layer's public entry points, and their aggregation.

The benchmark measures the layers of the system from outside: it rebinds
the module or class attribute a caller resolves at call time (for example
``repro.pic.simulation.gather_fields``) to a wrapper that records a span,
and puts the original back afterwards.  Spans stay in memory and are
written once, as JSONL, when the benchmark ends.

Self time is a span's duration minus the part of it that its child spans
cover.  Spans nest per thread, so the self times of one thread add up to
the time its root spans cover; :func:`aggregate` reports that next to the
thread's wall time (first span start to last span end).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_MISSING = object()

#: One finished span: (name, span id, parent id or None, thread key,
#: run id, start, end), times from ``time.perf_counter``.
Span = Tuple[str, int, Optional[int], str, str, float, float]


class Tracer:
    """Records spans for one workload; installs and removes the wrappers.

    Args:
        workload: the workload name every span carries.
        run_of: maps the recording thread to the span's run id; by default
            every span takes :attr:`run_id` as it is when the span ends.
    """

    def __init__(self, workload: str,
                 run_of: Optional[Callable[[threading.Thread], str]] = None
                 ) -> None:
        self.workload = workload
        self.run_id = ""
        self.spans: List[Span] = []
        self._run_of = run_of
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body on the current thread."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            thread = threading.current_thread()
            run = self._run_of(thread) if self._run_of else self.run_id
            self.spans.append((name, span_id, parent,
                               f"{thread.name}#{thread.ident}", run,
                               start, end))

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Rebind ``owner.attr`` to a wrapper recording a span ``name``.

        ``owner`` is a module or a class.  Static and class methods keep
        their kind; an inherited method is shadowed on ``owner`` and the
        shadow is deleted again by :meth:`restore`.
        """
        raw = vars(owner).get(attr, _MISSING)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) \
            else None
        function = raw.__func__ if kind else getattr(owner, attr)
        span = self.span

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with span(name):
                return function(*args, **kwargs)

        setattr(owner, attr, kind(traced) if kind else traced)
        self._patches.append((owner, attr, raw))

    def install(self, entry_points: Iterable[Tuple[object, str, str]]) -> None:
        """Wrap every ``(owner, attr, span name)`` entry point."""
        for owner, attr, name in entry_points:
            self.wrap(owner, attr, name)

    def restore(self) -> None:
        """Put every wrapped attribute back as it was (newest first)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- output ---------------------------------------------------------------
    def records(self) -> List[Dict[str, object]]:
        """The spans as JSON-able dicts (the JSONL row format)."""
        return [span_record(span, self.workload) for span in self.spans]


def span_record(span: Span, workload: str) -> Dict[str, object]:
    name, span_id, parent, thread, run, start, end = span
    return {"name": name, "id": span_id, "parent": parent, "thread": thread,
            "run": run, "workload": workload, "start": start, "end": end}


def span_from_record(row: Dict[str, object], prefix: str = "") -> Span:
    """Inverse of :func:`span_record`; ``prefix`` keeps ids of several
    processes apart when their spans are merged."""
    parent = row["parent"]
    return (row["name"], f"{prefix}{row['id']}",
            None if parent is None else f"{prefix}{parent}",
            f"{prefix}{row['thread']}", row["run"], row["start"], row["end"])


def write_jsonl(path: str, header: Dict[str, object],
                rows: Sequence[Dict[str, object]]) -> None:
    """Write one header line and then one span per line."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def read_jsonl(path: str) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    with open(path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------
def _union(intervals: List[Tuple[float, float]]) -> float:
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


class Aggregate:
    """Per-name and per-thread totals of a set of spans.

    Attributes:
        calls / total / self_time: per span name, the call count, summed
            duration and summed self time (seconds).
        threads: per ``(run, thread)`` key, ``{"wall", "covered",
            "self", "names"}`` — wall from the first span start to the last
            span end, the union of the root spans, the summed self time and
            the span names seen on that thread.
    """

    def __init__(self, spans: Sequence[Span]) -> None:
        children: Dict[object, List[Span]] = defaultdict(list)
        for span in spans:
            if span[2] is not None:
                children[span[2]].append(span)
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        per_thread: Dict[Tuple[str, str], List[Span]] = defaultdict(list)
        self_of: Dict[object, float] = {}
        for span in spans:
            name, span_id, _, thread, run, start, end = span
            kids = [(max(start, k[5]), min(end, k[6]))
                    for k in children.get(span_id, ())]
            own = (end - start) - _union([k for k in kids if k[1] > k[0]])
            self_of[span_id] = own
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += own
            per_thread[(run, thread)].append(span)
        self.threads: Dict[Tuple[str, str], Dict[str, object]] = {}
        for key, members in per_thread.items():
            roots = [(s[5], s[6]) for s in members if s[2] is None]
            self.threads[key] = {
                "wall": max(s[6] for s in members) - min(s[5] for s in members),
                "covered": _union(roots),
                "self": sum(self_of[s[1]] for s in members),
                "names": {s[0] for s in members},
            }

    def threads_with(self, name: str) -> List[Dict[str, object]]:
        """The threads on which a span called ``name`` was recorded."""
        return [t for t in self.threads.values() if name in t["names"]]


def nesting_errors(spans: Sequence[Span]) -> List[str]:
    """Spans whose parent is missing, on another thread or does not contain
    them (empty when every span nests)."""
    by_id = {span[1]: span for span in spans}
    errors = []
    for span in spans:
        if span[2] is None:
            continue
        parent = by_id.get(span[2])
        if parent is None:
            errors.append(f"{span[0]}: parent {span[2]} missing")
        elif parent[3] != span[3]:
            errors.append(f"{span[0]}: parent {parent[0]} on another thread")
        elif not (parent[5] <= span[5] and span[6] <= parent[6]):
            errors.append(f"{span[0]}: not inside parent {parent[0]}")
    return errors
