"""Wall-clock spans recorded from outside the program, and their arithmetic.

A :class:`Tracer` keeps every span of one process in memory (name, start,
end, parent span, pid, workload-run id) and writes them to one JSON file
when the process ends.  :func:`layer_totals` reads the files of every
process of a run and turns them into per-layer calls, inclusive busy time
and self time.  Times come from ``time.monotonic`` (``CLOCK_MONOTONIC`` on
Linux), which is one clock for every process on the host, so spans from
pool workers and their parent share a time base.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Attribute every wrapper carries, pointing at the function it wraps.
MARK = "__perfbench_wrapped__"

#: ``probe(args, kwargs)`` runs before a wrapped call and returns a
#: callable that receives the call's result.
Probe = Callable[[tuple, dict], Callable[[Any], None]]


class Tracer:
    """In-memory span and counter sink for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.pid = os.getpid()
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counters: Dict[str, float] = {}
        self._open: List[int] = []

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, name: str, fn: Callable, probe: Optional[Probe] = None) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        A call made while the innermost open span already has ``name``
        (``download`` delegating to ``download_direct``) adds no second
        span, so a layer's busy time never counts one interval twice.
        """
        names, starts, ends, parents, open_ = (
            self.names, self.starts, self.ends, self.parents, self._open
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_ and names[open_[-1]] == name:
                return fn(*args, **kwargs)
            finish = probe(args, kwargs) if probe is not None else None
            sid = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(sid)
            starts.append(time.monotonic())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = time.monotonic()
                open_.pop()
            if finish is not None:
                finish(result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def counting(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped to count its calls, without a span."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] = counters.get(name, 0.0) + 1.0
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, fn)
        return wrapper

    def dump(self, directory: str) -> str:
        """Write this process's spans to ``directory``; returns the path."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        payload = {
            "pid": self.pid,
            "run_id": self.run_id,
            "names": table,
            "name": [index[n] for n in self.names],
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
            "counters": self.counters,
        }
        path = os.path.join(directory, f"spans-{self.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
        return path


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """Span duration minus the part of ``[start, end]`` its children cover.

    Children are clipped to the parent and overlapping children count
    their shared interval once.
    """
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in children if e > start and s < end
    )
    covered = 0.0
    cur_s, cur_e = None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        covered += cur_e - cur_s
    return (end - start) - covered


class LayerTotals:
    """Per-name span totals plus counters, summed over processes."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.busy: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        #: (start, end) of every span, by name, over all processes.
        self.intervals: Dict[str, List[Tuple[float, float]]] = {}


def layer_totals(payloads: Sequence[Dict[str, Any]], run_id: str) -> LayerTotals:
    """Aggregate the span files of one workload run into per-layer totals."""
    out = LayerTotals()
    for p in payloads:
        if p["run_id"] != run_id:
            raise ValueError(f"span file of run {p['run_id']!r} mixed into {run_id!r}")
        names = [p["names"][i] for i in p["name"]]
        starts, ends, parents = p["start"], p["end"], p["parent"]
        children: Dict[int, List[Tuple[float, float]]] = {}
        for sid, parent in enumerate(parents):
            if parent >= 0:
                children.setdefault(parent, []).append((starts[sid], ends[sid]))
        for sid, name in enumerate(names):
            s, e = starts[sid], ends[sid]
            out.calls[name] = out.calls.get(name, 0) + 1
            out.busy[name] = out.busy.get(name, 0.0) + (e - s)
            out.self_s[name] = out.self_s.get(name, 0.0) + self_time(
                s, e, children.get(sid, ())
            )
            out.intervals.setdefault(name, []).append((s, e))
        for key, value in p["counters"].items():
            out.counters[key] = out.counters.get(key, 0.0) + value
    return out


def load_span_files(directory: str) -> List[Dict[str, Any]]:
    out = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                out.append(json.load(fh))
    return out


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile of ``values`` by the nearest-rank rule."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int, candidates: Sequence[float] = (90.0, 50.0)) -> float:
    """Highest candidate percentile with at least ten of ``n`` samples beyond it.

    Falls back to the last candidate (the median) when none qualifies, so
    a tail figure is never quoted from fewer than ten samples.
    """
    for pct in candidates:
        if n - max(1, math.ceil(pct / 100.0 * n)) >= 10:
            return pct
    return candidates[-1]
