"""In-memory span tracer installed around the program's public functions.

The benchmark never edits the program: it replaces module attributes and
class methods with timing wrappers for the duration of a traced run and
restores them afterwards.  Two kinds of span exist:

* **stored** spans are appended to :attr:`Tracer.spans` as
  ``[name, start, end, parent, rid, folded]`` rows and written out when
  the run ends.  Their self time is computed offline by
  :func:`self_times` (duration minus the union of the intervals their
  children cover, minus ``folded``).
* **hot** spans (one per simulated request or cache access; millions per
  run) are aggregated in place: count, total and self time per name.  A
  hot span adds its duration to its parent's ``folded`` field, so the
  parent's self time still excludes it.  Hot spans may only have hot
  children, which is what makes in-place self time exact.

The current span is a :class:`contextvars.ContextVar`, so every asyncio
task has its own parent chain and interleaved requests never adopt each
other's spans.
"""

from __future__ import annotations

import contextvars
import functools
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_clock = time.perf_counter

# Stored-span row layout.
NAME, START, END, PARENT, RID, FOLDED = range(6)


class _Frame:
    """One open span: where its children report their time."""

    __slots__ = ("index", "folded", "rid", "hot")

    def __init__(self, index: int, rid: str, hot: bool) -> None:
        self.index = index
        self.folded = 0.0
        self.rid = rid
        self.hot = hot


class Tracer:
    """Span recorder plus the patch/restore bookkeeping of its wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: name -> [count, total_s, self_s] for hot spans.
        self.hot: Dict[str, List[float]] = {}
        #: name -> [count, misses] for cache-role counters.
        self.counts: Dict[str, List[int]] = {}
        self.rid = ""
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "bench_span", default=None
        )
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Span primitives
    # ------------------------------------------------------------------

    def _open(self, name: str, rid: Optional[str]) -> Tuple[_Frame, object]:
        parent = self._current.get()
        if parent is not None and parent.hot:
            raise RuntimeError(f"stored span {name!r} under a hot span")
        if rid is None:
            rid = parent.rid if parent is not None else self.rid
        index = len(self.spans)
        self.spans.append(
            [name, _clock(), 0.0, -1 if parent is None else parent.index,
             rid, 0.0]
        )
        frame = _Frame(index, rid, False)
        return frame, self._current.set(frame)

    def _close(self, frame: _Frame, token) -> None:
        row = self.spans[frame.index]
        row[END] = _clock()
        row[FOLDED] = frame.folded
        self._current.reset(token)

    def stored(self, name: str, rid_of: Optional[Callable] = None):
        """Decorator factory: record each call as a stored span."""

        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rid = rid_of(*args, **kwargs) if rid_of is not None else None
                frame, token = self._open(name, rid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(frame, token)

            return wrapper

        return decorate

    def hot_span(self, name: str, outcome: Optional[Callable] = None):
        """Decorator factory: aggregate each call in place.

        ``outcome``, when given, maps the call's result to a miss flag
        counted under :attr:`counts` (cache roles use it).
        """
        agg = self.hot.setdefault(name, [0, 0.0, 0.0])
        if outcome is not None:
            counts = self.counts.setdefault(name, [0, 0])
        current = self._current

        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent = current.get()
                frame = _Frame(-1, "", True)
                token = current.set(frame)
                start = _clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = _clock() - start
                    current.reset(token)
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - frame.folded
                    if parent is not None:
                        parent.folded += duration
                if outcome is not None:
                    counts[0] += 1
                    counts[1] += outcome(result)
                return result

            return wrapper

        return decorate

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------

    def patch(self, owner, attr: str, wrap: Callable) -> None:
        """Replace ``owner.attr`` with ``wrap(original)``; undo on restore."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        self._patches.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(wrap(raw.__func__)))
        else:
            setattr(owner, attr, wrap(raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per-name ``count``, ``total_s`` and ``self_s`` over all spans."""
        out: Dict[str, Dict[str, float]] = {}
        selfs = self_times(self.spans)
        for row, own in zip(self.spans, selfs):
            entry = out.setdefault(
                row[NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["count"] += 1
            entry["total_s"] += row[END] - row[START]
            entry["self_s"] += own
        for name, (count, total, own) in self.hot.items():
            entry = out.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["count"] += count
            entry["total_s"] += total
            entry["self_s"] += own
        return out


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every stored span, in input order.

    Self time is the span's duration minus the part of its interval that
    its children cover (children may nest or overlap, as concurrent
    tasks under one parent do) minus its ``folded`` hot-child time.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for row in spans:
        if row[PARENT] >= 0:
            children.setdefault(row[PARENT], []).append((row[START], row[END]))
    out = []
    for index, row in enumerate(spans):
        duration = row[END] - row[START]
        kids = children.get(index, ())
        out.append(
            duration - covered(kids, row[START], row[END]) - row[FOLDED]
        )
    return out


def write_spans(tracer: Tracer, path) -> None:
    """Write stored spans as JSON lines (name, start, end, parent, rid)."""
    import json

    with open(path, "w") as fh:
        for index, row in enumerate(tracer.spans):
            fh.write(
                json.dumps(
                    {
                        "i": index,
                        "name": row[NAME],
                        "start": row[START],
                        "end": row[END],
                        "parent": row[PARENT],
                        "rid": row[RID],
                        "folded_s": row[FOLDED],
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )
        for name, (count, total, own) in sorted(tracer.hot.items()):
            fh.write(
                json.dumps(
                    {"hot": name, "count": count, "total_s": total,
                     "self_s": own},
                    separators=(",", ":"),
                )
                + "\n"
            )
