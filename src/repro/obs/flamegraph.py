"""Flamegraph exporters: folded stacks and speedscope JSON.

Both collapse the tracer's span trees (``repro.trace.Tracer``) into
flame-graph-ready forms:

* **folded stacks** — one line per unique root-to-span path with the
  path's *self time* in integer microseconds
  (``compile demo.maya;phase parse+expand;expand EForEach 1234``) —
  the input format of Brendan Gregg's ``flamegraph.pl`` and of
  speedscope's "folded" importer;
* **speedscope** — the evented JSON profile format of
  https://www.speedscope.app: a shared frame table plus open/close
  events on one timeline, preserving the actual span timings so the
  time-order view shows when each expansion ran, not just how long.

A span's display frame is ``"<kind> <name>"`` — e.g. ``phase lex``,
``dispatch PrimaryExpr ...``, ``expand EForEach`` — so the flamegraph
reads like the ``--trace`` view.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple


def _frame_name(span) -> str:
    return f"{span.kind} {span.name}"


def _span_bounds(span, fallback_end: float) -> Tuple[float, float]:
    end = span.end if span.end is not None else fallback_end
    return span.start, max(span.start, end)


def folded_stacks(tracer) -> str:
    """The trace as folded stack lines (self time, microseconds)."""
    totals: Dict[Tuple[str, ...], int] = {}
    # Visit order does not matter: the lines are sorted by path.
    pending = [(root, ()) for root in tracer.roots]
    while pending:
        span, path = pending.pop()
        path = path + (_frame_name(span),)
        pending.extend((child, path) for child in span.children)
        self_us = int(round(span.self_time * 1e6))
        if self_us > 0:
            totals[path] = totals.get(path, 0) + self_us
    return "".join(f"{';'.join(path)} {value}\n"
                   for path, value in sorted(totals.items()))


def to_speedscope(tracer, name: str = "mayac") -> Dict[str, object]:
    """The trace as a speedscope evented profile (plain data)."""
    frames: List[Dict[str, str]] = []
    frame_index: Dict[str, int] = {}

    def frame_of(span) -> int:
        label = _frame_name(span)
        index = frame_index.get(label)
        if index is None:
            index = frame_index[label] = len(frames)
            frames.append({"name": label})
        return index

    roots = list(tracer.roots)
    epoch = roots[0].start if roots else 0.0
    events: List[Dict[str, object]] = []
    end_value = 0.0

    # (span, lo, hi) opens a span clamped to [lo, hi]; (None, frame,
    # at) closes one.
    pending = [(root, *_span_bounds(root, root.start))
               for root in reversed(roots)]
    while pending:
        span, lo, hi = pending.pop()
        if span is None:
            events.append({"type": "C", "frame": lo, "at": hi})
            end_value = max(end_value, hi)
            continue
        start, end = _span_bounds(span, hi)
        # Clamp into the parent's window so the event stream stays
        # well-nested even for spans cut short by an exception unwind.
        start = min(max(start, lo), hi)
        end = min(max(end, start), hi)
        frame = frame_of(span)
        events.append({"type": "O", "frame": frame,
                       "at": (start - epoch) * 1e3})
        pending.append((None, frame, (end - epoch) * 1e3))
        pending.extend((child, start, end)
                       for child in reversed(span.children))

    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [{
            "type": "evented",
            "name": name,
            "unit": "milliseconds",
            "startValue": 0,
            "endValue": end_value,
            "events": events,
        }],
        "name": name,
        "exporter": "mayac --flamegraph",
        "activeProfileIndex": 0,
    }


def to_speedscope_text(tracer, name: str = "mayac") -> str:
    return json.dumps(to_speedscope(tracer, name)) + "\n"
