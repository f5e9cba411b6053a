"""Trace assembly and analysis over exported JSON-lines spans.

``repro run --trace-out`` / ``repro bench-serve --trace-out`` write flat
span records (one JSON object per line, see :mod:`repro.obs.tracer`).
This module turns that file back into causal trees and answers the
operational questions behind ``repro obs trace``:

- **show** — the span tree of one trace as a waterfall (wall-clock
  aligned across processes via each span's ``wall`` field);
- **critical** — the critical path through a request: starting at the
  root, repeatedly descend into the longest child; each step reports
  *self-time* (duration minus the sum of direct children) vs child time,
  so the line that actually burned the wall clock is explicit;
- **summary** — aggregation by span name across every trace in the file,
  plus the connectivity check (``--check``) CI runs: every span must
  carry a ``trace_id`` and resolve its ``parent`` within its own trace.

Error spans (``error: true``, recorded when a span body raised) are
marked ``!`` in every view and counted separately in the summary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

_UNTRACED = "(untraced)"

# Waterfall geometry.
_BAR_WIDTH = 32
_NAME_WIDTH = 44


def load_spans(path: str) -> List[Dict[str, Any]]:
    """All span records of a JSON-lines trace file, in file order.

    Raises :class:`ValueError` on unparsable lines — a corrupt trace
    should fail loudly, exactly like a corrupt ledger.
    """
    spans: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON ({exc})")
            if not isinstance(record, dict) or "id" not in record:
                raise ValueError(f"{path}:{lineno}: not a span record")
            spans.append(record)
    return spans


@dataclass
class Trace:
    """One assembled trace: spans indexed, children linked, roots found."""

    trace_id: str
    spans: List[Dict[str, Any]] = field(default_factory=list)
    by_id: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    children: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    roots: List[Dict[str, Any]] = field(default_factory=list)
    # Spans whose non-null parent id is missing from this trace — each one
    # is a broken causal link (connectivity violation).
    orphans: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def root(self) -> Optional[Dict[str, Any]]:
        """The principal root: the longest-duration true root."""
        return max(self.roots, key=lambda s: s.get("dur", 0.0), default=None)

    @property
    def duration(self) -> float:
        root = self.root
        return float(root.get("dur", 0.0)) if root else 0.0

    @property
    def errors(self) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s.get("error")]

    def self_seconds(self, span: Dict[str, Any]) -> float:
        """Duration minus the direct children's durations (>= 0)."""
        own = float(span.get("dur", 0.0))
        kids = sum(
            float(c.get("dur", 0.0))
            for c in self.children.get(span["id"], ())
        )
        return max(0.0, own - kids)


def assemble(spans: List[Dict[str, Any]]) -> Dict[str, Trace]:
    """Group flat records into :class:`Trace` trees, keyed by trace id.

    Spans without a ``trace_id`` land in the ``(untraced)`` pseudo-trace —
    present so nothing silently disappears, and flagged by :func:`check`.
    """
    traces: Dict[str, Trace] = {}
    for span in spans:
        key = span.get("trace_id") or _UNTRACED
        trace = traces.get(key)
        if trace is None:
            trace = traces[key] = Trace(trace_id=key)
        trace.spans.append(span)
        trace.by_id[span["id"]] = span
    for trace in traces.values():
        for span in trace.spans:
            parent = span.get("parent")
            if parent is None:
                trace.roots.append(span)
            elif parent in trace.by_id:
                trace.children.setdefault(parent, []).append(span)
            else:
                trace.orphans.append(span)
                trace.roots.append(span)  # render it somewhere visible
        for kids in trace.children.values():
            kids.sort(key=_span_order)
        trace.roots.sort(key=_span_order)
    return traces


def _span_order(span: Dict[str, Any]) -> Tuple[float, str]:
    # Wall clock orders spans across processes; perf_counter start values
    # only order spans within one process and pre-``wall`` trace files.
    return (float(span.get("wall") or span.get("start") or 0.0), span["id"])


def select_trace(
    traces: Dict[str, Trace], prefix: Optional[str] = None
) -> Trace:
    """Pick one trace: by id prefix, else the slowest (longest root)."""
    real = {k: t for k, t in traces.items() if k != _UNTRACED}
    pool = real or traces
    if not pool:
        raise ValueError("trace file holds no spans")
    if prefix:
        matches = [t for k, t in sorted(pool.items()) if k.startswith(prefix)]
        if not matches:
            raise ValueError(f"no trace id starts with {prefix!r}")
        if len(matches) > 1:
            raise ValueError(
                f"trace id prefix {prefix!r} is ambiguous "
                f"({len(matches)} matches)"
            )
        return matches[0]
    return max(pool.values(), key=lambda t: t.duration)


# -- waterfall rendering -----------------------------------------------------


def _fmt_ms(seconds: float) -> str:
    return f"{1000.0 * seconds:.1f}ms"


def _label(span: Dict[str, Any]) -> str:
    name = span.get("name", "?")
    if span.get("error"):
        name += f" !{span.get('error_type', 'error')}"
    attrs = span.get("attrs") or {}
    status = attrs.get("status")
    if status is not None:
        name += f" [{status}]"
    return name


def render_tree(trace: Trace) -> str:
    """Indented waterfall of one trace, wall-aligned across processes."""
    walls = [
        float(s["wall"]) for s in trace.spans if float(s.get("wall") or 0.0)
    ]
    base = min(walls) if walls else 0.0
    span_end = max(
        (
            float(s.get("wall") or 0.0) + float(s.get("dur", 0.0))
            for s in trace.spans
        ),
        default=0.0,
    )
    total = max(span_end - base, 1e-9)

    lines = [
        f"trace {trace.trace_id}  "
        f"({len(trace.spans)} spans, {_fmt_ms(trace.duration)}"
        + (f", {len(trace.errors)} error(s)" if trace.errors else "")
        + ")"
    ]

    def bar(span: Dict[str, Any]) -> str:
        wall = float(span.get("wall") or 0.0)
        if not wall:
            return " " * _BAR_WIDTH
        offset = (wall - base) / total
        frac = float(span.get("dur", 0.0)) / total
        left = min(_BAR_WIDTH - 1, int(offset * _BAR_WIDTH))
        width = max(1, min(_BAR_WIDTH - left, int(math.ceil(frac * _BAR_WIDTH))))
        fill = "!" if span.get("error") else "#"
        return ("." * left + fill * width).ljust(_BAR_WIDTH, ".")

    def walk(span: Dict[str, Any], depth: int) -> None:
        label = ("  " * depth + _label(span))[:_NAME_WIDTH]
        lines.append(
            f"  {label:<{_NAME_WIDTH}} |{bar(span)}| "
            f"{_fmt_ms(float(span.get('dur', 0.0))):>10} "
            f"self {_fmt_ms(trace.self_seconds(span)):>10}  "
            f"pid {span.get('pid', '?')}"
        )
        for child in trace.children.get(span["id"], ()):
            walk(child, depth + 1)

    for root in trace.roots:
        walk(root, 0)
    return "\n".join(lines)


# -- critical path -----------------------------------------------------------


def critical_path(trace: Trace) -> List[Dict[str, Any]]:
    """Longest chain of child spans from the principal root.

    At every level descend into the child with the largest duration —
    the request's wall clock is dominated by that chain, and each step's
    self-time says whether the time went to that span's own work or to
    its children.
    """
    path: List[Dict[str, Any]] = []
    span = trace.root
    seen = set()
    while span is not None and span["id"] not in seen:
        seen.add(span["id"])
        path.append(span)
        span = max(
            trace.children.get(span["id"], ()),
            key=lambda s: float(s.get("dur", 0.0)),
            default=None,
        )
    return path


def render_critical(trace: Trace) -> str:
    """The ``repro obs trace critical`` report for one trace."""
    path = critical_path(trace)
    if not path:
        return f"trace {trace.trace_id}: no spans"
    total = float(path[0].get("dur", 0.0)) or 1e-9
    lines = [
        f"critical path of trace {trace.trace_id}  "
        f"({_fmt_ms(trace.duration)} total, {len(path)} spans deep)",
        f"  {'span':<{_NAME_WIDTH}} {'dur':>10} {'self':>10} "
        f"{'self%':>6}  pid",
    ]
    for depth, span in enumerate(path):
        dur = float(span.get("dur", 0.0))
        self_s = trace.self_seconds(span)
        label = ("  " * depth + _label(span))[:_NAME_WIDTH]
        lines.append(
            f"  {label:<{_NAME_WIDTH}} {_fmt_ms(dur):>10} "
            f"{_fmt_ms(self_s):>10} {self_s / total:>6.1%}  "
            f"{span.get('pid', '?')}"
        )
    leaf = path[-1]
    lines.append(
        f"  leaf: {leaf.get('name', '?')} on pid {leaf.get('pid', '?')} "
        f"({_fmt_ms(float(leaf.get('dur', 0.0)))})"
    )
    off_path = trace.duration - sum(trace.self_seconds(s) for s in path)
    if off_path > 1e-9:
        lines.append(
            f"  off-path time: {_fmt_ms(off_path)} "
            "(siblings of the chain above)"
        )
    return "\n".join(lines)


# -- summary / connectivity check --------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q * n)``-th smallest value.

    0 for empty input.  Trace summaries and ``bench-serve`` latency
    percentiles both use it.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def summarize(traces: Dict[str, Trace]) -> Dict[str, Any]:
    """Aggregate by span name across every trace of a file."""
    names: Dict[str, Dict[str, Any]] = {}
    for trace in traces.values():
        for span in trace.spans:
            row = names.setdefault(span.get("name", "?"), {
                "count": 0, "errors": 0, "durs": [], "self": 0.0,
            })
            row["count"] += 1
            row["errors"] += 1 if span.get("error") else 0
            row["durs"].append(float(span.get("dur", 0.0)))
            row["self"] += trace.self_seconds(span)
    table = []
    for name, row in names.items():
        durs = row.pop("durs")
        table.append({
            "name": name,
            "count": row["count"],
            "errors": row["errors"],
            "total_ms": round(1000.0 * sum(durs), 3),
            "mean_ms": round(1000.0 * sum(durs) / len(durs), 3),
            "p95_ms": round(1000.0 * percentile(durs, 0.95), 3),
            "self_ms": round(1000.0 * row["self"], 3),
        })
    table.sort(key=lambda r: -r["total_ms"])
    real = [t for k, t in traces.items() if k != _UNTRACED]
    return {
        "traces": len(real),
        "spans": sum(len(t.spans) for t in traces.values()),
        "errors": sum(len(t.errors) for t in traces.values()),
        "orphans": sum(len(t.orphans) for t in traces.values()),
        "untraced": len(traces.get(_UNTRACED, Trace(_UNTRACED)).spans),
        "by_name": table,
    }


def check(traces: Dict[str, Trace]) -> List[str]:
    """Connectivity violations across a whole trace file (CI gate).

    Every span must carry a ``trace_id``, resolve its ``parent`` inside
    its own trace, and every real trace must form a single tree (exactly
    one root).  Returns human-readable violations; empty == pass.
    """
    violations: List[str] = []
    untraced = traces.get(_UNTRACED)
    if untraced is not None:
        violations.append(
            f"{len(untraced.spans)} span(s) carry no trace_id "
            f"(e.g. {untraced.spans[0].get('name', '?')!r})"
        )
    for key in sorted(traces):
        if key == _UNTRACED:
            continue
        trace = traces[key]
        for span in trace.orphans:
            violations.append(
                f"trace {key[:12]}: span {span['id']} "
                f"({span.get('name', '?')!r}) references missing parent "
                f"{span.get('parent')!r}"
            )
        true_roots = [s for s in trace.roots if s.get("parent") is None]
        if not true_roots:
            violations.append(f"trace {key[:12]}: no root span")
        elif len(true_roots) > 1:
            violations.append(
                f"trace {key[:12]}: {len(true_roots)} root spans "
                f"({', '.join(repr(s.get('name', '?')) for s in true_roots)})"
                " — expected a single tree"
            )
    return violations


def render_summary(
    traces: Dict[str, Trace], violations: Optional[List[str]] = None
) -> str:
    """The ``repro obs trace summary`` report."""
    stats = summarize(traces)
    lines = [
        f"traces {stats['traces']}  spans {stats['spans']}  "
        f"errors {stats['errors']}  orphans {stats['orphans']}  "
        f"untraced {stats['untraced']}",
        f"  {'span name':<28} {'count':>6} {'err':>4} {'total':>10} "
        f"{'mean':>9} {'p95':>9} {'self':>10}",
    ]
    for row in stats["by_name"]:
        lines.append(
            f"  {row['name']:<28.28} {row['count']:>6} {row['errors']:>4} "
            f"{row['total_ms']:>9.1f}m {row['mean_ms']:>8.1f}m "
            f"{row['p95_ms']:>8.1f}m {row['self_ms']:>9.1f}m"
        )
    if violations is not None:
        if violations:
            lines.append("connectivity check FAILED:")
            lines.extend(f"  - {v}" for v in violations)
        else:
            lines.append(
                f"connectivity check passed: {stats['traces']} trace(s), "
                "every span's parent and trace_id resolve"
            )
    return "\n".join(lines)
